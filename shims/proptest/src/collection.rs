//! `prop::collection` — collection strategies.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// Admissible element-count specifications for [`vec()`].
#[derive(Debug, Clone)]
pub struct SizeRange {
    min: usize,
    /// Inclusive upper bound.
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Strategy producing `Vec`s of `element` samples.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max - self.size.min) as u64 + 1;
        let len = self.size.min + rng.below(span) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// `prop::collection::vec(element, size)` — vectors whose length is
/// drawn from `size` (a `usize`, `a..b`, or `a..=b`).
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}
