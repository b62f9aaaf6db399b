//! TAS — the Trajectory Activity Sketch (§IV).
//!
//! Each trajectory's distinct activity ids are summarised by `M`
//! closed intervals chosen to minimise the summed interval widths.
//! Because ids are assigned by descending global frequency, the ids a
//! trajectory touches cluster near 0 and the sketch stays tight.
//!
//! The optimal partition (proved optimal in §IV) sorts the ids and
//! splits at the `M − 1` largest gaps. The sketch never produces false
//! dismissals — every id the trajectory contains lies inside some
//! interval — but may produce false positives, which the APL check
//! later removes.

use atsq_types::{ActivityId, ActivitySet};

/// Interval sketch of one trajectory's activity ids.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sketch {
    /// Disjoint, ascending closed intervals `[lo, hi]`.
    intervals: Vec<(u32, u32)>,
}

impl Sketch {
    /// Builds the optimal `m`-interval sketch of `ids`, which must be
    /// strictly ascending, as [`ActivitySet::ids`] and an APL key run
    /// are.
    ///
    /// With fewer than `m` distinct ids the sketch is exact (one
    /// degenerate interval per id). An empty id list produces an
    /// empty sketch that contains nothing.
    ///
    /// # Panics
    /// If `m` is 0 or `ids` does not strictly ascend.
    pub fn build(ids: &[ActivityId], m: usize) -> Self {
        assert!(m >= 1, "sketch needs at least one interval");
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "sketch ids must strictly ascend"
        );
        if ids.len() <= m {
            return Sketch {
                intervals: ids.iter().map(|a| (a.0, a.0)).collect(),
            };
        }
        // Find the m-1 largest gaps between consecutive ids; split there.
        let mut gaps: Vec<(u32, usize)> = ids
            .windows(2)
            .enumerate()
            .map(|(i, w)| (w[1].0 - w[0].0, i))
            .collect();
        gaps.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut split_after: Vec<usize> = gaps[..m - 1].iter().map(|&(_, i)| i).collect();
        split_after.sort_unstable();

        let mut intervals = Vec::with_capacity(m);
        let mut start = 0usize;
        for &cut in &split_after {
            intervals.push((ids[start].0, ids[cut].0));
            start = cut + 1;
        }
        intervals.push((ids[start].0, ids[ids.len() - 1].0));
        Sketch { intervals }
    }

    /// Whether the sketch's intervals cover `id`.
    pub fn contains(&self, id: ActivityId) -> bool {
        let v = id.0;
        // Binary search over disjoint ascending intervals.
        self.intervals
            .binary_search_by(|&(lo, hi)| {
                if v < lo {
                    std::cmp::Ordering::Greater
                } else if v > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Whether the sketch covers *every* activity of `wanted` — the
    /// candidate-validation test of §V-C. `true` may be a false
    /// positive; `false` is always correct (no false dismissals).
    pub fn covers(&self, wanted: &ActivitySet) -> bool {
        wanted.iter().all(|a| self.contains(a))
    }

    /// The intervals (ascending, disjoint).
    pub fn intervals(&self) -> &[(u32, u32)] {
        &self.intervals
    }

    /// Summed interval widths `Σ |I_a|` — the quantity the partition
    /// minimises.
    pub fn total_width(&self) -> u64 {
        self.intervals
            .iter()
            .map(|&(lo, hi)| u64::from(hi - lo))
            .sum()
    }

    /// Sketch size in bytes (two u32 per interval, as the paper
    /// counts: "each interval only needs to keep two integers").
    pub fn memory_bytes(&self) -> usize {
        self.intervals.len() * 8
    }
}

/// The TAS table: one sketch per trajectory, indexed by trajectory id.
#[derive(Debug, Clone, Default)]
pub struct Tas {
    sketches: Vec<Sketch>,
}

impl Tas {
    /// Builds one sketch per trajectory from its distinct activity ids
    /// (strictly ascending, as an APL key run lists them).
    pub(crate) fn build<'a>(
        per_trajectory: impl IntoIterator<Item = &'a [ActivityId]>,
        m: usize,
    ) -> Self {
        Tas {
            sketches: per_trajectory
                .into_iter()
                .map(|ids| Sketch::build(ids, m))
                .collect(),
        }
    }

    /// The sketch of trajectory `idx`.
    pub fn sketch(&self, idx: usize) -> &Sketch {
        &self.sketches[idx]
    }

    /// Number of sketches.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// Total memory across all sketches (`8 M N` bytes when every
    /// sketch uses its full `M` intervals).
    pub fn memory_bytes(&self) -> usize {
        self.sketches.iter().map(Sketch::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(ids: &[u32], m: usize) -> Sketch {
        Sketch::build(ActivitySet::from_raw(ids.iter().copied()).ids(), m)
    }

    #[test]
    fn exact_when_few_ids() {
        let s = sketch(&[3, 9, 40], 4);
        assert_eq!(s.intervals(), &[(3, 3), (9, 9), (40, 40)]);
        assert_eq!(s.total_width(), 0);
        assert!(s.contains(ActivityId(9)));
        assert!(!s.contains(ActivityId(10)));
    }

    #[test]
    fn splits_at_largest_gaps() {
        // ids 1,2,3, 50,51, 100 with m=3: gaps 47 and 49 are largest.
        let s = sketch(&[1, 2, 3, 50, 51, 100], 3);
        assert_eq!(s.intervals(), &[(1, 3), (50, 51), (100, 100)]);
        assert_eq!(s.total_width(), 3);
    }

    #[test]
    fn paper_figure_two_example() {
        // Fig. 2(iii): Tr1 has activities {a..e} = ids {0..4} minus
        // none; sketch [a,b] ∪ [c,e] under M=2 when the largest gap is
        // between b and c. With ids 0,1,2,3,4 all gaps are 1; the
        // earliest gap wins deterministically: [0,0] ∪ [1,4].
        let s = sketch(&[0, 1, 2, 3, 4], 2);
        assert_eq!(s.intervals().len(), 2);
        assert!(s.covers(&ActivitySet::from_raw([0, 2, 4])));
    }

    #[test]
    fn no_false_dismissals() {
        let ids = [2u32, 7, 8, 30, 31, 90];
        let acts = ActivitySet::from_raw(ids);
        for m in 1..=6 {
            let s = Sketch::build(acts.ids(), m);
            for &id in &ids {
                assert!(s.contains(ActivityId(id)), "m={m} dropped {id}");
            }
        }
    }

    #[test]
    fn false_positives_shrink_with_more_intervals() {
        let acts = ActivitySet::from_raw([0u32, 1, 50, 51, 100, 101]);
        let widths: Vec<u64> = (1..=6)
            .map(|m| Sketch::build(acts.ids(), m).total_width())
            .collect();
        assert!(widths.windows(2).all(|w| w[0] >= w[1]), "{widths:?}");
        assert_eq!(widths[0], 101); // one interval [0,101]
        assert_eq!(widths[2], 3); // three tight pairs
    }

    #[test]
    fn covers_checks_all() {
        let s = sketch(&[1, 2, 3, 10], 2);
        assert!(s.covers(&ActivitySet::from_raw([1, 10])));
        assert!(s.covers(&ActivitySet::from_raw([2, 3])));
        assert!(!s.covers(&ActivitySet::from_raw([1, 7])));
        // Empty wanted set is trivially covered.
        assert!(s.covers(&ActivitySet::new()));
    }

    #[test]
    fn empty_sketch_contains_nothing() {
        let s = Sketch::build(&[], 4);
        assert!(!s.contains(ActivityId(0)));
        assert!(s.covers(&ActivitySet::new()));
        assert!(!s.covers(&ActivitySet::from_raw([1])));
        assert_eq!(s.memory_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascend")]
    fn unsorted_ids_are_refused() {
        Sketch::build(&[ActivityId(5), ActivityId(2), ActivityId(9)], 2);
    }

    #[test]
    fn tas_table() {
        let runs = [
            ActivitySet::from_raw([1, 2]),
            ActivitySet::from_raw([5, 90]),
        ];
        let t = Tas::build(runs.iter().map(ActivitySet::ids), 2);
        assert_eq!(t.len(), 2);
        assert!(t.sketch(0).covers(&ActivitySet::from_raw([1])));
        assert!(!t.sketch(1).covers(&ActivitySet::from_raw([1])));
        assert_eq!(t.memory_bytes(), 2 * 2 * 8);
    }

    /// The paper's optimality claim: splitting at the largest gaps
    /// minimises total width. Check against exhaustive splits.
    #[test]
    fn partition_is_optimal_small() {
        let ids = [0u32, 3, 4, 9, 11, 20, 22];
        let acts = ActivitySet::from_raw(ids);
        for m in 1..=4usize {
            let fast = Sketch::build(acts.ids(), m).total_width();
            // Exhaustive: choose m-1 split positions among 6 gaps.
            let mut best = u64::MAX;
            let gaps = 6usize;
            let combos = 1u32 << gaps;
            for mask in 0..combos {
                if (mask.count_ones() as usize) != m - 1 {
                    continue;
                }
                let mut width = 0u64;
                let mut start = 0usize;
                for g in 0..gaps {
                    if mask & (1 << g) != 0 {
                        width += u64::from(ids[g] - ids[start]);
                        start = g + 1;
                    }
                }
                width += u64::from(ids[6] - ids[start]);
                best = best.min(width);
            }
            assert_eq!(fast, best, "m={m}");
        }
    }
}
