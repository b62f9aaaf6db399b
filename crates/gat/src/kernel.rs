//! SoA distance kernels for candidate scoring.
//!
//! Algorithm 3 consumes candidate points as `(dist, cover-mask)` pairs
//! sorted ascending by distance. The straightforward AoS formulation
//! (`score_scalar`, kept as the tests' reference) interleaves a
//! hash-map posting lookup, a distance and a mask per candidate point,
//! which defeats autovectorization and allocates per call. The batch
//! formulation ([`ScoreScratch::score`])
//! first *gathers* the candidate coordinates and activity masks into
//! contiguous structure-of-arrays buffers — dropping zero-mask points
//! at the gather so they cost no arithmetic — then computes all
//! distances in one tight dependency-free loop over those arrays
//! (which the compiler can unroll and vectorize), and sorts. Batches
//! under `SOA_MIN_BATCH` take a one-pass scalar fill instead, where
//! the column passes cost more than they save. All buffers live in a
//! reusable [`ScoreScratch`], so steady-state scoring performs no
//! allocation on either path.
//!
//! Exactness: the batch loop evaluates `sqrt(dx·dx + dy·dy)` — the
//! same operations in the same order as [`Point::dist`] — so every
//! distance is bit-identical to the scalar reference. Dropping
//! zero-mask points is semantically neutral: `IncrementalCover::
//! add_point` ignores points covering no query activity, and the
//! early-termination test of `dmpm_from_sorted` compares against a
//! distance that only grows along the sorted order, so removing
//! no-op entries never changes the returned value. Both paths sort
//! with a *stable* comparison on the distance alone, preserving the
//! ascending point-index order of the APL union among ties.
//!
//! (Points in this reproduction carry planar x/y kilometres and an
//! activity set — there is no time dimension to batch.)

use atsq_matching::point_match::{CandidatePoint, QueryMask};
use atsq_types::{Point, TrajectoryPoint};
use std::cmp::Ordering;

/// Candidate count below which the one-pass scalar fill beats the SoA
/// column passes (measured on the NY-like workload, where the median
/// APL union is ~10 points): under this size the batch's fixed
/// clear/reserve work dominates and there are too few elements to
/// fill vector lanes.
const SOA_MIN_BATCH: usize = 32;

/// Reusable SoA buffers for batch candidate scoring. One instance per
/// query (or per worker) amortizes every allocation in the scoring hot
/// loop across all candidates the query evaluates.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Candidate point indexes (the APL union), filled by
    /// [`crate::apl::TrajectoryPostings::candidate_indexes_into`].
    pub indexes: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    masks: Vec<u32>,
    dists: Vec<f64>,
    cp: Vec<CandidatePoint>,
}

impl ScoreScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores the candidate points listed in `self.indexes` against a
    /// query point at `q_loc` with cover mask `qmask`, returning the
    /// non-zero-mask candidates sorted ascending by distance.
    ///
    /// The returned slice borrows scratch storage; it is valid until
    /// the next call.
    pub fn score(
        &mut self,
        q_loc: &Point,
        qmask: &QueryMask,
        points: &[TrajectoryPoint],
    ) -> &[CandidatePoint] {
        let n = self.indexes.len();
        if n < SOA_MIN_BATCH {
            // Small batches: one allocation-free pass. The SoA
            // column passes cost more than they save below this size
            // (fixed clear/reserve overhead, no vector lanes to
            // fill); `Point::dist` performs the identical op
            // sequence, so results stay bit-for-bit the same.
            self.cp.clear();
            for &idx in &self.indexes {
                let p = &points[idx as usize];
                let mask = qmask.cover_mask(p.activities.ids());
                if mask != 0 {
                    self.cp.push(CandidatePoint {
                        dist: q_loc.dist(&p.loc),
                        mask,
                    });
                }
            }
        } else {
            // Gather: AoS trajectory points -> contiguous SoA
            // columns, filtering zero-mask points here so they cost
            // no distance computation at all (`add_point` would
            // ignore them anyway).
            self.xs.clear();
            self.ys.clear();
            self.masks.clear();
            self.xs.reserve(n);
            self.ys.reserve(n);
            self.masks.reserve(n);
            for &idx in &self.indexes {
                let p = &points[idx as usize];
                let mask = qmask.cover_mask(p.activities.ids());
                if mask != 0 {
                    self.xs.push(p.loc.x);
                    self.ys.push(p.loc.y);
                    self.masks.push(mask);
                }
            }
            let kept = self.xs.len();

            // Distance pass: one tight loop over contiguous columns
            // with no branches and no cross-iteration dependencies —
            // exactly the shape LLVM auto-vectorizes. The op
            // sequence matches `Point::dist` bit for bit.
            self.dists.clear();
            self.dists.resize(kept, 0.0);
            let (qx, qy) = (q_loc.x, q_loc.y);
            for ((d, &x), &y) in self.dists.iter_mut().zip(&self.xs).zip(&self.ys) {
                let dx = qx - x;
                let dy = qy - y;
                *d = (dx * dx + dy * dy).sqrt();
            }

            self.cp.clear();
            self.cp.extend(
                self.dists
                    .iter()
                    .zip(&self.masks)
                    .map(|(&dist, &mask)| CandidatePoint { dist, mask }),
            );
        }

        // Stable sort keeps APL index order among equal distances —
        // the same tie order the scalar reference produces. A single
        // survivor needs no sort (the common case for short postings).
        if self.cp.len() > 1 {
            self.cp
                .sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap_or(Ordering::Equal));
        }
        &self.cp
    }
}

/// The scalar AoS reference: per candidate, one distance and one mask,
/// then a stable sort — the pre-kernel hot-loop shape, kept as the
/// correctness baseline for the tests below.
#[cfg(test)]
fn score_scalar(
    q_loc: &Point,
    qmask: &QueryMask,
    points: &[TrajectoryPoint],
    indexes: &[u32],
) -> Vec<CandidatePoint> {
    let mut cp: Vec<CandidatePoint> = indexes
        .iter()
        .map(|&idx| {
            let p = &points[idx as usize];
            CandidatePoint {
                dist: q_loc.dist(&p.loc),
                mask: qmask.cover_mask(p.activities.ids()),
            }
        })
        .collect();
    cp.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap_or(Ordering::Equal));
    cp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apl::TrajectoryPostings;
    use atsq_matching::point_match::dmpm_from_sorted;
    use atsq_types::{ActivitySet, Trajectory, TrajectoryId};

    fn tp(x: f64, y: f64, acts: &[u32]) -> TrajectoryPoint {
        TrajectoryPoint::new(
            Point::new(x, y),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    fn pseudo_points(n: usize, seed: u64) -> Vec<TrajectoryPoint> {
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|_| {
                let px = (next() % 10_000) as f64 / 37.0;
                let py = (next() % 10_000) as f64 / 53.0;
                tp(px, py, &[(next() % 6) as u32, (next() % 6) as u32])
            })
            .collect()
    }

    #[test]
    fn soa_matches_scalar_bit_for_bit() {
        let query_acts = ActivitySet::from_raw([0, 2, 4]);
        let qmask = QueryMask::new(&query_acts);
        let q_loc = Point::new(77.0, 33.0);
        // Which dispatch arms the APL-union inputs reached:
        // `[< SOA_MIN_BATCH, >= SOA_MIN_BATCH]`.
        let mut union_arms = [false; 2];
        // Sizes straddle SOA_MIN_BATCH so both dispatch arms are
        // checked against the scalar reference.
        for n in [1usize, 5, SOA_MIN_BATCH - 1, SOA_MIN_BATCH, 257] {
            let points = pseudo_points(n, 0xBEEF ^ n as u64);
            // Two index lists per point set: every point in order, and
            // the APL union the search scores (only the points carrying
            // a query activity, so with gaps).
            let all: Vec<u32> = (0..points.len() as u32).collect();
            let mut union = Vec::new();
            TrajectoryPostings::build(&Trajectory::new(TrajectoryId(0), points.clone()))
                .candidate_indexes_into(&query_acts, &mut union);
            union_arms[usize::from(union.len() >= SOA_MIN_BATCH)] = true;

            for indexes in [all, union] {
                let len = indexes.len();
                let scalar = score_scalar(&q_loc, &qmask, &points, &indexes);
                let mut scratch = ScoreScratch::new();
                scratch.indexes = indexes;
                let soa = scratch.score(&q_loc, &qmask, &points);

                // SoA output is the scalar output minus zero-mask
                // entries, in the same (stable) order, distances
                // bit-identical.
                let filtered: Vec<&CandidatePoint> =
                    scalar.iter().filter(|c| c.mask != 0).collect();
                assert_eq!(soa.len(), filtered.len(), "n={n} len={len}");
                for (a, b) in soa.iter().zip(filtered) {
                    assert_eq!(a.dist.to_bits(), b.dist.to_bits(), "n={n} len={len}");
                    assert_eq!(a.mask, b.mask, "n={n} len={len}");
                }

                // And the value the search actually consumes is identical.
                let d_soa = dmpm_from_sorted(&qmask, soa);
                let d_scalar = dmpm_from_sorted(&qmask, &scalar);
                assert_eq!(
                    d_soa.map(f64::to_bits),
                    d_scalar.map(f64::to_bits),
                    "Dmpm must be bit-identical (n={n} len={len})"
                );
            }
        }
        assert_eq!(
            union_arms,
            [true, true],
            "APL-union inputs must reach both dispatch arms"
        );
    }

    #[test]
    fn empty_and_all_zero_mask_inputs() {
        let points = pseudo_points(16, 3);
        let qmask = QueryMask::new(&ActivitySet::from_raw([17])); // never occurs
        let q_loc = Point::new(0.0, 0.0);
        let mut scratch = ScoreScratch::new();
        scratch.indexes.clear();
        assert!(scratch.score(&q_loc, &qmask, &points).is_empty());
        scratch.indexes = (0..points.len() as u32).collect();
        assert!(
            scratch.score(&q_loc, &qmask, &points).is_empty(),
            "all-zero-mask candidates compact away"
        );
    }

    #[test]
    fn scratch_is_reusable_across_calls() {
        let points = pseudo_points(64, 7);
        let qmask = QueryMask::new(&ActivitySet::from_raw([1, 3]));
        let q_loc = Point::new(5.0, 5.0);
        let mut scratch = ScoreScratch::new();
        scratch.indexes = (0..points.len() as u32).collect();
        let first: Vec<CandidatePoint> = scratch.score(&q_loc, &qmask, &points).to_vec();
        // A second call over different indexes, then back: identical.
        scratch.indexes = (0..8).collect();
        let _ = scratch.score(&q_loc, &qmask, &points);
        scratch.indexes = (0..points.len() as u32).collect();
        let again: Vec<CandidatePoint> = scratch.score(&q_loc, &qmask, &points).to_vec();
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.dist.to_bits(), b.dist.to_bits());
            assert_eq!(a.mask, b.mask);
        }
    }
}
