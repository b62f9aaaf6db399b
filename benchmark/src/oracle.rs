//! The correctness gate: what every answer is compared against.
//!
//! Expected answers come from [`IlEngine`], an implementation that
//! shares no index with GAT. A seeded sample of them is checked in turn
//! against a scan of the whole dataset, so that the reference itself is
//! not taken on trust, and every distance in every expected answer is
//! recomputed with `atsq_matching` (which also times that layer) and,
//! where the trajectory is small enough for them, with its exponential
//! `brute_*` oracles.

use crate::inputs::K;
use crate::stats::Rng;
use atsq_core::{IlEngine, QueryKind};
use atsq_matching::brute::{brute_dmom, brute_dmpm};
use atsq_matching::{min_match_distance, min_order_match_distance};
use atsq_types::{rank_top_k, ActivitySet, Dataset, Query, QueryResult, TrajectoryPoint};
use std::time::Instant;

/// Queries per dataset whose expected answer is re-derived by a scan.
pub const SCAN_SAMPLE: usize = 32;

/// Largest point count handed to the exponential oracles.
const BRUTE_POINTS: usize = 10;

/// Expected answers for one dataset, and what producing them cost.
#[derive(Debug, Default)]
pub struct Expected {
    pub atsq: Vec<Vec<QueryResult>>,
    pub oatsq: Vec<Vec<QueryResult>>,
    /// Mean IL time per ATSQ / OATSQ in milliseconds.
    pub il_atsq_ms: f64,
    pub il_oatsq_ms: f64,
    pub verify: Verify,
}

/// Distance recomputation over expected answers.
#[derive(Debug, Default, Clone)]
pub struct Verify {
    pub dmm_evals: u64,
    pub dmm_ns: u64,
    pub dmom_evals: u64,
    pub dmom_ns: u64,
    /// Distances also confirmed by an exponential oracle.
    pub brute_checked: u64,
    /// Answers that failed any check; these fail the run.
    pub mismatches: u64,
}

/// Expected ATSQ answers for all `queries` and OATSQ answers for the
/// first `oatsq` of them, verified as the module doc describes.
pub fn expected(dataset: &Dataset, queries: &[Query], oatsq: usize, seed: u64) -> Expected {
    let il = IlEngine::build(dataset);
    let mut out = Expected::default();
    let t0 = Instant::now();
    out.atsq = queries.iter().map(|q| il.atsq(dataset, q, K)).collect();
    out.il_atsq_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len().max(1) as f64;
    if oatsq > 0 {
        let t0 = Instant::now();
        out.oatsq = queries[..oatsq]
            .iter()
            .map(|q| il.oatsq(dataset, q, K))
            .collect();
        out.il_oatsq_ms = t0.elapsed().as_secs_f64() * 1e3 / oatsq as f64;
    }

    let mut rng = Rng::new(seed, 0x5CA9);
    for _ in 0..SCAN_SAMPLE.min(queries.len()) {
        let i = rng.below(queries.len());
        if scan(dataset, &queries[i], QueryKind::Atsq) != out.atsq[i] {
            out.verify.mismatches += 1;
        }
        if i < oatsq && scan(dataset, &queries[i], QueryKind::Oatsq) != out.oatsq[i] {
            out.verify.mismatches += 1;
        }
    }
    for (query, results) in queries.iter().zip(&out.atsq) {
        recompute(dataset, query, results, QueryKind::Atsq, &mut out.verify);
    }
    for (query, results) in queries.iter().zip(&out.oatsq) {
        recompute(dataset, query, results, QueryKind::Oatsq, &mut out.verify);
    }
    out
}

/// Top-k over every trajectory of the dataset, no index involved.
fn scan(dataset: &Dataset, query: &Query, kind: QueryKind) -> Vec<QueryResult> {
    let all = dataset
        .trajectories()
        .iter()
        .filter_map(|tr| {
            let d = match kind {
                QueryKind::Atsq => min_match_distance(query, &tr.points),
                QueryKind::Oatsq => min_order_match_distance(query, &tr.points, f64::INFINITY),
            };
            d.map(|d| QueryResult::new(tr.id, d))
        })
        .collect();
    rank_top_k(all, K)
}

/// Recomputes every reported distance with the matching kernels,
/// timing them, and with the exponential oracles where feasible.
fn recompute(
    dataset: &Dataset,
    query: &Query,
    results: &[QueryResult],
    kind: QueryKind,
    v: &mut Verify,
) {
    for r in results {
        let points = &dataset.trajectory(r.trajectory).points;
        let t0 = Instant::now();
        let d = match kind {
            QueryKind::Atsq => min_match_distance(query, points),
            QueryKind::Oatsq => min_order_match_distance(query, points, f64::INFINITY),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        match kind {
            QueryKind::Atsq => (v.dmm_evals, v.dmm_ns) = (v.dmm_evals + 1, v.dmm_ns + ns),
            QueryKind::Oatsq => (v.dmom_evals, v.dmom_ns) = (v.dmom_evals + 1, v.dmom_ns + ns),
        }
        if d != Some(r.distance) {
            v.mismatches += 1;
        }
        match brute(query, points, kind) {
            Some(b) if (b - r.distance).abs() <= 1e-9 * r.distance.max(1.0) => v.brute_checked += 1,
            Some(_) => v.mismatches += 1,
            None => {}
        }
    }
}

/// The exponential oracle's distance, or `None` when the trajectory is
/// too long for it. Points carrying none of the wanted activities can
/// be in no minimal match, so they are dropped first; dropping keeps
/// the order of the rest, which is all `Dmom` depends on.
fn brute(query: &Query, points: &[TrajectoryPoint], kind: QueryKind) -> Option<f64> {
    let relevant = |wanted: &ActivitySet| -> Vec<TrajectoryPoint> {
        points
            .iter()
            .filter(|p| p.activities.intersects(wanted))
            .cloned()
            .collect()
    };
    match kind {
        QueryKind::Atsq => {
            let mut total = 0.0;
            for q in &query.points {
                let subset = relevant(&q.activities);
                if subset.len() > BRUTE_POINTS {
                    return None;
                }
                total += brute_dmpm(&q.loc, &q.activities, &subset)?;
            }
            Some(total)
        }
        QueryKind::Oatsq => {
            let mut wanted = ActivitySet::new();
            for q in &query.points {
                wanted.extend_from(&q.activities);
            }
            let subset = relevant(&wanted);
            if subset.len() > BRUTE_POINTS {
                return None;
            }
            brute_dmom(query, &subset)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::table_v_queries;
    use atsq_datagen::{generate, CityConfig};

    #[test]
    fn reference_scan_and_brute_oracles_agree_on_a_small_city() {
        let dataset = generate(&CityConfig::tiny(8)).unwrap();
        let queries = table_v_queries(&dataset, 3, 0, 12);
        let e = expected(&dataset, &queries, 12, 3);
        assert_eq!(e.verify.mismatches, 0);
        assert_eq!(e.atsq.len(), 12);
        assert_eq!(e.oatsq.len(), 12);
        assert!(e.verify.dmm_evals > 0 && e.verify.dmom_evals > 0);
        assert!(
            e.verify.brute_checked > 0,
            "tiny trajectories fit the brute oracles"
        );
    }

    #[test]
    fn a_wrong_distance_is_a_mismatch() {
        let dataset = generate(&CityConfig::tiny(8)).unwrap();
        let queries = table_v_queries(&dataset, 3, 0, 1);
        let mut wrong = IlEngine::build(&dataset).atsq(&dataset, &queries[0], K);
        assert!(!wrong.is_empty());
        wrong[0].distance += 0.5;
        let mut v = Verify::default();
        recompute(&dataset, &queries[0], &wrong, QueryKind::Atsq, &mut v);
        assert!(v.mismatches >= 1);
    }
}
