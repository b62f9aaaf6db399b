//! Cross-engine agreement: all four engines (IL, RT, IRT, GAT) and the
//! sharded GAT engine must return identical top-k and range results
//! for both ATSQ and OATSQ on arbitrary generated workloads, and all
//! must agree with a brute-force scan that evaluates every trajectory
//! with the distance kernels — including goals at the edges: `k` of
//! 0, 1, `n` and `usize::MAX`, and a NaN, negative, zero or infinite
//! radius.

use atsq_core::{Engine, Goal, Partition, QueryEngine, QueryKind};
use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
use atsq_matching::min_match_distance;
use atsq_matching::order_match::min_order_match_distance;
use atsq_types::{rank_top_k, Dataset, Query, QueryResult};

const KINDS: [QueryKind; 2] = [QueryKind::Atsq, QueryKind::Oatsq];

/// Exhaustive oracle: every match of `kind`, ranked.
fn scan(dataset: &Dataset, query: &Query, kind: QueryKind) -> Vec<QueryResult> {
    let mut res = Vec::new();
    for tr in dataset.trajectories() {
        let d = match kind {
            QueryKind::Atsq => min_match_distance(query, &tr.points),
            QueryKind::Oatsq => min_order_match_distance(query, &tr.points, f64::INFINITY),
        };
        if let Some(d) = d {
            res.push(QueryResult::new(tr.id, d));
        }
    }
    rank_top_k(res, usize::MAX)
}

/// Every paper engine plus the sharded GAT engine at S = 3.
fn engines(dataset: &Dataset) -> Vec<Engine> {
    let mut engines = Engine::build_all(dataset).unwrap();
    let (sharded, _) = Engine::build_gat(dataset, 3, Partition::Hash, None).unwrap();
    engines.push(sharded);
    engines
}

/// Compares result lists with distance tolerance (engines may compute
/// identical sums in different float orders).
fn assert_results_eq(a: &[QueryResult], b: &[QueryResult], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length mismatch\n{a:?}\n{b:?}");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(
            x.trajectory, y.trajectory,
            "{ctx}: ranking mismatch\n{a:?}\n{b:?}"
        );
        assert!(
            (x.distance - y.distance).abs() < 1e-6,
            "{ctx}: distance mismatch {x:?} vs {y:?}"
        );
    }
}

fn check_city(city: CityConfig, seeds: &[u64]) {
    let dataset = generate(&city).unwrap();
    let engines = engines(&dataset);
    let n = dataset.len();
    for &seed in seeds {
        for (qp, apq) in [(2usize, 2usize), (3, 1), (4, 3)] {
            let queries = generate_queries(
                &dataset,
                &QueryGenConfig {
                    query_points: qp,
                    acts_per_point: apq,
                    diameter_km: None,
                    common_acts_only: false,
                    seed,
                },
                3,
            );
            for (qi, q) in queries.iter().enumerate() {
                for kind in KINDS {
                    let all = scan(&dataset, q, kind);
                    for k in [0usize, 1, 5, 9, n, usize::MAX] {
                        let want = &all[..k.min(all.len())];
                        for e in &engines {
                            let got = e.search(&dataset, q, kind, Goal::TopK(k));
                            assert_results_eq(
                                &got,
                                want,
                                &format!("{} {kind:?} seed={seed} q#{qi} k={k}", e.name()),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn engines_agree_tiny_city() {
    check_city(CityConfig::tiny(101), &[1, 2]);
}

#[test]
fn engines_agree_la_sample() {
    check_city(CityConfig::la_like(0.003), &[3]);
}

#[test]
fn engines_agree_ny_sample() {
    check_city(CityConfig::ny_like(0.002), &[4]);
}

#[test]
fn engines_agree_with_diameter_control() {
    let dataset = generate(&CityConfig::tiny(77)).unwrap();
    let engines = Engine::build_all(&dataset).unwrap();
    for diameter in [2.0, 8.0] {
        let queries = generate_queries(
            &dataset,
            &QueryGenConfig {
                query_points: 3,
                acts_per_point: 2,
                diameter_km: Some(diameter),
                common_acts_only: false,
                seed: 9,
            },
            3,
        );
        for q in &queries {
            let want = rank_top_k(scan(&dataset, q, QueryKind::Atsq), 5);
            for e in &engines {
                assert_results_eq(&e.atsq(&dataset, q, 5), &want, e.name());
            }
        }
    }
}

#[test]
fn top_k_is_prefix_of_top_k_plus_one() {
    let dataset = generate(&CityConfig::tiny(55)).unwrap();
    let engines = Engine::build_all(&dataset).unwrap();
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 3);
    for q in &queries {
        for e in &engines {
            let k5 = e.atsq(&dataset, q, 5);
            let k6 = e.atsq(&dataset, q, 6);
            assert!(k6.len() >= k5.len());
            assert_eq!(&k6[..k5.len()], &k5[..], "{} prefix property", e.name());
        }
    }
}

/// Range-query agreement: for any radius, all engines return exactly
/// the scan oracle's within-τ set, ascending, for both query types.
#[test]
fn range_queries_agree_with_oracle() {
    let dataset = generate(&CityConfig::tiny(202)).unwrap();
    let engines = engines(&dataset);
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 4);
    for q in &queries {
        // Pick radii from actual result distances to exercise both
        // empty and populous ranges, plus the edges: a NaN or negative
        // radius admits nothing and an infinite one every match.
        let radii: Vec<f64> = [f64::NAN, -1.0, 0.0, 0.5, 2.0, f64::INFINITY]
            .into_iter()
            .chain(
                scan(&dataset, q, QueryKind::Atsq)
                    .get(2)
                    .map(|r| r.distance + 1e-9),
            )
            .collect();
        for kind in KINDS {
            let all = scan(&dataset, q, kind);
            for &tau in &radii {
                let want: Vec<QueryResult> =
                    all.iter().filter(|r| r.distance <= tau).cloned().collect();
                for e in &engines {
                    let got = e.search(&dataset, q, kind, Goal::Range(tau));
                    assert_results_eq(&got, &want, &format!("{} {kind:?} τ={tau}", e.name()));
                }
            }
        }
    }
}

/// Negative radius and radius-zero edge cases.
#[test]
fn range_query_edge_radii() {
    let dataset = generate(&CityConfig::tiny(203)).unwrap();
    let engines = engines(&dataset);
    let q = &generate_queries(&dataset, &QueryGenConfig::default(), 1)[0];
    for e in &engines {
        assert!(e.atsq_range(&dataset, q, -1.0).is_empty(), "{}", e.name());
        // τ = 0 returns only exact-location perfect matches (the
        // source trajectory qualifies when the query kept its venues'
        // own activities and locations).
        for r in e.atsq_range(&dataset, q, 0.0) {
            assert_eq!(r.distance, 0.0);
        }
    }
}
