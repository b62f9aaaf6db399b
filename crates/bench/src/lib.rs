//! Shared benchmark harness: datasets, workloads and timing loops for
//! the §VII reproduction.
//!
//! The paper's protocol (§VII-A): for every parameter setting, run 50
//! randomly generated queries and report the average running time.
//! Defaults here follow Table V — `k = 9`, `|Q| = 4`, `|q.Φ| = 3`,
//! `δ(Q) = 10 km`, grid `d = 8` with levels 1–6 in memory — with the
//! dataset scale and query count dialled down so the full suite runs
//! in minutes; pass `--full` to the `experiments` binary (or set
//! higher scales programmatically) for paper-scale runs.

use atsq_core::QueryEngine;
use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
use atsq_types::{Dataset, Query};
use std::time::{Duration, Instant};

/// Table V defaults.
pub const DEFAULT_K: usize = 9;
/// Table V: number of query points.
pub const DEFAULT_QPOINTS: usize = 4;
/// Table V: activities per query location.
pub const DEFAULT_ACTS: usize = 3;
/// Table V: query diameter in km.
pub const DEFAULT_DIAMETER: f64 = 10.0;

/// One experiment's workload description.
#[derive(Debug, Clone, Copy)]
pub struct Setting {
    /// Result-set size `k`.
    pub k: usize,
    /// Number of query locations `|Q|`.
    pub query_points: usize,
    /// Activities per location `|q.Φ|`.
    pub acts_per_point: usize,
    /// Target diameter `δ(Q)` in km (`None` = unconstrained).
    pub diameter_km: Option<f64>,
}

impl Default for Setting {
    fn default() -> Self {
        Setting {
            k: DEFAULT_K,
            query_points: DEFAULT_QPOINTS,
            acts_per_point: DEFAULT_ACTS,
            diameter_km: Some(DEFAULT_DIAMETER),
        }
    }
}

/// Generates the two evaluation datasets at the given scale.
pub fn cities(scale: f64) -> Vec<(String, Dataset)> {
    [CityConfig::la_like(scale), CityConfig::ny_like(scale)]
        .into_iter()
        .map(|c| {
            let name = c.name.clone();
            (name, generate(&c).expect("generation"))
        })
        .collect()
}

/// Generates a workload per the §VII-A protocol.
pub fn workload(dataset: &Dataset, setting: &Setting, n: usize, seed: u64) -> Vec<Query> {
    generate_queries(
        dataset,
        &QueryGenConfig {
            query_points: setting.query_points,
            acts_per_point: setting.acts_per_point,
            diameter_km: setting.diameter_km,
            common_acts_only: false,
            seed,
        },
        n,
    )
}

/// Average per-query latency of one engine over a workload.
pub fn time_engine(
    engine: &impl QueryEngine,
    dataset: &Dataset,
    queries: &[Query],
    k: usize,
    ordered: bool,
) -> Duration {
    let t0 = Instant::now();
    for q in queries {
        if ordered {
            std::hint::black_box(engine.oatsq(dataset, q, k));
        } else {
            std::hint::black_box(engine.atsq(dataset, q, k));
        }
    }
    t0.elapsed() / queries.len().max(1) as u32
}

/// Formats a duration in fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Prints one result table in the paper's figure layout: one row per
/// x-axis value, one column per engine.
pub fn print_table(
    title: &str,
    x_label: &str,
    xs: &[String],
    engines: &[&str],
    rows: &[Vec<Duration>],
) {
    println!("\n### {title}");
    print!("{x_label:<10}");
    for e in engines {
        print!("{e:>10}");
    }
    println!("  (avg ms/query)");
    for (x, row) in xs.iter().zip(rows) {
        print!("{x:<10}");
        for d in row {
            print!("{:>10}", ms(*d));
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_core::Engine;

    #[test]
    fn workload_matches_setting() {
        let (_, d) = cities(0.001).remove(0);
        let s = Setting::default();
        let w = workload(&d, &s, 3, 1);
        assert_eq!(w.len(), 3);
        for q in &w {
            assert_eq!(q.len(), s.query_points);
            assert!((q.diameter() - DEFAULT_DIAMETER).abs() < 1e-9);
        }
    }

    #[test]
    fn time_engine_runs() {
        let (_, d) = cities(0.001).remove(0);
        let engines = Engine::build_all(&d).unwrap();
        let w = workload(&d, &Setting::default(), 2, 2);
        for e in &engines {
            let t = time_engine(e, &d, &w, 3, false);
            assert!(t.as_nanos() > 0);
        }
    }
}
