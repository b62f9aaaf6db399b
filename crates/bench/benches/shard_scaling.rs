//! Shard scaling: top-k latency and per-shard work vs. shard count.
//!
//! A self-driving harness (`harness = false`, no criterion): builds
//! the fig7-scale NY-like city, then measures ATSQ / OATSQ top-k
//! latency through [`ShardedEngine`] at a sweep of shard counts for
//! both partitioners, verifying along the way that every sharded
//! configuration answers exactly like the single index. Prints a
//! table and emits `BENCH_shard_scaling.json` (path overridable via
//! `BENCH_OUT`) for the benchmark trajectory.
//!
//! Reported per configuration:
//!
//! * `*_ms` — measured wall-clock on this host. Every shard count
//!   runs the one traversal over the one index, so sharded *total*
//!   work is that of S=1 plus routing and wall-clock does not
//!   multiply with S even on few cores.
//! * `*_wall_ratio` — wall-clock relative to S=1 under the same
//!   partitioner. The run **asserts** this stays well under S for
//!   every S>1 sweep point.
//! * `*_critical_ms` — the per-query critical path: traversal
//!   (router) time plus the busiest shard's verification time. This
//!   is the latency a host with one core per shard observes. The
//!   JSON records `parallelism` so a curve can always be interpreted.
//! * `candidates_per_shard` — candidates each shard verified during
//!   the timed ATSQ pass; they **sum** to the traversal's candidate
//!   count (ownership attribution).
//!
//! Environment knobs: `SHARD_SCALING_SCALE` (dataset scale, default
//! 0.006 — the Fig. 7 full-size city), `SHARD_SCALING_QUERIES`
//! (default 24), `SHARD_SCALING_SHARDS` (comma-separated, default
//! `1,2,4,8`).

use atsq_bench::{workload, Setting};
use atsq_core::{GatEngine, Partition, QueryEngine, ShardedEngine};
use atsq_datagen::{generate, CityConfig};
use atsq_types::Query;
use std::time::Instant;

struct Sweep {
    partition: Partition,
    shards: usize,
    atsq_ms: f64,
    atsq_wall_ratio: f64,
    atsq_critical_ms: f64,
    oatsq_ms: f64,
    oatsq_wall_ratio: f64,
    oatsq_critical_ms: f64,
    router_ms: f64,
    candidates_per_shard: Vec<u64>,
}

fn main() {
    let scale: f64 = env_or("SHARD_SCALING_SCALE", 0.006);
    let n_queries: usize = env_or("SHARD_SCALING_QUERIES", 24);
    let shard_counts: Vec<usize> = std::env::var("SHARD_SCALING_SHARDS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .map(|s| s.trim().parse().expect("SHARD_SCALING_SHARDS"))
        .collect();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    let config = CityConfig::ny_like(scale);
    let dataset = generate(&config).expect("dataset");
    let setting = Setting::default();
    let queries = workload(&dataset, &setting, n_queries, 0x5AAD);
    let single = GatEngine::build(&dataset).expect("single index");

    println!(
        "shard_scaling: {} ({} trajectories), {} queries, k={}, parallelism {}",
        config.name,
        dataset.len(),
        queries.len(),
        setting.k,
        parallelism
    );
    println!(
        "{:>10}{:>8}{:>12}{:>9}{:>12}{:>12}{:>9}{:>12}{:>11}",
        "partition",
        "shards",
        "ATSQ ms",
        "ratio",
        "crit ms",
        "OATSQ ms",
        "ratio",
        "crit ms",
        "router ms"
    );

    let mut sweeps = Vec::new();
    for partition in [Partition::Hash, Partition::Spatial] {
        let mut base_atsq_ms = f64::NAN;
        let mut base_oatsq_ms = f64::NAN;
        for &shards in &shard_counts {
            let engine = ShardedEngine::build(&dataset, shards, partition).expect("sharded engine");
            verify(&engine, &single, &dataset, &queries, setting.k);
            let atsq = time_ms(&engine, &queries, |q| {
                std::hint::black_box(engine.atsq(&dataset, q, setting.k));
            });
            let candidates_per_shard: Vec<u64> = engine
                .per_shard_stats()
                .iter()
                .map(|s| s.candidates_retrieved)
                .collect();
            let oatsq = time_ms(&engine, &queries, |q| {
                std::hint::black_box(engine.oatsq(&dataset, q, setting.k));
            });
            if shards == 1 {
                base_atsq_ms = atsq.wall_ms;
                base_oatsq_ms = oatsq.wall_ms;
            }
            let atsq_wall_ratio = atsq.wall_ms / base_atsq_ms;
            let oatsq_wall_ratio = oatsq.wall_ms / base_oatsq_ms;
            println!(
                "{:>10}{:>8}{:>12.3}{:>9.2}{:>12.3}{:>12.3}{:>9.2}{:>12.3}{:>11.3}",
                partition.to_string(),
                shards,
                atsq.wall_ms,
                atsq_wall_ratio,
                atsq.critical_ms,
                oatsq.wall_ms,
                oatsq_wall_ratio,
                oatsq.critical_ms,
                atsq.router_ms + oatsq.router_ms
            );
            // Total sharded work is that of S=1 plus routing, so
            // wall-clock must not grow with S even on a saturated
            // host. (The bound is deliberately loose — CI boxes are
            // noisy — but a traversal per shard would fail it at
            // every S.)
            if shards > 1 && !base_atsq_ms.is_nan() {
                let limit = 0.75 * shards as f64;
                assert!(
                    atsq_wall_ratio < limit,
                    "ATSQ wall-clock ratio {atsq_wall_ratio:.2} at S={shards} reached {limit:.2}"
                );
                assert!(
                    oatsq_wall_ratio < limit,
                    "OATSQ wall-clock ratio {oatsq_wall_ratio:.2} at S={shards} reached {limit:.2}"
                );
            }
            sweeps.push(Sweep {
                partition,
                shards,
                atsq_ms: atsq.wall_ms,
                atsq_wall_ratio,
                atsq_critical_ms: atsq.critical_ms,
                oatsq_ms: oatsq.wall_ms,
                oatsq_wall_ratio,
                oatsq_critical_ms: oatsq.critical_ms,
                router_ms: atsq.router_ms + oatsq.router_ms,
                candidates_per_shard,
            });
        }
    }

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_shard_scaling.json".into());
    let json = to_json(&config.name, &dataset, &queries, parallelism, &sweeps);
    std::fs::write(&out, json).expect("write json");
    println!("wrote {out}");
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Timing {
    wall_ms: f64,
    critical_ms: f64,
    router_ms: f64,
}

/// Average wall-clock and critical-path per query in ms, after one
/// warm-up pass. The critical path of one query is the traversal
/// (router) plus its busiest shard's verification time;
/// per-shard and router busy times are accumulated across the run, so
/// `router + max(shard)` divided by the query count is the average
/// critical path when the same shard is busiest on every query
/// (typical for this sweep's balanced partitions). When the busiest
/// shard varies per query, max-of-totals understates avg-of-maxes, so
/// read the column as an optimistic (lower) bound on ≥S-core latency.
fn time_ms(engine: &ShardedEngine, queries: &[Query], mut run: impl FnMut(&Query)) -> Timing {
    for q in queries {
        run(q);
    }
    engine.reset_stats();
    let t0 = Instant::now();
    for q in queries {
        run(q);
    }
    let n = queries.len().max(1) as f64;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3 / n;
    let router_ms = engine.router_busy_ns() as f64 / 1e6 / n;
    let busiest_ms = engine.per_shard_busy_ns().into_iter().max().unwrap_or(0) as f64 / 1e6 / n;
    Timing {
        wall_ms,
        critical_ms: router_ms + busiest_ms,
        router_ms,
    }
}

/// Exactness gate: a bench point for a configuration that answers
/// differently from the single index would be meaningless.
fn verify(
    engine: &ShardedEngine,
    single: &GatEngine,
    dataset: &atsq_types::Dataset,
    queries: &[Query],
    k: usize,
) {
    for q in queries.iter().take(4) {
        assert_eq!(
            engine.atsq(dataset, q, k),
            single.atsq(dataset, q, k),
            "sharded ATSQ diverged at S={}",
            engine.shard_count()
        );
        assert_eq!(
            engine.oatsq(dataset, q, k),
            single.oatsq(dataset, q, k),
            "sharded OATSQ diverged at S={}",
            engine.shard_count()
        );
    }
}

fn to_json(
    city: &str,
    dataset: &atsq_types::Dataset,
    queries: &[Query],
    parallelism: usize,
    sweeps: &[Sweep],
) -> String {
    let rows: Vec<String> = sweeps
        .iter()
        .map(|s| {
            let per_shard: Vec<String> =
                s.candidates_per_shard.iter().map(u64::to_string).collect();
            format!(
                concat!(
                    r#"{{"partition":"{}","shards":{},"atsq_ms":{:.4},"#,
                    r#""atsq_wall_ratio":{:.4},"atsq_critical_ms":{:.4},"#,
                    r#""oatsq_ms":{:.4},"oatsq_wall_ratio":{:.4},"#,
                    r#""oatsq_critical_ms":{:.4},"router_ms":{:.4},"#,
                    r#""candidates_per_shard":[{}]}}"#
                ),
                s.partition,
                s.shards,
                s.atsq_ms,
                s.atsq_wall_ratio,
                s.atsq_critical_ms,
                s.oatsq_ms,
                s.oatsq_wall_ratio,
                s.oatsq_critical_ms,
                s.router_ms,
                per_shard.join(",")
            )
        })
        .collect();
    format!(
        concat!(
            r#"{{"bench":"shard_scaling","city":"{}","trajectories":{},"#,
            r#""queries":{},"parallelism":{},"sweeps":[{}]}}"#
        ),
        city,
        dataset.len(),
        queries.len(),
        parallelism,
        rows.join(",")
    )
}
