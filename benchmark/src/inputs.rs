//! Everything a workload feeds the system, made from `--seed` alone.
//!
//! The cities are fixed by their [`CityConfig`]; the seed chooses the
//! queries, the reuse draws, the arrival schedule and the session
//! order. A shorter sequence of queries, draws or sessions is a prefix
//! of the longer one the same seed gives (and the schedule is cut from
//! the full one), which is what lets the traced run's untraced
//! reference repeat the first quarter of the work.

use crate::stats::Rng;
use atsq_datagen::{generate_queries, CityConfig, QueryGenConfig};
use atsq_service::Request;
use atsq_types::{Dataset, Query};
use std::collections::HashSet;
use std::time::Duration;

/// Table V: result-set size.
pub const K: usize = 9;

/// The NY-like city at a tenth of Table IV (4 903 trajectories).
pub fn ny_city() -> CityConfig {
    CityConfig::ny_like(0.1)
}

/// The `i`-th LA-like city at a twentieth of Table IV (1 578 long
/// trajectories), each from its own generator seed.
pub fn la_city(i: usize) -> CityConfig {
    let mut city = CityConfig::la_like(0.05);
    city.name = format!("la{i}");
    city.seed += i as u64;
    city
}

const STREAM_QUERIES: u64 = 1;
const STREAM_REUSE: u64 = 2;
const STREAM_ARRIVALS: u64 = 3;
const STREAM_SESSIONS: u64 = 4;

/// `n` distinct Table-V queries (|Q| = 4, |q.Φ| = 3, δ(Q) = 10 km):
/// distinct as the result cache sees them, so `n` of them are `n`
/// misses. `salt` separates the cities of one run.
pub fn table_v_queries(dataset: &Dataset, seed: u64, salt: u64, n: usize) -> Vec<Query> {
    let config = QueryGenConfig {
        diameter_km: Some(10.0),
        seed: Rng::new(seed, STREAM_QUERIES + (salt << 8)).next_u64(),
        ..QueryGenConfig::default()
    };
    // The generator's stream does not depend on how many are asked
    // for, so over-asking and dropping repeats keeps prefixes stable.
    let mut seen = HashSet::new();
    let mut queries = generate_queries(dataset, &config, n + n / 8 + 16);
    queries.retain(|q| seen.insert(atsq_request(q).cache_key()));
    assert!(
        queries.len() >= n,
        "query generator repeated itself too often"
    );
    queries.truncate(n);
    queries
}

pub fn atsq_request(query: &Query) -> Request {
    Request::Atsq {
        query: query.clone(),
        k: K,
    }
}

/// `n` draws from Zipf(1.0) over `0..pool`.
pub fn zipf_draws(seed: u64, pool: usize, n: usize) -> Vec<u32> {
    let mut cumulative = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for rank in 1..=pool {
        acc += 1.0 / rank as f64;
        cumulative.push(acc);
    }
    let mut rng = Rng::new(seed, STREAM_REUSE);
    (0..n)
        .map(|_| {
            let u = rng.unit() * acc;
            cumulative.partition_point(|&c| c <= u).min(pool - 1) as u32
        })
        .collect()
}

/// Due times, from the start of the timed loop, of a Poisson process
/// given that exactly `n` arrivals fall within `seconds`: exponential
/// gaps, scaled so that the gap after the last arrival ends the window.
/// Fixing the count keeps the offered rate the same for every seed;
/// the bursts and lulls of a Poisson process remain.
pub fn poisson_schedule(seed: u64, seconds: f64, n: usize) -> Vec<Duration> {
    let mut rng = Rng::new(seed, STREAM_ARRIVALS);
    let mut at = 0.0;
    let arrivals: Vec<f64> = (0..n)
        .map(|_| {
            at += rng.exponential(1.0);
            at
        })
        .collect();
    let end = at + rng.exponential(1.0);
    arrivals
        .into_iter()
        .map(|t| Duration::from_secs_f64(t / end * seconds))
        .collect()
}

/// The city of each session, drawn uniformly.
pub fn session_cities(seed: u64, cities: usize, sessions: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, STREAM_SESSIONS);
    (0..sessions).map(|_| rng.below(cities)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_datagen::generate;

    #[test]
    fn same_seed_same_queries_schedule_and_sessions() {
        let dataset = generate(&CityConfig::tiny(3)).unwrap();
        let a = table_v_queries(&dataset, 11, 0, 24);
        assert_eq!(a, table_v_queries(&dataset, 11, 0, 24));
        assert_ne!(a, table_v_queries(&dataset, 12, 0, 24));
        assert_ne!(a, table_v_queries(&dataset, 11, 1, 24));
        assert_eq!(poisson_schedule(5, 2.5, 100), poisson_schedule(5, 2.5, 100));
        assert_ne!(poisson_schedule(5, 2.5, 100), poisson_schedule(6, 2.5, 100));
        assert_eq!(session_cities(5, 4, 50), session_cities(5, 4, 50));
        assert_eq!(zipf_draws(5, 256, 500), zipf_draws(5, 256, 500));
    }

    #[test]
    fn shorter_inputs_are_prefixes_of_longer_ones() {
        let dataset = generate(&CityConfig::tiny(3)).unwrap();
        let long = table_v_queries(&dataset, 11, 0, 24);
        assert_eq!(table_v_queries(&dataset, 11, 0, 6), long[..6]);
        assert_eq!(session_cities(5, 4, 10), session_cities(5, 4, 40)[..10]);
        assert_eq!(zipf_draws(5, 256, 100), zipf_draws(5, 256, 400)[..100]);
    }

    #[test]
    fn queries_are_distinct_and_table_v_shaped() {
        let dataset = generate(&CityConfig::tiny(3)).unwrap();
        let queries = table_v_queries(&dataset, 1, 0, 40);
        let keys: HashSet<_> = queries
            .iter()
            .map(|q| atsq_request(q).cache_key())
            .collect();
        assert_eq!(keys.len(), 40);
        for q in &queries {
            assert_eq!(q.len(), 4);
            assert!((q.diameter() - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn schedule_fills_its_window_and_zipf_keeps_its_skew() {
        let schedule = poisson_schedule(9, 100.0, 4000);
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
        let span = schedule.last().unwrap().as_secs_f64();
        assert!(
            span < 100.0 && span > 99.0,
            "the last of 4000 arrivals in 100 s came at {span} s"
        );
        // Poisson, not evenly paced: gaps vary about as much as their mean.
        let gaps: Vec<f64> = schedule
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.1,
            "gap cv {}",
            var.sqrt() / mean
        );
        let draws = zipf_draws(9, 256, 20_000);
        let top = draws.iter().filter(|&&d| d == 0).count();
        let last = draws.iter().filter(|&&d| d == 255).count();
        assert!(
            top > 50 * last.max(1),
            "rank 1 drawn {top}×, rank 256 {last}×"
        );
        assert!(draws.iter().all(|&d| d < 256));
    }

    #[test]
    fn la_cities_differ_only_in_name_and_seed() {
        assert_ne!(la_city(0).seed, la_city(1).seed);
        assert_eq!(la_city(0).trajectories, la_city(3).trajectories);
        assert_eq!(la_city(2).name, "la2");
    }
}
