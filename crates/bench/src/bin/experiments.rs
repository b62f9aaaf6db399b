//! `experiments` — regenerates every table and figure of the paper's
//! §VII evaluation on the synthetic LA/NY datasets.
//!
//! Usage:
//! ```text
//! experiments [fig3|fig4|fig5|fig6|fig7|fig8|stats|ablation|io|prune|all]
//!             [--scale S] [--queries N] [--full]
//! ```
//!
//! `--scale` (default 0.01) multiplies the Table-IV dataset sizes;
//! `--queries` (default 10) is the number of queries averaged per
//! setting (the paper uses 50); `--full` is shorthand for
//! `--scale 1.0 --queries 50` (expect a long run).

use atsq_bench::{cities, print_table, time_engine, workload, Setting};
use atsq_core::{Engine, GatEngine, Profiled, QueryEngine};
use atsq_datagen::{generate, CityConfig};
use atsq_gat::GatConfig;
use atsq_types::Dataset;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "\
USAGE:
  experiments [fig3|fig4|fig5|fig6|fig7|fig8|stats|ablation|io|prune|all]
              [--scale S] [--queries N] [--full]";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Command {
    Stats,
    Fig3,
    Fig4,
    Fig5,
    Fig6,
    Fig7,
    Fig8,
    Ablation,
    Io,
    Prune,
    All,
}

/// Every command by name; `all` runs the others in this order.
const COMMANDS: [(&str, Command); 11] = [
    ("stats", Command::Stats),
    ("fig3", Command::Fig3),
    ("fig4", Command::Fig4),
    ("fig5", Command::Fig5),
    ("fig6", Command::Fig6),
    ("fig7", Command::Fig7),
    ("fig8", Command::Fig8),
    ("ablation", Command::Ablation),
    ("io", Command::Io),
    ("prune", Command::Prune),
    ("all", Command::All),
];

#[derive(Debug, PartialEq)]
struct Opts {
    command: Command,
    scale: f64,
    queries: usize,
}

/// Parses the arguments after the program name; `Err` carries the
/// usage problem.
fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        command: Command::All,
        scale: 0.01,
        queries: 10,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => opts.scale = value(&mut args, "--scale")?,
            "--queries" => opts.queries = value(&mut args, "--queries")?,
            "--full" => {
                opts.scale = 1.0;
                opts.queries = 50;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => {
                opts.command = COMMANDS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, c)| c)
                    .ok_or_else(|| format!("unknown command {name}"))?;
            }
        }
    }
    if opts.queries == 0 {
        return Err("--queries must be at least 1".into());
    }
    Ok(opts)
}

/// The value following `flag`, parsed.
fn value<T: FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

const ENGINE_NAMES: [&str; 4] = ["IL", "RT", "IRT", "GAT"];

/// Runs one sweep: for each x value, rebuild the workload and time all
/// four engines; returns one row of average latencies per x value.
fn sweep(
    dataset: &Dataset,
    engines: &[Engine],
    settings: &[(String, Setting)],
    queries: usize,
    ordered: bool,
    seed: u64,
) -> Vec<Vec<Duration>> {
    settings
        .iter()
        .map(|(_, s)| {
            let w = workload(dataset, s, queries, seed);
            engines
                .iter()
                .map(|e| time_engine(e, dataset, &w, s.k, ordered))
                .collect()
        })
        .collect()
}

fn fig3(data: &[(String, Dataset, Vec<Engine>)], queries: usize) {
    let ks = [5usize, 10, 15, 20, 25];
    let settings: Vec<(String, Setting)> = ks
        .iter()
        .map(|&k| {
            (
                k.to_string(),
                Setting {
                    k,
                    ..Setting::default()
                },
            )
        })
        .collect();
    let xs: Vec<String> = settings.iter().map(|(x, _)| x.clone()).collect();
    for (name, dataset, engines) in data {
        for (ordered, label) in [(false, "ATSQ"), (true, "OATSQ")] {
            let rows = sweep(dataset, engines, &settings, queries, ordered, 0x3a);
            print_table(
                &format!("Fig 3 — effect of k ({label} on {name})"),
                "k",
                &xs,
                &ENGINE_NAMES,
                &rows,
            );
        }
    }
}

fn fig4(data: &[(String, Dataset, Vec<Engine>)], queries: usize) {
    let qs = [2usize, 3, 4, 5, 6];
    let settings: Vec<(String, Setting)> = qs
        .iter()
        .map(|&n| {
            (
                n.to_string(),
                Setting {
                    query_points: n,
                    ..Setting::default()
                },
            )
        })
        .collect();
    let xs: Vec<String> = settings.iter().map(|(x, _)| x.clone()).collect();
    for (name, dataset, engines) in data {
        for (ordered, label) in [(false, "ATSQ"), (true, "OATSQ")] {
            let rows = sweep(dataset, engines, &settings, queries, ordered, 0x4a);
            print_table(
                &format!("Fig 4 — effect of |Q| ({label} on {name})"),
                "|Q|",
                &xs,
                &ENGINE_NAMES,
                &rows,
            );
        }
    }
}

fn fig5(data: &[(String, Dataset, Vec<Engine>)], queries: usize) {
    let acts = [1usize, 2, 3, 4, 5];
    let settings: Vec<(String, Setting)> = acts
        .iter()
        .map(|&n| {
            (
                n.to_string(),
                Setting {
                    acts_per_point: n,
                    ..Setting::default()
                },
            )
        })
        .collect();
    let xs: Vec<String> = settings.iter().map(|(x, _)| x.clone()).collect();
    for (name, dataset, engines) in data {
        for (ordered, label) in [(false, "ATSQ"), (true, "OATSQ")] {
            let rows = sweep(dataset, engines, &settings, queries, ordered, 0x5a);
            print_table(
                &format!("Fig 5 — effect of |q.Φ| ({label} on {name})"),
                "|q.Φ|",
                &xs,
                &ENGINE_NAMES,
                &rows,
            );
        }
    }
}

fn fig6(data: &[(String, Dataset, Vec<Engine>)], queries: usize) {
    let diameters = [5.0f64, 10.0, 20.0, 30.0, 50.0];
    let settings: Vec<(String, Setting)> = diameters
        .iter()
        .map(|&d| {
            (
                format!("{d}km"),
                Setting {
                    diameter_km: Some(d),
                    ..Setting::default()
                },
            )
        })
        .collect();
    let xs: Vec<String> = settings.iter().map(|(x, _)| x.clone()).collect();
    for (name, dataset, engines) in data {
        for (ordered, label) in [(false, "ATSQ"), (true, "OATSQ")] {
            let rows = sweep(dataset, engines, &settings, queries, ordered, 0x6a);
            print_table(
                &format!("Fig 6 — effect of δ(Q) ({label} on {name})"),
                "δ(Q)",
                &xs,
                &ENGINE_NAMES,
                &rows,
            );
        }
    }
}

fn fig7(scale: f64, queries: usize) {
    // The paper samples the NY dataset from 10K to ~50K trajectories;
    // we sample the generated NY at the same 1/5..5/5 fractions.
    let full = generate(&CityConfig::ny_like(scale)).expect("generation");
    let n = full.len();
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let xs: Vec<String> = fractions
        .iter()
        .map(|f| format!("{}", (n as f64 * f) as usize))
        .collect();
    for (ordered, label) in [(false, "ATSQ"), (true, "OATSQ")] {
        let mut rows = Vec::new();
        for &f in &fractions {
            let sample = full.sample_prefix((n as f64 * f) as usize);
            let engines = Engine::build_all(&sample).expect("engines");
            let s = Setting::default();
            let w = workload(&sample, &s, queries, 0x7a);
            rows.push(
                engines
                    .iter()
                    .map(|e| time_engine(e, &sample, &w, s.k, ordered))
                    .collect(),
            );
        }
        print_table(
            &format!("Fig 7 — scalability in |D| ({label} on NY)"),
            "|D|",
            &xs,
            &ENGINE_NAMES,
            &rows,
        );
    }
}

fn fig8(data: &[(String, Dataset, Vec<Engine>)], queries: usize) {
    let depths = [5u8, 6, 7, 8];
    for (name, dataset, _) in data {
        println!("\n### Fig 8 — partition granularity ({name})");
        println!(
            "{:<12}{:>12}{:>12}{:>14}",
            "#partition", "ATSQ ms", "OATSQ ms", "memory KiB"
        );
        for &d in &depths {
            let gat = GatEngine::build_with(
                dataset,
                GatConfig {
                    grid_level: d,
                    memory_level: d.min(6),
                    ..GatConfig::default()
                },
            )
            .expect("index");
            let s = Setting::default();
            let w = workload(dataset, &s, queries, 0x8a);
            let t_atsq = time_engine(&gat, dataset, &w, s.k, false);
            let t_oatsq = time_engine(&gat, dataset, &w, s.k, true);
            let mem = gat.index().memory_report().main_memory_bytes();
            println!(
                "{:<12}{:>12}{:>12}{:>14}",
                format!("{0}x{0}", 1u32 << d),
                atsq_bench::ms(t_atsq),
                atsq_bench::ms(t_oatsq),
                mem / 1024
            );
        }
    }
}

/// Disk cost model of the paper's 2013 testbed: candidate trajectories
/// and cold index pages live on a hard disk, so every fetch pays a
/// random I/O (~0.5 ms seek+read). In-memory wall time plus this
/// charge reconstructs the paper's cost regime; both columns are
/// reported so the substitution is transparent.
const DISK_FETCH_MS: f64 = 0.5;

fn io_model(data: &[(String, Dataset, Vec<Engine>)], queries: usize) {
    for (flavor, common) in [
        ("venue-tag queries", false),
        ("common-category queries", true),
    ] {
        println!("\n### Disk-adjusted cost model — {flavor} (Table V defaults)");
        println!(
            "{:<6}{:>6}{:>12}{:>14}{:>16}  (per query; fetch = {DISK_FETCH_MS} ms)",
            "city", "eng", "wall ms", "fetches", "disk-adj ms"
        );
        for (name, dataset, engines) in data {
            let s = Setting::default();
            let w = atsq_datagen::generate_queries(
                dataset,
                &atsq_datagen::QueryGenConfig {
                    query_points: s.query_points,
                    acts_per_point: s.acts_per_point,
                    diameter_km: s.diameter_km,
                    common_acts_only: common,
                    seed: 0x10,
                },
                queries,
            );
            for e in engines {
                e.reset_counters();
                let wall = time_engine(e, dataset, &w, s.k, false);
                // A fetch is one APL posting-list read for GAT and one
                // trajectory read for the baselines. Cold HICL levels
                // are read in spatially clustered (Z-order-contiguous)
                // pages, not per cell, so they are not charged a seek.
                let c = e.counters();
                let fetches = match e {
                    Engine::Gat(_) | Engine::Sharded(_) => c.apl_reads,
                    Engine::Il(_) | Engine::Rt(_) | Engine::Irt(_) => c.candidates,
                };
                let fetches = fetches as f64 / w.len().max(1) as f64;
                let wall_ms = wall.as_secs_f64() * 1e3;
                let adj = wall_ms + fetches * DISK_FETCH_MS;
                println!(
                    "{:<6}{:>6}{:>12.2}{:>14.1}{:>16.2}",
                    name,
                    e.name(),
                    wall_ms,
                    fetches,
                    adj
                );
            }
        }
    }
}

/// Pruning-power report (ours): the work counters behind the latency
/// figures. The paper's §V claim — GAT prunes by location and activity
/// simultaneously — shows up as fewer candidates *and* fewer distance
/// evaluations than any baseline at the same answer quality.
fn prune_report(data: &[(String, Dataset, Vec<Engine>)], queries: usize) {
    for (ordered, label) in [(false, "ATSQ"), (true, "OATSQ")] {
        println!("\n### Pruning power — {label} (Table V defaults, per query)");
        println!(
            "{:<6}{:>6}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}",
            "city",
            "eng",
            "candidates",
            "dist evals",
            "TAS-pruned",
            "TAS-fp",
            "APL reads",
            "prune%"
        );
        for (name, dataset, engines) in data {
            let s = Setting::default();
            let w = workload(dataset, &s, queries, 0x9e);
            for e in engines {
                e.reset_counters();
                for q in &w {
                    if ordered {
                        std::hint::black_box(e.oatsq(dataset, q, s.k));
                    } else {
                        std::hint::black_box(e.atsq(dataset, q, s.k));
                    }
                }
                let c = e.counters();
                let per = |v: u64| v as f64 / w.len().max(1) as f64;
                println!(
                    "{:<6}{:>6}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>10.1}",
                    name,
                    e.name(),
                    per(c.candidates),
                    per(c.distance_evals),
                    per(c.tas_pruned),
                    per(c.tas_false_positives),
                    per(c.apl_reads),
                    c.prune_ratio() * 100.0
                );
            }
        }
    }
}

fn stats(scale: f64) {
    println!("\n### Table IV — dataset statistics (synthetic, scale {scale})");
    for (name, dataset) in cities(scale) {
        println!("\n[{name}]");
        println!("{}", dataset.stats());
    }
}

fn ablation(data: &[(String, Dataset, Vec<Engine>)], queries: usize) {
    println!("\n### Ablation — GAT design choices");
    let variants: Vec<(&str, GatConfig)> = vec![
        ("full", GatConfig::default()),
        (
            "no-TAS",
            GatConfig {
                use_tas: false,
                ..GatConfig::default()
            },
        ),
        (
            "loose-LB",
            GatConfig {
                tight_lower_bound: false,
                ..GatConfig::default()
            },
        ),
        (
            "λ=4",
            GatConfig {
                lambda: 4,
                ..GatConfig::default()
            },
        ),
        (
            "λ=128",
            GatConfig {
                lambda: 128,
                ..GatConfig::default()
            },
        ),
    ];
    for (name, dataset, _) in data {
        println!("\n[{name}]");
        println!(
            "{:<10}{:>12}{:>12}{:>14}{:>12}",
            "variant", "ATSQ ms", "OATSQ ms", "candidates", "distances"
        );
        let s = Setting::default();
        let w = workload(dataset, &s, queries, 0xab);
        for (label, cfg) in &variants {
            let gat = GatEngine::build_with(dataset, *cfg).expect("index");
            let t_atsq = time_engine(&gat, dataset, &w, s.k, false);
            let t_oatsq = time_engine(&gat, dataset, &w, s.k, true);
            let c = gat.counters();
            println!(
                "{:<10}{:>12}{:>12}{:>14}{:>12}",
                label,
                atsq_bench::ms(t_atsq),
                atsq_bench::ms(t_oatsq),
                c.candidates,
                c.distance_evals
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!("usage error: {e}\n\n{USAGE}");
        std::process::exit(2);
    });
    println!(
        "reproduction of ICDE'13 experiments — scale {}, {} queries/setting",
        opts.scale, opts.queries
    );

    let data: Vec<(String, Dataset, Vec<Engine>)> =
        if matches!(opts.command, Command::Stats | Command::Fig7) {
            Vec::new()
        } else {
            cities(opts.scale)
                .into_iter()
                .map(|(name, d)| {
                    let engines = Engine::build_all(&d).expect("engines");
                    (name, d, engines)
                })
                .collect()
        };

    run(opts.command, &data, &opts);
}

fn run(command: Command, data: &[(String, Dataset, Vec<Engine>)], opts: &Opts) {
    match command {
        Command::Stats => stats(opts.scale),
        Command::Fig3 => fig3(data, opts.queries),
        Command::Fig4 => fig4(data, opts.queries),
        Command::Fig5 => fig5(data, opts.queries),
        Command::Fig6 => fig6(data, opts.queries),
        Command::Fig7 => fig7(opts.scale, opts.queries),
        Command::Fig8 => fig8(data, opts.queries),
        Command::Ablation => ablation(data, opts.queries),
        Command::Io => io_model(data, opts.queries),
        Command::Prune => prune_report(data, opts.queries),
        Command::All => {
            for &(_, command) in &COMMANDS[..COMMANDS.len() - 1] {
                run(command, data, opts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_commands_and_flags() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.command, Command::All);
        assert_eq!((defaults.scale, defaults.queries), (0.01, 10));
        let opts = parse(&args("fig3 --scale 0.002 --queries 2")).unwrap();
        assert_eq!(opts.command, Command::Fig3);
        assert_eq!((opts.scale, opts.queries), (0.002, 2));
        let full = parse(&args("--full prune")).unwrap();
        assert_eq!(full.command, Command::Prune);
        assert_eq!((full.scale, full.queries), (1.0, 50));
    }

    #[test]
    fn missing_value_is_a_usage_error() {
        assert_eq!(
            parse(&args("fig3 --scale")),
            Err("--scale needs a value".into())
        );
        assert_eq!(
            parse(&args("--queries")),
            Err("--queries needs a value".into())
        );
    }

    #[test]
    fn invalid_value_is_a_usage_error() {
        assert!(parse(&args("--scale big")).is_err());
        assert!(parse(&args("--queries -1")).is_err());
    }

    #[test]
    fn zero_queries_is_a_usage_error() {
        assert_eq!(
            parse(&args("io --queries 0")),
            Err("--queries must be at least 1".into())
        );
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        assert_eq!(
            parse(&args("fig3 --fast")),
            Err("unknown flag --fast".into())
        );
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        assert_eq!(parse(&args("fig9")), Err("unknown command fig9".into()));
    }
}
