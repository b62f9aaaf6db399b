//! Emits `BENCH_model.json`: schedules explored / pruned / max DFS
//! depth per model-checked target, failing if any target explores
//! fewer than 10 schedules (a silently-degenerate model is a bug).
//! Runs as part of `cargo test -p atsq-model --features check`; the
//! CI `model` job publishes the artifact.
#![cfg(feature = "check")]

mod common;

use atsq_model::check::{explore, Config, Report};

#[test]
fn bench_model_json() {
    let targets: Vec<(&str, fn())> = vec![
        ("racing_increments", common::targets::racing_increments),
        ("single_flight", common::targets::single_flight),
        ("lease_pin", common::targets::lease_pin),
        ("queue", common::targets::queue),
        ("counter_scopes", common::targets::counter_scopes),
        (
            "publish_release_acquire",
            common::targets::publish_release_acquire,
        ),
    ];
    let mut reports: Vec<Report> = Vec::new();
    for (name, body) in targets {
        let start = std::time::Instant::now();
        let report = explore(name, Config::default(), body);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:<24} schedules={:<7} pruned={:<7} max_depth={:<4} truncated={} ({ms:.0} ms)",
            report.name, report.schedules, report.pruned, report.max_depth, report.truncated
        );
        report.assert_ok();
        assert!(
            report.schedules >= 10,
            "target `{}` explored only {} schedules — degenerate model",
            report.name,
            report.schedules
        );
        reports.push(report);
    }

    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\"target\": \"{}\", \"schedules\": {}, \"pruned\": {}, \"max_depth\": {}, \"truncated\": {}}}",
                r.name, r.schedules, r.pruned, r.max_depth, r.truncated
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"model\",\n  \"preemption_bound\": {},\n  \"spurious_wakeups\": {},\n  \"min_schedules\": 10,\n  \"targets\": [\n{}\n  ]\n}}\n",
        Config::default().preemption_bound,
        Config::default().spurious_wakeups,
        rows.join(",\n")
    );
    let out = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_model.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).expect("write BENCH_model.json");
    println!("wrote {out}");
}
