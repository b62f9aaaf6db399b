//! The metric catalogue, a run's result, and how both are printed.

use atsq_service::json::{obj, Value};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the system sees; printed with `--trace 0`.
    EndToEnd,
    /// One layer's own work; printed with `--trace 1`.
    Layer,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub higher_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::EndToEnd,
        higher_is_better,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Layer,
        higher_is_better,
    }
}

/// Every metric the benchmark reports, in the order of
/// `BENCHMARK.json` (a unit test holds the two together). A layer
/// metric a workload does not exercise reads zero there.
pub const METRICS: &[MetricDef] = &[
    e2e("query_p50_ms", "ms", false),
    e2e("throughput_qps", "1/s", true),
    e2e("peak_rss_mb", "MB", false),
    e2e("setup_s", "s", false),
    // Named as an end-to-end metric by the issue, whose own rule demotes
    // it: on this host it does not repeat within a tenth (a third from
    // seed to seed on `serve-open`, a fifth on `engine-direct`).
    layer("query_p95_ms", "ms", false),
    // Named as end-to-end metrics by the issue, but each exists on one
    // workload only and the contract wants end-to-end metrics that are
    // never zero, so they are reported here, unbounded.
    layer("oatsq_p50_ms", "ms", false),
    layer("sharded_atsq_p50_ms", "ms", false),
    layer("cold_query_p50_ms", "ms", false),
    layer("failed_share", "ratio", false),
    layer("datagen.generate_ms", "ms", false),
    layer("io.write_dataset_ms", "ms", false),
    layer("io.read_dataset_ms", "ms", false),
    layer("io.dataset_bytes", "bytes", false),
    layer("gat.build_ms", "ms", false),
    layer("gat.build_sharded_ms", "ms", false),
    layer("gat.snapshot_save_ms", "ms", false),
    layer("gat.snapshot_load_ms", "ms", false),
    layer("gat.snapshot_bytes", "bytes", false),
    layer("gat.resident_bytes", "bytes", false),
    layer("gat.sharded_resident_bytes", "bytes", false),
    layer("gat.search_busy_ms", "ms", false),
    layer("gat.candidates_per_query", "count", false),
    layer("gat.distance_evals_per_query", "count", false),
    layer("gat.tas_pruned_per_query", "count", true),
    layer("gat.tas_false_positive_ratio", "ratio", false),
    layer("gat.apl_reads_per_query", "count", false),
    layer("gat.cold_reads_per_query", "count", false),
    layer("gat.useful_ratio", "ratio", true),
    layer("gat.router_busy_share", "ratio", false),
    layer("gat.shard_candidate_imbalance", "ratio", false),
    layer("gat.sharded_oatsq_p50_ms", "ms", false),
    layer("matching.dmm_us", "us", false),
    layer("matching.dmom_us", "us", false),
    layer("matching.evals", "count", false),
    layer("baselines.il_atsq_ms", "ms", false),
    layer("baselines.il_oatsq_ms", "ms", false),
    layer("gat.slowdown_vs_il", "ratio", false),
    layer("service.admission_us", "us", false),
    layer("service.queue_wait_us", "us", false),
    layer("service.queue_wait_p95_us", "us", false),
    layer("service.cache_us", "us", false),
    layer("service.assembly_us", "us", false),
    layer("service.engine_ms", "ms", false),
    layer("service.reply_us", "us", false),
    layer("service.serialize_us", "us", false),
    layer("service.cache_hit_ratio", "ratio", true),
    layer("service.mean_batch_size", "count", true),
    layer("service.coalesced", "count", true),
    layer("service.rejected", "count", false),
    layer("service.expired", "count", false),
    layer("service.failed", "count", false),
    layer("wire.encode_request_us", "us", false),
    layer("wire.decode_reply_us", "us", false),
    layer("wire.decode_request_us", "us", false),
    layer("wire.encode_response_us", "us", false),
    layer("wire.request_bytes", "bytes", false),
    layer("wire.response_bytes", "bytes", false),
    layer("server.residual_us", "us", false),
    layer("server.connect_us", "us", false),
    layer("tenant.loads", "count", false),
    layer("tenant.evictions", "count", false),
    layer("tenant.load_ms", "ms", false),
    layer("tenant.cold_share", "ratio", false),
    layer("tenant.resident_bytes_max", "bytes", false),
    layer("tenant.resolve_warm_us", "us", false),
    layer("obs.tracing_overhead_ratio", "ratio", false),
    layer("trace.engine_share", "ratio", false),
    layer("trace.coverage", "ratio", true),
    layer("client.samples", "count", true),
    layer("client.lateness_p95_us", "us", false),
    layer("client.backlog_max", "count", false),
    layer("client.p99_ms", "ms", false),
    layer("client.over_limit_share", "ratio", false),
];

pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// Metric values by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metric_def(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        assert!(value.is_finite(), "metric `{name}` is not a finite number");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics of one kind as the contract's `metrics` object.
    fn to_json(&self, kind: Option<Kind>) -> Value {
        Value::Obj(
            METRICS
                .iter()
                .filter(|m| kind.is_none_or(|k| m.kind == k))
                .map(|m| {
                    let value = obj(vec![
                        ("value", Value::Num(self.get(m.name))),
                        ("unit", Value::Str(m.unit.into())),
                    ]);
                    (m.name.to_owned(), value)
                })
                .collect(),
        )
    }
}

/// One generated city as the run record names it.
#[derive(Debug, Clone)]
pub struct DatasetRecord {
    pub city: String,
    pub scale: f64,
    pub trajectories: usize,
    pub hash: u64,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub datasets: Vec<DatasetRecord>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: end-to-end metrics untraced, layer
    /// metrics traced.
    pub fn result_line(&self, traced: bool) -> String {
        let kind = if traced { Kind::Layer } else { Kind::EndToEnd };
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json(Some(kind))),
        ])
        .to_json()
    }

    /// Human-readable listing of the same metrics.
    pub fn table(&self, traced: bool) -> String {
        let kind = if traced { Kind::Layer } else { Kind::EndToEnd };
        METRICS
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| {
                format!(
                    "{:<34}{:>18.6} {}\n",
                    m.name,
                    self.metrics.get(m.name),
                    m.unit
                )
            })
            .collect()
    }

    /// The result file `spine compare` reads: every metric this run
    /// measured, with the record of where and on what it ran.
    pub fn write_file(&self, path: &Path, run: &RunRecord) -> std::io::Result<()> {
        let datasets = self
            .datasets
            .iter()
            .map(|d| {
                obj(vec![
                    ("city", Value::Str(d.city.clone())),
                    ("scale", Value::Num(d.scale)),
                    ("trajectories", Value::Num(d.trajectories as f64)),
                    ("hash", Value::Str(format!("{:016x}", d.hash))),
                ])
            })
            .collect();
        let mut members = run.to_json();
        members.extend([
            ("datasets", Value::Arr(datasets)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json(None)),
        ]);
        std::fs::write(path, obj(members).to_json() + "\n")
    }
}

/// Where and how a run was made; every result file carries it.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
    pub git_sha: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu: String,
}

impl RunRecord {
    pub fn collect(workload: &str, seed: u64, seconds: u32, traced: bool) -> RunRecord {
        let command = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
                .unwrap_or_else(|| "unknown".into())
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        RunRecord {
            workload: workload.into(),
            seed,
            seconds,
            traced,
            // The driver's checkout is not a git repository.
            git_sha: command("git", &["rev-parse", "HEAD"]),
            rustc: command("rustc", &["-V"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
        }
    }

    pub fn to_json(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(f64::from(self.seconds))),
            ("trace", Value::Bool(self.traced)),
            ("git_sha", Value::Str(self.git_sha.clone())),
            ("rustc", Value::Str(self.rustc.clone())),
            ("nproc", Value::Num(self.nproc as f64)),
            ("cpu", Value::Str(self.cpu.clone())),
        ]
    }
}

/// `VmHWM` of this process in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_service::json::parse;

    /// `BENCHMARK.json` and the catalogue must name the same metrics
    /// with the same units and directions, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let listed: Vec<(String, String, bool)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
                    (field("name"), field("unit"), field("better") == "higher")
                })
                .collect();
            let ours: Vec<(String, String, bool)> = METRICS
                .iter()
                .filter(|m| m.kind == kind)
                .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.higher_is_better))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn result_line_has_the_contract_keys_and_the_right_metrics() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.metrics.set("query_p50_ms", 1.25);
        outcome.metrics.set("tenant.loads", 3.0);
        for traced in [false, true] {
            let doc = parse(&outcome.result_line(traced)).unwrap();
            let Value::Obj(members) = &doc else { panic!() };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Value::Obj(metrics)) = doc.get("metrics") else {
                panic!()
            };
            let kind = if traced { Kind::Layer } else { Kind::EndToEnd };
            assert_eq!(
                metrics.len(),
                METRICS.iter().filter(|m| m.kind == kind).count()
            );
            assert_eq!(metrics.iter().any(|(k, _)| k == "tenant.loads"), traced);
        }
        assert!(peak_rss_mb() > 1.0);
    }
}
