//! The sub-commands.

use crate::args::parse;
use crate::CliError;
use atsq_core::{
    matching, snapshot, CacheOutcome, Engine, GatEngine, Goal, IndexCache, Partition, QueryEngine,
    QueryKind,
};
use atsq_datagen::CityConfig;
use atsq_service::{LoadgenConfig, Server, Service, ServiceConfig};
use atsq_types::{ActivitySet, Dataset, Point, Query, QueryPoint};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::time::{Duration, Instant};

fn load_dataset(path: &str) -> Result<Dataset, CliError> {
    let file = File::open(path)?;
    Ok(atsq_io::read_dataset(BufReader::new(file))?)
}

fn save_dataset(dataset: &Dataset, path: &str) -> Result<(), CliError> {
    let file = File::create(path)?;
    atsq_io::write_dataset(dataset, BufWriter::new(file))?;
    Ok(())
}

/// `atsq generate` — synthesise a city and snapshot it.
pub fn generate(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let f = parse(argv, &["city", "scale", "seed", "out"], &[])?;
    let scale: f64 = f.num("scale", 0.01)?;
    let mut config = match f.require("city")? {
        "la" => CityConfig::la_like(scale),
        "ny" => CityConfig::ny_like(scale),
        "tiny" => CityConfig::tiny(0),
        other => {
            return Err(CliError::Usage(format!(
                "--city must be la, ny or tiny (got `{other}`)"
            )))
        }
    };
    config.seed = f.num("seed", config.seed)?;
    let path = f.require("out")?;
    let dataset = atsq_datagen::generate(&config)?;
    save_dataset(&dataset, path)?;
    writeln!(
        out,
        "wrote {} ({} trajectories, {} check-ins) to {path}",
        config.name,
        dataset.len(),
        dataset.stats().venues
    )?;
    Ok(())
}

/// `atsq import` — check-in CSV to snapshot. With `--tips` the fifth
/// column is free text and activities are mined from it (tokenizer →
/// stopwords → stemming → phrase mining, see `atsq-text`).
pub fn import(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let f = parse(
        argv,
        &[
            "csv",
            "min-checkins",
            "out",
            "min-activity-count",
            "vocab-out",
        ],
        &["tips"],
    )?;
    let csv = f.require("csv")?;
    let min: usize = f.num("min-checkins", 2)?;
    let path = f.require("out")?;
    let file = File::open(csv)?;
    let dataset = if f.has("tips") {
        let config = atsq_text::ExtractorConfig {
            min_activity_count: f.num("min-activity-count", 3)?,
            ..atsq_text::ExtractorConfig::default()
        };
        let (dataset, extractor) =
            atsq_io::import_checkin_tips(BufReader::new(file), min, &config)?;
        writeln!(
            out,
            "mined {} distinct activities from tips",
            extractor.vocabulary_len()
        )?;
        if let Some(vocab_path) = f.get("vocab-out") {
            let file = File::create(vocab_path)?;
            atsq_io::write_extractor(&extractor, std::io::BufWriter::new(file))?;
            writeln!(out, "wrote fitted extractor to {vocab_path}")?;
        }
        dataset
    } else {
        if f.get("vocab-out").is_some() {
            return Err(CliError::Usage("--vocab-out requires --tips".into()));
        }
        atsq_io::import_checkins(BufReader::new(file), min)?
    };
    save_dataset(&dataset, path)?;
    writeln!(
        out,
        "imported {} trajectories ({} check-ins, {} activities) to {path}",
        dataset.len(),
        dataset.stats().venues,
        dataset.stats().distinct_activities
    )?;
    Ok(())
}

/// `atsq stats` — Table-IV style numbers for a snapshot.
pub fn stats(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let f = parse(argv, &["data"], &[])?;
    let dataset = load_dataset(f.require("data")?)?;
    writeln!(out, "{}", dataset.stats())?;
    let b = dataset.bounds();
    writeln!(
        out,
        "bounds             {:.2} km × {:.2} km",
        b.width(),
        b.height()
    )?;
    Ok(())
}

/// Parses one `--stop "x,y:act1;act2"` specifier.
fn parse_stop(spec: &str, dataset: &Dataset) -> Result<QueryPoint, CliError> {
    let (coords, acts) = spec
        .split_once(':')
        .ok_or_else(|| CliError::Usage(format!("stop `{spec}` needs `x,y:activities`")))?;
    let (x, y) = coords
        .split_once(',')
        .ok_or_else(|| CliError::Usage(format!("stop `{spec}` needs `x,y` coordinates")))?;
    let x: f64 = x
        .trim()
        .parse()
        .map_err(|_| CliError::Usage(format!("bad x in `{spec}`")))?;
    let y: f64 = y
        .trim()
        .parse()
        .map_err(|_| CliError::Usage(format!("bad y in `{spec}`")))?;
    let mut ids = Vec::new();
    for name in acts.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        let id = dataset.vocabulary().get(name).ok_or_else(|| {
            CliError::Usage(format!("activity `{name}` not in the dataset vocabulary"))
        })?;
        ids.push(id);
    }
    if ids.is_empty() {
        return Err(CliError::Usage(format!(
            "stop `{spec}` lists no activities"
        )));
    }
    Ok(QueryPoint::new(
        Point::new(x, y),
        ActivitySet::from_ids(ids),
    ))
}

/// Parses the shared `--shards` / `--partition` pair.
fn parse_sharding(f: &crate::args::Flags) -> Result<(usize, Partition), CliError> {
    let shards: usize = f.num("shards", 1)?;
    if shards == 0 {
        return Err(CliError::Usage("--shards must be ≥ 1".into()));
    }
    let partition = f
        .get("partition")
        .unwrap_or("hash")
        .parse::<Partition>()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    Ok((shards, partition))
}

fn build_engine(dataset: &Dataset, name: &str) -> Result<Engine, CliError> {
    Ok(match name {
        "gat" => Engine::Gat(GatEngine::build(dataset)?),
        "il" => Engine::Il(atsq_core::IlEngine::build(dataset)),
        "rt" => Engine::Rt(atsq_core::RtEngine::build(dataset)),
        "irt" => Engine::Irt(atsq_core::IrtEngine::build(dataset)),
        other => {
            return Err(CliError::Usage(format!(
                "--engine must be gat, il, rt or irt (got `{other}`)"
            )))
        }
    })
}

/// `atsq query` — run one ATSQ/OATSQ (top-k or range) and print the
/// results, optionally with witness venues.
pub fn query(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let f = parse(
        argv,
        &[
            "data",
            "engine",
            "k",
            "range",
            "stop",
            "shards",
            "partition",
            "index-cache",
        ],
        &["ordered", "witness"],
    )?;
    // Both are validated before the dataset is loaded, so a malformed
    // one fails fast.
    let goal = match f.get("range") {
        Some(tau) => Goal::Range(
            tau.parse()
                .ok()
                .filter(|tau: &f64| !tau.is_nan())
                .ok_or_else(|| CliError::Usage("--range needs a number".into()))?,
        ),
        None => Goal::TopK(f.num("k", 9)?),
    };
    let kind = if f.has("ordered") {
        QueryKind::Oatsq
    } else {
        QueryKind::Atsq
    };
    let dataset = load_dataset(f.require("data")?)?;
    let stops = f.get_all("stop");
    if stops.is_empty() {
        return Err(CliError::Usage("at least one --stop is required".into()));
    }
    let points: Result<Vec<QueryPoint>, CliError> =
        stops.iter().map(|s| parse_stop(s, &dataset)).collect();
    let query = Query::new(points?).map_err(|e| CliError::Usage(e.to_string()))?;
    let (shards, partition) = parse_sharding(&f)?;
    let engine_name = f.get("engine").unwrap_or("gat");
    let cache = f.get("index-cache").map(IndexCache::new);
    if cache.is_some() && engine_name != "gat" {
        return Err(CliError::Usage(
            "--index-cache only applies to the default gat engine".into(),
        ));
    }
    let engine = if shards > 1 && engine_name != "gat" {
        return Err(CliError::Usage(
            "--shards only applies to the default gat engine".into(),
        ));
    } else if shards > 1 || cache.is_some() {
        let (engine, outcome) = Engine::build_gat(&dataset, shards, partition, cache.as_ref())?;
        if let Some(outcome) = outcome {
            writeln!(out, "{}", describe_outcome(&outcome))?;
        }
        engine
    } else {
        build_engine(&dataset, engine_name)?
    };
    let results = engine.search(&dataset, &query, kind, goal);

    let label = match kind {
        QueryKind::Atsq => "Dmm",
        QueryKind::Oatsq => "Dmom",
    };
    writeln!(out, "{} result(s) [{}]:", results.len(), engine.name())?;
    for r in &results {
        let tr = dataset.trajectory(r.trajectory);
        writeln!(
            out,
            "  {}  {label} = {:.3} km  ({} check-ins)",
            r.trajectory,
            r.distance,
            tr.len()
        )?;
        if f.has("witness") {
            let ws = match kind {
                QueryKind::Atsq => matching::witness::min_match_witness(&query, &tr.points),
                QueryKind::Oatsq => matching::witness::min_order_match_witness(&query, &tr.points),
            };
            if let Some(ws) = ws {
                for (i, w) in ws.iter().enumerate() {
                    let venues: Vec<String> = w.points.iter().map(|&p| format!("#{p}")).collect();
                    writeln!(
                        out,
                        "      stop {}: venues {} at cost {:.3} km",
                        i + 1,
                        venues.join(", "),
                        w.distance
                    )?;
                }
            }
        }
    }
    Ok(())
}

/// `atsq index build` / `atsq index inspect` — manage persistent GAT
/// index snapshots so `atsq serve` / `atsq query` can cold-start
/// without rebuilding the index.
pub fn index(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(action) = argv.first() else {
        return Err(CliError::Usage(
            "`atsq index` needs an action: build or inspect".into(),
        ));
    };
    match action.as_str() {
        "build" => index_build(&argv[1..], out),
        "inspect" => index_inspect(&argv[1..], out),
        other => Err(CliError::Usage(format!(
            "unknown index action `{other}` (expected build or inspect)"
        ))),
    }
}

fn index_build(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let f = parse(argv, &["data", "cache", "shards", "partition"], &[])?;
    let dataset = load_dataset(f.require("data")?)?;
    let cache = IndexCache::new(f.require("cache")?);
    // Accepted for symmetry with `serve` / `query`; the snapshot is
    // the same whatever the shard count.
    parse_sharding(&f)?;
    let hash = dataset.content_hash();
    let t0 = Instant::now();
    let index = atsq_core::GatIndex::build(&dataset)?;
    let path = cache.save_index(&dataset, &index)?;
    let built_ms = t0.elapsed().as_secs_f64() * 1e3;
    writeln!(
        out,
        "built and snapshotted the index for dataset {hash:016x} in {built_ms:.0} ms"
    )?;
    writeln!(out, "  wrote {} (serves any --shards)", path.display())?;
    writeln!(
        out,
        "serve it with: atsq serve --data <snapshot> --index-cache {}",
        cache.dir().display()
    )?;
    Ok(())
}

fn index_inspect(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let f = parse(argv, &["cache"], &[])?;
    let cache = IndexCache::new(f.require("cache")?);
    let entries = cache.entries()?;
    if entries.is_empty() {
        writeln!(out, "no snapshots in {}", cache.dir().display())?;
        return Ok(());
    }
    for path in entries {
        match snapshot::inspect(&path) {
            Ok(info) => writeln!(
                out,
                "{}  kind {}  v{}  dataset {:016x}  payload {} bytes",
                path.display(),
                info.kind,
                info.version,
                info.dataset_hash,
                info.payload_bytes
            )?,
            Err(e) => writeln!(out, "{}  INVALID: {e}", path.display())?,
        }
    }
    Ok(())
}

/// Renders a cache outcome for the operator: did this start load a
/// snapshot, or (partially) build? The `Rebuilt` string is already a
/// complete account of what happened — rendered verbatim.
fn describe_outcome(outcome: &CacheOutcome) -> &str {
    match outcome {
        CacheOutcome::Loaded => "loaded index snapshot",
        CacheOutcome::Rebuilt(why) => why,
    }
}

/// `atsq bench` — quick per-engine timing on a snapshot.
pub fn bench(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let f = parse(argv, &["data", "queries", "k"], &[])?;
    let dataset = load_dataset(f.require("data")?)?;
    let n: usize = f.num("queries", 10)?;
    let k: usize = f.num("k", 9)?;
    let queries =
        atsq_datagen::generate_queries(&dataset, &atsq_datagen::QueryGenConfig::default(), n);
    let engines = Engine::build_all(&dataset)?;
    writeln!(out, "{:<6}{:>14}{:>14}", "engine", "ATSQ ms", "OATSQ ms")?;
    for e in &engines {
        let [atsq_ms, oatsq_ms] = [QueryKind::Atsq, QueryKind::Oatsq].map(|kind| {
            let t = Instant::now();
            for q in &queries {
                std::hint::black_box(e.search(&dataset, q, kind, Goal::TopK(k)));
            }
            t.elapsed().as_secs_f64() * 1e3 / n as f64
        });
        writeln!(out, "{:<6}{:>14.2}{:>14.2}", e.name(), atsq_ms, oatsq_ms)?;
    }
    Ok(())
}

/// Parses a human-friendly byte count: a plain number is bytes, and a
/// `kb` / `mb` / `gb` suffix (case-insensitive) scales it.
fn parse_bytes(spec: &str) -> Result<u64, CliError> {
    let lower = spec.trim().to_ascii_lowercase();
    let (digits, scale) = if let Some(d) = lower.strip_suffix("kb") {
        (d, 1u64 << 10)
    } else if let Some(d) = lower.strip_suffix("mb") {
        (d, 1u64 << 20)
    } else if let Some(d) = lower.strip_suffix("gb") {
        (d, 1u64 << 30)
    } else {
        (lower.as_str(), 1u64)
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| CliError::Usage(format!("bad byte count `{spec}` (try 512kb, 64mb, 1gb)")))?;
    Ok(n.saturating_mul(scale))
}

/// `atsq serve` — share one dataset + GAT index (or, with `--cities`,
/// a whole registry of lazily-loaded city datasets) across a worker
/// pool behind a newline-delimited-JSON TCP endpoint.
pub fn serve(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let f = parse(
        argv,
        &[
            "data",
            "cities",
            "tenant-memory-budget",
            "default-city",
            "city-cap",
            "addr",
            "workers",
            "queue",
            "batch",
            "cache",
            "deadline-ms",
            "duration-s",
            "shards",
            "partition",
            "index-cache",
            "slowlog-ms",
            "slowlog-capacity",
        ],
        &["no-tracing"],
    )?;
    let defaults = ServiceConfig::default();
    let (shards, partition) = parse_sharding(&f)?;
    let config = ServiceConfig {
        workers: f.num("workers", defaults.workers)?,
        queue_capacity: f.num("queue", defaults.queue_capacity)?,
        batch_size: f.num("batch", defaults.batch_size)?,
        cache_capacity: f.num("cache", defaults.cache_capacity)?,
        default_deadline: match f.get("deadline-ms") {
            None => None,
            Some(_) => Some(Duration::from_millis(f.num("deadline-ms", 0u64)?)),
        },
        shards,
        partition,
        index_cache: f.get("index-cache").map(std::path::PathBuf::from),
        tracing: !f.has("no-tracing"),
        slowlog_capacity: f.num("slowlog-capacity", defaults.slowlog_capacity)?,
        slowlog_threshold: Duration::from_millis(
            f.num("slowlog-ms", defaults.slowlog_threshold.as_millis() as u64)?,
        ),
        city_inflight_cap: f.num("city-cap", defaults.city_inflight_cap)?,
    };
    let duration_s: u64 = f.num("duration-s", 0)?;
    let workers = config.workers;
    let sharding = if shards > 1 {
        format!(", {shards} {partition} shards")
    } else {
        String::new()
    };

    let service = match (f.get("cities"), f.get("data")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--cities and --data are mutually exclusive".into(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage("serve needs --data or --cities".into()));
        }
        // Multi-city: every subdirectory of DIR with a `city.atsq`
        // becomes a lazily-loaded tenant; nothing builds until a
        // city's first query (or an explicit `city_load`).
        (Some(dir), None) => {
            let opts = atsq_tenant::DiskRegistryOptions {
                shards,
                partition,
                memory_budget: f.get("tenant-memory-budget").map(parse_bytes).transpose()?,
                default_city: f.get("default-city").map(str::to_owned),
            };
            let registry = atsq_tenant::registry_from_dir(std::path::Path::new(dir), &opts)
                .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
            let names: Vec<String> = registry
                .cities()
                .iter()
                .map(|c| c.city.as_str().to_owned())
                .collect();
            let budget = opts
                .memory_budget
                .map_or("unbounded".to_owned(), |b| format!("{b} bytes"));
            writeln!(
                out,
                "hosting {} cities from {dir} [{}] (default {}, budget {budget})",
                names.len(),
                names.join(", "),
                registry.default_city()
            )?;
            Service::start_registry(std::sync::Arc::new(registry), config)
        }
        (None, Some(path)) => {
            let dataset = load_dataset(path)?;
            let n = dataset.len();
            let t0 = Instant::now();
            let (service, outcome) = Service::build_with_outcome(dataset, config)?;
            let startup_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(outcome) = &outcome {
                writeln!(out, "{} in {startup_ms:.0} ms", describe_outcome(outcome))?;
            }
            writeln!(out, "loaded {n} trajectories from {path}")?;
            service
        }
    };
    let server = Server::bind(service.handle(), f.get("addr").unwrap_or("127.0.0.1:7878"))
        .map_err(CliError::Io)?;
    writeln!(
        out,
        "serving on {} ({workers} workers{sharding}); NDJSON, one request per line",
        server.local_addr()
    )?;
    if duration_s == 0 {
        // Run until killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(duration_s));
    server.stop();
    let stats = service.stats();
    service.shutdown();
    writeln!(out, "{stats}")?;
    Ok(())
}

/// `atsq loadgen` — closed-loop load generation against a running
/// `atsq serve`, with optional response verification. With `--cities
/// DIR` (plus repeatable `--city NAME` to select a subset) requests
/// round-robin across the named cities of a multi-city server.
pub fn loadgen(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let f = parse(
        argv,
        &[
            "data",
            "cities",
            "city",
            "addr",
            "concurrency",
            "requests",
            "k",
            "pool",
            "zipf",
            "query-points",
            "acts-per-point",
            "deadline-ms",
            "seed",
            "latency-out",
        ],
        &["verify"],
    )?;
    let addr = f.require("addr")?;
    let defaults = LoadgenConfig::default();
    let cfg = LoadgenConfig {
        concurrency: f.num("concurrency", defaults.concurrency)?,
        requests: f.num("requests", defaults.requests)?,
        k: f.num("k", defaults.k)?,
        pool: f.num("pool", defaults.pool)?,
        zipf_s: f.num("zipf", defaults.zipf_s)?,
        query_points: f.num("query-points", defaults.query_points)?,
        acts_per_point: f.num("acts-per-point", defaults.acts_per_point)?,
        deadline_ms: f
            .get("deadline-ms")
            .map(|_| f.num("deadline-ms", 0u64))
            .transpose()?,
        verify: f.has("verify"),
        seed: f.num("seed", defaults.seed)?,
        latency_out: f.get("latency-out").map(std::path::PathBuf::from),
    };
    let workloads = match (f.get("cities"), f.get("data")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--cities and --data are mutually exclusive".into(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage("loadgen needs --data or --cities".into()));
        }
        (None, Some(path)) => {
            if !f.get_all("city").is_empty() {
                return Err(CliError::Usage("--city requires --cities DIR".into()));
            }
            vec![atsq_service::CityWorkload {
                city: None,
                dataset: load_dataset(path)?,
            }]
        }
        // Multi-city: the datasets come from the same layout `serve
        // --cities` reads (DIR/<name>/city.atsq); --city narrows the
        // target set, defaulting to every city in the directory.
        (Some(dir), None) => {
            let dir = std::path::Path::new(dir);
            let mut names: Vec<String> = f.get_all("city").to_vec();
            if names.is_empty() {
                let mut found = Vec::new();
                for entry in std::fs::read_dir(dir)? {
                    let path = entry?.path();
                    if path.join(atsq_tenant::CITY_DATASET_FILE).is_file() {
                        if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                            found.push(name.to_owned());
                        }
                    }
                }
                found.sort();
                names = found;
            }
            if names.is_empty() {
                return Err(CliError::Usage(format!(
                    "no cities found under {}",
                    dir.display()
                )));
            }
            names
                .into_iter()
                .map(|name| {
                    let path = dir.join(&name).join(atsq_tenant::CITY_DATASET_FILE);
                    let dataset = load_dataset(path.to_str().unwrap_or_default())?;
                    Ok(atsq_service::CityWorkload {
                        city: Some(name),
                        dataset,
                    })
                })
                .collect::<Result<Vec<_>, CliError>>()?
        }
    };
    if workloads.len() > 1 {
        let names: Vec<&str> = workloads.iter().filter_map(|w| w.city.as_deref()).collect();
        writeln!(out, "round-robin across cities: {}", names.join(", "))?;
    }
    let report = atsq_service::run_loadgen_cities(addr, &workloads, &cfg).map_err(CliError::Io)?;
    writeln!(out, "{report}")?;
    if cfg.verify && report.incorrect > 0 {
        return Err(CliError::Io(std::io::Error::other(format!(
            "{} responses disagreed with the local engine",
            report.incorrect
        ))));
    }
    Ok(())
}

/// One-shot request/response against a running `atsq serve`: sends a
/// single op line, returns the parsed reply.
fn wire_call(addr: &str, op: &str) -> Result<atsq_service::json::Value, CliError> {
    wire_call_line(addr, &format!("{{\"op\":\"{op}\"}}"))
}

/// Like [`wire_call`] but sends a caller-built request line, for ops
/// that carry members beyond `op` (e.g. `city_load`).
fn wire_call_line(addr: &str, line: &str) -> Result<atsq_service::json::Value, CliError> {
    use std::io::BufRead;
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    let value = atsq_service::json::parse(reply.trim())
        .map_err(|e| CliError::Io(std::io::Error::other(format!("bad reply: {e}"))))?;
    if let Some(err) = value
        .get("error")
        .and_then(atsq_service::json::Value::as_str)
    {
        return Err(CliError::Io(std::io::Error::other(err.to_owned())));
    }
    Ok(value)
}

/// `atsq cities` — list a multi-city server's tenants, or load/unload
/// one by name.
pub fn cities(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use atsq_service::json::Value;
    let f = parse(argv, &["addr", "load", "unload"], &[])?;
    let addr = f.require("addr")?;
    if f.get("load").is_some() && f.get("unload").is_some() {
        return Err(CliError::Usage(
            "--load and --unload are mutually exclusive".into(),
        ));
    }
    if let Some((op, name)) = f
        .get("load")
        .map(|n| ("city_load", n))
        .or_else(|| f.get("unload").map(|n| ("city_unload", n)))
    {
        let line = atsq_service::json::Value::Obj(vec![
            ("op".into(), Value::Str(op.into())),
            ("city".into(), Value::Str(name.into())),
        ])
        .to_json();
        let reply = wire_call_line(addr, &line)?;
        let status = reply.get("status").and_then(Value::as_str).unwrap_or("ok");
        if op == "city_load" {
            let cold = reply
                .get("cold")
                .and_then(Value::as_bool)
                .map_or(String::new(), |c| {
                    format!(" ({})", if c { "cold load" } else { "already resident" })
                });
            writeln!(out, "{name}: {status}{cold}")?;
        } else {
            writeln!(out, "{name}: {status}")?;
        }
        return Ok(());
    }
    let reply = wire_call(addr, "cities")?;
    let entries = reply
        .get("cities")
        .and_then(Value::as_arr)
        .ok_or_else(|| CliError::Io(std::io::Error::other("reply lacks `cities`")))?;
    writeln!(
        out,
        "{:<16} {:<9} {:>12} {:>8} {:>9} {:>6} {:>6} {:>9}",
        "CITY", "STATE", "RESIDENT", "INFLIGHT", "QUERIES", "LOADS", "EVICT", "LOAD-MS"
    )?;
    for e in entries {
        let num = |k: &str| e.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let city = e.get("city").and_then(Value::as_str).unwrap_or("?");
        let state = e.get("state").and_then(Value::as_str).unwrap_or("?");
        let snapshot = e
            .get("loaded_from_snapshot")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        writeln!(
            out,
            "{:<16} {:<9} {:>12} {:>8} {:>9} {:>6} {:>6} {:>9.1}{}{}",
            city,
            state,
            num("resident_bytes") as u64,
            num("inflight") as u64,
            num("queries") as u64,
            num("loads") as u64,
            num("evictions") as u64,
            num("load_ms_total"),
            if snapshot { "  [snapshot]" } else { "" },
            e.get("last_error")
                .and_then(Value::as_str)
                .map_or(String::new(), |err| format!("  last_error: {err}")),
        )?;
    }
    Ok(())
}

/// `atsq metrics` — fetch a server's Prometheus metrics page.
pub fn metrics(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let f = parse(argv, &["addr"], &[])?;
    let value = wire_call(f.require("addr")?, "metrics")?;
    let text = value
        .get("metrics")
        .and_then(atsq_service::json::Value::as_str)
        .ok_or_else(|| CliError::Io(std::io::Error::other("reply lacks `metrics` text")))?;
    write!(out, "{text}")?;
    Ok(())
}

/// `atsq slowlog` — fetch and pretty-print a server's slow-query log.
pub fn slowlog(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use atsq_service::json::Value;
    let f = parse(argv, &["addr"], &[])?;
    let value = wire_call(f.require("addr")?, "slowlog")?;
    let entries = value
        .get("entries")
        .and_then(Value::as_arr)
        .ok_or_else(|| CliError::Io(std::io::Error::other("reply lacks `entries`")))?;
    if entries.is_empty() {
        writeln!(out, "slow-query log is empty")?;
        return Ok(());
    }
    for e in entries {
        let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
        let id = num(e.get("request_id")) as u64;
        let op = e.get("op").and_then(Value::as_str).unwrap_or("?");
        let status = e.get("status").and_then(Value::as_str).unwrap_or("?");
        let total_ms = num(e.get("total_ms"));
        let age_s = num(e.get("age_s"));
        write!(
            out,
            "#{id} {op} {status} {total_ms:.3} ms ({age_s:.1}s ago)  stages:"
        )?;
        if let Some(stages) = e.get("stages") {
            for stage in ["admission", "queue", "cache", "assembly", "engine", "reply"] {
                write!(out, " {stage}={:.3}", num(stages.get(stage)))?;
            }
        }
        if let Some(counters) = e.get("counters") {
            write!(
                out,
                "  candidates={} distance_evals={}",
                num(counters.get("candidates")) as u64,
                num(counters.get("distance_evals")) as u64,
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn run_ok(args: &[&str]) -> String {
        let mut out = Vec::new();
        run(&sv(args), &mut out).expect("command should succeed");
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn generate_stats_query_roundtrip() {
        let dir = std::env::temp_dir().join("atsq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("tiny.atsq");
        let snap = snap.to_str().unwrap();

        let msg = run_ok(&["generate", "--city", "tiny", "--out", snap]);
        assert!(msg.contains("trajectories"), "{msg}");

        let stats = run_ok(&["stats", "--data", snap]);
        assert!(stats.contains("#trajectory"), "{stats}");

        // Query with a real activity name from the generated dataset.
        let dataset = load_dataset(snap).unwrap();
        let name = dataset
            .vocabulary()
            .name(atsq_types::ActivityId(0))
            .unwrap();
        let stop = format!("10.0,10.0:{name}");
        let q = run_ok(&[
            "query",
            "--data",
            snap,
            "--stop",
            &stop,
            "--k",
            "3",
            "--witness",
        ]);
        assert!(q.contains("result(s) [GAT]"), "{q}");

        let range = run_ok(&[
            "query", "--data", snap, "--stop", &stop, "--range", "100.0", "--engine", "il",
        ]);
        assert!(range.contains("[IL]"), "{range}");

        let bench = run_ok(&["bench", "--data", snap, "--queries", "2"]);
        assert!(bench.contains("GAT"), "{bench}");
        std::fs::remove_file(snap).ok();
    }

    #[test]
    fn import_roundtrip() {
        let dir = std::env::temp_dir().join("atsq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("log.csv");
        std::fs::write(
            &csv,
            "u1,34.05,-118.25,100,coffee\nu1,34.06,-118.20,200,art\nu2,34.0,-118.2,1,x\nu2,34.1,-118.3,2,coffee\n",
        )
        .unwrap();
        let snap = dir.join("imported.atsq");
        let msg = run_ok(&[
            "import",
            "--csv",
            csv.to_str().unwrap(),
            "--out",
            snap.to_str().unwrap(),
        ]);
        assert!(msg.contains("imported 2 trajectories"), "{msg}");
        let stats = run_ok(&["stats", "--data", snap.to_str().unwrap()]);
        assert!(stats.contains("#venue"), "{stats}");
        std::fs::remove_file(csv).ok();
        std::fs::remove_file(snap).ok();
    }

    #[test]
    fn tips_import_mines_activities() {
        let dir = std::env::temp_dir().join("atsq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("tips.csv");
        std::fs::write(
            &csv,
            "\
u1,34.05,-118.25,100,great espresso here
u1,34.06,-118.20,200,went hiking on the trail
u2,34.00,-118.20,10,the espresso is strong
u2,34.10,-118.30,20,hiking with a view
",
        )
        .unwrap();
        let snap = dir.join("tips.atsq");
        let vocab = dir.join("tips.vocab");
        let msg = run_ok(&[
            "import",
            "--csv",
            csv.to_str().unwrap(),
            "--tips",
            "--min-activity-count",
            "2",
            "--vocab-out",
            vocab.to_str().unwrap(),
            "--out",
            snap.to_str().unwrap(),
        ]);
        assert!(msg.contains("mined"), "{msg}");
        assert!(msg.contains("imported 2 trajectories"), "{msg}");
        // The persisted extractor loads and still maps the same words.
        let file = std::fs::File::open(&vocab).unwrap();
        let ex = atsq_io::read_extractor(std::io::BufReader::new(file)).unwrap();
        assert_eq!(ex.extract("strong espresso"), vec!["espresso"]);
        std::fs::remove_file(&vocab).ok();
        // The mined vocabulary is queryable end to end.
        let q = run_ok(&[
            "query",
            "--data",
            snap.to_str().unwrap(),
            "--stop",
            "0.0,0.0:espresso",
            "--k",
            "2",
        ]);
        assert!(q.contains("result(s)"), "{q}");
        std::fs::remove_file(csv).ok();
        std::fs::remove_file(snap).ok();
    }

    /// Stops the matching kernels cannot rank — non-finite coordinates,
    /// more activities than a query point may request — are usage
    /// errors, never a panic or a NaN-ranked answer.
    #[test]
    fn unrankable_stops_are_usage_errors() {
        let dir = std::env::temp_dir().join("atsq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("unrankable.atsq");
        let snap = snap.to_str().unwrap();
        run_ok(&["generate", "--city", "tiny", "--out", snap]);
        let dataset = load_dataset(snap).unwrap();
        let name = |a: u32| {
            let id = atsq_types::ActivityId(a);
            dataset.vocabulary().name(id).unwrap().to_owned()
        };
        let too_many = (0..=QueryPoint::MAX_ACTIVITIES as u32)
            .map(name)
            .collect::<Vec<_>>()
            .join(";");
        for stop in [
            format!("nan,0:{}", name(0)),
            format!("0,inf:{}", name(0)),
            format!("1,2:{too_many}"),
        ] {
            let mut out = Vec::new();
            let err = run(&sv(&["query", "--data", snap, "--stop", &stop]), &mut out);
            assert!(matches!(err, Err(CliError::Usage(_))), "{stop}: {err:?}");
        }
        // A NaN radius is a usage error too (exit 2), not a walk of the
        // whole index that returns nothing.
        let stop = format!("1,2:{}", name(0));
        let args = ["query", "--data", snap, "--stop", &stop, "--range", "NaN"];
        let err = run(&sv(&args), &mut Vec::new());
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
        std::fs::remove_file(snap).ok();
    }

    #[test]
    fn sharded_query_matches_single_index() {
        let dir = std::env::temp_dir().join("atsq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("sharded.atsq");
        let snap = snap.to_str().unwrap();
        run_ok(&["generate", "--city", "tiny", "--seed", "3", "--out", snap]);
        let dataset = load_dataset(snap).unwrap();
        let name = dataset
            .vocabulary()
            .name(atsq_types::ActivityId(0))
            .unwrap();
        let stop = format!("10.0,10.0:{name}");
        let single = run_ok(&["query", "--data", snap, "--stop", &stop, "--k", "5"]);
        for partition in ["hash", "spatial"] {
            let sharded = run_ok(&[
                "query",
                "--data",
                snap,
                "--stop",
                &stop,
                "--k",
                "5",
                "--shards",
                "3",
                "--partition",
                partition,
            ]);
            assert_eq!(
                single.replace("[GAT]", "[GAT-SHARDED]"),
                sharded,
                "{partition}"
            );
        }
        // Sharding a baseline engine or 0 shards is a usage error.
        let mut out = Vec::new();
        assert!(run(
            &sv(&["query", "--data", snap, "--stop", &stop, "--shards", "2", "--engine", "il"]),
            &mut out
        )
        .is_err());
        assert!(run(
            &sv(&["query", "--data", snap, "--stop", &stop, "--shards", "0"]),
            &mut out
        )
        .is_err());
        assert!(run(
            &sv(&[
                "query",
                "--data",
                snap,
                "--stop",
                &stop,
                "--shards",
                "2",
                "--partition",
                "mars"
            ]),
            &mut out
        )
        .is_err());
        std::fs::remove_file(snap).ok();
    }

    /// The index-cache workflow end to end: `index build` writes
    /// snapshots, `index inspect` lists them, `query --index-cache`
    /// loads them and answers exactly like a cache-less run (single
    /// and sharded), and corrupting a snapshot degrades to a rebuild.
    #[test]
    fn index_cache_workflow_roundtrip() {
        let dir = std::env::temp_dir().join("atsq_cli_test_idxcache");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("city.atsq");
        let snap = snap.to_str().unwrap();
        let cache = dir.join("cache");
        let cache = cache.to_str().unwrap();
        run_ok(&["generate", "--city", "tiny", "--seed", "7", "--out", snap]);
        let dataset = load_dataset(snap).unwrap();
        let name = dataset
            .vocabulary()
            .name(atsq_types::ActivityId(0))
            .unwrap();
        let stop = format!("10.0,10.0:{name}");
        let plain = run_ok(&["query", "--data", snap, "--stop", &stop, "--k", "5"]);

        // One snapshot serves the single index and any shard count.
        let msg = run_ok(&["index", "build", "--data", snap, "--cache", cache]);
        assert!(msg.contains("snapshotted"), "{msg}");
        let msg = run_ok(&[
            "index", "build", "--data", snap, "--cache", cache, "--shards", "2",
        ]);
        assert!(msg.contains("serves any --shards"), "{msg}");
        let listing = run_ok(&["index", "inspect", "--cache", cache]);
        assert!(listing.contains("kind index"), "{listing}");
        assert_eq!(listing.lines().count(), 1, "one file: {listing}");

        // Cached queries load the snapshot and answer identically.
        let cached = run_ok(&[
            "query",
            "--data",
            snap,
            "--stop",
            &stop,
            "--k",
            "5",
            "--index-cache",
            cache,
        ]);
        assert!(cached.contains("loaded index snapshot"), "{cached}");
        assert_eq!(cached.replace("loaded index snapshot\n", ""), plain);
        let sharded = run_ok(&[
            "query",
            "--data",
            snap,
            "--stop",
            &stop,
            "--k",
            "5",
            "--shards",
            "2",
            "--index-cache",
            cache,
        ]);
        assert!(sharded.contains("loaded index snapshot"), "{sharded}");
        assert_eq!(
            sharded.replace("loaded index snapshot\n", ""),
            plain.replace("[GAT]", "[GAT-SHARDED]")
        );

        // Corrupt the single-index snapshot: the query falls back to a
        // fresh build, same answers, and repairs the snapshot.
        let idx_file = std::fs::read_dir(cache)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "idx"))
            .unwrap();
        let mut bytes = std::fs::read(&idx_file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&idx_file, &bytes).unwrap();
        let rebuilt = run_ok(&[
            "query",
            "--data",
            snap,
            "--stop",
            &stop,
            "--k",
            "5",
            "--index-cache",
            cache,
        ]);
        assert!(rebuilt.contains("built index fresh"), "{rebuilt}");
        assert!(rebuilt.contains("checksum"), "{rebuilt}");
        assert!(rebuilt.ends_with(plain.as_str()), "{rebuilt}");
        let again = run_ok(&[
            "query",
            "--data",
            snap,
            "--stop",
            &stop,
            "--k",
            "5",
            "--index-cache",
            cache,
        ]);
        assert!(again.contains("loaded index snapshot"), "{again}");

        // --index-cache with a baseline engine is a usage error.
        let mut out = Vec::new();
        assert!(run(
            &sv(&[
                "query",
                "--data",
                snap,
                "--stop",
                &stop,
                "--engine",
                "il",
                "--index-cache",
                cache
            ]),
            &mut out
        )
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `serve --index-cache` restarts from the snapshot and still
    /// verifies under load.
    #[test]
    fn serve_with_index_cache_restarts_fast_and_verifies() {
        let dir = std::env::temp_dir().join("atsq_cli_test_servecache");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("city.atsq");
        let snap = snap.to_str().unwrap();
        let cache = dir.join("cache");
        run_ok(&["generate", "--city", "tiny", "--seed", "13", "--out", snap]);
        let dataset = load_dataset(snap).unwrap();
        run_ok(&[
            "index",
            "build",
            "--data",
            snap,
            "--cache",
            cache.to_str().unwrap(),
            "--shards",
            "2",
        ]);

        let config = ServiceConfig {
            workers: 2,
            shards: 2,
            index_cache: Some(cache.clone()),
            ..ServiceConfig::default()
        };
        let service = Service::build(dataset.clone(), config).unwrap();
        let server = Server::bind(service.handle(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let report = run_ok(&[
            "loadgen",
            "--data",
            snap,
            "--addr",
            &addr,
            "--concurrency",
            "4",
            "--requests",
            "60",
            "--pool",
            "10",
            "--k",
            "5",
            "--verify",
        ]);
        assert!(report.contains("incorrect 0"), "{report}");
        server.stop();
        service.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loadgen_against_live_server_verifies() {
        let dir = std::env::temp_dir().join("atsq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("serve_roundtrip.atsq");
        let snap = snap.to_str().unwrap();
        run_ok(&["generate", "--city", "tiny", "--seed", "9", "--out", snap]);

        let dataset = load_dataset(snap).unwrap();
        let service = Service::build(
            dataset,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let server = Server::bind(service.handle(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let report = run_ok(&[
            "loadgen",
            "--data",
            snap,
            "--addr",
            &addr,
            "--concurrency",
            "4",
            "--requests",
            "60",
            "--pool",
            "10",
            "--k",
            "5",
            "--verify",
        ]);
        assert!(report.contains("incorrect 0"), "{report}");
        assert!(report.contains("qps"), "{report}");

        server.stop();
        service.shutdown();
        std::fs::remove_file(snap).ok();
    }

    /// The observability surface end to end at the CLI: drive a live
    /// server with `loadgen --latency-out`, then scrape `metrics` and
    /// `slowlog`.
    #[test]
    fn metrics_and_slowlog_commands_scrape_a_live_server() {
        let dir = std::env::temp_dir().join("atsq_cli_test_obs");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("obs.atsq");
        let snap = snap.to_str().unwrap();
        run_ok(&["generate", "--city", "tiny", "--seed", "17", "--out", snap]);

        let dataset = load_dataset(snap).unwrap();
        let service = Service::build(
            dataset,
            ServiceConfig {
                workers: 2,
                slowlog_threshold: Duration::ZERO, // record every request
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let server = Server::bind(service.handle(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let latency_file = dir.join("latency.jsonl");
        let report = run_ok(&[
            "loadgen",
            "--data",
            snap,
            "--addr",
            &addr,
            "--concurrency",
            "2",
            "--requests",
            "30",
            "--pool",
            "8",
            "--k",
            "4",
            "--latency-out",
            latency_file.to_str().unwrap(),
        ]);
        assert!(report.contains("ok 30"), "{report}");
        let records = std::fs::read_to_string(&latency_file).unwrap();
        assert_eq!(records.lines().count(), 30);
        assert!(records.lines().all(|l| l.contains("\"request_id\":")));

        let page = run_ok(&["metrics", "--addr", &addr]);
        assert!(
            page.contains("atsq_requests_completed_total 30\n"),
            "{page}"
        );
        assert!(page.contains("atsq_latency_seconds_count 30\n"), "{page}");
        assert!(page.contains("atsq_engine_candidates_total"), "{page}");
        assert!(
            page.contains("atsq_stage_seconds_total{stage=\"engine\"}"),
            "{page}"
        );

        let log = run_ok(&["slowlog", "--addr", &addr]);
        assert!(log.contains("stages:"), "{log}");
        assert!(log.contains("engine="), "{log}");
        assert!(log.contains("candidates="), "{log}");

        server.stop();
        service.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_runs_for_a_bounded_duration() {
        let dir = std::env::temp_dir().join("atsq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("serve_duration.atsq");
        let snap = snap.to_str().unwrap();
        run_ok(&["generate", "--city", "tiny", "--out", snap]);
        let msg = run_ok(&[
            "serve",
            "--data",
            snap,
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--duration-s",
            "1",
        ]);
        assert!(msg.contains("serving"), "{msg}");
        assert!(msg.contains("qps"), "{msg}");
        std::fs::remove_file(snap).ok();
    }

    #[test]
    fn usage_errors() {
        let mut out = Vec::new();
        assert!(run(&sv(&[]), &mut out).is_err());
        assert!(run(&sv(&["frobnicate"]), &mut out).is_err());
        assert!(run(
            &sv(&["generate", "--city", "mars", "--out", "/tmp/x"]),
            &mut out
        )
        .is_err());
        assert!(run(&sv(&["query", "--data", "/nonexistent"]), &mut out).is_err());
        // A malformed `--k` is reported before the dataset is opened.
        let err = run(
            &sv(&["query", "--data", "/nonexistent", "--k", "abc"]),
            &mut out,
        );
        match err {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--k"), "{msg}"),
            other => panic!("want the --k usage error, got {other:?}"),
        }
        // help works
        run(&sv(&["help"]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("USAGE"));
    }

    /// The multi-city surface end to end at the CLI: a registry served
    /// from a `--cities`-style directory, `loadgen --cities` verifying
    /// round-robin across tenants, and the `cities` subcommand
    /// listing, unloading and reloading a city.
    #[test]
    fn multi_city_serve_loadgen_and_admin_roundtrip() {
        let dir = std::env::temp_dir().join("atsq_cli_test_cities");
        std::fs::remove_dir_all(&dir).ok();
        for (name, seed) in [("kyoto", "21"), ("osaka", "22")] {
            let city_dir = dir.join(name);
            std::fs::create_dir_all(&city_dir).unwrap();
            let snap = city_dir.join(atsq_tenant::CITY_DATASET_FILE);
            run_ok(&[
                "generate",
                "--city",
                "tiny",
                "--seed",
                seed,
                "--out",
                snap.to_str().unwrap(),
            ]);
        }

        let registry =
            atsq_tenant::registry_from_dir(&dir, &atsq_tenant::DiskRegistryOptions::default())
                .unwrap();
        let service = Service::start_registry(
            std::sync::Arc::new(registry),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let server = Server::bind(service.handle(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let report = run_ok(&[
            "loadgen",
            "--cities",
            dir.to_str().unwrap(),
            "--addr",
            &addr,
            "--concurrency",
            "4",
            "--requests",
            "40",
            "--pool",
            "8",
            "--k",
            "5",
            "--verify",
        ]);
        assert!(
            report.contains("round-robin across cities: kyoto, osaka"),
            "{report}"
        );
        assert!(report.contains("incorrect 0"), "{report}");

        let listing = run_ok(&["cities", "--addr", &addr]);
        assert!(listing.contains("kyoto"), "{listing}");
        assert!(listing.contains("osaka"), "{listing}");
        assert!(listing.contains("ready"), "{listing}");

        // The last reply's lease drops just after loadgen returns, so
        // an immediate unload can race a still-draining request.
        let unload = (0..100)
            .find_map(|_| {
                let mut out = Vec::new();
                match run(
                    &sv(&["cities", "--addr", &addr, "--unload", "osaka"]),
                    &mut out,
                ) {
                    Ok(()) => Some(String::from_utf8(out).unwrap()),
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(20));
                        None
                    }
                }
            })
            .expect("unload should succeed once in-flight requests drain");
        assert!(unload.contains("osaka: ok"), "{unload}");
        let listing = run_ok(&["cities", "--addr", &addr]);
        assert!(listing.contains("evicted"), "{listing}");
        let load = run_ok(&["cities", "--addr", &addr, "--load", "osaka"]);
        assert!(load.contains("osaka: ok (cold load)"), "{load}");

        // Usage errors: exclusive flag pairs and orphaned --city.
        let mut out = Vec::new();
        assert!(run(
            &sv(&["cities", "--addr", &addr, "--load", "a", "--unload", "b"]),
            &mut out
        )
        .is_err());
        assert!(run(
            &sv(&["loadgen", "--addr", &addr, "--city", "kyoto"]),
            &mut out
        )
        .is_err());
        assert!(run(
            &sv(&[
                "serve",
                "--data",
                "x",
                "--cities",
                "y",
                "--addr",
                "127.0.0.1:0"
            ]),
            &mut out
        )
        .is_err());

        server.stop();
        service.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `serve --cities` itself boots a registry, announces its
    /// tenants, and answers for the bounded duration.
    #[test]
    fn serve_cities_runs_for_a_bounded_duration() {
        let dir = std::env::temp_dir().join("atsq_cli_test_serve_cities");
        std::fs::remove_dir_all(&dir).ok();
        let city_dir = dir.join("nara");
        std::fs::create_dir_all(&city_dir).unwrap();
        run_ok(&[
            "generate",
            "--city",
            "tiny",
            "--out",
            city_dir
                .join(atsq_tenant::CITY_DATASET_FILE)
                .to_str()
                .unwrap(),
        ]);
        let msg = run_ok(&[
            "serve",
            "--cities",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--duration-s",
            "1",
            "--tenant-memory-budget",
            "64mb",
        ]);
        assert!(msg.contains("hosting 1 cities"), "{msg}");
        assert!(msg.contains("nara"), "{msg}");
        assert!(msg.contains("serving"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("1024").unwrap(), 1024);
        assert_eq!(parse_bytes("2kb").unwrap(), 2 * 1024);
        assert_eq!(parse_bytes("3MB").unwrap(), 3 * 1024 * 1024);
        assert_eq!(parse_bytes("1gb").unwrap(), 1024 * 1024 * 1024);
        assert!(parse_bytes("lots").is_err());
    }

    #[test]
    fn parse_stop_validates() {
        let dataset = atsq_datagen::generate(&CityConfig::tiny(1)).unwrap();
        assert!(parse_stop("1,2:act000000", &dataset).is_ok());
        assert!(parse_stop("1;2:act000000", &dataset).is_err());
        assert!(parse_stop("1,2:", &dataset).is_err());
        assert!(parse_stop("1,2:not-an-activity", &dataset).is_err());
        assert!(parse_stop("x,2:act000000", &dataset).is_err());
        assert!(parse_stop("no-colon", &dataset).is_err());
    }
}
