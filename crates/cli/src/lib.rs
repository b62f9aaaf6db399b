//! Library half of the `atsq` command-line tool.
//!
//! All functionality is in the library so it can be unit-tested
//! without spawning processes; `main.rs` only forwards `std::env`
//! arguments and maps errors to exit codes.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod commands;

use std::fmt;

/// CLI-level errors (usage problems or propagated library errors).
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// Underlying library failure.
    Lib(atsq_types::Error),
    /// I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}\n\n{USAGE}"),
            CliError::Lib(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<atsq_types::Error> for CliError {
    fn from(e: atsq_types::Error) -> Self {
        CliError::Lib(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
atsq — activity trajectory search (ICDE'13 reproduction)

USAGE:
  atsq generate --city <la|ny|tiny> [--scale S] [--seed N] --out FILE
  atsq import   --csv FILE [--min-checkins N] [--tips
                [--min-activity-count N] [--vocab-out FILE]] --out FILE
  atsq stats    --data FILE
  atsq query    --data FILE [--engine gat|il|rt|irt] [--k N]
                [--ordered] [--range TAU] --stop \"x,y:act1;act2\"
                [--stop ...] [--witness] [--shards S]
                [--partition hash|spatial] [--index-cache DIR]
  atsq index    build --data FILE --cache DIR [--shards S]
                [--partition hash|spatial]
  atsq index    inspect --cache DIR
  atsq bench    --data FILE [--queries N] [--k N]
  atsq serve    (--data FILE | --cities DIR) [--addr HOST:PORT]
                [--workers N] [--queue N] [--batch N] [--cache N]
                [--deadline-ms MS] [--duration-s S] [--shards S]
                [--partition hash|spatial] [--index-cache DIR]
                [--slowlog-ms MS] [--slowlog-capacity N] [--no-tracing]
                [--tenant-memory-budget BYTES[kb|mb|gb]]
                [--default-city NAME] [--city-cap N]
  atsq loadgen  (--data FILE | --cities DIR [--city NAME ...])
                --addr HOST:PORT [--concurrency N]
                [--requests N] [--k N] [--pool N] [--zipf S]
                [--query-points N] [--acts-per-point N] [--seed N]
                [--deadline-ms MS] [--verify] [--latency-out FILE]
  atsq metrics  --addr HOST:PORT
  atsq slowlog  --addr HOST:PORT
  atsq cities   --addr HOST:PORT [--load NAME | --unload NAME]

Datasets are `atsq v1` text snapshots (see atsq-io). Activities in
--stop are names from the dataset vocabulary. With --tips the CSV's
fifth column is free text and activities are mined from it.

--shards S > 1 splits candidate verification over S lanes of the one
GAT index (trajectories assigned by the hash or spatial partitioner),
run in parallel where cores allow; results are identical to S = 1.

--index-cache DIR reads/writes persistent index snapshots keyed by the
dataset's content hash: `atsq index build` pre-builds them, and `atsq
serve --index-cache DIR` then cold-starts by *loading* the index
instead of rebuilding it (answers are identical). A stale, corrupt or
missing snapshot silently falls back to a fresh build and re-saves.

`serve` answers newline-delimited JSON over TCP, e.g.
  {\"op\":\"atsq\",\"k\":5,\"stops\":[{\"x\":12.0,\"y\":7.5,\"acts\":[\"coffee\"]}]}
(`op` also: oatsq, atsq_range/oatsq_range with `tau`, stats, metrics,
slowlog, ping). Query responses echo a service-assigned `request_id`.
`loadgen` drives a running server closed-loop with Zipf-skewed query
reuse; --verify checks every response against a local engine and
--latency-out writes one JSON record (request id, status, latency) per
request. `metrics` prints the server's Prometheus exposition;
`slowlog` prints its slow-query log (per-request stage breakdown and
engine counters; see --slowlog-ms / --slowlog-capacity on serve).

`serve --cities DIR` hosts every sub-directory of DIR holding a
`city.atsq` snapshot as a named city, loaded lazily on first query and
evicted least-recently-queried when resident bytes exceed
--tenant-memory-budget (in-flight cities are never evicted). Query
requests may add `\"city\":\"NAME\"` to route to a city (absent =
default city); admin ops `cities`, `city_load` and `city_unload`
manage tenants — `atsq cities` is their CLI front end, and `loadgen
--cities DIR` round-robins requests across cities, verifying each
against that city's own dataset.";

/// Entry point shared by `main` and tests.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        return Err(CliError::Usage("missing sub-command".into()));
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "generate" => commands::generate(rest, out),
        "import" => commands::import(rest, out),
        "stats" => commands::stats(rest, out),
        "query" => commands::query(rest, out),
        "index" => commands::index(rest, out),
        "bench" => commands::bench(rest, out),
        "serve" => commands::serve(rest, out),
        "loadgen" => commands::loadgen(rest, out),
        "metrics" => commands::metrics(rest, out),
        "slowlog" => commands::slowlog(rest, out),
        "cities" => commands::cities(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown sub-command `{other}`"))),
    }
}
