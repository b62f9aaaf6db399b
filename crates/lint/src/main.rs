//! `cargo run -p atsq-lint [-- ROOT]` — scan the workspace and exit
//! non-zero on any unwaived finding, stale allowlist entry or stale
//! hot-path entry.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // crates/lint → workspace root.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .canonicalize()
                .unwrap_or_else(|_| PathBuf::from("."))
        });
    let report = match atsq_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("atsq-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    for e in &report.stale_allows {
        println!(
            "stale-allow: lint.allow:{}: `{}|{}|{}` matched nothing — remove it",
            e.line, e.rule, e.file, e.needle
        );
    }
    for p in &report.stale_hot_paths {
        println!("stale-hot-path: `{p}` matched no scanned file — fix or remove it");
    }
    if report.is_failure() {
        eprintln!(
            "atsq-lint: {} finding(s), {} stale allowlist entr(ies), {} stale hot path(s) across {} files",
            report.findings.len(),
            report.stale_allows.len(),
            report.stale_hot_paths.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    } else {
        println!("atsq-lint: clean — {} files scanned", report.files_scanned);
        ExitCode::SUCCESS
    }
}
