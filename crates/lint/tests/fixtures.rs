//! Integration tests driving `atsq_lint::run` (and the binary) over
//! the fixture trees in `tests/fixtures/` — one positive and one
//! negative case per rule, plus the allowlist round trip.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the linter over a fixture tree. Fixtures are partial trees, so
/// each names the hot-path files it holds instead of the workspace's
/// [`atsq_lint::HOT_PATHS`], which would all read as stale.
fn lint(name: &str) -> atsq_lint::Report {
    let hot_paths: &[&str] = match name {
        "panic_hot" | "allowed" => &["crates/service/src/server.rs"],
        _ => &[],
    };
    atsq_lint::run_with(&fixture(name), hot_paths).expect("scan")
}

fn rules_of(report: &atsq_lint::Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn clean_fixture_has_no_findings() {
    let report = lint("clean");
    assert!(!report.is_failure(), "{:?}", report.findings);
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn lock_hold_fixture_flags_nested_and_io_but_not_sequential() {
    let report = lint("lock_hold");
    let rules = rules_of(&report);
    assert_eq!(rules, ["lock-hold", "lock-hold"], "{:?}", report.findings);
    assert!(report.findings[0].message.contains("second lock"));
    assert!(report.findings[1].message.contains("blocking call"));
    // `fine_sequential` drops the first guard before taking the
    // second — nothing there may be flagged.
    assert!(report
        .findings
        .iter()
        .all(|f| !f.message.contains("fine_sequential")));
}

#[test]
fn ordering_fixture_flags_missing_comment_and_seqcst() {
    let report = lint("ordering");
    let rules = rules_of(&report);
    assert_eq!(
        rules,
        ["atomics-ordering", "atomics-ordering"],
        "{:?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("lacks"));
    assert!(report.findings[1].message.contains("SeqCst"));
}

#[test]
fn panic_fixture_flags_unwrap_expect_panic_only() {
    let report = lint("panic_hot");
    let rules = rules_of(&report);
    assert_eq!(
        rules,
        ["panic-hot-path", "panic-hot-path", "panic-hot-path"],
        "{:?}",
        report.findings
    );
    // The invariant expect and the test-module unwrap pass.
    assert!(report
        .findings
        .iter()
        .all(|f| !f.message.contains("invariant")));
}

#[test]
fn coherence_fixture_flags_undocumented_multi_load() {
    let report = lint("coherence");
    let rules = rules_of(&report);
    assert_eq!(
        rules,
        ["atomic-snapshot-coherence"],
        "{:?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("2 distinct atomics"));
}

#[test]
fn condvar_wait_fixture_flags_unlooped_wait_only() {
    let report = lint("condvar_wait");
    let rules = rules_of(&report);
    assert_eq!(rules, ["condvar-wait-must-loop"], "{:?}", report.findings);
    // Only `wait_once`'s if-guarded wait is flagged; the while-looped
    // and match-in-loop waits pass.
    assert_eq!(report.findings[0].line, 11, "{:?}", report.findings);
}

#[test]
fn unsafe_safety_fixture_flags_uncommented_sites_only() {
    let report = lint("unsafe_safety");
    let rules = rules_of(&report);
    assert_eq!(
        rules,
        ["unsafe-needs-safety-comment", "unsafe-needs-safety-comment"],
        "{:?}",
        report.findings
    );
    // The SAFETY-commented block and the `unsafe_code` attribute pass.
    assert!(report
        .findings
        .iter()
        .all(|f| !f.message.contains("deny") && !f.message.contains("SAFETY: callers")));
}

#[test]
fn allowlist_waives_findings() {
    let report = lint("allowed");
    assert!(
        !report.is_failure(),
        "waived finding resurfaced: {:?} / stale {:?}",
        report.findings,
        report.stale_allows
    );
}

#[test]
fn stale_allowlist_entry_fails_the_run() {
    let report = lint("stale_allow");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.stale_allows.len(), 1);
    assert_eq!(report.stale_allows[0].rule, "panic-hot-path");
    assert!(report.is_failure());
}

#[test]
fn stale_hot_path_entry_fails_the_run() {
    let gone = "crates/core/src/batch.rs";
    let report = atsq_lint::run_with(
        &fixture("panic_hot"),
        &["crates/service/src/server.rs", gone],
    )
    .expect("scan");
    assert_eq!(report.stale_hot_paths, [gone]);
    assert!(report.stale_allows.is_empty());
    assert!(report.is_failure());
}

#[test]
fn binary_exit_codes_match_report_status() {
    let bin = env!("CARGO_BIN_EXE_atsq-lint");
    // The binary lints against the workspace's own hot paths, so only
    // the workspace itself (the default root) can scan clean.
    let ok = std::process::Command::new(bin)
        .output()
        .expect("run atsq-lint");
    assert!(ok.status.success(), "{ok:?}");
    let bad = std::process::Command::new(bin)
        .arg(fixture("ordering"))
        .output()
        .expect("run atsq-lint");
    assert!(!bad.status.success());
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("atomics-ordering"), "{stdout}");
    let stale = std::process::Command::new(bin)
        .arg(fixture("stale_allow"))
        .output()
        .expect("run atsq-lint");
    assert!(!stale.status.success());
    let stdout = String::from_utf8_lossy(&stale.stdout);
    assert!(stdout.contains("stale-allow"), "{stdout}");
    let stale_hot = std::process::Command::new(bin)
        .arg(fixture("clean"))
        .output()
        .expect("run atsq-lint");
    assert!(!stale_hot.status.success());
    let stdout = String::from_utf8_lossy(&stale_hot.stdout);
    assert!(stdout.contains("stale-hot-path"), "{stdout}");
}

/// The real workspace must scan clean with its committed allowlist —
/// the same invariant CI enforces, checked here so plain `cargo test`
/// catches regressions too.
#[test]
fn workspace_scans_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = atsq_lint::run(&root).expect("scan workspace");
    let msgs: Vec<String> = report
        .findings
        .iter()
        .map(|f| f.to_string())
        .chain(
            report
                .stale_allows
                .iter()
                .map(|e| format!("stale lint.allow:{}", e.line)),
        )
        .chain(
            report
                .stale_hot_paths
                .iter()
                .map(|p| format!("stale hot path {p}")),
        )
        .collect();
    assert!(!report.is_failure(), "{}", msgs.join("\n"));
}
