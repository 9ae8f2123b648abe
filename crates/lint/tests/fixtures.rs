//! Fixture-corpus self-test: every rule has a seeded-violation fixture
//! (asserted down to exact rule ids and line numbers) and a suppressed
//! twin that must lint clean — proving both the detector and the
//! suppression mechanism work end to end.
//!
//! Fixture sources live under `tests/fixtures/` (a directory name
//! [`collect_workspace`](idf_lint::collect_workspace) skips, so the
//! seeded violations never pollute the workspace run). Each fixture is
//! linted under a synthetic workspace path so the path-scoped rules
//! apply to it.

use idf_lint::{lint_files, Finding, LintConfig};

/// Lint fixture files, each masqueraded under the given workspace path.
fn lint(mapped: &[(&str, &str)]) -> Vec<Finding> {
    let files: Vec<(String, String)> = mapped
        .iter()
        .map(|(path, fixture)| {
            let on_disk = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/fixtures")
                .join(fixture);
            let src = std::fs::read_to_string(&on_disk)
                .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", on_disk.display()));
            (path.to_string(), src)
        })
        .collect();
    lint_files(&files, &LintConfig::workspace_default())
}

/// `(rule, line)` of every finding, for exact-match assertions.
fn keys(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn safety_comment_fixture() {
    let bad = lint(&[("crates/snb/src/fixture.rs", "safety_comment_bad.rs")]);
    assert_eq!(
        keys(&bad),
        vec![
            ("safety-comment", 5),  // unsafe block
            ("safety-comment", 8),  // unsafe impl
            ("safety-comment", 10), // unsafe fn
        ],
        "{bad:#?}"
    );
    assert!(bad[0].message.contains("unsafe block"));
    assert!(bad[1].message.contains("unsafe impl"));
    assert!(bad[2].message.contains("unsafe fn"));

    let ok = lint(&[("crates/snb/src/fixture.rs", "safety_comment_suppressed.rs")]);
    assert!(ok.is_empty(), "allow-file must silence all three: {ok:#?}");
}

#[test]
fn hot_path_panic_fixture() {
    let bad = lint(&[("crates/core/src/layout.rs", "hot_path_panic_bad.rs")]);
    assert_eq!(
        keys(&bad),
        vec![
            ("hot-path-panic", 5), // p[0] indexing in a decode file
            ("hot-path-panic", 6), // .unwrap()
            ("hot-path-panic", 8), // panic!
        ],
        "{bad:#?}"
    );

    let ok = lint(&[("crates/core/src/layout.rs", "hot_path_panic_suppressed.rs")]);
    assert!(ok.is_empty(), "inline allows must silence: {ok:#?}");
}

#[test]
fn raw_clock_fixture() {
    let bad = lint(&[("crates/core/src/probe_timer.rs", "raw_clock_bad.rs")]);
    assert_eq!(keys(&bad), vec![("raw-clock", 5)], "{bad:#?}");
    assert!(bad[0].message.contains("Instant::now()"));

    let ok = lint(&[("crates/core/src/probe_timer.rs", "raw_clock_suppressed.rs")]);
    assert!(
        ok.is_empty(),
        "tick-gated and allow-annotated reads must pass: {ok:#?}"
    );
}

#[test]
fn failpoint_registry_fixture() {
    let bad = lint(&[("crates/core/src/failpoints.rs", "failpoint_registry_bad.rs")]);
    assert_eq!(
        keys(&bad),
        vec![
            ("failpoint-registry", 6),  // REPROBE reuses "fx::probe"
            ("failpoint-registry", 10), // eval("…") with a raw literal
        ],
        "{bad:#?}"
    );
    assert!(bad[0].message.contains("duplicate"));
    assert!(bad[1].message.contains("raw failpoint name"));

    let ok = lint(&[(
        "crates/core/src/failpoints.rs",
        "failpoint_registry_suppressed.rs",
    )]);
    assert!(ok.is_empty(), "line allows above each must pass: {ok:#?}");
}

#[test]
fn instrument_routing_fixture() {
    let bad = lint(&[(
        "crates/engine/src/physical/fixture.rs",
        "instrument_routing_bad.rs",
    )]);
    assert_eq!(keys(&bad), vec![("instrument-routing", 5)], "{bad:#?}");
    assert!(bad[0].message.contains("RogueExec"));

    let ok = lint(&[(
        "crates/engine/src/physical/fixture.rs",
        "instrument_routing_suppressed.rs",
    )]);
    assert!(ok.is_empty(), "allow above execute must pass: {ok:#?}");
}

#[test]
fn lock_order_fixture() {
    let bad = lint(&[("crates/fixcrate/src/fixture.rs", "lock_order_bad.rs")]);
    assert_eq!(
        keys(&bad),
        vec![
            ("lock-order", 18), // edge a -> b with no manifest
            ("lock-order", 18), // cycle a -> b -> a, reported at the first edge
            ("lock-order", 25), // edge b -> a with no manifest
        ],
        "{bad:#?}"
    );
    assert!(bad
        .iter()
        .any(|f| f.message.contains("no LOCK_ORDER manifest")));
    assert!(bad.iter().any(|f| f.message.contains("cycle")));

    let ok = lint(&[("crates/fixcrate/src/fixture.rs", "lock_order_suppressed.rs")]);
    assert!(ok.is_empty(), "manifest + inline allows must pass: {ok:#?}");
}

#[test]
fn blocking_under_lock_fixture() {
    let bad = lint(&[("crates/core/src/fixture.rs", "blocking_under_lock_bad.rs")]);
    assert_eq!(
        keys(&bad),
        vec![
            ("blocking-under-lock", 16), // sync_all under 'state'
            ("blocking-under-lock", 17), // join under 'state'
        ],
        "{bad:#?}"
    );
    assert!(bad[0].message.contains("sync_all"));
    assert!(bad[1].message.contains("join"));

    let ok = lint(&[(
        "crates/core/src/fixture.rs",
        "blocking_under_lock_suppressed.rs",
    )]);
    assert!(ok.is_empty(), "inline allows must pass: {ok:#?}");
}

#[test]
fn condvar_discipline_fixture() {
    let bad = lint(&[(
        "crates/fixcrate/src/fixture.rs",
        "condvar_discipline_bad.rs",
    )]);
    assert_eq!(
        keys(&bad),
        vec![
            ("condvar-discipline", 17), // wait outside a loop
            ("condvar-discipline", 21), // notify with no lock held
        ],
        "{bad:#?}"
    );
    assert!(bad[0].message.contains("re-check"));
    assert!(bad[1].message.contains("notify"));

    let ok = lint(&[(
        "crates/fixcrate/src/fixture.rs",
        "condvar_discipline_suppressed.rs",
    )]);
    assert!(
        ok.is_empty(),
        "loop-wait shape + notify allow must pass: {ok:#?}"
    );
}

#[test]
fn atomics_audit_fixture() {
    let bad = lint(&[("crates/ctrie/src/fixture.rs", "atomics_audit_bad.rs")]);
    assert_eq!(
        keys(&bad),
        vec![
            ("atomics-audit", 7),  // Relaxed outside the allowlist
            ("atomics-audit", 11), // SeqCst on a hot path
        ],
        "{bad:#?}"
    );
    assert!(bad[0].message.contains("Relaxed"));
    assert!(bad[1].message.contains("SeqCst"));

    let ok = lint(&[("crates/ctrie/src/fixture.rs", "atomics_audit_suppressed.rs")]);
    assert!(ok.is_empty(), "inline allows must pass: {ok:#?}");
}

#[test]
fn wire_error_codes_fixture() {
    let bad = lint(&[("crates/serve/src/wire.rs", "wire_error_codes_bad.rs")]);
    assert_eq!(
        keys(&bad),
        vec![
            ("wire-error-codes", 7), // Reused = 1 duplicates Ok
            ("wire-error-codes", 8), // Gapped = 4 leaves an undocumented gap
            ("wire-error-codes", 9), // Implicit has no explicit value
        ],
        "{bad:#?}"
    );
    assert!(bad[0].message.contains("reuses"));
    assert!(bad[1].message.contains("contiguous"));
    assert!(bad[2].message.contains("implicit"));

    let ok = lint(&[("crates/serve/src/wire.rs", "wire_error_codes_suppressed.rs")]);
    assert!(ok.is_empty(), "documented gap must pass: {ok:#?}");
}
