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
