//! The workspace itself must lint clean — the same invariant CI's
//! `cargo run -p idf-lint -- --deny-all` gate enforces, kept here too so
//! a plain `cargo test` catches regressions without the extra step.

use idf_lint::{collect_workspace, lint_files, LintConfig};

#[test]
fn workspace_has_no_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let files = collect_workspace(&root).expect("collect workspace sources");
    assert!(
        files.len() > 50,
        "suspiciously few sources ({}) — walk broken?",
        files.len()
    );
    let findings = lint_files(&files, &LintConfig::workspace_default());
    assert!(
        findings.is_empty(),
        "workspace must lint clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The registered rule inventory — a new rule must be added here (and to
/// DESIGN.md §8) so it cannot ride in unnoticed, and a dropped rule
/// cannot vanish silently.
#[test]
fn rule_inventory_is_complete() {
    let ids: Vec<&str> = idf_lint::all_rules().iter().map(|r| r.id()).collect();
    assert_eq!(
        ids,
        vec!["raw-clock", "failpoint-registry", "instrument-routing"],
        "rule inventory drifted"
    );
    for rule in idf_lint::all_rules() {
        assert!(
            !rule.explain().is_empty(),
            "rule {} has no --explain text",
            rule.id()
        );
    }
}

/// The full workspace walk (collect + lex + all rules) must stay inside
/// the CI lint-job budget. 10s is ~20x the current debug-profile cost —
/// headroom for growth, tight enough to catch an accidentally quadratic
/// rule.
#[test]
fn workspace_walk_stays_in_budget() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let start = std::time::Instant::now();
    let files = collect_workspace(&root).expect("collect workspace sources");
    let _ = lint_files(&files, &LintConfig::workspace_default());
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "workspace walk took {elapsed:?}, budget is 10s"
    );
}
