//! `idf-lint`: the workspace invariant checker.
//!
//! PRs 1–3 introduced correctness-by-convention rules that nothing
//! machine-checked: every `unsafe` site must justify itself, hot paths
//! must not panic, probe-path clock reads must be `Sampler`-gated,
//! failpoint names must stay unique and referenced by const, and every
//! physical operator must route its output through
//! `TaskContext::instrument`. This crate enforces those as
//! named, suppressable rules over a hand-rolled token stream (the
//! workspace builds offline, so `syn` is unavailable — see [`lexer`]).
//!
//! Suppression syntax (inside any comment):
//!
//! ```text
//! // idf-lint: allow(rule-id, other-rule) -- justification
//! // idf-lint: allow-file(rule-id)
//! ```
//!
//! The attribute-flavored spelling `idf_lint::allow(rule-id)` is accepted
//! as a synonym. A line suppression covers the comment's own lines and
//! the first code line after it; `allow-file` covers the whole file.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod lexer;
pub mod rules;

use lexer::{Lexed, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

/// One lint finding, pointing at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (e.g. `safety-comment`).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// Render the finding as a JSON object (hand-rolled: no deps).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(self.rule),
            json_escape(&self.file),
            self.line,
            json_escape(&self.message)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Per-file suppression state parsed from comments.
#[derive(Debug, Default)]
pub struct Suppressions {
    /// Rules allowed for the entire file.
    file_allow: BTreeSet<String>,
    /// Rule → set of lines on which findings are suppressed.
    line_allow: BTreeMap<String, BTreeSet<u32>>,
}

impl Suppressions {
    /// True when a finding for `rule` at `line` is suppressed.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.file_allow.contains(rule)
            || self
                .line_allow
                .get(rule)
                .is_some_and(|lines| lines.contains(&line))
    }

    fn parse(lexed: &Lexed) -> Self {
        let mut out = Self::default();
        for c in &lexed.comments {
            for (directive, rules) in parse_directives(&c.text) {
                for rule in rules {
                    match directive {
                        Directive::Allow => {
                            let lines = out.line_allow.entry(rule).or_default();
                            // Cover the comment's own lines plus the first
                            // code line after it (comment-above style).
                            for l in c.line_start..=c.line_end + 1 {
                                lines.insert(l);
                            }
                        }
                        Directive::AllowFile => {
                            out.file_allow.insert(rule);
                        }
                    }
                }
            }
        }
        out
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Directive {
    Allow,
    AllowFile,
}

/// Extract `allow(...)` / `allow-file(...)` directives from comment text.
fn parse_directives(text: &str) -> Vec<(Directive, Vec<String>)> {
    let mut out = Vec::new();
    for marker in ["idf-lint:", "idf_lint::"] {
        let mut rest = text;
        while let Some(pos) = rest.find(marker) {
            let after = &rest[pos + marker.len()..];
            let trimmed = after.trim_start();
            let directive = if trimmed.starts_with("allow-file") {
                Some(Directive::AllowFile)
            } else if trimmed.starts_with("allow") {
                Some(Directive::Allow)
            } else {
                None
            };
            if let Some(directive) = directive {
                if let Some(open) = trimmed.find('(') {
                    if let Some(close) = trimmed[open..].find(')') {
                        let inner = &trimmed[open + 1..open + close];
                        let rules: Vec<String> = inner
                            .split(',')
                            .map(|r| r.trim().to_string())
                            .filter(|r| !r.is_empty())
                            .collect();
                        if !rules.is_empty() {
                            out.push((directive, rules));
                        }
                    }
                }
            }
            rest = &rest[pos + marker.len()..];
        }
    }
    out
}

/// One source file prepared for linting: tokens, comments, suppressions,
/// per-token test-region mask, and a line → token index map.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Lexed tokens and comments.
    pub lexed: Lexed,
    /// Parsed suppression directives.
    pub suppress: Suppressions,
    /// `test_mask[i]` is true when token `i` sits inside a `#[cfg(test)]`
    /// module or `#[test]` function body.
    pub test_mask: Vec<bool>,
    line_tokens: BTreeMap<u32, Vec<usize>>,
}

impl SourceFile {
    /// Lex and prepare `src` found at workspace-relative `path`.
    pub fn new(path: String, src: &str) -> Self {
        let lexed = lexer::lex(src);
        let suppress = Suppressions::parse(&lexed);
        let test_mask = compute_test_mask(&lexed.toks);
        let mut line_tokens: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, t) in lexed.toks.iter().enumerate() {
            line_tokens.entry(t.line).or_default().push(i);
        }
        Self {
            path,
            lexed,
            suppress,
            test_mask,
            line_tokens,
        }
    }

    /// Code tokens (by index into `lexed.toks`) on `line`, in order.
    pub fn tokens_on(&self, line: u32) -> &[usize] {
        self.line_tokens.get(&line).map_or(&[], Vec::as_slice)
    }

    /// True when any comment covering `line` contains `needle`.
    pub fn comment_on_line_contains(&self, line: u32, needle: &str) -> bool {
        self.lexed
            .comments_on(line)
            .any(|c| c.text.contains(needle))
    }

    /// True when this path is a test source (integration tests, benches,
    /// examples) as opposed to shipped library code.
    pub fn is_test_path(&self) -> bool {
        self.path.contains("/tests/")
            || self.path.contains("/benches/")
            || self.path.contains("/examples/")
            || self.path.starts_with("examples/")
    }

    /// Convenience: the token at `idx`.
    pub fn tok(&self, idx: usize) -> &Tok {
        &self.lexed.toks[idx]
    }
}

/// Brace-match `#[cfg(test)] mod`/`#[test] fn` regions into a token mask.
fn compute_test_mask(toks: &[Tok]) -> Vec<bool> {
    let n = toks.len();
    let mut mask = vec![false; n];
    let mut i = 0usize;
    while i < n {
        // Attribute: `#` `[` ... `]`.
        if toks[i].kind == TokKind::Punct && toks[i].text == "#" {
            let Some(open) = toks.get(i + 1) else {
                break;
            };
            if open.kind == TokKind::Punct && open.text == "[" {
                let mut depth = 1usize;
                let mut j = i + 2;
                let mut saw_test = false;
                let mut first_ident: Option<&str> = None;
                while j < n && depth > 0 {
                    match (&toks[j].kind, toks[j].text.as_str()) {
                        (TokKind::Punct, "[") => depth += 1,
                        (TokKind::Punct, "]") => depth -= 1,
                        (TokKind::Ident, id) => {
                            if first_ident.is_none() {
                                first_ident = Some(id);
                            }
                            if id == "test" {
                                saw_test = true;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                // `#[test]` or `#[cfg(… test …)]` (covers cfg(all(test, …)));
                // `#[cfg_attr(…)]` never marks a region even if it names test.
                let marks = saw_test
                    && matches!(first_ident, Some("test") | Some("cfg"))
                    && first_ident != Some("cfg_attr");
                if marks {
                    // Find the body open brace after the item header and
                    // brace-match it; `mod name;` (no body) marks nothing.
                    let mut k = j;
                    let mut found = None;
                    while k < n {
                        match (&toks[k].kind, toks[k].text.as_str()) {
                            (TokKind::Punct, "{") => {
                                found = Some(k);
                                break;
                            }
                            (TokKind::Punct, ";") => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    if let Some(start) = found {
                        let mut depth = 1usize;
                        let mut e = start + 1;
                        while e < n && depth > 0 {
                            match (&toks[e].kind, toks[e].text.as_str()) {
                                (TokKind::Punct, "{") => depth += 1,
                                (TokKind::Punct, "}") => depth -= 1,
                                _ => {}
                            }
                            e += 1;
                        }
                        for m in mask.iter_mut().take(e).skip(i) {
                            *m = true;
                        }
                        i = e;
                        continue;
                    }
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// A named lint rule over the prepared file set.
pub trait Rule {
    /// Stable identifier used in findings and suppressions.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Multi-line rationale + allow syntax for `--explain <rule>`.
    /// DESIGN.md §8 carries the same contract text.
    fn explain(&self) -> &'static str {
        self.describe()
    }
    /// Append findings for `files` to `out`.
    fn check(&self, files: &[SourceFile], cfg: &LintConfig, out: &mut Vec<Finding>);
}

/// Scopes and site lists consumed by the rules.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path prefixes whose non-test code must not panic (rule
    /// `hot-path-panic`).
    pub hot_path_prefixes: Vec<&'static str>,
    /// Files (within the hot-path scope) where panicking slice indexing
    /// is also flagged — the binary row decode paths.
    pub index_check_files: Vec<&'static str>,
    /// Path prefixes where raw clock reads are flagged (rule `raw-clock`).
    pub clock_prefixes: Vec<&'static str>,
    /// Path prefix of the failpoint crate itself (its internals may pass
    /// raw strings to `eval`, and its `sites!` examples declare no real
    /// site).
    pub fail_crate_prefix: &'static str,
    /// Path prefix of the physical operators (rule `instrument-routing`).
    pub physical_prefix: &'static str,
    /// Crate `src/` prefixes whose lock guards must not span blocking
    /// calls (rule `blocking-under-lock`) — the serving hot paths.
    pub blocking_lock_prefixes: Vec<&'static str>,
    /// Prefixes where `Ordering::Relaxed` is acceptable without a
    /// per-site justification (rule `atomics-audit`) — counters and
    /// metrics modules whose loads never justify other reads.
    pub relaxed_ok_prefixes: Vec<&'static str>,
    /// `(file, enum)` pairs whose discriminants are wire-protocol codes
    /// (rule `wire-error-codes`).
    pub wire_enums: Vec<(&'static str, &'static str)>,
}

impl LintConfig {
    /// The scopes for this workspace.
    pub fn workspace_default() -> Self {
        Self {
            hot_path_prefixes: vec![
                "crates/ctrie/src/",
                "crates/core/src/batch.rs",
                "crates/core/src/layout.rs",
                "crates/core/src/partition.rs",
                "crates/core/src/pointer.rs",
                "crates/core/src/table.rs",
                "crates/engine/src/physical/",
            ],
            index_check_files: vec!["crates/core/src/batch.rs", "crates/core/src/layout.rs"],
            clock_prefixes: vec!["crates/core/src/", "crates/ctrie/src/"],
            fail_crate_prefix: "crates/fail/",
            physical_prefix: "crates/engine/src/physical/",
            blocking_lock_prefixes: vec![
                "crates/ctrie/src/",
                "crates/core/src/",
                "crates/serve/src/",
                "crates/durable/src/",
                "crates/views/src/",
                "crates/compact/src/",
            ],
            relaxed_ok_prefixes: vec![
                "crates/obs/src/",
                "crates/bench/src/",
                // The repo benchmark: tallies of a measurement harness,
                // like crates/bench (and not editable by a change that
                // claims a gain).
                "benchmark/src/",
                "crates/engine/src/physical/metrics.rs",
            ],
            wire_enums: vec![("crates/serve/src/wire.rs", "ErrorCode")],
        }
    }
}

/// All rules, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(rules::safety_comment::SafetyComment),
        Box::new(rules::hot_path_panic::HotPathPanic),
        Box::new(rules::raw_clock::RawClock),
        Box::new(rules::failpoint_registry::FailpointRegistry),
        Box::new(rules::instrument_routing::InstrumentRouting),
        Box::new(rules::lock_order::LockOrder),
        Box::new(rules::blocking_under_lock::BlockingUnderLock),
        Box::new(rules::condvar_discipline::CondvarDiscipline),
        Box::new(rules::atomics_audit::AtomicsAudit),
        Box::new(rules::wire_error_codes::WireErrorCodes),
    ]
}

/// Lint an in-memory file set. `files` holds `(workspace-relative path,
/// source)` pairs; paths select which rules/scopes apply, which lets the
/// fixture tests masquerade as workspace files.
pub fn lint_files(files: &[(String, String)], cfg: &LintConfig) -> Vec<Finding> {
    lint_files_filtered(files, cfg, None)
}

/// [`lint_files`] restricted to a subset of rule ids (`None` = all).
pub fn lint_files_filtered(
    files: &[(String, String)],
    cfg: &LintConfig,
    only: Option<&[String]>,
) -> Vec<Finding> {
    let prepared: Vec<SourceFile> = files
        .iter()
        .map(|(p, s)| SourceFile::new(p.clone(), s))
        .collect();
    let mut raw = Vec::new();
    for rule in all_rules() {
        if let Some(ids) = only {
            if !ids.iter().any(|i| i == rule.id()) {
                continue;
            }
        }
        rule.check(&prepared, cfg, &mut raw);
    }
    // Apply suppressions, then sort for stable output.
    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            let Some(sf) = prepared.iter().find(|sf| sf.path == f.file) else {
                return true;
            };
            !sf.suppress.covers(f.rule, f.line)
        })
        .collect();
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out.dedup();
    out
}

/// Recursively collect workspace `.rs` sources under `root`, skipping
/// build output, VCS metadata, and the lint fixture corpus (which seeds
/// intentional violations).
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&path)?;
            out.push((rel, src));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_directives_parse() {
        let lexed = lexer::lex(
            "// idf-lint: allow(hot-path-panic, raw-clock) -- why\nlet x = 1;\n\
             // idf-lint: allow-file(safety-comment)\n",
        );
        let s = Suppressions::parse(&lexed);
        assert!(s.covers("hot-path-panic", 1));
        assert!(s.covers("hot-path-panic", 2));
        assert!(!s.covers("hot-path-panic", 3));
        assert!(s.covers("raw-clock", 2));
        assert!(s.covers("safety-comment", 999));
    }

    #[test]
    fn attribute_flavored_suppression_parses() {
        let lexed = lexer::lex("// idf_lint::allow(raw-clock)\nfn f() {}\n");
        let s = Suppressions::parse(&lexed);
        assert!(s.covers("raw-clock", 2));
    }

    #[test]
    fn test_mask_covers_cfg_test_mod_and_test_fn() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n\
                   #[test]\nfn t() { y.unwrap(); }\n\
                   #[cfg(all(test, feature = \"x\"))]\nmod more { }\n";
        let sf = SourceFile::new("a.rs".into(), src);
        let masked: Vec<&str> = sf
            .lexed
            .toks
            .iter()
            .zip(&sf.test_mask)
            .filter(|(_, m)| **m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"helper"));
        assert!(masked.contains(&"t"));
        assert!(masked.contains(&"more"));
        assert!(!masked.contains(&"live"));
    }

    #[test]
    fn cfg_attr_miri_does_not_mask() {
        let src = "#[cfg_attr(miri, ignore)]\nfn not_a_test_region() { x.unwrap(); }\n";
        let sf = SourceFile::new("a.rs".into(), src);
        assert!(sf.test_mask.iter().all(|m| !m));
    }

    #[test]
    fn finding_json_escapes() {
        let f = Finding {
            rule: "safety-comment",
            file: "a\"b.rs".into(),
            line: 3,
            message: "x\ny".into(),
        };
        assert_eq!(
            f.to_json(),
            "{\"rule\":\"safety-comment\",\"file\":\"a\\\"b.rs\",\"line\":3,\"message\":\"x\\ny\"}"
        );
    }
}
