//! Rule `failpoint-registry`: failpoint site names stay unique across
//! the workspace, and call sites never pass raw string literals.
//!
//! Each crate declares its sites once with `idf_fail::sites!` in its
//! `failpoints.rs`; the macro emits the named consts and the `SITES`
//! table the chaos suites iterate from the same rows, so "declared ⇔
//! registered" holds by construction and is not checked here. What the
//! compiler cannot see, this rule checks:
//!
//! 1. no two rows (across every crate's `sites!` declaration) share a
//!    string value **or a const name** — chaos tooling and grep address
//!    sites by both;
//! 2. outside the `idf-fail` crate and test code, `eval(...)`/`check(...)`
//!    never takes a string literal — a raw name can drift from its const
//!    without any compiler help.

use crate::{Finding, LintConfig, Rule, SourceFile, TokKind};
use std::collections::BTreeMap;

/// See module docs.
pub struct FailpointRegistry;

const ID: &str = "failpoint-registry";

/// `--explain` text; DESIGN.md §8 carries the same contract.
pub const EXPLAIN: &str = "\
Each crate declares its failpoint sites once, as `NAME = \"crate::site\"`\n\
rows of an `idf_fail::sites!` invocation (crates/*/src/failpoints.rs);\n\
the macro emits the consts and the SITES table the chaos suites iterate,\n\
so a declared site is registered by construction. The rule checks what\n\
the compiler cannot see. Across ALL declarations: no two rows share a\n\
string value or a const name — chaos tooling addresses sites by both,\n\
and a collision silently halves coverage. Call sites outside the fail\n\
crate and tests must pass consts, never raw string literals. Suppress a\n\
deliberate exception with `// idf-lint: allow(failpoint-registry) -- why`.";

/// One `NAME = "value"` row of a `sites!` declaration.
struct Site<'a> {
    name: &'a str,
    value: &'a str,
    file: &'a str,
    line: u32,
}

impl Rule for FailpointRegistry {
    fn id(&self) -> &'static str {
        ID
    }

    fn describe(&self) -> &'static str {
        "failpoint site names and values unique across crates; no raw string literals at call sites"
    }

    fn explain(&self) -> &'static str {
        EXPLAIN
    }

    fn check(&self, files: &[SourceFile], cfg: &LintConfig, out: &mut Vec<Finding>) {
        let shipped =
            |sf: &&SourceFile| !sf.path.starts_with(cfg.fail_crate_prefix) && !sf.is_test_path();
        // The cross-crate site inventory, in file order.
        let mut sites: Vec<Site<'_>> = Vec::new();
        for sf in files.iter().filter(shipped) {
            declared_sites(sf, &mut sites);
        }
        let mut by_value: BTreeMap<&str, &Site<'_>> = BTreeMap::new();
        let mut by_name: BTreeMap<&str, &Site<'_>> = BTreeMap::new();
        for site in &sites {
            if let Some(first) = by_value.get(site.value) {
                out.push(Finding {
                    rule: ID,
                    file: site.file.to_string(),
                    line: site.line,
                    message: format!(
                        "duplicate failpoint name \"{}\" (first declared in {}:{})",
                        site.value, first.file, first.line
                    ),
                });
            } else {
                by_value.insert(site.value, site);
            }
            // `failpoints::X` in two crates is legal Rust but ambiguous
            // to grep and chaos tooling.
            if let Some(first) = by_name.get(site.name) {
                out.push(Finding {
                    rule: ID,
                    file: site.file.to_string(),
                    line: site.line,
                    message: format!(
                        "site const name {} is declared more than once (also {}:{}); \
                         const names must be unique across all sites! declarations",
                        site.name, first.file, first.line
                    ),
                });
            } else {
                by_name.insert(site.name, site);
            }
        }
        for sf in files.iter().filter(shipped) {
            check_call_sites(sf, out);
        }
    }
}

/// Collect the `NAME = "value"` rows of every `sites! { … }` invocation
/// in `sf` (outside test regions).
fn declared_sites<'a>(sf: &'a SourceFile, out: &mut Vec<Site<'a>>) {
    let toks = &sf.lexed.toks;
    let is = |i: usize, text: &str| toks.get(i).is_some_and(|t| t.text == text);
    let mut i = 0usize;
    while i < toks.len() {
        let opens = toks[i].kind == TokKind::Ident
            && toks[i].text == "sites"
            && is(i + 1, "!")
            && !sf.test_mask[i];
        i += 1;
        if !opens {
            continue;
        }
        // Rows run to the delimiter that closes the invocation; a row's
        // doc comments are not tokens, so each is `Ident = Str`.
        let mut depth = 0usize;
        i += 1;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "{" | "(" | "[" if toks[i].kind == TokKind::Punct => depth += 1,
                "}" | ")" | "]" if toks[i].kind == TokKind::Punct => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if toks[i].kind == TokKind::Ident
                && is(i + 1, "=")
                && toks.get(i + 2).is_some_and(|v| v.kind == TokKind::Str)
            {
                out.push(Site {
                    name: &toks[i].text,
                    value: &toks[i + 2].text,
                    file: &sf.path,
                    line: toks[i].line,
                });
            }
            i += 1;
        }
    }
}

/// Flag `eval("…")` / `check("…")` with raw string-literal arguments.
fn check_call_sites(sf: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &sf.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if sf.test_mask[i] {
            continue;
        }
        if t.kind != TokKind::Ident || (t.text != "eval" && t.text != "check") {
            continue;
        }
        let open = toks.get(i + 1);
        let arg = toks.get(i + 2);
        if open.is_some_and(|o| o.kind == TokKind::Punct && o.text == "(")
            && arg.is_some_and(|a| a.kind == TokKind::Str)
        {
            let name = arg.map(|a| a.text.clone()).unwrap_or_default();
            out.push(Finding {
                rule: ID,
                file: sf.path.clone(),
                line: t.line,
                message: format!(
                    "raw failpoint name \"{name}\" at a {} call; use a named const from failpoints.rs",
                    t.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_files;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        lint_files(&files, &LintConfig::workspace_default())
            .into_iter()
            .filter(|f| f.rule == ID)
            .collect()
    }

    const GOOD: &str =
        "idf_fail::sites! {\n    /// Doc.\n    A = \"core::a\",\n    B = \"core::b\",\n}\n";

    #[test]
    fn well_formed_declarations_pass() {
        let other = "idf_fail::sites! { X = \"engine::x\" }\n";
        assert!(run(&[
            ("crates/core/src/failpoints.rs", GOOD),
            ("crates/engine/src/failpoints.rs", other),
        ])
        .is_empty());
    }

    #[test]
    fn duplicate_values_across_files_are_flagged() {
        let other = "idf_fail::sites! { X = \"core::a\" }\n";
        let f = run(&[
            ("crates/core/src/failpoints.rs", GOOD),
            ("crates/engine/src/failpoints.rs", other),
        ]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("duplicate"));
        assert_eq!(f[0].file, "crates/engine/src/failpoints.rs");
    }

    #[test]
    fn duplicate_const_names_across_declarations_are_flagged() {
        let other = "idf_fail::sites! { A = \"engine::a\" }\n";
        let f = run(&[
            ("crates/core/src/failpoints.rs", GOOD),
            ("crates/engine/src/failpoints.rs", other),
        ]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("more than once"));
        assert_eq!(f[0].file, "crates/engine/src/failpoints.rs");
    }

    #[test]
    fn the_fail_crate_and_tests_declare_no_real_sites() {
        let example = "idf_fail::sites! { A = \"core::a\" }\n";
        assert!(run(&[
            ("crates/core/src/failpoints.rs", GOOD),
            ("crates/fail/src/lib.rs", example),
            ("crates/core/tests/chaos.rs", example),
        ])
        .is_empty());
    }

    #[test]
    fn raw_literal_call_site_is_flagged() {
        let f = run(&[(
            "crates/core/src/partition.rs",
            "fn f() { failpoints::check(\"core::probe::partition\")?; }",
        )]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn const_call_site_and_tests_are_fine() {
        assert!(run(&[(
            "crates/core/src/partition.rs",
            "fn f() { failpoints::check(failpoints::PARTITION_PROBE)?; }",
        )])
        .is_empty());
        assert!(run(&[(
            "crates/core/tests/chaos.rs",
            "fn f() { idf_fail::eval(\"core::a\").unwrap(); }",
        )])
        .is_empty());
    }
}
