//! Rule `atomics-audit`: every memory-ordering choice is either in an
//! allowlisted counters/metrics module or carries a justification.
//!
//! `Ordering::Relaxed` provides no synchronization — correct for
//! monotonic counters that only feed metrics, wrong the moment a load
//! is used to justify reading other memory. `Ordering::SeqCst` on a
//! hot path buys a full fence nobody may need and hides the actual
//! protocol (TSan reports on the cTrie root cell almost always trace
//! back to a weakened or over-strong ordering — see DESIGN.md §8).
//! This rule surfaces both the way `safety-comment` surfaces `unsafe`:
//! each site is allowlisted by module, or carries an inline allow with
//! a one-line why.

use crate::{Finding, LintConfig, Rule, SourceFile, TokKind};

/// See module docs.
pub struct AtomicsAudit;

const ID: &str = "atomics-audit";

/// `--explain` text; DESIGN.md §8 carries the same contract.
pub const EXPLAIN: &str = "\
Two checks over every `Ordering::` token in non-test code:\n\
\n\
1. `Ordering::Relaxed` is only allowed in the counters/metrics modules\n\
   (`relaxed_ok_prefixes`: obs, bench, the repo benchmark, the\n\
   physical-operator metrics file). Anywhere else each site needs\n\
   `// idf-lint: allow(atomics-audit) -- why unordered is safe`\n\
   (e.g. a monotonic ID counter, or a single-writer length published\n\
   with a Release store elsewhere).\n\
2. `Ordering::SeqCst` on the hot paths (`hot_path_prefixes`: ctrie,\n\
   core storage files, physical operators) needs the same treatment —\n\
   the allow states why acquire/release is insufficient (e.g. the\n\
   GCAS/RDCSS protocol needs a total store order across three cells).\n\
\n\
The point is the inventory: `grep 'allow(atomics-audit)'` lists every\n\
deliberate ordering decision with its rationale.";

impl Rule for AtomicsAudit {
    fn id(&self) -> &'static str {
        ID
    }

    fn describe(&self) -> &'static str {
        "Relaxed only in counters/metrics modules; SeqCst on hot paths needs a justification"
    }

    fn explain(&self) -> &'static str {
        EXPLAIN
    }

    fn check(&self, files: &[SourceFile], cfg: &LintConfig, out: &mut Vec<Finding>) {
        for sf in files {
            if sf.is_test_path() {
                continue;
            }
            let relaxed_ok = cfg
                .relaxed_ok_prefixes
                .iter()
                .any(|p| sf.path.starts_with(p));
            let hot = cfg.hot_path_prefixes.iter().any(|p| sf.path.starts_with(p));
            if relaxed_ok && !hot {
                continue;
            }
            let toks = &sf.lexed.toks;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Ident || sf.test_mask[i] {
                    continue;
                }
                // Match `Ordering :: Relaxed` / `Ordering :: SeqCst`.
                let qualified = i >= 3
                    && toks[i - 1].text == ":"
                    && toks[i - 2].text == ":"
                    && toks[i - 3].kind == TokKind::Ident
                    && toks[i - 3].text == "Ordering";
                if !qualified {
                    continue;
                }
                match t.text.as_str() {
                    "Relaxed" if !relaxed_ok => out.push(Finding {
                        rule: ID,
                        file: sf.path.clone(),
                        line: t.line,
                        message: "Ordering::Relaxed outside the counters/metrics allowlist; \
                                  use acquire/release or allow with a why stating what makes \
                                  the unordered access safe"
                            .to_string(),
                    }),
                    "SeqCst" if hot => out.push(Finding {
                        rule: ID,
                        file: sf.path.clone(),
                        line: t.line,
                        message: "Ordering::SeqCst on a hot path; prefer acquire/release or \
                                  allow with a why stating what needs the total order"
                            .to_string(),
                    }),
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_files, LintConfig};

    fn run_at(path: &str, src: &str) -> Vec<Finding> {
        let files = vec![(path.to_string(), src.to_string())];
        lint_files(&files, &LintConfig::workspace_default())
            .into_iter()
            .filter(|f| f.rule == ID)
            .collect()
    }

    #[test]
    fn relaxed_in_metrics_module_passes() {
        assert!(run_at(
            "crates/obs/src/counter.rs",
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n"
        )
        .is_empty());
    }

    #[test]
    fn relaxed_elsewhere_is_flagged() {
        let f = run_at(
            "crates/durable/src/wal.rs",
            "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("Relaxed"));
    }

    #[test]
    fn seqcst_on_hot_path_is_flagged() {
        let f = run_at(
            "crates/ctrie/src/trie.rs",
            "fn f(c: &AtomicUsize) { c.store(1, Ordering::SeqCst); }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("SeqCst"));
    }

    #[test]
    fn seqcst_off_hot_path_passes() {
        assert!(run_at(
            "crates/serve/src/server.rs",
            "fn f(c: &AtomicUsize) { c.store(1, Ordering::SeqCst); }\n"
        )
        .is_empty());
    }

    #[test]
    fn acquire_release_pass_everywhere() {
        assert!(run_at(
            "crates/ctrie/src/node.rs",
            "fn f(c: &AtomicUsize) { c.load(Ordering::Acquire); c.store(1, Ordering::Release); }\n"
        )
        .is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        assert!(run_at(
            "crates/durable/src/wal.rs",
            "#[cfg(test)]\nmod tests {\n fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n}\n"
        )
        .is_empty());
        assert!(run_at(
            "crates/durable/tests/chaos.rs",
            "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n"
        )
        .is_empty());
    }

    #[test]
    fn allow_with_why_suppresses() {
        assert!(run_at(
            "crates/durable/src/wal.rs",
            "fn f(c: &AtomicU64) {\n\
             // idf-lint: allow(atomics-audit) -- monotonic stat counter, metrics only\n\
             c.fetch_add(1, Ordering::Relaxed);\n\
             }\n"
        )
        .is_empty());
    }
}
