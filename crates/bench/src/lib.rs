//! # idf-bench — benchmark harness for the Indexed DataFrame reproduction
//!
//! One module per experiment in DESIGN.md's experiment index:
//!
//! * [`fig2`] — Figure 2: SQL operators, Indexed DataFrame vs vanilla.
//! * [`fig3`] — Figure 3: SNB simple reads SQ1–SQ7, both modes.
//! * [`speedup`] — the §5 "up to 8× speed-ups" claim, swept over scale.
//! * [`memory`] — ABL-MEM: memory overhead of the indexed representation.
//! * [`recovery`] — BENCH-recovery: cold open from a checkpoint vs a
//!   full WAL replay.
//! * [`serve_bench`] — BENCH-serve: closed-loop wire-protocol load
//!   (p50/p99/p999 latency and saturation throughput vs client count).
//! * [`compact_bench`] — BENCH-compact: DML churn + background
//!   compaction (memory steady state, chain-walk p99 before/after a
//!   rewrite, lookups under the compactor, SIGKILL-during-compaction
//!   recovery vs an oracle).
//! * [`views_bench`] — BENCH-views: materialized views maintained live
//!   from the SNB update stream (view reads vs cold re-execution,
//!   maintenance lag, refresh cost).
//! * [`workload`] — shared setup: datasets, dual-mode sessions, timing.
//!
//! The `harness` binary prints the same rows/series the paper plots;
//! `cargo bench` runs the Criterion counterparts.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod compact_bench;
pub mod fig2;
pub mod fig3;
pub mod json;
pub mod memory;
pub mod meta;
pub mod recovery;
pub mod serve_bench;
pub mod speedup;
pub mod views_bench;
pub mod workload;

use std::time::Instant;

/// Milliseconds elapsed by `f`, and its output.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Median of `runs` timings of `f` (after one warm-up), in milliseconds.
pub fn median_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let _warmup = f();
    let mut times: Vec<f64> = (0..runs.max(1)).map(|_| time_ms(&mut f).0).collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The `q`-quantile (a fraction: `0.5` is the median, `0.99` the p99) of
/// ascending nanosecond samples, in µs; 0 for no samples. The rank is
/// `q · (n − 1)` rounded to the nearest sample.
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    let Some(last) = sorted_ns.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = ((last as f64 * q).round() as usize).min(last);
    sorted_ns[rank] as f64 / 1e3
}

/// A labelled (indexed vs vanilla) measurement.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Workload label (operator or query name).
    pub label: String,
    /// Indexed DataFrame median latency (ms).
    pub indexed_ms: f64,
    /// Vanilla median latency (ms).
    pub vanilla_ms: f64,
    /// Rows produced (sanity check that both modes agree).
    pub rows: usize,
}

impl Comparison {
    /// vanilla / indexed (>1 ⇒ the index wins).
    pub fn speedup(&self) -> f64 {
        self.vanilla_ms / self.indexed_ms
    }
}

impl json::ToJson for Comparison {
    fn to_json(&self) -> json::Json {
        json::Json::obj([
            ("label", json::Json::Str(self.label.clone())),
            ("indexed_ms", json::Json::Num(self.indexed_ms)),
            ("vanilla_ms", json::Json::Num(self.vanilla_ms)),
            ("rows", json::Json::Int(self.rows as i64)),
        ])
    }
}

/// Render comparisons as the harness's standard table.
pub fn render_comparisons(title: &str, rows: &[Comparison]) -> String {
    let headers = vec![
        "workload".to_string(),
        "IndexedDF [ms]".to_string(),
        "Vanilla [ms]".to_string(),
        "speedup".to_string(),
        "rows".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|c| {
            vec![
                c.label.clone(),
                format!("{:.3}", c.indexed_ms),
                format!("{:.3}", c.vanilla_ms),
                format!("{:.2}x", c.speedup()),
                c.rows.to_string(),
            ]
        })
        .collect();
    format!(
        "== {title} ==\n{}",
        idf_engine::pretty::format_table(&headers, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_robust() {
        let mut calls = 0;
        let m = median_ms(5, || {
            calls += 1;
        });
        assert!(m >= 0.0);
        assert_eq!(calls, 6, "5 runs + warmup");
    }

    #[test]
    fn percentile_takes_a_fraction() {
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        let ns: Vec<u64> = (1..=101).map(|i| i * 1_000).collect();
        assert_eq!(percentile_us(&ns, 0.0), 1.0);
        assert_eq!(percentile_us(&ns, 1.0), 101.0);
        assert_eq!(percentile_us(&ns, 0.5), 51.0);
        assert_eq!(percentile_us(&ns, 0.99), 100.0);
        assert_eq!(percentile_us(&[7_000], 0.99), 7.0);
    }

    #[test]
    fn comparison_speedup() {
        let c = Comparison {
            label: "x".into(),
            indexed_ms: 2.0,
            vanilla_ms: 10.0,
            rows: 1,
        };
        assert!((c.speedup() - 5.0).abs() < 1e-9);
        let table = render_comparisons("T", &[c]);
        assert!(table.contains("5.00x"));
    }
}
