//! Operator-level execution metrics (`EXPLAIN ANALYZE`).
//!
//! When a [`TaskContext`](crate::physical::TaskContext) carries a
//! [`MetricsRegistry`], every operator wraps its output iterator with a
//! probe that counts produced rows/chunks and accumulates the operator's
//! *self* time: wall time inside its iterator and inside its blocking work
//! ([`TaskContext::instrument_blocking`](crate::physical::TaskContext::instrument_blocking)),
//! minus the part spent in instrumented children on the same thread, summed
//! across partitions. Single-threaded, the operators' times add up to the
//! execution time; an exchange that fans its input out over threads counts
//! the wait as its own. With no registry attached the instrumentation is
//! skipped entirely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::catalog::ChunkIter;

/// Counters for one operator (aggregated over partitions).
#[derive(Debug, Default)]
pub struct OperatorMetrics {
    /// Rows produced.
    pub rows: AtomicU64,
    /// Chunks produced.
    pub chunks: AtomicU64,
    /// Estimated bytes of produced chunks.
    pub bytes: AtomicU64,
    /// Nanoseconds of self time (summed across partitions).
    pub elapsed_ns: AtomicU64,
    /// Partition executions.
    pub invocations: AtomicU64,
}

thread_local! {
    /// Time instrumented operators nested inside the span being timed on
    /// this thread have already claimed.
    static CLAIMED_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Run `work`, adding to `metrics` the time it took less what operators
/// timed inside it claimed for themselves.
pub(crate) fn timed<T>(metrics: &OperatorMetrics, work: impl FnOnce() -> T) -> T {
    let outer = CLAIMED_NS.replace(0);
    let start = Instant::now();
    let out = work();
    let total = start.elapsed().as_nanos() as u64;
    let inner = CLAIMED_NS.replace(outer + total);
    metrics
        .elapsed_ns
        .fetch_add(total.saturating_sub(inner), Ordering::Relaxed);
    out
}

/// Point-in-time snapshot of one operator's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorStats {
    /// Operator key: `"{name}: {detail}"` (or just the name).
    pub key: String,
    /// Rows produced.
    pub rows: u64,
    /// Chunks produced.
    pub chunks: u64,
    /// Estimated bytes of produced chunks.
    pub bytes: u64,
    /// Nanoseconds of self time (summed across partitions).
    pub elapsed_ns: u64,
    /// Partition executions.
    pub invocations: u64,
}

impl OperatorMetrics {
    fn stats(&self, key: &str) -> OperatorStats {
        OperatorStats {
            key: key.to_string(),
            rows: self.rows.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            elapsed_ns: self.elapsed_ns.load(Ordering::Relaxed),
            invocations: self.invocations.load(Ordering::Relaxed),
        }
    }
}

/// Registry shared by all operators of one query execution.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    ops: Mutex<HashMap<String, Arc<OperatorMetrics>>>,
}

impl MetricsRegistry {
    /// Fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics slot for operator `key`.
    pub fn operator(&self, key: &str) -> Arc<OperatorMetrics> {
        Arc::clone(self.ops.lock().entry(key.to_string()).or_default())
    }

    /// Snapshot of all operators, sorted by elapsed time descending.
    pub fn report(&self) -> Vec<OperatorStats> {
        let mut rows: Vec<OperatorStats> =
            self.ops.lock().iter().map(|(k, m)| m.stats(k)).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.elapsed_ns));
        rows
    }

    /// The stats snapshot for one operator key, if it executed.
    pub fn operator_stats(&self, key: &str) -> Option<OperatorStats> {
        self.ops.lock().get(key).map(|m| m.stats(key))
    }

    /// Render the report as an ASCII table.
    pub fn render(&self) -> String {
        let headers = vec![
            "operator".to_string(),
            "rows".to_string(),
            "chunks".to_string(),
            "bytes".to_string(),
            "time [ms]".to_string(),
            "partitions".to_string(),
        ];
        let body: Vec<Vec<String>> = self
            .report()
            .into_iter()
            .map(|s| {
                vec![
                    s.key,
                    s.rows.to_string(),
                    s.chunks.to_string(),
                    s.bytes.to_string(),
                    format!("{:.3}", s.elapsed_ns as f64 / 1e6),
                    s.invocations.to_string(),
                ]
            })
            .collect();
        crate::pretty::format_table(&headers, &body)
    }

    /// Render a physical plan tree with each node annotated by its actual
    /// execution stats (`EXPLAIN ANALYZE`). Nodes sharing a key (same
    /// name + detail) show the same aggregated counters.
    pub fn render_annotated(&self, plan: &dyn crate::physical::ExecutionPlan) -> String {
        fn rec(
            reg: &MetricsRegistry,
            plan: &dyn crate::physical::ExecutionPlan,
            out: &mut String,
            indent: usize,
        ) {
            out.push_str(&"  ".repeat(indent));
            let key = crate::physical::operator_key(plan);
            out.push_str(&key);
            match reg.operator_stats(&key) {
                Some(s) => {
                    out.push_str(&format!(
                        "  [rows={} chunks={} bytes={} time={:.3}ms partitions={}]",
                        s.rows,
                        s.chunks,
                        s.bytes,
                        s.elapsed_ns as f64 / 1e6,
                        s.invocations
                    ));
                }
                None => out.push_str("  [not executed]"),
            }
            out.push('\n');
            for c in plan.children() {
                rec(reg, c.as_ref(), out, indent + 1);
            }
        }
        let mut s = String::new();
        rec(self, plan, &mut s, 0);
        s
    }
}

/// Wrap `iter` so rows/time are attributed to `metrics`.
pub fn instrument(metrics: Arc<OperatorMetrics>, iter: ChunkIter) -> ChunkIter {
    metrics.invocations.fetch_add(1, Ordering::Relaxed);
    Box::new(InstrumentedIter {
        metrics,
        inner: iter,
    })
}

struct InstrumentedIter {
    metrics: Arc<OperatorMetrics>,
    inner: ChunkIter,
}

impl Iterator for InstrumentedIter {
    type Item = crate::error::Result<crate::chunk::Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = timed(&self.metrics, || self.inner.next());
        if let Some(Ok(chunk)) = &item {
            self.metrics
                .rows
                .fetch_add(chunk.len() as u64, Ordering::Relaxed);
            self.metrics.chunks.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .bytes
                .fetch_add(chunk.byte_size() as u64, Ordering::Relaxed);
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunk;

    #[test]
    fn counts_rows_and_time() {
        let reg = MetricsRegistry::new();
        let m = reg.operator("Scan: t");
        let chunks: Vec<crate::error::Result<Chunk>> = vec![
            Ok(Chunk::new_empty_columns(10)),
            Ok(Chunk::new_empty_columns(5)),
        ];
        let it = instrument(Arc::clone(&m), Box::new(chunks.into_iter()));
        assert_eq!(it.count(), 2);
        assert_eq!(m.rows.load(Ordering::Relaxed), 15);
        assert_eq!(m.chunks.load(Ordering::Relaxed), 2);
        assert_eq!(m.invocations.load(Ordering::Relaxed), 1);
        let report = reg.report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].rows, 15);
        assert!(reg.render().contains("Scan: t"));
    }

    #[test]
    fn same_key_aggregates() {
        let reg = MetricsRegistry::new();
        for _ in 0..3 {
            let m = reg.operator("Filter");
            let chunks: Vec<crate::error::Result<Chunk>> = vec![Ok(Chunk::new_empty_columns(1))];
            let _ = instrument(m, Box::new(chunks.into_iter())).count();
        }
        assert_eq!(
            reg.report()[0].invocations,
            3,
            "three partition invocations"
        );
        assert_eq!(reg.report()[0].rows, 3);
    }
}
