//! Lock-minimal observability core for the indexed-dataframe engine.
//!
//! The crate provides four primitives — [`Counter`] (sharded atomic,
//! exact totals), [`Gauge`] (signed level / high-water mark),
//! [`Histogram`] (fixed log2-bucket latency histogram with monotone
//! p50/p95/p99 readout) and [`SlowQueryLog`] (bounded ring buffer) —
//! plus a process-global [`MetricsRegistry`] that owns one well-known
//! instance of each engine metric and renders them all as Prometheus
//! text exposition.
//!
//! Everything is behind the default-on `obs` feature. Each type has one
//! definition; the feature gates only its storage and method bodies, so
//! with it disabled (`--no-default-features`) the same API exists but
//! the primitives are zero-sized, every mutator is an empty inlined body
//! and every readout returns zero — callers never need `#[cfg]` guards.
//!
//! # Example
//!
//! ```
//! let m = idf_obs::global();
//! m.probe_hits.inc();
//! m.chain_walk.record(3);
//! let text = m.prometheus();
//! if idf_obs::enabled() {
//!     assert!(text.contains("idf_index_probe_hits_total"));
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// With `obs` off the gated bodies leave their parameters, imports and
// helpers unused by construction.
#![cfg_attr(
    not(feature = "obs"),
    allow(unused_variables, unused_imports, dead_code)
)]

/// `true` when the `obs` feature is compiled in. Callers may use this to
/// skip *argument computation* (e.g. reading a clock) that would
/// otherwise be paid even though the recording itself is a no-op.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

/// How a tracked query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Ran to completion and returned rows (or an empty result).
    Finished,
    /// Stopped by explicit cancellation or a deadline.
    Cancelled,
    /// Stopped by any other error.
    Failed,
}

impl QueryOutcome {
    /// Stable lowercase label used in logs and exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryOutcome::Finished => "finished",
            QueryOutcome::Cancelled => "cancelled",
            QueryOutcome::Failed => "failed",
        }
    }
}

/// One recorded slow query.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// Monotonically increasing sequence number (process-wide).
    pub seq: u64,
    /// Human-readable description — the SQL text or plan root.
    pub label: String,
    /// End-to-end wall time in nanoseconds.
    pub elapsed_ns: u64,
    /// How the query ended.
    pub outcome: QueryOutcome,
}

/// Point-in-time percentile readout of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// 50th percentile (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

mod counter;
mod histogram;
mod registry;
mod sampler;

pub use counter::{Counter, Gauge};
pub use histogram::Histogram;
pub use registry::{global, MetricsRegistry, SlowQueryLog, SLOW_LOG_CAPACITY, SLOW_LOG_LABEL_MAX};
pub use sampler::{Sampler, SAMPLE_PERIOD};

/// `Default` is `new()` for every metric type (`new` is `const`, so the
/// global registry can be a plain `static`).
macro_rules! default_is_new {
    ($($ty:ty),+) => {$(
        impl Default for $ty {
            fn default() -> Self {
                Self::new()
            }
        }
    )+};
}
default_is_new!(
    Counter,
    Gauge,
    Histogram,
    Sampler,
    SlowQueryLog,
    MetricsRegistry
);
