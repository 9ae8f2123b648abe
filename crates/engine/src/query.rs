//! Query lifecycle control: cooperative cancellation, deadlines, and
//! byte-accounted memory budgets.
//!
//! A [`QueryContext`] is an `Arc`-shared token attached to one logical
//! query. Execution code checks it at chunk granularity (every operator's
//! output iterator is wrapped by `physical::execute`) and charges it
//! for every buffer it materializes, so:
//!
//! - [`QueryContext::cancel`] from any thread stops the query within a
//!   bounded latency (one chunk per pipeline stage), surfacing
//!   [`EngineError::Cancelled`];
//! - a deadline set at construction surfaces
//!   [`EngineError::DeadlineExceeded`] the same way — a slow query can
//!   never hang its caller;
//! - per-query and global byte budgets surface
//!   [`EngineError::ResourceExhausted`] when a shuffle buffer, join build
//!   side, aggregation hash table, or sort buffer grows past its limit,
//!   unwinding only the offending query.
//!
//! Accounting is *conservative peak* accounting: operators charge what
//! they materialize and the total is released back to the global
//! [`MemoryGovernor`] when the `QueryContext` drops. Intermediate buffers
//! are not individually released mid-query, so the budget bounds the
//! total bytes a query may materialize, which is an upper bound on its
//! true peak residency.

// Memory accounting is approximate by design: its counters are
// independent RMWs and nothing else is published through them, so
// Relaxed cannot reorder anything that matters.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::error::{EngineError, Result};

/// Process-wide memory budget shared by every query on a session.
///
/// Queries charge it through their [`QueryContext`]; a query's total
/// charge is released when its context drops, so a finished (or failed)
/// query immediately returns its budget to concurrent ones.
#[derive(Debug)]
pub struct MemoryGovernor {
    limit: usize,
    used: AtomicUsize,
}

impl MemoryGovernor {
    /// A governor admitting at most `limit` bytes across all queries.
    pub fn new(limit: usize) -> Arc<Self> {
        Arc::new(Self {
            limit,
            used: AtomicUsize::new(0),
        })
    }

    /// The global limit in bytes.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Bytes currently charged across all live queries.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    fn try_charge(&self, bytes: usize) -> bool {
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        if prev + bytes > self.limit {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
            false
        } else {
            true
        }
    }

    fn release(&self, bytes: usize) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// Builder for a [`QueryContext`]; obtained via [`QueryContext::builder`].
#[derive(Debug, Default)]
pub struct QueryContextBuilder {
    timeout: Option<Duration>,
    memory_limit: Option<usize>,
    governor: Option<Arc<MemoryGovernor>>,
}

impl QueryContextBuilder {
    /// Stop the query with [`EngineError::DeadlineExceeded`] once `timeout`
    /// has elapsed from *execution start*, not from this call: the
    /// deadline is armed when [`QueryContext::arm_deadline`] runs (the
    /// engine calls it as execution begins, and the first
    /// [`QueryContext::check`] arms it as a fallback). Parse, bind, and
    /// plan time are therefore never charged against the client's
    /// execution timeout — a long optimizer pass cannot make a short
    /// timeout fire before the first chunk is produced.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Cap the bytes this query may materialize.
    pub fn memory_limit(mut self, bytes: usize) -> Self {
        self.memory_limit = Some(bytes);
        self
    }

    /// Also charge the given global governor for every byte.
    pub fn governor(mut self, governor: Arc<MemoryGovernor>) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Build the shared context.
    pub fn build(self) -> Arc<QueryContext> {
        Arc::new(QueryContext {
            cancelled: AtomicBool::new(false),
            timeout: self.timeout,
            deadline: OnceLock::new(),
            memory_limit: self.memory_limit,
            memory_used: AtomicUsize::new(0),
            memory_peak: AtomicUsize::new(0),
            governor: self.governor,
        })
    }
}

/// Cooperative cancellation token, deadline, and memory account for one
/// query. Cheap to clone via `Arc`; hold a clone to cancel from another
/// thread while the query runs.
///
/// # Deadline contract
///
/// A timeout set via [`QueryContextBuilder::timeout`] measures *execution*
/// time only. The deadline is armed — once, idempotently — by
/// [`QueryContext::arm_deadline`] when execution starts (or by the first
/// [`QueryContext::check`] if nothing armed it earlier), so time spent
/// parsing, binding, optimizing, and physical-planning between minting
/// the context and starting execution is not charged against the
/// client's timeout.
#[derive(Debug)]
pub struct QueryContext {
    cancelled: AtomicBool,
    timeout: Option<Duration>,
    deadline: OnceLock<Instant>,
    memory_limit: Option<usize>,
    memory_used: AtomicUsize,
    memory_peak: AtomicUsize,
    governor: Option<Arc<MemoryGovernor>>,
}

impl QueryContext {
    /// A context with no deadline and no memory limits.
    pub fn unbounded() -> Arc<Self> {
        Self::builder().build()
    }

    /// Start building a context with limits.
    pub fn builder() -> QueryContextBuilder {
        QueryContextBuilder::default()
    }

    /// Request cooperative cancellation; execution stops at the next
    /// chunk boundary with [`EngineError::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Anchor the configured timeout at the current instant (idempotent:
    /// only the first call arms; later calls and checks reuse that
    /// anchor). The engine calls this as execution starts so plan time is
    /// excluded from the timeout — see the deadline contract on
    /// [`QueryContext`]. No-op when the context has no timeout.
    pub fn arm_deadline(&self) {
        if let Some(timeout) = self.timeout {
            let _ = self.deadline.get_or_init(|| Instant::now() + timeout);
        }
    }

    /// The configured execution timeout, if any.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// Return the typed stop error if this query should stop (cancelled
    /// or past its deadline), else `Ok(())`. Called by every operator at
    /// chunk granularity. Arms the deadline if nothing armed it yet, so a
    /// bare context used without the engine's execution wrapper still
    /// times out relative to its first check.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        if let Some(timeout) = self.timeout {
            let deadline = *self.deadline.get_or_init(|| Instant::now() + timeout);
            if Instant::now() >= deadline {
                return Err(EngineError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Charge `bytes` against the per-query and global budgets, failing
    /// with [`EngineError::ResourceExhausted`] if either would be
    /// exceeded. A failed charge leaves both accounts unchanged.
    pub fn charge_memory(&self, bytes: usize) -> Result<()> {
        if bytes == 0 {
            return Ok(());
        }
        let prev = self.memory_used.fetch_add(bytes, Ordering::Relaxed);
        if let Some(limit) = self.memory_limit {
            if prev + bytes > limit {
                self.memory_used.fetch_sub(bytes, Ordering::Relaxed);
                return Err(EngineError::resource(format!(
                    "query memory budget exceeded: {bytes} bytes requested on top of \
                     {prev} used, limit {limit} bytes"
                )));
            }
        }
        if let Some(gov) = &self.governor {
            if !gov.try_charge(bytes) {
                self.memory_used.fetch_sub(bytes, Ordering::Relaxed);
                return Err(EngineError::resource(format!(
                    "global memory budget exceeded: {bytes} bytes requested, {} of {} in use",
                    gov.used(),
                    gov.limit()
                )));
            }
        }
        self.memory_peak.fetch_max(prev + bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Return `bytes` to both accounts (for buffers freed mid-query).
    pub fn release_memory(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        self.memory_used.fetch_sub(bytes, Ordering::Relaxed);
        if let Some(gov) = &self.governor {
            gov.release(bytes);
        }
    }

    /// Bytes currently charged to this query.
    pub fn memory_used(&self) -> usize {
        self.memory_used.load(Ordering::Relaxed)
    }

    /// High-water mark of bytes charged to this query.
    pub fn memory_peak(&self) -> usize {
        self.memory_peak.load(Ordering::Relaxed)
    }
}

impl Drop for QueryContext {
    fn drop(&mut self) {
        // Return everything this query still holds to the global pool so
        // concurrent queries regain budget the moment this one finishes.
        if let Some(gov) = &self.governor {
            gov.release(self.memory_used.load(Ordering::Relaxed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_context_never_stops() {
        let q = QueryContext::unbounded();
        assert!(q.check().is_ok());
        assert!(q.charge_memory(usize::MAX / 2).is_ok());
    }

    #[test]
    fn cancel_yields_typed_error() {
        let q = QueryContext::unbounded();
        q.cancel();
        assert_eq!(q.check(), Err(EngineError::Cancelled));
    }

    #[test]
    fn elapsed_deadline_yields_typed_error() {
        let q = QueryContext::builder()
            .timeout(Duration::from_millis(0))
            .build();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(q.check(), Err(EngineError::DeadlineExceeded));
    }

    /// Regression: the deadline used to be anchored when the context was
    /// minted, so time spent planning before execution was charged
    /// against the client's timeout. It now anchors at `arm_deadline`
    /// (execution start); mint-to-arm latency is free.
    #[test]
    fn deadline_is_anchored_at_execution_start_not_mint() {
        let q = QueryContext::builder()
            .timeout(Duration::from_millis(40))
            .build();
        // Simulated plan time longer than the whole timeout.
        std::thread::sleep(Duration::from_millis(60));
        q.arm_deadline();
        assert!(q.check().is_ok(), "plan time must not consume the timeout");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(q.check(), Err(EngineError::DeadlineExceeded));
    }

    #[test]
    fn arm_deadline_is_idempotent() {
        let q = QueryContext::builder()
            .timeout(Duration::from_millis(30))
            .build();
        q.arm_deadline();
        std::thread::sleep(Duration::from_millis(45));
        // Re-arming must not extend the original anchor.
        q.arm_deadline();
        assert_eq!(q.check(), Err(EngineError::DeadlineExceeded));
    }

    #[test]
    fn per_query_budget_is_enforced_and_backed_out() {
        let q = QueryContext::builder().memory_limit(100).build();
        assert!(q.charge_memory(60).is_ok());
        let err = q.charge_memory(50).unwrap_err();
        assert!(matches!(err, EngineError::ResourceExhausted(_)));
        // The failed charge must not stick.
        assert_eq!(q.memory_used(), 60);
        assert!(q.charge_memory(40).is_ok());
    }

    #[test]
    fn governor_is_shared_and_released_on_drop() {
        let gov = MemoryGovernor::new(100);
        let a = QueryContext::builder().governor(Arc::clone(&gov)).build();
        let b = QueryContext::builder().governor(Arc::clone(&gov)).build();
        assert!(a.charge_memory(80).is_ok());
        assert!(matches!(
            b.charge_memory(40),
            Err(EngineError::ResourceExhausted(_))
        ));
        drop(a); // releases its 80 bytes
        assert_eq!(gov.used(), 0);
        assert!(b.charge_memory(40).is_ok());
    }

    #[test]
    fn release_memory_returns_budget_mid_query() {
        let gov = MemoryGovernor::new(100);
        let q = QueryContext::builder()
            .memory_limit(100)
            .governor(Arc::clone(&gov))
            .build();
        q.charge_memory(90).unwrap();
        q.release_memory(90);
        assert_eq!(q.memory_used(), 0);
        assert_eq!(gov.used(), 0);
        assert!(q.charge_memory(100).is_ok());
    }
}
