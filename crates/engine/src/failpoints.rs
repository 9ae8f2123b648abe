//! Named fault-injection sites in the engine's physical layer.
//!
//! Each constant names a site where `idf_fail::eval` is called; tests
//! configure sites via `idf_fail::FailGuard` to return errors, panic, or
//! delay. See the workspace `idf-fail` crate and the "Robustness" section
//! of DESIGN.md for the full catalogue.

use crate::error::{EngineError, Result};

idf_fail::sites! {
    /// Start of a shuffle exchange: triggered once per `ShuffleExec`
    /// materialization, before any input chunk is buffered.
    SHUFFLE_EXCHANGE = "engine::shuffle::exchange",

    /// Start of a partition worker task inside `execute_collect_partitions`.
    WORKER_START = "engine::exec::worker",
}

/// Evaluate the failpoint at `site`, mapping an injected error into a
/// typed [`EngineError::Execution`] that names the site. The one
/// definition every layer above the engine re-exports (the durability
/// layer keeps its own, which maps to `EngineError::durability`).
#[inline]
pub fn check(site: &str) -> Result<()> {
    idf_fail::eval(site)
        .map_err(|msg| EngineError::exec(format!("injected failure at {site}: {msg}")))
}
