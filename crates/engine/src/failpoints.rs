//! Fault-injection sites of the engine's physical layer (see
//! `idf_fail::sites!`).

use crate::error::{EngineError, Result};

idf_fail::sites! {
    /// Start of a shuffle exchange: triggered once per `ShuffleExec`
    /// materialization, before any input chunk is buffered.
    SHUFFLE_EXCHANGE,

    /// Start of a partition worker task inside `execute_collect_partitions`.
    WORKER_START,
}

/// Evaluate the failpoint at `site`, mapping an injected error into a
/// typed [`EngineError::Execution`] that names the site. The one
/// definition every layer above the engine re-exports (the durability
/// layer keeps its own, which maps to `EngineError::durability`).
#[inline]
pub fn check(site: idf_fail::Site) -> Result<()> {
    idf_fail::eval(site)
        .map_err(|msg| EngineError::exec(format!("injected failure at {site}: {msg}")))
}
