//! Named fault-injection sites in the service layer.
//!
//! Same contract as the storage- and durability-layer registries
//! (`crates/core/src/failpoints.rs`, `crates/durable/src/failpoints.rs`):
//! each constant names an `idf_fail::eval` site, every constant is
//! registered exactly once in [`SITES`], and the wire abuse suite's chaos
//! round iterates the table asserting that a fault at any site leaves the
//! server serving and the memory governor drained back to zero.

pub use idf_engine::failpoints::check;

idf_fail::sites! {
    /// A freshly accepted connection, before its reader thread is spawned: a
    /// fault here drops the connection on the floor — the client sees EOF,
    /// the server keeps accepting.
    ACCEPT = "serve::accept",

    /// Head of every response-frame write: a fault here abandons the rest of
    /// the response stream and closes the connection, exactly as a transport
    /// failure would — in-flight accounting and governor bytes must still
    /// unwind to zero.
    WRITE_FRAME = "serve::write_frame",
}
