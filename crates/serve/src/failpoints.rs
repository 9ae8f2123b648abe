//! Fault-injection sites of the service layer (see `idf_fail::sites!`).
//! The wire abuse suite's chaos round asserts that a fault at any of them
//! leaves the server serving and the memory governor drained to zero.

pub use idf_engine::failpoints::check;

idf_fail::sites! {
    /// A freshly accepted connection, before its reader thread is spawned: a
    /// fault here drops the connection on the floor — the client sees EOF,
    /// the server keeps accepting.
    ACCEPT,

    /// Head of every response-frame write: a fault here abandons the rest of
    /// the response stream and closes the connection, exactly as a transport
    /// failure would — in-flight accounting and governor bytes must still
    /// unwind to zero.
    WRITE_FRAME,
}
