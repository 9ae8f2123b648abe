//! Fault-injection sites of the view-maintenance layer (see
//! `idf_fail::sites!`). The view chaos suite asserts that a fault at any
//! of them never loses or double-applies a delta: view contents stay
//! equal to re-running the defining query.

pub use idf_engine::failpoints::check;

idf_fail::sites! {
    /// Head of one delta application to one view, *before* any view state is
    /// mutated: a fault here is retried by the maintenance loop, so an
    /// injected storm delays convergence but never corrupts the view.
    MAINTAIN_APPLY,

    /// Head of a full `REFRESH MATERIALIZED VIEW` recompute, *before* the
    /// rebuilt state is swapped in: a fault here fails the statement with a
    /// typed error and leaves the previous materialized state untouched.
    REFRESH,
}
