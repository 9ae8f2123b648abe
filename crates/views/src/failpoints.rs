//! Named fault-injection sites in the view-maintenance layer.
//!
//! Same contract as the storage-, durability- and service-layer
//! registries (`crates/core/src/failpoints.rs`, …): each constant names
//! an `idf_fail::eval` site, every constant is registered exactly once in
//! [`SITES`], and the view chaos suite iterates the table asserting that
//! a fault at any site never loses or double-applies a delta — view
//! contents stay equal to re-running the defining query.

pub use idf_engine::failpoints::check;

idf_fail::sites! {
    /// Head of one delta application to one view, *before* any view state is
    /// mutated: a fault here is retried by the maintenance loop, so an
    /// injected storm delays convergence but never corrupts the view.
    MAINTAIN_APPLY = "views::maintain::apply",

    /// Head of a full `REFRESH MATERIALIZED VIEW` recompute, *before* the
    /// rebuilt state is swapped in: a fault here fails the statement with a
    /// typed error and leaves the previous materialized state untouched.
    REFRESH = "views::refresh",
}
