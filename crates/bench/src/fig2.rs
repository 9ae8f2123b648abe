//! **Figure 2** — *"Indexed DataFrame vs. vanilla Spark"*: the six SQL
//! operators of the paper's microbenchmark, applied to the
//! `person_knows_person` table (the join pairs it with `person`), all on
//! cached data in both modes.
//!
//! Expected shape (paper §3): *join* and *equality filter* are
//! significantly faster on the Indexed DataFrame; *projection* is the one
//! operator significantly slower (row-major cache vs columnar cache);
//! *filter*, *aggregation* and *scan* are broadly comparable.

use idf_engine::error::Result;

use crate::workload::{compare_sql, Workload};
use crate::Comparison;

/// The six operators and the foreign-key join, as (label, SQL) pairs
/// parameterized by a key.
pub fn operator_queries(key: i64, date_cutoff: i64) -> Vec<(&'static str, String)> {
    vec![
        (
            "Join",
            "SELECT count(*) FROM knows k JOIN person p ON k.person1_id = p.id"
                .to_string(),
        ),
        // The foreign-key direction: `person`'s index probed by every
        // `knows` row, many rows per distinct key.
        (
            "Join (FK)",
            "SELECT count(*) FROM knows k JOIN person p ON k.person2_id = p.id"
                .to_string(),
        ),
        (
            "Filter Equality",
            format!("SELECT * FROM knows WHERE person1_id = {key}"),
        ),
        (
            "Filter",
            format!("SELECT count(*) FROM knows WHERE creation_date > {date_cutoff}"),
        ),
        (
            "Aggregation",
            "SELECT person1_id, count(*) AS degree FROM knows GROUP BY person1_id"
                .to_string(),
        ),
        // Projection/scan force value materialization with a sum, so both
        // modes pay for reading cells rather than Arc-cloning cached
        // chunks: projection touches one column, scan touches all three.
        ("Projection", "SELECT sum(person2_id) AS s FROM knows".to_string()),
        (
            "Scan",
            "SELECT sum(person1_id) AS a, sum(person2_id) AS b,                     sum(CAST(creation_date AS BIGINT)) AS c, count(*) AS n FROM knows"
                .to_string(),
        ),
    ]
}

/// Run the Figure 2 microbenchmark.
pub fn run(w: &Workload, runs: usize) -> Result<Vec<Comparison>> {
    let key = w.data.max_person_id / 2;
    let cutoff = idf_snb::gen::EPOCH_MS + 180 * idf_snb::gen::DAY_MS;
    operator_queries(key, cutoff)
        .into_iter()
        .map(|(label, sql)| compare_sql(w, label, &sql, runs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_operators_run_and_agree() {
        let w = Workload::new(0.05).unwrap();
        let rows = run(&w, 1).unwrap();
        assert_eq!(rows.len(), 7);
        for c in &rows {
            assert!(c.indexed_ms > 0.0 && c.vanilla_ms > 0.0, "{c:?}");
        }
        // The join output must equal the knows row count (FK integrity).
        assert_eq!(rows[0].label, "Join");
        assert_eq!(rows[1].label, "Join (FK)");
    }
}
