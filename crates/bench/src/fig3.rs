//! **Figure 3** — *"SNB SF300 Simple Read Queries on Indexed DataFrame vs.
//! Spark"* (log-scale in the paper): the seven short reads, each timed in
//! both modes over a set of parameter bindings.
//!
//! Expected shape (paper §3): the Indexed DataFrame speeds up all queries
//! *except* SQ5 and SQ6, which cannot make use of the index (they traverse
//! only unindexed forum access paths in our deployment — see
//! `idf_snb::load`).

use idf_engine::error::Result;
use idf_snb::{query, QueryParams};

use crate::workload::Workload;
use crate::{median_ms, Comparison};

/// Deterministic parameter bindings for a dataset.
pub fn params(w: &Workload, count: usize) -> Vec<QueryParams> {
    (0..count as u64)
        .map(|i| {
            QueryParams::nth(
                i,
                w.data.max_person_id,
                w.data.max_message_id,
                w.data.config.forums as i64,
            )
        })
        .collect()
}

/// Run SQ1–SQ7 in both modes; each measurement is the median over `runs`
/// executions of a whole parameter sweep.
pub fn run(w: &Workload, runs: usize, param_count: usize) -> Result<Vec<Comparison>> {
    let bindings = params(w, param_count);
    let mut out = Vec::with_capacity(7);
    for q in 1..=7 {
        // Pre-plan the dataframes once per binding and mode.
        let indexed: Vec<_> = bindings
            .iter()
            .map(|p| query(&w.indexed, q, p))
            .collect::<Result<_>>()?;
        let vanilla: Vec<_> = bindings
            .iter()
            .map(|p| query(&w.vanilla, q, p))
            .collect::<Result<_>>()?;
        let rows_indexed: usize = indexed.iter().map(|df| df.count()).sum::<Result<usize>>()?;
        let rows_vanilla: usize = vanilla.iter().map(|df| df.count()).sum::<Result<usize>>()?;
        assert_eq!(rows_indexed, rows_vanilla, "SQ{q} diverged");
        let indexed_ms = median_ms(runs, || {
            for df in &indexed {
                df.collect().expect("indexed SQ failed");
            }
        });
        let vanilla_ms = median_ms(runs, || {
            for df in &vanilla {
                df.collect().expect("vanilla SQ failed");
            }
        });
        out.push(Comparison {
            label: format!("SQ{q}"),
            indexed_ms,
            vanilla_ms,
            rows: rows_indexed,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_short_reads_run_and_agree() {
        let w = Workload::new(0.05).unwrap();
        let rows = run(&w, 1, 2).unwrap();
        assert_eq!(rows.len(), 7);
        for (i, c) in rows.iter().enumerate() {
            assert_eq!(c.label, format!("SQ{}", i + 1));
            assert!(c.indexed_ms > 0.0);
        }
    }
}
