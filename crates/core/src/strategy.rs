//! The index-aware physical planning strategy — the paper's custom
//! Catalyst rules.
//!
//! Paper, Figure 1: *"Catalyst rules determine whether the queries are
//! regular or indexed. If regular, they follow the regular Spark Catalyst
//! execution. If indexed, special rules and optimization strategies are
//! applied such that indexed execution is triggered."*
//!
//! Division of labour in this reproduction:
//!
//! * **Equality filters** need no strategy: the engine's predicate-pushdown
//!   rule moves them into the scan, and [`crate::source::IndexedSource`]
//!   answers them with index lookups.
//! * **Equi-joins** are claimed here: a `Join` whose left or right input is
//!   a scan of an [`IndexedSource`] keyed on the join column becomes an
//!   [`IndexedJoinExec`] — the indexed relation is always the build side,
//!   the probe side is brought to the index's partitioning by the planner's
//!   one exchange rule (or broadcast when small, per the paper's fallback).
//!   An index other than the table's primary is not partitioned by its
//!   key, so its probe side is always broadcast.
//! * Everything else returns `None` and falls back to vanilla planning.

use std::sync::Arc;

use idf_engine::error::Result;
use idf_engine::expr::Expr;
use idf_engine::logical::{JoinType, LogicalPlan};
use idf_engine::physical::{create_physical_expr, ExecPlanRef};
use idf_engine::planner::{estimate_rows, PhysicalStrategy, Planner};

use crate::join_exec::{IndexedJoinExec, ProbeMode};
use crate::source::IndexedSource;

/// The strategy to register with [`idf_engine::session::Session`].
pub struct IndexedJoinStrategy;

/// What we learned about one side of a join.
struct IndexedSide {
    source: Arc<IndexedSource>,
    projection: Option<Vec<usize>>,
}

/// If `plan` is a bare scan of an [`IndexedSource`] (optionally projected,
/// with no pushed filters), return it.
fn as_indexed_scan(plan: &LogicalPlan) -> Option<IndexedSide> {
    let LogicalPlan::Scan {
        source,
        projection,
        filters,
        ..
    } = plan
    else {
        return None;
    };
    if !filters.is_empty() {
        // A key-equality lookup already shrinks this side to a handful of
        // rows; the vanilla join over the lookup result is the right plan.
        return None;
    }
    let any = source.as_any().downcast_ref::<IndexedSource>()?;
    if any.is_frozen() {
        // A frozen scan is pinned to its snapshot; the indexed join reads
        // the *live* table, so claiming it would leak post-snapshot rows.
        // Decline — the vanilla join over the (correctly frozen) scan runs
        // instead.
        return None;
    }
    let concrete = Arc::new(IndexedSource::live(Arc::clone(any.table())));
    Some(IndexedSide {
        source: concrete,
        projection: projection.clone(),
    })
}

/// Does the join-key expression over this scan resolve to the indexed
/// column? `projection` maps scan-output indices to source columns.
fn key_is_indexed(key: &Expr, side: &IndexedSide) -> bool {
    let Expr::Column(c) = key else { return false };
    let Some(out_idx) = c.index else { return false };
    let source_idx = match &side.projection {
        Some(p) => match p.get(out_idx) {
            Some(&i) => i,
            None => return false,
        },
        None => out_idx,
    };
    source_idx == side.source.table().key_col()
}

impl PhysicalStrategy for IndexedJoinStrategy {
    fn name(&self) -> &str {
        "indexed_join"
    }

    fn plan(&self, plan: &LogicalPlan, planner: &Planner) -> Result<Option<ExecPlanRef>> {
        let LogicalPlan::Join {
            left,
            right,
            on,
            join_type: JoinType::Inner,
            schema,
        } = plan
        else {
            return Ok(None);
        };
        // The indexed operator handles single-key equi-joins; composite
        // keys fall back to the vanilla hash join.
        let [(left_key, right_key)] = on.as_slice() else {
            return Ok(None);
        };
        // Prefer the left side as build (the paper's API puts the indexed
        // relation on the left), but accept either.
        let (side, probe_plan, probe_key, indexed_is_left) =
            match as_indexed_scan(left).filter(|s| key_is_indexed(left_key, s)) {
                Some(side) => (side, right, right_key, true),
                None => match as_indexed_scan(right).filter(|s| key_is_indexed(right_key, s)) {
                    Some(side) => (side, left, left_key, false),
                    None => return Ok(None),
                },
            };
        let probe_schema = probe_plan.schema();
        let probe_exec = planner.create_plan(probe_plan)?;
        let probe_key_expr = create_physical_expr(probe_key, &probe_schema)?;
        let table = Arc::clone(side.source.table());
        // Broadcast small probe sides instead of shuffling (paper, §2), and
        // every probe side of a secondary index: its keys do not route.
        let broadcast = !table.is_primary()
            || estimate_rows(probe_plan)
                .is_some_and(|n| n <= planner.config().broadcast_threshold_rows);
        let (probe_exec, mode) = if broadcast {
            (probe_exec, ProbeMode::Broadcast)
        } else {
            // Probe rows must sit in the index partition their key routes
            // to; a probe side already placed that way (the other table
            // indexed on the join key, equally many partitions) stays put.
            let placed = planner.ensure_partitioned(
                probe_exec,
                std::slice::from_ref(&probe_key_expr),
                Some(table.num_partitions()),
            );
            (placed, ProbeMode::Partitioned)
        };
        Ok(Some(Arc::new(IndexedJoinExec::new(
            table,
            side.projection,
            probe_exec,
            probe_key_expr,
            indexed_is_left,
            Arc::clone(schema),
            mode,
        ))))
    }
}
