//! Physical planning — the analogue of Catalyst's physical planning phase.
//!
//! Planning consults registered [`PhysicalStrategy`]s *first*, in
//! registration order, before the built-in planner; this is the seam the
//! Indexed DataFrame uses to claim filters and joins over indexed relations
//! ("special rules and optimization strategies are applied such that
//! indexed execution is triggered" — paper, Figure 1). Anything a strategy
//! declines falls through to the default rules, exactly like the paper's
//! fallback to regular Spark execution.

use std::sync::Arc;

use crate::analyzer::expr_type;
use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::logical::{JoinType, LogicalPlan};
use crate::physical::expr::column_expr;
use crate::physical::{
    create_physical_expr, AggMode, AggregateSpec, BroadcastHashJoinExec, CoalesceExec, ExecPlanRef,
    FilterExec, HashAggregateExec, HashJoinExec, LimitExec, Partitioning, PhysicalExprRef,
    ProjectionExec, ShuffleExec, SourceScanExec, UnionExec, ValuesExec,
};
use crate::physical::{PhysicalSortKey, SortExec};

/// A pluggable physical-planning strategy.
pub trait PhysicalStrategy: Send + Sync {
    /// Strategy name.
    fn name(&self) -> &str;
    /// Return `Some(plan)` to claim this logical node, `None` to decline.
    fn plan(&self, plan: &LogicalPlan, planner: &Planner) -> Result<Option<ExecPlanRef>>;
}

/// Converts optimized logical plans into executable physical plans.
pub struct Planner {
    config: Arc<EngineConfig>,
    strategies: Vec<Arc<dyn PhysicalStrategy>>,
}

impl Planner {
    /// A planner with the given config and extension strategies.
    pub fn new(
        config: impl Into<Arc<EngineConfig>>,
        strategies: Vec<Arc<dyn PhysicalStrategy>>,
    ) -> Self {
        Planner {
            config: config.into(),
            strategies,
        }
    }

    /// The engine configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Plan a logical node (strategies first, then built-ins).
    pub fn create_plan(&self, plan: &LogicalPlan) -> Result<ExecPlanRef> {
        for s in &self.strategies {
            if let Some(exec) = s.plan(plan, self)? {
                return Ok(exec);
            }
        }
        self.default_plan(plan)
    }

    /// Built-in planning rules.
    fn default_plan(&self, plan: &LogicalPlan) -> Result<ExecPlanRef> {
        Ok(match plan {
            LogicalPlan::Scan {
                table,
                source,
                schema,
                projection,
                filters,
            } => Arc::new(SourceScanExec::new(
                table.clone(),
                Arc::clone(source),
                Arc::clone(schema),
                projection.clone(),
                filters.clone(),
            )),
            LogicalPlan::Filter { input, predicate } => {
                let child = self.create_plan(input)?;
                let schema = input.schema();
                Arc::new(FilterExec {
                    input: child,
                    predicate: create_physical_expr(predicate, &schema)?,
                    display: predicate.to_string(),
                })
            }
            LogicalPlan::Projection {
                input,
                exprs,
                schema,
            } => {
                let child = self.create_plan(input)?;
                let in_schema = input.schema();
                Arc::new(ProjectionExec {
                    input: child,
                    exprs: exprs
                        .iter()
                        .map(|e| create_physical_expr(e, &in_schema))
                        .collect::<Result<_>>()?,
                    schema: Arc::clone(schema),
                    display: exprs.iter().map(|e| e.to_string()).collect(),
                })
            }
            LogicalPlan::Join { .. } => self.plan_join(plan)?,
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                agg_exprs,
                schema,
            } => {
                let in_schema = input.schema();
                let child = self.create_plan(input)?;
                let group: Vec<_> = group_exprs
                    .iter()
                    .map(|e| create_physical_expr(e, &in_schema))
                    .collect::<Result<_>>()?;
                let aggs = agg_exprs
                    .iter()
                    .map(|e| self.compile_aggregate(e, input))
                    .collect::<Result<Vec<_>>>()?;
                let aggregate = |input, mode, group| -> ExecPlanRef {
                    Arc::new(HashAggregateExec::new(
                        input,
                        mode,
                        group,
                        aggs.clone(),
                        Arc::clone(schema),
                    ))
                };
                if self.is_partitioned(&child, &group, None) {
                    // Equal keys already share a partition: aggregate where
                    // the rows are.
                    aggregate(child, AggMode::Single, group)
                } else {
                    // Aggregate below the exchange and merge above it, so it
                    // moves one row per group and partition, not the input.
                    let partial = aggregate(child, AggMode::Partial, group.clone());
                    let merged_group: Vec<_> = group
                        .iter()
                        .enumerate()
                        .map(|(i, e)| column_expr(i, e.data_type()))
                        .collect();
                    let exchanged = self.ensure_partitioned(partial, &merged_group, None);
                    aggregate(exchanged, AggMode::Final, merged_group)
                }
            }
            LogicalPlan::Sort { input, exprs } => {
                let child = self.single_partition(self.create_plan(input)?);
                let in_schema = input.schema();
                let keys = exprs
                    .iter()
                    .map(|s| {
                        Ok(PhysicalSortKey {
                            expr: create_physical_expr(&s.expr, &in_schema)?,
                            ascending: s.ascending,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Arc::new(SortExec {
                    input: child,
                    keys,
                    fetch: None,
                })
            }
            LogicalPlan::Limit { input, n } => {
                // Fuse Limit over Sort into a top-k sort.
                if let LogicalPlan::Sort {
                    input: sort_input,
                    exprs,
                } = input.as_ref()
                {
                    let child = self.single_partition(self.create_plan(sort_input)?);
                    let in_schema = sort_input.schema();
                    let keys = exprs
                        .iter()
                        .map(|s| {
                            Ok(PhysicalSortKey {
                                expr: create_physical_expr(&s.expr, &in_schema)?,
                                ascending: s.ascending,
                            })
                        })
                        .collect::<Result<Vec<_>>>()?;
                    return Ok(Arc::new(SortExec {
                        input: child,
                        keys,
                        fetch: Some(*n),
                    }));
                }
                let child = self.create_plan(input)?;
                if child.output_partitions() > 1 {
                    // Per-partition pre-limit, then a global limit.
                    let pre: ExecPlanRef = Arc::new(LimitExec {
                        input: child,
                        n: *n,
                    });
                    let one = Arc::new(CoalesceExec::new(pre));
                    Arc::new(LimitExec { input: one, n: *n })
                } else {
                    Arc::new(LimitExec {
                        input: child,
                        n: *n,
                    })
                }
            }
            LogicalPlan::Union { inputs, schema } => {
                let children = inputs
                    .iter()
                    .map(|i| self.create_plan(i))
                    .collect::<Result<Vec<_>>>()?;
                Arc::new(UnionExec {
                    inputs: children,
                    schema: Arc::clone(schema),
                })
            }
            LogicalPlan::Values { schema, rows } => Arc::new(ValuesExec {
                schema: Arc::clone(schema),
                rows: rows.clone(),
            }),
        })
    }

    /// Default join planning: broadcast the right side when it is small,
    /// otherwise shuffle both sides on the join keys.
    fn plan_join(&self, plan: &LogicalPlan) -> Result<ExecPlanRef> {
        let LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
            schema,
        } = plan
        else {
            return Err(EngineError::internal("plan_join on non-join node"));
        };
        if on.is_empty() {
            return Err(EngineError::Unsupported(
                "joins require at least one equi-join key".to_string(),
            ));
        }
        let left_schema = left.schema();
        let right_schema = right.schema();
        let left_exec = self.create_plan(left)?;
        let right_exec = self.create_plan(right)?;
        let keys = on
            .iter()
            .map(|(l, r)| {
                Ok((
                    create_physical_expr(l, &left_schema)?,
                    create_physical_expr(r, &right_schema)?,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        let right_small =
            estimate_rows(right).is_some_and(|n| n <= self.config.broadcast_threshold_rows);
        if right_small {
            return Ok(Arc::new(BroadcastHashJoinExec::new(
                left_exec,
                right_exec,
                keys,
                *join_type,
                Arc::clone(schema),
            )));
        }
        // Inner joins with a small *left* side broadcast it instead,
        // streaming the big right side; a reordering projection restores
        // the (left ++ right) output column order.
        let left_small =
            estimate_rows(left).is_some_and(|n| n <= self.config.broadcast_threshold_rows);
        if left_small && matches!(join_type, JoinType::Inner) {
            let left_width = left.schema().len();
            let right_width = right.schema().len();
            let swapped_schema = Arc::new(right.schema().join(&left.schema()));
            let flipped: Vec<_> = keys
                .iter()
                .map(|(l, r)| (Arc::clone(r), Arc::clone(l)))
                .collect();
            let swapped: ExecPlanRef = Arc::new(BroadcastHashJoinExec::new(
                right_exec,
                left_exec,
                flipped,
                JoinType::Inner,
                Arc::clone(&swapped_schema),
            ));
            let reorder: Vec<_> = (0..left_width)
                .map(|i| right_width + i)
                .chain(0..right_width)
                .map(|i| crate::physical::expr::column_expr(i, swapped_schema.field(i).data_type))
                .collect();
            return Ok(Arc::new(ProjectionExec {
                input: swapped,
                exprs: reorder,
                schema: Arc::clone(schema),
                display: vec!["<reorder after broadcast-left swap>".to_string()],
            }));
        }
        let left_keys: Vec<_> = keys.iter().map(|(l, _)| Arc::clone(l)).collect();
        let right_keys: Vec<_> = keys.iter().map(|(_, r)| Arc::clone(r)).collect();
        // Both sides must be hash-partitioned on their keys the same number
        // of ways. A side that already is (a source partitioned by the join
        // key) sets that number and stays put — unless the key types differ,
        // which hash differently, or it has a single partition, which would
        // drag the whole join onto one thread.
        let same_types = keys.iter().all(|(l, r)| l.data_type() == r.data_type());
        let placed = |side: &ExecPlanRef, keys: &[PhysicalExprRef]| match side.output_partitioning()
        {
            Partitioning::Hash { n, .. }
                if n > 1 && same_types && self.is_partitioned(side, keys, Some(n)) =>
            {
                Some(n)
            }
            _ => None,
        };
        let n = placed(&left_exec, &left_keys)
            .or_else(|| placed(&right_exec, &right_keys))
            .unwrap_or(self.config.target_partitions);
        Ok(Arc::new(HashJoinExec {
            left: self.ensure_partitioned(left_exec, &left_keys, Some(n)),
            right: self.ensure_partitioned(right_exec, &right_keys, Some(n)),
            on: keys,
            join_type: *join_type,
            schema: Arc::clone(schema),
        }))
    }

    /// Compile an aggregate output expression into a runnable spec.
    fn compile_aggregate(&self, expr: &Expr, input: &LogicalPlan) -> Result<AggregateSpec> {
        let in_schema = input.schema();
        let inner = match expr {
            Expr::Alias(e, _) => e.as_ref(),
            other => other,
        };
        let Expr::Aggregate { func, arg } = inner else {
            return Err(EngineError::plan(format!(
                "aggregate list entries must be aggregate calls, got {expr}"
            )));
        };
        let output_type = expr_type(inner, &in_schema)?;
        Ok(AggregateSpec {
            func: *func,
            arg: match arg {
                Some(a) => Some(create_physical_expr(a, &in_schema)?),
                None => None,
            },
            output_type,
        })
    }

    /// Coalesce to one partition when needed.
    pub fn single_partition(&self, plan: ExecPlanRef) -> ExecPlanRef {
        if plan.output_partitions() > 1 {
            Arc::new(CoalesceExec::new(plan))
        } else {
            plan
        }
    }

    /// Whether `plan`'s output already meets a consumer's placement
    /// requirement on `keys`. With `n == None` the requirement is that rows
    /// with equal keys share a partition (an aggregate's): a single
    /// partition does, and so does hash partitioning on any subset of the
    /// keys. With `Some(n)` it is that a row sits in partition
    /// `hash_values(keys) % n` (a join side's): the partitioning must be on
    /// exactly these keys, `n` ways. Only bare column references match —
    /// `CAST(k AS …)` hashes differently from `k`.
    pub fn is_partitioned(
        &self,
        plan: &ExecPlanRef,
        keys: &[PhysicalExprRef],
        n: Option<usize>,
    ) -> bool {
        if plan.output_partitions() == 1 {
            return n.is_none_or(|n| n == 1);
        }
        let Partitioning::Hash { columns, n: have } = plan.output_partitioning() else {
            return false;
        };
        let key_columns = keys.iter().map(|k| k.column_index());
        match n {
            None => columns
                .iter()
                .all(|&c| key_columns.clone().any(|k| k == Some(c))),
            Some(n) => have == n && key_columns.eq(columns.into_iter().map(Some)),
        }
    }

    /// The one place exchanges are planned: `plan` itself when it already
    /// meets the requirement (see [`Planner::is_partitioned`]), otherwise
    /// `plan` under a coalesce (no keys) or a hash shuffle on `keys` into
    /// `n` partitions (`target_partitions` when the consumer does not care).
    pub fn ensure_partitioned(
        &self,
        plan: ExecPlanRef,
        keys: &[PhysicalExprRef],
        n: Option<usize>,
    ) -> ExecPlanRef {
        if self.is_partitioned(&plan, keys, n) {
            plan
        } else if keys.is_empty() {
            self.single_partition(plan)
        } else {
            Arc::new(ShuffleExec::new(
                plan,
                keys.to_vec(),
                n.unwrap_or(self.config.target_partitions),
            ))
        }
    }
}

/// Rough row-count estimate used by the broadcast decision.
pub fn estimate_rows(plan: &LogicalPlan) -> Option<usize> {
    match plan {
        LogicalPlan::Scan {
            source, filters, ..
        } => match source.prune(filters) {
            Some(pruning) => Some(pruning.rows),
            None => source.statistics().row_count,
        },
        LogicalPlan::Filter { input, .. } => estimate_rows(input),
        LogicalPlan::Projection { input, .. } | LogicalPlan::Sort { input, .. } => {
            estimate_rows(input)
        }
        LogicalPlan::Limit { input, n } => Some(estimate_rows(input).map_or(*n, |r| r.min(*n))),
        LogicalPlan::Values { rows, .. } => Some(rows.len()),
        LogicalPlan::Union { inputs, .. } => inputs
            .iter()
            .map(|i| estimate_rows(i))
            .sum::<Option<usize>>(),
        LogicalPlan::Aggregate { input, .. } => estimate_rows(input),
        LogicalPlan::Join { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::resolve_expr;
    use crate::catalog::MemTable;
    use crate::chunk::Chunk;
    use crate::expr::{col, lit};
    use crate::physical::display_exec;
    use crate::physical::TaskContext;
    use crate::schema::{Field, Schema};
    use crate::types::{DataType, Value};

    fn scan_with_rows(n: i64) -> LogicalPlan {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let chunk = Chunk::from_rows(
            &schema,
            &(0..n).map(|i| vec![Value::Int64(i)]).collect::<Vec<_>>(),
        )
        .unwrap();
        let source =
            Arc::new(MemTable::from_chunk_partitioned(Arc::clone(&schema), chunk, 2).unwrap());
        LogicalPlan::Scan {
            table: "t".into(),
            source,
            schema,
            projection: None,
            filters: vec![],
        }
    }

    fn planner() -> Planner {
        Planner::new(
            EngineConfig {
                broadcast_threshold_rows: 100,
                ..Default::default()
            },
            vec![],
        )
    }

    fn join_plan(right_rows: i64) -> LogicalPlan {
        let l = scan_with_rows(1000);
        let r = scan_with_rows(right_rows);
        let schema = Arc::new(l.schema().join(&r.schema()));
        let lk = resolve_expr(&col("k"), &l.schema()).unwrap();
        let rk = resolve_expr(&col("k"), &r.schema()).unwrap();
        LogicalPlan::Join {
            left: Arc::new(l),
            right: Arc::new(r),
            on: vec![(lk, rk)],
            join_type: JoinType::Inner,
            schema,
        }
    }

    #[test]
    fn small_right_side_broadcasts() {
        let exec = planner().create_plan(&join_plan(10)).unwrap();
        assert_eq!(
            exec.name(),
            "BroadcastHashJoin",
            "{}",
            display_exec(exec.as_ref())
        );
    }

    #[test]
    fn large_right_side_shuffles() {
        let exec = planner().create_plan(&join_plan(10_000)).unwrap();
        assert_eq!(exec.name(), "HashJoin");
        let shown = display_exec(exec.as_ref());
        assert_eq!(shown.matches("Shuffle").count(), 2, "{shown}");
    }

    #[test]
    fn small_left_side_broadcasts_with_reorder() {
        // left small, right large, inner join → broadcast-left swap wrapped
        // in a reordering projection.
        let l = scan_with_rows(10);
        let r = scan_with_rows(100_000);
        let schema = Arc::new(l.schema().join(&r.schema()));
        let lk = resolve_expr(&col("k"), &l.schema()).unwrap();
        let rk = resolve_expr(&col("k"), &r.schema()).unwrap();
        let plan = LogicalPlan::Join {
            left: Arc::new(l),
            right: Arc::new(r),
            on: vec![(lk, rk)],
            join_type: JoinType::Inner,
            schema,
        };
        let exec = planner().create_plan(&plan).unwrap();
        assert_eq!(exec.name(), "Projection", "{}", display_exec(exec.as_ref()));
        assert_eq!(exec.children()[0].name(), "BroadcastHashJoin");
        // Results must still come out in (left ++ right) column order.
        let out = crate::physical::execute_collect(&exec, &TaskContext::default()).unwrap();
        assert_eq!(out.num_columns(), 2);
        assert!(!out.is_empty());
    }

    #[test]
    fn single_partition_join_skips_shuffle() {
        let p = Planner::new(
            EngineConfig {
                broadcast_threshold_rows: 1, // force the shuffle path
                target_partitions: 1,
                ..Default::default()
            },
            vec![],
        );
        // single-partition sources on both sides
        let mk = |rows: i64| {
            let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
            let chunk = Chunk::from_rows(
                &schema,
                &(0..rows).map(|i| vec![Value::Int64(i)]).collect::<Vec<_>>(),
            )
            .unwrap();
            let source = Arc::new(MemTable::from_chunk(Arc::clone(&schema), chunk));
            LogicalPlan::Scan {
                table: "t".into(),
                source,
                schema,
                projection: None,
                filters: vec![],
            }
        };
        let l = mk(100);
        let r = mk(100);
        let schema = Arc::new(l.schema().join(&r.schema()));
        let lk = resolve_expr(&col("k"), &l.schema()).unwrap();
        let rk = resolve_expr(&col("k"), &r.schema()).unwrap();
        let plan = LogicalPlan::Join {
            left: Arc::new(l),
            right: Arc::new(r),
            on: vec![(lk, rk)],
            join_type: JoinType::Inner,
            schema,
        };
        let exec = p.create_plan(&plan).unwrap();
        let shown = display_exec(exec.as_ref());
        assert!(
            !shown.contains("Shuffle"),
            "trivially co-partitioned:
{shown}"
        );
    }

    #[test]
    fn limit_over_sort_fuses_topk() {
        let s = scan_with_rows(100);
        let key = resolve_expr(&col("k"), &s.schema()).unwrap();
        let plan = LogicalPlan::Limit {
            input: Arc::new(LogicalPlan::Sort {
                input: Arc::new(s),
                exprs: vec![crate::expr::SortExpr::desc(key)],
            }),
            n: 5,
        };
        let exec = planner().create_plan(&plan).unwrap();
        assert_eq!(exec.name(), "Sort");
        assert!(exec.detail().contains("fetch 5"));
    }

    fn count_by_k(input: LogicalPlan) -> LogicalPlan {
        let g = resolve_expr(&col("k"), &input.schema()).unwrap();
        let k = input.schema().field(0).clone();
        LogicalPlan::Aggregate {
            input: Arc::new(input),
            group_exprs: vec![g],
            agg_exprs: vec![crate::expr::count_star()],
            schema: Arc::new(Schema::new(vec![
                k,
                Field::new("count(*)", DataType::Int64),
            ])),
        }
    }

    #[test]
    fn grouped_aggregate_over_unplaced_input_is_partial_shuffle_final() {
        let exec = planner()
            .create_plan(&count_by_k(scan_with_rows(100)))
            .unwrap();
        let shown = display_exec(exec.as_ref());
        let ops: Vec<&str> = shown.lines().map(str::trim).collect();
        assert!(ops[0].starts_with("HashAggregate: final"), "{shown}");
        assert!(ops[1].starts_with("Shuffle"), "{shown}");
        assert!(ops[2].starts_with("HashAggregate: partial"), "{shown}");
        assert!(ops[3].starts_with("SourceScan"), "{shown}");
        let out = crate::physical::execute_collect(&exec, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 100);
    }

    /// A `MemTable` whose rows really are hash-partitioned on column 0,
    /// and that says so.
    struct HashedTable(MemTable);

    impl crate::catalog::TableSource for HashedTable {
        fn schema(&self) -> crate::schema::SchemaRef {
            self.0.schema()
        }
        fn num_partitions(&self) -> usize {
            self.0.num_partitions()
        }
        fn scan(
            &self,
            partition: usize,
            projection: Option<&[usize]>,
        ) -> Result<crate::catalog::ChunkIter> {
            self.0.scan(partition, projection)
        }
        fn hash_partitioned_by(&self) -> Option<usize> {
            Some(0)
        }
        fn statistics(&self) -> crate::catalog::Statistics {
            self.0.statistics()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// `rows` keys `0..rows` of type `dt` (plus a payload column `v`),
    /// hash-partitioned `n` ways on the key.
    fn hashed_scan(dt: DataType, rows: i64, n: usize) -> LogicalPlan {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", dt),
            Field::new("v", DataType::Int64),
        ]));
        let mut parts: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n];
        for i in 0..rows {
            let k = match dt {
                DataType::Int32 => Value::Int32(i as i32),
                _ => Value::Int64(i),
            };
            let p = (crate::physical::hash_values(std::slice::from_ref(&k)) % n as u64) as usize;
            parts[p].push(vec![k, Value::Int64(i % 5)]);
        }
        let chunks = parts
            .iter()
            .map(|rows| vec![Chunk::from_rows(&schema, rows).unwrap()])
            .collect();
        LogicalPlan::Scan {
            table: "h".into(),
            source: Arc::new(HashedTable(MemTable::new(Arc::clone(&schema), chunks))),
            schema,
            projection: None,
            filters: vec![],
        }
    }

    #[test]
    fn aggregate_on_the_partition_column_is_one_phase_with_no_exchange() {
        // 3 partitions against 2 target partitions: placement decides.
        let p = Planner::new(
            EngineConfig {
                target_partitions: 2,
                ..Default::default()
            },
            vec![],
        );
        let exec = p
            .create_plan(&count_by_k(hashed_scan(DataType::Int64, 90, 3)))
            .unwrap();
        let shown = display_exec(exec.as_ref());
        assert!(shown.starts_with("HashAggregate: 1 group keys"), "{shown}");
        assert!(
            !shown.contains("Shuffle") && !shown.contains("partial"),
            "{shown}"
        );
        assert_eq!(exec.output_partitions(), 3);
        let out = crate::physical::execute_collect(&exec, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 90);
        assert!((0..90).all(|r| out.value_at(1, r) == Value::Int64(1)));
    }

    #[test]
    fn partitioning_follows_the_column_through_filter_projection_and_limit() {
        let scan = hashed_scan(DataType::Int64, 30, 3);
        let schema = scan.schema();
        let pred = resolve_expr(&col("v").gt(lit(1i64)), &schema).unwrap();
        let filtered = LogicalPlan::Filter {
            input: Arc::new(scan),
            predicate: pred,
        };
        let project = |names: &[&str]| {
            let exprs: Vec<_> = names
                .iter()
                .map(|n| resolve_expr(&col(n), &schema).unwrap())
                .collect();
            let fields = exprs
                .iter()
                .map(|e| crate::analyzer::expr_to_field(e, &schema).unwrap())
                .collect();
            LogicalPlan::Limit {
                input: Arc::new(LogicalPlan::Projection {
                    input: Arc::new(filtered.clone()),
                    exprs,
                    schema: Arc::new(Schema::new(fields)),
                }),
                n: 1000,
            }
        };
        // LIMIT plans Limit(Coalesce(Limit(..))): look under the coalesce.
        let placed = |plan: &LogicalPlan| {
            let exec = planner().create_plan(plan).unwrap();
            let under = exec.children()[0].children()[0].output_partitioning();
            (under, exec.output_partitioning())
        };
        let (kept, coalesced) = placed(&project(&["v", "k"]));
        assert_eq!(
            kept,
            Partitioning::Hash {
                columns: vec![1],
                n: 3
            }
        );
        assert_eq!(coalesced, Partitioning::Unknown);
        let (dropped, _) = placed(&project(&["v"]));
        assert_eq!(dropped, Partitioning::Unknown, "key projected away");
    }

    fn join_on_k(l: LogicalPlan, r: LogicalPlan) -> LogicalPlan {
        let schema = Arc::new(l.schema().join(&r.schema()));
        let lk = resolve_expr(&col("k"), &l.schema()).unwrap();
        let rk = resolve_expr(&col("k"), &r.schema()).unwrap();
        LogicalPlan::Join {
            left: Arc::new(l),
            right: Arc::new(r),
            on: vec![(lk, rk)],
            join_type: JoinType::Inner,
            schema,
        }
    }

    #[test]
    fn join_sides_already_placed_on_the_keys_get_no_exchange() {
        let shuffles = |l, r| {
            let exec = planner().create_plan(&join_on_k(l, r)).unwrap();
            assert_eq!(exec.name(), "HashJoin");
            let out = crate::physical::execute_collect(&exec, &TaskContext::default()).unwrap();
            assert_eq!(out.len(), 400, "every key matches once");
            let shown = display_exec(exec.as_ref());
            (shown.matches("Shuffle").count(), shown)
        };
        let i64s = |n| hashed_scan(DataType::Int64, 400, n);
        // Same keys, same count: the rows already are where the join needs them.
        assert_eq!(shuffles(i64s(3), i64s(3)).0, 0);
        // Unequal counts: one side moves to the other's partitioning.
        let (n, shown) = shuffles(i64s(3), i64s(5));
        assert_eq!(n, 1, "{shown}");
        assert!(shown.contains("Shuffle: hash, 3 partitions"), "{shown}");
        // One side placed, the other not.
        assert_eq!(shuffles(i64s(3), scan_with_rows(400)).0, 1);
        // Int32 against Int64 hashes differently: both sides move (and,
        // compared as typed values, nothing matches).
        let exec = planner()
            .create_plan(&join_on_k(hashed_scan(DataType::Int32, 400, 3), i64s(3)))
            .unwrap();
        let shown = display_exec(exec.as_ref());
        assert_eq!(shown.matches("Shuffle").count(), 2, "{shown}");
    }

    #[test]
    fn filter_rejects_join_without_keys() {
        let l = scan_with_rows(10);
        let r = scan_with_rows(10);
        let schema = Arc::new(l.schema().join(&r.schema()));
        let plan = LogicalPlan::Join {
            left: Arc::new(l),
            right: Arc::new(r),
            on: vec![],
            join_type: JoinType::Inner,
            schema,
        };
        assert!(planner().create_plan(&plan).is_err());
    }

    #[test]
    fn strategy_takes_priority() {
        struct ClaimScans;
        impl PhysicalStrategy for ClaimScans {
            fn name(&self) -> &str {
                "claim_scans"
            }
            fn plan(&self, plan: &LogicalPlan, _planner: &Planner) -> Result<Option<ExecPlanRef>> {
                if let LogicalPlan::Scan { schema, .. } = plan {
                    return Ok(Some(Arc::new(ValuesExec {
                        schema: Arc::clone(schema),
                        rows: vec![vec![Value::Int64(42)]],
                    })));
                }
                Ok(None)
            }
        }
        let p = Planner::new(EngineConfig::default(), vec![Arc::new(ClaimScans)]);
        let exec = p.create_plan(&scan_with_rows(100)).unwrap();
        assert_eq!(exec.name(), "Values");
        let pred = resolve_expr(&col("k").eq(lit(42i64)), &scan_with_rows(1).schema()).unwrap();
        let filtered = LogicalPlan::Filter {
            input: Arc::new(scan_with_rows(100)),
            predicate: pred,
        };
        let exec2 = p.create_plan(&filtered).unwrap();
        // Filter falls through to default planning but its child is claimed.
        assert_eq!(exec2.name(), "Filter");
        assert_eq!(exec2.children()[0].name(), "Values");
    }
}
