//! Hash joins: co-partitioned (shuffle) and broadcast.
//!
//! `HashJoinExec` expects both children to be hash-partitioned on the join
//! keys with the same partition count (the planner inserts shuffles); each
//! output partition builds a hash table from its build-side partition and
//! probes it with the probe-side partition. `BroadcastHashJoinExec`
//! materializes the (small) build side once — the analogue of a Spark
//! broadcast variable — and streams the probe side partition-wise.
//!
//! Per the paper, the Indexed DataFrame always plays the *build* side
//! (its index is pre-built); these operators are the *vanilla* baseline it
//! is compared against, and also execute any non-indexed join.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::catalog::ChunkIter;
use crate::chunk::Chunk;
use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::logical::JoinType;
use crate::physical::{execute, ExecPlanRef, ExecutionPlan, PhysicalExprRef, TaskContext};
use crate::schema::SchemaRef;
use crate::types::Value;

/// A materialized join build side: all rows plus a key → row-ids table.
pub(crate) struct BuildTable {
    pub chunk: Chunk,
    pub index: HashMap<Vec<Value>, Vec<u32>>,
}

impl BuildTable {
    /// Concatenate `chunks` and index them by `keys` (null keys excluded).
    pub(crate) fn build(chunks: Vec<Chunk>, keys: &[PhysicalExprRef]) -> Result<BuildTable> {
        let chunk = if chunks.is_empty() {
            Chunk::new(Vec::new())?
        } else {
            Chunk::concat(&chunks)?
        };
        let mut index: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        if !chunk.is_empty() {
            let key_cols = keys
                .iter()
                .map(|k| k.evaluate(&chunk))
                .collect::<Result<Vec<_>>>()?;
            let mut key: Vec<Value> = Vec::with_capacity(key_cols.len());
            'rows: for row in 0..chunk.len() {
                key.clear();
                for c in &key_cols {
                    let v = c.value_at(row);
                    if v.is_null() {
                        continue 'rows; // null keys never join
                    }
                    key.push(v);
                }
                // Reuse the key buffer; clone only on first occurrence.
                if let Some(rows) = index.get_mut(key.as_slice()) {
                    rows.push(row as u32);
                } else {
                    index.insert(key.clone(), vec![row as u32]);
                }
            }
        }
        Ok(BuildTable { chunk, index })
    }

    /// Approximate resident bytes: materialized rows plus hash-table
    /// entries (key vec + row-id vec overhead per distinct key).
    pub(crate) fn approx_bytes(&self) -> usize {
        const ENTRY_OVERHEAD: usize = 64;
        self.chunk.byte_size()
            + self.index.len() * ENTRY_OVERHEAD
            + self.index.values().map(|v| v.len() * 4).sum::<usize>()
    }
}

/// Gather the combined output chunk for matched (left_rows, right_rows).
fn gather_joined(
    left: &Chunk,
    left_rows: &[u32],
    right: &Chunk,
    right_rows: &[u32],
    schema: &SchemaRef,
) -> Result<Chunk> {
    debug_assert_eq!(left_rows.len(), right_rows.len());
    let l = left.take(left_rows)?;
    let r = right.take(right_rows)?;
    let mut cols = Vec::with_capacity(l.num_columns() + r.num_columns());
    cols.extend(l.columns().iter().cloned());
    cols.extend(r.columns().iter().cloned());
    debug_assert_eq!(cols.len(), schema.len());
    Chunk::new(cols)
}

/// Emit preserved-but-unmatched left rows padded with nulls on the right.
fn gather_left_outer(
    left: &Chunk,
    left_rows: &[u32],
    right_schema: &SchemaRef,
    schema: &SchemaRef,
) -> Result<Chunk> {
    let l = left.take(left_rows)?;
    let mut cols = Vec::with_capacity(schema.len());
    cols.extend(l.columns().iter().cloned());
    for f in &right_schema.fields {
        cols.push(Arc::new(Column::repeat(
            f.data_type,
            &Value::Null,
            left_rows.len(),
        )?));
    }
    Chunk::new(cols)
}

/// Probe `build` with the rows of `probe_chunk`; returns row-id pairs
/// (build side, probe side) plus per-build-row match marks when requested.
fn probe_matches(
    build: &BuildTable,
    probe_chunk: &Chunk,
    probe_keys: &[PhysicalExprRef],
    mut mark_build_matched: Option<&mut [bool]>,
) -> Result<(Vec<u32>, Vec<u32>)> {
    let key_cols = probe_keys
        .iter()
        .map(|k| k.evaluate(probe_chunk))
        .collect::<Result<Vec<_>>>()?;
    let mut build_rows = Vec::new();
    let mut probe_rows = Vec::new();
    let mut key = Vec::with_capacity(key_cols.len());
    'rows: for row in 0..probe_chunk.len() {
        key.clear();
        for c in &key_cols {
            let v = c.value_at(row);
            if v.is_null() {
                continue 'rows;
            }
            key.push(v);
        }
        if let Some(matches) = build.index.get(key.as_slice()) {
            for &b in matches {
                build_rows.push(b);
                probe_rows.push(row as u32);
                if let Some(marks) = mark_build_matched.as_deref_mut() {
                    marks[b as usize] = true;
                }
            }
        }
    }
    Ok((build_rows, probe_rows))
}

/// Finish a build-side-preserving join (left/semi/anti) from match marks.
fn finish_preserved(
    join_type: JoinType,
    build: &BuildTable,
    matched: &[bool],
    right_schema: &SchemaRef,
    schema: &SchemaRef,
    out: &mut Vec<Chunk>,
) -> Result<()> {
    match join_type {
        JoinType::Left => {
            let unmatched: Vec<u32> = matched
                .iter()
                .enumerate()
                .filter(|(_, m)| !**m)
                .map(|(i, _)| i as u32)
                .collect();
            if !unmatched.is_empty() {
                out.push(gather_left_outer(
                    &build.chunk,
                    &unmatched,
                    right_schema,
                    schema,
                )?);
            }
        }
        JoinType::Semi => {
            let hit: Vec<u32> = matched
                .iter()
                .enumerate()
                .filter(|(_, m)| **m)
                .map(|(i, _)| i as u32)
                .collect();
            out.push(build.chunk.take(&hit)?);
        }
        JoinType::Anti => {
            let miss: Vec<u32> = matched
                .iter()
                .enumerate()
                .filter(|(_, m)| !**m)
                .map(|(i, _)| i as u32)
                .collect();
            out.push(build.chunk.take(&miss)?);
        }
        JoinType::Inner => {}
    }
    Ok(())
}

/// Co-partitioned hash join. Build side = left child.
#[derive(Debug)]
pub struct HashJoinExec {
    /// Build (left) child — both children must share partitioning.
    pub left: ExecPlanRef,
    /// Probe (right) child.
    pub right: ExecPlanRef,
    /// Key pairs (left expr over left schema, right expr over right schema).
    pub on: Vec<(PhysicalExprRef, PhysicalExprRef)>,
    /// Join type (left side is the preserved side).
    pub join_type: JoinType,
    /// Output schema.
    pub schema: SchemaRef,
}

impl ExecutionPlan for HashJoinExec {
    fn name(&self) -> &'static str {
        "HashJoin"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn output_partitions(&self) -> usize {
        self.left.output_partitions()
    }

    fn children(&self) -> Vec<ExecPlanRef> {
        vec![Arc::clone(&self.left), Arc::clone(&self.right)]
    }

    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        if self.left.output_partitions() != self.right.output_partitions() {
            return Err(EngineError::internal(
                "hash join children must share partition counts (planner bug)",
            ));
        }
        let out = ctx.instrument_blocking(self, || {
            let build_keys: Vec<PhysicalExprRef> =
                self.on.iter().map(|(l, _)| Arc::clone(l)).collect();
            let probe_keys: Vec<PhysicalExprRef> =
                self.on.iter().map(|(_, r)| Arc::clone(r)).collect();
            // Build phase: drain the left partition.
            let build_chunks: Vec<Chunk> =
                execute(self.left.as_ref(), partition, ctx)?.collect::<Result<_>>()?;
            let build = BuildTable::build(build_chunks, &build_keys)?;
            ctx.charge_memory(build.approx_bytes())?;
            let mut matched = vec![false; build.chunk.len()];
            let track = !matches!(self.join_type, JoinType::Inner);
            // Probe phase.
            let mut out: Vec<Chunk> = Vec::new();
            for chunk in execute(self.right.as_ref(), partition, ctx)? {
                let chunk = chunk?;
                let (b_rows, p_rows) = probe_matches(
                    &build,
                    &chunk,
                    &probe_keys,
                    track.then_some(matched.as_mut_slice()),
                )?;
                if matches!(self.join_type, JoinType::Inner | JoinType::Left) && !b_rows.is_empty()
                {
                    out.push(gather_joined(
                        &build.chunk,
                        &b_rows,
                        &chunk,
                        &p_rows,
                        &self.schema,
                    )?);
                }
            }
            finish_preserved(
                self.join_type,
                &build,
                &matched,
                &self.right.schema(),
                &self.schema,
                &mut out,
            )?;
            Ok(out)
        })?;
        Ok(Box::new(out.into_iter().map(Ok)))
    }

    fn detail(&self) -> String {
        format!("{} on {} keys", self.join_type, self.on.len())
    }
}

/// Broadcast hash join: the right child is materialized once (all
/// partitions) and probed against every left partition.
///
/// The *left* child is the preserved, streamed side; the broadcast side is
/// always the right child, so left/semi/anti semantics stay partition-local.
pub struct BroadcastHashJoinExec {
    /// Streamed (preserved) child.
    pub left: ExecPlanRef,
    /// Broadcast child (fully materialized).
    pub right: ExecPlanRef,
    /// Key pairs (left expr, right expr).
    pub on: Vec<(PhysicalExprRef, PhysicalExprRef)>,
    /// Join type (left side preserved).
    pub join_type: JoinType,
    /// Output schema (left ++ right).
    pub schema: SchemaRef,
    broadcast: OnceLock<Result<Arc<BuildTable>>>,
}

impl std::fmt::Debug for BroadcastHashJoinExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BroadcastHashJoinExec({})", self.join_type)
    }
}

impl BroadcastHashJoinExec {
    /// Create a broadcast join.
    pub fn new(
        left: ExecPlanRef,
        right: ExecPlanRef,
        on: Vec<(PhysicalExprRef, PhysicalExprRef)>,
        join_type: JoinType,
        schema: SchemaRef,
    ) -> Self {
        BroadcastHashJoinExec {
            left,
            right,
            on,
            join_type,
            schema,
            broadcast: OnceLock::new(),
        }
    }

    /// The broadcast table: built by the first partition to ask, awaited
    /// by the others — either way time this partition spends in the join.
    fn broadcast_side(&self, ctx: &TaskContext) -> Result<Arc<BuildTable>> {
        ctx.instrument_blocking(self, || {
            self.broadcast
                .get_or_init(|| {
                    let chunks: Vec<Chunk> =
                        crate::physical::execute_collect_partitions(&self.right, ctx)?
                            .into_iter()
                            .flatten()
                            .collect();
                    let keys: Vec<PhysicalExprRef> =
                        self.on.iter().map(|(_, r)| Arc::clone(r)).collect();
                    let build = BuildTable::build(chunks, &keys)?;
                    ctx.charge_memory(build.approx_bytes())?;
                    Ok(Arc::new(build))
                })
                .clone()
        })
    }
}

impl ExecutionPlan for BroadcastHashJoinExec {
    fn name(&self) -> &'static str {
        "BroadcastHashJoin"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn output_partitions(&self) -> usize {
        self.left.output_partitions()
    }

    fn children(&self) -> Vec<ExecPlanRef> {
        vec![Arc::clone(&self.left), Arc::clone(&self.right)]
    }

    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        let build = self.broadcast_side(ctx)?;
        let out = ctx.instrument_blocking(self, || {
            let left_keys: Vec<PhysicalExprRef> =
                self.on.iter().map(|(l, _)| Arc::clone(l)).collect();
            let mut out: Vec<Chunk> = Vec::new();
            for chunk in execute(self.left.as_ref(), partition, ctx)? {
                let chunk = chunk?;
                // Probe the broadcast table with streamed-side keys; here the
                // *streamed* side is preserved, so roles flip relative to
                // HashJoinExec: matches give (broadcast_row, stream_row).
                let (b_rows, s_rows) = probe_matches(&build, &chunk, &left_keys, None)?;
                match self.join_type {
                    JoinType::Inner => {
                        if !s_rows.is_empty() {
                            out.push(gather_joined(
                                &chunk,
                                &s_rows,
                                &build.chunk,
                                &b_rows,
                                &self.schema,
                            )?);
                        }
                    }
                    JoinType::Left => {
                        if !s_rows.is_empty() {
                            out.push(gather_joined(
                                &chunk,
                                &s_rows,
                                &build.chunk,
                                &b_rows,
                                &self.schema,
                            )?);
                        }
                        let mut matched = vec![false; chunk.len()];
                        for &s in &s_rows {
                            matched[s as usize] = true;
                        }
                        let unmatched: Vec<u32> = (0..chunk.len() as u32)
                            .filter(|&i| !matched[i as usize])
                            .collect();
                        if !unmatched.is_empty() {
                            out.push(gather_left_outer(
                                &chunk,
                                &unmatched,
                                &self.right.schema(),
                                &self.schema,
                            )?);
                        }
                    }
                    JoinType::Semi | JoinType::Anti => {
                        let mut matched = vec![false; chunk.len()];
                        for &s in &s_rows {
                            matched[s as usize] = true;
                        }
                        let want = matches!(self.join_type, JoinType::Semi);
                        let rows: Vec<u32> = (0..chunk.len() as u32)
                            .filter(|&i| matched[i as usize] == want)
                            .collect();
                        out.push(chunk.take(&rows)?);
                    }
                }
            }
            Ok(out)
        })?;
        Ok(Box::new(out.into_iter().map(Ok)))
    }

    fn detail(&self) -> String {
        format!(
            "{} on {} keys, broadcast right",
            self.join_type,
            self.on.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::resolve_expr;
    use crate::expr::col;
    use crate::physical::expr::create_physical_expr;
    use crate::physical::scan::ValuesExec;
    use crate::physical::{execute_collect, ShuffleExec};
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    fn people() -> (ExecPlanRef, SchemaRef) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64).with_qualifier("p"),
            Field::new("name", DataType::Utf8).with_qualifier("p"),
        ]));
        let rows = vec![
            vec![Value::Int64(1), Value::Utf8("alice".into())],
            vec![Value::Int64(2), Value::Utf8("bob".into())],
            vec![Value::Int64(3), Value::Utf8("carol".into())],
        ];
        (
            Arc::new(ValuesExec {
                schema: Arc::clone(&schema),
                rows,
            }),
            schema,
        )
    }

    fn orders() -> (ExecPlanRef, SchemaRef) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("pid", DataType::Int64).with_qualifier("o"),
            Field::new("amount", DataType::Int64).with_qualifier("o"),
        ]));
        let rows = vec![
            vec![Value::Int64(1), Value::Int64(10)],
            vec![Value::Int64(1), Value::Int64(20)],
            vec![Value::Int64(3), Value::Int64(30)],
            vec![Value::Null, Value::Int64(99)],
        ];
        (
            Arc::new(ValuesExec {
                schema: Arc::clone(&schema),
                rows,
            }),
            schema,
        )
    }

    fn key(schema: &SchemaRef, name: &str) -> PhysicalExprRef {
        let e = resolve_expr(&col(name), schema).unwrap();
        create_physical_expr(&e, schema).unwrap()
    }

    fn join_schema(l: &SchemaRef, r: &SchemaRef) -> SchemaRef {
        Arc::new(l.join(r))
    }

    fn shuffle(p: ExecPlanRef, k: PhysicalExprRef, n: usize) -> ExecPlanRef {
        Arc::new(ShuffleExec::new(p, vec![k], n))
    }

    #[test]
    fn partitioned_inner_join() {
        let (p, ps) = people();
        let (o, os) = orders();
        let plan: ExecPlanRef = Arc::new(HashJoinExec {
            left: shuffle(p, key(&ps, "id"), 4),
            right: shuffle(o, key(&os, "pid"), 4),
            on: vec![(key(&ps, "id"), key(&os, "pid"))],
            join_type: JoinType::Inner,
            schema: join_schema(&ps, &os),
        });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 3); // alice x2, carol x1; null pid drops
        let mut names: Vec<String> = (0..out.len())
            .map(|r| out.value_at(1, r).to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["alice", "alice", "carol"]);
    }

    #[test]
    fn partitioned_left_join_pads_nulls() {
        let (p, ps) = people();
        let (o, os) = orders();
        let plan: ExecPlanRef = Arc::new(HashJoinExec {
            left: shuffle(p, key(&ps, "id"), 2),
            right: shuffle(o, key(&os, "pid"), 2),
            on: vec![(key(&ps, "id"), key(&os, "pid"))],
            join_type: JoinType::Left,
            schema: join_schema(&ps, &os),
        });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 4); // 3 matches + bob unmatched
        let bob_row = (0..out.len())
            .find(|&r| out.value_at(1, r) == Value::Utf8("bob".into()))
            .expect("bob present");
        assert_eq!(out.value_at(2, bob_row), Value::Null);
        assert_eq!(out.value_at(3, bob_row), Value::Null);
    }

    #[test]
    fn semi_and_anti_joins() {
        let (p, ps) = people();
        let (o, os) = orders();
        let mk = |jt| -> ExecPlanRef {
            Arc::new(HashJoinExec {
                left: shuffle(people().0, key(&ps, "id"), 2),
                right: shuffle(orders().0, key(&os, "pid"), 2),
                on: vec![(key(&ps, "id"), key(&os, "pid"))],
                join_type: jt,
                schema: ps.clone(),
            })
        };
        let _ = (p, o);
        let semi = execute_collect(&mk(JoinType::Semi), &TaskContext::default()).unwrap();
        assert_eq!(semi.len(), 2); // alice, carol
        let anti = execute_collect(&mk(JoinType::Anti), &TaskContext::default()).unwrap();
        assert_eq!(anti.len(), 1); // bob
        assert_eq!(anti.value_at(1, 0), Value::Utf8("bob".into()));
    }

    #[test]
    fn broadcast_inner_matches_partitioned() {
        let (p, ps) = people();
        let (o, os) = orders();
        let plan: ExecPlanRef = Arc::new(BroadcastHashJoinExec::new(
            p,
            o,
            vec![(key(&ps, "id"), key(&os, "pid"))],
            JoinType::Inner,
            join_schema(&ps, &os),
        ));
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn broadcast_left_join() {
        let (p, ps) = people();
        let (o, os) = orders();
        let plan: ExecPlanRef = Arc::new(BroadcastHashJoinExec::new(
            p,
            o,
            vec![(key(&ps, "id"), key(&os, "pid"))],
            JoinType::Left,
            join_schema(&ps, &os),
        ));
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn empty_build_side() {
        let (_, ps) = people();
        let empty: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&ps),
            rows: vec![],
        });
        let (o, os) = orders();
        let plan: ExecPlanRef = Arc::new(HashJoinExec {
            left: shuffle(empty, key(&ps, "id"), 2),
            right: shuffle(o, key(&os, "pid"), 2),
            on: vec![(key(&ps, "id"), key(&os, "pid"))],
            join_type: JoinType::Inner,
            schema: join_schema(&ps, &os),
        });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 0);
    }
}
