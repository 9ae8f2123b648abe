//! The indexed equi-join operator.
//!
//! Paper, §2 (*Indexed Join*): *"To join an Indexed DataFrame and a
//! (regular) Dataframe, the rows of the latter are shuffled according to
//! the hash partitioning scheme of the former. As the build side is already
//! created in the form of the index, the probes are made locally from the
//! shuffled rows. When the Dataframe size is small enough to be broadcasted
//! efficiently, our implementation falls back to a broadcast-join instead
//! of a shuffle."*
//!
//! The crucial asymmetry versus the vanilla hash join: there is **no build
//! phase**. The cTrie *is* the build table, amortized across every query,
//! and appends keep it current — this is where the paper's join speedups
//! come from.

use std::sync::Arc;

use idf_engine::catalog::ChunkIter;
use idf_engine::chunk::Chunk;
use idf_engine::error::{EngineError, Result};
use idf_engine::physical::{ExecCache, ExecPlanRef, ExecutionPlan, PhysicalExprRef, TaskContext};
use idf_engine::schema::SchemaRef;

use crate::partition::PartitionSnapshot;
use crate::table::IndexedTable;

/// How the probe side reaches the index partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// Probe rows are hash-partitioned like the index — moved there by an
    /// exchange, or already there — and each partition probes locally.
    Partitioned,
    /// The whole probe side is broadcast to every index partition; foreign
    /// keys simply miss (each indexed row lives in exactly one partition,
    /// so no duplicates arise — through a secondary index too).
    Broadcast,
}

/// Inner equi-join with a pre-built index as the build side.
pub struct IndexedJoinExec {
    /// The indexed (build) table.
    pub table: Arc<IndexedTable>,
    /// Columns of the indexed side to emit (scan projection), `None` = all.
    pub indexed_projection: Option<Vec<usize>>,
    /// The probe side (partitioned like the index or not, per `mode`).
    pub probe: ExecPlanRef,
    /// Key expression over the probe schema.
    pub probe_key: PhysicalExprRef,
    /// Whether the indexed side is the logical *left* input (controls
    /// output column order).
    pub indexed_is_left: bool,
    /// Output schema.
    pub schema: SchemaRef,
    /// Probe delivery mode.
    pub mode: ProbeMode,
    /// Per-execution cache of the broadcast probe side (see
    /// [`ExecCache`]: a plain `OnceLock` would replay stale probe data
    /// when the same plan is executed again).
    broadcast: ExecCache<Arc<Vec<Chunk>>>,
}

impl IndexedJoinExec {
    /// Create an indexed join.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        table: Arc<IndexedTable>,
        indexed_projection: Option<Vec<usize>>,
        probe: ExecPlanRef,
        probe_key: PhysicalExprRef,
        indexed_is_left: bool,
        schema: SchemaRef,
        mode: ProbeMode,
    ) -> Self {
        IndexedJoinExec {
            table,
            indexed_projection,
            probe,
            probe_key,
            indexed_is_left,
            schema,
            mode,
            broadcast: ExecCache::new(),
        }
    }

    fn probe_chunks(&self, partition: usize, ctx: &TaskContext) -> Result<Vec<Chunk>> {
        match self.mode {
            ProbeMode::Partitioned => self.probe.execute(partition, ctx)?.collect(),
            ProbeMode::Broadcast => {
                let all = self.broadcast.get_or_try_init(ctx, || {
                    let parts = idf_engine::physical::execute_collect_partitions(&self.probe, ctx)?;
                    Ok(Arc::new(parts.into_iter().flatten().collect()))
                })?;
                Ok(all.as_ref().clone())
            }
        }
    }

    /// Join one probe chunk against one partition's index.
    ///
    /// Two phases: (1) probe — cTrie lookups and backward-pointer walks
    /// collect the matched payload slices; (2) gather — matched payloads
    /// are decoded column-at-a-time (vectorized), the probe side with a
    /// columnar `take`, and the indexed *key* column is materialized from
    /// the probe keys directly (equal by definition of the equi-join).
    fn join_chunk(
        &self,
        snapshot: &PartitionSnapshot,
        probe_chunk: &Chunk,
        indexed_cols: &[usize],
    ) -> Result<Option<Chunk>> {
        let keys = self.probe_key.evaluate(probe_chunk)?;
        let mut probe_rows: Vec<u32> = Vec::new();
        let mut matched: Vec<&[u8]> = Vec::new();
        for row in 0..probe_chunk.len() {
            let key = keys.value_at(row);
            if key.is_null() {
                continue;
            }
            // THE index probe: cTrie lookup + backward-pointer walk.
            for payload in snapshot.lookup_payloads(&key) {
                matched.push(payload?);
                probe_rows.push(row as u32);
            }
        }
        if probe_rows.is_empty() {
            return Ok(None);
        }
        let key_col = self.table.key_col();
        let indexed_part: Vec<Arc<idf_engine::column::Column>> = indexed_cols
            .iter()
            .map(|&c| {
                if c == key_col {
                    Ok(Arc::new(keys.take(&probe_rows)))
                } else {
                    Ok(Arc::new(snapshot.decode_column_batch(&matched, c)?))
                }
            })
            .collect::<Result<_>>()?;
        let probe_part = probe_chunk.take(&probe_rows)?;
        let mut columns = Vec::with_capacity(self.schema.len());
        if self.indexed_is_left {
            columns.extend(indexed_part);
            columns.extend(probe_part.columns().iter().cloned());
        } else {
            columns.extend(probe_part.columns().iter().cloned());
            columns.extend(indexed_part);
        }
        Ok(Some(Chunk::new(columns)?))
    }
}

impl std::fmt::Debug for IndexedJoinExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IndexedJoinExec({:?})", self.mode)
    }
}

impl ExecutionPlan for IndexedJoinExec {
    fn name(&self) -> &'static str {
        "IndexedJoin"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn output_partitions(&self) -> usize {
        self.table.num_partitions()
    }

    fn children(&self) -> Vec<ExecPlanRef> {
        vec![Arc::clone(&self.probe)]
    }

    fn execute(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        if self.mode == ProbeMode::Partitioned
            && self.probe.output_partitions() != self.table.num_partitions()
        {
            return Err(EngineError::internal(
                "partitioned probe side must match the index partitioning (strategy bug)",
            ));
        }
        let indexed_cols: Vec<usize> = match &self.indexed_projection {
            Some(p) => p.clone(),
            None => (0..self.table.schema().len()).collect(),
        };
        // The probe is the operator's work; running it under the context
        // puts its time in EXPLAIN ANALYZE and checks the lifecycle first.
        let out = ctx.instrument_blocking(self, || {
            let snapshot = self.table.partition_snapshot(partition);
            let mut out = Vec::new();
            for chunk in self.probe_chunks(partition, ctx)? {
                ctx.check_cancelled()?;
                if let Some(joined) = self.join_chunk(&snapshot, &chunk, &indexed_cols)? {
                    out.push(joined);
                }
            }
            Ok(out)
        })?;
        Ok(ctx.instrument(self, Box::new(out.into_iter().map(Ok))))
    }

    fn detail(&self) -> String {
        format!(
            "build=index({}), probe {:?}",
            self.table.schema().field(self.table.key_col()).name,
            self.mode
        )
    }
}
