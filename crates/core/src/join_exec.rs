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
use idf_engine::column::{Column, ColumnRef};
use idf_engine::error::{EngineError, Result};
use idf_engine::physical::{
    hash_columns, ExecCache, ExecPlanRef, ExecutionPlan, PhysicalExprRef, TaskContext,
};
use idf_engine::schema::SchemaRef;
use idf_engine::types::Value;

use crate::partition::PartitionSnapshot;
use crate::table::IndexedTable;

/// How the probe side reaches the index partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// Probe rows are hash-partitioned like the index — moved there by an
    /// exchange, or already there — and each partition probes locally.
    Partitioned,
    /// The whole probe side is broadcast to every index partition. Through
    /// the primary index a partition probes only the rows whose key routes
    /// to it ([`IndexedTable::partition_of`]), since a key lives nowhere
    /// else; through a secondary index every partition probes every row,
    /// and keys it does not hold miss (each indexed row lives in exactly
    /// one partition, so no duplicates arise).
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
            ProbeMode::Partitioned => {
                idf_engine::physical::execute(self.probe.as_ref(), partition, ctx)?.collect()
            }
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
    /// Three phases: (1) group — each distinct non-NULL key of the chunk
    /// that can match here is listed once ([`group_keys`]); (2) probe —
    /// one cTrie lookup and backward-pointer walk per listed key, all
    /// walked together ([`PartitionSnapshot::walk_chains`]); (3) gather —
    /// each probe row takes its key's matched payloads, latest first, and
    /// those are decoded column-at-a-time, the probe side with a columnar
    /// `take`. The indexed *key* column is taken from the probe keys
    /// directly (equal by definition of the equi-join). `home` is
    /// `Some(partition)` when only keys that route to this partition can
    /// match here.
    fn join_chunk(
        &self,
        snapshot: &PartitionSnapshot,
        home: Option<usize>,
        probe_chunk: &Chunk,
        indexed_cols: &[usize],
    ) -> Result<Option<Chunk>> {
        let keys = self.probe_key.evaluate(probe_chunk)?;
        let (firsts, mut key_of) = group_keys(&keys);
        // The distinct keys that can match here, and each probe row's
        // key's place among them (`NONE`: NULL, or a key that cannot).
        let mut distinct: Vec<Value> = Vec::with_capacity(firsts.len());
        let places: Vec<u32> = firsts
            .iter()
            .map(|&row| {
                let key = keys.value_at(row as usize);
                if home.is_some_and(|p| self.table.partition_of(&key) != p) {
                    return NONE;
                }
                distinct.push(key);
                distinct.len() as u32 - 1
            })
            .collect();
        for place in &mut key_of {
            if *place != NONE {
                *place = places[*place as usize];
            }
        }
        // THE index probe: cTrie lookups + backward-pointer walks.
        let found = snapshot.walk_chains(&distinct, None)?;
        let mut probe_rows: Vec<u32> = Vec::with_capacity(found.payloads.len());
        let mut matched: Vec<&[u8]> = Vec::with_capacity(found.payloads.len());
        for (row, &place) in key_of.iter().enumerate() {
            if place != NONE {
                let rows = &found.payloads[found.of_key(place as usize)];
                probe_rows.extend(std::iter::repeat_n(row as u32, rows.len()));
                matched.extend_from_slice(rows);
            }
        }
        if probe_rows.is_empty() {
            return Ok(None);
        }
        let key_col = self.table.key_col();
        let indexed_part: Vec<Arc<Column>> = indexed_cols
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

/// No place: a NULL key, or one that cannot match.
const NONE: u32 = u32::MAX;

/// The distinct non-NULL values of `keys`: the row each is first seen at,
/// and per row its value's position among them (`NONE` for a NULL). The
/// rows are hashed on the typed column as a shuffle hashes them and equal
/// values are found by comparing slots (floats by their bits, as `Value`
/// compares them), so no `Value` is built per row.
fn group_keys(keys: &ColumnRef) -> (Vec<u32>, Vec<u32>) {
    let rows = keys.len();
    let hashes = hash_columns(std::slice::from_ref(keys), rows);
    // Open addressing at most half full: each slot holds a position in
    // `firsts`.
    let mask = (rows * 2).next_power_of_two() - 1;
    let mut slots = vec![NONE; mask + 1];
    let mut firsts: Vec<u32> = Vec::new();
    let mut places = Vec::with_capacity(rows);
    for (row, &hash) in hashes.iter().enumerate() {
        if !keys.is_valid(row) {
            places.push(NONE);
            continue;
        }
        let mut at = hash as usize & mask;
        let place = loop {
            let seen = slots[at];
            if seen == NONE {
                slots[at] = firsts.len() as u32;
                firsts.push(row as u32);
                break slots[at];
            }
            let first = firsts[seen as usize] as usize;
            if hashes[first] == hash && same_value(keys, first, row) {
                break seen;
            }
            at = (at + 1) & mask;
        };
        places.push(place);
    }
    (firsts, places)
}

/// Whether rows `a` and `b` of `column`, both valid, hold the same value.
fn same_value(column: &Column, a: usize, b: usize) -> bool {
    match column {
        Column::Boolean(v) => v.values[a] == v.values[b],
        Column::Int32(v) => v.values[a] == v.values[b],
        Column::Int64(v) => v.values[a] == v.values[b],
        Column::Float64(v) => v.values[a].to_bits() == v.values[b].to_bits(),
        Column::Utf8(v) => v.bytes_at(a) == v.bytes_at(b),
        Column::Timestamp(v) => v.values[a] == v.values[b],
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

    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
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
        // A broadcast probe of the primary index goes to the key's home
        // partition only; a partitioned probe is already there.
        let home =
            (self.mode == ProbeMode::Broadcast && self.table.is_primary()).then_some(partition);
        let out = ctx.instrument_blocking(self, || {
            let snapshot = self.table.partition_snapshot(partition);
            let mut out = Vec::new();
            for chunk in self.probe_chunks(partition, ctx)? {
                ctx.check_cancelled()?;
                if let Some(joined) = self.join_chunk(&snapshot, home, &chunk, &indexed_cols)? {
                    out.push(joined);
                }
            }
            Ok(out)
        })?;
        Ok(Box::new(out.into_iter().map(Ok)))
    }

    fn detail(&self) -> String {
        format!(
            "build=index({}), probe {:?}",
            self.table.schema().field(self.table.key_col()).name,
            self.mode
        )
    }
}
