//! Hash aggregation on columns.
//!
//! Each input chunk is reduced in two steps (the split of "find the
//! groups" from "aggregate per group"): a group-id kernel maps every row
//! to a dense group id straight from the typed key columns, then each
//! aggregate's columnar accumulator — a `Vec<i64>`/`Vec<f64>` plus a
//! "saw a value" flag, indexed by group id — is updated in one typed loop
//! per argument column. Output columns are those vectors; no scalar is
//! boxed per cell. A global aggregate is the one-group case of the same
//! code.
//!
//! The operator runs in one of three [`AggMode`]s. Where the input is
//! already partitioned by the group keys (or is a single partition) the
//! planner runs it once, `Single`. Otherwise it runs `Partial` below the
//! exchange — emitting per-group *state* columns, e.g. `avg` as (sum,
//! count) — and `Final` above it, merging states, so the exchange moves one
//! row per group and partition instead of one per input row.
//!
//! The kernel does not adapt to the data: there is no switch on observed
//! cardinality, and a two-phase plan with about one group per row does the
//! grouping work twice.

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::catalog::ChunkIter;
use crate::chunk::Chunk;
use crate::column::{Column, ColumnRef, PrimVec, StrVec};
use crate::error::{EngineError, Result};
use crate::expr::AggFunc;
use crate::physical::expr::column_expr;
use crate::physical::{
    mix64, position_of_column, ExecPlanRef, ExecutionPlan, Partitioning, PhysicalExprRef,
    TaskContext,
};
use crate::schema::{Field, Schema, SchemaRef};
use crate::types::DataType;

/// One aggregate to compute.
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression (`None` = `COUNT(*)`).
    pub arg: Option<PhysicalExprRef>,
    /// Output type (from the analyzer).
    pub output_type: DataType,
}

/// Which phase of an aggregation an operator computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// Input rows to final values, in one pass.
    Single,
    /// Input rows to per-group state columns (below an exchange).
    Partial,
    /// State columns to final values (above the exchange).
    Final,
}

/// What one accumulator does with its argument column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Count rows (no argument) or non-null values.
    Count,
    /// Add up partial counts; never NULL.
    AddCounts,
    /// Wrapping integer sum; NULL if no value.
    SumInt,
    /// Float sum; NULL if no value.
    SumFloat,
    /// Smallest value; NULL if none.
    Min,
    /// Largest value; NULL if none.
    Max,
}

/// One accumulator column: its fold, its argument (`None` counts rows) and
/// the type of the column it emits.
#[derive(Debug)]
struct Slot {
    fold: Fold,
    arg: Option<PhysicalExprRef>,
    data_type: DataType,
}

/// The accumulator columns that carry `spec`. In `Final` mode they read the
/// partial operator's state columns, which start at input column `*next`.
fn slots_for(spec: &AggregateSpec, mode: AggMode, next: &mut usize) -> Vec<Slot> {
    let sum = match spec.output_type {
        DataType::Float64 => Fold::SumFloat,
        _ => Fold::SumInt,
    };
    // (fold over input rows, fold over partial states, state type)
    let shape: Vec<(Fold, Fold, DataType)> = match spec.func {
        AggFunc::Count => vec![(Fold::Count, Fold::AddCounts, DataType::Int64)],
        AggFunc::Sum => vec![(sum, sum, spec.output_type)],
        AggFunc::Min => vec![(Fold::Min, Fold::Min, spec.output_type)],
        AggFunc::Max => vec![(Fold::Max, Fold::Max, spec.output_type)],
        AggFunc::Avg => vec![
            (Fold::SumFloat, Fold::SumFloat, DataType::Float64),
            (Fold::Count, Fold::AddCounts, DataType::Int64),
        ],
    };
    shape
        .into_iter()
        .map(|(over_rows, over_states, data_type)| {
            if mode == AggMode::Final {
                let arg = Some(column_expr(*next, data_type));
                *next += 1;
                Slot {
                    fold: over_states,
                    arg,
                    data_type,
                }
            } else {
                Slot {
                    fold: over_rows,
                    arg: spec.arg.clone(),
                    data_type,
                }
            }
        })
        .collect()
}

/// The group each row of a chunk belongs to.
enum GroupIds<'a> {
    /// A global aggregate: every row is in group 0.
    One,
    /// One dense group id per row.
    PerRow(&'a [u32]),
}

/// Image of an `f64` under which `i64` order is `f64::total_cmp` order
/// (its own inverse).
#[inline]
fn float_order_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// One accumulator column, indexed by group id.
struct Acc {
    fold: Fold,
    data_type: DataType,
    /// Whether the group has folded in a value yet.
    seen: Vec<bool>,
    state: AccState,
}

enum AccState {
    /// Counts, integer sums, and min/max of every fixed-width type through
    /// an order-preserving `i64` image.
    Ints(Vec<i64>),
    Floats(Vec<f64>),
    /// Min/max of strings.
    Strs(Vec<Option<String>>),
}

/// `acc[g] = op(acc[g], x)` over the non-null values `x` of `v`, `g` the
/// row's group; marks the group seen.
fn fold_values<T: Copy, A: Copy>(
    acc: &mut [A],
    seen: &mut [bool],
    ids: &GroupIds<'_>,
    v: &PrimVec<T>,
    op: impl Fn(A, T) -> A,
) {
    match (ids, &v.validity) {
        (GroupIds::One, None) => {
            acc[0] = v.values.iter().fold(acc[0], |a, &x| op(a, x));
            seen[0] |= !v.values.is_empty();
        }
        (GroupIds::One, Some(valid)) => {
            for (i, &x) in v.values.iter().enumerate() {
                if valid.get(i) {
                    acc[0] = op(acc[0], x);
                    seen[0] = true;
                }
            }
        }
        (GroupIds::PerRow(ids), None) => {
            for (&g, &x) in ids.iter().zip(&v.values) {
                acc[g as usize] = op(acc[g as usize], x);
                seen[g as usize] = true;
            }
        }
        (GroupIds::PerRow(ids), Some(valid)) => {
            for (i, (&g, &x)) in ids.iter().zip(&v.values).enumerate() {
                if valid.get(i) {
                    acc[g as usize] = op(acc[g as usize], x);
                    seen[g as usize] = true;
                }
            }
        }
    }
}

impl Acc {
    fn new(slot: &Slot) -> Acc {
        let state = match (slot.fold, slot.data_type) {
            (Fold::SumFloat, _) => AccState::Floats(Vec::new()),
            (Fold::Min | Fold::Max, DataType::Utf8) => AccState::Strs(Vec::new()),
            _ => AccState::Ints(Vec::new()),
        };
        Acc {
            fold: slot.fold,
            data_type: slot.data_type,
            seen: Vec::new(),
            state,
        }
    }

    /// Make room for `groups` groups, new ones at the fold's identity.
    fn grow(&mut self, groups: usize) {
        self.seen.resize(groups, false);
        match &mut self.state {
            AccState::Ints(v) => v.resize(
                groups,
                match self.fold {
                    Fold::Min => i64::MAX,
                    Fold::Max => i64::MIN,
                    _ => 0,
                },
            ),
            AccState::Floats(v) => v.resize(groups, 0.0),
            AccState::Strs(v) => v.resize(groups, None),
        }
    }

    fn byte_size(&self) -> usize {
        self.seen.len()
            + match &self.state {
                AccState::Ints(v) => v.len() * 8,
                AccState::Floats(v) => v.len() * 8,
                AccState::Strs(v) => v
                    .iter()
                    .map(|s| {
                        std::mem::size_of::<Option<String>>() + s.as_ref().map_or(0, String::len)
                    })
                    .sum(),
            }
    }

    /// Fold one chunk's argument column (`None`: count its `rows` rows)
    /// into the groups its rows belong to.
    fn update(&mut self, ids: &GroupIds<'_>, arg: Option<&Column>, rows: usize) -> Result<()> {
        let Acc {
            fold, seen, state, ..
        } = self;
        match (*fold, state, arg) {
            (Fold::Count, AccState::Ints(acc), arg) => {
                match (ids, arg.and_then(Column::validity)) {
                    (GroupIds::One, None) => acc[0] += rows as i64,
                    (GroupIds::One, Some(valid)) => acc[0] += valid.count_ones() as i64,
                    (GroupIds::PerRow(ids), None) => {
                        for &g in ids.iter() {
                            acc[g as usize] += 1;
                        }
                    }
                    (GroupIds::PerRow(ids), Some(valid)) => {
                        for (i, &g) in ids.iter().enumerate() {
                            acc[g as usize] += i64::from(valid.get(i));
                        }
                    }
                }
            }
            (Fold::AddCounts | Fold::SumInt, AccState::Ints(acc), Some(Column::Int64(v))) => {
                fold_values(acc, seen, ids, v, |a, x| a.wrapping_add(x))
            }
            (Fold::SumInt, AccState::Ints(acc), Some(Column::Int32(v))) => {
                fold_values(acc, seen, ids, v, |a, x| a.wrapping_add(i64::from(x)))
            }
            (Fold::SumFloat, AccState::Floats(acc), Some(Column::Float64(v))) => {
                fold_values(acc, seen, ids, v, |a, x| a + x)
            }
            (Fold::SumFloat, AccState::Floats(acc), Some(Column::Int64(v))) => {
                fold_values(acc, seen, ids, v, |a, x| a + x as f64)
            }
            (Fold::SumFloat, AccState::Floats(acc), Some(Column::Int32(v))) => {
                fold_values(acc, seen, ids, v, |a, x| a + f64::from(x))
            }
            (Fold::Min | Fold::Max, AccState::Ints(acc), Some(column)) => {
                let max = *fold == Fold::Max;
                let pick = move |a: i64, key: i64| if max { a.max(key) } else { a.min(key) };
                match column {
                    Column::Boolean(v) => {
                        fold_values(acc, seen, ids, v, |a, x| pick(a, i64::from(x)))
                    }
                    Column::Int32(v) => {
                        fold_values(acc, seen, ids, v, |a, x| pick(a, i64::from(x)))
                    }
                    Column::Int64(v) | Column::Timestamp(v) => fold_values(acc, seen, ids, v, pick),
                    Column::Float64(v) => fold_values(acc, seen, ids, v, |a, x| {
                        pick(a, float_order_key(x.to_bits() as i64))
                    }),
                    Column::Utf8(_) => return Err(Self::mismatch(*fold, column)),
                }
            }
            (Fold::Min | Fold::Max, AccState::Strs(acc), Some(Column::Utf8(v))) => {
                let max = *fold == Fold::Max;
                for i in 0..v.len() {
                    let Some(s) = v.get(i) else { continue };
                    let g = match ids {
                        GroupIds::One => 0,
                        GroupIds::PerRow(ids) => ids[i] as usize,
                    };
                    let better =
                        acc[g]
                            .as_deref()
                            .is_none_or(|best| if max { s > best } else { s < best });
                    if better {
                        acc[g] = Some(s.to_owned());
                    }
                }
            }
            (fold, _, Some(column)) => return Err(Self::mismatch(fold, column)),
            (fold, _, None) => {
                return Err(EngineError::internal(format!(
                    "aggregate {fold:?} needs an argument"
                )))
            }
        }
        Ok(())
    }

    fn mismatch(fold: Fold, column: &Column) -> EngineError {
        EngineError::type_err(format!(
            "aggregate {fold:?} cannot take a {} argument",
            column.data_type()
        ))
    }

    /// The accumulated column, typed `data_type`.
    fn finish(self) -> Result<Column> {
        let Acc {
            fold,
            data_type,
            seen,
            state,
        } = self;
        let validity = match fold {
            Fold::Count | Fold::AddCounts => None,
            _ if seen.iter().all(|&s| s) => None,
            _ => Some(Bitmap::from_bools(&seen)),
        };
        Ok(match (state, data_type) {
            (AccState::Ints(values), DataType::Int64) => {
                Column::Int64(PrimVec { values, validity })
            }
            (AccState::Ints(values), DataType::Timestamp) => {
                Column::Timestamp(PrimVec { values, validity })
            }
            (AccState::Ints(keys), DataType::Int32) => Column::Int32(PrimVec {
                values: keys.into_iter().map(|k| k as i32).collect(),
                validity,
            }),
            (AccState::Ints(keys), DataType::Boolean) => Column::Boolean(PrimVec {
                values: keys.into_iter().map(|k| k == 1).collect(),
                validity,
            }),
            (AccState::Ints(keys), DataType::Float64) => Column::Float64(PrimVec {
                values: keys
                    .into_iter()
                    .map(|k| f64::from_bits(float_order_key(k) as u64))
                    .collect(),
                validity,
            }),
            (AccState::Floats(values), DataType::Float64) => {
                Column::Float64(PrimVec { values, validity })
            }
            (AccState::Strs(values), DataType::Utf8) => Column::Utf8(StrVec::from_options(&values)),
            (_, data_type) => {
                return Err(EngineError::internal(format!(
                    "aggregate {fold:?} cannot produce {data_type}"
                )))
            }
        })
    }
}

/// `sum / count` per group; NULL where the count is zero.
fn finish_avg(sum: Column, count: Column) -> Result<Column> {
    let (Column::Float64(sum), Column::Int64(count)) = (sum, count) else {
        return Err(EngineError::internal("avg state is (FLOAT64, INT64)"));
    };
    Ok(Column::Float64(
        sum.values
            .iter()
            .zip(&count.values)
            .map(|(&s, &n)| (n != 0).then(|| s / n as f64))
            .collect(),
    ))
}

/// Marks a vacant hash-table slot (and "no NULL group yet").
const NO_GROUP: u32 = u32::MAX;

/// A per-table hash seed, so which keys collide is not a property of the
/// data alone.
fn table_seed() -> u64 {
    use std::hash::BuildHasher;
    std::collections::hash_map::RandomState::new().hash_one(0u64)
}

#[derive(Clone, Copy)]
struct IntSlot {
    key: i64,
    gid: u32,
}

/// Open-addressed table from one integer key to its group id: linear
/// probing over `(key, gid)` pairs at load factor at most one half.
struct IntTable {
    slots: Vec<IntSlot>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the slot.
    shift: u32,
    seed: u64,
    null_gid: u32,
}

impl IntTable {
    const VACANT: IntSlot = IntSlot {
        key: 0,
        gid: NO_GROUP,
    };

    fn new() -> IntTable {
        IntTable {
            slots: vec![Self::VACANT; 1024],
            shift: 64 - 10,
            seed: table_seed(),
            null_gid: NO_GROUP,
        }
    }

    #[inline]
    fn home(&self, key: i64) -> usize {
        ((key as u64 ^ self.seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The group of `key`; a key not seen before becomes group `*groups`.
    #[inline]
    fn group_of(&mut self, key: i64, groups: &mut usize) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if slot.gid == NO_GROUP {
                break;
            }
            if slot.key == key {
                return slot.gid;
            }
            i = (i + 1) & mask;
        }
        let gid = *groups as u32;
        self.slots[i] = IntSlot { key, gid };
        *groups += 1;
        if *groups * 2 > self.slots.len() {
            self.grow();
        }
        gid
    }

    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![Self::VACANT; old.len() * 2];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.gid != NO_GROUP) {
            let mut i = self.home(slot.key);
            while self.slots[i].gid != NO_GROUP {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Group ids for a chunk's key values (`NULL` is a group of its own),
    /// noting the first row of every new group.
    fn assign<T: Copy + Into<i64>>(
        &mut self,
        v: &PrimVec<T>,
        groups: &mut usize,
        ids: &mut Vec<u32>,
        new_rows: &mut Vec<u32>,
    ) {
        for (row, &x) in v.values.iter().enumerate() {
            let before = *groups;
            let gid = if v.validity.as_ref().is_none_or(|valid| valid.get(row)) {
                self.group_of(x.into(), groups)
            } else {
                if self.null_gid == NO_GROUP {
                    self.null_gid = *groups as u32;
                    *groups += 1;
                }
                self.null_gid
            };
            if *groups != before {
                new_rows.push(row as u32);
            }
            ids.push(gid);
        }
    }
}

#[derive(Clone, Copy)]
struct PackedSlot {
    hash: u64,
    gid: u32,
}

/// Open-addressed table from a packed row key to its group id. Keys live
/// back to back in one arena; a slot remembers the key's hash, so growing
/// rehashes nothing and a probe compares bytes only on a hash match.
struct PackedTable {
    slots: Vec<PackedSlot>,
    seed: u64,
    arena: Vec<u8>,
    /// Group `g`'s key is `arena[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
}

impl PackedTable {
    const VACANT: PackedSlot = PackedSlot {
        hash: 0,
        gid: NO_GROUP,
    };

    fn new() -> PackedTable {
        PackedTable {
            slots: vec![Self::VACANT; 1024],
            seed: table_seed(),
            arena: Vec::new(),
            starts: vec![0],
        }
    }

    fn hash(&self, key: &[u8]) -> u64 {
        let mut h = self.seed ^ key.len() as u64;
        let mut words = key.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            h = mix64(h ^ u64::from_le_bytes(w));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            h = mix64(h ^ u64::from_le_bytes(w));
        }
        h
    }

    /// The group of `key`; a key not seen before becomes group `*groups`.
    fn group_of(&mut self, key: &[u8], groups: &mut usize) -> u32 {
        let hash = self.hash(key);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.gid == NO_GROUP {
                break;
            }
            let g = slot.gid as usize;
            if slot.hash == hash && &self.arena[self.starts[g]..self.starts[g + 1]] == key {
                return slot.gid;
            }
            i = (i + 1) & mask;
        }
        let gid = *groups as u32;
        self.slots[i] = PackedSlot { hash, gid };
        self.arena.extend_from_slice(key);
        self.starts.push(self.arena.len());
        *groups += 1;
        if *groups * 2 > self.slots.len() {
            let old = std::mem::take(&mut self.slots);
            self.slots = vec![Self::VACANT; old.len() * 2];
            let mask = self.slots.len() - 1;
            for slot in old.into_iter().filter(|s| s.gid != NO_GROUP) {
                let mut i = slot.hash as usize & mask;
                while self.slots[i].gid != NO_GROUP {
                    i = (i + 1) & mask;
                }
                self.slots[i] = slot;
            }
        }
        gid
    }

    /// Append row `row` of `column` to `key`: a validity byte, then the
    /// value's bytes (strings length-prefixed), so equal bytes mean equal
    /// values — floats by bit pattern, as `Value`'s `Eq` has it.
    fn pack(key: &mut Vec<u8>, column: &Column, row: usize) {
        if !column.is_valid(row) {
            key.push(0);
            return;
        }
        key.push(1);
        match column {
            Column::Boolean(v) => key.push(u8::from(v.values[row])),
            Column::Int32(v) => key.extend_from_slice(&v.values[row].to_le_bytes()),
            Column::Int64(v) | Column::Timestamp(v) => {
                key.extend_from_slice(&v.values[row].to_le_bytes())
            }
            Column::Float64(v) => key.extend_from_slice(&v.values[row].to_bits().to_le_bytes()),
            Column::Utf8(v) => {
                let (start, end) = (v.offsets[row] as usize, v.offsets[row + 1] as usize);
                key.extend_from_slice(&((end - start) as u32).to_le_bytes());
                key.extend_from_slice(&v.bytes[start..end]);
            }
        }
    }
}

enum GroupTable {
    /// No keys: one group.
    Global,
    /// One `Int32`/`Int64`/`Timestamp` key, probed on its raw value.
    Int(IntTable),
    /// Anything else: the row's keys packed into bytes, hashed once.
    Packed(PackedTable),
}

/// The group-id kernel: assigns every input row a dense group id (in order
/// of first appearance) and keeps each group's key values.
struct Grouper {
    table: GroupTable,
    groups: usize,
    key_types: Vec<DataType>,
    /// Key columns of the groups first seen in one input chunk, in group
    /// order; concatenated they are the output's key columns.
    key_pieces: Vec<Chunk>,
    ids: Vec<u32>,
    new_rows: Vec<u32>,
    packed: Vec<u8>,
}

impl Grouper {
    fn new(key_types: Vec<DataType>) -> Grouper {
        let (table, groups) = match key_types.as_slice() {
            [] => (GroupTable::Global, 1),
            [DataType::Int32 | DataType::Int64 | DataType::Timestamp] => {
                (GroupTable::Int(IntTable::new()), 0)
            }
            _ => (GroupTable::Packed(PackedTable::new()), 0),
        };
        Grouper {
            table,
            groups,
            key_types,
            key_pieces: Vec::new(),
            ids: Vec::new(),
            new_rows: Vec::new(),
            packed: Vec::new(),
        }
    }

    /// Group ids for the `rows` rows of one chunk's key columns, and the
    /// number of groups so far.
    fn assign(&mut self, keys: &[ColumnRef], rows: usize) -> Result<(usize, GroupIds<'_>)> {
        // Group ids are `u32`, `NO_GROUP` excepted.
        if self.groups + rows >= NO_GROUP as usize {
            return Err(EngineError::resource(format!(
                "aggregation exceeds {NO_GROUP} groups"
            )));
        }
        self.ids.clear();
        self.ids.reserve(rows);
        self.new_rows.clear();
        let (groups, ids, new_rows) = (&mut self.groups, &mut self.ids, &mut self.new_rows);
        match (&mut self.table, keys) {
            (GroupTable::Global, _) => return Ok((1, GroupIds::One)),
            (GroupTable::Int(table), [key]) => match key.as_ref() {
                Column::Int32(v) => table.assign(v, groups, ids, new_rows),
                Column::Int64(v) | Column::Timestamp(v) => table.assign(v, groups, ids, new_rows),
                other => {
                    return Err(EngineError::type_err(format!(
                        "group key evaluated to {}, planned as {}",
                        other.data_type(),
                        self.key_types[0]
                    )))
                }
            },
            (GroupTable::Packed(table), keys) => {
                for row in 0..rows {
                    self.packed.clear();
                    for key in keys {
                        PackedTable::pack(&mut self.packed, key, row);
                    }
                    let before = *groups;
                    ids.push(table.group_of(&self.packed, groups));
                    if *groups != before {
                        new_rows.push(row as u32);
                    }
                }
            }
            (GroupTable::Int(_), _) => {
                return Err(EngineError::internal("integer group table takes one key"))
            }
        }
        if !self.new_rows.is_empty() {
            let piece = keys
                .iter()
                .map(|k| Arc::new(k.take(&self.new_rows)))
                .collect();
            self.key_pieces.push(Chunk::new(piece)?);
        }
        Ok((self.groups, GroupIds::PerRow(&self.ids)))
    }

    fn byte_size(&self) -> usize {
        self.key_pieces.iter().map(Chunk::byte_size).sum::<usize>()
            + match &self.table {
                GroupTable::Global => 0,
                GroupTable::Int(t) => t.slots.len() * std::mem::size_of::<IntSlot>(),
                GroupTable::Packed(t) => {
                    t.slots.len() * std::mem::size_of::<PackedSlot>()
                        + t.arena.len()
                        + t.starts.len() * std::mem::size_of::<usize>()
                }
            }
    }

    /// The key columns, one row per group in group-id order.
    fn into_key_columns(self) -> Result<Vec<ColumnRef>> {
        if self.key_pieces.is_empty() {
            return Ok(self
                .key_types
                .iter()
                .map(|&dt| Arc::new(Column::empty(dt)))
                .collect());
        }
        Ok(Chunk::concat(&self.key_pieces)?.columns().to_vec())
    }
}

/// Hash-based grouped aggregation over one partition.
#[derive(Debug)]
pub struct HashAggregateExec {
    input: ExecPlanRef,
    mode: AggMode,
    group_exprs: Vec<PhysicalExprRef>,
    aggs: Vec<AggregateSpec>,
    slots: Vec<Slot>,
    /// What this operator emits: the aggregation's output schema, or in
    /// `Partial` mode the group columns followed by the state columns.
    schema: SchemaRef,
}

impl HashAggregateExec {
    /// Aggregate `input` by `group_exprs`. `schema` is the aggregation's
    /// output schema (group columns, then one column per aggregate) in every
    /// mode; a `Partial` operator derives its own state schema from it. In
    /// `Final` mode `input` must be the (exchanged) output of the `Partial`
    /// operator over the same `aggs` and `group_exprs` must name its leading
    /// columns; the aggregates then read its state columns, not their `arg`.
    pub fn new(
        input: ExecPlanRef,
        mode: AggMode,
        group_exprs: Vec<PhysicalExprRef>,
        aggs: Vec<AggregateSpec>,
        schema: SchemaRef,
    ) -> Self {
        let mut next_state = group_exprs.len();
        let slots: Vec<Slot> = aggs
            .iter()
            .flat_map(|spec| slots_for(spec, mode, &mut next_state))
            .collect();
        let schema = match mode {
            AggMode::Single | AggMode::Final => schema,
            AggMode::Partial => {
                let mut fields: Vec<Field> = schema.fields[..group_exprs.len()].to_vec();
                fields.extend(
                    slots
                        .iter()
                        .enumerate()
                        .map(|(i, slot)| Field::new(format!("state{i}"), slot.data_type)),
                );
                Arc::new(Schema::new(fields))
            }
        };
        HashAggregateExec {
            input,
            mode,
            group_exprs,
            aggs,
            slots,
            schema,
        }
    }

    /// Drain the input partition into the group table and accumulators and
    /// emit one chunk: a row per group.
    fn aggregate(&self, partition: usize, ctx: &TaskContext) -> Result<Chunk> {
        let mut grouper = Grouper::new(self.group_exprs.iter().map(|e| e.data_type()).collect());
        let mut accs: Vec<Acc> = self.slots.iter().map(Acc::new).collect();
        let mut billed = 0usize;
        for chunk in self.input.execute(partition, ctx)? {
            let chunk = chunk?;
            if chunk.is_empty() {
                continue;
            }
            let keys = self
                .group_exprs
                .iter()
                .map(|e| e.evaluate(&chunk))
                .collect::<Result<Vec<_>>>()?;
            let (groups, ids) = grouper.assign(&keys, chunk.len())?;
            for (slot, acc) in self.slots.iter().zip(&mut accs) {
                acc.grow(groups);
                let arg = slot.arg.as_ref().map(|e| e.evaluate(&chunk)).transpose()?;
                acc.update(&ids, arg.as_deref(), chunk.len())?;
            }
            // Bill table and accumulator growth per chunk, so an
            // over-budget aggregation fails before it outgrows the budget
            // by more than one chunk's worth of groups.
            let resident = grouper.byte_size() + accs.iter().map(Acc::byte_size).sum::<usize>();
            ctx.charge_memory(resident.saturating_sub(billed))?;
            billed = billed.max(resident);
        }
        let groups = grouper.groups;
        let mut columns = grouper.into_key_columns()?;
        let mut states = Vec::with_capacity(accs.len());
        for mut acc in accs {
            // A global aggregate over no rows still has its one group.
            acc.grow(groups);
            states.push(acc.finish()?);
        }
        match self.mode {
            AggMode::Partial => columns.extend(states.into_iter().map(Arc::new)),
            AggMode::Single | AggMode::Final => {
                let mut states = states.into_iter();
                let mut state = || {
                    states
                        .next()
                        .ok_or_else(|| EngineError::internal("aggregate lost its accumulator"))
                };
                for spec in &self.aggs {
                    columns.push(Arc::new(match spec.func {
                        AggFunc::Avg => finish_avg(state()?, state()?)?,
                        _ => state()?,
                    }));
                }
            }
        }
        if columns.is_empty() {
            return Ok(Chunk::new_empty_columns(groups));
        }
        Chunk::new(columns)
    }
}

impl ExecutionPlan for HashAggregateExec {
    fn name(&self) -> &'static str {
        "HashAggregate"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn output_partitions(&self) -> usize {
        self.input.output_partitions()
    }

    fn children(&self) -> Vec<ExecPlanRef> {
        vec![Arc::clone(&self.input)]
    }

    fn output_partitioning(&self) -> Partitioning {
        self.input
            .output_partitioning()
            .project(|c| position_of_column(&self.group_exprs, c))
    }

    fn execute(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        let out = ctx.instrument_blocking(self, || self.aggregate(partition, ctx))?;
        Ok(ctx.instrument(self, Box::new(std::iter::once(Ok(out)))))
    }

    fn detail(&self) -> String {
        let phase = match self.mode {
            AggMode::Single => "",
            AggMode::Partial => "partial, ",
            AggMode::Final => "final, ",
        };
        format!(
            "{phase}{} group keys, {} aggs",
            self.group_exprs.len(),
            self.aggs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::resolve_expr;
    use crate::expr::col;
    use crate::physical::execute_collect;
    use crate::physical::expr::create_physical_expr;
    use crate::physical::scan::ValuesExec;
    use crate::schema::{Field, Schema};
    use crate::types::Value;

    fn input() -> (ExecPlanRef, SchemaRef) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("g", DataType::Utf8),
            Field::new("v", DataType::Int64),
        ]));
        let rows = vec![
            vec![Value::Utf8("a".into()), Value::Int64(1)],
            vec![Value::Utf8("b".into()), Value::Int64(10)],
            vec![Value::Utf8("a".into()), Value::Int64(2)],
            vec![Value::Utf8("b".into()), Value::Null],
            vec![Value::Utf8("a".into()), Value::Int64(3)],
        ];
        (
            Arc::new(ValuesExec {
                schema: Arc::clone(&schema),
                rows,
            }),
            schema,
        )
    }

    fn pe(schema: &SchemaRef, name: &str) -> PhysicalExprRef {
        let e = resolve_expr(&col(name), schema).unwrap();
        create_physical_expr(&e, schema).unwrap()
    }

    #[test]
    fn grouped_aggregates() {
        let (inp, schema) = input();
        let out_schema = Arc::new(Schema::new(vec![
            Field::new("g", DataType::Utf8),
            Field::new("count", DataType::Int64),
            Field::new("sum", DataType::Int64),
            Field::new("min", DataType::Int64),
            Field::new("avg", DataType::Float64),
        ]));
        let plan: ExecPlanRef = Arc::new(HashAggregateExec::new(
            inp,
            AggMode::Single,
            vec![pe(&schema, "g")],
            vec![
                AggregateSpec {
                    func: AggFunc::Count,
                    arg: Some(pe(&schema, "v")),
                    output_type: DataType::Int64,
                },
                AggregateSpec {
                    func: AggFunc::Sum,
                    arg: Some(pe(&schema, "v")),
                    output_type: DataType::Int64,
                },
                AggregateSpec {
                    func: AggFunc::Min,
                    arg: Some(pe(&schema, "v")),
                    output_type: DataType::Int64,
                },
                AggregateSpec {
                    func: AggFunc::Avg,
                    arg: Some(pe(&schema, "v")),
                    output_type: DataType::Float64,
                },
            ],
            out_schema,
        ));
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 2);
        let row_a = (0..2)
            .find(|&r| out.value_at(0, r) == Value::Utf8("a".into()))
            .unwrap();
        let row_b = 1 - row_a;
        assert_eq!(out.value_at(1, row_a), Value::Int64(3));
        assert_eq!(out.value_at(2, row_a), Value::Int64(6));
        assert_eq!(out.value_at(3, row_a), Value::Int64(1));
        assert_eq!(out.value_at(4, row_a), Value::Float64(2.0));
        assert_eq!(out.value_at(1, row_b), Value::Int64(1), "count skips null");
        assert_eq!(out.value_at(2, row_b), Value::Int64(10));
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_identity() {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int64)]));
        let empty: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&schema),
            rows: vec![],
        });
        let out_schema = Arc::new(Schema::new(vec![
            Field::new("count(*)", DataType::Int64),
            Field::new("sum", DataType::Int64),
        ]));
        let plan: ExecPlanRef = Arc::new(HashAggregateExec::new(
            empty,
            AggMode::Single,
            vec![],
            vec![
                AggregateSpec {
                    func: AggFunc::Count,
                    arg: None,
                    output_type: DataType::Int64,
                },
                AggregateSpec {
                    func: AggFunc::Sum,
                    arg: Some(pe(&schema, "v")),
                    output_type: DataType::Int64,
                },
            ],
            out_schema,
        ));
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value_at(0, 0), Value::Int64(0));
        assert_eq!(out.value_at(1, 0), Value::Null);
    }

    #[test]
    fn count_star_counts_null_rows() {
        let (inp, _) = input();
        let out_schema = Arc::new(Schema::new(vec![Field::new("n", DataType::Int64)]));
        let plan: ExecPlanRef = Arc::new(HashAggregateExec::new(
            inp,
            AggMode::Single,
            vec![],
            vec![AggregateSpec {
                func: AggFunc::Count,
                arg: None,
                output_type: DataType::Int64,
            }],
            out_schema,
        ));
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.value_at(0, 0), Value::Int64(5));
    }

    #[test]
    fn vectorized_global_path_handles_nulls_and_types() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]));
        let inp: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&schema),
            rows: vec![
                vec![
                    Value::Int64(1),
                    Value::Float64(0.5),
                    Value::Utf8("b".into()),
                ],
                vec![Value::Null, Value::Null, Value::Null],
                vec![
                    Value::Int64(3),
                    Value::Float64(1.5),
                    Value::Utf8("a".into()),
                ],
            ],
        });
        let out_schema = Arc::new(Schema::new(vec![
            Field::new("n", DataType::Int64),
            Field::new("ni", DataType::Int64),
            Field::new("si", DataType::Int64),
            Field::new("sf", DataType::Float64),
            Field::new("af", DataType::Float64),
            Field::new("mn", DataType::Utf8),
            Field::new("mx", DataType::Utf8),
        ]));
        let arg = |name: &str| Some(pe(&schema, name));
        let plan: ExecPlanRef = Arc::new(HashAggregateExec::new(
            inp,
            AggMode::Single,
            vec![],
            vec![
                AggregateSpec {
                    func: AggFunc::Count,
                    arg: None,
                    output_type: DataType::Int64,
                },
                AggregateSpec {
                    func: AggFunc::Count,
                    arg: arg("i"),
                    output_type: DataType::Int64,
                },
                AggregateSpec {
                    func: AggFunc::Sum,
                    arg: arg("i"),
                    output_type: DataType::Int64,
                },
                AggregateSpec {
                    func: AggFunc::Sum,
                    arg: arg("f"),
                    output_type: DataType::Float64,
                },
                AggregateSpec {
                    func: AggFunc::Avg,
                    arg: arg("f"),
                    output_type: DataType::Float64,
                },
                AggregateSpec {
                    func: AggFunc::Min,
                    arg: arg("s"),
                    output_type: DataType::Utf8,
                },
                AggregateSpec {
                    func: AggFunc::Max,
                    arg: arg("s"),
                    output_type: DataType::Utf8,
                },
            ],
            out_schema,
        ));
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(
            out.value_at(0, 0),
            Value::Int64(3),
            "count(*) counts null rows"
        );
        assert_eq!(out.value_at(1, 0), Value::Int64(2), "count(i) skips nulls");
        assert_eq!(out.value_at(2, 0), Value::Int64(4));
        assert_eq!(out.value_at(3, 0), Value::Float64(2.0));
        assert_eq!(out.value_at(4, 0), Value::Float64(1.0));
        assert_eq!(out.value_at(5, 0), Value::Utf8("a".into()));
        assert_eq!(out.value_at(6, 0), Value::Utf8("b".into()));
    }

    #[test]
    fn distinct_shape_zero_aggregates() {
        // SELECT DISTINCT compiles to an Aggregate with no agg outputs.
        let schema = Arc::new(Schema::new(vec![Field::new("g", DataType::Int64)]));
        let inp: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&schema),
            rows: vec![
                vec![Value::Int64(1)],
                vec![Value::Int64(2)],
                vec![Value::Int64(1)],
                vec![Value::Null],
                vec![Value::Null],
            ],
        });
        let plan: ExecPlanRef = Arc::new(HashAggregateExec::new(
            inp,
            AggMode::Single,
            vec![pe(&schema, "g")],
            vec![],
            schema,
        ));
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 3, "1, 2, NULL");
    }

    #[test]
    fn null_group_keys_form_a_group() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]));
        let inp: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&schema),
            rows: vec![
                vec![Value::Null, Value::Int64(1)],
                vec![Value::Null, Value::Int64(2)],
                vec![Value::Int64(1), Value::Int64(3)],
            ],
        });
        let out_schema = Arc::new(Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("sum", DataType::Int64),
        ]));
        let plan: ExecPlanRef = Arc::new(HashAggregateExec::new(
            inp,
            AggMode::Single,
            vec![pe(&schema, "g")],
            vec![AggregateSpec {
                func: AggFunc::Sum,
                arg: Some(pe(&schema, "v")),
                output_type: DataType::Int64,
            }],
            out_schema,
        ));
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 2);
        let null_row = (0..2).find(|&r| out.value_at(0, r) == Value::Null).unwrap();
        assert_eq!(out.value_at(1, null_row), Value::Int64(3));
    }
}
