//! Randomized tests for the core storage invariants: packed pointers,
//! the binary row layout, and the partition's chain/scan semantics
//! against a naive model. Seeded generation keeps every case
//! reproducible: a failure message names the seed that replays it.

use std::sync::Arc;

use idf_core::config::IndexConfig;
use idf_core::layout::RowLayout;
use idf_core::partition::IndexedPartition;
use idf_core::pointer::{RowPtr, MAX_BATCHES, MAX_BATCH_SIZE, MAX_ROW_SIZE};
use idf_engine::schema::{Field, Schema};
use idf_engine::types::{DataType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn packed_pointer_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xb17_0001);
    let check = |batch: usize, offset: usize, size: usize| {
        let p = RowPtr::new(batch, offset, size);
        assert_eq!(p.batch(), batch);
        assert_eq!(p.offset(), offset);
        assert_eq!(p.size(), size);
        assert!(!p.is_null());
        assert_eq!(RowPtr::from_raw(p.raw()), p);
    };
    // Boundary corners plus random interior points.
    for batch in [0, 1, MAX_BATCHES - 1] {
        for offset in [0, 1, MAX_BATCH_SIZE - 1] {
            for size in [1, MAX_ROW_SIZE] {
                check(batch, offset, size);
            }
        }
    }
    for _ in 0..2000 {
        check(
            rng.gen_range(0..MAX_BATCHES),
            rng.gen_range(0..MAX_BATCH_SIZE),
            rng.gen_range(1..MAX_ROW_SIZE + 1),
        );
    }
}

fn random_value(rng: &mut StdRng, dt: DataType) -> Value {
    if rng.gen_bool(0.2) {
        return Value::Null;
    }
    match dt {
        DataType::Boolean => Value::Boolean(rng.gen_bool(0.5)),
        DataType::Int32 => Value::Int32(rng.gen_range(i32::MIN..i32::MAX)),
        DataType::Int64 => Value::Int64(rng.gen_range(i64::MIN..i64::MAX)),
        DataType::Float64 => Value::Float64(rng.gen_range(-1e18..1e18)),
        DataType::Utf8 => {
            // Mixed-width code points exercise the var-length section.
            const ALPHABET: &[char] = &['a', 'Z', '9', ' ', 'à', 'é', 'λ', '🦀'];
            let len = rng.gen_range(0..41usize);
            Value::Utf8(
                (0..len)
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                    .collect(),
            )
        }
        DataType::Timestamp => Value::Timestamp(rng.gen_range(i64::MIN..i64::MAX)),
    }
}

fn wide_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Utf8),
        Field::new("c", DataType::Float64),
        Field::new("d", DataType::Boolean),
        Field::new("e", DataType::Int32),
        Field::new("f", DataType::Timestamp),
        Field::new("g", DataType::Utf8),
    ]))
}

fn random_row(rng: &mut StdRng, schema: &Schema) -> Vec<Value> {
    schema
        .fields
        .iter()
        .map(|f| random_value(rng, f.data_type))
        .collect()
}

#[test]
fn row_layout_roundtrips() {
    let schema = wide_schema();
    let layout = RowLayout::new(Arc::clone(&schema));
    for seed in 0..128u64 {
        let mut rng = StdRng::seed_from_u64(0x1a70_0000 + seed);
        let row = random_row(&mut rng, &schema);
        let mut buf = Vec::new();
        layout.encode(&row, &mut buf).expect("encode");
        assert_eq!(layout.decode_row(&buf).expect("decode"), row, "seed {seed}");
    }
}

#[test]
fn rows_in_one_buffer_do_not_interfere() {
    let schema = wide_schema();
    let layout = RowLayout::new(Arc::clone(&schema));
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xb0f_0000 + seed);
        let rows: Vec<Vec<Value>> = (0..rng.gen_range(1..20usize))
            .map(|_| random_row(&mut rng, &schema))
            .collect();
        let mut buf = Vec::new();
        let mut spans = Vec::new();
        for row in &rows {
            let start = buf.len();
            layout.encode(row, &mut buf).expect("encode");
            spans.push((start, buf.len()));
        }
        for (i, (row, (start, end))) in rows.iter().zip(spans).enumerate() {
            assert_eq!(
                &layout.decode_row(&buf[start..end]).expect("decode"),
                row,
                "seed {seed}, row {i}"
            );
        }
    }
}

#[test]
fn partition_matches_naive_model() {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]));
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x9a57_0000 + seed);
        let ops: Vec<(i64, i64)> = (0..rng.gen_range(1..300usize))
            .map(|_| (rng.gen_range(0..40i64), rng.gen_range(0..1000i64)))
            .collect();
        let cfg = IndexConfig {
            batch_size: 512, // force frequent batch rollover
            max_row_size: 128,
            num_partitions: 1,
            ..Default::default()
        };
        let p = IndexedPartition::new(Arc::clone(&schema), 0, cfg);
        // model: per-key vec of values, append order
        let mut model: std::collections::HashMap<i64, Vec<i64>> = Default::default();
        for (k, v) in &ops {
            p.append_row(&[Value::Int64(*k), Value::Int64(*v)])
                .expect("append");
            model.entry(*k).or_default().push(*v);
        }
        let snap = p.snapshot();
        assert_eq!(snap.row_count(), ops.len(), "seed {seed}");
        for (k, versions) in &model {
            let chunk = snap.lookup_chunk(&Value::Int64(*k), None).expect("lookup");
            assert_eq!(chunk.len(), versions.len(), "seed {seed}, key {k}");
            // chains run latest-first
            for (i, expected) in versions.iter().rev().enumerate() {
                assert_eq!(
                    chunk.value_at(1, i),
                    Value::Int64(*expected),
                    "seed {seed}, key {k}, version {i}"
                );
            }
        }
        // scan covers exactly the appended multiset
        let scanned: usize = snap
            .scan_chunks(None, 64)
            .expect("scan")
            .iter()
            .map(idf_engine::chunk::Chunk::len)
            .sum();
        assert_eq!(scanned, ops.len(), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Storage differential: the scan's walk + typed column kernels against a
// row-at-a-time `decode_row` oracle.
// ---------------------------------------------------------------------

mod scan_differential {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    use idf_core::batch::{RowBatch, RowStep, ROW_HEADER};
    use idf_core::layout::SlotPredicate;
    use idf_core::partition::PartitionSnapshot;
    use idf_core::sink::RowKind;
    use idf_core::source::IndexedSource;
    use idf_core::table::IndexedTable;
    use idf_engine::catalog::TableSource;
    use idf_engine::chunk::Chunk;
    use idf_engine::expr::{BinaryOp, ColumnRefExpr, Expr};
    use idf_engine::physical::{create_physical_expr, evaluate_predicate};
    use idf_engine::query::QueryContext;

    type Row = Vec<Value>;

    const ALL_TYPES: [DataType; 6] = [
        DataType::Boolean,
        DataType::Int32,
        DataType::Int64,
        DataType::Float64,
        DataType::Utf8,
        DataType::Timestamp,
    ];

    const FIXED_TYPES: [DataType; 5] = [
        DataType::Boolean,
        DataType::Int32,
        DataType::Int64,
        DataType::Float64,
        DataType::Timestamp,
    ];

    /// An Int64 key column (nullable: NULL-key rows are scanned but not
    /// indexed) followed by 0–7 columns drawn from all six types — or,
    /// when `fixed_width`, from the five fixed-width ones, so every stored
    /// row has one length and the scan finds rows by stride.
    fn random_schema(rng: &mut StdRng, fixed_width: bool) -> Arc<Schema> {
        let types: &[DataType] = if fixed_width {
            &FIXED_TYPES
        } else {
            &ALL_TYPES
        };
        let mut fields = vec![Field::new("k", DataType::Int64)];
        for i in 0..rng.gen_range(0..8usize) {
            let dt = types[rng.gen_range(0..types.len())];
            fields.push(Field::new(format!("c{i}"), dt));
        }
        Arc::new(Schema::new(fields))
    }

    /// What a sweep of seeds covered; each test asserts it covered every
    /// case the scan's passes distinguish.
    #[derive(Default)]
    struct Coverage {
        /// A scan found row starts by stride, and one by stored length.
        strided: bool,
        stored: bool,
        /// Column types of the fixed-width schemas.
        fixed_types: std::collections::BTreeSet<String>,
        /// A scan ran while tombstones hid rows.
        hidden_rows: bool,
        /// A scanned partition held more than one batch.
        several_batches: bool,
    }

    impl Coverage {
        fn saw(&mut self, snap: &PartitionSnapshot) {
            match snap.scan(Some(&[]), 8, None).expect("scan").row_step() {
                RowStep::Stride(_) => {
                    self.strided = true;
                    for f in &snap.schema().fields {
                        self.fixed_types.insert(f.data_type.to_string());
                    }
                }
                RowStep::AtLeast(_) => self.stored = true,
            }
            self.several_batches |= snap.export_batches().len() > 1;
        }

        fn assert_complete(&self) {
            assert!(
                self.strided && self.stored,
                "both ways of finding row starts ran"
            );
            assert_eq!(
                self.fixed_types.len(),
                5,
                "fixed types: {:?}",
                self.fixed_types
            );
            assert!(self.hidden_rows, "no scan ran while tombstones hid rows");
            assert!(self.several_batches, "no partition spanned several batches");
        }
    }

    /// A row over few distinct keys (so chains form), 1-in-10 with a NULL
    /// key, and — when the schema has a string column — now and then one
    /// string stretched until the row is exactly as large as a row may be.
    fn random_keyed_row(rng: &mut StdRng, schema: &Schema, layout: &RowLayout) -> Row {
        let mut row = random_row(rng, schema);
        row[0] = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Int64(rng.gen_range(0..12i64))
        };
        let string_col = schema
            .fields
            .iter()
            .position(|f| f.data_type == DataType::Utf8);
        if let (Some(c), true) = (string_col, rng.gen_bool(0.05)) {
            row[c] = Value::Utf8(String::new());
            let mut buf = Vec::new();
            layout.encode(&row, &mut buf).expect("encode");
            let room = MAX_ROW_SIZE - ROW_HEADER - buf.len();
            row[c] = Value::Utf8("x".repeat(room));
        }
        row
    }

    fn config() -> IndexConfig {
        IndexConfig {
            batch_size: 4096, // several batches per table
            num_partitions: 1,
            ..Default::default()
        }
    }

    /// Every row a scan of `snap` yields, with the chunking contract
    /// checked on the way: chunks hold at most `chunk_rows` rows, every
    /// chunk but the last is full, and a column-less scan still counts.
    fn scan_rows(
        snap: &PartitionSnapshot,
        projection: Option<&[usize]>,
        chunk_rows: usize,
    ) -> Vec<Row> {
        scan_rows_where(snap, projection, &[], chunk_rows)
    }

    /// [`scan_rows`] of the rows that pass `preds`.
    fn scan_rows_where(
        snap: &PartitionSnapshot,
        projection: Option<&[usize]>,
        preds: &[SlotPredicate],
        chunk_rows: usize,
    ) -> Vec<Row> {
        let chunks: Vec<Chunk> = snap
            .scan_where(projection, preds, chunk_rows, None)
            .expect("scan")
            .collect::<idf_engine::error::Result<_>>()
            .expect("scan");
        assert!(!chunks.is_empty(), "even an empty partition yields a chunk");
        let width = projection.map_or(snap.schema().len(), <[usize]>::len);
        let mut rows = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.num_columns(), width);
            assert!(chunk.len() <= chunk_rows);
            if i + 1 < chunks.len() {
                assert_eq!(chunk.len(), chunk_rows, "only the last chunk may be short");
            }
            rows.extend(chunk.to_rows());
        }
        rows
    }

    /// The oracle: every stored data row in physical order, decoded one
    /// row at a time with `decode_row`, from the snapshot's exported bytes.
    fn physical_rows(snap: &PartitionSnapshot, layout: &RowLayout) -> Vec<Row> {
        let mut rows = Vec::new();
        for (capacity, bytes) in snap.export_batches() {
            let batch = RowBatch::from_committed_bytes(capacity, bytes).expect("batch");
            for row in batch.iter_rows(batch.len()).expect("walk") {
                let (_, _, kind, payload) = row.expect("row");
                if kind == RowKind::Data {
                    rows.push(layout.decode_row(payload).expect("decode_row"));
                }
            }
        }
        rows
    }

    fn project(rows: &[Row], projection: Option<&[usize]>) -> Vec<Row> {
        match projection {
            None => rows.to_vec(),
            Some(p) => rows
                .iter()
                .map(|r| p.iter().map(|&c| r[c].clone()).collect())
                .collect(),
        }
    }

    /// Order-insensitive form (floats have no `Ord`; their debug text does).
    fn multiset(rows: &[Row]) -> Vec<String> {
        let mut keys: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        keys.sort_unstable();
        keys
    }

    /// The whole table, the empty projection (`count(*)`), and reordered,
    /// repeated and single-column projections.
    fn random_projections(rng: &mut StdRng, width: usize) -> Vec<Option<Vec<usize>>> {
        let mut out = vec![None, Some(vec![]), Some((0..width).rev().collect())];
        for _ in 0..3 {
            let n = rng.gen_range(1..width + 3);
            out.push(Some((0..n).map(|_| rng.gen_range(0..width)).collect()));
        }
        out
    }

    fn chunk_sizes(rng: &mut StdRng, rows: usize) -> Vec<usize> {
        vec![
            1,
            7,
            rng.gen_range(2..9usize),
            rng.gen_range(9..100usize),
            rows.max(1),
            rows + 1,
            8192,
            usize::MAX,
        ]
    }

    /// Scan `snap` under every projection and chunk size and hold it to
    /// `expected`: as a multiset always, and row for row when `in_order`.
    fn check_scans(
        rng: &mut StdRng,
        snap: &PartitionSnapshot,
        expected: &[Row],
        in_order: bool,
        what: &str,
    ) {
        assert_eq!(snap.row_count(), expected.len(), "{what}: row_count");
        for projection in random_projections(rng, snap.schema().len()) {
            let want = project(expected, projection.as_deref());
            for chunk_rows in chunk_sizes(rng, expected.len()) {
                let got = scan_rows(snap, projection.as_deref(), chunk_rows);
                let ctx = format!("{what}, projection {projection:?}, chunk_rows {chunk_rows}");
                if in_order {
                    assert_eq!(got, want, "{ctx}");
                } else {
                    assert_eq!(multiset(&got), multiset(&want), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn scans_match_the_oracle_fresh_after_dml_and_after_compaction() {
        let mut covered = Coverage::default();
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x5ca9_0000 + seed);
            let schema = random_schema(&mut rng, seed % 2 == 0);
            let layout = RowLayout::new(Arc::clone(&schema));
            let table = IndexedTable::new(Arc::clone(&schema), 0, config()).expect("table");
            let what = |stage: &str| format!("seed {seed}, {stage}");

            // Fresh: no tombstones, so the scan is the physical order.
            let mut model: Vec<Row> = (0..rng.gen_range(0..300usize))
                .map(|_| random_keyed_row(&mut rng, &schema, &layout))
                .collect();
            for row in &model {
                table.append_row(row).expect("append");
            }
            let snap = table.snapshot();
            let part = &snap.partitions()[0];
            assert_eq!(physical_rows(part, &layout), model, "{}", what("oracle"));
            covered.saw(part);
            check_scans(&mut rng, part, &model, true, &what("fresh"));

            model = random_dml(&mut rng, &table, model, &layout, &what("rows affected"));
            covered.hidden_rows |= table.memory_stats().dead_rows > 0;
            let snap = table.snapshot();
            let part = &snap.partitions()[0];
            check_scans(&mut rng, part, &model, false, &what("after DML"));

            // Compaction: same rows, and with nothing left hidden the scan
            // is again exactly the stored data rows in physical order.
            table.compact().expect("compact");
            assert_eq!(table.memory_stats().dead_rows, 0);
            let snap = table.snapshot();
            let part = &snap.partitions()[0];
            check_scans(&mut rng, part, &model, false, &what("after compaction"));
            let stored = physical_rows(part, &layout);
            check_scans(&mut rng, part, &stored, true, &what("compacted order"));
        }
        covered.assert_complete();
    }

    /// UPDATE/DELETE on a few keys: some of a key's rows go (each delete
    /// row removes one stored copy), sometimes a new image arrives in the
    /// same statement. Returns the model after the statements.
    fn random_dml(
        rng: &mut StdRng,
        table: &IndexedTable,
        mut model: Vec<Row>,
        layout: &RowLayout,
        what: &str,
    ) -> Vec<Row> {
        let schema = Arc::clone(layout.schema());
        for _ in 0..rng.gen_range(1..4usize) {
            let key = Value::Int64(rng.gen_range(0..12i64));
            let (hit, rest): (Vec<Row>, Vec<Row>) = model.into_iter().partition(|r| r[0] == key);
            let (victims, survivors): (Vec<Row>, Vec<Row>) =
                hit.into_iter().partition(|_| rng.gen_bool(0.7));
            let mut images = Vec::new();
            if rng.gen_bool(0.5) {
                let mut image = random_keyed_row(rng, &schema, layout);
                image[0] = key.clone();
                images.push(image);
            }
            let affected = table.apply_dml(&victims, &images).expect("dml");
            assert_eq!(affected, victims.len(), "{what}");
            model = rest;
            model.extend(survivors);
            model.extend(images);
        }
        model
    }

    // -----------------------------------------------------------------
    // Walk predicates: what the scan's per-block masks keep against a
    // `Filter` above the scan — the same rows filtered by `physical::expr`.
    // -----------------------------------------------------------------

    /// Seeds of the walk-predicate differential; `IDF_SCAN_DIFF_SEEDS`
    /// widens the sweep.
    fn walk_seeds() -> std::ops::Range<u64> {
        let n = std::env::var("IDF_SCAN_DIFF_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16);
        0..n
    }

    fn bound(schema: &Schema, col: usize) -> Expr {
        Expr::Column(ColumnRefExpr {
            qualifier: None,
            name: schema.field(col).name.clone(),
            index: Some(col),
        })
    }

    /// A random comparison of the shapes the scan claims: an Int32, Int64
    /// or Timestamp column, bare or as `CAST(col AS BIGINT)`, against a
    /// constant of the operand's type — mostly one of the column's own
    /// values, so `=` and the boundaries of `<=`/`>=` hit — with a random
    /// operator, in either operand order.
    fn random_walk_filter(rng: &mut StdRng, schema: &Schema, rows: &[Row]) -> Expr {
        let claimed: Vec<usize> = (0..schema.len())
            .filter(|&c| {
                matches!(
                    schema.field(c).data_type,
                    DataType::Int32 | DataType::Int64 | DataType::Timestamp
                )
            })
            .collect();
        let c = claimed[rng.gen_range(0..claimed.len())];
        let dt = schema.field(c).data_type;
        let mut value = Value::Null;
        if !rows.is_empty() && rng.gen_bool(0.7) {
            value = rows[rng.gen_range(0..rows.len())][c].clone();
        }
        while value.is_null() {
            value = random_value(rng, dt);
        }
        let (operand, constant) = if rng.gen_bool(0.4) {
            let widened = Value::Int64(value.as_i64().expect("an integer column"));
            (bound(schema, c).cast(DataType::Int64), widened)
        } else {
            (bound(schema, c), value)
        };
        let ops = [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ];
        let op = ops[rng.gen_range(0..ops.len())];
        let (left, right) = if rng.gen_bool(0.5) {
            (operand, Expr::Literal(constant))
        } else {
            (Expr::Literal(constant), operand)
        };
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// A key filter the index answers: `k = v` or `k IN (…)`, now and then
    /// with a NULL entry or a key no row has.
    fn random_key_filter(rng: &mut StdRng, schema: &Schema) -> Expr {
        let key = |rng: &mut StdRng| Expr::Literal(Value::Int64(rng.gen_range(0..14i64)));
        if rng.gen_bool(0.5) {
            return bound(schema, 0).eq(key(rng));
        }
        let mut list: Vec<Expr> = (0..rng.gen_range(0..4usize)).map(|_| key(rng)).collect();
        if rng.gen_bool(0.2) {
            list.push(Expr::Literal(Value::Null));
        }
        bound(schema, 0).in_list(list)
    }

    fn shown(filters: &[Expr]) -> String {
        filters
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" AND ")
    }

    /// The oracle: `rows` through a `Filter` on each of `filters`, the
    /// predicate compiled and evaluated by `physical::expr`.
    fn filtered(schema: &Arc<Schema>, rows: &[Row], filters: &[Expr]) -> Vec<Row> {
        let mut chunk = Chunk::from_rows(schema, rows).expect("chunk");
        for f in filters {
            let predicate = create_physical_expr(f, schema).expect("compile");
            let mask = evaluate_predicate(predicate.as_ref(), &chunk).expect("evaluate");
            chunk = chunk.filter(&mask).expect("filter");
        }
        chunk.to_rows()
    }

    /// Every partition of `table` scanned with random walk predicates,
    /// under every projection and chunk size, against the oracle over
    /// `expected` — row for row when `in_order`.
    fn check_walks(
        rng: &mut StdRng,
        table: &Arc<IndexedTable>,
        expected: &[Row],
        in_order: bool,
        what: &str,
    ) {
        let schema = table.schema();
        let source = IndexedSource::live(Arc::clone(table));
        let snap = table.snapshot();
        for _ in 0..3 {
            let filters: Vec<Expr> = (0..rng.gen_range(1..4usize))
                .map(|_| random_walk_filter(rng, &schema, expected))
                .collect();
            let preds: Vec<SlotPredicate> = filters
                .iter()
                .map(|f| {
                    source
                        .walk_predicate(f)
                        .unwrap_or_else(|| panic!("{what}: {f} is not claimed"))
                })
                .collect();
            let passing = filtered(&schema, expected, &filters);
            for projection in random_projections(rng, schema.len()) {
                let want = project(&passing, projection.as_deref());
                for chunk_rows in chunk_sizes(rng, want.len()) {
                    let got: Vec<Row> = snap
                        .partitions()
                        .iter()
                        .flat_map(|p| scan_rows_where(p, projection.as_deref(), &preds, chunk_rows))
                        .collect();
                    let ctx = format!(
                        "{what}, WHERE {}, projection {projection:?}, chunk_rows {chunk_rows}",
                        shown(&filters)
                    );
                    if in_order {
                        assert_eq!(got, want, "{ctx}");
                    } else {
                        assert_eq!(multiset(&got), multiset(&want), "{ctx}");
                    }
                }
            }
        }
    }

    /// `source` asked the way the planner asks it: random walk predicates,
    /// with or without a key filter, over the partitions its `prune`
    /// leaves; the answer is held to the oracle over `expected`.
    fn check_source(rng: &mut StdRng, source: &IndexedSource, expected: &[Row], what: &str) {
        let schema = source.schema();
        for _ in 0..4 {
            let mut filters: Vec<Expr> = (0..rng.gen_range(0..3usize))
                .map(|_| random_walk_filter(rng, &schema, expected))
                .collect();
            if rng.gen_bool(0.5) {
                let at = rng.gen_range(0..filters.len() + 1);
                filters.insert(at, random_key_filter(rng, &schema));
            }
            for f in &filters {
                assert!(source.supports_filter_pushdown(f), "{what}: {f} unclaimed");
            }
            let projection = random_projections(rng, schema.len()).swap_remove(rng.gen_range(0..6));
            let partitions: Vec<usize> = match source.prune(&filters) {
                Some(pruned) => pruned.partitions,
                None => (0..source.num_partitions()).collect(),
            };
            let mut got = Vec::new();
            for p in partitions {
                for chunk in source
                    .scan_with_filters(p, projection.as_deref(), &filters)
                    .expect("scan")
                {
                    got.extend(chunk.expect("chunk").to_rows());
                }
            }
            let want = project(
                &filtered(&schema, expected, &filters),
                projection.as_deref(),
            );
            assert_eq!(
                multiset(&got),
                multiset(&want),
                "{what}, WHERE {}, projection {projection:?}",
                shown(&filters)
            );
        }
    }

    #[test]
    fn walk_predicates_match_a_filter_above_the_scan() {
        let mut covered = Coverage::default();
        for seed in walk_seeds() {
            let mut rng = StdRng::seed_from_u64(0x3a1c_0000 + seed);
            let schema = random_schema(&mut rng, seed % 2 == 0);
            let layout = RowLayout::new(Arc::clone(&schema));
            let partitions = rng.gen_range(1..4usize);
            let sizes = [1, rng.gen_range(2..9), rng.gen_range(9..100), 8192];
            let chunk_rows = sizes[rng.gen_range(0..sizes.len())];
            let cfg = IndexConfig {
                num_partitions: partitions,
                scan_chunk_rows: chunk_rows,
                ..config()
            };
            let table = Arc::new(IndexedTable::new(Arc::clone(&schema), 0, cfg).expect("table"));
            let what = |stage: &str| {
                format!("seed {seed} ({partitions} partitions, chunk_rows {chunk_rows}), {stage}")
            };

            let mut model: Vec<Row> = (0..rng.gen_range(0..300usize))
                .map(|_| random_keyed_row(&mut rng, &schema, &layout))
                .collect();
            for row in &model {
                table.append_row(row).expect("append");
            }
            let fresh = model.clone();
            let frozen = IndexedSource::frozen(Arc::clone(&table));
            for part in table.snapshot().partitions() {
                covered.saw(part);
            }
            check_walks(&mut rng, &table, &model, partitions == 1, &what("fresh"));
            check_source(
                &mut rng,
                &IndexedSource::live(Arc::clone(&table)),
                &model,
                &what("fresh, live"),
            );
            check_source(&mut rng, &frozen, &fresh, &what("fresh, frozen"));

            model = random_dml(&mut rng, &table, model, &layout, &what("rows affected"));
            for _ in 0..rng.gen_range(0..40usize) {
                let row = random_keyed_row(&mut rng, &schema, &layout);
                table.append_row(&row).expect("append");
                model.push(row);
            }
            covered.hidden_rows |= table.memory_stats().dead_rows > 0;
            check_walks(&mut rng, &table, &model, false, &what("after DML"));
            check_source(
                &mut rng,
                &IndexedSource::live(Arc::clone(&table)),
                &model,
                &what("after DML, live"),
            );
            check_source(
                &mut rng,
                &IndexedSource::frozen(Arc::clone(&table)),
                &model,
                &what("after DML, frozen"),
            );
            check_source(&mut rng, &frozen, &fresh, &what("frozen before DML"));

            table.compact().expect("compact");
            check_walks(&mut rng, &table, &model, false, &what("after compaction"));
            check_source(
                &mut rng,
                &IndexedSource::live(Arc::clone(&table)),
                &model,
                &what("after compaction, live"),
            );
            check_source(&mut rng, &frozen, &fresh, &what("frozen before compaction"));
        }
        covered.assert_complete();
    }

    #[test]
    fn rows_past_the_snapshot_watermark_never_appear() {
        let mut rng = StdRng::seed_from_u64(0x5ca9_1000);
        let schema = random_schema(&mut rng, false);
        let layout = RowLayout::new(Arc::clone(&schema));
        let table = Arc::new(IndexedTable::new(Arc::clone(&schema), 0, config()).expect("table"));
        let before: Vec<Row> = (0..200)
            .map(|_| random_keyed_row(&mut rng, &schema, &layout))
            .collect();
        for row in &before {
            table.append_row(row).expect("append");
        }
        let snap = table.snapshot();
        let stop = Arc::new(AtomicBool::new(false));
        let (started_tx, started_rx) = mpsc::channel();
        let appender = {
            let (table, stop) = (Arc::clone(&table), Arc::clone(&stop));
            let (schema, layout) = (Arc::clone(&schema), layout.clone());
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5ca9_1001);
                let mut appended = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let row = random_keyed_row(&mut rng, &schema, &layout);
                    table.append_row(&row).expect("append");
                    appended += 1;
                    if appended == 1 {
                        started_tx.send(()).expect("main is waiting");
                    }
                }
                appended
            })
        };
        // Scan only once the appender is provably writing past the
        // snapshot, and keep scanning while it keeps writing.
        started_rx.recv().expect("appender started");
        let part = &snap.partitions()[0];
        for _ in 0..20 {
            check_scans(&mut rng, part, &before, true, "under a concurrent appender");
        }
        stop.store(true, Ordering::Relaxed);
        let appended = appender.join().expect("appender");
        assert_eq!(table.snapshot().row_count(), before.len() + appended);
    }

    /// A two-column partition rebuilt from hand-damaged batch bytes.
    fn damaged(damage: impl Fn(&mut Vec<u8>)) -> idf_engine::error::Result<IndexedPartition> {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ]));
        let source = IndexedPartition::new(Arc::clone(&schema), 0, config());
        for i in 0..20i64 {
            source
                .append_row(&[Value::Int64(i), Value::Utf8(format!("value-{i}"))])
                .expect("append");
        }
        let snap = source.snapshot();
        let (capacity, bytes) = snap.export_batches()[0];
        let mut bytes = bytes.to_vec();
        damage(&mut bytes);
        let batch = Arc::new(RowBatch::from_committed_bytes(capacity, &bytes)?);
        IndexedPartition::restore(
            schema,
            0,
            config(),
            vec![batch],
            snap.export_index().expect("export"),
        )
    }

    #[test]
    fn damaged_bytes_are_typed_errors_never_panics() {
        // Row 0's payload: 1 null byte, two 8-byte slots, then "value-0".
        const LEN_OF_S: usize = ROW_HEADER + 1 + 8 + 4;
        const VAR: usize = ROW_HEADER + 1 + 16;

        // A var length past the payload, and a broken UTF-8 byte: the
        // bytes still walk, every path through the column kernels fails
        // with the layout's typed error.
        let damages: [fn(&mut Vec<u8>); 2] = [
            |b| b[LEN_OF_S..LEN_OF_S + 4].copy_from_slice(&u32::MAX.to_le_bytes()),
            |b| b[VAR] = 0xFF,
        ];
        for damage in damages {
            let part = damaged(damage).expect("the walk itself is intact");
            let snap = part.snapshot();
            for err in [
                snap.scan_chunks(None, 8).unwrap_err(),
                snap.scan_chunks(Some(&[1]), usize::MAX).unwrap_err(),
                snap.lookup_chunk(&Value::Int64(0), None).unwrap_err(),
            ] {
                assert!(
                    err.to_string().contains("corrupt row payload"),
                    "got: {err}"
                );
            }
            // Columns and rows the damage does not touch still decode.
            assert_eq!(scan_rows(&snap, Some(&[0]), 7).len(), 20);
            assert_eq!(
                snap.lookup_chunk(&Value::Int64(5), None)
                    .expect("row 5")
                    .len(),
                1
            );
            assert_eq!(snap.row_count(), 20);
        }

        // A length word below the header size, and one running past the
        // committed bytes: the walk refuses them when the partition is
        // rebuilt, before any scan could trust the offsets behind them.
        for len_word in [3u16, 0x7FFF] {
            let err =
                damaged(move |b| b[..2].copy_from_slice(&len_word.to_le_bytes())).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("row at 0") || msg.contains("beyond committed"),
                "got: {msg}"
            );
        }
    }

    /// A fixed-width row whose stored length is off the layout's stride.
    /// A walk by stored length reads it and the row after it as one row;
    /// the stride walk checks the length of every row it steps over, so
    /// every scan of it fails with a typed error, after the rows before it.
    #[test]
    fn a_stored_length_off_the_stride_is_a_typed_error() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Timestamp),
        ]));
        let source = IndexedPartition::new(Arc::clone(&schema), 0, config());
        for i in 0..20i64 {
            source
                .append_row(&[Value::Int64(i), Value::Timestamp(i)])
                .expect("append");
        }
        let snap = source.snapshot();
        let (capacity, bytes) = snap.export_batches()[0];
        let stride = ROW_HEADER + 1 + 2 * 8;
        let mut bytes = bytes.to_vec();
        let doubled = u16::try_from(2 * stride).expect("a row length");
        bytes[3 * stride..3 * stride + 2].copy_from_slice(&doubled.to_le_bytes());
        let batch = Arc::new(RowBatch::from_committed_bytes(capacity, &bytes).expect("batch"));
        let part = IndexedPartition::restore(
            schema,
            0,
            config(),
            vec![batch],
            snap.export_index().expect("export"),
        )
        .expect("a walk by stored length accepts the row");
        let snap = part.snapshot();
        let want = format!("row at {} declares {} stored bytes", 3 * stride, 2 * stride);
        for projection in [None, Some(&[][..]), Some(&[1][..])] {
            for chunk_rows in [1, 7, 8192] {
                let err = snap.scan_chunks(projection, chunk_rows).unwrap_err();
                assert!(err.to_string().contains(&want), "got: {err}");
            }
        }
        let mut scan = snap.scan(Some(&[0]), 1, None).expect("scan");
        for k in 0..3i64 {
            let chunk = scan.next().expect("a row before it").expect("ok");
            assert_eq!(chunk.value_at(0, 0), Value::Int64(k));
        }
        assert!(scan.next().expect("the error").is_err());
        assert!(scan.next().is_none(), "a failed scan is fused");
    }

    #[test]
    fn lazy_scan_checks_the_query_at_every_chunk_boundary() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]));
        let part = IndexedPartition::new(schema, 0, config());
        for i in 0..1000i64 {
            part.append_row(&[Value::Int64(i), Value::Int64(i)])
                .expect("append");
        }
        let snap = part.snapshot();

        // Cancellation lands between two chunks, not after the scan.
        let query = QueryContext::unbounded();
        let mut scan = snap
            .scan(None, 100, Some(Arc::clone(&query)))
            .expect("scan");
        assert_eq!(scan.next().expect("chunk").expect("ok").len(), 100);
        query.cancel();
        let err = scan.next().expect("the boundary check fires").unwrap_err();
        assert_eq!(err, idf_engine::error::EngineError::Cancelled);
        assert!(scan.next().is_none(), "a failed scan is fused");

        // The chunk in flight is billed — 100 rows x 16 bytes — and handed
        // back when the next is pulled: ten chunks pass a two-chunk budget.
        let query = QueryContext::builder().memory_limit(3200).build();
        let results: Vec<_> = snap
            .scan(None, 100, Some(Arc::clone(&query)))
            .expect("scan")
            .collect();
        assert_eq!(results.len(), 10);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(query.memory_peak(), 1600);
        assert_eq!(query.memory_used(), 0, "a finished scan holds nothing");
        // A chunk that does not fit trips the budget as it is produced.
        let query = QueryContext::builder().memory_limit(1000).build();
        let first = snap.scan(None, 100, Some(query)).expect("scan").next();
        assert!(matches!(
            first,
            Some(Err(idf_engine::error::EngineError::ResourceExhausted(_)))
        ));

        // A deadline that has already passed stops the first chunk.
        let query = QueryContext::builder()
            .timeout(std::time::Duration::ZERO)
            .build();
        let err = snap
            .scan(None, 100, Some(query))
            .expect("scan")
            .next()
            .expect("one item")
            .unwrap_err();
        assert_eq!(err, idf_engine::error::EngineError::DeadlineExceeded);
    }
}
