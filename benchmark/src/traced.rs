//! The traced run: the first generated operations of a workload replayed
//! single-threaded, each call into a layer's public function wrapped in a
//! span recorded by this file. End-to-end metrics never come from here.
//!
//! The benchmark cannot see inside `engine.exec`, so the index probe (or
//! scan) a statement causes is replayed beside it on the same key through
//! `core`'s public API, and the trie probe beside that on a standalone
//! cTrie over the same keys; those replays are the `core` and `ctrie`
//! rows of the layer table.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idf_core::prelude::*;
use idf_ctrie::CTrie;
use idf_durable::wal::TableWal;
use idf_durable::{DurableSession, OsIo};
use idf_engine::catalog::TableSource;
use idf_engine::chunk::Chunk;
use idf_engine::config::DurabilityLevel;
use idf_engine::error::{EngineError, Result};
use idf_engine::physical::metrics::MetricsRegistry;
use idf_engine::physical::{execute_collect, operator_key, ExecutionPlan, TaskContext};
use idf_engine::prelude::Session;
use idf_engine::schema::{Schema, SchemaRef};
use idf_engine::sql::{binder, parse_statement, Statement};
use idf_engine::types::Value;
use idf_serve::wire;
use idf_serve::Client;

use crate::json::Json;
use crate::ops::{
    AppendGen, Class, Effect, Keys, LookupGen, MixedReadGen, MixedWriteGen, Op, ScanGen,
    ServedReadGen,
};
use crate::stats::{self, multiset_eq};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{
    durable_config, verify_acked, Checks, EmbeddedLookup, EmbeddedScan, RunConfig, ServedMixed,
    ServedRead, Workload,
};
use crate::Metric;

/// Operations a traced run replays at most (fewer when `--seconds` runs
/// out first: scans and fsyncs are slow).
pub const MAX_TRACED_OPS: usize = 20_000;
/// Operations between `Compactor::run_once` calls in the mixed replay
/// (the default policy decides; only the 200 ms timer is replaced).
const COMPACT_EVERY: usize = 500;

/// Every per-layer metric, in reporting order. A metric of a layer the
/// workload does not cross reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("serve.roundtrip_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.wire_codec_us", "us"),
    ("serve.rejects", "count"),
    ("engine.parse_us", "us"),
    ("engine.bind_us", "us"),
    ("engine.optimize_us", "us"),
    ("engine.plan_us", "us"),
    ("engine.exec_us", "us"),
    ("engine.rows_examined_per_returned", "ratio"),
    ("core.lookup_us", "us"),
    ("core.chain_rows_per_probe", "rows"),
    ("core.append_us", "us"),
    ("core.snapshot_us", "us"),
    ("core.scan_rows_per_s", "rows/s"),
    ("core.scan_ratio_vs_vanilla", "ratio"),
    ("ctrie.lookup_ns", "ns"),
    ("ctrie.insert_ns", "ns"),
    ("ctrie.snapshot_ns", "ns"),
    ("durable.commit_us", "us"),
    ("durable.commits_per_fsync", "ratio"),
    ("durable.wal_bytes_per_user_byte", "ratio"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.recover_ms", "ms"),
    ("views.lag_us", "us"),
    ("views.read_us", "us"),
    ("views.stale", "count"),
    ("compact.cycles", "count"),
    ("compact.run_ms", "ms"),
    ("compact.rows_rewritten", "rows"),
    ("compact.read_stall_ratio", "ratio"),
    ("share.serve_pct", "%"),
    ("share.engine_pct", "%"),
    ("share.core_pct", "%"),
    ("share.ctrie_pct", "%"),
    ("share.durable_pct", "%"),
    ("share.views_pct", "%"),
    ("share.compact_pct", "%"),
    ("share.bench_pct", "%"),
    ("trace.overhead_share", "ratio"),
    ("trace.ops", "count"),
];

/// What a traced run reports.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub file: PathBuf,
    pub layer_table: Json,
}

/// Span recording, or nothing: the untraced pass runs the same code so
/// the two differ only by the recording.
trait Rec {
    fn enter(&mut self, name: &'static str, op: u32) -> u32;
    fn exit(&mut self, id: u32);
    fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }
}

impl Rec for Tracer {
    fn enter(&mut self, name: &'static str, op: u32) -> u32 {
        Tracer::enter(self, name, op)
    }
    fn exit(&mut self, id: u32) {
        Tracer::exit(self, id)
    }
}

struct NoTrace;

impl Rec for NoTrace {
    fn enter(&mut self, _: &'static str, _: u32) -> u32 {
        0
    }
    fn exit(&mut self, _: u32) {}
}

/// Counts read at the span boundaries.
#[derive(Default)]
struct Counts {
    examined: u64,
    returned: u64,
    probes: u64,
    probe_rows: u64,
    scan_rows: u64,
    user_bytes_written: u64,
    rows_rewritten: u64,
    compact_cycles: u64,
    /// Durations of the `run_once` calls that rewrote something.
    rewrite_ns: Vec<u64>,
}

impl Counts {
    /// Account a sampled statement's leaf rows against its result rows.
    fn examine(&mut self, examined: Option<u64>, result: &Chunk) {
        if let Some(examined) = examined {
            self.examined += examined;
            self.returned += result.len() as u64;
        }
    }
}

/// The replay's bookkeeping: spans, per-operation classes, failures.
struct Replay {
    tracer: Tracer,
    classes: Vec<Class>,
    counts: Counts,
    checks: Checks,
    started: Instant,
    budget: Duration,
}

impl Replay {
    fn new(cfg: &RunConfig) -> Replay {
        Replay {
            tracer: Tracer::new(),
            classes: Vec::new(),
            counts: Counts::default(),
            checks: Checks::default(),
            started: Instant::now(),
            // The rest of `--seconds` is left for the untraced pass,
            // the post-replay probes and the checks.
            budget: Duration::from_secs_f64(cfg.seconds * 0.6),
        }
    }

    /// The id of the next operation, or `None` when the replay is over.
    fn next_op(&mut self, class: Class) -> Option<u32> {
        if self.classes.len() >= MAX_TRACED_OPS || self.started.elapsed() >= self.budget {
            return None;
        }
        self.classes.push(class);
        Some(self.classes.len() as u32 - 1)
    }
}

fn leaf_rows(plan: &dyn ExecutionPlan, registry: &MetricsRegistry) -> u64 {
    let children = plan.children();
    if children.is_empty() {
        return registry
            .operator_stats(&operator_key(plan))
            .map_or(0, |s| s.rows);
    }
    children
        .iter()
        .map(|c| leaf_rows(c.as_ref(), registry))
        .sum()
}

/// Leaf-operator row counts are read for one statement in this many
/// (walking the plan and formatting operator keys costs microseconds).
const EXAMINE_EVERY: u32 = 8;

/// One SELECT through the engine's public stages, a span each. Returns
/// the result, its schema, and — for sampled statements — the rows its
/// leaf operators produced.
fn engine_stages<R: Rec>(
    rec: &mut R,
    session: &Session,
    sql: &str,
    op: u32,
) -> Result<(Chunk, SchemaRef, Option<u64>)> {
    let statement = rec.span("engine.parse", op, || parse_statement(sql))?;
    let Statement::Select(select) = statement else {
        return Err(EngineError::exec(format!("not a SELECT: {sql}")));
    };
    let frame = rec.span("engine.bind", op, || binder::bind(session, &select))?;
    let optimized = rec.span("engine.optimize", op, || {
        session.optimizer().optimize(frame.logical_plan())
    })?;
    let plan = rec.span("engine.plan", op, || {
        session.planner().create_plan(&optimized)
    })?;
    let registry = Arc::new(MetricsRegistry::new());
    let chunk = rec.span("engine.exec", op, || {
        let ctx = TaskContext::with_query_metrics(
            session.config().clone(),
            session.new_query(),
            Arc::clone(&registry),
        );
        execute_collect(&plan, &ctx)
    })?;
    let examined = op
        .is_multiple_of(EXAMINE_EVERY)
        .then(|| leaf_rows(plan.as_ref(), &registry));
    let schema = frame.schema();
    // Freeing the statement and its plans is the engine's work too.
    rec.span("engine.release", op, || {
        drop((select, frame, optimized, plan, registry))
    });
    Ok((chunk, schema, examined))
}

/// What the server does around the engine for one statement: decode the
/// request, encode the response; and the client's half of both.
fn wire_request<R: Rec>(rec: &mut R, sql: &str, op: u32) -> Result<()> {
    let body = rec.span("serve.encode_query", op, || {
        wire::encode_query("trace", sql)
    })?;
    rec.span("serve.decode_request", op, || wire::decode_request(&body))?;
    Ok(())
}

fn wire_response<R: Rec>(rec: &mut R, schema: &Schema, chunk: &Chunk, op: u32) -> Result<()> {
    let frames = rec.span("serve.encode_response", op, || {
        let rows = chunk.to_rows();
        let mut frames = vec![wire::encode_schema(schema)];
        for slice in rows.chunks(wire::ROWS_PER_FRAME) {
            frames.push(wire::encode_rows(schema.len(), slice));
        }
        frames.push(wire::encode_end(rows.len() as u64));
        frames
    });
    rec.span("serve.decode_response", op, move || {
        frames
            .iter()
            .try_for_each(|f| wire::decode_response(f).map(drop))
    })
}

/// A standalone cTrie over the keys of one table, probed beside the
/// real index (`CTrie<Value, u64>` is the type `core` uses).
struct Trie {
    trie: CTrie<Value, u64>,
    keys: i64,
    fresh: i64,
}

impl Trie {
    fn over(keys: i64) -> Trie {
        let trie = CTrie::new();
        for k in 0..keys {
            trie.insert(Value::Int64(k), k as u64);
        }
        Trie {
            trie,
            keys: keys.max(1),
            fresh: keys,
        }
    }

    fn lookup<R: Rec>(&self, rec: &mut R, key: i64, op: u32) {
        let probe = Value::Int64(key.rem_euclid(self.keys));
        rec.span("ctrie.lookup", op, || {
            std::hint::black_box(self.trie.lookup(&probe));
        });
    }

    fn insert<R: Rec>(&mut self, rec: &mut R, op: u32) {
        let fresh = Value::Int64(self.fresh);
        self.fresh += 1;
        rec.span("ctrie.insert", op, || {
            self.trie.insert(fresh, op.into());
        });
    }

    fn snapshot<R: Rec>(&self, rec: &mut R, op: u32) {
        rec.span("ctrie.snapshot", op, || {
            std::hint::black_box(self.trie.read_only_snapshot());
        });
    }
}

/// The indexed table a short read probes, by the statement's shape.
fn probed_table<'a>(
    tables: &'a HashMap<&'static str, IndexedDataFrame>,
    sql: &str,
) -> Option<&'a IndexedDataFrame> {
    let name = if sql.contains("FROM message_by_creator") {
        "message_by_creator"
    } else if sql.contains("FROM message_by_reply") {
        "message_by_reply"
    } else if sql.contains("FROM knows") {
        "knows"
    } else if sql.contains("FROM message ") {
        "message"
    } else if sql.contains("FROM person") {
        "person"
    } else {
        return None;
    };
    tables.get(name)
}

/// Everything a served read needs for its in-process replay.
struct ReadCtx<'a> {
    session: &'a Session,
    tables: &'a HashMap<&'static str, IndexedDataFrame>,
    trie: &'a Trie,
}

/// The in-process half of one served read, as one `op` tree.
fn served_read_in_process<R: Rec>(
    rec: &mut R,
    ctx: &ReadCtx<'_>,
    sql: &str,
    key: i64,
    op: u32,
    counts: &mut Counts,
) -> Result<Chunk> {
    let root = rec.enter("op", op);
    let result = (|| {
        wire_request(rec, sql, op)?;
        let (chunk, schema, examined) = engine_stages(rec, ctx.session, sql, op)?;
        wire_response(rec, schema.as_ref(), &chunk, op)?;
        counts.examine(examined, &chunk);
        if let Some(table) = probed_table(ctx.tables, sql) {
            let rows = rec.span("core.lookup", op, || {
                table.table().lookup_chunk(&Value::Int64(key), None)
            })?;
            counts.probes += 1;
            counts.probe_rows += rows.len() as u64;
            ctx.trie.lookup(rec, key, op);
        }
        Ok(chunk)
    })();
    rec.exit(root);
    result
}

fn static_tables(t: &idf_snb::load::IndexedTables) -> HashMap<&'static str, IndexedDataFrame> {
    HashMap::from([
        ("person", t.person.clone()),
        ("knows", t.knows.clone()),
        ("message", t.message.clone()),
        ("message_by_creator", t.message_by_creator.clone()),
        ("message_by_reply", t.message_by_reply.clone()),
    ])
}

/// Untraced-vs-traced cost of the same operations: the share of the
/// traced replay's time that the recording itself took.
fn overhead_share(untraced_ns: u64, untraced_ops: usize, replay: &Replay) -> f64 {
    let traced: Vec<u64> = replay
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "op" && s.parent.is_none())
        .take(untraced_ops)
        .map(Span::duration_ns)
        .collect();
    if traced.len() < untraced_ops || untraced_ops == 0 {
        return 0.0;
    }
    let traced_ns: u64 = traced.iter().sum();
    (1.0 - untraced_ns as f64 / traced_ns.max(1) as f64).max(0.0)
}

/// Operations of the untraced comparison pass.
const OVERHEAD_OPS: usize = 1_000;

/// The untraced pass over served reads: the first `OVERHEAD_OPS`
/// operations exactly as the traced replay runs them — round trip, then
/// the in-process half — with nothing recorded. Returns the time spent in
/// the in-process halves, the quantity the traced `op` spans measure.
fn untraced_reads(
    ctx: &ReadCtx<'_>,
    client: &mut Client,
    mut next: impl FnMut() -> Op,
) -> Result<u64> {
    let mut in_process_ns = 0;
    for i in 0..OVERHEAD_OPS {
        let Op::Query { sql, key, .. } = next() else {
            continue;
        };
        client
            .query(&sql)
            .map_err(|e| EngineError::exec(format!("{sql}: {e}")))?;
        let t0 = Instant::now();
        served_read_in_process(
            &mut NoTrace,
            ctx,
            &sql,
            key,
            i as u32,
            &mut Counts::default(),
        )?;
        in_process_ns += t0.elapsed().as_nanos() as u64;
    }
    Ok(in_process_ns)
}

fn traced_served_read(cfg: &RunConfig) -> Result<(Replay, f64, Values)> {
    let mut env = ServedRead::setup(cfg)?;
    let keys = Keys::of(&env.env.data);
    let dims = keys.dims;
    let tables = static_tables(&env.env.tables);
    let trie = Trie::over(dims.persons.max(dims.messages));
    let ctx = ReadCtx {
        session: &env.env.session,
        tables: &tables,
        trie: &trie,
    };
    let rejects0 = rejects();
    let client = &mut env.clients[0];
    // Twice: the second pass is warm, as the traced replay after it is.
    let mut untraced_ns = 0;
    for _ in 0..2 {
        let mut gen = ServedReadGen::new(&keys, cfg.seed, 0);
        untraced_ns = untraced_reads(&ctx, client, || gen.next_op())?;
    }
    let mut replay = Replay::new(cfg);
    let mut gen = ServedReadGen::new(&keys, cfg.seed, 0);
    loop {
        let Op::Query { class, sql, key } = gen.next_op() else {
            continue;
        };
        let Some(op) = replay.next_op(class) else {
            break;
        };
        let reply = replay
            .tracer
            .span("serve.roundtrip", op, || client.query(&sql));
        let chunk =
            served_read_in_process(&mut replay.tracer, &ctx, &sql, key, op, &mut replay.counts)?;
        let same = reply.is_ok_and(|r| multiset_eq(r.rows, chunk.to_rows()));
        replay.checks.expect(same, || {
            format!("wire and in-process results differ: {sql}")
        });
    }
    let share = overhead_share(untraced_ns, OVERHEAD_OPS, &replay);
    let mut values = Values::default();
    values.set("serve.rejects", (rejects() - rejects0) as f64, 0);
    env.teardown();
    Ok((replay, share, values))
}

fn rejects() -> u64 {
    let obs = idf_obs::global();
    obs.server_rejected_busy.get() + obs.server_rejected_quota.get()
}

fn traced_embedded_lookup(cfg: &RunConfig) -> Result<(Replay, f64, Values)> {
    let env = EmbeddedLookup::setup(cfg)?;
    let keys = Keys::of(&env.data);
    let dims = keys.dims;
    let table = env.knows.table();
    let mut trie = Trie::over(dims.persons);
    fn one_lookup<R: Rec>(
        rec: &mut R,
        table: &IndexedTable,
        trie: &Trie,
        op_id: u32,
        op: &Op,
    ) -> Result<usize> {
        let root = rec.enter("op", op_id);
        let result = (|| match op {
            Op::Lookup { key } => {
                rec.span("core.snapshot", op_id, || {
                    std::hint::black_box(table.snapshot());
                });
                let rows = rec.span("core.lookup", op_id, || {
                    table.lookup_chunk(&Value::Int64(*key), None)
                })?;
                trie.lookup(rec, *key, op_id);
                trie.snapshot(rec, op_id);
                Ok(rows.len())
            }
            Op::LookupBatch { keys } => {
                let values: Vec<Value> = keys.iter().map(|&k| Value::Int64(k)).collect();
                let rows = rec.span("core.lookup_batch", op_id, || {
                    table.lookup_chunk_batch(&values, None)
                })?;
                Ok(rows.len())
            }
            other => Err(EngineError::exec(format!("not a lookup: {other:?}"))),
        })();
        rec.exit(root);
        result
    }
    let mut untraced_ns = 0;
    for _ in 0..2 {
        let mut gen = LookupGen::new(&keys, cfg.seed, 0);
        let t0 = Instant::now();
        for i in 0..OVERHEAD_OPS {
            one_lookup(&mut NoTrace, table, &trie, i as u32, &gen.next_op())?;
        }
        untraced_ns = t0.elapsed().as_nanos() as u64;
    }
    let mut replay = Replay::new(cfg);
    let mut reads = LookupGen::new(&keys, cfg.seed, 0);
    let mut appends = AppendGen::new(dims, cfg.seed);
    let mut appended: HashMap<i64, usize> = HashMap::new();
    let base_of = |key: i64| env.base_counts.get(key as usize).copied().unwrap_or(0) as usize;
    // The first OVERHEAD_OPS operations are lookups only, as in the
    // untraced pass; after that every fourth operation is an append
    // (the timed run's readers complete about three lookups per append).
    for n in 0usize.. {
        if n >= OVERHEAD_OPS && n % 4 == 3 {
            let Op::Append { p1, p2, ts } = appends.next_op() else {
                continue;
            };
            let Some(op) = replay.next_op(Class::Insert) else {
                break;
            };
            let row = [Value::Int64(p1), Value::Int64(p2), Value::Timestamp(ts)];
            let root = replay.tracer.enter("op", op);
            let result = replay
                .tracer
                .span("core.append", op, || table.append_row(&row));
            trie.insert(&mut replay.tracer, op);
            replay.tracer.exit(root);
            replay
                .checks
                .expect(result.is_ok(), || format!("append_row: {result:?}"));
            *appended.entry(p1).or_default() += 1;
            continue;
        }
        let read = reads.next_op();
        let Some(op) = replay.next_op(read.class()) else {
            break;
        };
        let rows = one_lookup(&mut replay.tracer, table, &trie, op, &read)?;
        // Single-threaded, so the expected count is exact online.
        let expected: usize = match &read {
            Op::Lookup { key } => base_of(*key) + appended.get(key).copied().unwrap_or(0),
            Op::LookupBatch { keys } => {
                let distinct: std::collections::HashSet<i64> = keys.iter().copied().collect();
                distinct
                    .iter()
                    .map(|k| base_of(*k) + appended.get(k).copied().unwrap_or(0))
                    .sum()
            }
            _ => 0,
        };
        if let Op::Lookup { .. } = read {
            replay.counts.probes += 1;
            replay.counts.probe_rows += rows as u64;
        }
        replay.checks.expect(rows == expected, || {
            format!("{read:?}: {rows} rows, expected {expected}")
        });
    }
    let share = overhead_share(untraced_ns, OVERHEAD_OPS, &replay);
    Ok((replay, share, Values::default()))
}

/// The indexed table a scan shape reads, if any.
fn scanned_table(tables: &idf_snb::load::IndexedTables, class: Class) -> Option<&IndexedDataFrame> {
    match class {
        Class::Projection | Class::Scan | Class::Range | Class::Agg => Some(&tables.knows),
        Class::Sq5 => Some(&tables.message),
        _ => None,
    }
}

fn traced_embedded_scan(cfg: &RunConfig) -> Result<(Replay, f64, Values)> {
    let env = EmbeddedScan::setup(cfg)?.env;
    let keys = Keys::of(&env.data);
    let dims = keys.dims;
    let vanilla = Session::with_config(cfg.engine());
    idf_snb::register_vanilla(&vanilla, &env.data)?;
    fn one_scan<R: Rec>(
        rec: &mut R,
        env: &crate::workloads::StaticEnv,
        op: u32,
        class: Class,
        sql: &str,
        counts: &mut Counts,
    ) -> Result<Chunk> {
        let root = rec.enter("op", op);
        let result = (|| {
            let (chunk, _, examined) = engine_stages(rec, &env.session, sql, op)?;
            counts.examine(examined, &chunk);
            if let Some(table) = scanned_table(&env.tables, class) {
                let source = IndexedSource::live(Arc::clone(table.table()));
                let rows = rec.span("core.scan", op, || -> Result<u64> {
                    let mut rows = 0u64;
                    for p in 0..source.num_partitions() {
                        for chunk in source.scan(p, None)? {
                            rows += chunk?.len() as u64;
                        }
                    }
                    Ok(rows)
                })?;
                counts.scan_rows += rows;
            }
            Ok(chunk)
        })();
        rec.exit(root);
        result
    }
    let untraced_ops = 22;
    let mut untraced_ns = 0;
    for _ in 0..2 {
        let mut gen = ScanGen::new(dims, cfg.seed, 0);
        let t0 = Instant::now();
        for i in 0..untraced_ops {
            let Op::Query { class, sql, .. } = gen.next_op() else {
                continue;
            };
            one_scan(
                &mut NoTrace,
                &env,
                i as u32,
                class,
                &sql,
                &mut Counts::default(),
            )?;
        }
        untraced_ns = t0.elapsed().as_nanos() as u64;
    }
    let mut replay = Replay::new(cfg);
    let mut gen = ScanGen::new(dims, cfg.seed, 0);
    loop {
        let Op::Query { class, sql, .. } = gen.next_op() else {
            continue;
        };
        let Some(op) = replay.next_op(class) else {
            break;
        };
        let chunk = one_scan(
            &mut replay.tracer,
            &env,
            op,
            class,
            &sql,
            &mut replay.counts,
        )?;
        let expected = replay.tracer.span("vanilla.exec", op, || {
            vanilla.sql(&sql).and_then(|df| df.collect())
        })?;
        let same = multiset_eq(chunk.to_rows(), expected.to_rows());
        replay
            .checks
            .expect(same, || format!("result differs from vanilla: {sql}"));
    }
    let share = overhead_share(untraced_ns, untraced_ops, &replay);
    Ok((replay, share, Values::default()))
}

fn traced_served_mixed(cfg: &RunConfig) -> Result<(Replay, f64, Values)> {
    let mut env = ServedMixed::setup(cfg)?;
    // The replay drives compaction itself (`run_once` every COMPACT_EVERY
    // operations) so that its counts repeat; the policy is unchanged.
    env.compactor.stop();
    let keys = Keys::of(&env.data);
    let dims = keys.dims;
    let session = env.store.session().clone();
    let tables: HashMap<&'static str, IndexedDataFrame> =
        ["person", "knows", "message", "message_by_creator"]
            .into_iter()
            .zip(env.tables.iter().cloned())
            .collect();
    let trie = Trie::over(dims.persons.max(dims.messages));
    let ctx = ReadCtx {
        session: &session,
        tables: &tables,
        trie: &trie,
    };
    let obs = idf_obs::global();
    let (fsyncs0, records0, wal0, rejects0) = (
        obs.wal_fsyncs.get(),
        obs.wal_records.get(),
        obs.wal_bytes.get(),
        rejects(),
    );
    let mut untraced_ns = 0;
    for _ in 0..2 {
        let mut gen = MixedReadGen::new(&keys, cfg.seed, 0);
        untraced_ns = untraced_reads(&ctx, &mut env.clients[0], || gen.next_op())?;
    }
    // A scratch WAL segment beside the store: `begin_commit` → ticket at
    // the store's own durability level, on the same filesystem.
    let scratch = env.dir.join("scratch-wal.log");
    let (wal, _) = TableWal::open(Arc::new(OsIo), &scratch, DurabilityLevel::Sync)?;
    let mut replay = Replay::new(cfg);
    let mut reads = MixedReadGen::new(&keys, cfg.seed, 0);
    let mut writes = MixedWriteGen::new(&env.data, cfg.seed, 0, 1);
    let mut acked: Vec<(Effect, u64)> = Vec::new();
    let client = &mut env.clients[0];
    let mut checkpointed = false;
    for n in 0usize.. {
        // Reads only while the untraced pass is being matched, then one
        // write in five (the timed run's ratio of completed operations).
        if n >= OVERHEAD_OPS && n % 5 == 4 {
            let Op::Write {
                class,
                stmts,
                effect,
                user_bytes,
            } = writes.next_op()
            else {
                continue;
            };
            let Some(op) = replay.next_op(class) else {
                break;
            };
            let sent = replay.tracer.span("serve.roundtrip", op, || {
                stmts.iter().try_for_each(|s| client.query(s).map(drop))
            });
            replay
                .checks
                .expect(sent.is_ok(), || format!("{stmts:?}: {sent:?}"));
            if sent.is_ok() {
                acked.push((effect, user_bytes));
                replay.counts.user_bytes_written += user_bytes;
            }
            let root = replay.tracer.enter("op", op);
            for stmt in &stmts {
                wire_request(&mut replay.tracer, stmt, op)?;
                replay
                    .tracer
                    .span("engine.parse_dml", op, || parse_statement(stmt).map(drop))?;
                let ticket = replay.tracer.span("durable.commit", op, || {
                    wal.begin_commit(&[stmt.as_bytes()])
                })?;
                drop(ticket);
            }
            replay
                .tracer
                .span("views.wait_idle", op, || env.views.wait_idle());
            if n % COMPACT_EVERY == COMPACT_EVERY - 1 {
                let t0 = Instant::now();
                let rows = replay
                    .tracer
                    .span("compact.run_once", op, || env.compactor.run_once())?;
                replay.counts.compact_cycles += 1;
                if !rows.is_empty() {
                    replay
                        .counts
                        .rewrite_ns
                        .push(t0.elapsed().as_nanos() as u64);
                }
                for row in rows {
                    if let Some(table) = tables.get(row.table.as_str()) {
                        replay.counts.rows_rewritten += table.row_count() as u64;
                    }
                }
            }
            if !checkpointed && replay.started.elapsed() >= replay.budget / 2 {
                checkpointed = true;
                replay
                    .tracer
                    .span("durable.checkpoint", op, || env.store.checkpoint(None))?;
            }
            replay.tracer.exit(root);
            continue;
        }
        let Op::Query { class, sql, key } = reads.next_op() else {
            continue;
        };
        let Some(op) = replay.next_op(class) else {
            break;
        };
        let reply = replay
            .tracer
            .span("serve.roundtrip", op, || client.query(&sql));
        let chunk =
            served_read_in_process(&mut replay.tracer, &ctx, &sql, key, op, &mut replay.counts)?;
        let same = reply.is_ok_and(|r| multiset_eq(r.rows, chunk.to_rows()));
        replay.checks.expect(same, || {
            format!("wire and in-process results differ: {sql}")
        });
    }
    if !checkpointed {
        replay
            .tracer
            .span("durable.checkpoint", 0, || env.store.checkpoint(None))?;
    }
    let share = overhead_share(untraced_ns, OVERHEAD_OPS, &replay);
    drop(wal);
    let _ = std::fs::remove_file(&scratch);

    let mut values = Values::default();
    let fsyncs = obs.wal_fsyncs.get() - fsyncs0;
    values.set(
        "durable.commits_per_fsync",
        (obs.wal_records.get() - records0) as f64 / fsyncs.max(1) as f64,
        fsyncs,
    );
    values.set(
        "durable.wal_bytes_per_user_byte",
        (obs.wal_bytes.get() - wal0) as f64 / replay.counts.user_bytes_written.max(1) as f64,
        0,
    );
    values.set("serve.rejects", (rejects() - rejects0) as f64, 0);
    values.set("views.stale", env.views.stale_views().len() as f64, 0);
    values.set(
        "compact.read_stall_ratio",
        read_stall_ratio(&session, &ctx, &keys, cfg.seed)?,
        0,
    );

    // Shut down, reopen, verify — timed as `durable.recover`.
    let dir = env.dir.clone();
    let ServedMixed {
        store,
        views,
        compactor,
        server,
        clients,
        control,
        tables: handles,
        ..
    } = env;
    drop((clients, control, tables, handles));
    server.shutdown();
    drop((views, compactor, session, store));
    let reopened = replay.tracer.span("durable.recover", 0, || {
        DurableSession::open(durable_config(cfg, &dir))
    })?;
    verify_acked(reopened.session(), &acked, &mut replay.checks)?;
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((replay, share, values))
}

/// Read tail while a rewrite runs ÷ read tail otherwise: one thread reads
/// in-process while this one forces `COMPACT knows` on and off.
fn read_stall_ratio(session: &Session, ctx: &ReadCtx<'_>, keys: &Keys, seed: u64) -> Result<f64> {
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let (samples, rewrites) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut gen = MixedReadGen::new(keys, seed, 99);
            let mut samples: Vec<(u64, u64)> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let Op::Query { sql, .. } = gen.next_op() else {
                    continue;
                };
                let t0 = origin.elapsed().as_nanos() as u64;
                if ctx.session.sql(&sql).and_then(|df| df.collect()).is_ok() {
                    samples.push((t0, origin.elapsed().as_nanos() as u64 - t0));
                }
            }
            samples
        });
        let mut rewrites: Vec<(u64, u64)> = Vec::new();
        let mut result = Ok(());
        while origin.elapsed() < Duration::from_millis(1200) && result.is_ok() {
            std::thread::sleep(Duration::from_millis(40));
            let t0 = origin.elapsed().as_nanos() as u64;
            result = session.compact(Some("knows")).map(drop);
            rewrites.push((t0, origin.elapsed().as_nanos() as u64));
        }
        stop.store(true, Ordering::Relaxed);
        let samples = reader.join().unwrap_or_default();
        result.map(|()| (samples, rewrites))
    })?;
    let (mut during, mut outside) = (Vec::new(), Vec::new());
    for (at, latency) in samples {
        let overlaps = rewrites.iter().any(|&(s, e)| at + latency >= s && at <= e);
        if overlaps { &mut during } else { &mut outside }.push(latency);
    }
    during.sort_unstable();
    outside.sort_unstable();
    Ok(
        match (
            stats::tail_percentile(&during, 0.99),
            stats::tail_percentile(&outside, 0.99),
        ) {
            (Some((_, d)), Some((_, o))) if o > 0 => d as f64 / o as f64,
            _ => 0.0,
        },
    )
}

/// Metric values by name, with the sample count behind each.
#[derive(Default)]
struct Values(BTreeMap<&'static str, (f64, u64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.0.insert(name, (value, samples));
    }

    /// p50 of `durations` scaled by `scale`, when there are any.
    fn p50(&mut self, name: &'static str, mut durations: Vec<u64>, scale: f64) {
        durations.sort_unstable();
        if let Some(p50) = stats::percentile(&durations, 0.5) {
            self.set(name, p50 as f64 * scale, durations.len() as u64);
        }
    }
}

/// Sum of the durations of the spans named in `names`, per operation.
fn per_op_sum(spans: &[Span], names: &[&str]) -> BTreeMap<u32, u64> {
    let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| names.contains(&s.name)) {
        *sums.entry(span.op_id).or_default() += span.duration_ns();
    }
    sums
}

const ENGINE_STAGES: [&str; 6] = [
    "engine.parse",
    "engine.bind",
    "engine.optimize",
    "engine.plan",
    "engine.exec",
    "engine.release",
];
const WIRE_CODEC: [&str; 4] = [
    "serve.encode_query",
    "serve.decode_request",
    "serve.encode_response",
    "serve.decode_response",
];

/// Turn the recorded spans and counts into the per-layer metrics.
fn layer_metrics(replay: &Replay, overhead: f64, mut values: Values) -> (Values, Json) {
    let spans = replay.tracer.spans();
    let named = |name: &str| trace::durations(spans, name).collect::<Vec<u64>>();
    for (metric, span, scale) in [
        ("serve.roundtrip_us", "serve.roundtrip", 1e-3),
        ("engine.parse_us", "engine.parse", 1e-3),
        ("engine.bind_us", "engine.bind", 1e-3),
        ("engine.optimize_us", "engine.optimize", 1e-3),
        ("engine.plan_us", "engine.plan", 1e-3),
        ("engine.exec_us", "engine.exec", 1e-3),
        ("core.lookup_us", "core.lookup", 1e-3),
        ("core.append_us", "core.append", 1e-3),
        ("core.snapshot_us", "core.snapshot", 1e-3),
        ("ctrie.lookup_ns", "ctrie.lookup", 1.0),
        ("ctrie.insert_ns", "ctrie.insert", 1.0),
        ("ctrie.snapshot_ns", "ctrie.snapshot", 1.0),
        ("durable.commit_us", "durable.commit", 1e-3),
        ("durable.checkpoint_ms", "durable.checkpoint", 1e-6),
        ("durable.recover_ms", "durable.recover", 1e-6),
        ("views.lag_us", "views.wait_idle", 1e-3),
    ] {
        values.p50(metric, named(span), scale);
    }
    // Rewrites only: a survey that finds nothing eligible is not a run.
    values.p50("compact.run_ms", replay.counts.rewrite_ns.clone(), 1e-6);
    let codec = per_op_sum(spans, &WIRE_CODEC);
    values.p50(
        "serve.wire_codec_us",
        codec.values().copied().collect(),
        1e-3,
    );
    // Round trip minus the same statement's in-process sql+collect.
    let engine = per_op_sum(spans, &ENGINE_STAGES);
    let is_read = |op: &u32| !replay.classes[*op as usize].is_write();
    let overheads: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "serve.roundtrip" && is_read(&s.op_id))
        .filter_map(|s| Some(s.duration_ns().saturating_sub(*engine.get(&s.op_id)?)))
        .collect();
    values.p50("serve.overhead_us", overheads, 1e-3);
    let view_reads: Vec<u64> = engine
        .iter()
        .filter(|(op, _)| replay.classes[**op as usize] == Class::View)
        .map(|(_, &ns)| ns)
        .collect();
    values.p50("views.read_us", view_reads, 1e-3);

    let c = &replay.counts;
    if c.returned + c.examined > 0 {
        values.set(
            "engine.rows_examined_per_returned",
            c.examined as f64 / c.returned.max(1) as f64,
            c.returned,
        );
    }
    if c.probes > 0 {
        values.set(
            "core.chain_rows_per_probe",
            c.probe_rows as f64 / c.probes as f64,
            c.probes,
        );
    }
    let scan_ns: u64 = named("core.scan").iter().sum();
    if scan_ns > 0 {
        values.set(
            "core.scan_rows_per_s",
            c.scan_rows as f64 / (scan_ns as f64 / 1e9),
            c.scan_rows,
        );
    }
    // FIG2's convention: vanilla time ÷ indexed time (1 is parity), over
    // the shapes that scan `knows`.
    let fig2 = |op: &u32| {
        matches!(
            replay.classes[*op as usize],
            Class::Projection | Class::Scan | Class::Range | Class::Agg
        )
    };
    let vanilla_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "vanilla.exec" && fig2(&s.op_id))
        .map(Span::duration_ns)
        .sum();
    let indexed_ns: u64 = engine
        .iter()
        .filter(|(op, _)| fig2(op))
        .map(|(_, ns)| ns)
        .sum();
    if vanilla_ns > 0 && indexed_ns > 0 {
        values.set(
            "core.scan_ratio_vs_vanilla",
            vanilla_ns as f64 / indexed_ns as f64,
            0,
        );
    }
    values.set("compact.cycles", c.compact_cycles as f64, 0);
    values.set("compact.rows_rewritten", c.rows_rewritten as f64, 0);
    values.set("trace.overhead_share", overhead, 0);
    values.set("trace.ops", replay.classes.len() as f64, 0);

    // Layer shares of the in-process total, and the table as printed.
    let (layers, total) = trace::layer_self_times(spans, "op");
    let mut rows = Vec::new();
    for (layer, metric) in [
        ("serve", "share.serve_pct"),
        ("engine", "share.engine_pct"),
        ("core", "share.core_pct"),
        ("ctrie", "share.ctrie_pct"),
        ("durable", "share.durable_pct"),
        ("views", "share.views_pct"),
        ("compact", "share.compact_pct"),
        ("bench", "share.bench_pct"),
    ] {
        let self_ns = layers.get(layer).copied().unwrap_or(0);
        let share = 100.0 * self_ns as f64 / total.max(1) as f64;
        values.set(metric, share, 0);
        rows.push((
            layer.to_string(),
            Json::obj([
                ("self_ms", Json::Num(self_ns as f64 / 1e6)),
                ("share_pct", Json::Num(share)),
            ]),
        ));
    }
    let covered: u64 = layers
        .iter()
        .filter(|(l, _)| **l != "bench")
        .map(|(_, ns)| ns)
        .sum();
    let table = Json::obj([
        ("in_process_total_ms", Json::Num(total as f64 / 1e6)),
        // Layer self times over the in-process total; the rest is the
        // benchmark's own glue between calls.
        (
            "layer_coverage",
            Json::Num(covered as f64 / total.max(1) as f64),
        ),
        ("layers", Json::Obj(rows)),
    ]);
    (values, table)
}

/// The traced run of one workload.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Traced> {
    let (replay, overhead, values) = match workload {
        "served-read" => traced_served_read(cfg)?,
        "embedded-lookup" => traced_embedded_lookup(cfg)?,
        "embedded-scan" => traced_embedded_scan(cfg)?,
        _ => traced_served_mixed(cfg)?,
    };
    let (values, layer_table) = layer_metrics(&replay, overhead, values);
    let file = cfg.work_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&file, trace::to_json(replay.tracer.spans()).render())
        .map_err(|e| EngineError::exec(format!("writing {}: {e}", file.display())))?;
    for error in &replay.checks.errors {
        eprintln!("benchmark: {error}");
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = values.0.get(name).copied().unwrap_or((0.0, 0));
            Metric {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect();
    Ok(Traced {
        metrics,
        attempted: replay.classes.len() as u64,
        failed: replay.checks.failed,
        file,
        layer_table,
    })
}
