//! The four workloads: set-up, the timed phase, and the output checks.
//! Each reaches the layers only through their public APIs.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use idf_compact::{CompactConfig, Compactor};
use idf_core::prelude::*;
use idf_durable::DurableSession;
use idf_engine::config::{DurabilityLevel, EngineConfig};
use idf_engine::error::{EngineError, Result};
use idf_engine::prelude::Session;
use idf_engine::types::Value;
use idf_serve::{Client, ClientError, ErrorCode, ServeConfig, Server};
use idf_snb::load::IndexedTables;
use idf_snb::{generate, SnbConfig, SnbData};
use idf_views::{ViewsConfig, ViewsSystem};

use crate::json::Json;
use crate::ops::{
    AppendGen, Dims, Effect, Keys, LookupGen, MixedReadGen, MixedWriteGen, Op, ScanGen,
    ServedReadGen, VIEW_NAME, VIEW_QUERY,
};
use crate::run::{closed_loop, Clock, Outcome, Sample, Summary, Tally};
use crate::stats::{multiset_eq, Lateness, Pacer};

/// `idf-snb` scale of every workload: 8 000 persons, ≈0.23 M `knows`
/// rows, ≈0.09 M messages (the issue's scale 16 cut four-fold so that
/// three set-ups and a run fit the driver's time cap; see README).
pub const SCALE: f64 = 4.0;
/// Rows per second the `embedded-lookup` appender is paced at.
pub const APPEND_RATE: u64 = 10_000;
/// Bytes charged per index entry: `PartitionMemory` counts entries, not
/// bytes, so the cTrie is estimated at key + packed pointer + node share.
pub const INDEX_ENTRY_BYTES: u64 = 48;

/// The names accepted by `--workload`, in reporting order.
pub const WORKLOADS: [&str; 4] = [
    "served-read",
    "embedded-lookup",
    "embedded-scan",
    "served-mixed",
];

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Where the benchmark may write (trace files, the durable store).
    pub work_dir: PathBuf,
}

impl RunConfig {
    /// Client threads/connections: `min(nproc, 4)`.
    pub fn clients(&self) -> usize {
        self.nproc.clamp(1, 4)
    }

    pub fn snb(&self) -> SnbConfig {
        SnbConfig::with_scale(SCALE).with_seed(self.seed)
    }

    pub fn engine(&self) -> EngineConfig {
        EngineConfig {
            target_partitions: self.nproc,
            ..EngineConfig::default()
        }
    }

    pub fn serve(&self) -> ServeConfig {
        ServeConfig {
            workers: self.nproc,
            ..ServeConfig::default()
        }
    }
}

/// What the timed phase and the output checks of one run produced.
pub struct Measured {
    pub summary: Summary,
    pub timed_seconds: f64,
    pub resident_bytes: u64,
    pub user_bytes: u64,
    /// Output checks made and failed (beyond per-operation failures).
    pub checks: Checks,
    pub diagnostics: Vec<(String, Json)>,
}

/// One workload: `setup` builds everything up to the first operation,
/// `run` measures and checks, `teardown` releases a set-up that is not run.
pub trait Workload: Sized {
    fn setup(cfg: &RunConfig) -> Result<Self>;
    fn run(self, cfg: &RunConfig) -> Result<Measured>;
    fn teardown(self) {}
}

/// The generated dataset's row counts, for the report.
fn sizes(data: &SnbData) -> (String, Json) {
    let rows = |n: usize| Json::Int(n as i64);
    (
        "rows".to_string(),
        Json::obj([
            ("person", rows(data.person.len())),
            ("knows", rows(data.knows.len())),
            ("message", rows(data.message.len())),
            ("forum", rows(data.forum.len())),
            ("forum_hasmember", rows(data.forum_hasmember.len())),
        ]),
    )
}

/// Resident bytes of indexed tables: committed row-batch bytes (headers,
/// backward pointers, tombstones and dead versions included; slack in
/// the open batch excluded, as it is quantised by the 4 MiB batch size)
/// plus the index estimate.
pub fn resident_bytes(tables: &[&IndexedDataFrame]) -> u64 {
    tables
        .iter()
        .map(|t| {
            let mem = t.memory_stats();
            mem.data_bytes as u64 + mem.index_entries as u64 * INDEX_ENTRY_BYTES
        })
        .sum()
}

/// User data in the loaded tables: their columnar size. `message` counts
/// once however many indexes hold a copy of it.
fn loaded_user_bytes(data: &SnbData) -> u64 {
    (data.person.byte_size() + data.knows.byte_size() + data.message.byte_size()) as u64
}

/// Replay kept statements through a vanilla session over the same
/// generated rows and compare results as multisets.
pub fn check_against_vanilla(data: &SnbData, kept: &[&crate::run::Kept]) -> Result<Checks> {
    let vanilla = Session::new();
    idf_snb::register_vanilla(&vanilla, data)?;
    let mut checks = Checks::default();
    for (sql, rows) in kept {
        let expected = vanilla.sql(sql)?.collect()?.to_rows();
        checks.expect(multiset_eq(rows.clone(), expected), || {
            format!("result differs from vanilla: {sql}")
        });
    }
    Ok(checks)
}

fn in_process(session: &Session, op: &Op, keep_rows: bool) -> Outcome {
    let Op::Query { sql, .. } = op else {
        return Outcome::Failed {
            message: format!("not a query: {op:?}"),
            fatal: true,
        };
    };
    match session.sql(sql).and_then(|df| df.collect()) {
        Ok(chunk) => {
            std::hint::black_box(chunk.len());
            Outcome::Done(keep_rows.then(|| chunk.to_rows()))
        }
        Err(e) => Outcome::Failed {
            message: format!("{sql}: {e}"),
            fatal: false,
        },
    }
}

/// One statement over the wire, classified.
fn over_wire(client: &mut Client, sql: &str) -> std::result::Result<Vec<Vec<Value>>, Outcome> {
    match client.query(sql) {
        Ok(reply) => Ok(reply.rows),
        Err(ClientError::Server(frame))
            if matches!(frame.code, ErrorCode::ServerBusy | ErrorCode::QuotaExceeded) =>
        {
            Err(Outcome::Refused)
        }
        Err(ClientError::Server(frame)) => Err(Outcome::Failed {
            message: format!("{sql}: {frame}"),
            fatal: false,
        }),
        Err(ClientError::Transport(e)) => Err(Outcome::Failed {
            message: format!("{sql}: {e}"),
            fatal: true,
        }),
    }
}

fn connect_all(server: &Server, n: usize) -> Result<Vec<Client>> {
    (0..n)
        .map(|i| Client::connect(server.local_addr(), format!("client-{i}")))
        .collect()
}

fn join_tallies(handles: Vec<std::thread::ScopedJoinHandle<'_, Tally>>) -> Vec<Tally> {
    handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Tally::lost("client thread panicked"))
        })
        .collect()
}

// ---------------------------------------------------------------------
// served-read
// ---------------------------------------------------------------------

/// A static indexed SNB dataset in a plain session.
pub struct StaticEnv {
    pub data: SnbData,
    pub session: Session,
    pub tables: IndexedTables,
}

impl StaticEnv {
    fn build(cfg: &RunConfig) -> Result<StaticEnv> {
        let data = generate(cfg.snb())?;
        let session = Session::with_config(cfg.engine());
        let tables = idf_snb::register_indexed(&session, &data)?;
        Ok(StaticEnv {
            data,
            session,
            tables,
        })
    }

    fn memory(&self) -> (u64, u64) {
        let t = &self.tables;
        let resident = resident_bytes(&[
            &t.person,
            &t.knows,
            &t.message,
            &t.message_by_creator,
            &t.message_by_reply,
        ]);
        (resident, loaded_user_bytes(&self.data))
    }
}

/// SNB short reads that use the index, over the wire.
pub struct ServedRead {
    pub env: StaticEnv,
    pub server: Server,
    pub clients: Vec<Client>,
}

impl Workload for ServedRead {
    fn setup(cfg: &RunConfig) -> Result<Self> {
        let env = StaticEnv::build(cfg)?;
        let server = Server::bind(env.session.clone(), "127.0.0.1:0", cfg.serve())?;
        let clients = connect_all(&server, cfg.clients())?;
        Ok(ServedRead {
            env,
            server,
            clients,
        })
    }

    fn run(self, cfg: &RunConfig) -> Result<Measured> {
        let keys = &Keys::of(&self.env.data);
        let clock = Clock::start(cfg.seconds);
        let tallies = std::thread::scope(|scope| {
            let handles = self
                .clients
                .into_iter()
                .enumerate()
                .map(|(i, mut client)| {
                    let clock = &clock;
                    scope.spawn(move || {
                        let mut gen = ServedReadGen::new(keys, cfg.seed, i as u64);
                        closed_loop(
                            clock,
                            || gen.next_op(),
                            |op, keep| match op {
                                Op::Query { sql, .. } => match over_wire(&mut client, sql) {
                                    Ok(rows) => Outcome::Done(keep.then_some(rows)),
                                    Err(outcome) => outcome,
                                },
                                _ => unreachable!("served-read issues only queries"),
                            },
                        )
                    })
                })
                .collect();
            join_tallies(handles)
        });
        let summary = Summary::merge(tallies, clock.timed_phase_ns());
        let drain = self.server.shutdown();
        let (resident_bytes, user_bytes) = self.env.memory();
        let checks = check_against_vanilla(&self.env.data, &summary.check_sample())?;
        Ok(Measured {
            timed_seconds: clock.timed_seconds(),
            resident_bytes,
            user_bytes,
            checks,
            diagnostics: vec![
                sizes(&self.env.data),
                (
                    "drain_cancelled".to_string(),
                    Json::Int(drain.cancelled as i64),
                ),
            ],
            summary,
        })
    }

    fn teardown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

// ---------------------------------------------------------------------
// embedded-lookup
// ---------------------------------------------------------------------

/// `get_rows_chunk` on `knows(person1_id)` beside a paced appender.
pub struct EmbeddedLookup {
    pub data: SnbData,
    pub knows: IndexedDataFrame,
    /// Rows per `person1_id` in the generated data.
    pub base_counts: Vec<u32>,
}

impl Workload for EmbeddedLookup {
    fn setup(cfg: &RunConfig) -> Result<Self> {
        let data = generate(cfg.snb())?;
        let session = Session::with_config(cfg.engine());
        let table = Arc::new(IndexedTable::from_chunk(
            idf_snb::gen::knows_schema(),
            0,
            IndexConfig::default(),
            &data.knows,
        )?);
        let knows = IndexedDataFrame::from_table(session, table);
        let mut base_counts = vec![0u32; (data.max_person_id + 1) as usize];
        let keys = data.knows.column(0);
        for row in 0..data.knows.len() {
            if let Some(k) = keys.value_at(row).as_i64() {
                base_counts[k as usize] += 1;
            }
        }
        Ok(EmbeddedLookup {
            data,
            knows,
            base_counts,
        })
    }

    fn run(self, cfg: &RunConfig) -> Result<Measured> {
        let keys = &Keys::of(&self.data);
        let dims = keys.dims;
        let readers = cfg.nproc.saturating_sub(1).max(1);
        let clock = Clock::start(cfg.seconds);
        let base = &self.base_counts;
        let knows = &self.knows;
        let base_of = |key: i64| base.get(key as usize).copied().unwrap_or(0) as usize;
        let (tallies, appended) = std::thread::scope(|scope| {
            let clock = &clock;
            let appender = scope.spawn(move || paced_appender(clock, knows, dims, cfg.seed));
            let handles = (0..readers)
                .map(|i| {
                    scope.spawn(move || {
                        let mut gen = LookupGen::new(keys, cfg.seed, i as u64);
                        closed_loop(
                            clock,
                            || gen.next_op(),
                            |op, _| match lookup_checked(knows, op, dims.persons, &base_of) {
                                Ok(()) => Outcome::Done(None),
                                Err(message) => Outcome::Failed {
                                    message,
                                    fatal: false,
                                },
                            },
                        )
                    })
                })
                .collect();
            let mut tallies = join_tallies(handles);
            let (tally, appended) = appender
                .join()
                .unwrap_or_else(|_| (Tally::lost("appender thread panicked"), HashMap::new()));
            tallies.push(tally);
            (tallies, appended)
        });
        let summary = Summary::merge(tallies, clock.timed_phase_ns());
        // Exact after the run: every key holds its generated rows plus
        // every acknowledged append, and nothing else.
        let mut checks = Checks::default();
        for key in 0..dims.persons {
            let want = base_of(key) + appended.get(&key).copied().unwrap_or(0) as usize;
            let got = self.knows.get_rows_chunk(key)?.len();
            checks.expect(got == want, || {
                format!("key {key}: {got} rows, expected {want}")
            });
        }
        let appended_rows: u64 = appended.values().map(|&n| u64::from(n)).sum();
        let user_bytes = self.data.knows.byte_size() as u64 + appended_rows * 24;
        Ok(Measured {
            timed_seconds: clock.timed_seconds(),
            resident_bytes: resident_bytes(&[&self.knows]),
            user_bytes,
            checks,
            diagnostics: vec![
                sizes(&self.data),
                ("reader_threads".to_string(), Json::Int(readers as i64)),
                ("rows_appended".to_string(), Json::Int(appended_rows as i64)),
            ],
            summary,
        })
    }
}

/// One lookup operation with its online check: a key never returns
/// fewer rows than the generated data holds for it, and a key outside
/// the data returns none.
fn lookup_checked(
    knows: &IndexedDataFrame,
    op: &Op,
    persons: i64,
    base_of: &impl Fn(i64) -> usize,
) -> std::result::Result<(), String> {
    match op {
        Op::Lookup { key } => {
            let rows = knows.get_rows_chunk(*key).map_err(|e| e.to_string())?.len();
            let floor = base_of(*key);
            if rows < floor || (*key >= persons && rows != 0) {
                return Err(format!("key {key}: {rows} rows, generated {floor}"));
            }
            Ok(())
        }
        Op::LookupBatch { keys } => {
            let values: Vec<Value> = keys.iter().map(|&k| Value::Int64(k)).collect();
            let rows = knows
                .get_rows_chunk_batch(&values)
                .map_err(|e| e.to_string())?
                .len();
            let distinct: HashSet<i64> = keys.iter().copied().collect();
            let floor: usize = distinct.iter().map(|&k| base_of(k)).sum();
            if rows < floor {
                return Err(format!("batch: {rows} rows, generated {floor}"));
            }
            Ok(())
        }
        other => Err(format!("not a lookup: {other:?}")),
    }
}

/// The open-loop appender: edge `i` is due at `i / APPEND_RATE`; its
/// recorded latency is the `append_row` call, and how late the schedule
/// ran is accounted separately.
fn paced_appender(
    clock: &Clock,
    knows: &IndexedDataFrame,
    dims: Dims,
    seed: u64,
) -> (Tally, HashMap<i64, u32>) {
    let pacer = Pacer::per_second(APPEND_RATE);
    let mut gen = AppendGen::new(dims, seed);
    let mut tally = Tally::default();
    let mut lateness = Lateness::default();
    let mut appended: HashMap<i64, u32> = HashMap::new();
    for i in 0u64.. {
        let due = pacer.due_ns(i);
        if clock.finished(due) {
            break;
        }
        while clock.now_ns() < due {
            std::hint::spin_loop();
        }
        let Op::Append { p1, p2, ts } = gen.next_op() else {
            unreachable!("the append generator yields appends");
        };
        let row = [Value::Int64(p1), Value::Int64(p2), Value::Timestamp(ts)];
        let start = clock.now_ns();
        let result = knows.append_row(&row);
        let end = clock.now_ns();
        if result.is_ok() {
            *appended.entry(p1).or_default() += 1;
        }
        if !clock.counts(start, end) {
            continue;
        }
        lateness.record(&pacer, due, start);
        tally.attempted += 1;
        match result {
            Ok(()) => {
                tally.completed += 1;
                tally.samples.push(Sample {
                    at_ns: clock.timed_ns(end),
                    latency_ns: end - start,
                    class: crate::ops::Class::Insert,
                });
            }
            Err(e) => tally.fail(format!("append_row: {e}")),
        }
    }
    tally.lateness = Some(lateness);
    (tally, appended)
}

// ---------------------------------------------------------------------
// embedded-scan
// ---------------------------------------------------------------------

/// The operators that cannot use the index, through in-process SQL.
pub struct EmbeddedScan {
    pub env: StaticEnv,
}

impl Workload for EmbeddedScan {
    fn setup(cfg: &RunConfig) -> Result<Self> {
        Ok(EmbeddedScan {
            env: StaticEnv::build(cfg)?,
        })
    }

    fn run(self, cfg: &RunConfig) -> Result<Measured> {
        let keys = Keys::of(&self.env.data);
        let dims = keys.dims;
        let clock = Clock::start(cfg.seconds);
        let session = &self.env.session;
        let tallies = std::thread::scope(|scope| {
            let clock = &clock;
            let handles = (0..cfg.clients())
                .map(|i| {
                    scope.spawn(move || {
                        let mut gen = ScanGen::new(dims, cfg.seed, i as u64);
                        closed_loop(
                            clock,
                            || gen.next_op(),
                            |op, keep| in_process(session, op, keep),
                        )
                    })
                })
                .collect();
            join_tallies(handles)
        });
        let summary = Summary::merge(tallies, clock.timed_phase_ns());
        let (resident_bytes, user_bytes) = self.env.memory();
        let checks = check_against_vanilla(&self.env.data, &summary.check_sample())?;
        Ok(Measured {
            timed_seconds: clock.timed_seconds(),
            resident_bytes,
            user_bytes,
            checks,
            diagnostics: vec![sizes(&self.env.data)],
            summary,
        })
    }
}

// ---------------------------------------------------------------------
// served-mixed
// ---------------------------------------------------------------------

/// Writes beside reads over the wire: a `Sync`-durability store, one
/// materialized view, and the background compactor.
pub struct ServedMixed {
    pub data: SnbData,
    pub store: DurableSession,
    pub views: Arc<ViewsSystem>,
    pub compactor: Arc<Compactor>,
    pub server: Server,
    pub clients: Vec<Client>,
    pub control: Client,
    pub dir: PathBuf,
    pub tables: Vec<IndexedDataFrame>,
}

/// The tables `served-mixed` serves: name, key column.
const MIXED_TABLES: [(&str, usize); 4] = [
    ("person", 0),
    ("knows", 0),
    ("message", 0),
    ("message_by_creator", 4),
];

pub fn durable_config(cfg: &RunConfig, dir: &std::path::Path) -> EngineConfig {
    EngineConfig {
        data_dir: Some(dir.to_path_buf()),
        // Flush policy: every commit waits for its group's fsync.
        durability: DurabilityLevel::Sync,
        ..cfg.engine()
    }
}

fn fresh_data_dir(cfg: &RunConfig) -> Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = cfg
        .work_dir
        .join(format!("data-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| EngineError::exec(format!("creating {}: {e}", dir.display())))?;
    Ok(dir)
}

impl Workload for ServedMixed {
    fn setup(cfg: &RunConfig) -> Result<Self> {
        let data = generate(cfg.snb())?;
        let dir = fresh_data_dir(cfg)?;
        let store = DurableSession::open(durable_config(cfg, &dir))?;
        let views = idf_views::install(store.session(), ViewsConfig::default());
        let compactor = idf_compact::install(store.session(), CompactConfig::default());
        let mut tables = Vec::new();
        for (name, key) in MIXED_TABLES {
            let (schema, chunk) = match name {
                "person" => (idf_snb::gen::person_schema(), &data.person),
                "knows" => (idf_snb::gen::knows_schema(), &data.knows),
                _ => (idf_snb::gen::message_schema(), &data.message),
            };
            let df = store.create_table(name, schema, key, IndexConfig::default())?;
            df.table().append_chunk(chunk)?;
            tables.push(df);
        }
        // Start from a checkpoint so recovery replays only the run's WAL.
        store.checkpoint(None)?;
        store
            .sql(&format!(
                "CREATE MATERIALIZED VIEW {VIEW_NAME} AS {VIEW_QUERY}"
            ))?
            .collect()?;
        // Only the tables that take UPDATE/DELETE accumulate dead versions.
        compactor.register("person", Arc::clone(tables[0].table()));
        compactor.register("knows", Arc::clone(tables[1].table()));
        compactor.start();
        let server = Server::bind(store.session().clone(), "127.0.0.1:0", cfg.serve())?;
        let clients = connect_all(&server, cfg.clients().max(2))?;
        let control = Client::connect(server.local_addr(), "control")?;
        Ok(ServedMixed {
            data,
            store,
            views,
            compactor,
            server,
            clients,
            control,
            dir,
            tables,
        })
    }

    fn run(mut self, cfg: &RunConfig) -> Result<Measured> {
        let keys = &Keys::of(&self.data);
        let readers = (self.clients.len() / 2).max(1);
        let writers = self.clients.len() - readers;
        let obs = idf_obs::global();
        let (fsyncs0, records0, wal0) = (
            obs.wal_fsyncs.get(),
            obs.wal_records.get(),
            obs.wal_bytes.get(),
        );
        let (runs0, reclaimed0) = (
            obs.compaction_runs.get(),
            obs.compaction_rows_reclaimed.get(),
        );
        let cycles0 = self.compactor.cycles();
        let clock = Clock::start(cfg.seconds);
        let data = &self.data;
        let mut clients = std::mem::take(&mut self.clients);
        let write_clients = clients.split_off(readers);
        let control = &mut self.control;
        let (tallies, acked, checkpoint_ms) = std::thread::scope(|scope| {
            let clock = &clock;
            let read_handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(i, mut client)| {
                    scope.spawn(move || {
                        let mut gen = MixedReadGen::new(keys, cfg.seed, i as u64);
                        closed_loop(
                            clock,
                            || gen.next_op(),
                            |op, _| match op {
                                Op::Query { sql, .. } => match over_wire(&mut client, sql) {
                                    Ok(_) => Outcome::Done(None),
                                    Err(outcome) => outcome,
                                },
                                _ => unreachable!("mixed readers issue only queries"),
                            },
                        )
                    })
                })
                .collect();
            let write_handles: Vec<_> = write_clients
                .into_iter()
                .enumerate()
                .map(|(i, mut client)| {
                    scope.spawn(move || {
                        let mut gen = MixedWriteGen::new(data, cfg.seed, i as u64, writers as u64);
                        let mut acked: Vec<(Effect, u64)> = Vec::new();
                        let tally = closed_loop(
                            clock,
                            || gen.next_op(),
                            |op, _| {
                                let Op::Write {
                                    stmts,
                                    effect,
                                    user_bytes,
                                    ..
                                } = op
                                else {
                                    unreachable!("mixed writers issue only writes");
                                };
                                for stmt in stmts {
                                    if let Err(outcome) = over_wire(&mut client, stmt) {
                                        return outcome;
                                    }
                                }
                                acked.push((effect.clone(), *user_bytes));
                                Outcome::Done(None)
                            },
                        );
                        (tally, acked)
                    })
                })
                .collect();
            // One CHECKPOINT, from a connection of its own.
            clock.sleep_until(clock.first_quarter_ns());
            let t0 = Instant::now();
            let checkpoint = control.query("CHECKPOINT");
            let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut tallies = join_tallies(read_handles);
            let mut acked = Vec::new();
            for handle in write_handles {
                match handle.join() {
                    Ok((tally, mut effects)) => {
                        tallies.push(tally);
                        acked.append(&mut effects);
                    }
                    Err(_) => {
                        tallies.push(Tally::lost("writer thread panicked"));
                    }
                }
            }
            if let Err(e) = checkpoint {
                tallies.push(Tally::lost(&format!("CHECKPOINT: {e}")));
            }
            (tallies, acked, checkpoint_ms)
        });
        let summary = Summary::merge(tallies, clock.timed_phase_ns());

        // Quiesce, then the checks that need the live session.
        self.compactor.stop();
        self.views.wait_idle();
        let session = self.store.session();
        let mut check = Checks::default();
        let stale = self.views.stale_views();
        check.expect(stale.is_empty(), || format!("stale views: {stale:?}"));
        let view_rows = session
            .sql(&format!("SELECT * FROM {VIEW_NAME}"))?
            .collect()?
            .to_rows();
        let cold_rows = session.sql(VIEW_QUERY)?.collect()?.to_rows();
        check.expect(multiset_eq(view_rows, cold_rows), || {
            "the view differs from its defining query executed cold".to_string()
        });

        let table_refs: Vec<&IndexedDataFrame> = self.tables.iter().collect();
        let resident = resident_bytes(&table_refs);
        let written: u64 = acked.iter().map(|(_, bytes)| bytes).sum();
        let fsyncs = obs.wal_fsyncs.get() - fsyncs0;
        let mut diagnostics = vec![
            sizes(data),
            ("reader_connections".to_string(), Json::Int(readers as i64)),
            ("writer_connections".to_string(), Json::Int(writers as i64)),
            ("checkpoint_ms".to_string(), Json::Num(checkpoint_ms)),
            ("acked_writes".to_string(), Json::Int(acked.len() as i64)),
            (
                "commits_per_fsync".to_string(),
                Json::Num((obs.wal_records.get() - records0) as f64 / fsyncs.max(1) as f64),
            ),
            (
                "wal_bytes_per_user_byte".to_string(),
                Json::Num((obs.wal_bytes.get() - wal0) as f64 / written.max(1) as f64),
            ),
            (
                "compaction_cycles".to_string(),
                Json::Int((self.compactor.cycles() - cycles0) as i64),
            ),
            (
                "compaction_rewrites".to_string(),
                Json::Int((obs.compaction_runs.get() - runs0) as i64),
            ),
            (
                "compaction_rows_reclaimed".to_string(),
                Json::Int((obs.compaction_rows_reclaimed.get() - reclaimed0) as i64),
            ),
        ];

        // Shut down, reopen from disk, and hold the store to the oracle.
        let ServedMixed {
            store,
            views,
            compactor,
            server,
            control,
            dir,
            tables,
            ..
        } = self;
        drop(control);
        server.shutdown();
        drop((tables, views, compactor, store));
        let t0 = Instant::now();
        let reopened = DurableSession::open(durable_config(cfg, &dir))?;
        let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        verify_acked(reopened.session(), &acked, &mut check)?;
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);

        diagnostics.push(("recover_ms".to_string(), Json::Num(recover_ms)));
        Ok(Measured {
            timed_seconds: clock.timed_seconds(),
            resident_bytes: resident,
            user_bytes: loaded_user_bytes(data) + written,
            checks: check,
            diagnostics,
            summary,
        })
    }

    fn teardown(self) {
        drop((self.clients, self.control));
        self.server.shutdown();
        self.compactor.stop();
        let dir = self.dir.clone();
        drop((self.tables, self.views, self.compactor, self.store));
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Counted pass/fail checks with the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    pub made: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(describe());
            }
        }
    }
}

fn count(session: &Session, sql: &str) -> Result<i64> {
    let chunk = session.sql(sql)?.collect()?;
    Ok(if chunk.is_empty() {
        0
    } else {
        chunk.value_at(0, 0).as_i64().unwrap_or(-1)
    })
}

/// Every acknowledged insert and update is present and every
/// acknowledged delete is gone, in a store reopened from disk.
pub fn verify_acked(session: &Session, acked: &[(Effect, u64)], check: &mut Checks) -> Result<()> {
    let added: HashSet<(i64, i64)> = acked
        .iter()
        .filter_map(|(e, _)| match e {
            Effect::Knows { p1, p2 } => Some([(*p1, *p2), (*p2, *p1)]),
            _ => None,
        })
        .flatten()
        .collect();
    let removed: HashSet<(i64, i64)> = acked
        .iter()
        .filter_map(|(e, _)| match e {
            Effect::Unfriend { p1, p2 } => Some((*p1, *p2)),
            _ => None,
        })
        .collect();
    // The last acknowledged city per person wins.
    let mut cities: HashMap<i64, i64> = HashMap::new();
    let pair = |p1: i64, p2: i64| {
        format!("SELECT count(*) FROM knows WHERE person1_id = {p1} AND person2_id = {p2}")
    };
    for (effect, _) in acked {
        match effect {
            Effect::Person { id } => {
                let n = count(
                    session,
                    &format!("SELECT count(*) FROM person WHERE id = {id}"),
                )?;
                check.expect(n == 1, || format!("inserted person {id}: {n} rows"));
            }
            Effect::Message { id, creator } => {
                let by_id = format!("SELECT count(*) FROM message WHERE id = {id}");
                let by_creator = format!(
                    "SELECT count(*) FROM message_by_creator \
                     WHERE creator_id = {creator} AND id = {id}"
                );
                for sql in [by_id, by_creator] {
                    let n = count(session, &sql)?;
                    check.expect(n == 1, || {
                        format!("inserted message {id}: {n} rows ({sql})")
                    });
                }
            }
            // A pair both inserted and deleted by this run has no
            // order-free expectation; everything else does.
            Effect::Knows { p1, p2 } => {
                for (a, b) in [(*p1, *p2), (*p2, *p1)] {
                    if !removed.contains(&(a, b)) {
                        let n = count(session, &pair(a, b))?;
                        check.expect(n >= 1, || format!("inserted edge {a}->{b}: {n} rows"));
                    }
                }
            }
            Effect::Unfriend { p1, p2 } => {
                if !added.contains(&(*p1, *p2)) {
                    let n = count(session, &pair(*p1, *p2))?;
                    check.expect(n == 0, || format!("deleted edge {p1}->{p2}: {n} rows"));
                }
            }
            Effect::City { person, city } => {
                cities.insert(*person, *city);
            }
        }
    }
    for (person, city) in cities {
        let rows = session
            .sql(&format!("SELECT city_id FROM person WHERE id = {person}"))?
            .collect()?
            .to_rows();
        check.expect(rows == vec![vec![Value::Int64(city)]], || {
            format!("updated person {person}: {rows:?}, expected city {city}")
        });
    }
    Ok(())
}
