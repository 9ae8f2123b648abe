//! **BENCH-compact** — the DML + background-compaction loop under a
//! sustained update-heavy workload (days-equivalent churn compressed):
//!
//! * resident row-batch memory with no compaction (monotone growth) vs
//!   with the background compactor running (flat steady state),
//! * backward-pointer chain-walk p99 before vs after a rewrite,
//! * point-lookup latency while the compactor is actively rewriting vs
//!   quiesced,
//! * a real SIGKILL landing mid-compaction, with the recovered store
//!   compared bit-for-bit against an in-memory oracle that replays the
//!   same deterministic DML stream.
//!
//! The numbers land in `BENCH_compact.json` via `harness compact`. The
//! crash leg re-executes the current binary with [`CRASH_DIR_ENV`] set
//! (the same self-exec trick as the `kill_reopen` durability test), so
//! any binary that calls [`run`] must invoke [`crash_child_entry`]
//! before doing anything else.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idf_compact::CompactConfig;
use idf_core::prelude::*;
use idf_core::source::IndexedSource;
use idf_core::table::IndexedTable;
use idf_durable::{DurableSession, TempDir};
use idf_engine::config::{DurabilityLevel, EngineConfig};
use idf_engine::error::{EngineError, Result};
use idf_engine::prelude::Session;
use idf_engine::types::Value;

use crate::percentile_us;

/// When set, the process is a crash-leg child: it churns a durable
/// store, then loops `COMPACT` until SIGKILLed (see [`crash_child_entry`]).
pub const CRASH_DIR_ENV: &str = "IDF_COMPACT_BENCH_CHILD";
const CRASH_KEYS_ENV: &str = "IDF_COMPACT_BENCH_KEYS";
const CRASH_ROUNDS_ENV: &str = "IDF_COMPACT_BENCH_ROUNDS";
/// The child re-exec target: a libtest filter naming the helper test in
/// this module. The `harness` binary ignores these args (its env check
/// runs first), so the same spawn works from both hosts.
const CRASH_CHILD_ARGS: &[&str] = &[
    "compact_bench::tests::compact_crash_child_helper",
    "--exact",
    "--nocapture",
];
/// The child publishes progress through these marker files (written
/// atomically via rename, so the parent never reads a torn value).
const CHURN_DONE_FILE: &str = "churn-done";
const COMPACTS_FILE: &str = "compacts";

/// Workload shape for one compaction benchmark run.
#[derive(Debug, Clone)]
pub struct CompactBenchConfig {
    /// Distinct keys in each churned table.
    pub keys: usize,
    /// Update waves applied to the un-compacted table.
    pub churn_rounds: usize,
    /// Update waves applied while the background compactor runs.
    pub steady_rounds: usize,
    /// Timed point lookups per latency measurement.
    pub lookups: usize,
    /// Distinct keys in the crash-leg child's durable table.
    pub crash_keys: usize,
    /// Update waves the crash-leg child applies before compacting.
    pub crash_rounds: usize,
    /// Whether to run the SIGKILL-during-compaction leg.
    pub crash: bool,
}

impl CompactBenchConfig {
    /// The harness shape: `scale 2.0` ⇒ 40 k keys × 8 update waves.
    pub fn for_scale(scale: f64) -> CompactBenchConfig {
        CompactBenchConfig {
            keys: ((scale * 20_000.0) as usize).max(2_000),
            churn_rounds: 8,
            steady_rounds: 16,
            lookups: ((scale * 2_000.0) as usize).max(500),
            crash_keys: ((scale * 1_000.0) as usize).max(400),
            crash_rounds: 5,
            crash: true,
        }
    }
}

/// Outcome of the SIGKILL-during-compaction leg (all zeros when the leg
/// is disabled, so the JSON shape is stable).
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// Whether the leg ran.
    pub enabled: bool,
    /// `COMPACT` statements the child completed before the SIGKILL.
    pub compactions_before_kill: u64,
    /// Cold-open time of the surviving store (ms).
    pub recover_ms: f64,
    /// Visible rows in the recovered table.
    pub rows_recovered: usize,
    /// Recovered scan matched the oracle replay bit-for-bit ([`run`]
    /// fails outright on a mismatch, so a report always carries `true`
    /// here when `enabled`).
    pub oracle_matched: bool,
}

impl CrashOutcome {
    fn disabled() -> CrashOutcome {
        CrashOutcome {
            enabled: false,
            compactions_before_kill: 0,
            recover_ms: 0.0,
            rows_recovered: 0,
            oracle_matched: false,
        }
    }
}

impl crate::json::ToJson for CrashOutcome {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("enabled", Json::Bool(self.enabled)),
            (
                "compactions_before_kill",
                Json::Int(self.compactions_before_kill as i64),
            ),
            ("recover_ms", Json::Num(self.recover_ms)),
            ("rows_recovered", Json::Int(self.rows_recovered as i64)),
            ("oracle_matched", Json::Bool(self.oracle_matched)),
        ])
    }
}

/// The `BENCH_compact.json` payload.
#[derive(Debug, Clone)]
pub struct CompactBenchReport {
    /// Distinct keys in each churned table.
    pub keys: usize,
    /// Update waves applied to the un-compacted table.
    pub churn_rounds: usize,
    /// Row-batch bytes after the first un-compacted wave.
    pub mem_first_round_bytes: usize,
    /// Row-batch bytes after the last un-compacted wave.
    pub mem_last_round_bytes: usize,
    /// last / first without compaction (the leak the rewrite closes).
    pub mem_growth_no_compact: f64,
    /// Chain-walk length p99 probing the churned table (rows walked; 0
    /// without `obs`).
    pub chain_p99_pre: u64,
    /// Chain-walk length p99 probing the same table after `COMPACT`.
    pub chain_p99_post: u64,
    /// Point-lookup p99 on the churned (un-compacted) table (µs).
    pub lookup_pre_p99_us: f64,
    /// Manual `COMPACT` wall time (ms).
    pub compact_ms: f64,
    /// Superseded versions the rewrite reclaimed.
    pub rows_reclaimed: i64,
    /// Bytes the rewrite reclaimed.
    pub bytes_reclaimed: i64,
    /// Row-batch bytes after the rewrite.
    pub mem_after_compact_bytes: usize,
    /// Quiesced point-lookup median after the rewrite (µs).
    pub lookup_p50_us: f64,
    /// Quiesced point-lookup p99 after the rewrite (µs).
    pub lookup_p99_us: f64,
    /// Update waves applied while the background compactor ran.
    pub steady_rounds: usize,
    /// Row-batch bytes after the first steady-state wave.
    pub steady_mem_first_bytes: usize,
    /// Row-batch bytes after the last steady-state wave.
    pub steady_mem_last_bytes: usize,
    /// last / first with the compactor running (flat ⇒ ~1.0).
    pub steady_mem_growth: f64,
    /// Point-lookup median while the compactor was rewriting (µs).
    pub steady_lookup_p50_us: f64,
    /// Point-lookup p99 while the compactor was rewriting (µs).
    pub steady_lookup_p99_us: f64,
    /// Background survey cycles completed during the steady phase.
    pub background_cycles: u64,
    /// Background rewrites completed during the steady phase (0 without
    /// `obs`).
    pub background_runs: u64,
    /// Whether `idf-obs` was compiled in for this run.
    pub obs_enabled: bool,
    /// The SIGKILL-during-compaction leg.
    pub crash: CrashOutcome,
    /// Git commit the numbers were produced from.
    pub git_commit: String,
    /// ISO-8601 UTC timestamp of the run.
    pub timestamp: String,
}

impl crate::json::ToJson for CompactBenchReport {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("keys", Json::Int(self.keys as i64)),
            ("churn_rounds", Json::Int(self.churn_rounds as i64)),
            (
                "mem_first_round_bytes",
                Json::Int(self.mem_first_round_bytes as i64),
            ),
            (
                "mem_last_round_bytes",
                Json::Int(self.mem_last_round_bytes as i64),
            ),
            (
                "mem_growth_no_compact",
                Json::Num(self.mem_growth_no_compact),
            ),
            ("chain_p99_pre", Json::Int(self.chain_p99_pre as i64)),
            ("chain_p99_post", Json::Int(self.chain_p99_post as i64)),
            ("lookup_pre_p99_us", Json::Num(self.lookup_pre_p99_us)),
            ("compact_ms", Json::Num(self.compact_ms)),
            ("rows_reclaimed", Json::Int(self.rows_reclaimed)),
            ("bytes_reclaimed", Json::Int(self.bytes_reclaimed)),
            (
                "mem_after_compact_bytes",
                Json::Int(self.mem_after_compact_bytes as i64),
            ),
            ("lookup_p50_us", Json::Num(self.lookup_p50_us)),
            ("lookup_p99_us", Json::Num(self.lookup_p99_us)),
            ("steady_rounds", Json::Int(self.steady_rounds as i64)),
            (
                "steady_mem_first_bytes",
                Json::Int(self.steady_mem_first_bytes as i64),
            ),
            (
                "steady_mem_last_bytes",
                Json::Int(self.steady_mem_last_bytes as i64),
            ),
            ("steady_mem_growth", Json::Num(self.steady_mem_growth)),
            ("steady_lookup_p50_us", Json::Num(self.steady_lookup_p50_us)),
            ("steady_lookup_p99_us", Json::Num(self.steady_lookup_p99_us)),
            (
                "background_cycles",
                Json::Int(self.background_cycles as i64),
            ),
            ("background_runs", Json::Int(self.background_runs as i64)),
            ("obs_enabled", Json::Bool(self.obs_enabled)),
            ("crash", self.crash.to_json()),
            ("git_commit", Json::Str(self.git_commit.clone())),
            ("timestamp", Json::Str(self.timestamp.clone())),
        ])
    }
}

/// The benchmark table shape, `(k BIGINT, v BIGINT)` keyed on `k` — the
/// crash-leg child creates it through [`DurableSession::create_table`]
/// (SQL DDL makes plain in-memory tables), everything else through DDL.
fn churn_schema() -> idf_engine::schema::SchemaRef {
    use idf_engine::schema::{Field, Schema};
    use idf_engine::types::DataType;
    Arc::new(Schema::new(vec![
        Field::required("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]))
}

/// The deterministic DML stream both the crash-leg child and the oracle
/// replay over an existing `(k, v)` table: seed `keys` rows, then per
/// round one half-table UPDATE wave and one single-key DELETE.
/// Statement order is the contract — the recovered store must equal a
/// full replay bit-for-bit.
fn churn_statements(table: &str, keys: usize, rounds: usize) -> Vec<String> {
    let mut stmts = Vec::new();
    let mut k = 0usize;
    while k < keys {
        let n = 500.min(keys - k);
        let values: Vec<String> = (k..k + n).map(|i| format!("({i}, {i})")).collect();
        stmts.push(format!("INSERT INTO {table} VALUES {}", values.join(", ")));
        k += n;
    }
    for r in 0..rounds {
        stmts.push(round_update(table, r));
        stmts.push(round_delete(table, r));
    }
    stmts
}

fn round_update(table: &str, round: usize) -> String {
    format!(
        "UPDATE {table} SET v = v + {} WHERE k % 2 = {}",
        round + 1,
        round % 2
    )
}

fn round_delete(table: &str, round: usize) -> String {
    format!("DELETE FROM {table} WHERE k = {round}")
}

fn sql(session: &Session, query: &str) -> Result<idf_engine::chunk::Chunk> {
    session.sql(query)?.collect()
}

/// The registered `IndexedTable` behind a DDL-created table (the same
/// catalog downcast the compactor's discovery uses).
fn table_handle(session: &Session, name: &str) -> Result<Arc<IndexedTable>> {
    let source = session.catalog().get(name)?;
    let indexed = source
        .as_any()
        .downcast_ref::<IndexedSource>()
        .ok_or_else(|| EngineError::exec(format!("{name} is not an indexed table")))?;
    Ok(Arc::clone(indexed.table()))
}

/// Per-probe point-lookup latencies (ns): a fresh snapshot plus one key
/// probe per sample, keys spread over the table with a Fibonacci-hash
/// stride. Deleted keys probe to an empty chunk, which is still a full
/// index walk.
fn probe_ns(table: &IndexedTable, keys: usize, probes: usize) -> Result<Vec<u64>> {
    let mut ns = Vec::with_capacity(probes);
    for i in 0..probes {
        let k = ((i as u64).wrapping_mul(2_654_435_761) % keys.max(1) as u64) as i64;
        let start = Instant::now();
        let chunk = table.snapshot().lookup_chunk(&Value::Int64(k), None)?;
        ns.push(start.elapsed().as_nanos() as u64);
        std::hint::black_box(chunk.len());
    }
    ns.sort_unstable();
    Ok(ns)
}

fn write_atomic(dir: &Path, name: &str, value: &str) {
    let tmp = dir.join(format!("{name}.tmp"));
    let dst = dir.join(name);
    if std::fs::write(&tmp, value).is_ok() {
        let _ = std::fs::rename(&tmp, &dst);
    }
}

fn read_count(dir: &Path, name: &str) -> u64 {
    std::fs::read_to_string(dir.join(name))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Crash-leg child entry. Returns `false` (a no-op) unless
/// [`CRASH_DIR_ENV`] is set; when set, churns a `Sync`-durability store
/// in that directory, marks the churn done, then loops `COMPACT` (with
/// periodic checkpoints) until the parent SIGKILLs it. Call this first
/// thing in any binary that hosts [`run`]; a `true` return means the
/// process was the child and should exit.
pub fn crash_child_entry() -> bool {
    let Ok(dir) = std::env::var(CRASH_DIR_ENV) else {
        return false;
    };
    let keys = std::env::var(CRASH_KEYS_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let rounds = std::env::var(CRASH_ROUNDS_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    if let Err(e) = crash_child(&PathBuf::from(dir), keys, rounds) {
        eprintln!("compact bench crash child: {e}");
        std::process::exit(1);
    }
    true
}

fn durable_config(dir: &Path) -> EngineConfig {
    EngineConfig {
        data_dir: Some(dir.to_path_buf()),
        durability: DurabilityLevel::Sync,
        ..EngineConfig::default()
    }
}

fn crash_child(dir: &Path, keys: usize, rounds: usize) -> Result<()> {
    let sess = DurableSession::open(durable_config(dir))?;
    let _compactor = idf_compact::install(sess.session(), CompactConfig::default());
    sess.create_table("churn", churn_schema(), 0, IndexConfig::default())?;
    for stmt in churn_statements("churn", keys, rounds) {
        sess.sql(&stmt)?.collect()?;
    }
    sess.checkpoint(Some("churn"))?;
    write_atomic(dir, CHURN_DONE_FILE, "1");
    // Compact in a tight loop until killed; interleave checkpoints so
    // the SIGKILL can land mid-rewrite or mid-checkpoint-of-compacted
    // state. Bounded so an orphaned child cannot spin forever.
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut compacts = 0u64;
    while Instant::now() < deadline {
        sess.sql("COMPACT churn")?.collect()?;
        compacts += 1;
        write_atomic(dir, COMPACTS_FILE, &compacts.to_string());
        if compacts.is_multiple_of(4) {
            sess.checkpoint(Some("churn"))?;
        }
    }
    Ok(())
}

/// Parent side of the crash leg: spawn the child, wait for it to finish
/// churning and complete at least two compactions, SIGKILL it, reopen
/// the store, and compare the full ordered scan bit-for-bit against an
/// in-memory oracle replaying the identical statement stream.
fn crash_leg(cfg: &CompactBenchConfig) -> Result<CrashOutcome> {
    let dir = TempDir::new("bench-compact-crash");
    let exe = std::env::current_exe()
        .map_err(|e| EngineError::exec(format!("current_exe for crash child: {e}")))?;
    let mut child = std::process::Command::new(exe)
        .args(CRASH_CHILD_ARGS)
        .env(CRASH_DIR_ENV, dir.path())
        .env(CRASH_KEYS_ENV, cfg.crash_keys.to_string())
        .env(CRASH_ROUNDS_ENV, cfg.crash_rounds.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| EngineError::exec(format!("spawn crash child: {e}")))?;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if read_count(dir.path(), CHURN_DONE_FILE) == 1
            && read_count(dir.path(), COMPACTS_FILE) >= 2
        {
            break;
        }
        if let Some(status) = child
            .try_wait()
            .map_err(|e| EngineError::exec(format!("crash child wait: {e}")))?
        {
            return Err(EngineError::exec(format!(
                "crash child exited early ({status})"
            )));
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(EngineError::exec("crash child made no progress"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child
        .kill()
        .map_err(|e| EngineError::exec(format!("SIGKILL crash child: {e}")))?;
    let _ = child.wait();
    let compactions = read_count(dir.path(), COMPACTS_FILE);

    let start = Instant::now();
    let sess = DurableSession::open(durable_config(dir.path()))?;
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;

    // Oracle: the same statement stream replayed in memory. Compaction
    // and checkpoints are logically invisible, so the recovered store
    // must reproduce the replay exactly.
    let oracle = Session::new();
    install_indexed_ddl(&oracle, IndexConfig::default());
    sql(&oracle, "CREATE TABLE churn (k BIGINT, v BIGINT)")?;
    for stmt in churn_statements("churn", cfg.crash_keys, cfg.crash_rounds) {
        sql(&oracle, &stmt)?;
    }
    let scan = "SELECT k, v FROM churn ORDER BY k";
    let recovered = sess.sql(scan)?.collect()?.to_rows();
    let expected = sql(&oracle, scan)?.to_rows();
    if recovered != expected {
        return Err(EngineError::exec(format!(
            "crash recovery diverged from the oracle: {} recovered rows vs {} expected",
            recovered.len(),
            expected.len()
        )));
    }
    Ok(CrashOutcome {
        enabled: true,
        compactions_before_kill: compactions,
        recover_ms,
        rows_recovered: recovered.len(),
        oracle_matched: true,
    })
}

/// Run the full compaction benchmark.
pub fn run(cfg: &CompactBenchConfig) -> Result<CompactBenchReport> {
    let session = Session::new();
    install_indexed_ddl(&session, IndexConfig::default());
    // Aggressive policy so steady-state cycles keep up with the
    // compressed churn; the manual COMPACT path ignores it anyway.
    let compactor = idf_compact::install(
        &session,
        CompactConfig {
            interval: Duration::from_millis(2),
            min_dead_rows: 64,
            min_dead_ratio: 0.05,
            ..CompactConfig::default()
        },
    );

    // Phase 1: churn with no compaction — the memory leak baseline.
    sql(&session, "CREATE TABLE cold (k BIGINT, v BIGINT)")?;
    for stmt in churn_statements("cold", cfg.keys, 0) {
        sql(&session, &stmt)?;
    }
    let cold = table_handle(&session, "cold")?;
    let mut mem_per_round = Vec::with_capacity(cfg.churn_rounds);
    for r in 0..cfg.churn_rounds {
        sql(&session, &round_update("cold", r))?;
        sql(&session, &round_delete("cold", r))?;
        mem_per_round.push(cold.memory_stats().data_bytes);
    }
    let mem_first = mem_per_round.first().copied().unwrap_or(0);
    let mem_last = mem_per_round.last().copied().unwrap_or(0);

    // Phase 2: chain-walk and lookup latency on the churned table.
    idf_obs::global().chain_walk.reset();
    let pre_ns = probe_ns(&cold, cfg.keys, cfg.lookups)?;
    let chain_p99_pre = idf_obs::global().chain_walk.percentile(99.0);

    // Phase 3: the manual rewrite.
    let start = Instant::now();
    let report = sql(&session, "COMPACT cold")?;
    let compact_ms = start.elapsed().as_secs_f64() * 1e3;
    let (mut rows_reclaimed, mut bytes_reclaimed) = (0i64, 0i64);
    for row in report.to_rows() {
        if let Value::Int64(n) = row[1] {
            rows_reclaimed += n;
        }
        if let Value::Int64(n) = row[2] {
            bytes_reclaimed += n;
        }
    }
    let mem_after_compact = cold.memory_stats().data_bytes;

    // Phase 4: the same probes against the compacted table.
    idf_obs::global().chain_walk.reset();
    let post_ns = probe_ns(&cold, cfg.keys, cfg.lookups)?;
    let chain_p99_post = idf_obs::global().chain_walk.percentile(99.0);

    // Phase 5: steady state — same churn, background compactor running.
    sql(&session, "CREATE TABLE steady (k BIGINT, v BIGINT)")?;
    for stmt in churn_statements("steady", cfg.keys, 0) {
        sql(&session, &stmt)?;
    }
    let steady = table_handle(&session, "steady")?;
    compactor.register("steady", Arc::clone(&steady));
    let cycles0 = compactor.cycles();
    let runs0 = idf_obs::global().compaction_runs.get();
    compactor.start();
    let probes_per_round = (cfg.lookups / cfg.steady_rounds.max(1)).max(16);
    let mut steady_mem = Vec::with_capacity(cfg.steady_rounds);
    let mut during_ns = Vec::new();
    for r in 0..cfg.steady_rounds {
        sql(&session, &round_update("steady", r))?;
        sql(&session, &round_delete("steady", r))?;
        during_ns.extend(probe_ns(&steady, cfg.keys, probes_per_round)?);
        // Let the compactor catch up so the sample shows steady state,
        // not the instant after a wave landed.
        let settle = Instant::now() + Duration::from_millis(250);
        while steady.memory_stats().dead_rows >= 64 && Instant::now() < settle {
            std::thread::sleep(Duration::from_millis(1));
        }
        steady_mem.push(steady.memory_stats().data_bytes);
    }
    compactor.stop();
    compactor.deregister("steady");
    let background_cycles = compactor.cycles() - cycles0;
    let background_runs = idf_obs::global().compaction_runs.get() - runs0;
    during_ns.sort_unstable();
    let steady_first = steady_mem.first().copied().unwrap_or(0);
    let steady_last = steady_mem.last().copied().unwrap_or(0);

    // Phase 6: SIGKILL mid-compaction, recover, audit against the oracle.
    let crash = if cfg.crash {
        crash_leg(cfg)?
    } else {
        CrashOutcome::disabled()
    };

    Ok(CompactBenchReport {
        keys: cfg.keys,
        churn_rounds: cfg.churn_rounds,
        mem_first_round_bytes: mem_first,
        mem_last_round_bytes: mem_last,
        mem_growth_no_compact: mem_last as f64 / mem_first.max(1) as f64,
        chain_p99_pre,
        chain_p99_post,
        lookup_pre_p99_us: percentile_us(&pre_ns, 0.99),
        compact_ms,
        rows_reclaimed,
        bytes_reclaimed,
        mem_after_compact_bytes: mem_after_compact,
        lookup_p50_us: percentile_us(&post_ns, 0.5),
        lookup_p99_us: percentile_us(&post_ns, 0.99),
        steady_rounds: cfg.steady_rounds,
        steady_mem_first_bytes: steady_first,
        steady_mem_last_bytes: steady_last,
        steady_mem_growth: steady_last as f64 / steady_first.max(1) as f64,
        steady_lookup_p50_us: percentile_us(&during_ns, 0.5),
        steady_lookup_p99_us: percentile_us(&during_ns, 0.99),
        background_cycles,
        background_runs,
        obs_enabled: idf_obs::enabled(),
        crash,
        git_commit: crate::meta::git_commit(),
        timestamp: crate::meta::iso_timestamp(),
    })
}

/// Human-readable rendering of a report.
pub fn render(r: &CompactBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "BENCH-compact ({} keys, {} churn waves + {} steady waves)\n",
        r.keys, r.churn_rounds, r.steady_rounds
    ));
    out.push_str(&format!(
        "memory KiB        churn-only {} -> {} ({:.2}x) | steady w/ compactor {} -> {} ({:.2}x)\n",
        r.mem_first_round_bytes / 1024,
        r.mem_last_round_bytes / 1024,
        r.mem_growth_no_compact,
        r.steady_mem_first_bytes / 1024,
        r.steady_mem_last_bytes / 1024,
        r.steady_mem_growth
    ));
    out.push_str(&format!(
        "chain walk p99    pre {} -> post {} rows | COMPACT {:.1} ms reclaimed {} rows / {} KiB (now {} KiB)\n",
        r.chain_p99_pre,
        r.chain_p99_post,
        r.compact_ms,
        r.rows_reclaimed,
        r.bytes_reclaimed / 1024,
        r.mem_after_compact_bytes / 1024
    ));
    out.push_str(&format!(
        "point lookup µs   churned p99 {:.1} | compacted p50 {:.1} p99 {:.1} | under compactor p50 {:.1} p99 {:.1}\n",
        r.lookup_pre_p99_us,
        r.lookup_p50_us,
        r.lookup_p99_us,
        r.steady_lookup_p50_us,
        r.steady_lookup_p99_us
    ));
    out.push_str(&format!(
        "background        {} cycles, {} rewrites\n",
        r.background_cycles, r.background_runs
    ));
    if r.crash.enabled {
        out.push_str(&format!(
            "SIGKILL leg       {} compactions before kill | reopen {:.1} ms | {} rows, oracle match: {}\n",
            r.crash.compactions_before_kill,
            r.crash.recover_ms,
            r.crash.rows_recovered,
            r.crash.oracle_matched
        ));
    } else {
        out.push_str("SIGKILL leg       skipped\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Crash-leg child body; a no-op unless the parent set
    /// [`CRASH_DIR_ENV`]. Not a test of its own (see `kill_reopen`).
    #[test]
    fn compact_crash_child_helper() {
        crash_child_entry();
    }

    /// Smoke-scale end-to-end run, including the real SIGKILL leg.
    #[test]
    fn compact_bench_smoke() {
        let cfg = CompactBenchConfig {
            keys: 400,
            churn_rounds: 5,
            steady_rounds: 6,
            lookups: 400,
            crash_keys: 200,
            crash_rounds: 3,
            crash: true,
        };
        let report = run(&cfg).unwrap();
        assert!(
            report.mem_growth_no_compact > 1.0,
            "un-compacted churn must grow: {report:?}"
        );
        assert!(report.rows_reclaimed > 0, "{report:?}");
        assert!(
            report.mem_after_compact_bytes < report.mem_last_round_bytes,
            "{report:?}"
        );
        assert!(
            report.steady_mem_growth < report.mem_growth_no_compact,
            "the compactor must flatten steady-state memory: {report:?}"
        );
        if idf_obs::enabled() {
            assert!(
                report.chain_p99_post < report.chain_p99_pre,
                "compaction must shorten chain walks: {report:?}"
            );
            assert!(report.background_runs > 0, "{report:?}");
        }
        assert!(report.lookup_p99_us > 0.0 && report.steady_lookup_p99_us > 0.0);
        assert!(report.crash.enabled && report.crash.oracle_matched);
        assert!(report.crash.compactions_before_kill >= 2);
        assert!(report.crash.rows_recovered > 0);
        let json = crate::json::to_string_pretty(&report);
        for key in [
            "mem_growth_no_compact",
            "chain_p99_post",
            "steady_lookup_p99_us",
            "oracle_matched",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert!(!render(&report).is_empty());
    }
}
