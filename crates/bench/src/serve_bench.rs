//! **BENCH-serve** — closed-loop load against the `idf-serve` service
//! layer: N concurrent wire clients issuing a mixed
//! lookup/append/join/DDL workload against one shared indexed table.
//!
//! Sweeps the client count up to the configured maximum (≥ 32 for the
//! acceptance shape), reporting per-step p50/p99/p999 latency and
//! queries/s, the saturation throughput across the sweep, and the
//! graceful-drain cost at teardown. The numbers land in
//! `BENCH_serve.json` via `harness serve`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idf_core::prelude::*;
use idf_engine::config::EngineConfig;
use idf_engine::error::{EngineError, Result};
use idf_engine::prelude::Session;
use idf_serve::{Client, ClientError, ErrorCode, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload shape for one service-layer load run.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Maximum concurrent clients (the last sweep step).
    pub max_clients: usize,
    /// Seconds each sweep step runs.
    pub step_secs: f64,
    /// Distinct keys preloaded into the shared table.
    pub n_keys: usize,
    /// Server execution slots: statements running at once
    /// (`ServeConfig::workers`).
    pub workers: usize,
}

impl ServeBenchConfig {
    /// The harness shape: 32 clients, `scale 2.0` ⇒ 250 k preloaded keys.
    pub fn for_scale(scale: f64) -> ServeBenchConfig {
        ServeBenchConfig {
            max_clients: 32,
            step_secs: 4.0,
            n_keys: ((scale * 125_000.0) as usize).max(1_000),
            workers: idf_engine::config::default_parallelism().clamp(2, 16),
        }
    }
}

/// One sweep step: `clients` concurrent closed-loop clients.
#[derive(Debug, Clone)]
pub struct ServeStep {
    /// Concurrent clients in this step.
    pub clients: usize,
    /// Queries completed successfully.
    pub queries: u64,
    /// Typed `ServerBusy`/`QuotaExceeded` rejections (legal under load,
    /// counted separately from errors).
    pub rejects: u64,
    /// Unexpected failures (any other error frame, or transport loss).
    pub errors: u64,
    /// Completed queries per second.
    pub qps: f64,
    /// Median query latency (µs), measured send-to-`End` at the client.
    pub p50_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
    /// 99.9th-percentile latency (µs).
    pub p999_us: f64,
    /// Per-query-class breakdown (lookup/append/join/ddl), so a slow
    /// class cannot hide inside the aggregate tail.
    pub classes: Vec<ClassStats>,
}

impl crate::json::ToJson for ServeStep {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("clients", Json::Int(self.clients as i64)),
            ("queries", Json::Int(self.queries as i64)),
            ("rejects", Json::Int(self.rejects as i64)),
            ("errors", Json::Int(self.errors as i64)),
            ("qps", Json::Num(self.qps)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("p999_us", Json::Num(self.p999_us)),
            (
                "classes",
                Json::Arr(self.classes.iter().map(|c| c.to_json()).collect()),
            ),
        ])
    }
}

/// Latency profile of one query class within a step.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Class label: `lookup`, `append`, `join`, or `ddl`.
    pub name: &'static str,
    /// Queries of this class completed in the step.
    pub queries: u64,
    /// Median latency (µs).
    pub p50_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
}

impl crate::json::ToJson for ClassStats {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("queries", Json::Int(self.queries as i64)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p99_us", Json::Num(self.p99_us)),
        ])
    }
}

/// Results of one service-layer load run (the `BENCH_serve.json` payload).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Preloaded distinct keys in the shared table.
    pub keys: usize,
    /// Server execution slots (statements running at once).
    pub workers: usize,
    /// Seconds per sweep step.
    pub step_secs: f64,
    /// The client-count sweep, ascending.
    pub steps: Vec<ServeStep>,
    /// Highest queries/s observed across the sweep (the saturation
    /// throughput of this configuration).
    pub saturation_qps: f64,
    /// In-flight queries cancelled by the graceful drain (0 for a clean
    /// teardown of an idle server).
    pub drain_cancelled: usize,
    /// Wall-clock drain time in milliseconds.
    pub drain_ms: f64,
    /// Git commit the numbers were produced from.
    pub git_commit: String,
    /// ISO-8601 UTC timestamp of the run.
    pub timestamp: String,
}

impl crate::json::ToJson for ServeReport {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("keys", Json::Int(self.keys as i64)),
            ("workers", Json::Int(self.workers as i64)),
            ("step_secs", Json::Num(self.step_secs)),
            (
                "steps",
                Json::Arr(self.steps.iter().map(|s| s.to_json()).collect()),
            ),
            ("saturation_qps", Json::Num(self.saturation_qps)),
            ("drain_cancelled", Json::Int(self.drain_cancelled as i64)),
            ("drain_ms", Json::Num(self.drain_ms)),
            ("git_commit", Json::Str(self.git_commit.clone())),
            ("timestamp", Json::Str(self.timestamp.clone())),
        ])
    }
}

/// Latency percentile over raw nanosecond samples (the 64-bucket obs
/// histogram is too coarse for p999, so the bench keeps every sample).
fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)] as f64 / 1_000.0
}

const CLASS_LOOKUP: usize = 0;
const CLASS_APPEND: usize = 1;
const CLASS_JOIN: usize = 2;
const CLASS_DDL: usize = 3;
const CLASS_NAMES: [&str; 4] = ["lookup", "append", "join", "ddl"];

/// What one client thread observed during a step, bucketed by class.
struct ClientTally {
    samples_ns: [Vec<u64>; 4],
    rejects: u64,
    errors: u64,
}

/// One closed-loop client: issue mixed queries until `stop`, recording
/// send-to-`End` latency per query.
fn client_loop(
    addr: std::net::SocketAddr,
    id: usize,
    n_keys: usize,
    stop: &AtomicBool,
) -> ClientTally {
    let mut tally = ClientTally {
        samples_ns: Default::default(),
        rejects: 0,
        errors: 0,
    };
    let mut client = match Client::connect(addr, format!("tenant-{}", id % 4)) {
        Ok(client) => client,
        Err(_) => {
            tally.errors += 1;
            return tally;
        }
    };
    let mut rng = StdRng::seed_from_u64(0xbe9c + id as u64);
    let mut ddl_round = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let key = rng.gen_range(0..n_keys as i64);
        let roll: u32 = rng.gen_range(0..100);
        let (class, sql) = if roll < 60 {
            // Point lookup on the indexed column.
            (
                CLASS_LOOKUP,
                format!("SELECT v FROM events WHERE id = {key}"),
            )
        } else if roll < 80 {
            // Fine-grained append through the wire.
            (
                CLASS_APPEND,
                format!("INSERT INTO events VALUES ({key}, 'upd', {roll})"),
            )
        } else if roll < 95 {
            // Index-powered equi-join against the small side table.
            (
                CLASS_JOIN,
                format!(
                    "SELECT e.v, t.tag FROM events e JOIN tags t ON e.id = t.event_id \
                     WHERE e.id = {}",
                    key % 64
                ),
            )
        } else {
            // DDL churn: create, populate, drop a scratch table.
            ddl_round += 1;
            let name = format!("scratch_{id}_{ddl_round}");
            let t0 = Instant::now();
            let created = client.query(&format!("CREATE TABLE {name} (id BIGINT, v BIGINT)"));
            let ok = created.is_ok()
                && client
                    .query(&format!("INSERT INTO {name} VALUES ({key}, 1)"))
                    .is_ok()
                && client.query(&format!("DROP TABLE {name}")).is_ok();
            if ok {
                tally.samples_ns[CLASS_DDL].push(t0.elapsed().as_nanos() as u64);
            } else {
                tally.errors += 1;
            }
            continue;
        };
        let t0 = Instant::now();
        match client.query(&sql) {
            Ok(_) => tally.samples_ns[class].push(t0.elapsed().as_nanos() as u64),
            Err(ClientError::Server(frame))
                if matches!(frame.code, ErrorCode::ServerBusy | ErrorCode::QuotaExceeded) =>
            {
                tally.rejects += 1
            }
            Err(_) => {
                tally.errors += 1;
                // The connection may be gone; reconnect once per error.
                match Client::connect(addr, format!("tenant-{}", id % 4)) {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
            }
        }
    }
    tally
}

/// Build the shared state, run the client sweep, drain, and report.
pub fn run(config: &ServeBenchConfig) -> Result<ServeReport> {
    let engine_config = EngineConfig {
        total_memory_limit: Some(2 << 30),
        ..EngineConfig::default()
    };
    let session = Session::with_config(engine_config);
    // DDL over the wire mints indexed tables: the whole run exercises
    // the paper's indexed path end to end.
    install_indexed_ddl(&session, IndexConfig::default());
    session.sql("CREATE TABLE events (id BIGINT, name VARCHAR, v BIGINT)")?;
    session.sql("CREATE TABLE tags (event_id BIGINT, tag VARCHAR)")?;
    // Preload through the library API (the wire would dominate setup).
    let events = session.catalog().get("events")?;
    let mut batch: Vec<Vec<idf_engine::types::Value>> = Vec::with_capacity(4096);
    use idf_engine::types::Value;
    for key in 0..config.n_keys as i64 {
        batch.push(vec![
            Value::Int64(key),
            Value::Utf8(format!("k{key}")),
            Value::Int64(key),
        ]);
        if batch.len() == 4096 {
            events.append_rows(&batch)?;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        events.append_rows(&batch)?;
    }
    let tags = session.catalog().get("tags")?;
    let tag_rows: Vec<Vec<Value>> = (0..64)
        .map(|i| vec![Value::Int64(i), Value::Utf8(format!("tag{}", i % 8))])
        .collect();
    tags.append_rows(&tag_rows)?;

    let serve_config = ServeConfig {
        workers: config.workers,
        queue_depth: (config.max_clients * 2).max(64),
        tenant_max_in_flight: config.max_clients.max(8),
        drain_deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let server = Server::bind(session.clone(), "127.0.0.1:0", serve_config)?;
    let addr = server.local_addr();

    // Client sweep: contention shape changes with client count; the
    // saturation point is the best qps across the sweep.
    let mut sweep: Vec<usize> = vec![1, (config.max_clients / 4).max(2), config.max_clients];
    sweep.dedup();
    let mut steps = Vec::with_capacity(sweep.len());
    for &clients in &sweep {
        eprintln!(
            "# BENCH-serve: {clients} clients for {:.1}s...",
            config.step_secs
        );
        let stop = Arc::new(AtomicBool::new(false));
        let t0 = Instant::now();
        let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|id| {
                    let stop = Arc::clone(&stop);
                    scope.spawn(move || client_loop(addr, id, config.n_keys, &stop))
                })
                .collect();
            std::thread::sleep(Duration::from_secs_f64(config.step_secs));
            stop.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or(ClientTally {
                        samples_ns: Default::default(),
                        rejects: 0,
                        errors: 1,
                    })
                })
                .collect()
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let classes: Vec<ClassStats> = (0..CLASS_NAMES.len())
            .map(|class| {
                let mut samples: Vec<u64> = tallies
                    .iter()
                    .flat_map(|t| t.samples_ns[class].iter().copied())
                    .collect();
                samples.sort_unstable();
                ClassStats {
                    name: CLASS_NAMES[class],
                    queries: samples.len() as u64,
                    p50_us: percentile_us(&samples, 0.50),
                    p99_us: percentile_us(&samples, 0.99),
                }
            })
            .collect();
        let mut samples: Vec<u64> = tallies
            .iter()
            .flat_map(|t| t.samples_ns.iter().flatten().copied())
            .collect();
        samples.sort_unstable();
        let queries = samples.len() as u64;
        steps.push(ServeStep {
            clients,
            queries,
            rejects: tallies.iter().map(|t| t.rejects).sum(),
            errors: tallies.iter().map(|t| t.errors).sum(),
            qps: queries as f64 / elapsed.max(f64::MIN_POSITIVE),
            p50_us: percentile_us(&samples, 0.50),
            p99_us: percentile_us(&samples, 0.99),
            p999_us: percentile_us(&samples, 0.999),
            classes,
        });
    }
    let drain_t0 = Instant::now();
    let report = server.shutdown();
    let drain_ms = drain_t0.elapsed().as_secs_f64() * 1_000.0;

    let errors: u64 = steps.iter().map(|s| s.errors).sum();
    if errors > 0 {
        return Err(EngineError::exec(format!(
            "BENCH-serve saw {errors} unexpected client errors"
        )));
    }
    let saturation_qps = steps.iter().map(|s| s.qps).fold(0.0, f64::max);
    Ok(ServeReport {
        keys: config.n_keys,
        workers: config.workers,
        step_secs: config.step_secs,
        steps,
        saturation_qps,
        drain_cancelled: report.cancelled,
        drain_ms,
        git_commit: crate::meta::git_commit(),
        timestamp: crate::meta::iso_timestamp(),
    })
}

/// Human-readable rendering for the terminal.
pub fn render(report: &ServeReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "BENCH-serve: {} keys, {} execution slots, {:.1}s per step\n",
        report.keys, report.workers, report.step_secs
    ));
    out.push_str("clients |  queries |      qps |  p50 µs |  p99 µs | p999 µs | rejects\n");
    for s in &report.steps {
        out.push_str(&format!(
            "{:>7} | {:>8} | {:>8.0} | {:>7.0} | {:>7.0} | {:>7.0} | {:>7}\n",
            s.clients, s.queries, s.qps, s.p50_us, s.p99_us, s.p999_us, s.rejects
        ));
        for c in &s.classes {
            out.push_str(&format!(
                "        | {:>8} {:<6} p50 {:>8.0} µs, p99 {:>8.0} µs\n",
                c.queries, c.name, c.p50_us, c.p99_us
            ));
        }
    }
    out.push_str(&format!(
        "saturation: {:.0} queries/s; drain: {:.1} ms, {} cancelled\n",
        report.saturation_qps, report.drain_ms, report.drain_cancelled
    ));
    out
}

#[cfg(test)]
mod tests {
    use idf_core::prelude::*;
    use idf_engine::prelude::Session;

    #[test]
    fn workload_join_planned_through_the_index() {
        let session = Session::new();
        install_indexed_ddl(&session, IndexConfig::default());
        session
            .sql("CREATE TABLE events (id BIGINT, name VARCHAR, v BIGINT)")
            .unwrap();
        session
            .sql("CREATE TABLE tags (event_id BIGINT, tag VARCHAR)")
            .unwrap();
        session
            .sql("INSERT INTO events VALUES (1, 'a', 10), (2, 'b', 20)")
            .unwrap();
        session
            .sql("INSERT INTO tags VALUES (1, 'hot'), (2, 'cold')")
            .unwrap();
        let plan = session
            .sql(
                "SELECT e.v, t.tag FROM events e JOIN tags t \
                 ON e.id = t.event_id WHERE e.id = 1",
            )
            .unwrap()
            .explain()
            .unwrap();
        assert!(
            plan.contains("IndexedJoin"),
            "join missed the index:\n{plan}"
        );
    }
}
