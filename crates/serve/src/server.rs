//! The connection acceptor, bounded worker pool, and admission control.
//!
//! # Threading model
//!
//! One acceptor thread owns the `TcpListener`. Each accepted connection
//! gets a reader thread that decodes request frames and submits *jobs*;
//! a fixed pool of worker threads drains the bounded job queue and
//! executes queries. A connection reader blocks until its job's response
//! has been written before reading the next frame, so responses on one
//! connection never interleave, while the pool still bounds total
//! concurrent execution across all connections. The reader, the workers
//! answering its jobs and the drain all share the connection's one
//! socket handle.
//!
//! A result's `Schema`/`Rows*`/`End` frames are assembled into one buffer
//! and written together (`write_result`): a short read answers in a
//! single segment instead of three.
//!
//! # Admission control
//!
//! A query is admitted in three gates, each with a typed rejection:
//!
//! 1. **Tenant quota** — at most [`ServeConfig::tenant_max_in_flight`]
//!    queued-or-running queries per tenant id ([`ErrorCode::QuotaExceeded`]).
//! 2. **Queue depth** — at most [`ServeConfig::queue_depth`] waiting jobs
//!    ([`ErrorCode::ServerBusy`]).
//! 3. **Memory pressure** — when the session has a `MemoryGovernor`, a
//!    worker holds the job while the governor is saturated, up to
//!    [`ServeConfig::admission_wait`], then rejects with
//!    [`ErrorCode::ServerBusy`]. Queries that pass admission but exceed a
//!    budget mid-flight fail with [`ErrorCode::ResourceExhausted`].
//!
//! Tenant memory shares are enforced structurally: each of a tenant's
//! queries runs under a per-query cap of
//! `governor_limit × tenant_memory_share / tenant_max_in_flight`, so even
//! a tenant at its in-flight quota cannot hold more than its share.
//!
//! # Drain protocol
//!
//! [`Server::shutdown`] (1) stops accepting connections, (2) answers new
//! queries with [`ErrorCode::ShuttingDown`], (3) lets queued and running
//! queries finish under [`ServeConfig::drain_deadline`], (4) cancels
//! stragglers through their [`QueryContext`] and flushes never-run queued
//! jobs with `ShuttingDown`, then (5) closes every client socket and
//! joins all threads. The wall-clock cost is recorded in the
//! `idf_server_drain_ns` histogram.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use idf_engine::chunk::Chunk;
use idf_engine::error::{catch_panics, EngineError, Result};
use idf_engine::query::QueryContext;
use idf_engine::schema::Schema;
use idf_engine::session::Session;

use crate::failpoints;
use crate::wire::{self, ErrorCode, Request, MAX_REQUEST_FRAME, ROWS_PER_FRAME};

/// Crate-wide lock-acquisition order, enforced by idf-lint's
/// `lock-order` rule: a lock may only be acquired while holding locks
/// that appear strictly earlier in this list.
pub const LOCK_ORDER: &[(&str, &str)] = &[
    (
        "queue",
        "admission queue; taken first so the quota check and the enqueue are one atomic step",
    ),
    (
        "tenants",
        "per-tenant in-flight counts; nested inside queue on the admission path",
    ),
];

/// Service-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing queries (bounds concurrent execution).
    pub workers: usize,
    /// Jobs that may wait in the queue before submissions are rejected
    /// with [`ErrorCode::ServerBusy`].
    pub queue_depth: usize,
    /// Queued-or-running queries allowed per tenant id before
    /// [`ErrorCode::QuotaExceeded`].
    pub tenant_max_in_flight: usize,
    /// Fraction of the governor's byte budget one tenant may hold across
    /// its in-flight queries (see the module docs for how it is applied).
    pub tenant_memory_share: f64,
    /// How long a worker waits for a saturated memory governor to clear
    /// before rejecting the job with [`ErrorCode::ServerBusy`].
    pub admission_wait: Duration,
    /// How long [`Server::shutdown`] lets in-flight queries finish before
    /// cancelling them.
    pub drain_deadline: Duration,
    /// Deadline applied to every served query, anchored at execution
    /// start (`None`: no deadline).
    pub query_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            tenant_max_in_flight: 8,
            tenant_memory_share: 0.5,
            admission_wait: Duration::from_millis(250),
            drain_deadline: Duration::from_secs(5),
            query_timeout: None,
        }
    }
}

/// What [`Server::shutdown`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Running queries cancelled at the drain deadline.
    pub cancelled: usize,
    /// Queued jobs that never ran, answered with `ShuttingDown`.
    pub flushed: usize,
    /// Wall-clock drain time.
    pub elapsed: Duration,
}

/// One submitted query waiting for (or being run by) a worker.
struct Job {
    tenant: String,
    sql: String,
    stream: Arc<TcpStream>,
    done: Arc<Gate>,
}

/// A one-shot completion latch.
struct Gate {
    opened: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            opened: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *lock(&self.opened) = true;
        // idf-lint: allow(condvar-discipline) -- 'opened' was set under its lock in the statement above; the temporary guard is already gone
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut opened = lock(&self.opened);
        while !*opened {
            opened = self
                .cv
                .wait(opened)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Lock a mutex, surviving poisoning (a panicking worker must not wedge
/// the whole server).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Shared {
    session: Session,
    config: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    /// Set when the drain deadline has passed: workers answer remaining
    /// queued jobs with `ShuttingDown` instead of executing them.
    flush_mode: AtomicBool,
    /// Jobs answered `ShuttingDown` without executing.
    flushed: AtomicUsize,
    stop_workers: AtomicBool,
    /// Queued-or-running query count per tenant id.
    tenants: Mutex<HashMap<String, usize>>,
    /// Contexts of running queries, for drain-time cancellation.
    inflight: Mutex<HashMap<u64, Arc<QueryContext>>>,
    next_query_id: AtomicU64,
    /// Jobs queued or running (drain waits for this to reach zero).
    active_jobs: AtomicUsize,
    /// The socket of every live connection, for drain-time close.
    conns: Mutex<HashMap<u64, Arc<TcpStream>>>,
    next_conn_id: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running SQL server bound to a TCP address.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// queries against `session`.
    pub fn bind(session: Session, addr: impl ToSocketAddrs, config: ServeConfig) -> Result<Server> {
        let listener =
            TcpListener::bind(addr).map_err(|e| EngineError::exec(format!("serve bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| EngineError::exec(format!("serve local_addr: {e}")))?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            session,
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            flush_mode: AtomicBool::new(false),
            flushed: AtomicUsize::new(0),
            stop_workers: AtomicBool::new(false),
            tenants: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            next_query_id: AtomicU64::new(0),
            active_jobs: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            conn_threads: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully drain and stop the server (see the module docs for the
    /// protocol). Consumes the server; every spawned thread is joined.
    pub fn shutdown(mut self) -> DrainReport {
        let t0 = Instant::now();
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept(), then join it so the
        // listener is dropped and no new connection can sneak in.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Let queued + running queries finish under the drain deadline.
        let deadline = t0 + shared.config.drain_deadline;
        while shared.active_jobs.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Deadline passed: flush remaining queued jobs instead of
        // running them, and cancel the queries already executing. Both
        // answer with typed frames (ShuttingDown and Cancelled), then a
        // grace period lets the cooperative cancels unwind.
        shared.flush_mode.store(true, Ordering::SeqCst);
        let straggling: Vec<Arc<QueryContext>> = lock(&shared.inflight).values().cloned().collect();
        for ctx in &straggling {
            ctx.cancel();
        }
        let grace = Instant::now() + shared.config.drain_deadline;
        while shared.active_jobs.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Anything still queued (workers wedged past the grace period):
        // answer ShuttingDown directly.
        let leftover: Vec<Job> = lock(&shared.queue).drain(..).collect();
        registry().server_queue_depth.set(0);
        for job in &leftover {
            respond_reject(
                &job.stream,
                ErrorCode::ShuttingDown,
                "server drained before execution",
            );
            release_tenant(shared, &job.tenant);
            shared.active_jobs.fetch_sub(1, Ordering::SeqCst);
            shared.flushed.fetch_add(1, Ordering::SeqCst);
            job.done.open();
        }
        // Stop the pool and unblock every connection reader.
        shared.stop_workers.store(true, Ordering::SeqCst);
        // idf-lint: allow(condvar-discipline) -- stop_workers is a SeqCst store; workers re-check it under the queue lock inside their wait loop
        shared.queue_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for (_, conn) in lock(&shared.conns).drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let conn_threads: Vec<JoinHandle<()>> = lock(&shared.conn_threads).drain(..).collect();
        for handle in conn_threads {
            let _ = handle.join();
        }
        let elapsed = t0.elapsed();
        registry().server_drain_ns.record(elapsed.as_nanos() as u64);
        DrainReport {
            cancelled: straggling.len(),
            flushed: shared.flushed.load(Ordering::SeqCst),
            elapsed,
        }
    }
}

fn registry() -> &'static idf_obs::MetricsRegistry {
    idf_obs::global()
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        // Response frames are small back-to-back writes followed by a
        // read; without NODELAY the Nagle/delayed-ACK interaction adds
        // ~40ms to every query.
        let _ = stream.set_nodelay(true);
        registry().server_connections_total.inc();
        // Fault injection: a failed accept drops the connection on the
        // floor — the client sees EOF and the acceptor keeps going.
        if failpoints::check(failpoints::ACCEPT).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
        let stream = Arc::new(stream);
        lock(&shared.conns).insert(conn_id, Arc::clone(&stream));
        registry().server_connections_open.add(1);
        let shared_conn = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            serve_conn(&shared_conn, stream, conn_id);
            registry().server_connections_open.sub(1);
            lock(&shared_conn.conns).remove(&conn_id);
        });
        lock(&shared.conn_threads).push(handle);
    }
}

/// Read and answer request frames until the peer closes (or breaks) the
/// connection.
fn serve_conn(shared: &Arc<Shared>, stream: Arc<TcpStream>, _conn_id: u64) {
    let mut reader = BufReader::new(&*stream);
    loop {
        let body = match wire::read_frame(&mut reader, MAX_REQUEST_FRAME) {
            Ok(Some(body)) => body,
            // Clean close on a frame boundary.
            Ok(None) => break,
            Err(err) => {
                // Torn frame, CRC mismatch, oversized length prefix, or a
                // dead socket: answer (best-effort) and close — there is
                // no way to resynchronize a byte stream mid-frame.
                if matches!(err, EngineError::Corrupt(_)) {
                    respond_reject(&stream, ErrorCode::BadRequest, &err.to_string());
                }
                break;
            }
        };
        let request = match wire::decode_request(&body) {
            Ok(request) => request,
            Err(err) => {
                respond_reject(&stream, ErrorCode::BadRequest, &err.to_string());
                break;
            }
        };
        let Request::Query { tenant, sql } = request;
        if let Err(err) = wire::check_sql_len(sql.len()) {
            respond_reject(&stream, ErrorCode::SqlTooLarge, &err.to_string());
            continue;
        }
        if shared.draining.load(Ordering::SeqCst) {
            respond_reject(&stream, ErrorCode::ShuttingDown, "server is draining");
            continue;
        }
        let done = Gate::new();
        match submit(
            shared,
            Job {
                tenant,
                sql,
                stream: Arc::clone(&stream),
                done: Arc::clone(&done),
            },
        ) {
            Ok(()) => done.wait(),
            Err((code, message)) => respond_reject(&stream, code, &message),
        }
    }
}

/// Enqueue a job, enforcing the tenant quota and queue depth. On
/// rejection the job is handed back so the connection thread can answer.
fn submit(shared: &Arc<Shared>, job: Job) -> std::result::Result<(), (ErrorCode, String)> {
    let mut queue = lock(&shared.queue);
    {
        let mut tenants = lock(&shared.tenants);
        let in_flight = tenants.entry(job.tenant.clone()).or_insert(0);
        if *in_flight >= shared.config.tenant_max_in_flight {
            registry().server_rejected_quota.inc();
            return Err((
                ErrorCode::QuotaExceeded,
                format!(
                    "tenant {:?} is at its quota of {} in-flight queries",
                    job.tenant, shared.config.tenant_max_in_flight
                ),
            ));
        }
        if queue.len() >= shared.config.queue_depth {
            registry().server_rejected_busy.inc();
            return Err((
                ErrorCode::ServerBusy,
                format!(
                    "admission queue is at depth {} — retry later",
                    shared.config.queue_depth
                ),
            ));
        }
        *in_flight += 1;
    }
    shared.active_jobs.fetch_add(1, Ordering::SeqCst);
    queue.push_back(job);
    registry().server_queue_depth.set(queue.len() as i64);
    shared.queue_cv.notify_one();
    Ok(())
}

fn release_tenant(shared: &Shared, tenant: &str) {
    let mut tenants = lock(&shared.tenants);
    if let Some(count) = tenants.get_mut(tenant) {
        *count = count.saturating_sub(1);
        if *count == 0 {
            tenants.remove(tenant);
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    registry().server_queue_depth.set(queue.len() as i64);
                    break job;
                }
                if shared.stop_workers.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        // Belt and braces: accounting must unwind even if serving the
        // query panics in an unexpected place (execution itself is
        // already panic-caught).
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_query(shared, &job);
        }));
        release_tenant(shared, &job.tenant);
        shared.active_jobs.fetch_sub(1, Ordering::SeqCst);
        job.done.open();
        drop(outcome);
    }
}

/// Execute one admitted job end to end and write its response stream.
fn serve_query(shared: &Arc<Shared>, job: &Job) {
    // Past the drain deadline, queued work is flushed, not executed.
    if shared.flush_mode.load(Ordering::SeqCst) {
        shared.flushed.fetch_add(1, Ordering::SeqCst);
        respond_reject(
            &job.stream,
            ErrorCode::ShuttingDown,
            "server drained before execution",
        );
        return;
    }
    // Memory-pressure admission: hold the job while the governor is
    // saturated, then reject ServerBusy — never start a query that is
    // guaranteed to die on its first allocation.
    if let Some(governor) = shared.session.memory_governor() {
        let wait_start = Instant::now();
        while governor.used() >= governor.limit() {
            if wait_start.elapsed() >= shared.config.admission_wait {
                registry().server_rejected_busy.inc();
                respond_reject(
                    &job.stream,
                    ErrorCode::ServerBusy,
                    "memory governor saturated past the admission wait — retry later",
                );
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let ctx = build_context(shared);
    let query_id = shared.next_query_id.fetch_add(1, Ordering::SeqCst);
    lock(&shared.inflight).insert(query_id, Arc::clone(&ctx));
    registry().server_in_flight.add(1);
    // Collect fully before writing anything: a response stream is either
    // one Error frame or a complete Schema/Rows*/End sequence — an
    // execution failure can never leave a partial result on the wire.
    let outcome = catch_panics(|| {
        let df = shared.session.sql(&job.sql)?;
        let schema = df.schema();
        let chunk = df.collect_ctx(&ctx)?;
        Ok((schema, chunk))
    });
    lock(&shared.inflight).remove(&query_id);
    registry().server_in_flight.sub(1);
    let mut writer = &*job.stream;
    let sent = match outcome {
        Ok((schema, chunk)) => write_result(&mut writer, &schema, &chunk),
        Err(err) => {
            let code = ErrorCode::for_engine_error(&err);
            write_response_frame(&mut writer, &wire::encode_error(code, &err.to_string()))
        }
    };
    if sent.is_err() {
        // Transport (or injected write) failure mid-stream: the stream
        // contract is broken, so close the socket — the reader thread
        // unblocks with EOF and the client sees a truncated stream.
        let _ = job.stream.shutdown(Shutdown::Both);
    }
}

/// A query context carrying the session's limits, the server deadline,
/// and the tenant's structural memory share.
fn build_context(shared: &Shared) -> Arc<QueryContext> {
    let mut builder = QueryContext::builder();
    let mut memory_limit = shared.session.config().query_memory_limit;
    if let Some(governor) = shared.session.memory_governor() {
        let share = (governor.limit() as f64 * shared.config.tenant_memory_share) as usize;
        let per_query = (share / shared.config.tenant_max_in_flight.max(1)).max(1);
        memory_limit = Some(memory_limit.map_or(per_query, |m| m.min(per_query)));
        builder = builder.governor(governor);
    }
    if let Some(limit) = memory_limit {
        builder = builder.memory_limit(limit);
    }
    if let Some(timeout) = shared.config.query_timeout {
        builder = builder.timeout(timeout);
    }
    builder.build()
}

/// Best-effort single-frame rejection (admission failures, drain).
fn respond_reject(mut stream: &TcpStream, code: ErrorCode, message: &str) {
    let _ = write_response_frame(&mut stream, &wire::encode_error(code, message));
}

/// A single-frame response. Like every response frame it consults the
/// `serve::write_frame` failpoint first, which makes transport failure
/// injectable at any point in a response stream.
fn write_response_frame(out: &mut impl Write, body: &[u8]) -> Result<()> {
    failpoints::check(failpoints::WRITE_FRAME)?;
    wire::write_frame(out, body)
}

/// Framed response bytes assembled before they are written out. A short
/// read's whole `Schema`/`Rows`/`End` stream is far below this and leaves
/// in one write; a large result leaves in writes of about this size.
const RESPONSE_FLUSH_BYTES: usize = 64 << 10;

/// Write a successful result stream — `Schema`, `Rows*`, `End` — to `out`,
/// batching the frames into as few writes as [`RESPONSE_FLUSH_BYTES`]
/// allows. The `serve::write_frame` failpoint is consulted per frame, and
/// an injected failure cuts the stream exactly at that frame's boundary:
/// the frames assembled before it are still written.
fn write_result(out: &mut impl Write, schema: &Schema, chunk: &Chunk) -> Result<()> {
    let rows = chunk.to_rows();
    let mut pending: Vec<u8> = Vec::new();
    let mut flush = |pending: &mut Vec<u8>| -> Result<()> {
        out.write_all(pending)
            .map_err(|e| EngineError::exec(format!("wire write: {e}")))?;
        pending.clear();
        Ok(())
    };
    let bodies = std::iter::once(wire::encode_schema(schema))
        .chain(
            rows.chunks(ROWS_PER_FRAME)
                .map(|slice| wire::encode_rows(schema.len(), slice)),
        )
        .chain(std::iter::once(wire::encode_end(rows.len() as u64)));
    for body in bodies {
        if let Err(injected) = failpoints::check(failpoints::WRITE_FRAME) {
            let _ = flush(&mut pending);
            return Err(injected);
        }
        wire::append_frame(&mut pending, &body)?;
        if pending.len() >= RESPONSE_FLUSH_BYTES {
            flush(&mut pending)?;
        }
    }
    flush(&mut pending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idf_engine::schema::Field;
    use idf_engine::types::{DataType, Value};

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn result_of(rows: usize) -> (Schema, Chunk) {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]);
        let values: Vec<Vec<Value>> = (0..rows as i64)
            .map(|i| vec![Value::Int64(i), Value::Utf8(format!("row-{i}"))])
            .collect();
        let chunk = Chunk::from_rows(&std::sync::Arc::new(schema.clone()), &values).unwrap();
        (schema, chunk)
    }

    /// The frames a byte stream carries, decoded.
    fn frames_of(mut bytes: &[u8]) -> Vec<wire::Response> {
        let mut frames = Vec::new();
        while let Some(body) = wire::read_frame(&mut bytes, wire::MAX_RESPONSE_FRAME).unwrap() {
            frames.push(wire::decode_response(&body).unwrap());
        }
        frames
    }

    #[test]
    fn a_result_of_one_rows_frame_leaves_in_one_write() {
        for rows in [0, 1, ROWS_PER_FRAME] {
            let (schema, chunk) = result_of(rows);
            let mut out = CountingWriter::default();
            write_result(&mut out, &schema, &chunk).unwrap();
            assert_eq!(out.writes, 1, "{rows} rows");
            // The stream is byte for byte what frame-at-a-time writes give.
            let mut expected = Vec::new();
            wire::write_frame(&mut expected, &wire::encode_schema(&schema)).unwrap();
            if rows > 0 {
                let body = wire::encode_rows(schema.len(), &chunk.to_rows());
                wire::write_frame(&mut expected, &body).unwrap();
            }
            wire::write_frame(&mut expected, &wire::encode_end(rows as u64)).unwrap();
            assert_eq!(out.bytes, expected, "{rows} rows");
        }
    }

    #[test]
    fn a_large_result_is_flushed_in_bounded_pieces() {
        let (schema, chunk) = result_of(40 * ROWS_PER_FRAME);
        let mut out = CountingWriter::default();
        write_result(&mut out, &schema, &chunk).unwrap();
        assert!(out.writes > 1, "one giant write");
        assert!(out.writes < 40, "{} writes for 42 frames", out.writes);
        let frames = frames_of(&out.bytes);
        assert_eq!(frames.len(), 42);
        assert!(matches!(frames[0], wire::Response::Schema(_)));
        assert_eq!(frames[41], wire::Response::End(40 * ROWS_PER_FRAME as u64));
    }
}
