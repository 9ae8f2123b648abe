//! The connection acceptor, statement execution on the connection's own
//! thread, and admission control.
//!
//! # Threading model
//!
//! One acceptor thread owns the `TcpListener`; each accepted connection
//! gets one thread, and that thread is the worker: it decodes a request
//! frame, takes an execution slot, runs the statement, writes the response
//! and gives the slot back before it reads the next frame. So a connection
//! has at most one statement in flight, its responses never interleave,
//! and no statement changes threads. What bounds concurrent execution is
//! the count of slots, not a second set of threads. The connection thread
//! and the drain share the connection's one socket handle.
//!
//! A result's `Schema`/`Rows*`/`End` frames are assembled into one buffer
//! and written together (`write_result`): a short read answers in a
//! single segment instead of three.
//!
//! # Admission control
//!
//! A statement is admitted in three gates, each with a typed rejection;
//! the first two are one step under the `admission` lock:
//!
//! 1. **Tenant quota** — at most [`ServeConfig::tenant_max_in_flight`]
//!    waiting-or-running statements per tenant id ([`ErrorCode::QuotaExceeded`]).
//! 2. **Slots** — at most [`ServeConfig::workers`] statements hold a slot,
//!    which covers execution *and* the response write. With none free the
//!    connection thread waits, and a finishing statement hands its slot to
//!    the longest waiter; at most [`ServeConfig::queue_depth`] may wait
//!    ([`ErrorCode::ServerBusy`]).
//! 3. **Memory pressure** — when the session has a `MemoryGovernor`, the
//!    statement holds its slot while the governor is saturated, up to
//!    [`ServeConfig::admission_wait`], then is rejected with
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
//! statements with [`ErrorCode::ShuttingDown`], (3) lets waiting and
//! running statements finish under [`ServeConfig::drain_deadline`], then
//! (4) sets flush mode — each statement still waiting answers
//! `ShuttingDown` itself — and cancels the running ones through the
//! [`QueryContext`] on their connection, (5) waits for those to unwind and
//! answer `Cancelled`, and (6) closes every client socket and joins all
//! threads. The wall-clock cost lands in the `idf_server_drain_ns` histogram.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
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
/// that appear strictly earlier in this list. No lock in this crate is
/// taken while another is held: one entry, no edge.
pub const LOCK_ORDER: &[(&str, &str)] = &[(
    "admission",
    "tenant counts, slots and the drain flush flag; quota check, depth check and taking a slot are one atomic step under it",
)];

/// Service-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Statements executing at once (a slot is held until the response is
    /// written).
    pub workers: usize,
    /// Statements that may wait for a slot before further ones are
    /// rejected with [`ErrorCode::ServerBusy`].
    pub queue_depth: usize,
    /// Waiting-or-running statements allowed per tenant id before
    /// [`ErrorCode::QuotaExceeded`].
    pub tenant_max_in_flight: usize,
    /// Fraction of the governor's byte budget one tenant may hold across
    /// its in-flight queries (see the module docs for how it is applied).
    pub tenant_memory_share: f64,
    /// How long a statement holding a slot waits for a saturated memory
    /// governor to clear before rejection with [`ErrorCode::ServerBusy`].
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
    /// Statements still waiting at the drain deadline, answered
    /// `ShuttingDown` instead of run.
    pub flushed: usize,
    /// Wall-clock drain time.
    pub elapsed: Duration,
}

/// Lock a mutex, surviving poisoning (a panicking statement must not
/// wedge the whole server).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A typed rejection: the error frame's code and message.
type Rejection = (ErrorCode, String);

/// Admission bookkeeping. Plain data: every method is one non-blocking
/// step taken under [`Shared::admission`]; [`take_slot`] does the waiting.
#[derive(Default)]
struct Admission {
    /// Waiting-or-running statements per tenant id. An entry exists only
    /// while its count is non-zero, so rejected statements leave nothing.
    tenants: HashMap<String, usize>,
    /// Statements holding a slot (≤ `workers`).
    running: usize,
    /// Statements waiting for a slot (≤ `queue_depth`), holding the
    /// tickets `next_turn..next_ticket` in arrival order.
    waiting: usize,
    next_ticket: u64,
    /// Every ticket below this has been given a slot.
    next_turn: u64,
    /// Set when the drain deadline has passed: waiters answer
    /// `ShuttingDown` instead of being given a slot.
    flush_mode: bool,
    /// Waiters that answered `ShuttingDown` without executing.
    flushed: usize,
}

impl Admission {
    /// Gates 1 and 2. `Ok(None)`: a slot was free and is now held.
    /// `Ok(Some(ticket))`: counted as waiting until a finishing statement
    /// hands its slot to that ticket ([`Admission::release`]). A freed slot
    /// always goes to the oldest ticket, so no arrival overtakes a waiter.
    fn admit(
        &mut self,
        tenant: &str,
        config: &ServeConfig,
    ) -> std::result::Result<Option<u64>, Rejection> {
        if self.tenants.get(tenant).copied().unwrap_or(0) >= config.tenant_max_in_flight {
            registry().server_rejected_quota.inc();
            return Err((
                ErrorCode::QuotaExceeded,
                format!(
                    "tenant {tenant:?} is at its quota of {} in-flight queries",
                    config.tenant_max_in_flight
                ),
            ));
        }
        let must_wait = self.running >= config.workers.max(1);
        if must_wait && self.waiting >= config.queue_depth {
            registry().server_rejected_busy.inc();
            return Err((
                ErrorCode::ServerBusy,
                format!(
                    "admission queue is at depth {} — retry later",
                    config.queue_depth
                ),
            ));
        }
        *self.tenants.entry(tenant.to_owned()).or_insert(0) += 1;
        if !must_wait {
            self.running += 1;
            return Ok(None);
        }
        self.waiting += 1;
        self.next_ticket += 1;
        Ok(Some(self.next_ticket - 1))
    }

    /// A statement that held a slot is done. With a waiter present the
    /// slot changes hands instead of being freed: the ticket it now
    /// belongs to is returned, for its holder to be woken.
    fn release(&mut self, tenant: &str) -> Option<u64> {
        self.forget(tenant);
        if self.waiting == 0 || self.flush_mode {
            self.running -= 1;
            return None;
        }
        self.waiting -= 1;
        self.next_turn += 1;
        Some(self.next_turn - 1)
    }

    /// A waiter leaves without running (drain flush).
    fn abandon(&mut self, tenant: &str) {
        self.waiting -= 1;
        self.flushed += 1;
        self.forget(tenant);
    }

    fn forget(&mut self, tenant: &str) {
        if let Some(count) = self.tenants.get_mut(tenant) {
            *count -= 1;
            if *count == 0 {
                self.tenants.remove(tenant);
            }
        }
    }
}

/// Condvars in [`Shared::turns`]; past this many waiters, tickets share
/// one and a wake-up reaches `waiting / TURN_RING` threads.
const TURN_RING: usize = 64;

/// One live connection.
struct Conn {
    stream: TcpStream,
    /// The context of the statement this connection is executing, for
    /// drain-time cancellation. A connection runs one statement at a time.
    running: Mutex<Option<Arc<QueryContext>>>,
}

struct Shared {
    session: Session,
    config: ServeConfig,
    draining: AtomicBool,
    admission: Mutex<Admission>,
    /// Paired with `admission`: ticket `t` sleeps on `turns[t % TURN_RING]`
    /// and a handed-over slot notifies only its new owner's condvar.
    /// Waiting tickets are consecutive, so each sleeps alone — on one
    /// shared condvar every waiter woke per statement, which cut 32-client
    /// throughput to under a third.
    turns: [Condvar; TURN_RING],
    /// Every live connection, for drain-time cancel and close.
    conns: Mutex<Vec<Arc<Conn>>>,
    /// Connection threads not yet seen finished (the acceptor reaps as it
    /// accepts; `shutdown` joins the rest).
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn turn_of(&self, ticket: u64) -> &Condvar {
        &self.turns[(ticket % TURN_RING as u64) as usize]
    }
}

/// A running SQL server bound to a TCP address.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
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
        let shared = Arc::new(Shared {
            session,
            config,
            draining: AtomicBool::new(false),
            admission: Mutex::new(Admission::default()),
            turns: std::array::from_fn(|_| Condvar::new()),
            conns: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        Ok(Server {
            shared,
            addr,
            acceptor,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully drain and stop the server (see the module docs for the
    /// protocol). Consumes the server; every spawned thread is joined.
    pub fn shutdown(self) -> DrainReport {
        let t0 = Instant::now();
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept(), then join it so the
        // listener is dropped and no new connection can sneak in.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        // Let waiting + running statements finish under the drain deadline.
        wait_idle(shared, Some(t0 + shared.config.drain_deadline));
        // Deadline passed: waiters answer ShuttingDown themselves instead
        // of running, and the statements already executing are cancelled.
        {
            let mut admission = lock(&shared.admission);
            admission.flush_mode = true;
            for turn in &shared.turns {
                turn.notify_all();
            }
        }
        let conns = lock(&shared.conns).clone();
        let mut cancelled = 0;
        for conn in &conns {
            if let Some(ctx) = lock(&conn.running).as_ref() {
                ctx.cancel();
                cancelled += 1;
            }
        }
        // Nothing takes a slot any more. Let the cancelled statements
        // unwind and write their typed Cancelled frames, then unblock
        // every connection thread's read and join them all.
        wait_idle(shared, None);
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        let conn_threads = std::mem::take(&mut *lock(&shared.conn_threads));
        for handle in conn_threads {
            let _ = handle.join();
        }
        let elapsed = t0.elapsed();
        registry().server_drain_ns.record(elapsed.as_nanos() as u64);
        DrainReport {
            cancelled,
            flushed: lock(&shared.admission).flushed,
            elapsed,
        }
    }
}

/// Poll until no statement is waiting or running, or `deadline` passes.
fn wait_idle(shared: &Shared, deadline: Option<Instant>) {
    let busy = || {
        let admission = lock(&shared.admission);
        admission.running + admission.waiting > 0
    };
    while busy() && deadline.is_none_or(|d| Instant::now() < d) {
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn registry() -> &'static idf_obs::MetricsRegistry {
    idf_obs::global()
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if shared.draining.load(Ordering::SeqCst) => break,
            Err(_) => {
                // A persistent failure (EMFILE) must not spin a core.
                std::thread::sleep(Duration::from_millis(5));
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
        let conn = Arc::new(Conn {
            stream,
            running: Mutex::new(None),
        });
        lock(&shared.conns).push(Arc::clone(&conn));
        registry().server_connections_open.add(1);
        let shared_conn = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            serve_conn(&shared_conn, &conn);
            registry().server_connections_open.sub(1);
            lock(&shared_conn.conns).retain(|c| !Arc::ptr_eq(c, &conn));
        });
        // Keep only the handles of connections still open, so a
        // long-lived server does not retain one per connection ever made.
        let mut conn_threads = lock(&shared.conn_threads);
        conn_threads.retain(|h| !h.is_finished());
        conn_threads.push(handle);
    }
}

/// Read, run and answer request frames until the peer closes (or breaks)
/// the connection.
fn serve_conn(shared: &Shared, conn: &Conn) {
    let stream = &conn.stream;
    let mut reader = BufReader::new(stream);
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
                    respond_reject(stream, ErrorCode::BadRequest, &err.to_string());
                }
                break;
            }
        };
        let request = match wire::decode_request(&body) {
            Ok(request) => request,
            Err(err) => {
                respond_reject(stream, ErrorCode::BadRequest, &err.to_string());
                break;
            }
        };
        let Request::Query { tenant, sql } = request;
        if let Err(err) = wire::check_sql_len(sql.len()) {
            respond_reject(stream, ErrorCode::SqlTooLarge, &err.to_string());
            continue;
        }
        if shared.draining.load(Ordering::SeqCst) {
            respond_reject(stream, ErrorCode::ShuttingDown, "server is draining");
            continue;
        }
        if let Err((code, message)) = take_slot(shared, &tenant) {
            respond_reject(stream, code, &message);
            continue;
        }
        // Belt and braces: the slot must be given back even if serving the
        // statement panics in an unexpected place (execution itself is
        // already panic-caught).
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_query(shared, conn, &sql);
        }));
        release_slot(shared, &tenant);
    }
}

/// Admission gates 1 and 2: hold a slot on return, having waited for one
/// in arrival order if none was free.
fn take_slot(shared: &Shared, tenant: &str) -> std::result::Result<(), Rejection> {
    let mut admission = lock(&shared.admission);
    let Some(ticket) = admission.admit(tenant, &shared.config)? else {
        return Ok(());
    };
    registry().server_queue_depth.set(admission.waiting as i64);
    while ticket >= admission.next_turn {
        if admission.flush_mode {
            admission.abandon(tenant);
            registry().server_queue_depth.set(admission.waiting as i64);
            return Err((
                ErrorCode::ShuttingDown,
                "server drained before execution".to_owned(),
            ));
        }
        admission = shared
            .turn_of(ticket)
            .wait(admission)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
    Ok(())
}

fn release_slot(shared: &Shared, tenant: &str) {
    let mut admission = lock(&shared.admission);
    if let Some(next) = admission.release(tenant) {
        registry().server_queue_depth.set(admission.waiting as i64);
        shared.turn_of(next).notify_all();
    }
}

/// Execute one admitted statement end to end and write its response
/// stream. Runs on the connection's own thread, holding a slot.
fn serve_query(shared: &Shared, conn: &Conn, sql: &str) {
    let stream = &conn.stream;
    // Memory-pressure admission: hold the statement while the governor is
    // saturated, then reject ServerBusy — never start a query that is
    // guaranteed to die on its first allocation.
    if let Some(governor) = shared.session.memory_governor() {
        let wait_start = Instant::now();
        while governor.used() >= governor.limit() {
            if wait_start.elapsed() >= shared.config.admission_wait {
                registry().server_rejected_busy.inc();
                respond_reject(
                    stream,
                    ErrorCode::ServerBusy,
                    "memory governor saturated past the admission wait — retry later",
                );
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let ctx = build_context(shared);
    *lock(&conn.running) = Some(Arc::clone(&ctx));
    registry().server_in_flight.add(1);
    // Collect fully before writing anything: a response stream is either
    // one Error frame or a complete Schema/Rows*/End sequence — an
    // execution failure can never leave a partial result on the wire.
    let outcome = catch_panics(|| {
        let df = shared.session.sql(sql)?;
        let schema = df.schema();
        let chunk = df.collect_ctx(&ctx)?;
        Ok((schema, chunk))
    });
    *lock(&conn.running) = None;
    registry().server_in_flight.sub(1);
    let mut writer = stream;
    let sent = match outcome {
        Ok((schema, chunk)) => write_result(&mut writer, &schema, &chunk),
        Err(err) => {
            let code = ErrorCode::for_engine_error(&err);
            write_response_frame(&mut writer, &wire::encode_error(code, &err.to_string()))
        }
    };
    if sent.is_err() {
        // Transport (or injected write) failure mid-stream: the stream
        // contract is broken, so close the socket — the next read on this
        // thread sees EOF and the client sees a truncated stream.
        let _ = stream.shutdown(Shutdown::Both);
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

    fn slots(workers: usize, queue_depth: usize, tenant_max_in_flight: usize) -> ServeConfig {
        ServeConfig {
            workers,
            queue_depth,
            tenant_max_in_flight,
            ..ServeConfig::default()
        }
    }

    fn code_of(outcome: std::result::Result<Option<u64>, Rejection>) -> ErrorCode {
        outcome.expect_err("expected a rejection").0
    }

    #[test]
    fn admission_gates_reject_in_order_and_rejections_leave_no_trace() {
        let config = slots(1, 1, 2);
        let mut admission = Admission::default();
        assert_eq!(admission.admit("a", &config).unwrap(), None, "free slot");
        assert_eq!(admission.admit("a", &config).unwrap(), Some(0), "waits");
        // Quota is checked before depth: "a" is at both limits.
        assert_eq!(
            code_of(admission.admit("a", &config)),
            ErrorCode::QuotaExceeded
        );
        assert_eq!(
            code_of(admission.admit("b", &config)),
            ErrorCode::ServerBusy
        );
        // A rejected tenant with nothing in flight must not leave a map
        // entry behind: the key is a client-chosen string.
        for i in 0..1_000 {
            let tenant = format!("tenant-{i}");
            assert_eq!(
                code_of(admission.admit(&tenant, &config)),
                ErrorCode::ServerBusy
            );
        }
        assert_eq!(admission.tenants.len(), 1);
        assert_eq!(admission.tenants["a"], 2);
        // The runner finishes: its slot goes to the waiter, which finishes.
        assert_eq!(admission.release("a"), Some(0));
        assert_eq!((admission.running, admission.waiting), (1, 0));
        assert_eq!(admission.release("a"), None);
        assert_eq!((admission.running, admission.waiting), (0, 0));
        assert!(admission.tenants.is_empty());
    }

    #[test]
    fn freed_slots_go_to_waiters_in_arrival_order_before_any_new_arrival() {
        let config = slots(2, 8, 8);
        let mut admission = Admission::default();
        assert_eq!(admission.admit("t", &config).unwrap(), None);
        assert_eq!(admission.admit("t", &config).unwrap(), None);
        assert_eq!(admission.admit("t", &config).unwrap(), Some(0));
        assert_eq!(admission.admit("t", &config).unwrap(), Some(1));
        // The slot changes hands, so an arrival between the release and
        // ticket 0 waking finds no free slot and queues behind ticket 1.
        assert_eq!(admission.release("t"), Some(0));
        assert_eq!(admission.admit("t", &config).unwrap(), Some(2));
        assert_eq!(admission.release("t"), Some(1));
        assert_eq!(admission.release("t"), Some(2));
        assert_eq!((admission.running, admission.waiting), (2, 0));
        assert_eq!(admission.release("t"), None);
        assert_eq!(admission.admit("t", &config).unwrap(), None);
    }

    #[test]
    fn in_flush_mode_no_slot_is_handed_to_a_waiter() {
        let config = slots(1, 4, 8);
        let mut admission = Admission::default();
        assert_eq!(admission.admit("t", &config).unwrap(), None);
        assert_eq!(admission.admit("t", &config).unwrap(), Some(0));
        assert_eq!(admission.admit("t", &config).unwrap(), Some(1));
        admission.flush_mode = true;
        admission.abandon("t");
        // The other waiter has not woken yet; the finishing statement must
        // free its slot, not give it to a ticket that will never run.
        assert_eq!(admission.release("t"), None);
        admission.abandon("t");
        assert_eq!((admission.running, admission.waiting), (0, 0));
        assert_eq!(admission.flushed, 2);
        assert!(admission.tenants.is_empty());
    }

    /// The acceptor keeps the handles of open connections only.
    #[test]
    fn finished_connection_threads_are_reaped_as_new_ones_arrive() {
        let session = Session::new();
        session.sql("CREATE TABLE kv (id BIGINT)").unwrap();
        let server = Server::bind(session, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let retained = || lock(&server.shared.conn_threads).len();
        let connect_and_close = || {
            let mut client = crate::Client::connect(addr, "reap").unwrap();
            client.query("SELECT * FROM kv").unwrap();
        };
        let mut peak = 0;
        for _ in 0..200 {
            connect_and_close();
            peak = peak.max(retained());
        }
        // A closed connection's thread exits a moment after the client's
        // drop, so a few may still be running at any accept.
        assert!(peak <= 32, "{peak} handles retained during 200 connections");
        let deadline = Instant::now() + Duration::from_secs(10);
        while retained() > 2 && Instant::now() < deadline {
            connect_and_close();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(retained() <= 2, "{} handles retained at rest", retained());
        server.shutdown();
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
