//! Seeded chaos round over the service-layer failpoint sites, plus the
//! drain/deadline/quota behaviors that need deterministic slow queries
//! (injected via the engine's `WORKER_START` delay site).
//!
//! Failpoints are process-global, so everything here runs inside one
//! `#[test]` per concern, this file is its own test binary, and the tests
//! take [`serial`] — an armed `serve::write_frame` or `WORKER_START` delay
//! otherwise hits whichever test's server evaluates the site next.

#![cfg(feature = "failpoints")]

use std::time::{Duration, Instant};

use idf_engine::config::EngineConfig;
use idf_engine::session::Session;
use idf_fail::{FailConfig, FailGuard};
use idf_serve::{failpoints, Client, ClientError, ErrorCode, ServeConfig, Server};
use rand::{rngs::StdRng, Rng, SeedableRng};

const BUDGET: usize = 64 << 20;

/// One test at a time: they arm the same process-global sites.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn serve(config: ServeConfig) -> (Server, Session) {
    let engine_config = EngineConfig {
        total_memory_limit: Some(BUDGET),
        ..EngineConfig::default()
    };
    let session = Session::with_config(engine_config);
    session
        .sql("CREATE TABLE kv (id BIGINT, name VARCHAR)")
        .unwrap();
    session
        .sql("INSERT INTO kv VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    let server = Server::bind(session.clone(), "127.0.0.1:0", config).unwrap();
    (server, session)
}

fn assert_governor_zero(session: &Session) {
    let governor = session.memory_governor().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while governor.used() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(governor.used(), 0, "governor leaked bytes under chaos");
}

fn query_ok(server: &Server) {
    let mut client = Client::connect(server.local_addr(), "probe").unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reply = client.query("SELECT * FROM kv WHERE id = 1").unwrap();
    assert_eq!(reply.rows.len(), 1);
}

/// Iterate every registered service site with seeded fault counts: a
/// fault at any site must leave the server serving, panic-free, with the
/// governor drained to zero.
#[test]
fn seeded_chaos_round_over_all_sites() {
    let _serial = serial();
    let (server, session) = serve(ServeConfig::default());
    let mut rng = StdRng::seed_from_u64(0x5e7_1e57);
    for &site in failpoints::SITES {
        for round in 0..3 {
            let times = rng.gen_range(1..=3) as u64;
            let guard = FailGuard::new(site, FailConfig::error("chaos").times(times));
            for attempt in 0..(times + 2) {
                let mut client = match Client::connect(server.local_addr(), "chaos") {
                    Ok(client) => client,
                    // Connect raced the faulted acceptor; that IS the
                    // injected failure surfacing.
                    Err(_) => continue,
                };
                client
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                // Either outcome is legal under injected faults — a full
                // reply, a typed error frame, or a cut connection — but
                // never a hang or a panic.
                let _ = client.query("SELECT name FROM kv WHERE id = 2");
                let _ = (site, round, attempt);
            }
            drop(guard);
        }
        // Site exhausted: service must be fully restored.
        query_ok(&server);
        assert_governor_zero(&session);
    }
    let report = server.shutdown();
    assert_eq!(report.cancelled, 0);
}

/// A tenant at its in-flight quota gets a typed QuotaExceeded while a
/// different tenant is still admitted.
#[test]
fn tenant_quota_is_enforced_per_tenant() {
    let _serial = serial();
    let (server, session) = serve(ServeConfig {
        tenant_max_in_flight: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    // Make queries measurably slow so one is reliably in flight.
    let _slow = FailGuard::new(idf_engine::failpoints::WORKER_START, FailConfig::delay(300));
    let busy_tenant = std::thread::spawn(move || {
        let mut client = Client::connect(addr, "acme").unwrap();
        client.query("SELECT * FROM kv").unwrap();
    });
    std::thread::sleep(Duration::from_millis(80));
    let mut same = Client::connect(addr, "acme").unwrap();
    same.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match same.query("SELECT * FROM kv") {
        Err(ClientError::Server(frame)) => {
            assert_eq!(frame.code, ErrorCode::QuotaExceeded, "{frame}")
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    let mut other_tenant = Client::connect(addr, "globex").unwrap();
    other_tenant
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reply = other_tenant.query("SELECT * FROM kv WHERE id = 3").unwrap();
    assert_eq!(reply.rows.len(), 1);
    busy_tenant.join().unwrap();
    assert_governor_zero(&session);
    server.shutdown();
}

/// The server-imposed deadline maps to a typed DeadlineExceeded frame.
#[test]
fn server_deadline_yields_typed_frame() {
    let _serial = serial();
    let (server, session) = serve(ServeConfig {
        query_timeout: Some(Duration::from_millis(20)),
        ..ServeConfig::default()
    });
    let _slow = FailGuard::new(idf_engine::failpoints::WORKER_START, FailConfig::delay(200));
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match client.query("SELECT * FROM kv") {
        Err(ClientError::Server(frame)) => {
            assert_eq!(frame.code, ErrorCode::DeadlineExceeded, "{frame}")
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_governor_zero(&session);
    server.shutdown();
}

/// Graceful drain: in-flight queries finish when the deadline allows it;
/// when it does not, they are cancelled through their QueryContext and
/// the client sees a typed frame, never a partial stream.
#[test]
fn drain_finishes_or_cancels_in_flight_queries() {
    let _serial = serial();
    // Generous deadline: the slow query finishes, nothing is cancelled.
    let (server, session) = serve(ServeConfig {
        drain_deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    {
        let _slow = FailGuard::new(idf_engine::failpoints::WORKER_START, FailConfig::delay(200));
        let inflight = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "acme").unwrap();
            client.query("SELECT * FROM kv").unwrap()
        });
        std::thread::sleep(Duration::from_millis(60));
        let report = server.shutdown();
        let reply = inflight.join().unwrap();
        assert_eq!(reply.rows.len(), 3);
        assert_eq!(report.cancelled, 0, "{report:?}");
    }
    assert_governor_zero(&session);

    // Tight deadline: the in-flight query is cancelled cooperatively and
    // answers with a typed Cancelled frame.
    let (server, session) = serve(ServeConfig {
        drain_deadline: Duration::from_millis(30),
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    {
        let _slow = FailGuard::new(idf_engine::failpoints::WORKER_START, FailConfig::delay(500));
        let inflight = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "acme").unwrap();
            client.query("SELECT * FROM kv")
        });
        std::thread::sleep(Duration::from_millis(60));
        let t0 = Instant::now();
        let report = server.shutdown();
        assert_eq!(report.cancelled, 1, "{report:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "drain took {:?}",
            t0.elapsed()
        );
        match inflight.join().unwrap() {
            Err(ClientError::Server(frame)) => {
                assert_eq!(frame.code, ErrorCode::Cancelled, "{frame}")
            }
            other => panic!("expected a typed Cancelled frame, got {other:?}"),
        }
    }
    assert_governor_zero(&session);
}

/// The tests in which a statement waits for an execution slot. They
/// synchronize on the server's gauges, so they need the `obs` feature.
#[cfg(feature = "obs")]
mod slots {
    use super::*;

    /// Poll a process-global gauge until it reads `want`.
    fn await_gauge(name: &str, gauge: &idf_obs::Gauge, want: i64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while gauge.get() != want {
            assert!(
                Instant::now() < deadline,
                "{name} is {}, expected {want}",
                gauge.get()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One client running the slow `SELECT * FROM kv` on its own thread; the
    /// join yields the outcome and when it arrived.
    type SlowQuery = std::thread::JoinHandle<(Result<idf_serve::QueryReply, ClientError>, Instant)>;

    fn slow_query(addr: std::net::SocketAddr, tenant: &'static str) -> SlowQuery {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, tenant).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let outcome = client.query("SELECT * FROM kv");
            (outcome, Instant::now())
        })
    }

    fn error_code(outcome: Result<idf_serve::QueryReply, ClientError>) -> ErrorCode {
        match outcome {
            Err(ClientError::Server(frame)) => frame.code,
            other => panic!("expected a typed error frame, got {other:?}"),
        }
    }

    /// One slot, one waiting place: A runs, B waits its turn, C is refused
    /// with a typed ServerBusy, and B is served after A.
    #[test]
    fn queue_bound_runs_one_parks_one_and_refuses_the_third() {
        let _serial = serial();
        let metrics = idf_obs::global();
        let (server, session) = serve(ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let _slow = FailGuard::new(idf_engine::failpoints::WORKER_START, FailConfig::delay(300));
        let a = slow_query(addr, "a");
        await_gauge("idf_server_in_flight", &metrics.server_in_flight, 1);
        let b = slow_query(addr, "b");
        await_gauge("idf_server_queue_depth", &metrics.server_queue_depth, 1);
        assert_eq!(metrics.server_in_flight.get(), 1, "B must not be running");
        let busy_before = metrics.server_rejected_busy.get();
        let mut c = Client::connect(addr, "c").unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(
            error_code(c.query("SELECT * FROM kv")),
            ErrorCode::ServerBusy
        );
        assert_eq!(metrics.server_rejected_busy.get(), busy_before + 1);
        let (a_reply, a_at) = a.join().unwrap();
        let (b_reply, b_at) = b.join().unwrap();
        assert_eq!(a_reply.unwrap().rows.len(), 3);
        assert_eq!(b_reply.unwrap().rows.len(), 3);
        assert!(a_at < b_at, "the waiter was answered before the runner");
        await_gauge("idf_server_in_flight", &metrics.server_in_flight, 0);
        await_gauge("idf_server_queue_depth", &metrics.server_queue_depth, 0);
        // The refused connection is still usable once a slot is free.
        assert_eq!(c.query("SELECT * FROM kv").unwrap().rows.len(), 3);
        assert_governor_zero(&session);
        let report = server.shutdown();
        assert_eq!((report.cancelled, report.flushed), (0, 0), "{report:?}");
    }

    /// Drain past its deadline with one statement running and one waiting:
    /// the runner is cancelled, the waiter answers ShuttingDown without ever
    /// running, and shutdown joins every connection thread.
    #[test]
    fn drain_cancels_the_runner_and_flushes_the_waiter() {
        let _serial = serial();
        let metrics = idf_obs::global();
        let open_before = metrics.server_connections_open.get();
        let (server, session) = serve(ServeConfig {
            workers: 1,
            queue_depth: 1,
            drain_deadline: Duration::from_millis(30),
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let _slow = FailGuard::new(idf_engine::failpoints::WORKER_START, FailConfig::delay(500));
        let a = slow_query(addr, "a");
        await_gauge("idf_server_in_flight", &metrics.server_in_flight, 1);
        let b = slow_query(addr, "b");
        await_gauge("idf_server_queue_depth", &metrics.server_queue_depth, 1);
        let report = server.shutdown();
        assert_eq!((report.cancelled, report.flushed), (1, 1), "{report:?}");
        // Connection threads count themselves out as they exit, so a joined
        // server leaves the gauge where it found it.
        assert_eq!(metrics.server_connections_open.get(), open_before);
        assert_eq!(metrics.server_in_flight.get(), 0);
        assert_eq!(metrics.server_queue_depth.get(), 0);
        assert_eq!(error_code(a.join().unwrap().0), ErrorCode::Cancelled);
        assert_eq!(error_code(b.join().unwrap().0), ErrorCode::ShuttingDown);
        assert_governor_zero(&session);
    }
}
