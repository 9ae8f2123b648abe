//! Where a served statement runs: on the thread of the connection that
//! sent it. There is no pool behind the connection threads, so one
//! connection's statements all scan on one thread, two connections scan
//! on two, and a statement that panics does not cost the connection its
//! thread. (The recording `TableSource` is the pattern of
//! `crates/engine/tests/thread_placement.rs`; one partition, so the engine
//! itself runs the plan on the calling thread.)

use std::any::Any;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use idf_engine::catalog::ChunkIter;
use idf_engine::prelude::*;
use idf_serve::{Client, ClientError, ErrorCode, ServeConfig, Server};

/// One partition of `(id, v)` rows that records the thread of every scan,
/// and panics in the scan when built `exploding`.
struct Recording {
    schema: SchemaRef,
    exploding: bool,
    scans: Arc<Mutex<Vec<ThreadId>>>,
}

impl TableSource for Recording {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn num_partitions(&self) -> usize {
        1
    }

    fn scan(&self, _partition: usize, projection: Option<&[usize]>) -> Result<ChunkIter> {
        self.scans.lock().unwrap().push(std::thread::current().id());
        assert!(!self.exploding, "scan of the exploding table");
        let rows: Vec<Vec<Value>> = (0..8)
            .map(|id| vec![Value::Int64(id), Value::Int64(id * 10)])
            .collect();
        let chunk = Chunk::from_rows(&self.schema, &rows)?;
        let chunk = match projection {
            Some(p) => chunk.project(p),
            None => chunk,
        };
        Ok(Box::new(std::iter::once(Ok(chunk))))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A server with `workers: 4` over table `t` (recording) and table `boom`
/// (recording, then panicking); the shared log of scan threads.
fn serve() -> (Server, Arc<Mutex<Vec<ThreadId>>>) {
    let scans = Arc::new(Mutex::new(Vec::new()));
    let schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]));
    let session = Session::new();
    for (name, exploding) in [("t", false), ("boom", true)] {
        session.register_table(
            name,
            Arc::new(Recording {
                schema: Arc::clone(&schema),
                exploding,
                scans: Arc::clone(&scans),
            }) as Arc<dyn TableSource>,
        );
    }
    let config = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let server = Server::bind(session, "127.0.0.1:0", config).unwrap();
    (server, scans)
}

fn connect(server: &Server) -> Client {
    let client = Client::connect(server.local_addr(), "placement").unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client
}

/// Run `reads` point reads on `client` and return the threads they
/// scanned on.
fn point_reads(
    client: &mut Client,
    scans: &Mutex<Vec<ThreadId>>,
    reads: usize,
) -> HashSet<ThreadId> {
    scans.lock().unwrap().clear();
    for key in 0..reads as i64 {
        let key = key % 8;
        let reply = client
            .query(&format!("SELECT v FROM t WHERE id = {key}"))
            .unwrap();
        assert_eq!(reply.rows, vec![vec![Value::Int64(key * 10)]]);
    }
    let scans = scans.lock().unwrap();
    assert_eq!(scans.len(), reads);
    scans.iter().copied().collect()
}

#[test]
fn a_connections_statements_all_run_on_its_own_thread() {
    let (server, scans) = serve();
    let mut first = connect(&server);
    let mut second = connect(&server);
    let first_threads = point_reads(&mut first, &scans, 50);
    assert_eq!(first_threads.len(), 1, "one connection, one thread");
    let second_threads = point_reads(&mut second, &scans, 50);
    assert_eq!(second_threads.len(), 1, "one connection, one thread");
    assert!(
        first_threads.is_disjoint(&second_threads),
        "two connections shared a thread"
    );
    assert!(!first_threads.contains(&std::thread::current().id()));
    // Back on the first connection: still the thread it started on.
    assert_eq!(point_reads(&mut first, &scans, 5), first_threads);
    let report = server.shutdown();
    assert_eq!((report.cancelled, report.flushed), (0, 0), "{report:?}");
}

#[test]
fn a_panicking_statement_keeps_the_connection_and_its_thread() {
    let (server, scans) = serve();
    let mut client = connect(&server);
    let before = point_reads(&mut client, &scans, 3);
    match client.query("SELECT v FROM boom") {
        Err(ClientError::Server(frame)) => {
            assert_eq!(frame.code, ErrorCode::QueryFailed, "{frame}");
            assert!(frame.message.contains("exploding"), "{frame}");
        }
        other => panic!("expected QueryFailed, got {other:?}"),
    }
    let exploded_on: HashSet<ThreadId> = scans.lock().unwrap().iter().copied().collect();
    assert_eq!(
        exploded_on, before,
        "the panic was on the connection thread"
    );
    assert_eq!(point_reads(&mut client, &scans, 3), before);
    // The slot the panicking statement held was given back: with it lost,
    // four such statements would leave `workers: 4` with none.
    for _ in 0..8 {
        assert!(client.query("SELECT v FROM boom").is_err());
    }
    assert_eq!(point_reads(&mut client, &scans, 3), before);
    server.shutdown();
}
