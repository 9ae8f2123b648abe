//! A result stream is assembled into one buffer before it is written, but
//! an injected `serve::write_frame` failure must still cut it exactly at a
//! frame boundary: the frames before the failing one arrive whole, then
//! the connection closes.
//!
//! Failpoints are process-global, so this file is its own test binary.

#![cfg(feature = "failpoints")]

use std::time::Duration;

use idf_engine::session::Session;
use idf_fail::{FailConfig, FailGuard};
use idf_serve::wire::{self, Response};
use idf_serve::{failpoints, Client, ServeConfig, Server};

#[test]
fn injected_write_failure_cuts_a_buffered_response_at_each_frame_boundary() {
    let session = Session::new();
    session
        .sql("CREATE TABLE kv (id BIGINT, name VARCHAR)")
        .unwrap();
    session
        .sql("INSERT INTO kv VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    let server = Server::bind(session, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut request = Vec::new();
    let body = wire::encode_query("cut", "SELECT name FROM kv WHERE id = 2").unwrap();
    wire::write_frame(&mut request, &body).unwrap();

    // The response is Schema, Rows, End: fail the first, second, third.
    for frames_before_cut in 0..3u64 {
        let mut client = Client::connect(server.local_addr(), "cut").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let guard = FailGuard::new(
            failpoints::WRITE_FRAME,
            FailConfig::error("cut").skip(frames_before_cut).times(1),
        );
        client.send_raw(&request).unwrap();
        let mut received = Vec::new();
        while let Some(frame) = client.read_raw().expect("cut on a frame boundary") {
            received.push(wire::decode_response(&frame).unwrap());
        }
        drop(guard);
        assert_eq!(received.len() as u64, frames_before_cut, "{received:?}");
        if let Some(first) = received.first() {
            assert!(matches!(first, Response::Schema(_)), "{first:?}");
        }
        if let Some(second) = received.get(1) {
            assert!(matches!(second, Response::Rows(rows) if rows.len() == 1));
        }
    }

    // Unarmed, the same request gets its whole stream.
    let mut client = Client::connect(server.local_addr(), "cut").unwrap();
    let reply = client.query("SELECT name FROM kv WHERE id = 2").unwrap();
    assert_eq!(reply.rows.len(), 1);
    assert_eq!(server.shutdown().cancelled, 0);
}
