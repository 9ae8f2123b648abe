//! A minimal blocking client for the wire protocol.
//!
//! One query at a time per connection: [`Client::query`] sends a `Query`
//! frame and reads the response stream to its `End` (or `Error`) frame.
//! Used by the abuse/e2e suites and the `harness serve` load generator;
//! it is also the reference implementation for third-party clients.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use idf_engine::error::{EngineError, Result};
use idf_engine::types::Value;

use crate::wire::{self, ErrorFrame, FieldDesc, Response, MAX_RESPONSE_FRAME};

/// How one query failed, from the client's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The server answered with a typed `Error` frame; the connection is
    /// still usable.
    Server(ErrorFrame),
    /// The transport or protocol broke (I/O failure, torn frame, stream
    /// cut mid-result); the connection must be abandoned.
    Transport(EngineError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server(frame) => write!(f, "server error: {frame}"),
            ClientError::Transport(err) => write!(f, "transport error: {err}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A fully received query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Result schema.
    pub fields: Vec<FieldDesc>,
    /// All result rows, row-major.
    pub rows: Vec<Vec<Value>>,
}

/// A blocking connection to an `idf-serve` server.
pub struct Client {
    /// Reads are buffered (a short response is one `read`, not two per
    /// frame); writes go straight to the socket underneath.
    stream: BufReader<TcpStream>,
    tenant: String,
}

impl Client {
    /// Connect to `addr`, accounting queries against `tenant`.
    pub fn connect(addr: impl ToSocketAddrs, tenant: impl Into<String>) -> Result<Client> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| EngineError::exec(format!("client connect: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| EngineError::exec(format!("client nodelay: {e}")))?;
        Ok(Client {
            stream: BufReader::new(stream),
            tenant: tenant.into(),
        })
    }

    /// Bound every read; `None` blocks forever (the default).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.stream
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| EngineError::exec(format!("client read timeout: {e}")))
    }

    /// Run one SQL statement and collect its full result.
    pub fn query(&mut self, sql: &str) -> std::result::Result<QueryReply, ClientError> {
        let body = wire::encode_query(&self.tenant, sql).map_err(ClientError::Transport)?;
        wire::write_frame(self.stream.get_mut(), &body).map_err(ClientError::Transport)?;
        let mut fields: Option<Vec<FieldDesc>> = None;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        loop {
            let frame = wire::read_frame(&mut self.stream, MAX_RESPONSE_FRAME)
                .map_err(ClientError::Transport)?
                .ok_or_else(|| {
                    ClientError::Transport(EngineError::exec(
                        "connection closed mid-response".to_string(),
                    ))
                })?;
            match wire::decode_response(&frame).map_err(ClientError::Transport)? {
                Response::Schema(f) => fields = Some(f),
                Response::Rows(mut slice) => rows.append(&mut slice),
                Response::End(total) => {
                    if rows.len() as u64 != total {
                        return Err(ClientError::Transport(EngineError::corrupt(format!(
                            "result stream claimed {total} rows but carried {}",
                            rows.len()
                        ))));
                    }
                    return Ok(QueryReply {
                        fields: fields.unwrap_or_default(),
                        rows,
                    });
                }
                Response::Error(frame) => return Err(ClientError::Server(frame)),
            }
        }
    }

    /// Send raw bytes on the socket (abuse tests: torn frames, bad CRCs,
    /// hostile length prefixes).
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream
            .get_mut()
            .write_all(bytes)
            .map_err(|e| EngineError::exec(format!("client raw write: {e}")))
    }

    /// Read one raw response frame body, `Ok(None)` on clean close.
    pub fn read_raw(&mut self) -> Result<Option<Vec<u8>>> {
        wire::read_frame(&mut self.stream, MAX_RESPONSE_FRAME)
    }
}
