//! The binary wire protocol.
//!
//! Everything on the socket is a *frame* in the WAL's torn-write format —
//! `u32 body_len | u32 crc32(body) | body`, little-endian — built on the
//! shared codec in `idf_durable::codec`. The first body byte is a message
//! tag; the rest is tag-specific.
//!
//! Requests (client → server):
//!
//! | tag | message | payload |
//! |-----|---------|---------|
//! | 1   | `Query` | tenant string, SQL string |
//!
//! Responses (server → client), streamed per query as
//! `Schema, Rows*, End` on success or a single `Error` on failure:
//!
//! | tag | message  | payload |
//! |-----|----------|---------|
//! | 2   | `Schema` | field count, then name/dtype/nullable per field |
//! | 3   | `Rows`   | row count, column count, values row-major |
//! | 4   | `End`    | total row count (u64) |
//! | 5   | `Error`  | [`ErrorCode`] (u16), message string |
//!
//! A decoder that sees a bad tag, a truncated payload, or trailing bytes
//! returns a typed [`EngineError::Corrupt`] — the peer closes the
//! connection, it never resynchronizes inside a stream. Oversized length
//! prefixes are rejected *before* any allocation (mirroring
//! `codec::check_frame_len`), so a hostile header cannot balloon memory.

use std::io::{Read, Write};

use idf_durable::codec::{self, Cursor};
use idf_durable::crc::crc32;
use idf_engine::error::{EngineError, Result};
use idf_engine::schema::Schema;
use idf_engine::types::{DataType, Value};

/// Hard cap on the SQL text carried by one [`Request::Query`], enforced
/// symmetrically (client refuses to send more, server refuses to accept
/// more with a typed [`ErrorCode::SqlTooLarge`]). Keeps a hostile or
/// runaway client from parking multi-megabyte statements in the server's
/// request path and slow-query log.
pub const MAX_SQL_BYTES: usize = 1 << 20;

/// Cap on a request frame body: the SQL cap plus room for the tag,
/// tenant string, and length prefixes.
pub const MAX_REQUEST_FRAME: usize = MAX_SQL_BYTES + 4096;

/// Cap on a response frame body. The server slices results into
/// [`ROWS_PER_FRAME`]-row frames, so this bounds one slice, not a result.
pub const MAX_RESPONSE_FRAME: usize = 64 << 20;

/// Rows per `Rows` frame in a streamed result.
pub const ROWS_PER_FRAME: usize = 1024;

const TAG_QUERY: u8 = 1;
const TAG_SCHEMA: u8 = 2;
const TAG_ROWS: u8 = 3;
const TAG_END: u8 = 4;
const TAG_ERROR: u8 = 5;

/// Typed rejection and failure codes carried by `Error` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Admission control rejected the query: the queue is at depth, or
    /// the memory governor stayed saturated past the admission wait.
    ServerBusy = 1,
    /// The server is draining and accepts no new queries.
    ShuttingDown = 2,
    /// The tenant is at its in-flight query quota.
    QuotaExceeded = 3,
    /// The SQL text exceeds [`MAX_SQL_BYTES`].
    SqlTooLarge = 4,
    /// The request was well-framed but malformed (bad tag, bad payload).
    BadRequest = 5,
    /// The query was cancelled (drain deadline, explicit cancel).
    Cancelled = 6,
    /// The query ran past its deadline.
    DeadlineExceeded = 7,
    /// A memory budget was exceeded while executing.
    ResourceExhausted = 8,
    /// `CREATE TABLE` lost an atomic-registration race.
    TableAlreadyExists = 9,
    /// Any other engine error (parse, bind, type, execution).
    QueryFailed = 10,
    /// The target table is degraded to read-only (its WAL was poisoned
    /// by an I/O fault); reads still serve, writes need `resume_writes`.
    ReadOnly = 11,
    /// A durability operation (WAL append, checkpoint, recovery) failed.
    Durability = 12,
    /// On-disk state failed validation (CRC mismatch, broken segment
    /// chain, bad manifest).
    Corrupt = 13,
    /// `DROP`/`REFRESH MATERIALIZED VIEW` named a view that does not
    /// exist.
    UnknownView = 14,
    /// `CREATE MATERIALIZED VIEW` named an already-registered view.
    ViewAlreadyExists = 15,
}

impl ErrorCode {
    /// Decode a wire code.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::ServerBusy,
            2 => ErrorCode::ShuttingDown,
            3 => ErrorCode::QuotaExceeded,
            4 => ErrorCode::SqlTooLarge,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::Cancelled,
            7 => ErrorCode::DeadlineExceeded,
            8 => ErrorCode::ResourceExhausted,
            9 => ErrorCode::TableAlreadyExists,
            10 => ErrorCode::QueryFailed,
            11 => ErrorCode::ReadOnly,
            12 => ErrorCode::Durability,
            13 => ErrorCode::Corrupt,
            14 => ErrorCode::UnknownView,
            15 => ErrorCode::ViewAlreadyExists,
            _ => return None,
        })
    }

    /// The code a failing engine error maps to.
    pub fn for_engine_error(err: &EngineError) -> ErrorCode {
        match err {
            EngineError::Cancelled => ErrorCode::Cancelled,
            EngineError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            EngineError::ResourceExhausted(_) => ErrorCode::ResourceExhausted,
            EngineError::TableAlreadyExists(_) => ErrorCode::TableAlreadyExists,
            EngineError::ReadOnly(_) => ErrorCode::ReadOnly,
            EngineError::Durability(_) => ErrorCode::Durability,
            EngineError::Corrupt(_) => ErrorCode::Corrupt,
            EngineError::ViewNotFound(_) => ErrorCode::UnknownView,
            EngineError::ViewAlreadyExists(_) => ErrorCode::ViewAlreadyExists,
            _ => ErrorCode::QueryFailed,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::ServerBusy => "server busy",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::QuotaExceeded => "tenant quota exceeded",
            ErrorCode::SqlTooLarge => "SQL text too large",
            ErrorCode::BadRequest => "bad request",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::ResourceExhausted => "resource exhausted",
            ErrorCode::TableAlreadyExists => "table already exists",
            ErrorCode::QueryFailed => "query failed",
            ErrorCode::ReadOnly => "table is read-only (degraded)",
            ErrorCode::Durability => "durability failure",
            ErrorCode::Corrupt => "on-disk state corrupt",
            ErrorCode::UnknownView => "materialized view not found",
            ErrorCode::ViewAlreadyExists => "materialized view already exists",
        };
        f.write_str(name)
    }
}

/// A typed `Error` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// What went wrong, as a stable wire code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// One field of a result schema as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDesc {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

/// A decoded client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one SQL statement on behalf of `tenant`.
    Query {
        /// Tenant id the query is accounted against.
        tenant: String,
        /// The SQL text.
        sql: String,
    },
}

/// A decoded server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result schema; exactly one per successful query, first.
    Schema(Vec<FieldDesc>),
    /// One slice of result rows.
    Rows(Vec<Vec<Value>>),
    /// End of a successful result stream with the total row count.
    End(u64),
    /// The query (or the request itself) failed.
    Error(ErrorFrame),
}

/// Refuse SQL text longer than [`MAX_SQL_BYTES`] with a typed error
/// (mirrors `codec::check_frame_len` — enforced at both ends of the
/// wire, so an oversized statement is never staged, sent, or retained).
pub fn check_sql_len(len: usize) -> Result<()> {
    if len > MAX_SQL_BYTES {
        return Err(EngineError::Sql(format!(
            "SQL text of {len} bytes exceeds the {MAX_SQL_BYTES}-byte wire cap"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encode a [`Request::Query`] body. Errors when `sql` is over the cap.
pub fn encode_query(tenant: &str, sql: &str) -> Result<Vec<u8>> {
    check_sql_len(sql.len())?;
    let mut out = Vec::with_capacity(9 + tenant.len() + sql.len());
    out.push(TAG_QUERY);
    codec::put_bytes(&mut out, tenant.as_bytes());
    codec::put_bytes(&mut out, sql.as_bytes());
    Ok(out)
}

/// Encode a `Schema` body.
pub fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut out = vec![TAG_SCHEMA];
    codec::put_u32(&mut out, schema.fields.len() as u32);
    for field in &schema.fields {
        codec::put_bytes(&mut out, field.name.as_bytes());
        codec::put_data_type(&mut out, field.data_type);
        out.push(u8::from(field.nullable));
    }
    out
}

/// Encode a `Rows` body for `rows[..]`, all of width `num_columns`.
pub fn encode_rows(num_columns: usize, rows: &[Vec<Value>]) -> Vec<u8> {
    let mut out = vec![TAG_ROWS];
    codec::put_u32(&mut out, rows.len() as u32);
    codec::put_u32(&mut out, num_columns as u32);
    for row in rows {
        for value in row {
            codec::put_value(&mut out, value);
        }
    }
    out
}

/// Encode an `End` body.
pub fn encode_end(total_rows: u64) -> Vec<u8> {
    let mut out = vec![TAG_END];
    codec::put_u64(&mut out, total_rows);
    out
}

/// Encode an `Error` body.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = vec![TAG_ERROR];
    codec::put_u32(&mut out, u32::from(code as u16));
    codec::put_bytes(&mut out, message.as_bytes());
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decode a request body. Typed [`EngineError::Corrupt`] on malformed
/// input — the caller answers `BadRequest` and closes the connection.
pub fn decode_request(body: &[u8]) -> Result<Request> {
    let mut c = Cursor::new(body, "request frame");
    match c.u8()? {
        TAG_QUERY => {
            let tenant = c.string()?;
            let sql = c.string()?;
            c.expect_end()?;
            Ok(Request::Query { tenant, sql })
        }
        other => Err(EngineError::corrupt(format!(
            "request frame: unknown message tag {other}"
        ))),
    }
}

/// Decode a response body.
pub fn decode_response(body: &[u8]) -> Result<Response> {
    let mut c = Cursor::new(body, "response frame");
    let resp = match c.u8()? {
        TAG_SCHEMA => {
            let n = c.u32()? as usize;
            let mut fields = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                fields.push(FieldDesc {
                    name: c.string()?,
                    data_type: c.data_type()?,
                    nullable: c.u8()? != 0,
                });
            }
            Response::Schema(fields)
        }
        TAG_ROWS => {
            let nrows = c.u32()? as usize;
            let ncols = c.u32()? as usize;
            let mut rows = Vec::with_capacity(nrows.min(ROWS_PER_FRAME));
            for _ in 0..nrows {
                let mut row = Vec::with_capacity(ncols.min(1024));
                for _ in 0..ncols {
                    row.push(c.value()?);
                }
                rows.push(row);
            }
            Response::Rows(rows)
        }
        TAG_END => Response::End(c.u64()?),
        TAG_ERROR => {
            let raw = c.u32()?;
            let code = u16::try_from(raw)
                .ok()
                .and_then(ErrorCode::from_u16)
                .ok_or_else(|| {
                    EngineError::corrupt(format!("response frame: unknown error code {raw}"))
                })?;
            let message = c.string()?;
            Response::Error(ErrorFrame { code, message })
        }
        other => {
            return Err(EngineError::corrupt(format!(
                "response frame: unknown message tag {other}"
            )))
        }
    };
    c.expect_end()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------

/// Frame `body` and write it to `w`. The durability-flavored framing
/// errors from [`codec::frame`] cannot occur for capped bodies.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<()> {
    let framed = codec::frame(body)?;
    w.write_all(&framed)
        .map_err(|e| EngineError::exec(format!("wire write: {e}")))?;
    Ok(())
}

/// Frame `body` and append it to `out`: the bytes [`write_frame`] would
/// write, for a sender that assembles several frames into one write.
pub fn append_frame(out: &mut Vec<u8>, body: &[u8]) -> Result<()> {
    out.extend_from_slice(&codec::frame(body)?);
    Ok(())
}

/// Read one frame from `r`, verifying length cap and CRC.
///
/// `Ok(None)` is a clean close (EOF on a frame boundary). Everything
/// else that is not a whole, valid frame — torn header, torn body,
/// length prefix over `max_body`, CRC mismatch — is a typed
/// [`EngineError::Corrupt`]; an I/O failure is `Execution`. The length
/// check happens before the body buffer is allocated.
pub fn read_frame(r: &mut impl Read, max_body: usize) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(EngineError::corrupt(format!(
                    "wire frame: torn header ({filled} of 8 bytes)"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(EngineError::exec(format!("wire read: {e}"))),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_body {
        return Err(EngineError::corrupt(format!(
            "wire frame: length prefix {len} exceeds the {max_body}-byte cap"
        )));
    }
    let mut body = vec![0u8; len];
    let mut read = 0;
    while read < len {
        match r.read(&mut body[read..]) {
            Ok(0) => {
                return Err(EngineError::corrupt(format!(
                    "wire frame: torn body ({read} of {len} bytes)"
                )))
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(EngineError::exec(format!("wire read: {e}"))),
        }
    }
    if crc32(&body) != crc {
        return Err(EngineError::corrupt("wire frame: CRC mismatch".to_string()));
    }
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip_and_cap() {
        let body = encode_query("acme", "SELECT 1").unwrap();
        match decode_request(&body).unwrap() {
            Request::Query { tenant, sql } => {
                assert_eq!(tenant, "acme");
                assert_eq!(sql, "SELECT 1");
            }
        }
        let big = "x".repeat(MAX_SQL_BYTES + 1);
        let err = encode_query("acme", &big).unwrap_err();
        assert!(err.to_string().contains("wire cap"), "{err}");
        check_sql_len(MAX_SQL_BYTES).unwrap();
        assert!(check_sql_len(MAX_SQL_BYTES + 1).is_err());
    }

    #[test]
    fn response_roundtrips() {
        use idf_engine::schema::Field;
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]);
        match decode_response(&encode_schema(&schema)).unwrap() {
            Response::Schema(fields) => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].name, "id");
                assert_eq!(fields[0].data_type, DataType::Int64);
                assert_eq!(fields[1].name, "name");
            }
            other => panic!("{other:?}"),
        }
        let rows = vec![
            vec![Value::Int64(1), Value::Utf8("a".into())],
            vec![Value::Null, Value::Utf8("é".into())],
        ];
        match decode_response(&encode_rows(2, &rows)).unwrap() {
            Response::Rows(got) => assert_eq!(got, rows),
            other => panic!("{other:?}"),
        }
        match decode_response(&encode_end(17)).unwrap() {
            Response::End(n) => assert_eq!(n, 17),
            other => panic!("{other:?}"),
        }
        match decode_response(&encode_error(ErrorCode::ServerBusy, "full")).unwrap() {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::ServerBusy);
                assert_eq!(e.message, "full");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99]).is_err());
        assert!(decode_response(&[99]).is_err());
        // Trailing garbage after a valid End payload.
        let mut body = encode_end(1);
        body.push(0);
        assert!(decode_response(&body).is_err());
        // Error frame with an unknown code.
        let mut body = vec![5u8];
        idf_durable::codec::put_u32(&mut body, 9999);
        idf_durable::codec::put_bytes(&mut body, b"x");
        assert!(decode_response(&body).is_err());
    }

    #[test]
    fn stream_framing_detects_torn_and_oversized() {
        use std::io::Cursor as IoCursor;
        // Round trip.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = IoCursor::new(buf.clone());
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
        // Torn body.
        let mut torn = buf.clone();
        torn.truncate(buf.len() - 2);
        let err = read_frame(&mut IoCursor::new(torn), 1024).unwrap_err();
        assert!(err.to_string().contains("torn body"), "{err}");
        // Torn header.
        let err = read_frame(&mut IoCursor::new(vec![1u8, 2, 3]), 1024).unwrap_err();
        assert!(err.to_string().contains("torn header"), "{err}");
        // Oversized length prefix rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut IoCursor::new(huge), 1024).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        // CRC mismatch.
        let mut flipped = buf;
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        let err = read_frame(&mut IoCursor::new(flipped), 1024).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn error_code_mapping() {
        assert_eq!(
            ErrorCode::for_engine_error(&EngineError::Cancelled),
            ErrorCode::Cancelled
        );
        assert_eq!(
            ErrorCode::for_engine_error(&EngineError::DeadlineExceeded),
            ErrorCode::DeadlineExceeded
        );
        assert_eq!(
            ErrorCode::for_engine_error(&EngineError::resource("x")),
            ErrorCode::ResourceExhausted
        );
        assert_eq!(
            ErrorCode::for_engine_error(&EngineError::TableAlreadyExists("t".into())),
            ErrorCode::TableAlreadyExists
        );
        assert_eq!(
            ErrorCode::for_engine_error(&EngineError::Sql("x".into())),
            ErrorCode::QueryFailed
        );
        assert_eq!(
            ErrorCode::for_engine_error(&EngineError::read_only("fsync died")),
            ErrorCode::ReadOnly
        );
        assert_eq!(
            ErrorCode::for_engine_error(&EngineError::durability("wal append")),
            ErrorCode::Durability
        );
        assert_eq!(
            ErrorCode::for_engine_error(&EngineError::corrupt("bad crc")),
            ErrorCode::Corrupt
        );
        assert_eq!(
            ErrorCode::for_engine_error(&EngineError::ViewNotFound("v".into())),
            ErrorCode::UnknownView
        );
        assert_eq!(
            ErrorCode::for_engine_error(&EngineError::ViewAlreadyExists("v".into())),
            ErrorCode::ViewAlreadyExists
        );
        for raw in 1..=15u16 {
            let code = ErrorCode::from_u16(raw).unwrap();
            assert_eq!(code as u16, raw);
        }
        assert!(ErrorCode::from_u16(0).is_none());
        assert!(ErrorCode::from_u16(16).is_none());
    }
}
