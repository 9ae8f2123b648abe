//! Binary codec shared by the WAL and checkpoint formats.
//!
//! Everything is little-endian and length-prefixed. The unit of torn-write
//! protection is the *frame*: `u32 body_len | u32 crc32(body) | body`. A
//! reader that hits a frame whose length runs past the file, or whose CRC
//! does not match, treats everything from that offset on as a torn tail.
//!
//! Scalars use one tag byte each (`0 Null … 6 Timestamp`); a schema field
//! is `name | dtype tag | nullable`. Decoders return typed
//! [`EngineError::Corrupt`] errors on any malformed input — recovery must
//! reject bad bytes, never panic on them.

use idf_engine::error::{EngineError, Result};
use idf_engine::types::{DataType, Value};

use crate::crc::{crc32, crc32_update};

/// Hard cap on one frame body (64 MiB for WAL records; checkpoints use
/// [`MAX_SNAPSHOT_FRAME`]). Enforced symmetrically: writers refuse to
/// frame a larger body (see [`check_frame_len`]) and readers treat a
/// length prefix beyond the cap as corruption rather than an allocation
/// request.
pub const MAX_WAL_FRAME: usize = 64 << 20;

/// Hard cap on a checkpoint snapshot frame (a full table image). One
/// below `1 << 32` so every permitted body length round-trips through
/// the `u32` frame prefix without wrapping.
pub const MAX_SNAPSHOT_FRAME: usize = (4 << 30) - 1;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Append `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Refuse to frame a body longer than `max_body` bytes. Writers call
/// this *before* a frame is staged or acknowledged — a reader-side cap
/// alone would let an oversized frame be fsync'd, then silently dropped
/// as a "torn tail" on reopen, losing an acknowledged commit.
pub fn check_frame_len(len: usize, max_body: usize, what: &str) -> Result<()> {
    if len > max_body {
        return Err(EngineError::durability(format!(
            "{what} of {len} bytes exceeds the {max_body}-byte frame cap"
        )));
    }
    Ok(())
}

/// Bytes of a frame header: `u32 body_len | u32 crc32(body)`.
pub const FRAME_HEADER: usize = 8;

/// The header of a frame whose body is `pieces` concatenated, computed
/// over the pieces where they lie (the length summed, the CRC continued
/// from piece to piece), so a body need never be gathered into one buffer
/// to be framed. Errors when the body cannot be represented by the `u32`
/// length prefix (callers normally reject far earlier via
/// [`check_frame_len`]).
pub fn frame_header(pieces: &[&[u8]]) -> Result<[u8; FRAME_HEADER]> {
    let total: usize = pieces.iter().map(|p| p.len()).sum();
    let len = u32::try_from(total).map_err(|_| {
        EngineError::durability(format!(
            "frame body of {total} bytes overflows the u32 length prefix"
        ))
    })?;
    let crc = pieces.iter().fold(0, |crc, p| crc32_update(crc, p));
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc.to_le_bytes());
    Ok(header)
}

/// Seal a frame encoded in place: `framed` is a reserved
/// [`FRAME_HEADER`]-byte slot followed by the body, and this fills the
/// slot in. A writer that reserves the slot first and encodes its body
/// right after it frames a record without copying the body.
pub fn seal_frame(framed: &mut [u8]) -> Result<()> {
    let Some((header, body)) = framed.split_at_mut_checked(FRAME_HEADER) else {
        return Err(EngineError::internal(format!(
            "a frame of {} bytes has no room for its header",
            framed.len()
        )));
    };
    header.copy_from_slice(&frame_header(&[body])?);
    Ok(())
}

/// Frame `body` for appending to a segment: length, checksum, body.
pub fn frame(body: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.extend_from_slice(body);
    seal_frame(&mut out)?;
    Ok(out)
}

/// Encode one scalar: tag byte + payload.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Boolean(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int32(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Int64(i) => {
            out.push(3);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float64(f) => {
            out.push(4);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Utf8(s) => {
            out.push(5);
            put_bytes(out, s.as_bytes());
        }
        Value::Timestamp(t) => {
            out.push(6);
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
}

/// Encode a data type as one tag byte.
pub fn put_data_type(out: &mut Vec<u8>, dt: DataType) {
    out.push(match dt {
        DataType::Boolean => 0,
        DataType::Int32 => 1,
        DataType::Int64 => 2,
        DataType::Float64 => 3,
        DataType::Utf8 => 4,
        DataType::Timestamp => 5,
    });
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// Sequential reader over a decoded frame body with typed truncation
/// errors.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// What is being decoded, named in corruption errors.
    what: &'static str,
}

impl<'a> Cursor<'a> {
    /// Read `buf` from the start; `what` names the structure in errors.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Cursor { buf, pos: 0, what }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(EngineError::corrupt(format!(
                "{} truncated: wanted {n} bytes at offset {} of {}",
                self.what,
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read `u32` little-endian.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read `u64` little-endian.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read `i32` little-endian.
    pub fn i32(&mut self) -> Result<i32> {
        Ok(self.u32()? as i32)
    }

    /// Read `i64` little-endian.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let what = self.what;
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| EngineError::corrupt(format!("{what}: non-UTF-8 string")))
    }

    /// Read one scalar (tag byte + payload).
    pub fn value(&mut self) -> Result<Value> {
        let tag = self.u8()?;
        Ok(match tag {
            0 => Value::Null,
            1 => Value::Boolean(self.u8()? != 0),
            2 => Value::Int32(self.i32()?),
            3 => Value::Int64(self.i64()?),
            4 => Value::Float64(f64::from_bits(self.u64()?)),
            5 => Value::Utf8(self.string()?),
            6 => Value::Timestamp(self.i64()?),
            other => {
                return Err(EngineError::corrupt(format!(
                    "{}: unknown value tag {other}",
                    self.what
                )))
            }
        })
    }

    /// Read a data type tag byte.
    pub fn data_type(&mut self) -> Result<DataType> {
        let tag = self.u8()?;
        Ok(match tag {
            0 => DataType::Boolean,
            1 => DataType::Int32,
            2 => DataType::Int64,
            3 => DataType::Float64,
            4 => DataType::Utf8,
            5 => DataType::Timestamp,
            other => {
                return Err(EngineError::corrupt(format!(
                    "{}: unknown data type tag {other}",
                    self.what
                )))
            }
        })
    }

    /// Error unless every byte was consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(EngineError::corrupt(format!(
                "{}: {} trailing bytes",
                self.what,
                self.remaining()
            )))
        }
    }
}

/// How one attempt to read a frame from `buf[offset..]` ended.
pub enum FrameRead<'a> {
    /// A valid frame; `next` is the offset just past it.
    Ok {
        /// The verified frame body.
        body: &'a [u8],
        /// Offset of the byte after the frame.
        next: usize,
    },
    /// `buf` ends exactly at `offset` — a clean end of segment.
    End,
    /// Bytes from `offset` on are not a valid frame (torn tail or
    /// corruption) — the reader truncates here.
    Torn,
}

/// Try to read one frame at `buf[offset..]`, verifying length and CRC.
/// `max_body` caps the declared body length (see [`MAX_WAL_FRAME`]).
pub fn read_frame(buf: &[u8], offset: usize, max_body: usize) -> FrameRead<'_> {
    if offset == buf.len() {
        return FrameRead::End;
    }
    let Some(header) = buf.get(offset..offset + 8) else {
        return FrameRead::Torn;
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_body {
        return FrameRead::Torn;
    }
    let Some(body) = buf.get(offset + 8..offset + 8 + len) else {
        return FrameRead::Torn;
    };
    if crc32(body) != crc {
        return FrameRead::Torn;
    }
    FrameRead::Ok {
        body,
        next: offset + 8 + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let values = [
            Value::Null,
            Value::Boolean(true),
            Value::Boolean(false),
            Value::Int32(-5),
            Value::Int64(i64::MIN),
            Value::Float64(3.25),
            Value::Utf8("héllo".into()),
            Value::Utf8(String::new()),
            Value::Timestamp(1_700_000_000_000),
        ];
        let mut buf = Vec::new();
        for v in &values {
            put_value(&mut buf, v);
        }
        let mut c = Cursor::new(&buf, "test values");
        for v in &values {
            assert_eq!(&c.value().unwrap(), v);
        }
        c.expect_end().unwrap();
    }

    #[test]
    fn data_type_roundtrip() {
        let all = [
            DataType::Boolean,
            DataType::Int32,
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Timestamp,
        ];
        let mut buf = Vec::new();
        for dt in all {
            put_data_type(&mut buf, dt);
        }
        let mut c = Cursor::new(&buf, "test dtypes");
        for dt in all {
            assert_eq!(c.data_type().unwrap(), dt);
        }
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut c = Cursor::new(&[5u8], "thing");
        // Tag 5 = Utf8, but no length follows.
        let err = c.value().unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        let mut c = Cursor::new(&[9u8], "thing");
        assert!(c.value().is_err());
        let mut c = Cursor::new(&[7u8], "thing");
        assert!(c.data_type().is_err());
    }

    #[test]
    fn oversized_bodies_are_rejected_at_write_time() {
        // No allocation needed: the checks are pure length arithmetic.
        check_frame_len(MAX_WAL_FRAME, MAX_WAL_FRAME, "WAL record").unwrap();
        let err = check_frame_len(MAX_WAL_FRAME + 1, MAX_WAL_FRAME, "WAL record").unwrap_err();
        assert!(err.to_string().contains("frame cap"), "{err}");
        check_frame_len(MAX_SNAPSHOT_FRAME, MAX_SNAPSHOT_FRAME, "snapshot").unwrap();
        let err =
            check_frame_len(MAX_SNAPSHOT_FRAME + 1, MAX_SNAPSHOT_FRAME, "snapshot").unwrap_err();
        assert!(err.to_string().contains("frame cap"), "{err}");
        // The snapshot cap itself must fit the u32 length prefix, so a
        // cap-respecting body can never wrap it.
        assert!(MAX_SNAPSHOT_FRAME <= u32::MAX as usize);
    }

    /// A header over pieces, a frame sealed in place and `frame` of the
    /// concatenated body are the same bytes.
    #[test]
    fn frame_header_over_pieces_matches_the_framed_body() {
        let body: Vec<u8> = (0..1000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        let framed = frame(&body).unwrap();
        for cuts in [[0, 0], [1, 999], [128, 512], [500, 500], [1000, 1000]] {
            let pieces = [&body[..cuts[0]], &body[cuts[0]..cuts[1]], &body[cuts[1]..]];
            assert_eq!(frame_header(&pieces).unwrap(), framed[..FRAME_HEADER]);
        }
        let mut in_place = vec![0u8; FRAME_HEADER];
        in_place.extend_from_slice(&body);
        seal_frame(&mut in_place).unwrap();
        assert_eq!(in_place, framed);
        assert_eq!(frame(b"").unwrap(), [0u8; FRAME_HEADER]);
        assert!(seal_frame(&mut [0u8; FRAME_HEADER - 1]).is_err());
    }

    #[test]
    fn frame_roundtrip_and_torn_tail() {
        let a = frame(b"alpha").unwrap();
        let b = frame(b"bravo-bravo").unwrap();
        let mut buf = [a.clone(), b.clone()].concat();
        match read_frame(&buf, 0, MAX_WAL_FRAME) {
            FrameRead::Ok { body, next } => {
                assert_eq!(body, b"alpha");
                match read_frame(&buf, next, MAX_WAL_FRAME) {
                    FrameRead::Ok { body, next } => {
                        assert_eq!(body, b"bravo-bravo");
                        assert!(matches!(
                            read_frame(&buf, next, MAX_WAL_FRAME),
                            FrameRead::End
                        ));
                    }
                    _ => panic!("second frame"),
                }
            }
            _ => panic!("first frame"),
        }
        // Chop mid-second-frame: first frame still reads, tail is torn.
        buf.truncate(a.len() + 3);
        let FrameRead::Ok { next, .. } = read_frame(&buf, 0, MAX_WAL_FRAME) else {
            panic!("first frame after truncation")
        };
        assert!(matches!(
            read_frame(&buf, next, MAX_WAL_FRAME),
            FrameRead::Torn
        ));
        // Flip a body bit: CRC catches it.
        let mut flipped = [a, b].concat();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let FrameRead::Ok { next, .. } = read_frame(&flipped, 0, MAX_WAL_FRAME) else {
            panic!("first frame intact")
        };
        assert!(matches!(
            read_frame(&flipped, next, MAX_WAL_FRAME),
            FrameRead::Torn
        ));
    }
}
