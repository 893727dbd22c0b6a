//! Command-log records and their on-disk framing.
//!
//! Each record is framed as:
//!
//! ```text
//! [payload_len: u32][fnv1a(payload): u64][payload]
//! ```
//!
//! and the payload is a tag byte plus the variant's fields. Decoding a
//! stream ([`FrameReader`]) stops — cleanly, never panicking — at the
//! first frame whose length runs past the input, whose checksum
//! mismatches, or whose payload fails to parse: exactly the torn/corrupt-
//! tail cases a crash mid-write can leave behind. Everything before that
//! prefix is valid (appends are strictly sequential per partition).

use crate::codec::{fnv1a, CodecError, Reader, Writer};
use common::{ProcId, Value};
use std::io::{self, Read};

/// Frame header: payload length (`u32`) plus checksum (`u64`).
const HEADER: usize = 12;

/// Largest payload a frame may declare: a record is a command, not a heap.
const MAX_PAYLOAD: u32 = 1 << 24;

/// One durable command. `Local` is a committed single-partition writer;
/// distributed transactions appear as a [`LogRecord::DistBegin`] on every
/// participant that executed fragments (positioned at the instant the
/// worker began serving that transaction) plus a [`LogRecord::Decision`]
/// at its 2PC resolution point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A committed single-partition writer, replayed in file order.
    Local { txn_id: u64, proc: ProcId, args: Vec<Value> },
    /// A distributed transaction began service on this partition; its
    /// effects belong at exactly this position in the partition's order.
    DistBegin { txn_id: u64, proc: ProcId, args: Vec<Value> },
    /// This partition's record of the distributed transaction's outcome.
    Decision { txn_id: u64, commit: bool },
}

const TAG_LOCAL: u8 = 1;
const TAG_DIST_BEGIN: u8 = 2;
const TAG_DECISION: u8 = 3;

impl LogRecord {
    /// The transaction this record belongs to.
    pub fn txn_id(&self) -> u64 {
        match self {
            LogRecord::Local { txn_id, .. }
            | LogRecord::DistBegin { txn_id, .. }
            | LogRecord::Decision { txn_id, .. } => *txn_id,
        }
    }

    fn encode_payload(&self, w: &mut Writer) {
        match self {
            LogRecord::Local { txn_id, proc, args } => {
                w.put_u8(TAG_LOCAL);
                w.put_u64(*txn_id);
                w.put_u32(*proc);
                w.put_values(args);
            }
            LogRecord::DistBegin { txn_id, proc, args } => {
                w.put_u8(TAG_DIST_BEGIN);
                w.put_u64(*txn_id);
                w.put_u32(*proc);
                w.put_values(args);
            }
            LogRecord::Decision { txn_id, commit } => {
                w.put_u8(TAG_DECISION);
                w.put_u64(*txn_id);
                w.put_u8(u8::from(*commit));
            }
        }
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<LogRecord, CodecError> {
        match r.get_u8()? {
            TAG_LOCAL => Ok(LogRecord::Local {
                txn_id: r.get_u64()?,
                proc: r.get_u32()?,
                args: r.get_values()?,
            }),
            TAG_DIST_BEGIN => Ok(LogRecord::DistBegin {
                txn_id: r.get_u64()?,
                proc: r.get_u32()?,
                args: r.get_values()?,
            }),
            TAG_DECISION => {
                let txn_id = r.get_u64()?;
                let commit = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(CodecError(format!("bad decision byte {b}"))),
                };
                Ok(LogRecord::Decision { txn_id, commit })
            }
            t => Err(CodecError(format!("unknown record tag {t}"))),
        }
    }

    /// Appends this record's frame (length, checksum, payload) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut payload = Writer::new();
        self.encode_payload(&mut payload);
        let payload = payload.into_bytes();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }

    /// Decodes the longest valid record prefix of `bytes`. Returns the
    /// records plus the number of bytes consumed by valid frames; anything
    /// after that — a torn length, a checksum mismatch, an unparsable
    /// payload — is a tail the caller discards. Never panics.
    pub fn decode_stream(bytes: &[u8]) -> (Vec<LogRecord>, usize) {
        let mut frames = FrameReader::new(bytes);
        // Reading a slice cannot fail, so `map_while` only ends at the tail.
        let records = frames.by_ref().map_while(Result::ok).collect();
        (records, frames.valid_len() as usize)
    }
}

/// Decodes log frames one at a time from any byte source, holding one
/// payload at a time: the recovery scan validates segment files through
/// it, and replay re-reads their valid prefixes with it. Yields
/// `Ok(record)` per valid frame and ends — for good — at the first frame
/// that is short, fails its checksum, or does not parse. An I/O error
/// other than a short read is yielded once, then the reader ends too.
#[derive(Debug)]
pub struct FrameReader<R> {
    src: R,
    payload: Vec<u8>,
    /// Bytes of the valid frames yielded so far.
    valid: u64,
    done: bool,
}

impl<R: Read> FrameReader<R> {
    pub fn new(src: R) -> Self {
        FrameReader { src, payload: Vec::new(), valid: 0, done: false }
    }

    /// Bytes consumed by the valid frames read so far; once the reader
    /// has ended at a tail, the length of the valid prefix.
    pub fn valid_len(&self) -> u64 {
        self.valid
    }

    /// The next valid frame's record, `Ok(None)` at the tail.
    fn frame(&mut self) -> io::Result<Option<LogRecord>> {
        let mut head = [0u8; HEADER];
        match self.src.read_exact(&mut head) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Ok(None);
        }
        let want = u64::from_le_bytes(head[4..].try_into().expect("8 bytes"));
        self.payload.clear();
        // `take` grows the buffer only with bytes that are really there,
        // so a torn length prefix cannot allocate what the input lacks.
        (&mut self.src).take(u64::from(len)).read_to_end(&mut self.payload)?;
        if self.payload.len() != len as usize || fnv1a(&self.payload) != want {
            return Ok(None);
        }
        let mut r = Reader::new(&self.payload);
        match LogRecord::decode_payload(&mut r) {
            // Trailing garbage inside a checksummed frame would mean the
            // writer and reader disagree on the format; treat as corrupt.
            Ok(rec) if r.remaining() == 0 => {
                self.valid += (HEADER + self.payload.len()) as u64;
                Ok(Some(rec))
            }
            _ => Ok(None),
        }
    }
}

impl<R: Read> Iterator for FrameReader<R> {
    type Item = io::Result<LogRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let next = self.frame().transpose();
        self.done = !matches!(next, Some(Ok(_)));
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<LogRecord> {
        vec![
            LogRecord::Local { txn_id: 1, proc: 0, args: vec![Value::Int(5)] },
            LogRecord::DistBegin {
                txn_id: 2,
                proc: 3,
                args: vec![Value::Str("s".into()), Value::Array(vec![Value::Null])],
            },
            LogRecord::Decision { txn_id: 2, commit: true },
            LogRecord::Decision { txn_id: 9, commit: false },
        ]
    }

    #[test]
    fn stream_roundtrip() {
        let mut buf = Vec::new();
        for r in sample() {
            r.encode_into(&mut buf);
        }
        let (back, consumed) = LogRecord::decode_stream(&buf);
        assert_eq!(back, sample());
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let mut buf = Vec::new();
        for r in sample() {
            r.encode_into(&mut buf);
        }
        let full = buf.len();
        for cut in 0..full {
            let (back, consumed) = LogRecord::decode_stream(&buf[..cut]);
            assert!(back.len() <= sample().len());
            assert!(consumed <= cut);
            // The decoded prefix must agree with the uncut stream.
            assert_eq!(back.as_slice(), &sample()[..back.len()], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_cleanly() {
        let mut buf = Vec::new();
        for r in sample() {
            r.encode_into(&mut buf);
        }
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xA5;
            let (back, _) = LogRecord::decode_stream(&bad); // must not panic
            assert!(back.len() <= sample().len());
        }
    }
}
