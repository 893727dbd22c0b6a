//! The command log: per-partition append buffers over one segment file per
//! generation, and the group-commit flush device.
//!
//! Workers append encoded records to their partition's in-memory buffer
//! under that partition's mutex — a memcpy, never an I/O. One *device
//! flush* ([`LogSet::flush_all`]) takes the writer lock, swaps every dirty
//! buffer out, and writes them all to the generation's segment
//! `log-g{gen}.wal` with one `write_all` and one `sync_data`, however many
//! partitions were dirty. The engine drives that flush through the
//! `FlushSequencer` (via [`FileDevice`]), so one real `write+fsync` covers
//! a whole coalesced group of commits across all workers.
//!
//! A segment is a sequence of chunks, one per dirty partition per flush:
//!
//! ```text
//! [partition: u32][len: u32][len bytes: whole record frames]
//! ```
//!
//! Buffers are swapped out only under the writer lock, so one partition's
//! chunks lie in the file in its append order: concatenated, they are that
//! partition's record stream. No chunk is empty, so a zero `len` (a
//! zero-filled tail) ends the segment.
//!
//! Segment rotation ([`LogSet::rotate`]) moves one partition to a new
//! generation at its snapshot cut. It flushes like `flush_all`, and the
//! rotated partition's pre-cut bytes land in the old generation's file.
//! Between the first and the last partition's rotation a flush writes two
//! files; that window is the only time one flush syncs more than one.

use crate::record::LogRecord;
use crate::segment_path;
use common::flush::FlushDevice;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Chunk header: partition (`u32`) plus payload length (`u32`).
pub(crate) const CHUNK_HEADER: usize = 8;

/// `(partition, len)` from a chunk header.
pub(crate) fn chunk_header(head: &[u8; CHUNK_HEADER]) -> (u32, u32) {
    let word = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().expect("4 bytes"));
    (word(0), word(4))
}

/// One partition's append buffer and the generation its bytes belong to.
#[derive(Debug)]
struct PartitionLog {
    buf: Vec<u8>,
    gen: u64,
}

/// One open segment file and the chunks bound for it in the flush under
/// way.
#[derive(Debug)]
struct Segment {
    gen: u64,
    file: File,
    out: Vec<u8>,
}

/// What the writer lock guards.
#[derive(Debug)]
struct Writer {
    /// Open segments: one, or two while a snapshot cut is moving the
    /// partitions to the next generation.
    segments: Vec<Segment>,
    /// An empty buffer that trades places with each dirty partition's.
    spare: Vec<u8>,
}

impl Writer {
    /// Opens (creating or appending) the segment for `gen` unless it is
    /// open already.
    fn open(&mut self, dir: &Path, gen: u64) -> io::Result<()> {
        if self.segments.iter().all(|s| s.gen != gen) {
            let file = OpenOptions::new().create(true).append(true).open(segment_path(dir, gen))?;
            self.segments.push(Segment { gen, file, out: Vec::with_capacity(4096) });
        }
        Ok(())
    }
}

/// The command log of one durability directory. Appends are cheap and
/// per-partition; [`LogSet::flush_all`] is the one real I/O point (plus
/// [`LogSet::rotate`] at snapshot fences).
#[derive(Debug)]
pub struct LogSet {
    dir: PathBuf,
    parts: Vec<Mutex<PartitionLog>>,
    writer: Mutex<Writer>,
    /// Total records appended (all partitions).
    records: AtomicU64,
    /// Total encoded bytes appended (all partitions).
    bytes: AtomicU64,
}

impl LogSet {
    /// Opens (creating or appending) the segment of generation `gen` under
    /// `dir` for `num_partitions` partitions, creating the directory if
    /// needed.
    pub fn open(dir: &Path, num_partitions: u32, gen: u64) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut writer = Writer { segments: Vec::new(), spare: Vec::with_capacity(4096) };
        writer.open(dir, gen)?;
        let parts = (0..num_partitions)
            .map(|_| Mutex::new(PartitionLog { buf: Vec::with_capacity(4096), gen }))
            .collect();
        Ok(LogSet {
            dir: dir.to_path_buf(),
            parts,
            writer: Mutex::new(writer),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }

    /// The durability directory this set writes under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.parts.len() as u32
    }

    /// Appends `record` to partition `p`'s buffer (no I/O). The record
    /// becomes durable at the next device flush or rotation covering it.
    pub fn append(&self, p: u32, record: &LogRecord) {
        let mut log = self.parts[p as usize].lock().unwrap_or_else(PoisonError::into_inner);
        let before = log.buf.len();
        record.encode_into(&mut log.buf);
        let grew = (log.buf.len() - before) as u64;
        // ordering: Relaxed — monotonic metrics counters, read only by
        // metrics snapshots; no other state is published through them.
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(grew, Ordering::Relaxed);
    }

    /// Writes and fsyncs every partition's buffered bytes: the real device
    /// flush behind one group-commit epoch. On return, every record
    /// appended before this call is durable. A partition's mutex is held
    /// only to swap its buffer out, so the worker appending the next
    /// commit's records never waits out the write or the fsync.
    pub fn flush_all(&self) {
        self.flush(None).expect("command-log write + fsync");
    }

    /// Moves partition `p` to generation `gen` (opening its segment) and
    /// flushes: `p`'s bytes appended before the call land, durable, in its
    /// old generation's file, and its later appends in `gen`'s. Called by
    /// the worker that owns `p`, at its snapshot service point.
    pub fn rotate(&self, p: u32, gen: u64) -> io::Result<()> {
        self.flush(Some((p, gen)))
    }

    /// The one flush body. Holds the writer lock through the sync, so a
    /// flush that finds nothing left to write cannot return before an
    /// earlier flush's bytes are on disk; appends never take that lock.
    fn flush(&self, rotate: Option<(u32, u64)>) -> io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let w = &mut *writer;
        if let Some((_, gen)) = rotate {
            w.open(&self.dir, gen)?;
        }
        let mut min_gen = u64::MAX;
        for (p, part) in self.parts.iter().enumerate() {
            let gen = {
                let mut log = part.lock().unwrap_or_else(PoisonError::into_inner);
                let gen = log.gen;
                match rotate {
                    Some((q, to)) if q as usize == p => log.gen = to,
                    _ => {}
                }
                min_gen = min_gen.min(log.gen);
                if log.buf.is_empty() {
                    continue;
                }
                std::mem::swap(&mut log.buf, &mut w.spare);
                gen
            };
            let seg = w
                .segments
                .iter_mut()
                .find(|s| s.gen == gen)
                .expect("every partition's generation has an open segment");
            let len = u32::try_from(w.spare.len()).expect("a chunk holds under 4 GiB");
            seg.out.extend_from_slice(&(p as u32).to_le_bytes());
            seg.out.extend_from_slice(&len.to_le_bytes());
            seg.out.extend_from_slice(&w.spare);
            w.spare.clear();
        }
        for seg in w.segments.iter_mut().filter(|s| !s.out.is_empty()) {
            seg.file.write_all(&seg.out)?;
            seg.out.clear();
            seg.file.sync_data()?;
        }
        // A generation no partition appends to any more is complete.
        w.segments.retain(|s| s.gen >= min_gen);
        Ok(())
    }

    /// `(records_appended, bytes_appended)` so far, all partitions.
    pub fn counters(&self) -> (u64, u64) {
        // ordering: Relaxed — see `append`; these are advisory metrics.
        (self.records.load(Ordering::Relaxed), self.bytes.load(Ordering::Relaxed))
    }
}

/// [`FlushDevice`] over a [`LogSet`]: one device flush = one write+fsync
/// of every partition's buffered log bytes — the only device the live
/// runtime flushes through.
#[derive(Debug, Clone)]
pub struct FileDevice(pub Arc<LogSet>);

impl FlushDevice for FileDevice {
    fn flush(&self, _epoch: u64) {
        self.0.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::Value;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wal-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// The chunks of a segment's bytes as `(partition, records)`.
    fn chunks(bytes: &[u8]) -> Vec<(u32, Vec<LogRecord>)> {
        let mut out = Vec::new();
        let mut rest = bytes;
        while rest.len() >= CHUNK_HEADER {
            let (p, len) = chunk_header(rest[..CHUNK_HEADER].try_into().unwrap());
            let len = len as usize;
            let (recs, used) = LogRecord::decode_stream(&rest[CHUNK_HEADER..][..len]);
            assert_eq!(used, len, "a chunk holds whole frames");
            out.push((p, recs));
            rest = &rest[CHUNK_HEADER + len..];
        }
        assert!(rest.is_empty());
        out
    }

    fn local(txn_id: u64) -> LogRecord {
        LogRecord::Local { txn_id, proc: 0, args: vec![Value::Int(txn_id as i64)] }
    }

    #[test]
    fn append_flush_and_reload() {
        let dir = tmpdir("basic");
        let logs = LogSet::open(&dir, 2, 0).unwrap();
        let r0 = local(1);
        let r1 = LogRecord::Decision { txn_id: 2, commit: true };
        logs.append(0, &r0);
        logs.append(1, &r1);
        logs.flush_all();
        let (n, b) = logs.counters();
        assert_eq!(n, 2);
        assert!(b > 0);
        let bytes = std::fs::read(segment_path(&dir, 0)).unwrap();
        assert_eq!(chunks(&bytes), vec![(0, vec![r0]), (1, vec![r1])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_flush_of_four_dirty_partitions_writes_one_file() {
        let dir = tmpdir("one-file");
        let logs = LogSet::open(&dir, 4, 0).unwrap();
        for p in 0..4 {
            logs.append(p, &local(u64::from(p)));
        }
        logs.flush_all();
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(files, vec![segment_path(&dir, 0)]);
        let bytes = std::fs::read(&files[0]).unwrap();
        assert_eq!(chunks(&bytes).iter().map(|c| c.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_completes_the_old_segment_and_opens_the_new() {
        let dir = tmpdir("rotate");
        let logs = LogSet::open(&dir, 1, 0).unwrap();
        let (pre, post) = (local(1), local(2));
        logs.append(0, &pre);
        // Buffered but never explicitly flushed: rotation must land it in
        // the *old* segment (it predates the cut).
        logs.rotate(0, 1).unwrap();
        logs.append(0, &post);
        logs.flush_all();
        let old = chunks(&std::fs::read(segment_path(&dir, 0)).unwrap());
        let new = chunks(&std::fs::read(segment_path(&dir, 1)).unwrap());
        assert_eq!(old, vec![(0, vec![pre])]);
        assert_eq!(new, vec![(0, vec![post])]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
