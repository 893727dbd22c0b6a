//! Per-partition command-log segments and the group-commit flush device.
//!
//! Workers append encoded records to an in-memory buffer under their
//! partition's mutex — a memcpy, never an I/O — and one *device flush*
//! ([`LogSet::flush_all`]) writes and fsyncs every partition's buffered
//! bytes in one pass. The engine drives that flush through the
//! `FlushSequencer` (via [`FileDevice`]), so one real `write+fsync` covers
//! a whole coalesced group of commits across all workers: the group-commit
//! design the sequencer has always modeled, now against a real device.
//!
//! Segment rotation ([`LogSet::rotate`]) closes a partition's current
//! segment (flushing and fsyncing its remaining bytes so the pre-rotation
//! prefix is complete on disk) and opens `log-p{p}-g{gen}.wal`. The
//! snapshot fence rotates every partition at its consistent cut, tying
//! segment generations to snapshot generations.

use crate::record::LogRecord;
use crate::segment_path;
use common::flush::FlushDevice;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One partition's open segment: the append buffer plus the file handle
/// (shared, so a device flush can sync it without holding the lock).
#[derive(Debug)]
struct PartitionLog {
    file: Arc<File>,
    buf: Vec<u8>,
    gen: u64,
}

/// The set of per-partition command logs for one durability directory.
/// Appends are cheap and per-partition; [`LogSet::flush_all`] is the one
/// real I/O point (plus [`LogSet::rotate`] at snapshot fences).
#[derive(Debug)]
pub struct LogSet {
    dir: PathBuf,
    parts: Vec<Mutex<PartitionLog>>,
    /// Total records appended (all partitions).
    records: AtomicU64,
    /// Total encoded bytes appended (all partitions).
    bytes: AtomicU64,
}

impl LogSet {
    /// Opens (creating or appending) one segment per partition at
    /// generation `gen` under `dir`, creating the directory if needed.
    pub fn open(dir: &Path, num_partitions: u32, gen: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut parts = Vec::with_capacity(num_partitions as usize);
        for p in 0..num_partitions {
            let file =
                OpenOptions::new().create(true).append(true).open(segment_path(dir, p, gen))?;
            let file = Arc::new(file);
            parts.push(Mutex::new(PartitionLog { file, buf: Vec::with_capacity(4096), gen }));
        }
        Ok(LogSet {
            dir: dir.to_path_buf(),
            parts,
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
    /// appended before this call is durable. Each partition's bytes are
    /// written under its lock, so no append interleaves with them, and
    /// synced after it is released: the worker appending the next
    /// commit's records never waits out an fsync.
    pub fn flush_all(&self) {
        for part in &self.parts {
            let file = {
                let mut log = part.lock().unwrap_or_else(PoisonError::into_inner);
                if log.buf.is_empty() {
                    continue;
                }
                Self::write_out(&mut log);
                Arc::clone(&log.file)
            };
            file.sync_data().expect("command-log fsync");
        }
    }

    /// Moves the buffered bytes into the segment file (no sync).
    fn write_out(log: &mut PartitionLog) {
        (&*log.file).write_all(&log.buf).expect("command-log write");
        log.buf.clear();
    }

    /// Closes partition `p`'s current segment (flushing and fsyncing its
    /// remaining buffered bytes so the old segment is complete on disk)
    /// and opens the segment for generation `gen`. Called by the worker
    /// that owns `p`, at its snapshot service point.
    pub fn rotate(&self, p: u32, gen: u64) -> std::io::Result<()> {
        let mut log = self.parts[p as usize].lock().unwrap_or_else(PoisonError::into_inner);
        Self::write_out(&mut log);
        log.file.sync_data()?;
        let file =
            OpenOptions::new().create(true).append(true).open(segment_path(&self.dir, p, gen))?;
        log.file = Arc::new(file);
        log.gen = gen;
        Ok(())
    }

    /// `(records_appended, bytes_appended)` so far, all partitions.
    pub fn counters(&self) -> (u64, u64) {
        // ordering: Relaxed — see `append`; these are advisory metrics.
        (self.records.load(Ordering::Relaxed), self.bytes.load(Ordering::Relaxed))
    }
}

/// [`FlushDevice`] over a [`LogSet`]: one device flush = write+fsync of
/// every partition's buffered log bytes — the only device the live runtime
/// flushes through.
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

    #[test]
    fn append_flush_and_reload() {
        let dir = tmpdir("basic");
        let logs = LogSet::open(&dir, 2, 0).unwrap();
        let r0 = LogRecord::Local { txn_id: 1, proc: 0, args: vec![Value::Int(1)] };
        let r1 = LogRecord::Decision { txn_id: 2, commit: true };
        logs.append(0, &r0);
        logs.append(1, &r1);
        logs.flush_all();
        let (n, b) = logs.counters();
        assert_eq!(n, 2);
        assert!(b > 0);
        let bytes = std::fs::read(segment_path(&dir, 0, 0)).unwrap();
        let (recs, used) = LogRecord::decode_stream(&bytes);
        assert_eq!(recs, vec![r0]);
        assert_eq!(used, bytes.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_completes_the_old_segment_and_opens_the_new() {
        let dir = tmpdir("rotate");
        let logs = LogSet::open(&dir, 1, 0).unwrap();
        let pre = LogRecord::Local { txn_id: 1, proc: 0, args: vec![] };
        let post = LogRecord::Local { txn_id: 2, proc: 0, args: vec![] };
        logs.append(0, &pre);
        // Buffered but never explicitly flushed: rotation must land it in
        // the *old* segment (it predates the cut).
        logs.rotate(0, 1).unwrap();
        logs.append(0, &post);
        logs.flush_all();
        let (old, _) = LogRecord::decode_stream(&std::fs::read(segment_path(&dir, 0, 0)).unwrap());
        let (new, _) = LogRecord::decode_stream(&std::fs::read(segment_path(&dir, 0, 1)).unwrap());
        assert_eq!(old, vec![pre]);
        assert_eq!(new, vec![post]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
