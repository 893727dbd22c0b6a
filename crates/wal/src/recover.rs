//! The recovery scan: what survives in a durability directory, validated.
//!
//! [`scan`] finds the newest *complete* snapshot generation (marker
//! present and every partition's snapshot file validates), loads its rows,
//! and makes one validating pass over each log segment at or above that
//! generation, chunk by chunk and frame by frame. It keeps no records:
//! only each segment's valid byte length (a torn or zero-filled tail
//! dropped), the 2PC outcome table and the highest transaction id. The
//! engine then replays each partition's [`LogStream`] — that partition's
//! chunks in the segments' valid prefixes, in ascending generation order —
//! on top of the snapshot (or the freshly loaded base population when no
//! snapshot exists), holding one decoded record per partition at a time.
//!
//! A marker whose snapshot files fail to validate is skipped in favor of
//! an older one; in practice that cannot happen from a crash alone (the
//! marker is written only after every snapshot file is fsynced), so it
//! covers disk-level corruption. Stray files from a snapshot that never
//! reached its marker are simply replayed around: the segments they
//! rotated still concatenate into the same per-partition record order.

use crate::log::{chunk_header, CHUNK_HEADER};
use crate::record::{FrameReader, LogRecord};
use crate::snapshot::{read_snapshot, SnapRow};
use crate::{parse_part_gen, segment_path};
use common::fxhash::FxHashMap;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};

/// The valid prefix of one log segment: replay reads `len` bytes of `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidSegment {
    pub path: PathBuf,
    pub len: u64,
}

/// What the scan learned about one distributed transaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistOutcome {
    /// A durable `Decision { commit: true }` exists. Participants never
    /// disagree: every decision for one transaction is written from the
    /// same coordinator outcome.
    pub commit: bool,
    /// How many partition streams hold the transaction's `DistBegin`.
    pub participants: u32,
}

/// Transaction ids per block of the [`Outcomes`] table.
const BLOCK: u64 = 64;
/// The commit bit of an outcome byte; the low bits count participants.
const COMMIT: u8 = 0x80;

/// The 2PC outcome table: one byte per transaction id, holding the commit
/// bit and the participant count of a [`DistOutcome`]. A partition parked
/// at a begin holds that begin, so counting the partitions parked at it is
/// enough to tell when all participants are. Ids come from one counter per
/// run, so the ids of a log are dense; keeping the bytes in 64-id blocks
/// makes the table cost little more than a byte per logged transaction,
/// whatever the ids.
#[derive(Debug, Default)]
pub struct Outcomes {
    blocks: FxHashMap<u64, [u8; BLOCK as usize]>,
}

impl Outcomes {
    fn byte(&mut self, txn_id: u64) -> &mut u8 {
        let block = self.blocks.entry(txn_id / BLOCK).or_insert([0; BLOCK as usize]);
        &mut block[(txn_id % BLOCK) as usize]
    }

    /// One more partition stream holds `txn_id`'s begin. A stream holds at
    /// most one begin per transaction and there are at most 64 partitions,
    /// so the count fits below the commit bit.
    pub fn add_participant(&mut self, txn_id: u64) {
        let b = self.byte(txn_id);
        debug_assert!(*b & !COMMIT < !COMMIT, "participant count overflow");
        *b += 1;
    }

    /// Records a decision for `txn_id`; the last one recorded wins.
    pub fn decide(&mut self, txn_id: u64, commit: bool) {
        let b = self.byte(txn_id);
        *b = if commit { *b | COMMIT } else { *b & !COMMIT };
    }

    /// `txn_id`'s outcome; the default (no commit, no participants) for an
    /// id the table never saw or has retired.
    pub fn get(&self, txn_id: u64) -> DistOutcome {
        let b =
            self.blocks.get(&(txn_id / BLOCK)).map_or(0, |block| block[(txn_id % BLOCK) as usize]);
        DistOutcome { commit: b & COMMIT != 0, participants: u32::from(b & !COMMIT) }
    }

    /// Marks `txn_id` resolved: replay has executed or skipped it, and any
    /// further begin of it reads as the default outcome.
    pub fn retire(&mut self, txn_id: u64) {
        if let Some(block) = self.blocks.get_mut(&(txn_id / BLOCK)) {
            block[(txn_id % BLOCK) as usize] = 0;
        }
    }
}

/// Everything [`scan`] recovered from a durability directory.
#[derive(Debug)]
pub struct RecoveredState {
    /// The newest complete snapshot generation, if any.
    pub snapshot_gen: Option<u64>,
    /// Per-partition snapshot rows (`[partition][table][row]`), present
    /// iff `snapshot_gen` is.
    pub snapshot: Option<Vec<Vec<Vec<SnapRow>>>>,
    /// The segments to replay, in ascending generation order.
    pub segments: Vec<ValidSegment>,
    /// The 2PC outcome table over every `DistBegin` and `Decision` record
    /// in the streams.
    pub outcomes: Outcomes,
    /// Highest transaction id in the streams (0 when none): the recovered
    /// runtime allocates ids strictly above this.
    pub max_txn_id: u64,
    /// Highest generation seen on any surviving file (0 when none): the
    /// recovered runtime opens a fresh segment *above* this.
    pub max_gen: u64,
    /// Total log records decoded across all streams.
    pub log_records_scanned: u64,
}

/// One partition's replay stream: its chunks in the segments' valid
/// prefixes, chained in generation order and decoded one record at a time.
#[derive(Debug)]
pub struct LogStream<'a> {
    part: u32,
    rest: std::slice::Iter<'a, ValidSegment>,
    cur: Option<FrameReader<Chunks>>,
}

impl<'a> LogStream<'a> {
    /// Partition `part`'s stream over `segments`, read in order.
    pub fn new(segments: &'a [ValidSegment], part: u32) -> Self {
        LogStream { part, rest: segments.iter(), cur: None }
    }
}

impl Iterator for LogStream<'_> {
    type Item = io::Result<LogRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(rec) = self.cur.as_mut().and_then(Iterator::next) {
                return Some(rec);
            }
            let seg = self.rest.next()?;
            match File::open(&seg.path) {
                Ok(f) => {
                    let src = BufReader::new(f);
                    let chunks = Chunks { src, part: self.part, left: seg.len, in_chunk: 0 };
                    self.cur = Some(FrameReader::new(chunks));
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// One partition's chunk payloads in a segment's valid prefix, read as one
/// byte stream; other partitions' chunks are seeked past unread.
#[derive(Debug)]
struct Chunks {
    src: BufReader<File>,
    part: u32,
    /// Valid-prefix bytes not yet consumed.
    left: u64,
    /// Bytes left in the current chunk of `part`.
    in_chunk: u64,
}

impl Read for Chunks {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.in_chunk == 0 {
            if self.left < CHUNK_HEADER as u64 {
                return Ok(0);
            }
            let mut head = [0u8; CHUNK_HEADER];
            self.src.read_exact(&mut head)?;
            self.left -= CHUNK_HEADER as u64;
            let (p, len) = chunk_header(&head);
            let len = u64::from(len).min(self.left);
            if p == self.part {
                self.in_chunk = len;
            } else {
                self.src.seek_relative(len as i64)?;
                self.left -= len;
            }
        }
        let want = buf.len().min(usize::try_from(self.in_chunk).unwrap_or(usize::MAX));
        let n = self.src.read(&mut buf[..want])?;
        self.in_chunk -= n as u64;
        self.left -= n as u64;
        Ok(n)
    }
}

/// One validating pass over the segment at `path`, handing each valid
/// record to `visit`; returns the length of the valid prefix. The prefix
/// ends at the first chunk header that is short, has a zero length, or
/// names no partition below `parts`, and inside a chunk after its last
/// valid frame when a frame fails.
fn validate(path: &Path, parts: u32, mut visit: impl FnMut(LogRecord)) -> io::Result<u64> {
    let mut src = BufReader::new(File::open(path)?);
    let mut valid = 0u64;
    loop {
        let mut head = [0u8; CHUNK_HEADER];
        match src.read_exact(&mut head) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(valid),
            Err(e) => return Err(e),
        }
        let (p, len) = chunk_header(&head);
        if len == 0 || p >= parts {
            return Ok(valid);
        }
        let mut frames = FrameReader::new((&mut src).take(u64::from(len)));
        for rec in frames.by_ref() {
            visit(rec?);
        }
        let got = frames.valid_len();
        if got > 0 {
            valid += CHUNK_HEADER as u64 + got;
        }
        if got != u64::from(len) {
            return Ok(valid);
        }
    }
}

/// Scans `dir` for the newest usable snapshot plus the log segments to
/// replay on top of it. A missing or empty directory is a valid fresh
/// state, not an error; a segment of the per-partition layout is an
/// `InvalidData` error naming the file.
pub fn scan(dir: &Path, num_partitions: u32) -> io::Result<RecoveredState> {
    let mut markers: Vec<u64> = Vec::new();
    let mut gens: Vec<u64> = Vec::new();
    let mut max_gen = 0u64;
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(g) = name
                    .strip_prefix("log-g")
                    .and_then(|s| s.strip_suffix(".wal"))
                    .and_then(|g| g.parse::<u64>().ok())
                {
                    gens.push(g);
                    max_gen = max_gen.max(g);
                } else if parse_part_gen(name, "log-", ".wal").is_some() {
                    // A `log-p{p}-g{g}.wal` segment of the per-partition
                    // layout: skipping it would drop acknowledged commits.
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{}: per-partition command-log segment of an older layout; \
                             this build reads only log-g{{gen}}.wal segments",
                            entry.path().display()
                        ),
                    ));
                } else if let Some((_, g)) = parse_part_gen(name, "snap-", ".snap") {
                    max_gen = max_gen.max(g);
                } else if let Some(g) =
                    name.strip_prefix("snap-g").and_then(|s| s.strip_suffix(".ok"))
                {
                    if let Ok(g) = g.parse::<u64>() {
                        markers.push(g);
                        max_gen = max_gen.max(g);
                    }
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    // Newest marked generation whose snapshot files all validate wins; a
    // marker without valid snapshot files is disk corruption, so fall back.
    markers.sort_unstable();
    let mut snapshot_gen = None;
    let mut snapshot = None;
    for &g in markers.iter().rev() {
        let tables: Result<Vec<_>, _> =
            (0..num_partitions).map(|p| read_snapshot(dir, p, g)).collect();
        if let Ok(tables) = tables {
            snapshot_gen = Some(g);
            snapshot = Some(tables);
            break;
        }
    }
    let floor = snapshot_gen.unwrap_or(0);
    gens.sort_unstable();
    let mut segments = Vec::with_capacity(gens.len());
    let mut outcomes = Outcomes::default();
    let (mut max_txn_id, mut scanned) = (0u64, 0u64);
    for g in gens.into_iter().filter(|&g| g >= floor) {
        let path = segment_path(dir, g);
        let len = validate(&path, num_partitions, |rec| {
            scanned += 1;
            max_txn_id = max_txn_id.max(rec.txn_id());
            match rec {
                LogRecord::DistBegin { txn_id, .. } => outcomes.add_participant(txn_id),
                LogRecord::Decision { txn_id, commit } => outcomes.decide(txn_id, commit),
                LogRecord::Local { .. } => {}
            }
        })?;
        segments.push(ValidSegment { path, len });
    }
    Ok(RecoveredState {
        snapshot_gen,
        snapshot,
        segments,
        outcomes,
        max_txn_id,
        max_gen,
        log_records_scanned: scanned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogSet;
    use crate::snapshot::{write_marker, write_snapshot};
    use common::Value;
    use std::path::PathBuf;

    /// Partition `p`'s replay stream, decoded.
    fn records(s: &RecoveredState, p: u32) -> Vec<LogRecord> {
        LogStream::new(&s.segments, p).collect::<io::Result<_>>().unwrap()
    }

    fn local(txn_id: u64) -> LogRecord {
        LogRecord::Local { txn_id, proc: 0, args: vec![Value::Int(txn_id as i64)] }
    }

    /// Appends `streams[p]` to partition `p`, one record per partition in
    /// turn, flushing after every `every` rounds and at the end. Returns
    /// the segment length after each flush.
    fn write_interleaved(logs: &LogSet, streams: &[Vec<LogRecord>], every: usize) -> Vec<u64> {
        let path = crate::segment_path(logs.dir(), 0);
        let rounds = streams.iter().map(Vec::len).max().unwrap_or(0);
        let mut ends = Vec::new();
        for i in 0..rounds {
            for (p, stream) in streams.iter().enumerate() {
                if let Some(rec) = stream.get(i) {
                    logs.append(p as u32, rec);
                }
            }
            if (i + 1) % every == 0 || i + 1 == rounds {
                logs.flush_all();
                ends.push(std::fs::metadata(&path).unwrap().len());
            }
        }
        ends
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wal-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn fresh_directory_is_empty_state() {
        let s = scan(&tmpdir("fresh"), 3).unwrap();
        assert_eq!(s.snapshot_gen, None);
        assert!(s.segments.is_empty());
        assert!((0..3).all(|p| records(&s, p).is_empty()));
        assert_eq!(s.max_gen, 0);
    }

    #[test]
    fn snapshot_plus_segments_replay_from_the_marker() {
        let dir = tmpdir("marked");
        let logs = LogSet::open(&dir, 2, 0).unwrap();
        let old = LogRecord::Local { txn_id: 1, proc: 0, args: vec![Value::Int(1)] };
        let new = LogRecord::Local { txn_id: 2, proc: 0, args: vec![Value::Int(2)] };
        logs.append(0, &old);
        // Snapshot generation 1: rotate both partitions, write snaps + marker.
        logs.rotate(0, 1).unwrap();
        logs.rotate(1, 1).unwrap();
        for p in 0..2 {
            write_snapshot(&dir, p, 1, &[vec![vec![Value::Int(i64::from(p))]]]).unwrap();
        }
        write_marker(&dir, 1).unwrap();
        logs.append(0, &new);
        logs.flush_all();
        let s = scan(&dir, 2).unwrap();
        assert_eq!(s.snapshot_gen, Some(1));
        let snap = s.snapshot.as_ref().unwrap();
        assert_eq!(snap[1][0][0][0], Value::Int(1));
        // Only the post-snapshot record replays; the pre-snapshot one is
        // below the marker's floor.
        assert_eq!(records(&s, 0), vec![new]);
        assert!(records(&s, 1).is_empty());
        assert_eq!(s.max_gen, 1);
        assert_eq!(s.log_records_scanned, 1);
        // Truncation removes the dead generation-0 segment.
        let removed = crate::truncate_below(&dir, 1).unwrap();
        assert_eq!(removed, 1);
        let again = scan(&dir, 2).unwrap();
        assert_eq!(records(&again, 0), records(&s, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unmarked_snapshot_is_ignored_but_its_rotation_still_replays() {
        let dir = tmpdir("unmarked");
        let logs = LogSet::open(&dir, 1, 0).unwrap();
        let a = LogRecord::Local { txn_id: 1, proc: 0, args: vec![] };
        let b = LogRecord::Local { txn_id: 2, proc: 0, args: vec![] };
        logs.append(0, &a);
        // Crash mid-snapshot: rotated and wrote the snap file, no marker.
        logs.rotate(0, 1).unwrap();
        write_snapshot(&dir, 0, 1, &[vec![]]).unwrap();
        logs.append(0, &b);
        logs.flush_all();
        let s = scan(&dir, 1).unwrap();
        assert_eq!(s.snapshot_gen, None, "no marker, no snapshot");
        // Both records survive, in order, across the rotation boundary.
        assert_eq!(records(&s, 0), vec![a, b]);
        assert_eq!(s.max_gen, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_partitions_come_back_in_per_partition_order() {
        let dir = tmpdir("interleaved");
        let logs = LogSet::open(&dir, 3, 0).unwrap();
        // Uneven streams, so later flushes leave some partitions clean.
        let streams: Vec<Vec<LogRecord>> =
            (0..3u64).map(|p| (0..40 + 13 * p).map(|i| local(1000 * p + i)).collect()).collect();
        let ends = write_interleaved(&logs, &streams, 3);
        assert!(ends.len() > 20, "{} flushes", ends.len());
        let s = scan(&dir, 3).unwrap();
        for p in 0..3 {
            assert_eq!(records(&s, p), streams[p as usize], "partition {p}");
        }
        assert_eq!(s.log_records_scanned, streams.iter().map(Vec::len).sum::<usize>() as u64);
        assert_eq!(s.segments[0].len, *ends.last().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tear_anywhere_in_the_last_write_keeps_every_earlier_flush() {
        let dir = tmpdir("tear-src");
        let logs = LogSet::open(&dir, 3, 0).unwrap();
        let streams: Vec<Vec<LogRecord>> =
            (0..3u64).map(|p| (0..6).map(|i| local(100 * p + i)).collect()).collect();
        let ends = write_interleaved(&logs, &streams, 2);
        assert_eq!(ends.len(), 3);
        let bytes = std::fs::read(crate::segment_path(&dir, 0)).unwrap();
        // Flushes 1 and 2 held rounds 0..4: four records per partition.
        let (before, full) = (ends[1] as usize, bytes.len());
        let torn = tmpdir("tear");
        std::fs::create_dir_all(&torn).unwrap();
        for cut in before..=full {
            std::fs::write(crate::segment_path(&torn, 0), &bytes[..cut]).unwrap();
            let s = scan(&torn, 3).unwrap();
            assert!(s.segments[0].len <= cut as u64, "cut {cut}");
            for p in 0..3 {
                let got = records(&s, p);
                let stream = &streams[p as usize];
                assert!(got.len() >= 4, "cut {cut}: partition {p} kept {} records", got.len());
                assert_eq!(got[..], stream[..got.len()], "cut {cut}: partition {p}");
                if cut == full {
                    assert_eq!(&got, stream);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&torn);
    }

    #[test]
    fn a_zero_length_chunk_header_ends_the_segment() {
        let dir = tmpdir("zero");
        let logs = LogSet::open(&dir, 2, 0).unwrap();
        logs.append(0, &local(1));
        logs.append(1, &local(2));
        logs.flush_all();
        let path = crate::segment_path(&dir, 0);
        let first = std::fs::read(&path).unwrap();
        // A zero-filled header, then a well-formed copy of the first flush.
        let mut bytes = first.clone();
        bytes.extend_from_slice(&[0; CHUNK_HEADER]);
        bytes.extend_from_slice(&first);
        std::fs::write(&path, &bytes).unwrap();
        let s = scan(&dir, 2).unwrap();
        assert_eq!(s.segments[0].len, first.len() as u64);
        assert_eq!(records(&s, 0), vec![local(1)]);
        assert_eq!(records(&s, 1), vec![local(2)]);
        assert_eq!(s.log_records_scanned, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_per_partition_segment_is_refused_by_name() {
        let dir = tmpdir("old-layout");
        let logs = LogSet::open(&dir, 1, 0).unwrap();
        logs.append(0, &local(1));
        logs.flush_all();
        std::fs::copy(crate::segment_path(&dir, 0), dir.join("log-p0-g0.wal")).unwrap();
        let err = scan(&dir, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("log-p0-g0.wal"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
