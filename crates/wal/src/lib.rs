//! Durability for the live partition runtime: the **command log**,
//! transaction-consistent **snapshots**, and the **recovery scan** that
//! turns the surviving files back into replayable state.
//!
//! The design is the H-Store/VoltDB answer the paper assumes around its
//! prediction framework: the engine's execution is deterministic given the
//! per-partition command order (the sim↔live exact-agreement suites pin
//! exactly that property), so it is sufficient to log *commands* — txn id,
//! procedure, args, commit decision — rather than ARIES-style value images.
//!
//! Layout on disk, inside one durability directory:
//!
//! ```text
//! log-g{gen}.wal         the command-log segment for generation g: every
//!                        partition's records, in per-partition chunks
//! snap-p{p}-g{gen}.snap  partition p's serialized table rows at snapshot g
//! snap-g{gen}.ok         marker: snapshot generation g is complete
//! ```
//!
//! Generations tie the two together: a snapshot of generation `g` rotates
//! each partition's log to segment `g` *at the same fenced instant* it
//! serializes the shard, so recovery is "load the newest marked snapshot
//! `g*`, then replay every segment with generation `>= g*` in ascending
//! order". Segments and snapshots below the newest marker are dead weight
//! and are truncated after the marker lands.
//!
//! One partition's chunks, concatenated over the segments in generation
//! order, are a faithful serialization of that partition's committed
//! writers — the worker appends them at its own service points — and
//! distributed transactions
//! appear as a `DistBegin`/`Decision` pair whose begin positions are
//! consistent across partitions (see `engine::durability` for the replay
//! argument). Torn or corrupt tails are detected by per-record checksums
//! and cleanly ignored: a record that never became durable belongs to a
//! transaction that was never acknowledged.

pub mod codec;
pub mod log;
pub mod record;
pub mod recover;
pub mod snapshot;

pub use codec::{CodecError, Reader, Writer};
pub use log::{FileDevice, LogSet};
pub use record::{FrameReader, LogRecord};
pub use recover::{scan, DistOutcome, LogStream, Outcomes, RecoveredState, ValidSegment};
pub use snapshot::{marker_path, read_snapshot, snapshot_path, write_marker, write_snapshot};

use std::path::{Path, PathBuf};

/// Path of the log segment for generation `gen`.
pub fn segment_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("log-g{gen}.wal"))
}

/// Deletes every segment, snapshot, and marker with generation strictly
/// below `gen` — the truncation pass after a snapshot marker lands. Errors
/// on I/O failure other than concurrent disappearance.
pub fn truncate_below(dir: &Path, gen: u64) -> std::io::Result<u64> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = parse_gen(name) {
            if g < gen {
                match std::fs::remove_file(entry.path()) {
                    Ok(()) => removed += 1,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(removed)
}

/// Parses the generation out of any durability-directory file name;
/// `None` for foreign files (which truncation and the scan both ignore).
pub(crate) fn parse_gen(name: &str) -> Option<u64> {
    let stem = name
        .strip_suffix(".wal")
        .or_else(|| name.strip_suffix(".snap").or_else(|| name.strip_suffix(".ok")))?;
    let g = stem.rsplit_once("-g")?.1;
    g.parse().ok()
}

/// Parses `(partition, generation)` from a per-partition file name like
/// `snap-p3-g7.snap`.
pub(crate) fn parse_part_gen(name: &str, prefix: &str, suffix: &str) -> Option<(u32, u64)> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    let (p, g) = rest.split_once("-g")?;
    Some((p.strip_prefix('p')?.parse().ok()?, g.parse().ok()?))
}
