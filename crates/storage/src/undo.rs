//! Transient undo logging (paper §2, OP3).
//!
//! Main-memory DBMSs need undo information only to roll back an aborting
//! transaction — not for recovery — so the log lives in memory and is
//! discarded at commit. Maintaining it costs CPU per write; OP3 lets the
//! engine skip it for transactions predicted never to abort, at the price
//! that an unexpected abort becomes unrecoverable.

use crate::table::{Key, Row};
use common::PartitionId;

/// One logical undo action, pushed before the corresponding forward change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoRecord {
    /// A row was inserted; undo removes it.
    Inserted { partition: PartitionId, table: usize, key: Key },
    /// A row was updated; undo restores the pre-image.
    Updated { partition: PartitionId, table: usize, key: Key, before: Row },
    /// A row was deleted; undo re-inserts the pre-image.
    Deleted { partition: PartitionId, table: usize, key: Key, before: Row },
}

/// A per-transaction undo buffer.
///
/// `enabled == false` models OP3: writes are performed without logging and
/// [`UndoLog::record`] becomes a no-op. The engine checks `is_enabled` when a
/// transaction aborts and escalates to a fatal error if work was done without
/// undo information.
#[derive(Debug)]
pub struct UndoLog {
    records: Vec<UndoRecord>,
    enabled: bool,
    /// Count of write operations applied while logging was disabled.
    unlogged_writes: u64,
}

impl Default for UndoLog {
    fn default() -> Self {
        UndoLog::new()
    }
}

impl UndoLog {
    /// A fresh, enabled log.
    pub fn new() -> Self {
        UndoLog { records: Vec::new(), enabled: true, unlogged_writes: 0 }
    }

    /// A log that starts disabled (initial OP3 decision).
    pub fn disabled() -> Self {
        UndoLog { records: Vec::new(), enabled: false, unlogged_writes: 0 }
    }

    /// Disables logging from this point on (runtime OP3 update, §4.4).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether logging is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of retained undo records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no undo records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Write operations performed while logging was off. If this is nonzero
    /// at abort time the transaction is unrecoverable.
    pub fn unlogged_writes(&self) -> u64 {
        self.unlogged_writes
    }

    /// True if an abort right now could be rolled back cleanly.
    pub fn can_rollback(&self) -> bool {
        self.unlogged_writes == 0
    }

    /// Records an undo action (or counts an unlogged write when disabled).
    pub fn record(&mut self, rec: UndoRecord) {
        if self.enabled {
            self.records.push(rec);
        } else {
            self.unlogged_writes += 1;
        }
    }

    /// Drains the records in reverse (apply-order for rollback).
    pub fn drain_for_rollback(&mut self) -> impl Iterator<Item = UndoRecord> + '_ {
        self.records.drain(..).rev()
    }

    /// Discards everything (commit).
    pub fn clear(&mut self) {
        self.records.clear();
        self.unlogged_writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::Value;

    fn rec(i: i64) -> UndoRecord {
        UndoRecord::Inserted { partition: 0, table: 0, key: vec![Value::Int(i)] }
    }

    #[test]
    fn records_in_reverse() {
        let mut log = UndoLog::new();
        log.record(rec(1));
        log.record(rec(2));
        let order: Vec<_> = log.drain_for_rollback().collect();
        assert_eq!(order, vec![rec(2), rec(1)]);
        assert!(log.is_empty());
    }

    #[test]
    fn disabled_counts_unlogged() {
        let mut log = UndoLog::disabled();
        assert!(!log.is_enabled());
        log.record(rec(1));
        assert!(log.is_empty());
        assert_eq!(log.unlogged_writes(), 1);
        assert!(!log.can_rollback());
    }

    #[test]
    fn disable_midway() {
        let mut log = UndoLog::new();
        log.record(rec(1));
        log.disable();
        log.record(rec(2));
        assert_eq!(log.len(), 1);
        assert_eq!(log.unlogged_writes(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut log = UndoLog::disabled();
        log.record(rec(1));
        log.clear();
        assert!(log.can_rollback());
    }
}
