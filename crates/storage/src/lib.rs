//! Partitioned main-memory row storage.
//!
//! This is the storage substrate of the H-Store-style engine (paper §2,
//! Fig. 1): each partition owns a disjoint horizontal slice of every table,
//! accessed by exactly one execution engine at a time. Durability is out of
//! scope (the paper assumes replication); the only log is the *transient undo
//! log* used to roll back aborted transactions, which optimization OP3
//! disables for transactions that are predicted never to abort.

pub mod database;
pub mod index;
pub mod schema;
pub mod table;
pub mod undo;

pub use database::{Database, DbMeta, Shard};
pub use index::SecondaryIndex;
pub use schema::{Column, Schema};
pub use table::{Key, Row, Table};
pub use undo::{UndoLog, UndoRecord};
