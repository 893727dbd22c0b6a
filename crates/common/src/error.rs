//! Shared error type for the workspace.

use std::fmt;

/// Errors surfaced across crate boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A table, procedure, query, or column name was not found in a catalog.
    NotFound(String),
    /// A value had the wrong type for the operation.
    TypeMismatch { expected: &'static str, got: String },
    /// An operation violated a storage invariant (e.g. duplicate primary key).
    Constraint(String),
    /// A transaction's plan does not lock the base partition its control
    /// code runs at, which the advisor contract requires (paper §2 OP1,
    /// OP2); the engine refuses the plan and fails the transaction.
    PartitionViolation { txn: u64, partition: u32 },
    /// A transaction aborted after undo logging was disabled: unrecoverable
    /// (paper §2 OP3 — "the node must halt").
    UnrecoverableAbort { txn: u64 },
    /// User/control-code-initiated abort (e.g. TPC-C invalid item).
    UserAbort(String),
    /// Anything else.
    Other(String),
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            Error::Constraint(msg) => write!(f, "constraint violation: {msg}"),
            Error::PartitionViolation { txn, partition } => {
                write!(f, "txn {txn} planned without locking its base partition {partition}")
            }
            Error::UnrecoverableAbort { txn } => {
                write!(f, "txn {txn} aborted without undo log: node halt")
            }
            Error::UserAbort(msg) => write!(f, "user abort: {msg}"),
            Error::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(Error::NotFound("TABLE X".into()).to_string(), "not found: TABLE X");
        assert!(Error::PartitionViolation { txn: 9, partition: 3 }
            .to_string()
            .contains("partition 3"));
        assert!(Error::UnrecoverableAbort { txn: 1 }.to_string().contains("halt"));
    }
}
