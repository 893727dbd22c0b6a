//! Sync facade: `std::sync` in production, `checkers::sync` under
//! `--features check`.
//!
//! Modules ported to this facade (`common::epoch`, `engine::runtime`)
//! import every sync primitive from here instead of `std::sync` — enforced
//! by `cargo xtask lint`, which forbids `std::sync` tokens in those files.
//! Without the `check` feature the re-exports below compile to *exactly*
//! the std types (zero-cost: no wrappers, no indirection); with it, the
//! same paths resolve to the `checkers` model types so the ported code can
//! be driven by the deterministic model checker.
//!
//! Under the `check` build the model checker runs production code, not
//! only compact reimplementations: `crates/common/tests/ring_model.rs`
//! (`real_ring`) drives the real `common::ring` rings and `Doorbell`, and
//! `crates/common/tests/flush_model.rs` (`real_seq`) the real
//! `common::flush::FlushSequencer`, both through this facade. The rest of
//! the runtime is only compiled and linted in that mode (CI's
//! `clippy -p engine --features check`); its other protocols are checked
//! as compact models (`crates/engine/tests/concurrency_models.rs`).
//!
//! Note the swap is a cargo *feature*, not the bare `--cfg check` the
//! original sketch used: features let the `checkers` dependency itself be
//! optional, and custom cfgs would trip `unexpected_cfgs` under
//! `-D warnings`.

#[cfg(not(feature = "check"))]
pub use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};

#[cfg(not(feature = "check"))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(feature = "check"))]
pub mod mpsc {
    pub use std::sync::mpsc::{
        channel, sync_channel, Receiver, RecvError, RecvTimeoutError, SendError, Sender,
        SyncSender, TryRecvError, TrySendError,
    };
}

#[cfg(feature = "check")]
pub use checkers::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, WaitTimeoutResult,
};

#[cfg(feature = "check")]
pub use checkers::sync::atomic;

#[cfg(feature = "check")]
pub mod mpsc {
    pub use checkers::sync::mpsc::{
        channel, sync_channel, Receiver, RecvError, RecvTimeoutError, SendError, Sender,
        SyncSender, TryRecvError, TrySendError,
    };
}
