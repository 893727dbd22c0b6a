//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation on the simulator ([`experiments`]) and prints the wall-clock
//! comparisons and CI floors on the live runtime ([`live`]); see DESIGN.md
//! §3 for the experiment index. Nothing here writes a results file — live
//! numbers are recorded by the acceptance benchmark under `benchmark/`.
//!
//! `cargo run -p bench --release --bin experiments -- <id>` prints the rows
//! for one experiment (`all` runs everything but the `check` gate). Nothing
//! here times a kernel: the per-layer rungs live under `benchmark/` too.

pub mod experiments;
pub mod live;
pub mod open_loop;
pub mod setup;

pub use open_loop::{open_loop_measure, OpenLoopConfig, OpenLoopMeasurement};
pub use setup::{collect_trace, new_order_generator, run_sim, sim_config, trained_houdini, Scale};
