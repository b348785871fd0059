//! # cbrain-bench
//!
//! Experiment harness regenerating every table and figure of the C-Brain
//! paper's evaluation section (Sec. 5). Each table/figure has:
//!
//! * a function in [`experiments`] returning structured rows, and
//! * an `exp_*` binary printing the rows (`cargo run -p cbrain-bench
//!   --bin exp_fig7 --release`).
//!
//! The heavy binaries accept `--jobs N` (N ≥ 1; default: all cores) and
//! fan their experiment cells over a deterministic thread pool; output
//! is byte-identical for every `N`. Every binary rejects any other flag
//! (see [`args`]). EXPERIMENTS.md at the repository root
//! records paper-vs-measured values.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod cache;
pub mod drivers;
pub mod experiments;
