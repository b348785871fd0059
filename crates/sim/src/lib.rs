//! # cbrain-sim
//!
//! Cycle-approximate model of the C-Brain accelerator hardware (DAC 2016,
//! Fig. 2 / Table 3): a `Tin x Tout` multiplier array with segmentable
//! adder trees, 2 MB in/out + 1 MB weight + 4 KB bias buffers, DMA engines
//! and a control unit executing a macro-op program.
//!
//! The crate is *scheme-agnostic*: it executes whatever [`Program`] the
//! compiler emits and charges cycles, buffer traffic and energy. All of
//! the paper's parallelization policy lives upstream in `cbrain-compiler`.
//!
//! # Examples
//!
//! ```
//! use cbrain_sim::{AcceleratorConfig, EnergyModel, Machine, MacroOp, Program, Tile};
//!
//! let machine = Machine::new(AcceleratorConfig::paper_16_16());
//! let tile = Tile {
//!     dram_read_bytes: 4096,
//!     dram_write_bytes: 0,
//!     ops: vec![MacroOp::MacBurst {
//!         bursts: 500,
//!         active_lanes: 48, // e.g. Din = 3 of Tin = 16: 13 lanes idle
//!         input_reads: 16,
//!         input_requests: 1,
//!         weight_reads: 256,
//!         psum_reads: 0,
//!         output_writes: 0,
//!     }],
//! };
//! let stats = machine.run(&Program::single_tile(tile));
//! assert!(stats.pe_utilization() < 0.2); // the paper's c1 pathology
//!
//! let energy = EnergyModel::default().evaluate(&stats);
//! assert!(energy.total_pj() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod energy;
mod isa;
mod machine;
pub mod pe;
mod stats;
pub mod trace;

pub use config::{AcceleratorConfig, PeConfig};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use isa::{MacroOp, Program, RunProgram, Tile, TileRun, TileRuns};
pub use machine::{Machine, MachineOptions};
pub use stats::{BufferTraffic, Stats};
