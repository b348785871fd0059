//! # cbrain
//!
//! Library reproduction of **C-Brain: A Deep Learning Accelerator that
//! Tames the Diversity of CNNs through Adaptive Data-level Parallelization**
//! (Song et al., DAC 2016).
//!
//! The paper's contribution is a CNN accelerator that *switches mapping
//! schemes per layer*: inter-kernel vectorization for deep top layers,
//! kernel-partitioning (Eq. 2) for the critical bottom layers whose `Din`
//! is smaller than the PE width, true sliding windows when `k == s`, and an
//! improved inter-kernel traversal (Sec. 4.2.2) that trades cheap
//! add-and-store operations for expensive operand reloads.
//!
//! This crate is the user-facing API over the substrate crates:
//!
//! * [`cbrain_model`] — networks, reference math;
//! * [`cbrain_sim`] — the cycle/energy machine;
//! * [`cbrain_compiler`] — per-scheme code generation.
//!
//! # Quick start
//!
//! ```
//! use cbrain::{Policy, Runner};
//! use cbrain_model::zoo;
//! use cbrain_sim::AcceleratorConfig;
//!
//! let runner = Runner::new(AcceleratorConfig::paper_16_16());
//! let net = zoo::alexnet();
//!
//! // Run the paper's five arms: inter, intra, partition, adpa-1, adpa-2.
//! let reports = runner.run_paper_arms(&net)?;
//! let inter = &reports[0];
//! let adpa2 = &reports[4];
//!
//! // The adaptive mapper wins on cycles...
//! assert!(adpa2.speedup_over(inter) > 1.0);
//! // ...and slashes on-chip buffer traffic.
//! assert!(adpa2.totals.buffer_access_bits() < inter.totals.buffer_access_bits());
//! # Ok::<(), cbrain::RunError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod cache;
pub mod config;
mod error;
pub mod forward;
pub mod functional;
pub mod partition_math;
pub mod persist;
pub mod pool;
pub mod quantized;
pub mod report;
mod runner;
pub mod schedule;

pub use adaptive::{select_scheme, ParsePolicyError, Policy};
pub use cache::{CachedLayer, CompiledLayerCache, LayerKey};
pub use config::EnvConfig;
pub use error::RunError;
pub use pool::{available_jobs, parallel_map, try_parallel_map};
pub use runner::{
    compile_cache_entry, CompileBackend, LayerReport, NetworkReport, ParseWorkloadError,
    RunOptions, Runner, Workload,
};

// Re-export the substrate crates so downstream users need a single
// dependency.
pub use cbrain_compiler as compiler;
pub use cbrain_compiler::Scheme;
pub use cbrain_model as model;
pub use cbrain_sim as sim;
pub use cbrain_telemetry as telemetry;
