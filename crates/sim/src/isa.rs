//! The macro-op instruction set the compiler targets.
//!
//! The paper's host compiler "translates network specification ... into a
//! code segment, which can be mapped, scheduled and executed on the
//! accelerator" (Sec. 3). Our macro-ops are deliberately coarse: one op
//! describes a *burst* of identically-shaped PE issues, so a whole VGG-16
//! forward pass compiles to a few thousand ops instead of billions of
//! per-cycle events, while still exposing every quantity the cycle model
//! needs (lane occupancy, per-burst buffer requests, partial-sum traffic).
//!
//! The same idea applies one level up. A tiled layer repeats one tile
//! many times: every group of a depthwise layer, and every image of a
//! batch after the first, gets a copy of its neighbour. A [`RunProgram`]
//! stores the layer as ordered [`TileRun`]s, one tile plus a repeat
//! count, so the compiler emits, the machine executes and the cache keeps
//! each run once. Its expansion into one [`Tile`] per copy, the plain
//! [`Program`], is built only by [`RunProgram::to_program`].

use crate::config::AcceleratorConfig;

/// One macro operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacroOp {
    /// A run of `bursts` PE issues that all have the same shape.
    ///
    /// Each burst multiplies up to `Tin x Tout` operand pairs and reduces
    /// them through the (segmentable) adder trees in one pipeline slot.
    MacBurst {
        /// Number of identical issue slots in this run.
        bursts: u64,
        /// Useful multipliers per burst (`<= Tin * Tout`); the rest idle.
        active_lanes: u32,
        /// Input-buffer elements read per burst.
        input_reads: u32,
        /// Distinct input-buffer transactions per burst. Aligned data needs
        /// one; a sliding window whose elements straddle buffer rows needs
        /// several (Sec. 4.1.2's "requests have to be issued several
        /// times").
        input_requests: u32,
        /// Weight-buffer elements read per burst (0 while weights are held
        /// in the PE registers).
        weight_reads: u32,
        /// Output-buffer partial sums read back per burst (accumulation).
        psum_reads: u32,
        /// Output-buffer elements written per burst.
        output_writes: u32,
    },
    /// Add-and-store partial-sum accumulations in the output buffer
    /// (Sec. 4.2.2). Each op reads one partial sum, adds, and stores it.
    /// These ride the output buffer's store port, "off the critical path of
    /// computation".
    AddStore {
        /// Number of accumulate operations.
        count: u64,
    },
    /// Plain output-buffer writes (final pixels, no read-modify-write).
    OutputWrite {
        /// Number of elements written.
        elems: u64,
    },
    /// A run of pooling-unit issues.
    PoolBurst {
        /// Issue slots.
        bursts: u64,
        /// Input elements read per burst.
        input_reads: u32,
        /// Output elements written per burst.
        output_writes: u32,
    },
    /// Bias fetches from the bias buffer.
    BiasLoad {
        /// Elements read.
        elems: u64,
    },
    /// A run of elementwise-merge issues (residual add): each burst reads
    /// both operand slices from the input buffer, combines them through the
    /// adder trees and writes the result. No weights, no partial sums.
    EltwiseBurst {
        /// Issue slots.
        bursts: u64,
        /// Input elements read per burst (both operands).
        input_reads: u32,
        /// Output elements written per burst.
        output_writes: u32,
    },
}

impl MacroOp {
    /// Pipeline slots this op occupies on the PE front end, given the
    /// configured port widths. This is the per-op critical-path cost; DMA
    /// is accounted at the tile level.
    pub fn issue_cycles(&self, cfg: &AcceleratorConfig) -> u64 {
        match *self {
            MacroOp::MacBurst {
                bursts,
                input_reads,
                input_requests,
                weight_reads,
                psum_reads,
                ..
            } => {
                let in_port = cfg.in_port_elems() as u64;
                let w_port = cfg.weight_port_elems() as u64;
                let out_port = cfg.out_port_elems() as u64;
                // The burst retires when the slowest operand feed completes:
                // bandwidth-limited (elements / port width) or
                // transaction-limited (distinct requests, one per cycle).
                let input_feed = (input_reads as u64)
                    .div_ceil(in_port)
                    .max(input_requests as u64);
                let weight_feed = (weight_reads as u64).div_ceil(w_port);
                let psum_feed = (psum_reads as u64).div_ceil(out_port);
                bursts * input_feed.max(weight_feed).max(psum_feed).max(1)
            }
            // Stores are posted through the output buffer's write port and
            // overlap compute (Sec. 4.2.2: "store is thought off the
            // critical path"); the ablation flag in `Machine` can re-charge
            // them.
            MacroOp::AddStore { .. } | MacroOp::OutputWrite { .. } => 0,
            MacroOp::PoolBurst { bursts, .. } => bursts,
            MacroOp::BiasLoad { .. } => 0,
            MacroOp::EltwiseBurst {
                bursts,
                input_reads,
                ..
            } => {
                // Both operand slices stream through the input port.
                let in_port = cfg.in_port_elems() as u64;
                bursts * (input_reads as u64).div_ceil(in_port).max(1)
            }
        }
    }
}

/// One double-buffered tile: the DMA traffic to bring its working set
/// on-chip / write results back, plus the compute it performs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tile {
    /// Bytes DMA-ed from external memory into on-chip buffers.
    pub dram_read_bytes: u64,
    /// Bytes DMA-ed back to external memory.
    pub dram_write_bytes: u64,
    /// Compute performed once the tile is resident.
    pub ops: Vec<MacroOp>,
}

impl Tile {
    /// Creates an empty tile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of PE issue cycles over the tile's ops.
    pub fn compute_cycles(&self, cfg: &AcceleratorConfig) -> u64 {
        self.ops.iter().map(|op| op.issue_cycles(cfg)).sum()
    }
}

/// A compiled program for one layer: an ordered list of tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Tiles in execution order.
    pub tiles: Vec<Tile>,
}

impl Program {
    /// Creates a program from tiles.
    pub fn new(tiles: Vec<Tile>) -> Self {
        Self { tiles }
    }

    /// A single-tile program (layer fits on chip).
    pub fn single_tile(tile: Tile) -> Self {
        Self::new(vec![tile])
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.tiles
            .iter()
            .map(|t| t.dram_read_bytes + t.dram_write_bytes)
            .sum()
    }

    /// Total macro-op count across tiles.
    pub fn op_count(&self) -> usize {
        self.tiles.iter().map(|t| t.ops.len()).sum()
    }
}

/// `repeat` identical consecutive tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileRun {
    /// The repeated tile.
    pub tile: Tile,
    /// How many copies run back to back (at least one).
    pub repeat: u64,
}

impl TileRun {
    /// Appends `repeat` copies of `tile` to `runs`, extending the last run
    /// when it holds an equal tile. Zero copies append nothing.
    pub fn push(runs: &mut Vec<TileRun>, tile: Tile, repeat: u64) {
        if repeat == 0 {
            return;
        }
        match runs.last_mut() {
            Some(last) if last.tile == tile => last.repeat += repeat,
            _ => runs.push(TileRun { tile, repeat }),
        }
    }
}

/// A compiled program for one layer, stored as runs of identical tiles.
///
/// Runs are canonical: no run is empty and no two neighbours hold equal
/// tiles, so two programs with the same expansion print alike.
/// [`RunProgram::op_count`] and [`RunProgram::dram_bytes`] are answered
/// from the runs; [`RunProgram::to_program`] builds the expansion.
///
/// # Examples
///
/// ```
/// use cbrain_sim::{RunProgram, Tile};
///
/// let tile = Tile { dram_read_bytes: 64, ..Tile::new() };
/// let mut program = RunProgram::new();
/// program.push(tile.clone(), 3);
/// program.push(tile, 2);
/// assert_eq!(program.runs().len(), 1);
/// assert_eq!(program.tile_count(), 5);
/// assert_eq!(program.to_program().tiles.len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunProgram {
    runs: Vec<TileRun>,
}

impl RunProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `repeat` copies of `tile`, merging with the last run.
    pub fn push(&mut self, tile: Tile, repeat: u64) {
        TileRun::push(&mut self.runs, tile, repeat);
    }

    /// Appends `times` copies of the run sequence `runs`.
    pub fn push_runs(&mut self, runs: &[TileRun], times: u64) {
        if let [run] = runs {
            self.push(run.tile.clone(), run.repeat * times);
            return;
        }
        for _ in 0..times {
            for run in runs {
                self.push(run.tile.clone(), run.repeat);
            }
        }
    }

    /// The canonical runs, in execution order.
    pub fn runs(&self) -> &[TileRun] {
        &self.runs
    }

    /// Number of tiles the runs expand to.
    pub fn tile_count(&self) -> u64 {
        self.runs.iter().map(|r| r.repeat).sum()
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.repeat * (r.tile.dram_read_bytes + r.tile.dram_write_bytes))
            .sum()
    }

    /// Total macro-op count across the expanded tiles.
    pub fn op_count(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.repeat as usize * r.tile.ops.len())
            .sum()
    }

    /// The expanded program: one tile per copy.
    pub fn to_program(&self) -> Program {
        let mut tiles = Vec::with_capacity(self.tile_count() as usize);
        for run in &self.runs {
            tiles.extend((0..run.repeat).map(|_| run.tile.clone()));
        }
        Program::new(tiles)
    }
}

/// An ordered tile sequence the [`Machine`](crate::Machine) executes:
/// a [`Program`] is runs of one, a [`RunProgram`] its stored runs.
pub trait TileRuns {
    /// `(tile, repeat)` pairs in execution order.
    fn tile_runs(&self) -> impl Iterator<Item = (&Tile, u64)>;
}

impl TileRuns for Program {
    fn tile_runs(&self) -> impl Iterator<Item = (&Tile, u64)> {
        self.tiles.iter().map(|t| (t, 1))
    }
}

impl TileRuns for RunProgram {
    fn tile_runs(&self) -> impl Iterator<Item = (&Tile, u64)> {
        self.runs.iter().map(|r| (&r.tile, r.repeat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_16_16()
    }

    #[test]
    fn aligned_burst_is_one_cycle_each() {
        let op = MacroOp::MacBurst {
            bursts: 100,
            active_lanes: 256,
            input_reads: 16,
            input_requests: 1,
            weight_reads: 256,
            psum_reads: 0,
            output_writes: 0,
        };
        assert_eq!(op.issue_cycles(&cfg()), 100);
    }

    #[test]
    fn transaction_limited_burst() {
        // A sliding window needing 11 separate row requests stalls the
        // burst for 11 cycles even though only 16 elements move.
        let op = MacroOp::MacBurst {
            bursts: 10,
            active_lanes: 176,
            input_reads: 16,
            input_requests: 11,
            weight_reads: 0,
            psum_reads: 0,
            output_writes: 0,
        };
        assert_eq!(op.issue_cycles(&cfg()), 110);
    }

    #[test]
    fn bandwidth_limited_burst() {
        // Reading 32 elements through a 16-wide port takes 2 cycles.
        let op = MacroOp::MacBurst {
            bursts: 5,
            active_lanes: 256,
            input_reads: 32,
            input_requests: 1,
            weight_reads: 0,
            psum_reads: 0,
            output_writes: 0,
        };
        assert_eq!(op.issue_cycles(&cfg()), 10);
    }

    #[test]
    fn psum_feed_can_dominate() {
        let op = MacroOp::MacBurst {
            bursts: 1,
            active_lanes: 256,
            input_reads: 16,
            input_requests: 1,
            weight_reads: 256,
            psum_reads: 64, // 64 / 16-wide out port = 4 cycles
            output_writes: 0,
        };
        assert_eq!(op.issue_cycles(&cfg()), 4);
    }

    #[test]
    fn stores_are_off_critical_path() {
        assert_eq!(MacroOp::AddStore { count: 1_000 }.issue_cycles(&cfg()), 0);
        assert_eq!(
            MacroOp::OutputWrite { elems: 1_000 }.issue_cycles(&cfg()),
            0
        );
    }

    #[test]
    fn tile_and_program_totals() {
        let tile = Tile {
            dram_read_bytes: 100,
            dram_write_bytes: 50,
            ops: vec![
                MacroOp::PoolBurst {
                    bursts: 7,
                    input_reads: 9,
                    output_writes: 1,
                },
                MacroOp::BiasLoad { elems: 16 },
            ],
        };
        assert_eq!(tile.compute_cycles(&cfg()), 7);
        let prog = Program::single_tile(tile);
        assert_eq!(prog.dram_bytes(), 150);
        assert_eq!(prog.op_count(), 2);
    }
}
