//! The accelerator machine: executes compiled programs (a
//! [`RunProgram`](crate::RunProgram) or a plain
//! [`Program`](crate::Program)) and produces [`Stats`].
//!
//! The control unit "reads instructions one by one, loads data and weights
//! to on-chip buffer, and computing" (paper Sec. 3). We model the DMA
//! engines and the PE pipeline as the two concurrent resources: within a
//! tile the compute is charged per macro-op; across tiles the next tile's
//! input DMA is prefetched under the current tile's compute (double
//! buffering), so a tile costs `max(compute, dma)` once the pipeline is
//! primed. A run of identical tiles is charged once, scaled by its repeat
//! count.

use crate::config::AcceleratorConfig;
use crate::isa::{MacroOp, TileRuns};
use crate::stats::Stats;
use crate::trace::{Trace, TraceEvent};

#[cfg(test)]
use crate::isa::{Program, Tile};

/// Execution policy knobs, exposed for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineOptions {
    /// Overlap tile DMA with compute (double buffering). Disabling it
    /// serializes every tile's DMA before its compute.
    pub overlap_dma: bool,
    /// Charge add-and-store accumulations on the critical path instead of
    /// hiding them behind the output buffer's store port.
    pub add_store_on_critical_path: bool,
}

impl Default for MachineOptions {
    fn default() -> Self {
        Self {
            overlap_dma: true,
            add_store_on_critical_path: false,
        }
    }
}

/// The simulated accelerator.
///
/// # Examples
///
/// ```
/// use cbrain_sim::{AcceleratorConfig, Machine, MacroOp, Program, Tile};
///
/// let machine = Machine::new(AcceleratorConfig::paper_16_16());
/// let tile = Tile {
///     dram_read_bytes: 1024,
///     dram_write_bytes: 0,
///     ops: vec![MacroOp::MacBurst {
///         bursts: 1000,
///         active_lanes: 256,
///         input_reads: 16,
///         input_requests: 1,
///         weight_reads: 256,
///         psum_reads: 0,
///         output_writes: 16,
///     }],
/// };
/// let stats = machine.run(&Program::single_tile(tile));
/// assert_eq!(stats.compute_cycles, 1000);
/// assert_eq!(stats.mac_ops, 256_000);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: AcceleratorConfig,
    opts: MachineOptions,
}

impl Machine {
    /// Creates a machine with default options.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Self {
            cfg,
            opts: MachineOptions::default(),
        }
    }

    /// Creates a machine with explicit options (ablations).
    pub fn with_options(cfg: AcceleratorConfig, opts: MachineOptions) -> Self {
        Self { cfg, opts }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Cycles needed to move `bytes` over the external-memory interface.
    pub fn dma_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.cfg.dram_bytes_per_cycle as u64)
    }

    /// Critical-path cycles of one execution of `op`.
    fn op_cycles(&self, op: &MacroOp) -> u64 {
        match *op {
            MacroOp::AddStore { count } if self.opts.add_store_on_critical_path => {
                count.div_ceil(self.cfg.out_port_elems() as u64)
            }
            _ => op.issue_cycles(&self.cfg),
        }
    }

    /// Charges `repeat` executions of `op` into `stats` and returns the
    /// cycles of one.
    fn charge_op(&self, op: &MacroOp, repeat: u64, stats: &mut Stats) -> u64 {
        let cycles = self.op_cycles(op);
        match *op {
            MacroOp::MacBurst {
                bursts,
                active_lanes,
                input_reads,
                weight_reads,
                psum_reads,
                output_writes,
                ..
            } => {
                let bursts = repeat * bursts;
                stats.mac_ops += bursts * active_lanes as u64;
                stats.lane_slots += repeat * cycles * self.cfg.pe.multipliers() as u64;
                stats.input_buf.loads += bursts * input_reads as u64;
                stats.weight_buf.loads += bursts * weight_reads as u64;
                stats.output_buf.loads += bursts * psum_reads as u64;
                stats.output_buf.stores += bursts * output_writes as u64;
            }
            MacroOp::AddStore { count } => {
                stats.add_store_ops += repeat * count;
                stats.output_buf.loads += repeat * count;
                stats.output_buf.stores += repeat * count;
            }
            MacroOp::OutputWrite { elems } => {
                stats.output_buf.stores += repeat * elems;
            }
            MacroOp::PoolBurst {
                bursts,
                input_reads,
                output_writes,
            } => {
                stats.input_buf.loads += repeat * bursts * input_reads as u64;
                stats.output_buf.stores += repeat * bursts * output_writes as u64;
            }
            MacroOp::BiasLoad { elems } => {
                stats.bias_buf.loads += repeat * elems;
            }
            MacroOp::EltwiseBurst {
                bursts,
                input_reads,
                output_writes,
            } => {
                stats.eltwise_ops += repeat * bursts * output_writes as u64;
                stats.input_buf.loads += repeat * bursts * input_reads as u64;
                stats.output_buf.stores += repeat * bursts * output_writes as u64;
            }
        }
        cycles
    }

    /// Executes a compiled program, returning its statistics.
    ///
    /// With double buffering enabled, tile `i`'s compute overlaps tile
    /// `i+1`'s input DMA and tile `i`'s output DMA; the first tile's input
    /// DMA is exposed. A run of `r` identical tiles costs what its `r`
    /// expanded tiles would: every copy but the last is followed by the
    /// same tile, so the run adds `(r-1) * max(c, f + d) + max(c, f' + d)`
    /// cycles, where `c` is one copy's compute, `f` and `d` its fill and
    /// drain DMA, and `f'` the next run's fill.
    pub fn run(&self, program: &impl TileRuns) -> Stats {
        self.run_inner(program, None)
    }

    /// Executes a program while recording up to `capacity` per-op trace
    /// events, one per op of every expanded tile (later events are counted
    /// but dropped). The statistics are identical to [`Machine::run`].
    pub fn run_traced(&self, program: &impl TileRuns, capacity: usize) -> (Stats, Trace) {
        let mut trace = Trace::with_capacity(capacity);
        let stats = self.run_inner(program, Some(&mut trace));
        (stats, trace)
    }

    fn run_inner(&self, program: &impl TileRuns, mut trace: Option<&mut Trace>) -> Stats {
        let mut stats = Stats::new();
        let mut total = 0u64;
        let mut tile_index = 0;
        let mut runs = program.tile_runs().peekable();
        while let Some((tile, repeat)) = runs.next() {
            let compute: u64 = tile
                .ops
                .iter()
                .map(|op| self.charge_op(op, repeat, &mut stats))
                .sum();
            if let Some(t) = trace.as_deref_mut() {
                for copy in 0..repeat {
                    let mut start = stats.compute_cycles + copy * compute;
                    for (op_index, op) in tile.ops.iter().enumerate() {
                        let cycles = self.op_cycles(op);
                        let (kind, detail) = describe_op(op);
                        t.record(TraceEvent {
                            tile: tile_index + copy as usize,
                            op_index,
                            start_cycle: start,
                            cycles,
                            kind,
                            detail,
                        });
                        start += cycles;
                    }
                }
            }
            stats.compute_cycles += repeat * compute;
            stats.dram_read_bytes += repeat * tile.dram_read_bytes;
            stats.dram_write_bytes += repeat * tile.dram_write_bytes;

            let fill = self.dma_cycles(tile.dram_read_bytes);
            let drain = self.dma_cycles(tile.dram_write_bytes);
            if self.opts.overlap_dma {
                // Expose the first tile's fill; afterwards each step hides
                // the *next* fill and the *current* drain under compute.
                if tile_index == 0 {
                    total += fill;
                }
                let next_fill = runs
                    .peek()
                    .map_or(0, |(next, _)| self.dma_cycles(next.dram_read_bytes));
                let inner = compute.max(fill + drain);
                let last = compute.max(next_fill + drain);
                stats.dram_stall_cycles += (repeat - 1) * (inner - compute) + (last - compute);
                total += (repeat - 1) * inner + last;
            } else {
                stats.dram_stall_cycles += repeat * (fill + drain);
                total += repeat * (compute + fill + drain);
            }
            tile_index += repeat as usize;
        }
        stats.cycles = total;
        stats
    }
}

fn describe_op(op: &MacroOp) -> (&'static str, String) {
    match *op {
        MacroOp::MacBurst {
            bursts,
            active_lanes,
            input_reads,
            weight_reads,
            ..
        } => (
            "mac",
            format!(
                "bursts={bursts} lanes={active_lanes} in/burst={input_reads} w/burst={weight_reads}"
            ),
        ),
        MacroOp::AddStore { count } => ("add-store", format!("count={count}")),
        MacroOp::OutputWrite { elems } => ("store", format!("elems={elems}")),
        MacroOp::PoolBurst { bursts, .. } => ("pool", format!("bursts={bursts}")),
        MacroOp::BiasLoad { elems } => ("bias", format!("elems={elems}")),
        MacroOp::EltwiseBurst { bursts, .. } => ("eltwise", format!("bursts={bursts}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst(bursts: u64) -> MacroOp {
        MacroOp::MacBurst {
            bursts,
            active_lanes: 256,
            input_reads: 16,
            input_requests: 1,
            weight_reads: 256,
            psum_reads: 0,
            output_writes: 0,
        }
    }

    fn machine() -> Machine {
        Machine::new(AcceleratorConfig::paper_16_16())
    }

    #[test]
    fn compute_bound_single_tile() {
        let tile = Tile {
            dram_read_bytes: 160, // 20 cycles at 8 B/cyc
            dram_write_bytes: 0,
            ops: vec![burst(1000)],
        };
        let stats = machine().run(&Program::single_tile(tile));
        // First fill exposed (20) + compute (1000).
        assert_eq!(stats.cycles, 1020);
        assert_eq!(stats.compute_cycles, 1000);
        assert_eq!(stats.dram_stall_cycles, 0);
    }

    #[test]
    fn dram_bound_tiles_stall() {
        // Each tile: 100 compute cycles but 6400 B of reads (800 cycles).
        let tiles: Vec<Tile> = (0..3)
            .map(|_| Tile {
                dram_read_bytes: 6400,
                dram_write_bytes: 0,
                ops: vec![burst(100)],
            })
            .collect();
        let stats = machine().run(&Program::new(tiles));
        // Fill(800) + max(100,800) + max(100,800) + max(100,0)
        assert_eq!(stats.cycles, 800 + 800 + 800 + 100);
        assert!(stats.dram_stall_cycles > 0);
    }

    #[test]
    fn overlap_beats_serial() {
        let tiles: Vec<Tile> = (0..4)
            .map(|_| Tile {
                dram_read_bytes: 1600,
                dram_write_bytes: 1600,
                ops: vec![burst(150)],
            })
            .collect();
        let prog = Program::new(tiles);
        let overlapped = machine().run(&prog);
        let serial = Machine::with_options(
            AcceleratorConfig::paper_16_16(),
            MachineOptions {
                overlap_dma: false,
                add_store_on_critical_path: false,
            },
        )
        .run(&prog);
        assert!(overlapped.cycles < serial.cycles);
        // Traffic identical either way.
        assert_eq!(overlapped.dram_bytes(), serial.dram_bytes());
    }

    #[test]
    fn mac_and_traffic_accounting() {
        let tile = Tile {
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            ops: vec![
                burst(10),
                MacroOp::AddStore { count: 50 },
                MacroOp::OutputWrite { elems: 20 },
                MacroOp::BiasLoad { elems: 16 },
            ],
        };
        let stats = machine().run(&Program::single_tile(tile));
        assert_eq!(stats.mac_ops, 2560);
        assert_eq!(stats.input_buf.loads, 160);
        assert_eq!(stats.weight_buf.loads, 2560);
        assert_eq!(stats.output_buf.loads, 50);
        assert_eq!(stats.output_buf.stores, 70);
        assert_eq!(stats.bias_buf.loads, 16);
        assert_eq!(stats.add_store_ops, 50);
    }

    #[test]
    fn add_store_ablation_charges_cycles() {
        let tile = Tile {
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            ops: vec![MacroOp::AddStore { count: 160 }],
        };
        let prog = Program::single_tile(tile);
        let hidden = machine().run(&prog);
        assert_eq!(hidden.cycles, 0);
        let charged = Machine::with_options(
            AcceleratorConfig::paper_16_16(),
            MachineOptions {
                overlap_dma: true,
                add_store_on_critical_path: true,
            },
        )
        .run(&prog);
        assert_eq!(charged.cycles, 10); // 160 elems / 16-wide port
    }

    #[test]
    fn lane_slots_track_issue_cycles_not_bursts() {
        // A transaction-limited burst occupies the array longer, burning
        // idle-lane energy — lane_slots must reflect that.
        let op = MacroOp::MacBurst {
            bursts: 10,
            active_lanes: 33, // 11 window elements x 3 maps, say
            input_reads: 16,
            input_requests: 4,
            weight_reads: 0,
            psum_reads: 0,
            output_writes: 0,
        };
        let tile = Tile {
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            ops: vec![op],
        };
        let stats = machine().run(&Program::single_tile(tile));
        assert_eq!(stats.compute_cycles, 40);
        assert_eq!(stats.lane_slots, 40 * 256);
        assert_eq!(stats.mac_ops, 330);
    }

    #[test]
    fn traced_and_untraced_stats_agree() {
        // Both runs charge each op once per run; the traced run also
        // records an event per op of every copy. Totals must be identical.
        let tiles: Vec<Tile> = (0..5)
            .map(|i| Tile {
                dram_read_bytes: 64 * i as u64,
                dram_write_bytes: 32 * i as u64,
                ops: vec![
                    burst(100 + i as u64),
                    MacroOp::MacBurst {
                        bursts: 7 + i as u64,
                        active_lanes: 33,
                        input_reads: 16,
                        input_requests: 4,
                        weight_reads: 5,
                        psum_reads: 3,
                        output_writes: 2,
                    },
                    MacroOp::AddStore { count: 50 },
                    MacroOp::BiasLoad { elems: 16 },
                ],
            })
            .collect();
        let prog = Program::new(tiles);
        let untraced = machine().run(&prog);
        let (traced, _) = machine().run_traced(&prog, 1024);
        assert_eq!(untraced, traced);
    }
}
