//! Shared window-sweep emission for intra-kernel and kernel-partition.
//!
//! Both schemes stream non-overlapping windows of one input map through the
//! PE while holding that map's weights, accumulating cross-map (and for
//! partitioning, cross-pass) contributions through the output buffer's
//! add-and-store path.

use super::block_variants;
use cbrain_sim::{AcceleratorConfig, MacroOp};

/// Parameters of one window sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSweep {
    /// Number of full passes over the output (kernel-partitioning runs
    /// `g^2`; plain intra-kernel runs 1).
    pub passes: u64,
    /// Elements per window (`ks^2` or `k^2`).
    pub window: usize,
    /// Windows per pass per input map (= output pixels).
    pub windows: u64,
    /// Input maps per group.
    pub din: usize,
    /// Output maps per group.
    pub dout: usize,
    /// Group count.
    pub groups: usize,
}

impl WindowSweep {
    /// Useful MACs this sweep performs (including any padding zeros).
    pub const fn macs(&self) -> u64 {
        self.passes * self.windows * (self.window * self.din * self.dout * self.groups) as u64
    }
}

/// Emits the sweep as a whole-layer op template.
///
/// Two regimes:
///
/// * `window <= Tin` — several windows pack into one issue via adder-tree
///   segmentation (Sec. 4.2.1); weights are pinned in the PE per
///   (pass, input map, Dout block) and refilled in one port-wide fetch.
/// * `window > Tin` — a window spans several issues; the partial sum
///   accumulates in the PE register across the window's chunks, but both
///   operands stream from the buffers at port rate (the register file
///   cannot pin a `k^2 > Tin` kernel).
pub fn emit_window_sweep(ws: &WindowSweep, cfg: &AcceleratorConfig) -> Vec<MacroOp> {
    let tin = cfg.pe.tin;
    let mut ops = Vec::new();
    let dout_vars = block_variants(ws.dout, cfg.pe.tout);
    // Weights are held per (pass, input map, group); each Dout block of
    // each such hold sweeps every window once.
    let holds = ws.passes * (ws.din * ws.groups) as u64;

    if ws.window <= tin {
        let pack = tin / ws.window;
        let (full_bursts, rem_windows) = (ws.windows / pack as u64, ws.windows % pack as u64);
        for &(ol, ocount) in &dout_vars {
            if full_bursts > 0 {
                ops.push(MacroOp::MacBurst {
                    bursts: holds * ocount * full_bursts,
                    active_lanes: (pack * ws.window * ol) as u32,
                    input_reads: (pack * ws.window) as u32,
                    input_requests: 1,
                    weight_reads: 0,
                    psum_reads: 0,
                    output_writes: 0,
                });
            }
            if rem_windows > 0 {
                ops.push(MacroOp::MacBurst {
                    bursts: holds * ocount,
                    active_lanes: (rem_windows as usize * ws.window * ol) as u32,
                    input_reads: (rem_windows as usize * ws.window) as u32,
                    input_requests: 1,
                    weight_reads: 0,
                    psum_reads: 0,
                    output_writes: 0,
                });
            }
            // Weight register refill, one port-wide fetch per hold.
            ops.push(MacroOp::MacBurst {
                bursts: holds * ocount,
                active_lanes: 0,
                input_reads: 0,
                input_requests: 1,
                weight_reads: (ws.window * ol) as u32,
                psum_reads: 0,
                output_writes: 0,
            });
        }
    } else {
        // Window spans multiple issues; operands stream.
        let chunk_vars = block_variants(ws.window, tin);
        for &(ol, ocount) in &dout_vars {
            for &(cl, ccount) in &chunk_vars {
                ops.push(MacroOp::MacBurst {
                    bursts: holds * ocount * ws.windows * ccount,
                    active_lanes: (cl * ol) as u32,
                    input_reads: cl as u32,
                    input_requests: 1,
                    weight_reads: (cl * ol) as u32,
                    psum_reads: 0,
                    output_writes: 0,
                });
            }
        }
    }

    // Cross-map / cross-pass accumulation through the output buffer: every
    // (pass, input map) contributes one partial sum per (window, output
    // map). The very first contribution is a plain store.
    let out_elems = ws.windows * (ws.dout * ws.groups) as u64;
    let contributions = ws.passes * ws.din as u64 * out_elems;
    ops.push(MacroOp::OutputWrite { elems: out_elems });
    ops.push(MacroOp::AddStore {
        count: contributions.saturating_sub(out_elems),
    });
    ops.push(MacroOp::BiasLoad {
        elems: (ws.dout * ws.groups) as u64,
    });
    ops.retain(|op| !matches!(op, MacroOp::AddStore { count: 0 }));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_sim::{Machine, Program, Stats, Tile};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_16_16()
    }

    fn run(ops: Vec<MacroOp>) -> Stats {
        Machine::new(cfg()).run(&Program::single_tile(Tile {
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            ops,
        }))
    }

    #[test]
    fn packed_windows_reach_full_utilization() {
        // 4x4 windows (ks = 4): exactly one per 16-lane group.
        let ws = WindowSweep {
            passes: 9,
            window: 16,
            windows: 3025,
            din: 3,
            dout: 96,
            groups: 1,
        };
        let stats = run(emit_window_sweep(&ws, &cfg()));
        assert_eq!(stats.mac_ops, ws.macs());
        // Utilization near 1 (only refill slots idle).
        assert!(stats.pe_utilization() > 0.99, "{}", stats.pe_utilization());
    }

    #[test]
    fn single_element_windows_pack_sixteen() {
        // ks = 1 (VGG conv1 partitioning): 16 windows per burst.
        let ws = WindowSweep {
            passes: 9,
            window: 1,
            windows: 160,
            din: 3,
            dout: 16,
            groups: 1,
        };
        let stats = run(emit_window_sweep(&ws, &cfg()));
        assert_eq!(stats.mac_ops, ws.macs());
        // 160 windows / 16 per burst = 10 bursts per (pass, map); plus one
        // refill slot each.
        assert_eq!(stats.compute_cycles, 9 * 3 * (10 + 1));
    }

    #[test]
    fn undersized_window_wastes_lanes() {
        // 3x3 windows in 16 lanes: floor(16/9) = 1 window, 9 lanes active.
        let ws = WindowSweep {
            passes: 1,
            window: 9,
            windows: 100,
            din: 4,
            dout: 16,
            groups: 1,
        };
        let stats = run(emit_window_sweep(&ws, &cfg()));
        assert!(stats.pe_utilization() < 0.6);
        assert!(stats.pe_utilization() > 0.5);
    }

    #[test]
    fn oversized_window_streams_in_chunks() {
        // 11x11 = 121 elements: 7 full chunks of 16 + remainder 9.
        let ws = WindowSweep {
            passes: 1,
            window: 121,
            windows: 3025,
            din: 3,
            dout: 96,
            groups: 1,
        };
        let stats = run(emit_window_sweep(&ws, &cfg()));
        assert_eq!(stats.mac_ops, ws.macs());
        // 8 issue slots per window -> utilization 121/128.
        assert!((stats.pe_utilization() - 121.0 / 128.0).abs() < 0.01);
        // Streaming regime reloads weights every burst.
        assert!(stats.weight_buf.loads >= ws.macs() / 16);
    }

    #[test]
    fn accumulation_traffic_counts_every_contribution() {
        let ws = WindowSweep {
            passes: 4,
            window: 4,
            windows: 10,
            din: 2,
            dout: 8,
            groups: 1,
        };
        let stats = run(emit_window_sweep(&ws, &cfg()));
        let out_elems = 10 * 8;
        let contributions = 4 * 2 * out_elems;
        assert_eq!(stats.output_buf.stores, contributions);
        assert_eq!(stats.add_store_ops, contributions - out_elems);
    }

    #[test]
    fn grouped_sweep_scales() {
        let base = WindowSweep {
            passes: 1,
            window: 4,
            windows: 64,
            din: 8,
            dout: 8,
            groups: 1,
        };
        let grouped = WindowSweep { groups: 2, ..base };
        let a = run(emit_window_sweep(&base, &cfg()));
        let b = run(emit_window_sweep(&grouped, &cfg()));
        assert_eq!(b.mac_ops, 2 * a.mac_ops);
    }

    #[test]
    fn macs_formula() {
        let ws = WindowSweep {
            passes: 9,
            window: 16,
            windows: 3025,
            din: 3,
            dout: 96,
            groups: 1,
        };
        assert_eq!(ws.macs(), 9 * 3025 * 16 * 3 * 96);
    }
}
