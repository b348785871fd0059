//! Inter-kernel emission (Sec. 4.1.1) and its Sec. 4.2.2 improvement.

use super::block_variants;
use crate::geometry::ConvGeometry;
use cbrain_sim::{AcceleratorConfig, MacroOp};

/// Emits the inter-kernel scheme.
///
/// Every burst moves `Tin` pixels (one per input map, same window
/// position) against `Tin x Tout` weights. The original scheme
/// (`improved == false`) reloads both operands from the buffers each burst
/// and accumulates the `k*k*Din` contributions of each output pixel in the
/// PE registers before writing it once.
///
/// The improved scheme (`improved == true`) holds the weight block in the
/// PE registers while sweeping all output pixels, so every weight is
/// fetched once; the partial sums are instead accumulated through the
/// output buffer's add-and-store path ("each time we move to ... the next
/// pixel ... to calculate the 1/(k*k) partial sum instead of the complete
/// sum"). Cycle counts are identical; buffer traffic is not.
pub fn emit_inter(geom: &ConvGeometry, cfg: &AcceleratorConfig, improved: bool) -> Vec<MacroOp> {
    let tin = cfg.pe.tin;
    let tout = cfg.pe.tout;
    let base = geom.out_pixels() * (geom.k * geom.k) as u64 * geom.groups as u64;
    let out_elems = geom.out_pixels() * (geom.dout_g * geom.groups) as u64;

    let din_vars = block_variants(geom.din_g, tin);
    let dout_vars = block_variants(geom.dout_g, tout);

    let mut ops = Vec::new();
    let mut accum_events = 0u64;
    for &(dl, dcount) in &din_vars {
        for &(ol, ocount) in &dout_vars {
            let bursts = base * dcount * ocount;
            ops.push(MacroOp::MacBurst {
                bursts,
                active_lanes: (dl * ol) as u32,
                input_reads: dl as u32,
                input_requests: 1,
                weight_reads: if improved { 0 } else { (dl * ol) as u32 },
                psum_reads: 0,
                output_writes: 0,
            });
            if improved {
                // One register refill per (kernel position, Din block,
                // Dout block); each refill is a single port-wide fetch.
                let refills = (geom.k * geom.k) as u64 * geom.groups as u64 * dcount * ocount;
                ops.push(MacroOp::MacBurst {
                    bursts: refills,
                    active_lanes: 0,
                    input_reads: 0,
                    input_requests: 1,
                    weight_reads: (dl * ol) as u32,
                    psum_reads: 0,
                    output_writes: 0,
                });
                accum_events += bursts * ol as u64;
            }
        }
    }

    if improved {
        // The first contribution of each output element is a plain store;
        // the rest are read-modify-write accumulations.
        ops.push(MacroOp::OutputWrite { elems: out_elems });
        ops.push(MacroOp::AddStore {
            count: accum_events.saturating_sub(out_elems),
        });
    } else {
        ops.push(MacroOp::OutputWrite { elems: out_elems });
    }
    ops.push(MacroOp::BiasLoad {
        elems: (geom.dout_g * geom.groups) as u64,
    });
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::{zoo, ConvParams, TensorShape};
    use cbrain_sim::{Machine, Program, Tile};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_16_16()
    }

    fn run(ops: Vec<MacroOp>) -> cbrain_sim::Stats {
        let machine = Machine::new(cfg());
        machine.run(&Program::single_tile(Tile {
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            ops,
        }))
    }

    fn alexnet_c1() -> ConvGeometry {
        ConvGeometry::from_layer(zoo::alexnet().conv1()).unwrap()
    }

    #[test]
    fn conv1_wastes_13_of_16_lanes() {
        let stats = run(emit_inter(&alexnet_c1(), &cfg(), false));
        // Din = 3 -> 3*16 active of 256 lanes.
        assert!((stats.pe_utilization() - 3.0 / 16.0).abs() < 1e-9);
        assert_eq!(stats.mac_ops, alexnet_c1().macs());
    }

    #[test]
    fn full_depth_layer_is_fully_utilized() {
        // Din = 48 = 3 full blocks of 16, Dout = 128 = 8 blocks of 16.
        let g = ConvGeometry::from_layer(zoo::alexnet().layer("conv2").unwrap()).unwrap();
        let stats = run(emit_inter(&g, &cfg(), false));
        assert_eq!(stats.pe_utilization(), 1.0);
        assert_eq!(stats.mac_ops, g.macs());
        // Fully utilized means cycles equal the ideal bound.
        assert_eq!(stats.compute_cycles, g.macs() / 256);
    }

    #[test]
    fn improved_same_cycles_within_refill_noise() {
        let g = alexnet_c1();
        let base = run(emit_inter(&g, &cfg(), false));
        let improved = run(emit_inter(&g, &cfg(), true));
        // "adpa-1 and adpa-2 are the same on performance" — refills add
        // k^2 * blocks cycles, < 0.1% here.
        let delta = improved.compute_cycles as f64 / base.compute_cycles as f64;
        assert!(delta < 1.001, "delta={delta}");
        assert_eq!(improved.mac_ops, base.mac_ops);
    }

    #[test]
    fn improved_slashes_weight_traffic() {
        let g = ConvGeometry::from_layer(zoo::alexnet().layer("conv3").unwrap()).unwrap();
        let base = run(emit_inter(&g, &cfg(), false));
        let improved = run(emit_inter(&g, &cfg(), true));
        // Original reloads Tin*Tout weights per burst: ~MACs total loads.
        assert_eq!(base.weight_buf.loads, g.macs());
        // Improved fetches each weight once.
        assert_eq!(improved.weight_buf.loads, g.weight_count());
        assert!(base.weight_buf.loads > 100 * improved.weight_buf.loads);
    }

    #[test]
    fn improved_pays_add_store() {
        let g = alexnet_c1();
        let base = run(emit_inter(&g, &cfg(), false));
        let improved = run(emit_inter(&g, &cfg(), true));
        assert_eq!(base.add_store_ops, 0);
        // One accumulate per output element per (kernel pos, din block),
        // minus the first write: 55*55*96*121 - 55*55*96.
        let expected = 55 * 55 * 96 * 121 - 55 * 55 * 96;
        assert_eq!(improved.add_store_ops, expected);
        // Net buffer traffic still drops dramatically.
        assert!(improved.buffer_access_bits() < base.buffer_access_bits());
    }

    #[test]
    fn remainder_blocks_are_exact() {
        // Din = 20 -> one full block of 16 + remainder of 4.
        let g = ConvGeometry::from_params(
            TensorShape::new(20, 8, 8),
            &ConvParams::new(20, 24, 3, 1, 1),
        )
        .unwrap();
        let stats = run(emit_inter(&g, &cfg(), false));
        assert_eq!(stats.mac_ops, g.macs());
        // 2 din variants (20 = 16 + 4) x 2 dout variants (24 = 16 + 8):
        // base * (1 full + 1 rem din) * (1 full + 1 rem dout).
        assert_eq!(stats.compute_cycles, 8 * 8 * 9 * 2 * 2);
    }

    #[test]
    fn grouped_layers_scale_by_groups() {
        let g = ConvGeometry::from_layer(zoo::alexnet().layer("conv2").unwrap()).unwrap();
        let stats = run(emit_inter(&g, &cfg(), false));
        assert_eq!(stats.mac_ops, g.macs());
        // Per group: 27*27*25 base, 3 din blocks, 8 dout blocks; x2 groups.
        assert_eq!(stats.compute_cycles, 27 * 27 * 25 * 3 * 8 * 2);
    }

    #[test]
    fn output_writes_once_per_element() {
        let g = alexnet_c1();
        let stats = run(emit_inter(&g, &cfg(), false));
        assert_eq!(stats.output_buf.stores, 55 * 55 * 96);
        assert_eq!(stats.output_buf.loads, 0);
    }
}
