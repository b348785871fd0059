//! Kernel-partitioning emission (Sec. 4.2.1, Algorithm 1).

use super::window::{emit_window_sweep, WindowSweep};
use crate::geometry::ConvGeometry;
use cbrain_sim::{AcceleratorConfig, MacroOp};

/// Result of emitting a kernel-partitioned layer.
#[derive(Debug, Clone)]
pub struct PartitionEmission {
    /// Whole-layer op template.
    pub ops: Vec<MacroOp>,
    /// Input footprint inflation from the boundary zero padding of
    /// Fig. 5(a) (usually ~1.0; never large).
    pub inflation: f64,
    /// Number of sub-kernel pieces `g` per axis (Eq. 2).
    pub pieces: usize,
    /// Sub-kernel side `ks = s` (Eq. 2).
    pub sub_kernel: usize,
}

/// Emits the kernel-partition scheme.
///
/// The `k x k` kernel splits into `g^2` sub-kernels of side `ks = s`
/// (Eq. 2). Each of the `g^2` passes slides its sub-kernel at stride `s`,
/// so consecutive sub-windows never overlap — the data aligns in the buffer
/// as in Fig. 5(b) and small windows pack into the adder-tree segments.
/// The `g^2` partial output maps are summed through the output buffer
/// (Algorithm 1 lines 7-8, Fig. 5(d)).
pub fn emit_partition(geom: &ConvGeometry, cfg: &AcceleratorConfig) -> PartitionEmission {
    let (g, ks) = geom.partition();
    let sweep = WindowSweep {
        passes: (g * g) as u64,
        window: ks * ks,
        windows: geom.out_pixels(),
        din: geom.din_g,
        dout: geom.dout_g,
        groups: geom.groups,
    };
    let ops = emit_window_sweep(&sweep, cfg);
    let (px, py) = geom.partition_padded_extent();
    let raw = (geom.input.width * geom.input.height) as f64;
    let inflation = ((px * py) as f64 / raw).max(1.0);
    PartitionEmission {
        ops,
        inflation,
        pieces: g,
        sub_kernel: ks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::{zoo, ConvParams, TensorShape};
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

    fn alexnet_c1() -> ConvGeometry {
        ConvGeometry::from_layer(zoo::alexnet().conv1()).unwrap()
    }

    #[test]
    fn figure_5_decomposition() {
        let e = emit_partition(&alexnet_c1(), &cfg());
        assert_eq!(e.pieces, 3);
        assert_eq!(e.sub_kernel, 4);
    }

    #[test]
    fn conv1_runs_near_ideal() {
        // The paper's headline: partitioning fixes the critical bottom
        // layer. Overhead vs ideal is only the g^2*ks^2/k^2 zero padding
        // (144/121 here) plus refill slots.
        let g = alexnet_c1();
        let stats = run(emit_partition(&g, &cfg()).ops);
        let ideal = g.macs() / cfg().pe.multipliers() as u64;
        let ratio = stats.compute_cycles as f64 / ideal as f64;
        assert!(ratio < 1.25, "ratio={ratio}");
        // And far better than inter-kernel's 16/3 lane waste.
        assert!(ratio < (16.0 / 3.0) * 0.5);
    }

    #[test]
    fn padded_macs_exceed_raw_macs_slightly() {
        let g = alexnet_c1();
        let stats = run(emit_partition(&g, &cfg()).ops);
        // g^2 * ks^2 = 144 vs k^2 = 121 -> ~19% extra (padding zeros).
        assert_eq!(stats.mac_ops, g.macs() * 144 / 121);
    }

    #[test]
    fn exact_divide_has_no_padding_overhead() {
        // k = 4, s = 2 -> g = 2, ks = 2, g*ks = k: no padding waste.
        let geom = ConvGeometry::from_params(
            TensorShape::new(8, 18, 18),
            &ConvParams::new(8, 16, 4, 2, 0),
        )
        .unwrap();
        let stats = run(emit_partition(&geom, &cfg()).ops);
        assert_eq!(stats.mac_ops, geom.macs());
    }

    #[test]
    fn stride_1_small_kernel_packs_single_weights() {
        // VGG conv1: k=3, s=1 -> g=3, ks=1: single-weight sub-kernels,
        // 16 windows per burst, near-full utilization.
        let net = zoo::vgg16();
        let geom = ConvGeometry::from_layer(net.conv1()).unwrap();
        let stats = run(emit_partition(&geom, &cfg()).ops);
        let ideal = geom.macs() / 256;
        let ratio = stats.compute_cycles as f64 / ideal as f64;
        assert!(ratio < 1.1, "ratio={ratio}");
    }

    #[test]
    fn degenerates_to_sliding_window_when_k_equals_s() {
        let geom =
            ConvGeometry::from_params(TensorShape::new(8, 16, 16), &ConvParams::new(8, 8, 2, 2, 0))
                .unwrap();
        let e = emit_partition(&geom, &cfg());
        assert_eq!(e.pieces, 1);
        assert_eq!(e.sub_kernel, 2);
        let stats = run(e.ops);
        assert_eq!(stats.mac_ops, geom.macs());
    }

    #[test]
    fn inflation_is_modest() {
        let e = emit_partition(&alexnet_c1(), &cfg());
        assert!(e.inflation >= 1.0);
        assert!(e.inflation < 1.1);
    }

    #[test]
    fn partial_map_accumulation_traffic() {
        // Algorithm 1: g^2 passes x Din maps contribute to each output
        // element; all but the first via add-store.
        let g = alexnet_c1();
        let stats = run(emit_partition(&g, &cfg()).ops);
        let out_elems = 55 * 55 * 96u64;
        assert_eq!(stats.output_buf.stores, out_elems * 9 * 3);
        assert_eq!(stats.add_store_ops, out_elems * (9 * 3 - 1));
    }
}
