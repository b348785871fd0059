//! Macro-op emission for each parallelization scheme.
//!
//! Every emitter returns a *whole-layer template*: a short list of
//! [`MacroOp`]s whose counts cover the full layer. The tiler
//! ([`crate::tiling::TilePlan::build_program`]) then distributes those counts
//! across double-buffered tiles. Emitting aggregate ops (a handful per
//! layer) instead of per-issue events is what lets a VGG-16 forward pass
//! simulate in milliseconds while keeping cycle/traffic counts exact.

mod inter;
mod partition;
mod window;

pub use inter::emit_inter;
pub use partition::{emit_partition, PartitionEmission};
pub use window::{emit_window_sweep, WindowSweep};

use crate::geometry::ConvGeometry;
use cbrain_sim::{AcceleratorConfig, MacroOp};

/// Result of emitting an intra-kernel layer: the ops, the input-footprint
/// inflation factor (Eq. 1's `T` when unrolling, 1.0 for a true sliding
/// window) and whether a host-side unroll pre-pass is required.
#[derive(Debug, Clone)]
pub struct IntraEmission {
    /// Whole-layer op template.
    pub ops: Vec<MacroOp>,
    /// Input footprint/traffic inflation.
    pub inflation: f64,
    /// Whether the raw input must be reshaped (unrolled) off-chip first.
    pub needs_unroll: bool,
}

/// Emits the intra-kernel scheme (Sec. 4.1.2): a true sliding window when
/// `k == s`, data unrolling otherwise.
pub fn emit_intra(geom: &ConvGeometry, cfg: &AcceleratorConfig) -> IntraEmission {
    let sweep = WindowSweep {
        passes: 1,
        window: geom.k * geom.k,
        windows: geom.out_pixels(),
        din: geom.din_g,
        dout: geom.dout_g,
        groups: geom.groups,
    };
    let ops = emit_window_sweep(&sweep, cfg);
    if geom.k == geom.s {
        IntraEmission {
            ops,
            inflation: 1.0,
            needs_unroll: false,
        }
    } else {
        IntraEmission {
            ops,
            inflation: geom.unroll_factor(),
            needs_unroll: true,
        }
    }
}

/// Splits `total` into blocks of `width`: `(full_blocks, remainder)`.
pub(crate) fn blocks(total: usize, width: usize) -> (u64, usize) {
    ((total / width) as u64, total % width)
}

/// Iterates the `(lanes, block_count)` pairs of a blocked dimension,
/// skipping empty entries.
pub(crate) fn block_variants(total: usize, width: usize) -> Vec<(usize, u64)> {
    let (full, rem) = blocks(total, width);
    let mut v = Vec::with_capacity(2);
    if full > 0 {
        v.push((width, full));
    }
    if rem > 0 {
        v.push((rem, 1));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::{ConvParams, TensorShape};

    #[test]
    fn block_variants_cover_total() {
        assert_eq!(block_variants(48, 16), vec![(16, 3)]);
        assert_eq!(block_variants(3, 16), vec![(3, 1)]);
        assert_eq!(block_variants(20, 16), vec![(16, 1), (4, 1)]);
        assert!(block_variants(0, 16).is_empty());
    }

    #[test]
    fn intra_sliding_vs_unrolled() {
        let cfg = AcceleratorConfig::paper_16_16();
        // k == s: sliding window, no inflation.
        let sliding =
            ConvGeometry::from_params(TensorShape::new(8, 16, 16), &ConvParams::new(8, 8, 2, 2, 0))
                .unwrap();
        let e = emit_intra(&sliding, &cfg);
        assert!(!e.needs_unroll);
        assert_eq!(e.inflation, 1.0);

        // k != s: unrolling with Eq. 1 inflation.
        let overlapped =
            ConvGeometry::from_params(TensorShape::new(8, 16, 16), &ConvParams::new(8, 8, 3, 1, 0))
                .unwrap();
        let e = emit_intra(&overlapped, &cfg);
        assert!(e.needs_unroll);
        assert!((e.inflation - overlapped.unroll_factor()).abs() < 1e-12);
        assert!(e.inflation > 6.0);
    }
}
