//! Layer-to-program compilation: scheme emission + tiling + DMA planning.

use crate::emit::{emit_inter, emit_intra, emit_partition};
use crate::error::CompileError;
use crate::geometry::ConvGeometry;
use crate::layout::DataLayout;
use crate::scheme::Scheme;
use crate::tiling::{scale_op, TilePlan};
use cbrain_model::{Layer, LayerKind, TensorShape, ELEM_BYTES};
use cbrain_sim::{AcceleratorConfig, MacroOp, Program, RunProgram, Tile, TileRun};

/// A compiled layer: the executable program plus the layout contract.
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    /// The macro-op program (tiled, DMA-annotated), stored as runs of
    /// identical tiles.
    pub program: RunProgram,
    /// Scheme used (None for pooling, which has no scheme choice; FC
    /// layers always run inter-kernel).
    pub scheme: Option<Scheme>,
    /// The memory layout this program assumes its input is stored in.
    pub wants_input_layout: DataLayout,
    /// The layout the program leaves its output in. The adaptive runner
    /// sets this to the next layer's preference (Algorithm 2 lines 4-5);
    /// the default is the scheme's own natural order.
    pub output_layout: DataLayout,
    /// The tiling decision, exposed for reports and tests.
    pub tiles: TilePlan,
}

/// Compiles one convolution layer under the given scheme.
///
/// # Errors
///
/// Returns a [`CompileError`] if the layer is not a convolution, is
/// invalid, or cannot be tiled into the buffers.
///
/// # Examples
///
/// ```
/// use cbrain_compiler::{compile_conv, Scheme};
/// use cbrain_model::zoo;
/// use cbrain_sim::{AcceleratorConfig, Machine};
///
/// let net = zoo::alexnet();
/// let cfg = AcceleratorConfig::paper_16_16();
/// let compiled = compile_conv(net.conv1(), Scheme::Partition, &cfg)?;
/// let stats = Machine::new(cfg).run(&compiled.program);
/// assert!(stats.pe_utilization() > 0.8);
/// # Ok::<(), cbrain_compiler::CompileError>(())
/// ```
pub fn compile_conv(
    layer: &Layer,
    scheme: Scheme,
    cfg: &AcceleratorConfig,
) -> Result<CompiledLayer, CompileError> {
    compile_conv_batched(layer, scheme, cfg, 1)
}

/// Compiles one convolution layer for a batch of `batch` images.
///
/// Activations and compute repeat per image; on-chip-resident weights are
/// fetched once for the whole batch (see [`TilePlan::build_program`]).
///
/// # Errors
///
/// See [`compile_conv`].
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn compile_conv_batched(
    layer: &Layer,
    scheme: Scheme,
    cfg: &AcceleratorConfig,
    batch: usize,
) -> Result<CompiledLayer, CompileError> {
    assert!(batch > 0, "batch must be non-zero");
    let geom = ConvGeometry::from_layer(layer)?;
    let (template, inflation, needs_unroll) = match scheme {
        Scheme::Inter => (emit_inter(&geom, cfg, false), 1.0, false),
        Scheme::InterImproved => (emit_inter(&geom, cfg, true), 1.0, false),
        Scheme::Intra => {
            let e = emit_intra(&geom, cfg);
            (e.ops, e.inflation, e.needs_unroll)
        }
        Scheme::Partition => {
            let e = emit_partition(&geom, cfg);
            (e.ops, e.inflation, false)
        }
    };

    let plan = TilePlan::conv(&geom, cfg, inflation).map_err(|e| match e {
        CompileError::WorkingSetTooLarge {
            required,
            available,
            ..
        } => CompileError::WorkingSetTooLarge {
            layer: layer.name.clone(),
            required,
            available,
        },
        other => other,
    })?;

    // Host-side reshape pre-pass (Sec. 4.1.2's data unrolling): the raw
    // input streams out of memory and the duplicated layout streams back
    // in before the layer can start. No PE work hides it. One pre-pass
    // per image, ahead of that image's tiles.
    let prepass = needs_unroll.then(|| {
        let raw = geom.input_bytes();
        Tile {
            dram_read_bytes: raw,
            dram_write_bytes: (raw as f64 * inflation).ceil() as u64,
            ops: Vec::new(),
        }
    });

    Ok(CompiledLayer {
        program: plan.build_program(&template, batch, prepass.as_ref()),
        scheme: Some(scheme),
        wants_input_layout: DataLayout::preferred_by(scheme),
        output_layout: DataLayout::preferred_by(scheme),
        tiles: plan,
    })
}

/// Compiles a pooling layer (executed by the pooling unit, `Tin`-wide).
///
/// # Errors
///
/// Propagates shape errors from the model crate.
pub fn compile_pool(layer: &Layer, cfg: &AcceleratorConfig) -> Result<CompiledLayer, CompileError> {
    compile_pool_batched(layer, cfg, 1)
}

/// Compiles a pooling layer for a batch of `batch` images (the pooling
/// unit has no weights, so batching simply repeats the per-image bands).
///
/// # Errors
///
/// See [`compile_pool`].
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn compile_pool_batched(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    batch: usize,
) -> Result<CompiledLayer, CompileError> {
    assert!(batch > 0, "batch must be non-zero");
    let LayerKind::Pool(params) = &layer.kind else {
        return Err(CompileError::NotConvolution {
            layer: layer.name.clone(),
        });
    };
    let out = params.output_shape(layer.input)?;
    let window = params.kernel * params.kernel;
    let issues_per_window = window.div_ceil(cfg.pe.tin) as u64;
    let template = [MacroOp::PoolBurst {
        bursts: out.elems() as u64 * issues_per_window,
        input_reads: (window.div_ceil(issues_per_window as usize)) as u32,
        output_writes: 1,
    }];

    // Pooling working sets can exceed the buffer on VGG's bottom maps;
    // split into plain spatial bands (no weights, k-row halo ignored for
    // stride >= 1 pools as overlap is tiny).
    let in_bytes = layer.input.bytes() as u64;
    let out_bytes = out.bytes() as u64;
    let program = banded_program(&template, in_bytes, out_bytes, cfg, batch);

    Ok(CompiledLayer {
        program,
        scheme: None,
        wants_input_layout: DataLayout::IntraOrder,
        output_layout: DataLayout::IntraOrder,
        tiles: TilePlan::flat(in_bytes, out_bytes, 0, cfg)
            .unwrap_or_else(|_| TilePlan::flat(0, 0, 0, cfg).expect("empty plan fits")),
    })
}

/// Compiles an elementwise-merge layer (residual add).
///
/// # Errors
///
/// Propagates shape errors from the model crate.
pub fn compile_eltwise(
    layer: &Layer,
    cfg: &AcceleratorConfig,
) -> Result<CompiledLayer, CompileError> {
    compile_eltwise_batched(layer, cfg, 1)
}

/// Compiles an elementwise-merge layer for a batch of `batch` images. The
/// merge is weight-free: each output element reads one element from each
/// operand tensor, adds them through the adder trees and writes the result.
/// Both operands stream from DRAM (the skip tensor was produced several
/// layers ago and cannot be buffer-resident), so DRAM reads are twice the
/// input footprint.
///
/// # Errors
///
/// See [`compile_eltwise`].
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn compile_eltwise_batched(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    batch: usize,
) -> Result<CompiledLayer, CompileError> {
    assert!(batch > 0, "batch must be non-zero");
    let LayerKind::Eltwise(_) = &layer.kind else {
        return Err(CompileError::NotConvolution {
            layer: layer.name.clone(),
        });
    };
    let elems = layer.input.elems() as u64;
    let tin = cfg.pe.tin as u64;
    let template = [MacroOp::EltwiseBurst {
        bursts: elems.div_ceil(tin),
        input_reads: (2 * cfg.pe.tin) as u32,
        output_writes: cfg.pe.tin as u32,
    }];

    // Two operand tensors come in, one result goes out; split into bands
    // when the combined working set exceeds the data buffer.
    let in_bytes = 2 * layer.input.bytes() as u64;
    let out_bytes = layer.input.bytes() as u64;
    let program = banded_program(&template, in_bytes, out_bytes, cfg, batch);

    Ok(CompiledLayer {
        program,
        scheme: None,
        wants_input_layout: DataLayout::IntraOrder,
        output_layout: DataLayout::IntraOrder,
        tiles: TilePlan::flat(in_bytes, out_bytes, 0, cfg)
            .unwrap_or_else(|_| TilePlan::flat(0, 0, 0, cfg).expect("empty plan fits")),
    })
}

/// A weight-free layer's program: `in_bytes` in and `out_bytes` out per
/// image, split into as many equal spatial bands as the data buffer
/// needs, each with its share of the template.
fn banded_program(
    template: &[MacroOp],
    in_bytes: u64,
    out_bytes: u64,
    cfg: &AcceleratorConfig,
    batch: usize,
) -> RunProgram {
    let bands = (in_bytes + out_bytes)
        .div_ceil(cfg.inout_buf_bytes as u64)
        .max(1);
    let mut per_image = Vec::new();
    for i in 0..bands {
        let share = |total: u64| (total * (i + 1)) / bands - (total * i) / bands;
        let tile = Tile {
            dram_read_bytes: share(in_bytes),
            dram_write_bytes: share(out_bytes),
            ops: template.iter().map(|op| scale_op(op, share)).collect(),
        };
        TileRun::push(&mut per_image, tile, 1);
    }
    let mut program = RunProgram::new();
    program.push_runs(&per_image, batch as u64);
    program
}

/// Compiles a fully-connected layer. FC layers have no sliding window, so
/// they always run inter-kernel; they are invariably DRAM-bound on their
/// weight stream.
///
/// # Errors
///
/// Returns a [`CompileError`] if the activations overflow the data buffer.
pub fn compile_fc(layer: &Layer, cfg: &AcceleratorConfig) -> Result<CompiledLayer, CompileError> {
    compile_fc_batched(layer, cfg, 1)
}

/// Compiles a fully-connected layer for a batch of `batch` images. When
/// the batch's activations fit on chip, the weight chunks stream in the
/// outer loop and are fetched once for the whole batch — the classic
/// batching pay-off for weight-bound classifier layers.
///
/// # Errors
///
/// See [`compile_fc`].
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn compile_fc_batched(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    batch: usize,
) -> Result<CompiledLayer, CompileError> {
    assert!(batch > 0, "batch must be non-zero");
    let LayerKind::FullyConnected(params) = &layer.kind else {
        return Err(CompileError::NotConvolution {
            layer: layer.name.clone(),
        });
    };
    let tin = cfg.pe.tin;
    let tout = cfg.pe.tout;
    let in_vars = crate::emit::block_variants(params.in_features, tin);
    let out_vars = crate::emit::block_variants(params.out_features, tout);

    let mut template = Vec::new();
    for &(il, icount) in &in_vars {
        for &(ol, ocount) in &out_vars {
            template.push(MacroOp::MacBurst {
                bursts: icount * ocount,
                active_lanes: (il * ol) as u32,
                input_reads: il as u32,
                input_requests: 1,
                weight_reads: (il * ol) as u32,
                psum_reads: 0,
                output_writes: 0,
            });
        }
    }
    template.push(MacroOp::OutputWrite {
        elems: params.out_features as u64,
    });
    template.push(MacroOp::BiasLoad {
        elems: params.out_features as u64,
    });

    let in_bytes = (params.in_features * ELEM_BYTES) as u64;
    let out_bytes = (params.out_features * ELEM_BYTES) as u64;
    let weight_bytes = (params.in_features * params.out_features * ELEM_BYTES) as u64;
    let plan = TilePlan::flat(in_bytes, out_bytes, weight_bytes, cfg).map_err(|e| match e {
        CompileError::WorkingSetTooLarge {
            required,
            available,
            ..
        } => CompileError::WorkingSetTooLarge {
            layer: layer.name.clone(),
            required,
            available,
        },
        other => other,
    })?;
    Ok(CompiledLayer {
        program: plan.build_program(&template, batch, None),
        scheme: Some(Scheme::Inter),
        wants_input_layout: DataLayout::InterOrder,
        output_layout: DataLayout::InterOrder,
        tiles: plan,
    })
}

/// Compiles any layer; convolutions use `scheme`, pools and FC their fixed
/// mapping.
///
/// # Errors
///
/// See [`compile_conv`], [`compile_pool`], [`compile_fc`].
pub fn compile_layer(
    layer: &Layer,
    scheme: Scheme,
    cfg: &AcceleratorConfig,
) -> Result<CompiledLayer, CompileError> {
    compile_layer_batched(layer, scheme, cfg, 1)
}

/// Compiles any layer for a batch of `batch` images.
///
/// # Errors
///
/// See [`compile_layer`].
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn compile_layer_batched(
    layer: &Layer,
    scheme: Scheme,
    cfg: &AcceleratorConfig,
    batch: usize,
) -> Result<CompiledLayer, CompileError> {
    match layer.kind {
        LayerKind::Conv(_) => compile_conv_batched(layer, scheme, cfg, batch),
        LayerKind::Pool(_) => compile_pool_batched(layer, cfg, batch),
        LayerKind::FullyConnected(_) => compile_fc_batched(layer, cfg, batch),
        LayerKind::Eltwise(_) => compile_eltwise_batched(layer, cfg, batch),
    }
}

/// A standalone layout-transform program: streams a tensor out to memory
/// and back in the other order. The adaptive mapper exists precisely to
/// avoid these (Sec. 4.2.3); the ablation bench inserts them.
pub fn layout_transform_program(shape: TensorShape) -> Program {
    let bytes = shape.bytes() as u64;
    Program::single_tile(Tile {
        dram_read_bytes: bytes,
        dram_write_bytes: bytes,
        ops: Vec::new(),
    })
}

/// The upper-bound cycle count the paper plots as "ideal": every multiplier
/// 100% utilized, alignment free.
///
/// # Errors
///
/// Propagates shape errors for invalid layers.
pub fn ideal_cycles(layer: &Layer, cfg: &AcceleratorConfig) -> Result<u64, CompileError> {
    let macs = layer.macs()?;
    Ok(macs.div_ceil(cfg.pe.multipliers() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::zoo;
    use cbrain_sim::Machine;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_16_16()
    }

    #[test]
    fn compile_all_alexnet_layers_under_every_scheme() {
        let net = zoo::alexnet();
        for layer in net.layers() {
            for scheme in Scheme::ALL {
                let compiled = compile_layer(layer, scheme, &cfg()).unwrap();
                assert!(compiled.program.op_count() > 0, "{}", layer.name);
            }
        }
    }

    #[test]
    fn conv_macs_preserved_through_compilation() {
        let net = zoo::alexnet();
        let machine = Machine::new(cfg());
        for scheme in [Scheme::Inter, Scheme::InterImproved, Scheme::Intra] {
            let compiled = compile_conv(net.conv1(), scheme, &cfg()).unwrap();
            let stats = machine.run(&compiled.program);
            assert_eq!(
                stats.mac_ops,
                net.conv1().macs().unwrap(),
                "scheme {scheme}"
            );
        }
    }

    #[test]
    fn unroll_prepass_present_only_when_k_differs_from_s() {
        let net = zoo::alexnet();
        // conv1: k=11, s=4 -> unrolling pre-pass tile with no ops.
        let c = compile_conv(net.conv1(), Scheme::Intra, &cfg()).unwrap();
        let tiles = c.program.to_program().tiles;
        assert!(tiles[0].ops.is_empty());
        assert!(tiles[0].dram_write_bytes > tiles[0].dram_read_bytes);
        // Inter never needs one.
        let c = compile_conv(net.conv1(), Scheme::Inter, &cfg()).unwrap();
        assert!(!c.program.to_program().tiles[0].ops.is_empty());
    }

    #[test]
    fn partition_beats_inter_on_conv1_cycles() {
        let net = zoo::alexnet();
        let machine = Machine::new(cfg());
        let inter = machine.run(
            &compile_conv(net.conv1(), Scheme::Inter, &cfg())
                .unwrap()
                .program,
        );
        let part = machine.run(
            &compile_conv(net.conv1(), Scheme::Partition, &cfg())
                .unwrap()
                .program,
        );
        let speedup = inter.cycles as f64 / part.cycles as f64;
        assert!(speedup > 3.0, "speedup={speedup}");
    }

    #[test]
    fn vgg_fc6_is_dram_bound() {
        let net = zoo::vgg16();
        let fc6 = net.layer("fc6").unwrap();
        let compiled = compile_fc(fc6, &cfg()).unwrap();
        let stats = Machine::new(cfg()).run(&compiled.program);
        assert!(stats.dram_stall_cycles > stats.compute_cycles);
        // Weight stream dominates DRAM traffic.
        assert!(stats.dram_read_bytes > 190_000_000); // ~196 MiB weight stream
    }

    #[test]
    fn pool_compiles_and_counts_traffic() {
        let net = zoo::alexnet();
        let pool = net.layer("pool1").unwrap();
        let compiled = compile_pool(pool, &cfg()).unwrap();
        let stats = Machine::new(cfg()).run(&compiled.program);
        let out_elems = 96 * 27 * 27u64;
        assert_eq!(stats.output_buf.stores, out_elems);
        assert_eq!(stats.input_buf.loads, out_elems * 9);
        assert!(stats.compute_cycles >= out_elems);
    }

    #[test]
    fn big_vgg_pool_splits_into_bands() {
        let net = zoo::vgg16();
        let pool = net.layer("pool1").unwrap();
        let compiled = compile_pool(pool, &cfg()).unwrap();
        assert!(compiled.program.to_program().tiles.len() > 1);
    }

    #[test]
    fn ideal_cycles_is_macs_over_multipliers() {
        let net = zoo::alexnet();
        let ideal = ideal_cycles(net.conv1(), &cfg()).unwrap();
        assert_eq!(ideal, net.conv1().macs().unwrap().div_ceil(256));
    }

    #[test]
    fn layout_transform_is_a_memory_round_trip() {
        let p = layout_transform_program(TensorShape::new(96, 55, 55));
        assert_eq!(p.dram_bytes(), 2 * 96 * 55 * 55 * 2);
    }

    #[test]
    fn layout_contracts_follow_scheme() {
        let net = zoo::alexnet();
        let c = compile_conv(net.conv1(), Scheme::Partition, &cfg()).unwrap();
        assert_eq!(c.wants_input_layout, DataLayout::IntraOrder);
        let c = compile_conv(net.conv1(), Scheme::Inter, &cfg()).unwrap();
        assert_eq!(c.wants_input_layout, DataLayout::InterOrder);
    }
}
