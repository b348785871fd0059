//! Differential tests of run-length tile programs.
//!
//! The compiler emits each layer as runs of identical tiles and the
//! machine charges each run once. The oracle here is a one-tile-per-copy
//! tiler: it materializes one tile per group, spatial band, weight chunk
//! and image, and splices one unroll pre-pass ahead of each image. Every
//! zoo layer under every scheme, PE shape and batch, and a seeded set of
//! random plans and templates, must expand to exactly the oracle's tiles,
//! simulate and trace to the same result as that expansion, and survive
//! the cache entry codec: decode to the same runs and re-encode to the
//! same bytes.

use cbrain::cache::{CachedLayer, LayerKey};
use cbrain::persist::{decode_entry_bytes, entry_bytes};
use cbrain::RunOptions;
use cbrain_compiler::{
    compile_layer_batched, emit_inter, emit_intra, emit_partition, CompiledLayer, ConvGeometry,
    DataLayout, Scheme, TilePlan,
};
use cbrain_model::rng::XorShift64;
use cbrain_model::{zoo, Layer, LayerKind, ELEM_BYTES};
use cbrain_sim::{
    AcceleratorConfig, Machine, MachineOptions, MacroOp, PeConfig, Program, RunProgram, Tile,
};
use std::collections::HashSet;

const PES: [(usize, usize); 5] = [(8, 8), (16, 16), (32, 32), (16, 8), (4, 12)];
const BATCHES: [usize; 4] = [1, 2, 3, 4];
const MACHINES: [MachineOptions; 3] = [
    MachineOptions {
        overlap_dma: true,
        add_store_on_critical_path: false,
    },
    MachineOptions {
        overlap_dma: false,
        add_store_on_critical_path: false,
    },
    MachineOptions {
        overlap_dma: true,
        add_store_on_critical_path: true,
    },
];

// ---------------------------------------------------------------------
// The oracle: the one-tile-per-copy tiler, verbatim.
// ---------------------------------------------------------------------

fn oracle_build_tiles_batched(plan: &TilePlan, template: &[MacroOp], batch: usize) -> Vec<Tile> {
    assert!(batch > 0, "batch must be non-zero");
    if batch > 1
        && !plan.weights_resident
        && plan.spatial_tiles == 1
        && plan.groups == 1
        && batch <= plan.max_weight_outer_batch
    {
        let n = plan.weight_chunks as u64;
        let total_scale = batch as u64;
        let mut tiles = Vec::with_capacity(plan.weight_chunks);
        for i in 0..n {
            let share =
                |total: u64| (total * total_scale * (i + 1)) / n - (total * total_scale * i) / n;
            let ops: Vec<MacroOp> = template
                .iter()
                .filter_map(|op| oracle_scale_op(op, &share))
                .collect();
            let mut read = plan.weight_chunk_bytes;
            if i == 0 {
                read += plan.input_tile_bytes * batch as u64;
            }
            let write = if i == n - 1 {
                plan.output_group_bytes * batch as u64
            } else {
                0
            };
            tiles.push(Tile {
                dram_read_bytes: read,
                dram_write_bytes: write,
                ops,
            });
        }
        return tiles;
    }
    let n = plan.tile_count() as u64;
    let mut tiles = Vec::with_capacity(n as usize * batch);
    for image in 0..batch as u64 {
        for i in 0..n {
            let share = |total: u64| (total * (i + 1)) / n - (total * i) / n;
            let ops: Vec<MacroOp> = template
                .iter()
                .filter_map(|op| oracle_scale_op(op, &share))
                .collect();
            let chunk = (i % plan.weight_chunks as u64) as usize;
            let spatial = ((i / plan.weight_chunks as u64) % plan.spatial_tiles as u64) as usize;
            let mut read = 0;
            if chunk == 0 {
                read += plan.input_tile_bytes;
            }
            if plan.weights_resident {
                if image == 0 && i == 0 {
                    read += plan.weight_chunk_bytes * (plan.weight_chunks * plan.groups) as u64;
                }
            } else {
                read += plan.weight_chunk_bytes;
            }
            let write = if chunk == plan.weight_chunks - 1 {
                let nb = plan.spatial_tiles as u64;
                let sp = spatial as u64;
                (plan.output_group_bytes * (sp + 1)) / nb - (plan.output_group_bytes * sp) / nb
            } else {
                0
            };
            tiles.push(Tile {
                dram_read_bytes: read,
                dram_write_bytes: write,
                ops,
            });
        }
    }
    tiles
}

fn oracle_scale_op(op: &MacroOp, share: &dyn Fn(u64) -> u64) -> Option<MacroOp> {
    match *op {
        MacroOp::MacBurst {
            bursts,
            active_lanes,
            input_reads,
            input_requests,
            weight_reads,
            psum_reads,
            output_writes,
        } => {
            let b = share(bursts);
            (b > 0).then_some(MacroOp::MacBurst {
                bursts: b,
                active_lanes,
                input_reads,
                input_requests,
                weight_reads,
                psum_reads,
                output_writes,
            })
        }
        MacroOp::AddStore { count } => {
            let c = share(count);
            (c > 0).then_some(MacroOp::AddStore { count: c })
        }
        MacroOp::OutputWrite { elems } => {
            let e = share(elems);
            (e > 0).then_some(MacroOp::OutputWrite { elems: e })
        }
        MacroOp::PoolBurst {
            bursts,
            input_reads,
            output_writes,
        } => {
            let b = share(bursts);
            (b > 0).then_some(MacroOp::PoolBurst {
                bursts: b,
                input_reads,
                output_writes,
            })
        }
        MacroOp::EltwiseBurst {
            bursts,
            input_reads,
            output_writes,
        } => {
            let b = share(bursts);
            (b > 0).then_some(MacroOp::EltwiseBurst {
                bursts: b,
                input_reads,
                output_writes,
            })
        }
        MacroOp::BiasLoad { elems } => {
            let e = share(elems);
            (e > 0).then_some(MacroOp::BiasLoad { elems: e })
        }
    }
}

/// The unroll pre-pass insertion: one pre-pass ahead of each image's
/// `per_image` tiles.
fn oracle_insert_prepass(tiles: &mut Vec<Tile>, prepass: &Tile, per_image: usize, batch: usize) {
    for image in (0..batch).rev() {
        tiles.insert(image * per_image, prepass.clone());
    }
}

/// A weight-free layer's bands, each image a copy of the first.
fn oracle_bands(
    template: MacroOp,
    in_bytes: u64,
    out_bytes: u64,
    cap: u64,
    batch: usize,
) -> Vec<Tile> {
    let bands = ((in_bytes + out_bytes).div_ceil(cap)).max(1);
    let mut tiles = Vec::with_capacity(bands as usize);
    for i in 0..bands {
        let share = |total: u64| (total * (i + 1)) / bands - (total * i) / bands;
        let op = match template {
            MacroOp::PoolBurst {
                bursts,
                input_reads,
                output_writes,
            } => MacroOp::PoolBurst {
                bursts: share(bursts),
                input_reads,
                output_writes,
            },
            MacroOp::EltwiseBurst {
                bursts,
                input_reads,
                output_writes,
            } => MacroOp::EltwiseBurst {
                bursts: share(bursts),
                input_reads,
                output_writes,
            },
            other => other,
        };
        tiles.push(Tile {
            dram_read_bytes: share(in_bytes),
            dram_write_bytes: share(out_bytes),
            ops: vec![op],
        });
    }
    let per_image = tiles.clone();
    for _ in 1..batch {
        tiles.extend(per_image.iter().cloned());
    }
    tiles
}

fn block_variants(total: usize, width: usize) -> Vec<(usize, u64)> {
    let (full, rem) = ((total / width) as u64, total % width);
    let mut v = Vec::new();
    if full > 0 {
        v.push((width, full));
    }
    if rem > 0 {
        v.push((rem, 1));
    }
    v
}

/// The tiles the one-tile-per-copy compiler produced for a layer, or
/// `None` where it failed to plan.
fn oracle_layer(
    layer: &Layer,
    scheme: Scheme,
    cfg: &AcceleratorConfig,
    batch: usize,
) -> Option<Vec<Tile>> {
    match &layer.kind {
        LayerKind::Conv(_) => {
            let geom = ConvGeometry::from_layer(layer).ok()?;
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
            let plan = TilePlan::conv(&geom, cfg, inflation).ok()?;
            let mut tiles = oracle_build_tiles_batched(&plan, &template, batch);
            if needs_unroll {
                let raw = geom.input_bytes();
                let prepass = Tile {
                    dram_read_bytes: raw,
                    dram_write_bytes: (raw as f64 * inflation).ceil() as u64,
                    ops: Vec::new(),
                };
                oracle_insert_prepass(&mut tiles, &prepass, plan.tile_count(), batch);
            }
            Some(tiles)
        }
        LayerKind::Pool(params) => {
            let out = params.output_shape(layer.input).ok()?;
            let window = params.kernel * params.kernel;
            let issues_per_window = window.div_ceil(cfg.pe.tin) as u64;
            let template = MacroOp::PoolBurst {
                bursts: out.elems() as u64 * issues_per_window,
                input_reads: (window.div_ceil(issues_per_window as usize)) as u32,
                output_writes: 1,
            };
            let (in_bytes, out_bytes) = (layer.input.bytes() as u64, out.bytes() as u64);
            let cap = cfg.inout_buf_bytes as u64;
            Some(oracle_bands(template, in_bytes, out_bytes, cap, batch))
        }
        LayerKind::Eltwise(_) => {
            let template = MacroOp::EltwiseBurst {
                bursts: (layer.input.elems() as u64).div_ceil(cfg.pe.tin as u64),
                input_reads: (2 * cfg.pe.tin) as u32,
                output_writes: cfg.pe.tin as u32,
            };
            let bytes = layer.input.bytes() as u64;
            let cap = cfg.inout_buf_bytes as u64;
            Some(oracle_bands(template, 2 * bytes, bytes, cap, batch))
        }
        LayerKind::FullyConnected(params) => {
            let mut template = Vec::new();
            for &(il, icount) in &block_variants(params.in_features, cfg.pe.tin) {
                for &(ol, ocount) in &block_variants(params.out_features, cfg.pe.tout) {
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
            let plan = TilePlan::flat(
                (params.in_features * ELEM_BYTES) as u64,
                (params.out_features * ELEM_BYTES) as u64,
                (params.in_features * params.out_features * ELEM_BYTES) as u64,
                cfg,
            )
            .ok()?;
            Some(oracle_build_tiles_batched(&plan, &template, batch))
        }
    }
}

// ---------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------

/// Runs are canonical: none empty, no two neighbours equal, and the
/// `Debug` form is that of the merged expansion.
fn assert_canonical(program: &RunProgram, ctx: &str) {
    assert!(program.runs().iter().all(|r| r.repeat > 0), "{ctx}");
    assert!(
        program.runs().windows(2).all(|w| w[0].tile != w[1].tile),
        "{ctx}: neighbouring runs hold equal tiles"
    );
    let mut merged = RunProgram::new();
    for tile in program.to_program().tiles {
        merged.push(tile, 1);
    }
    assert_eq!(format!("{program:?}"), format!("{merged:?}"), "{ctx}");
}

/// Simulating and tracing the runs equals simulating and tracing their
/// expansion, under every machine option.
fn assert_simulates_like(cfg: AcceleratorConfig, runs: &RunProgram, expanded: &Program, ctx: &str) {
    for opts in MACHINES {
        let machine = Machine::with_options(cfg, opts);
        assert_eq!(machine.run(runs), machine.run(expanded), "{ctx} {opts:?}");
    }
    let machine = Machine::new(cfg);
    for capacity in [0, 7, 4096] {
        let (a, ta) = machine.run_traced(runs, capacity);
        let (b, tb) = machine.run_traced(expanded, capacity);
        assert_eq!(a, b, "{ctx} traced");
        assert_eq!(ta.events(), tb.events(), "{ctx} trace events");
        assert_eq!(ta.dropped(), tb.dropped(), "{ctx} trace drops");
    }
}

/// The entry decodes to the same key and runs, whose expansion is the
/// oracle's tiles, and re-encodes to the same bytes.
fn assert_entry_bytes(key: &LayerKey, compiled: &CompiledLayer, tiles: &[Tile], ctx: &str) {
    let stats = Machine::with_options(key.cfg, key.machine).run(&compiled.program);
    let entry = CachedLayer {
        compiled: compiled.clone(),
        stats,
    };
    let bytes = entry_bytes(key, &entry);
    let (decoded_key, decoded) = decode_entry_bytes(&bytes).expect("decodes");
    assert_eq!(decoded_key, *key, "{ctx}");
    let program = &decoded.compiled.program;
    assert_eq!(
        program.runs(),
        compiled.program.runs(),
        "{ctx}: runs differ"
    );
    assert_eq!(
        program.to_program().tiles,
        tiles,
        "{ctx}: expansion differs"
    );
    assert_eq!(
        format!("{:?}", decoded.compiled),
        format!("{:?}", entry.compiled),
        "{ctx}"
    );
    assert_eq!(
        entry_bytes(&decoded_key, &decoded),
        bytes,
        "{ctx}: re-encoding changed the bytes"
    );
}

/// One layer per distinct geometry across the zoo.
fn zoo_layers() -> Vec<Layer> {
    let mut seen = HashSet::new();
    zoo::all()
        .iter()
        .flat_map(|net| net.layers().iter().cloned())
        .filter(|l| seen.insert((l.kind, l.input)))
        .collect()
}

#[test]
fn every_zoo_layer_expands_to_the_oracle_tiles_and_simulates_alike() {
    let layers = zoo_layers();
    let mut cells = 0;
    for (tin, tout) in PES {
        let cfg = AcceleratorConfig::with_pe(PeConfig::new(tin, tout));
        for batch in BATCHES {
            let opts = RunOptions {
                batch,
                ..RunOptions::default()
            };
            for layer in &layers {
                let schemes: &[Scheme] = if layer.as_conv().is_some() {
                    &Scheme::ALL
                } else {
                    &[Scheme::Inter]
                };
                for &scheme in schemes {
                    let ctx = format!("{} {scheme} pe{tin}x{tout} b{batch}", layer.name);
                    let compiled = compile_layer_batched(layer, scheme, &cfg, batch);
                    let Some(tiles) = oracle_layer(layer, scheme, &cfg, batch) else {
                        assert!(compiled.is_err(), "{ctx}: compiled where the oracle failed");
                        continue;
                    };
                    let compiled = compiled.expect("compiles where the oracle did");
                    let program = &compiled.program;
                    assert_eq!(
                        program.to_program().tiles,
                        tiles,
                        "{ctx}: expansion differs"
                    );
                    assert_eq!(program.tile_count(), tiles.len() as u64, "{ctx}");
                    let expanded = Program::new(tiles);
                    assert_eq!(program.op_count(), expanded.op_count(), "{ctx}");
                    assert_eq!(program.dram_bytes(), expanded.dram_bytes(), "{ctx}");
                    assert_canonical(program, &ctx);
                    assert_simulates_like(cfg, program, &expanded, &ctx);
                    let key = LayerKey::new(layer, scheme, &cfg, &opts);
                    assert_entry_bytes(&key, &compiled, &expanded.tiles, &ctx);
                    cells += 1;
                }
            }
        }
    }
    assert!(cells > 5_000, "only {cells} cells ran");
}

#[test]
fn depthwise_layers_compile_to_a_few_runs() {
    // A depthwise layer is one tile per group per image when
    // materialized, hundreds of tiles for mobilenet_dw's wider layers.
    let net = zoo::by_name("mobilenet_dw").expect("zoo network");
    let cfg = AcceleratorConfig::paper_16_16();
    let mut depthwise = 0;
    for layer in net.conv_layers() {
        let conv = layer.as_conv().expect("conv");
        if conv.groups == 1 {
            continue;
        }
        depthwise += 1;
        for scheme in Scheme::ALL {
            for batch in BATCHES {
                let compiled = compile_layer_batched(layer, scheme, &cfg, batch).expect("compiles");
                let runs = compiled.program.runs().len();
                // Per image at most a pre-pass and one run, plus the
                // first tile, which fetches the resident weights.
                assert!(
                    runs <= 2 * batch + 1,
                    "{} {scheme} b{batch}: {runs} runs for {} tiles",
                    layer.name,
                    compiled.program.tile_count()
                );
            }
        }
    }
    assert!(depthwise > 0, "mobilenet_dw has depthwise layers");
}

fn random_op(rng: &mut XorShift64, volume: u64) -> MacroOp {
    let small = |rng: &mut XorShift64| 1 + rng.below(64) as u32;
    match rng.below(6) {
        0 => MacroOp::MacBurst {
            bursts: volume,
            active_lanes: small(rng),
            input_reads: small(rng),
            input_requests: small(rng),
            weight_reads: small(rng),
            psum_reads: small(rng),
            output_writes: small(rng),
        },
        1 => MacroOp::AddStore { count: volume },
        2 => MacroOp::OutputWrite { elems: volume },
        3 => MacroOp::PoolBurst {
            bursts: volume,
            input_reads: small(rng),
            output_writes: small(rng),
        },
        4 => MacroOp::BiasLoad { elems: volume },
        _ => MacroOp::EltwiseBurst {
            bursts: volume,
            input_reads: small(rng),
            output_writes: small(rng),
        },
    }
}

fn random_plan(rng: &mut XorShift64) -> TilePlan {
    let weight_outer = rng.below(4) == 0;
    let (spatial_tiles, groups) = if weight_outer {
        (1, 1)
    } else {
        (
            rng.range_usize(1, 4),
            [1, 2, 3, 4, 6, 8, 32][rng.below(7) as usize],
        )
    };
    TilePlan {
        spatial_tiles,
        weight_chunks: rng.range_usize(1, 5),
        groups,
        input_tile_bytes: rng.below(1 << 20),
        output_tile_bytes: rng.below(1 << 20),
        weight_chunk_bytes: rng.below(1 << 20),
        weights_resident: !weight_outer && rng.below(2) == 0,
        output_group_bytes: rng.below(1 << 20),
        max_weight_outer_batch: rng.range_usize(1, 4),
    }
}

/// Template counts: multiples of `groups` (each group repeats the
/// first), arbitrary counts (the per-tile fallback), or fewer than the
/// tiles (some shares are empty and drop).
fn random_template(rng: &mut XorShift64, plan: &TilePlan) -> Vec<MacroOp> {
    let groups = plan.groups as u64;
    let tiles = plan.tile_count() as u64;
    let divisible = rng.below(2) == 0;
    (0..rng.range_usize(0, 4))
        .map(|_| {
            let volume = match rng.below(4) {
                0 => rng.below(tiles + 1),
                _ if divisible => groups * rng.below(1 << 16),
                _ => rng.below(1 << 20),
            };
            let volume = if divisible {
                volume / groups * groups
            } else {
                volume
            };
            random_op(rng, volume)
        })
        .collect()
}

#[test]
fn random_plans_expand_to_the_oracle_tiles_and_simulate_alike() {
    let mut rng = XorShift64::seed_from_u64(0x5EED_0717);
    let cfg = AcceleratorConfig::paper_16_16();
    let net = zoo::alexnet();
    let key_layer = net.conv1();
    let (mut periodic, mut fallback, mut weight_outer) = (0, 0, 0);
    for case in 0..400 {
        let plan = random_plan(&mut rng);
        let template = random_template(&mut rng, &plan);
        let prepass = Tile {
            dram_read_bytes: rng.below(1 << 20),
            dram_write_bytes: rng.below(1 << 22),
            ops: Vec::new(),
        };
        if plan.groups > 1 {
            if template.iter().all(|op| {
                let v = match *op {
                    MacroOp::MacBurst { bursts, .. }
                    | MacroOp::PoolBurst { bursts, .. }
                    | MacroOp::EltwiseBurst { bursts, .. } => bursts,
                    MacroOp::AddStore { count } => count,
                    MacroOp::OutputWrite { elems } | MacroOp::BiasLoad { elems } => elems,
                };
                v.is_multiple_of(plan.groups as u64)
            }) {
                periodic += 1;
            } else {
                fallback += 1;
            }
        }
        for batch in BATCHES {
            let ctx = format!("case {case} b{batch} {plan:?} {template:?}");
            let oracle = oracle_build_tiles_batched(&plan, &template, batch);
            let program = plan.build_program(&template, batch, None);
            assert_eq!(program.to_program().tiles, oracle, "{ctx}");
            let expanded = Program::new(oracle);
            assert_canonical(&program, &ctx);
            assert_simulates_like(cfg, &program, &expanded, &ctx);

            let is_weight_outer = batch > 1
                && !plan.weights_resident
                && plan.spatial_tiles == 1
                && plan.groups == 1
                && batch <= plan.max_weight_outer_batch;
            if is_weight_outer {
                weight_outer += 1;
            } else {
                // The pre-pass only ever precedes image-outer tiles.
                let mut tiles = expanded.tiles.clone();
                oracle_insert_prepass(&mut tiles, &prepass, plan.tile_count(), batch);
                let with = plan.build_program(&template, batch, Some(&prepass));
                let expanded = Program::new(tiles);
                assert_eq!(with.to_program(), expanded, "{ctx} with pre-pass");
                assert_canonical(&with, &ctx);
                assert_simulates_like(cfg, &with, &expanded, &ctx);
            }

            let compiled = CompiledLayer {
                program,
                scheme: Some(Scheme::Inter),
                wants_input_layout: DataLayout::InterOrder,
                output_layout: DataLayout::InterOrder,
                tiles: plan,
            };
            let opts = RunOptions {
                batch,
                ..RunOptions::default()
            };
            let key = LayerKey::new(key_layer, Scheme::Inter, &cfg, &opts);
            assert_entry_bytes(&key, &compiled, &expanded.tiles, &ctx);
        }
    }
    assert!(
        periodic > 20 && fallback > 20 && weight_outer > 20,
        "coverage: {periodic} periodic, {fallback} fallback, {weight_outer} weight-outer"
    );
}
