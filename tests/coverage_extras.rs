//! Additional cross-crate coverage: corners that the main suites touch
//! only implicitly.

use cbrain::{Policy, RunOptions, Runner, Scheme, Workload};
use cbrain_compiler::{compile_conv, ConvGeometry};
use cbrain_model::{zoo, ConvParams, Layer, TensorShape};
use cbrain_sim::{AcceleratorConfig, Machine};

#[test]
fn one_by_one_intra_is_a_pure_sliding_window() {
    // k = s = 1: the intra scheme needs no unrolling pre-pass and packs
    // Tin windows per burst at full utilization.
    let layer = Layer::conv(
        "cccp",
        TensorShape::new(64, 14, 14),
        ConvParams::new(64, 64, 1, 1, 0),
    );
    let cfg = AcceleratorConfig::paper_16_16();
    let compiled = compile_conv(&layer, Scheme::Intra, &cfg).unwrap();
    // No empty-ops unroll pre-pass tile.
    assert!(compiled
        .program
        .to_program()
        .tiles
        .iter()
        .all(|t| !t.ops.is_empty()));
    let stats = Machine::new(cfg).run(&compiled.program);
    assert_eq!(stats.mac_ops, layer.macs().unwrap());
    // 196 windows pack 16/burst: 12 full + 1 remainder burst + 1 refill
    // slot per (map, dout block) -> 87.5% on this small map.
    assert!(stats.pe_utilization() > 0.85, "{}", stats.pe_utilization());
}

#[test]
fn oracle_run_layer_picks_partition_on_conv1() {
    let runner = Runner::new(AcceleratorConfig::paper_16_16());
    let net = zoo::alexnet();
    let oracle = runner.run_layer(net.conv1(), Policy::Oracle).unwrap();
    assert_eq!(oracle.scheme, Some(Scheme::Partition));
    // And is at least as good as every fixed arm on this layer.
    for scheme in Scheme::ALL {
        let fixed = runner
            .run_layer(net.conv1(), Policy::Fixed(scheme))
            .unwrap();
        assert!(oracle.stats.cycles <= fixed.stats.cycles, "{scheme}");
    }
}

#[test]
fn zhang_pays_the_shallow_input_tax_on_every_conv1() {
    use cbrain_baselines::zhang::ZhangConfig;
    let cfg = ZhangConfig::paper();
    for net in zoo::all() {
        let cycles = cfg.layer_cycles(net.conv1());
        let ideal = net.conv1().macs().unwrap() / (cfg.tm * cfg.tn) as u64;
        // Din = 3 of Tn = 7: at best 3/7 of the MAC tiles are useful.
        assert!(
            cycles as f64 > 2.0 * ideal as f64,
            "{}: {} vs {}",
            net.name(),
            cycles,
            ideal
        );
    }
}

#[test]
fn batch_interacts_correctly_with_conv1_workload() {
    let net = zoo::alexnet();
    let mk = |batch| {
        Runner::with_options(
            AcceleratorConfig::paper_16_16(),
            RunOptions {
                workload: Workload::Conv1Only,
                batch,
                ..RunOptions::default()
            },
        )
    };
    let one = mk(1).run_network(&net, Policy::PAPER_ARMS[4]).unwrap();
    let four = mk(4).run_network(&net, Policy::PAPER_ARMS[4]).unwrap();
    assert_eq!(four.totals.mac_ops, 4 * one.totals.mac_ops);
    // conv1 weights are tiny and resident: DRAM grows sub-linearly.
    assert!(four.totals.dram_bytes() < 4 * one.totals.dram_bytes());
    // ...but compute scales linearly.
    assert_eq!(four.totals.compute_cycles, 4 * one.totals.compute_cycles);
}

#[test]
fn grouped_conv1_variant_still_partitions_exactly() {
    // A grouped bottom layer (hypothetical): the functional check must
    // hold with groups and partitioning interacting.
    use cbrain::functional::partition_forward;
    use cbrain_model::{reference, ConvWeights, Tensor3};
    let params = ConvParams::grouped(6, 8, 7, 2, 3, 2);
    let input = Tensor3::random(TensorShape::new(6, 29, 29), 77);
    let weights = ConvWeights::random(&params, 78);
    let ours = partition_forward(&input, &weights, None, &params).unwrap();
    let truth = reference::conv_forward(&input, &weights, None, &params).unwrap();
    assert!(ours.max_abs_diff(&truth) < 1e-3);
}

#[test]
fn geometry_of_every_googlenet_conv_is_consistent() {
    let net = zoo::googlenet();
    let cfg = AcceleratorConfig::paper_16_16();
    for layer in net.conv_layers() {
        let geom = ConvGeometry::from_layer(layer).unwrap();
        assert_eq!(geom.macs(), layer.macs().unwrap(), "{}", layer.name);
        // Partitioning is well-defined for every layer shape in the zoo.
        let (g, ks) = geom.partition();
        assert!(g >= 1 && ks >= 1, "{}", layer.name);
        // Analytic == simulated for a spot scheme (full check lives in
        // compiler::cost; this guards the public API path).
        let cost = cbrain_compiler::cost::analytic_cost(&geom, Scheme::Inter, &cfg);
        let stats =
            Machine::new(cfg).run(&compile_conv(layer, Scheme::Inter, &cfg).unwrap().program);
        assert_eq!(cost.compute_cycles, stats.compute_cycles, "{}", layer.name);
    }
}

#[test]
fn quantized_forward_stays_accurate_on_a_real_conv1_slice() {
    // The 16-bit datapath claim on a realistically shaped (if narrowed)
    // conv1: 3 maps, 11x11 kernel, stride 4.
    use cbrain::quantized::conv_forward_q16;
    use cbrain_model::{ConvWeights, Tensor3};
    let params = ConvParams::new(3, 8, 11, 4, 0);
    let input = Tensor3::random(TensorShape::new(3, 59, 59), 5);
    let weights = ConvWeights::random(&params, 6);
    let run = conv_forward_q16(&input, &weights, None, &params).unwrap();
    // 363-element reductions of unit-scale Q7.8 operands: still tight.
    assert!(run.rms_error < 0.05, "{}", run.rms_error);
    assert!(run.max_abs_error < 0.5, "{}", run.max_abs_error);
}

#[test]
fn trace_of_a_tiled_layer_spans_tiles() {
    use cbrain_compiler::Scheme;
    let net = zoo::vgg16();
    let layer = net.layer("conv1_2").unwrap();
    let cfg = AcceleratorConfig::paper_16_16();
    let compiled = compile_conv(layer, Scheme::Inter, &cfg).unwrap();
    assert!(compiled.program.to_program().tiles.len() > 1);
    let (_, trace) = Machine::new(cfg).run_traced(&compiled.program, 1000);
    let max_tile = trace.events().iter().map(|e| e.tile).max().unwrap();
    assert!(max_tile > 0, "trace should cover multiple tiles");
    // Start cycles are monotonically non-decreasing across the program.
    let starts: Vec<u64> = trace.events().iter().map(|e| e.start_cycle).collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]));
}
