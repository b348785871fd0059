//! End-to-end pipeline tests spanning all crates: model -> compiler ->
//! simulator -> runner, checked for conservation laws on every zoo layer.

use cbrain::{Policy, Runner, Scheme};
use cbrain_compiler::{compile_conv, compile_layer, ideal_cycles};
use cbrain_model::{zoo, LayerKind};
use cbrain_sim::{AcceleratorConfig, Machine};

fn configs() -> [AcceleratorConfig; 2] {
    [
        AcceleratorConfig::paper_16_16(),
        AcceleratorConfig::paper_32_32(),
    ]
}

#[test]
fn every_zoo_layer_compiles_under_every_scheme_and_config() {
    for cfg in configs() {
        for net in zoo::all() {
            for layer in net.layers() {
                for scheme in Scheme::ALL {
                    let compiled = compile_layer(layer, scheme, &cfg)
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", net.name(), layer.name));
                    assert!(
                        !compiled.program.to_program().tiles.is_empty(),
                        "{}/{}",
                        net.name(),
                        layer.name
                    );
                }
            }
        }
    }
}

#[test]
fn mac_count_is_conserved_for_non_padding_schemes() {
    // Inter, improved-inter and intra perform exactly the layer's MACs;
    // partitioning may add zero-padding MACs but never loses any.
    for cfg in configs() {
        let machine = Machine::new(cfg);
        for net in zoo::all() {
            for layer in net.conv_layers() {
                let macs = layer.macs().expect("valid layer");
                for scheme in [Scheme::Inter, Scheme::InterImproved, Scheme::Intra] {
                    let compiled = compile_conv(layer, scheme, &cfg).expect("compiles");
                    let stats = machine.run(&compiled.program);
                    assert_eq!(
                        stats.mac_ops,
                        macs,
                        "{}/{} under {scheme}",
                        net.name(),
                        layer.name
                    );
                }
                let compiled = compile_conv(layer, Scheme::Partition, &cfg).expect("compiles");
                let stats = machine.run(&compiled.program);
                assert!(
                    stats.mac_ops >= macs,
                    "{}/{} partition lost MACs",
                    net.name(),
                    layer.name
                );
                // Padding overhead is bounded: g*ks < k + s.
                let p = layer.as_conv().expect("conv");
                let (g, ks) = cbrain::partition_math::partition(p.kernel, p.stride);
                let bound = ((g * ks) * (g * ks)) as f64 / (p.kernel * p.kernel) as f64;
                assert!(
                    stats.mac_ops as f64 <= macs as f64 * bound + 1.0,
                    "{}/{}",
                    net.name(),
                    layer.name
                );
            }
        }
    }
}

#[test]
fn no_scheme_beats_the_ideal_bound() {
    for cfg in configs() {
        let machine = Machine::new(cfg);
        for net in zoo::all() {
            for layer in net.conv_layers() {
                let ideal = ideal_cycles(layer, &cfg).expect("valid layer");
                for scheme in Scheme::ALL {
                    let compiled = compile_conv(layer, scheme, &cfg).expect("compiles");
                    let stats = machine.run(&compiled.program);
                    assert!(
                        stats.cycles >= ideal,
                        "{}/{} under {scheme}: {} < ideal {}",
                        net.name(),
                        layer.name,
                        stats.cycles,
                        ideal
                    );
                }
            }
        }
    }
}

#[test]
fn utilization_never_exceeds_one() {
    let runner = Runner::new(AcceleratorConfig::paper_16_16());
    for net in zoo::all() {
        for policy in Policy::PAPER_ARMS {
            let report = runner.run_network(&net, policy).expect("runs");
            let util = report.totals.pe_utilization();
            assert!(
                (0.0..=1.0 + 1e-9).contains(&util),
                "{} {policy}: {util}",
                net.name()
            );
        }
    }
}

#[test]
fn dram_traffic_covers_weights_and_activations() {
    // Every conv layer must at least stream its input, weights and output
    // through external memory once.
    let cfg = AcceleratorConfig::paper_16_16();
    let machine = Machine::new(cfg);
    for net in zoo::all() {
        for layer in net.conv_layers() {
            let compiled = compile_conv(layer, Scheme::Inter, &cfg).expect("compiles");
            let stats = machine.run(&compiled.program);
            // The sliding window may never touch the last input rows when
            // the stride does not cover them (e.g. 224 rows, k=11, s=4
            // reads only 223); count the rows actually used.
            let p = layer.as_conv().expect("conv");
            let out = layer.output_shape().expect("valid");
            let rows_used = ((out.height - 1) * p.stride + p.kernel).min(layer.input.height);
            let min_read =
                ((rows_used * layer.input.width * layer.input.maps + p.weight_count()) * 2) as u64;
            let out_bytes = layer.output_shape().expect("valid").bytes() as u64;
            assert!(
                stats.dram_read_bytes >= min_read,
                "{}/{}: read {} < {}",
                net.name(),
                layer.name,
                stats.dram_read_bytes,
                min_read
            );
            assert_eq!(
                stats.dram_write_bytes,
                out_bytes,
                "{}/{}",
                net.name(),
                layer.name
            );
        }
    }
}

#[test]
fn tile_working_sets_respect_buffer_capacities() {
    for cfg in configs() {
        for net in zoo::all() {
            for layer in net.conv_layers() {
                for scheme in Scheme::ALL {
                    let compiled = compile_conv(layer, scheme, &cfg).expect("compiles");
                    let plan = &compiled.tiles;
                    assert!(
                        plan.input_tile_bytes + plan.output_tile_bytes
                            <= cfg.inout_buf_bytes as u64,
                        "{}/{} under {scheme}",
                        net.name(),
                        layer.name
                    );
                    assert!(
                        plan.weight_chunk_bytes <= cfg.weight_buf_bytes as u64,
                        "{}/{} under {scheme}",
                        net.name(),
                        layer.name
                    );
                }
            }
        }
    }
}

#[test]
fn run_layer_and_network_agree_for_single_layer_workload() {
    use cbrain::{RunOptions, Workload};
    let net = zoo::alexnet();
    let runner = Runner::with_options(
        AcceleratorConfig::paper_16_16(),
        RunOptions {
            workload: Workload::Conv1Only,
            ..RunOptions::default()
        },
    );
    for policy in Policy::PAPER_ARMS {
        let whole = runner.run_network(&net, policy).expect("runs");
        let single = runner.run_layer(net.conv1(), policy).expect("runs");
        assert_eq!(whole.cycles(), single.stats.cycles, "{policy}");
    }
}

#[test]
fn fc_layers_are_scheme_invariant() {
    // FC layers always compile inter-kernel regardless of policy, so every
    // arm pays the same cost for them.
    let cfg = AcceleratorConfig::paper_16_16();
    let machine = Machine::new(cfg);
    let net = zoo::alexnet();
    for layer in net.layers() {
        if !matches!(layer.kind, LayerKind::FullyConnected(_)) {
            continue;
        }
        let costs: Vec<u64> = Scheme::ALL
            .iter()
            .map(|&s| {
                machine
                    .run(&compile_layer(layer, s, &cfg).expect("compiles").program)
                    .cycles
            })
            .collect();
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "{:?}", costs);
    }
}
