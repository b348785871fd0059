//! Scheme-conformance differential suite (the correctness spine of the
//! widened zoo): every convolution layer of every zoo network, under every
//! scheme, must compute **bit-for-bit** the same result as the naive
//! reference convolution — and must compile and conserve MACs on the
//! cycle simulator at its full published geometry.
//!
//! Bit-exactness without tolerances: inputs, weights and biases are small
//! integers, so every partial product is an integer and every partial sum
//! stays far below 2^24 (the worst cell, VGG's 512-deep 3x3 layers, peaks
//! around 512 * 9 * 6 * 3 < 2^17). f32 addition of such integers is exact
//! in *any* order, so reordered accumulation — the whole point of the
//! schemes — cannot produce rounding drift, and `assert_eq!` is the right
//! comparison.
//!
//! Shrinking: functional execution shrinks only the *spatial* extent.
//! Din, Dout, k, s, pad and groups are preserved, so Algorithm 2's inputs
//! and the emit packing decisions are exactly those of the real layer;
//! compilation additionally runs at the unshrunk geometry.
//!
//! Skip-proofing: both matrix tests count every (network, layer, scheme)
//! cell they execute and compare against an independently derived
//! expectation, plus a hard-coded total that fails if the zoo itself
//! silently shrinks.

use cbrain::functional::{
    improved_inter_forward, inter_forward, partition_forward, unrolled_forward,
};
use cbrain::quantized::conv_forward_q16;
use cbrain_compiler::{compile_conv, compile_layer, Scheme};
use cbrain_model::rng::XorShift64;
use cbrain_model::{
    reference, zoo, ConvParams, ConvWeights, Layer, LayerKind, ModelError, Tensor3, TensorShape,
};
use cbrain_sim::{AcceleratorConfig, Machine};

/// Conv layers across the six zoo networks: 5 + 57 + 13 + 12 + 14 + 17.
const ZOO_CONV_LAYERS: usize = 118;
/// Residual adds across the six zoo networks (all in resnet18).
const ZOO_ELTWISE_LAYERS: usize = 5;
/// Conv layers across the paper's four Table 2 networks: 5 + 57 + 13 + 12.
const PAPER_CONV_LAYERS: usize = 87;

/// Spatial extent for functional execution: the smallest rectangle that
/// still exercises every geometric feature — at least two output rows (so
/// the stride moves the window), a full kernel footprint, and the real
/// padding. Width stays minimal; the matrix has 472 cells and the deep
/// VGG ones cost ~5M MACs each even at this size.
fn shrunk_shape(layer: &Layer, p: &ConvParams) -> TensorShape {
    let base = p.kernel.saturating_sub(2 * p.pad).max(1);
    let h = (base + p.stride).min(layer.input.height);
    let w = base.min(layer.input.width);
    TensorShape::new(layer.input.maps, h, w)
}

fn integer_input(shape: TensorShape, seed: u64) -> Tensor3 {
    let mut rng = XorShift64::seed_from_u64(seed);
    Tensor3::from_fn(shape, |_, _, _| rng.below(7) as f32 - 3.0)
}

fn integer_weights(p: &ConvParams, seed: u64) -> ConvWeights {
    let mut rng = XorShift64::seed_from_u64(seed);
    ConvWeights::from_fn(p, |_, _, _, _| rng.below(5) as f32 - 2.0)
}

fn integer_bias(p: &ConvParams) -> Vec<f32> {
    (0..p.out_maps).map(|o| (o % 7) as f32 - 3.0).collect()
}

/// Q7.8-exact input: every value a multiple of 1/4 in `[-0.75, 0.75]`.
///
/// A multiple of `2^-2` quantizes to Q7.8 without rounding, and its product
/// with a multiple of `2^-3` is a multiple of `2^-5` — also exact in Q7.8
/// (the `(wide + 128) >> 8` rounding shift in `Fx16::saturating_mul` is
/// lossless when the wide product is a multiple of 256). Sums of such
/// products are multiples of `2^-5` too, so as long as no partial sum
/// reaches the ±128 saturation rails, the 16-bit datapath computes the
/// *same real number* as the f32 reference: the error must be exactly 0.
fn q16_input(shape: TensorShape, seed: u64) -> Tensor3 {
    let mut rng = XorShift64::seed_from_u64(seed);
    Tensor3::from_fn(shape, |_, _, _| rng.below(7) as f32 * 0.25 - 0.75)
}

/// Q7.8-exact weights: multiples of 1/8 in `[-0.25, 0.25]`. Small enough
/// that even VGG's deepest reductions (512 maps x 3x3 = 4608 terms of at
/// most 0.1875 each, randomly signed) stay far from saturation.
fn q16_weights(p: &ConvParams, seed: u64) -> ConvWeights {
    let mut rng = XorShift64::seed_from_u64(seed);
    ConvWeights::from_fn(p, |_, _, _, _| rng.below(5) as f32 * 0.125 - 0.25)
}

fn q16_bias(p: &ConvParams) -> Vec<f32> {
    (0..p.out_maps)
        .map(|o| (o % 7) as f32 * 0.25 - 0.75)
        .collect()
}

/// Executes one cell through the scheme-faithful functional executor.
fn run_scheme(
    scheme: Scheme,
    input: &Tensor3,
    weights: &ConvWeights,
    bias: &[f32],
    p: &ConvParams,
) -> Result<Tensor3, ModelError> {
    match scheme {
        Scheme::Inter => inter_forward(input, weights, Some(bias), p, 16),
        Scheme::InterImproved => improved_inter_forward(input, weights, Some(bias), p),
        Scheme::Intra => unrolled_forward(input, weights, Some(bias), p),
        Scheme::Partition => partition_forward(input, weights, Some(bias), p),
    }
}

/// The tentpole matrix: every (network, conv layer, scheme) cell is
/// bit-exact against the naive reference.
#[test]
fn every_zoo_conv_cell_is_bit_exact() {
    let mut cells = 0usize;
    for net in zoo::all() {
        for (li, layer) in net.conv_layers().enumerate() {
            let p = layer.as_conv().expect("conv layer");
            let shape = shrunk_shape(layer, p);
            let seed = 0xC04F * (li as u64 + 1);
            let input = integer_input(shape, seed);
            let weights = integer_weights(p, seed ^ 0x57A7);
            let bias = integer_bias(p);
            let truth = reference::conv_forward(&input, &weights, Some(&bias), p)
                .unwrap_or_else(|e| panic!("{}/{}: reference: {e}", net.name(), layer.name));
            for scheme in Scheme::ALL {
                let ours = run_scheme(scheme, &input, &weights, &bias, p)
                    .unwrap_or_else(|e| panic!("{}/{} [{scheme}]: {e}", net.name(), layer.name));
                assert_eq!(
                    ours.as_slice(),
                    truth.as_slice(),
                    "{}/{} [{scheme}] diverges from the reference",
                    net.name(),
                    layer.name
                );
                cells += 1;
            }
        }
    }
    let expected: usize = zoo::all()
        .iter()
        .map(|n| n.conv_layers().count() * Scheme::ALL.len())
        .sum();
    assert_eq!(cells, expected, "a conformance cell was silently skipped");
    assert_eq!(
        cells,
        ZOO_CONV_LAYERS * Scheme::ALL.len(),
        "the zoo shrank; update the conformance matrix"
    );
}

/// Every cell also compiles at full geometry and conserves MACs on the
/// simulator: exact conservation for the non-inflating schemes, and at
/// least the layer's MACs for partition (zero-padded sub-kernel lanes may
/// add dead work, never remove real work).
#[test]
fn every_zoo_conv_cell_compiles_and_conserves_macs() {
    let cfg = AcceleratorConfig::paper_16_16();
    let machine = Machine::new(cfg);
    let mut cells = 0usize;
    for net in zoo::all() {
        for layer in net.conv_layers() {
            let macs = layer.macs().expect("valid layer");
            for scheme in Scheme::ALL {
                let compiled = compile_conv(layer, scheme, &cfg)
                    .unwrap_or_else(|e| panic!("{}/{} [{scheme}]: {e}", net.name(), layer.name));
                let stats = machine.run(&compiled.program);
                match scheme {
                    Scheme::Partition => assert!(
                        stats.mac_ops >= macs,
                        "{}/{} [{scheme}]: {} < {macs}",
                        net.name(),
                        layer.name,
                        stats.mac_ops
                    ),
                    _ => assert_eq!(
                        stats.mac_ops,
                        macs,
                        "{}/{} [{scheme}] loses MACs",
                        net.name(),
                        layer.name
                    ),
                }
                cells += 1;
            }
        }
    }
    assert_eq!(cells, ZOO_CONV_LAYERS * Scheme::ALL.len());
}

/// The quantized matrix: every conv layer of the paper's four Table 2
/// networks, executed entirely on the accelerator's Q7.8 datapath
/// (quantized operands, saturating multiplies, saturating adder-tree
/// accumulation), reproduces the f32 reference **exactly** when the
/// operands are Q7.8-exact (see [`q16_input`]). Any rounding or
/// saturation slip in the 16-bit path — or any reference regression that
/// perturbs values the fixed path cannot represent — shows up as a
/// non-zero error.
#[test]
fn every_paper_network_conv_survives_the_q16_datapath_exactly() {
    let mut cells = 0usize;
    for net in zoo::paper_networks() {
        for (li, layer) in net.conv_layers().enumerate() {
            let p = layer.as_conv().expect("conv layer");
            let shape = shrunk_shape(layer, p);
            let seed = 0xF16 * (li as u64 + 1);
            let input = q16_input(shape, seed);
            let weights = q16_weights(p, seed ^ 0x57A7);
            let bias = q16_bias(p);
            let run = conv_forward_q16(&input, &weights, Some(&bias), p)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", net.name(), layer.name));
            assert_eq!(
                run.max_abs_error,
                0.0,
                "{}/{}: Q7.8 datapath drifted from the f32 reference",
                net.name(),
                layer.name
            );
            assert_eq!(run.rms_error, 0.0, "{}/{}", net.name(), layer.name);
            cells += 1;
        }
    }
    let expected: usize = zoo::paper_networks()
        .iter()
        .map(|n| n.conv_layers().count())
        .sum();
    assert_eq!(cells, expected, "a quantized cell was silently skipped");
    assert_eq!(
        cells, PAPER_CONV_LAYERS,
        "the paper zoo shrank; update the quantized matrix"
    );
}

/// The quantized path is backend-independent: pinning the scalar kernels
/// and pinning each other backend the CPU has produce byte-identical
/// `QuantizedRun`s on each paper network's first conv. Today only the
/// embedded f32 reference is vectorized; this cell pins the bit-parity
/// contract for when the fixed-point datapath itself grows SIMD kernels.
#[test]
fn q16_conv1_is_bit_identical_across_simd_backends() {
    use cbrain_model::simd::{self, Backend};
    for net in zoo::paper_networks() {
        let layer = net.conv1();
        let p = layer.as_conv().expect("conv layer");
        let shape = shrunk_shape(layer, p);
        let input = q16_input(shape, 0xBAC2);
        let weights = q16_weights(p, 0xBAC3);
        let bias = q16_bias(p);
        let run = |backend: Backend| {
            simd::set_backend(Some(backend)).expect("an available backend pins");
            let out = conv_forward_q16(&input, &weights, Some(&bias), p);
            simd::set_backend(None).expect("lifting the pin always succeeds");
            out.expect("conv1 runs")
        };
        let scalar = run(Backend::Scalar);
        let bits = |t: &Tensor3| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &backend in &Backend::available()[1..] {
            let vector = run(backend);
            assert_eq!(
                bits(&scalar.output),
                bits(&vector.output),
                "{}: scalar and {} disagree bitwise",
                net.name(),
                backend.name()
            );
            assert_eq!(
                scalar.max_abs_error.to_bits(),
                vector.max_abs_error.to_bits()
            );
            assert_eq!(scalar.rms_error.to_bits(), vector.rms_error.to_bits());
        }
    }
}

/// Residual adds: data-exact against a hand-rolled elementwise sum, and
/// the compile dispatch accepts them under every scheme (the merge has no
/// scheme choice; the scheme argument must be ignored, not rejected).
#[test]
fn every_zoo_eltwise_cell_is_exact_and_compiles() {
    let cfg = AcceleratorConfig::paper_16_16();
    let machine = Machine::new(cfg);
    let mut layers = 0usize;
    let mut compile_cells = 0usize;
    for net in zoo::all() {
        for (li, layer) in net.layers().iter().enumerate() {
            let LayerKind::Eltwise(p) = &layer.kind else {
                continue;
            };
            layers += 1;
            let seed = 0xE17 * (li as u64 + 1);
            let a = integer_input(layer.input, seed);
            let b = integer_input(layer.input, seed ^ 0xB0B);
            let got = reference::eltwise_forward(&a, &b, p.op).expect("shapes match");
            let want = Tensor3::from_fn(layer.input, |m, y, x| a.at(m, y, x) + b.at(m, y, x));
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "{}/{}",
                net.name(),
                layer.name
            );
            for scheme in Scheme::ALL {
                let compiled = compile_layer(layer, scheme, &cfg)
                    .unwrap_or_else(|e| panic!("{}/{} [{scheme}]: {e}", net.name(), layer.name));
                assert_eq!(compiled.scheme, None, "eltwise has no scheme choice");
                // Two operands in, one result out.
                assert_eq!(
                    compiled.program.dram_bytes(),
                    3 * layer.input.bytes() as u64,
                    "{}/{}",
                    net.name(),
                    layer.name
                );
                let stats = machine.run(&compiled.program);
                assert_eq!(
                    stats.eltwise_ops,
                    layer.input.elems() as u64,
                    "{}/{} [{scheme}] merge-op count",
                    net.name(),
                    layer.name
                );
                compile_cells += 1;
            }
        }
    }
    assert_eq!(layers, ZOO_ELTWISE_LAYERS, "the zoo lost its residual adds");
    assert_eq!(compile_cells, ZOO_ELTWISE_LAYERS * Scheme::ALL.len());
}

/// End-to-end: a small residual + depthwise network runs through the
/// policy-driven forward pass under every arm and agrees with the plain
/// reference composition.
/// A residual network with a depthwise layer: unit-stride 3x3, 1x1 and
/// strided convs, two residual adds, average pooling and an FC head.
fn residual_depthwise_net() -> cbrain_model::Network {
    let net = cbrain_model::NetworkBuilder::new("res_dw", TensorShape::new(3, 20, 20))
        .conv("stem", 8, 3, 1, 1)
        .conv_dw("dw1", 3, 1, 1)
        .conv("pw1", 8, 1, 1, 0)
        .eltwise_add("add1", "stem")
        .conv("down", 12, 3, 2, 1)
        .conv("body", 12, 3, 1, 1)
        .eltwise_add("add2", "down")
        .pool_average("pool", 2, 2)
        .fully_connected("head", 5)
        .build()
        .expect("residual net is consistent");
    net.validate().expect("valid");
    net
}

#[test]
fn residual_depthwise_forward_agrees_across_policies() {
    use cbrain::forward::{forward, NetworkWeights};
    use cbrain::{Policy, Scheme};

    let net = residual_depthwise_net();
    let weights = NetworkWeights::random(&net, 99);
    let input = Tensor3::random(net.input(), 7);
    let cfg = AcceleratorConfig::paper_16_16();
    let truth = forward(&net, &input, &weights, Policy::Fixed(Scheme::Inter), &cfg).expect("runs");
    for policy in [
        Policy::Fixed(Scheme::Intra),
        Policy::Fixed(Scheme::Partition),
        Policy::Fixed(Scheme::InterImproved),
        Policy::Adaptive {
            improved_inter: false,
        },
        Policy::Adaptive {
            improved_inter: true,
        },
    ] {
        let run = forward(&net, &input, &weights, policy, &cfg).expect("runs");
        let diff: f32 = run
            .output
            .iter()
            .zip(&truth.output)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff < 1e-3, "{policy}: diff={diff}");
        // Eltwise layers never carry a scheme.
        let by_name: std::collections::HashMap<_, _> = run.schemes.iter().cloned().collect();
        assert_eq!(by_name["add1"], None);
        assert_eq!(by_name["add2"], None);
    }

    // Under Algorithm 2 the depthwise layer (Din_group = 1 < Tin) takes
    // the kernel-partition path.
    let run = forward(
        &net,
        &input,
        &weights,
        Policy::Adaptive {
            improved_inter: true,
        },
        &cfg,
    )
    .expect("runs");
    let by_name: std::collections::HashMap<_, _> = run.schemes.iter().cloned().collect();
    assert_eq!(by_name["dw1"], Some(Scheme::Partition));
}

/// `forward`'s output bits under every policy arm, pinned across builds
/// (each constant was taken before the unit-stride executors were last
/// rewritten). Two networks: [`residual_depthwise_net`], and a 5x5, pad-2
/// stem on 43-pixel rows ahead of a depthwise layer and a 16-deep 3x3
/// layer, whose whole last map is the output. The scalar fallback and
/// every SIMD backend must give the same bits.
#[test]
fn forward_output_bits_are_pinned_under_every_policy() {
    use cbrain::forward::{forward, NetworkWeights};
    use cbrain::persist::fnv1a64;
    use cbrain::Policy;

    let stem5 = cbrain_model::NetworkBuilder::new("stem5", TensorShape::new(3, 10, 43))
        .conv("stem", 16, 5, 1, 2)
        .conv_dw("dw", 3, 1, 1)
        .conv("mid", 20, 3, 1, 1)
        .build()
        .expect("stem5 net is consistent");
    let policies = [
        Policy::Fixed(Scheme::Inter),
        Policy::Fixed(Scheme::Intra),
        Policy::Fixed(Scheme::Partition),
        Policy::Fixed(Scheme::InterImproved),
        Policy::Adaptive {
            improved_inter: false,
        },
        Policy::Adaptive {
            improved_inter: true,
        },
        Policy::Oracle,
        Policy::OraclePruned,
    ];
    let pinned: [(cbrain_model::Network, [&str; 8]); 2] = [
        (
            residual_depthwise_net(),
            [
                "2989fccd91b71c13",
                "ecb855f101b05615",
                "51dfd5fc9ab6227d",
                "e22f3b03d12c4130",
                "51dfd5fc9ab6227d",
                "51dfd5fc9ab6227d",
                "51dfd5fc9ab6227d",
                "51dfd5fc9ab6227d",
            ],
        ),
        (
            stem5,
            [
                "16782163e4c13677",
                "0e54721d3965ba1d",
                "08d3d74ba31adbf9",
                "08d3d74ba31adbf9",
                "1931b156b59e5558",
                "08d3d74ba31adbf9",
                "08d3d74ba31adbf9",
                "08d3d74ba31adbf9",
            ],
        ),
    ];
    let cfg = AcceleratorConfig::paper_16_16();
    for (net, digests) in &pinned {
        let weights = NetworkWeights::random(net, 99);
        let input = Tensor3::random(net.input(), 7);
        for (policy, want) in policies.iter().zip(digests) {
            let out = forward(net, &input, &weights, *policy, &cfg).expect("runs");
            let bits: Vec<u8> = out
                .output
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect();
            let got = format!("{:016x}", fnv1a64(&bits));
            assert_eq!(&got, want, "{} under {policy}", net.name());
        }
    }
}
