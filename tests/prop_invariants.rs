//! Randomized tests on the analytical core: Eq. 1/Eq. 2 math, the
//! fixed-point datapath, cost-model conservation laws and tiling.
//!
//! Cases are drawn from the in-tree deterministic RNG (the build
//! environment has no registry access, so `proptest` is unavailable);
//! each test replays a fixed seed sequence, so failures reproduce
//! exactly.

use cbrain::partition_math::{partition, unroll_duplication};
use cbrain_compiler::{compile_conv, ConvGeometry, Scheme, TilePlan};
use cbrain_model::rng::XorShift64;
use cbrain_model::{ConvParams, Fx16, Layer, TensorShape};
use cbrain_sim::{AcceleratorConfig, Machine};

/// Eq. 2: the sub-kernel grid covers the kernel with less than one
/// sub-kernel of slack, and degenerates when k == s.
#[test]
fn partition_covers_and_is_tight() {
    let mut rng = XorShift64::seed_from_u64(0xE902);
    for _ in 0..256 {
        let k = rng.range_usize(1, 32);
        let s = rng.range_usize(1, k);
        let (g, ks) = partition(k, s);
        assert_eq!(ks, s, "k={k} s={s}");
        assert!(g * ks >= k, "k={k} s={s}");
        assert!(g * ks < k + ks, "k={k} s={s}");
        if s == k {
            assert_eq!(g, 1, "k={k}");
        }
    }
}

/// Regression (Algorithm 2 edge cases): `k = 1` pointwise layers and raw
/// `s > k` geometries must flow through scheme selection and Eq. 2
/// without panicking, and the partition they get must be usable.
#[test]
fn select_scheme_is_total_on_degenerate_geometries() {
    use cbrain::adaptive::select_scheme;
    let cfg = AcceleratorConfig::paper_16_16();

    // Pointwise, shallow input: Algorithm 2 line 1 skips intra (k = 1),
    // line 2 picks partition — which degenerates to a single piece.
    let shallow_pw = ConvParams::new(3, 64, 1, 1, 0);
    assert_eq!(select_scheme(&shallow_pw, &cfg, false), Scheme::Partition);
    assert_eq!(partition(1, 1), (1, 1));

    // The degenerate partition still compiles and conserves MACs exactly:
    // a 1-piece split has no zero-padded lanes to inflate.
    let layer = Layer::conv("pw", TensorShape::new(3, 8, 8), shallow_pw);
    let compiled = compile_conv(&layer, Scheme::Partition, &cfg).expect("compiles");
    let stats = Machine::new(cfg).run(&compiled.program);
    assert_eq!(stats.mac_ops, layer.macs().expect("valid"));

    // Pointwise, deep input: inter, never intra.
    let deep_pw = ConvParams::new(64, 64, 1, 1, 0);
    assert_eq!(select_scheme(&deep_pw, &cfg, false), Scheme::Inter);
    assert_eq!(select_scheme(&deep_pw, &cfg, true), Scheme::InterImproved);

    // Raw s > k parameters (rejected by layer validation, but Algorithm 2
    // and Eq. 2 can still be probed with them): total, no panic, and the
    // split is one full-size piece with no slack.
    let mut rng = XorShift64::seed_from_u64(0xDE6E);
    for _ in 0..256 {
        let k = rng.range_usize(1, 8);
        let s = rng.range_usize(k + 1, k + 6);
        assert_eq!(partition(k, s), (1, k), "k={k} s={s}");
        let raw = ConvParams::new(3, 16, k, s, 0);
        let scheme = select_scheme(&raw, &cfg, true);
        assert_ne!(scheme, Scheme::Intra, "k={k} s={s}: k != s can't be intra");
    }
}

/// Eq. 1: duplication is bounded by (k/s)^2 and equals 1 when windows
/// tile exactly.
#[test]
fn unroll_duplication_bounds() {
    let mut rng = XorShift64::seed_from_u64(0xE901);
    for _ in 0..256 {
        let x = rng.range_usize(8, 64);
        let k = rng.range_usize(1, 8.min(x));
        let s = rng.range_usize(1, k);
        let t = unroll_duplication(x, x, k, s);
        assert!(t > 0.0, "x={x} k={k} s={s}");
        assert!(
            t <= (k as f64 / s as f64).powi(2) + 1e-9,
            "t={t} x={x} k={k} s={s}"
        );
        if k == s && x.is_multiple_of(k) {
            assert!((t - 1.0).abs() < 1e-9, "t={t} x={x} k={k}");
        }
    }
}

/// Fx16 round trip is exact for representable values and addition
/// saturates instead of wrapping.
#[test]
fn fx16_round_trip_and_saturation() {
    let mut rng = XorShift64::seed_from_u64(0xF16);
    for _ in 0..4096 {
        let raw = rng.next_u64() as i16;
        let raw2 = rng.next_u64() as i16;
        let a = Fx16::from_raw(raw);
        assert_eq!(Fx16::from_f32(a.to_f32()), a);
        let sum = (a + Fx16::from_raw(raw2)).to_f32();
        let exact = a.to_f32() + Fx16::from_raw(raw2).to_f32();
        let clamped = exact.clamp(Fx16::MIN.to_f32(), Fx16::MAX.to_f32());
        assert!((sum - clamped).abs() < 1e-6, "raw={raw} raw2={raw2}");
    }
}

/// Fx16 multiplication error is bounded by one LSB after rounding.
#[test]
fn fx16_mul_error_bounded() {
    let mut rng = XorShift64::seed_from_u64(0xF17);
    for _ in 0..4096 {
        let a = rng.range_f32(-40.0, 40.0);
        let b = rng.range_f32(-2.0, 2.0);
        let qa = Fx16::from_f32(a);
        let qb = Fx16::from_f32(b);
        let exact = qa.to_f32() * qb.to_f32();
        if exact.abs() >= 127.0 {
            continue; // out of the representable product range
        }
        let got = (qa * qb).to_f32();
        assert!(
            (got - exact).abs() <= 1.0 / 256.0 + 1e-6,
            "{got} vs {exact}"
        );
    }
}

/// One random-but-valid conv layer for cost-model properties.
fn random_layer(rng: &mut XorShift64) -> Layer {
    let inm = rng.range_usize(1, 80);
    let outm = rng.range_usize(1, 96);
    let k = rng.range_usize(1, 11);
    let pad = rng.range_usize(0, 3);
    let extra = rng.range_usize(8, 48); // input extent beyond kernel
    let s = rng.range_usize(1, k);
    let params = ConvParams::new(inm, outm, k, s, pad);
    Layer::conv("prop", TensorShape::new(inm, k + extra, k + extra), params)
}

/// MAC conservation holds for arbitrary layers, not just the zoo.
#[test]
fn cost_model_mac_conservation() {
    let cfg = AcceleratorConfig::paper_16_16();
    let machine = Machine::new(cfg);
    let mut rng = XorShift64::seed_from_u64(0xC057);
    for _ in 0..48 {
        let layer = random_layer(&mut rng);
        let macs = layer.macs().expect("valid");
        for scheme in [Scheme::Inter, Scheme::InterImproved, Scheme::Intra] {
            let compiled = compile_conv(&layer, scheme, &cfg).expect("compiles");
            let stats = machine.run(&compiled.program);
            assert_eq!(stats.mac_ops, macs, "{scheme} layer={layer:?}");
        }
        let compiled = compile_conv(&layer, Scheme::Partition, &cfg).expect("compiles");
        let stats = machine.run(&compiled.program);
        assert!(stats.mac_ops >= macs, "partition layer={layer:?}");
    }
}

/// Improved inter never changes cycle count by more than the register
/// refill noise, and never increases total buffer traffic.
#[test]
fn improved_inter_pareto_dominates() {
    let cfg = AcceleratorConfig::paper_16_16();
    let machine = Machine::new(cfg);
    let mut rng = XorShift64::seed_from_u64(0x1147);
    for _ in 0..48 {
        let layer = random_layer(&mut rng);
        let base = machine.run(
            &compile_conv(&layer, Scheme::Inter, &cfg)
                .expect("compiles")
                .program,
        );
        let improved = machine.run(
            &compile_conv(&layer, Scheme::InterImproved, &cfg)
                .expect("compiles")
                .program,
        );
        // One weight-register refill per (kernel pos, din block, dout
        // block) against out_pixels main bursts each: the overhead is
        // bounded by 1/out_pixels.
        let out = layer.output_shape().expect("valid");
        let ratio = improved.compute_cycles as f64 / base.compute_cycles as f64;
        let bound = 1.0 + 1.0 / out.map_elems() as f64 + 0.01;
        assert!(ratio <= bound, "cycles blew up: {ratio} > {bound}");
        // The traffic win is the paper's *top-layer* claim ("Din is always
        // much bigger than Tin in top layers"): with a deep input and a
        // real pixel sweep, saved weight reloads (Tin*Tout per burst)
        // dwarf the added add-store traffic (2*Tout per burst). Shallow
        // layers — or degenerate 1-pixel outputs, where each weight is
        // used once and holding it saves nothing — can regress.
        let p = layer.as_conv().expect("conv");
        if p.in_maps_per_group() >= 16 && out.map_elems() >= 4 {
            assert!(
                improved.buffer_access_bits() <= base.buffer_access_bits(),
                "traffic grew: {} vs {}",
                improved.buffer_access_bits(),
                base.buffer_access_bits()
            );
        }
    }
}

/// Tiling conserves totals: the tiled program moves the same DRAM bytes
/// as the plan's aggregate accounting.
#[test]
fn tiling_conserves_dram_totals() {
    let cfg = AcceleratorConfig::paper_16_16();
    let mut rng = XorShift64::seed_from_u64(0x7113);
    for _ in 0..48 {
        let layer = random_layer(&mut rng);
        let geom = ConvGeometry::from_layer(&layer).expect("geometry");
        let plan = TilePlan::conv(&geom, &cfg, 1.0).expect("plans");
        let compiled = compile_conv(&layer, Scheme::Inter, &cfg).expect("compiles");
        let read: u64 = compiled
            .program
            .to_program()
            .tiles
            .iter()
            .map(|t| t.dram_read_bytes)
            .sum();
        let write: u64 = compiled
            .program
            .to_program()
            .tiles
            .iter()
            .map(|t| t.dram_write_bytes)
            .sum();
        assert_eq!(read, plan.dram_read_bytes(), "layer={layer:?}");
        assert_eq!(write, plan.dram_write_bytes(), "layer={layer:?}");
    }
}

/// Doubling the array never slows a layer down.
#[test]
fn bigger_array_is_never_slower() {
    let c16 = AcceleratorConfig::paper_16_16();
    let c32 = AcceleratorConfig::paper_32_32();
    let mut rng = XorShift64::seed_from_u64(0xB166);
    for _ in 0..48 {
        let layer = random_layer(&mut rng);
        for scheme in [Scheme::Inter, Scheme::Partition] {
            let small = Machine::new(c16).run(
                &compile_conv(&layer, scheme, &c16)
                    .expect("compiles")
                    .program,
            );
            let big = Machine::new(c32).run(
                &compile_conv(&layer, scheme, &c32)
                    .expect("compiles")
                    .program,
            );
            assert!(
                big.compute_cycles <= small.compute_cycles,
                "{scheme}: {} vs {} layer={layer:?}",
                big.compute_cycles,
                small.compute_cycles
            );
        }
    }
}
