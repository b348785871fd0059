//! Per-kernel SIMD microbenchmark: times every vectorized hot loop once
//! per backend the CPU has (`simd::Backend::available`: the scalar
//! fallback, then each instruction set, narrowest first), each leg pinned
//! in turn, and reports each leg's median, the widest leg's speed-up over
//! the scalar one and over the next narrower one (`step`), a byte-identity
//! check of every leg against the scalar one, and each kernel's output
//! digest (FNV-1a over the output bit patterns, 16 hex digits). The
//! binary exits 1 when any leg differs; the digest column compares
//! builds, since a change that moves every leg alike still changes it.
//!
//! On a single-CPU CI container the timings are noise-dominated; the
//! byte-identity and digest columns are the load-bearing output there
//! (see `EXPERIMENTS.md`). Run `scripts/bench_kernels.sh` on a quiet
//! multi-core host for meaningful speedups.
//!
//! ```text
//! cargo run --release -p cbrain-bench --bin bench_kernels
//! cargo run --release -p cbrain-bench --bin bench_kernels -- --json
//! cargo run --release -p cbrain-bench --bin bench_kernels -- --samples 9
//! ```

use std::hint::black_box;
use std::time::Instant;

use cbrain::config::FlagSpec;
use cbrain::functional::{improved_inter_forward, partition_forward, unrolled_forward};
use cbrain::persist::fnv1a64;
use cbrain_compiler::{compile_conv, Scheme};
use cbrain_model::rng::XorShift64;
use cbrain_model::{reference, simd, zoo, ConvParams, ConvWeights, FcParams, Tensor3, TensorShape};
use cbrain_sim::{AcceleratorConfig, Machine};

/// One benchmarked kernel: median seconds per leg, in
/// `Backend::available` order, the scalar leg's output digest, and
/// whether every other leg's digest equals it.
struct Row {
    name: &'static str,
    medians: Vec<f64>,
    digest: u64,
    identical: bool,
}

impl Row {
    /// The scalar leg's median over the widest leg's.
    fn speedup(&self) -> f64 {
        self.medians[0] / self.medians[self.medians.len() - 1]
    }

    /// The next narrower leg's median over the widest leg's (1 with a
    /// single leg).
    fn step(&self) -> f64 {
        match self.medians.as_slice() {
            [.., narrower, widest] => narrower / widest,
            _ => 1.0,
        }
    }
}

/// FNV-1a over the values' bytes — enough to certify the legs, or two
/// builds on one host, produced the same bits (elementwise bit-parity is
/// proven by `tests/prop_simd.rs`; this is the honesty check that the
/// bench ran what it claims). It reads the slice in place instead of
/// copying it.
fn digest_f32(values: &[f32]) -> u64 {
    // SAFETY: the pointer and byte length come from a live `&[f32]`, so
    // they are non-null, aligned for `u8` and in bounds for the borrow's
    // lifetime, and `f32` has no padding, so every byte is initialized.
    // The view is in native byte order, which is all comparing two legs
    // in one process needs.
    let bytes = unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    };
    fnv1a64(bytes)
}

fn digest_tensor(t: &Tensor3) -> u64 {
    digest_f32(t.as_slice())
}

/// Times `f` on every available backend. Per leg: pins the backend, runs
/// one warm-up whose output is digested, then takes the median of
/// `samples` timed runs, which time `f` alone.
fn run_legs<T>(
    name: &'static str,
    samples: usize,
    f: impl Fn() -> T,
    digest: impl Fn(&T) -> u64,
) -> Row {
    let mut medians = Vec::new();
    let mut digests = Vec::new();
    for &backend in simd::Backend::available() {
        simd::set_backend(Some(backend)).expect("an available backend pins");
        digests.push(digest(&f()));
        let mut times: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        medians.push(times[times.len() / 2]);
    }
    simd::set_backend(None).expect("lifting the pin always succeeds");
    Row {
        name,
        medians,
        digest: digests[0],
        identical: digests.iter().all(|&d| d == digests[0]),
    }
}

fn random_tensor(shape: TensorShape, seed: u64) -> Tensor3 {
    let mut rng = XorShift64::seed_from_u64(seed);
    Tensor3::from_fn(shape, |_, _, _| rng.range_f32(-1.0, 1.0))
}

fn rows(samples: usize) -> Vec<Row> {
    let mut out = Vec::new();

    // Rowized axpy path of the naive reference (3x3 stride-1, the shape
    // that dominates VGG/GoogLeNet).
    let p3 = ConvParams::new(32, 32, 3, 1, 1);
    let in3 = random_tensor(TensorShape::new(32, 56, 56), 1);
    let w3 = ConvWeights::random(&p3, 2);
    let b3: Vec<f32> = (0..p3.out_maps).map(|o| o as f32 * 0.01).collect();
    out.push(run_legs(
        "conv_reference_3x3_s1",
        samples,
        || reference::conv_forward(&in3, &w3, Some(&b3), &p3).unwrap(),
        digest_tensor,
    ));

    // Pure-axpy 1x1 (NiN / GoogLeNet reduce layers).
    let p1 = ConvParams::new(64, 64, 1, 1, 0);
    let in1 = random_tensor(TensorShape::new(64, 56, 56), 3);
    let w1 = ConvWeights::random(&p1, 4);
    out.push(run_legs(
        "conv_reference_1x1",
        samples,
        || reference::conv_forward(&in1, &w1, None, &p1).unwrap(),
        digest_tensor,
    ));

    // im2col consumer: the unrolled (Intra) executor's window-parallel
    // dot over each input map's transposed window runs.
    out.push(run_legs(
        "im2col_unrolled_3x3",
        samples,
        || unrolled_forward(&in3, &w3, Some(&b3), &p3).unwrap(),
        digest_tensor,
    ));

    // The unit-stride executor (improved inter; the stride-1 kernel
    // partition makes the same calls).
    out.push(run_legs(
        "improved_inter_3x3_s1",
        samples,
        || improved_inter_forward(&in3, &w3, Some(&b3), &p3).unwrap(),
        digest_tensor,
    ));

    // The same executor on a shallow stem (the `infer` workload's: Din 3
    // < Tin, so Algorithm 2 picks kernel partition) and on a depthwise
    // layer, one input map per group.
    let p5 = ConvParams::new(3, 16, 5, 1, 2);
    let in5 = random_tensor(TensorShape::new(3, 64, 64), 9);
    let w5 = ConvWeights::random(&p5, 10);
    let b5: Vec<f32> = (0..p5.out_maps).map(|o| o as f32 * 0.01).collect();
    out.push(run_legs(
        "partition_5x5_s1_din3",
        samples,
        || partition_forward(&in5, &w5, Some(&b5), &p5).unwrap(),
        digest_tensor,
    ));
    let pdw = ConvParams::depthwise(32, 3, 1, 1);
    let indw = random_tensor(TensorShape::new(32, 32, 32), 11);
    let wdw = ConvWeights::random(&pdw, 12);
    out.push(run_legs(
        "depthwise_3x3_s1",
        samples,
        || partition_forward(&indw, &wdw, None, &pdw).unwrap(),
        digest_tensor,
    ));

    // The k == s intra shape: four taps per window, so each window's dot
    // is a single zero-padded tail block.
    let p2 = ConvParams::new(16, 32, 2, 2, 0);
    let in2 = random_tensor(TensorShape::new(16, 64, 64), 7);
    let w2 = ConvWeights::random(&p2, 8);
    out.push(run_legs(
        "unrolled_2x2_s2",
        samples,
        || unrolled_forward(&in2, &w2, None, &p2).unwrap(),
        digest_tensor,
    ));

    // Fully-connected dot (AlexNet/VGG head shape, scaled down 4x).
    let pfc = FcParams::new(4096, 256);
    let fc_in: Vec<f32> = {
        let mut rng = XorShift64::seed_from_u64(5);
        (0..pfc.in_features)
            .map(|_| rng.range_f32(-1.0, 1.0))
            .collect()
    };
    let fc_w: Vec<f32> = {
        let mut rng = XorShift64::seed_from_u64(6);
        (0..pfc.in_features * pfc.out_features)
            .map(|_| rng.range_f32(-0.1, 0.1))
            .collect()
    };
    out.push(run_legs(
        "fc_dot_4096x256",
        samples,
        || reference::fc_forward(&fc_in, &fc_w, None, &pfc).unwrap(),
        |o| digest_f32(o),
    ));

    // Multiply-burst accounting: the untraced cycle simulator charging a
    // whole compiled layer, each run of identical tiles once.
    let cfg = AcceleratorConfig::paper_16_16();
    let machine = Machine::new(cfg);
    let net = zoo::vgg16();
    let layer = net.layer("conv3_2").expect("layer exists");
    let compiled = compile_conv(layer, Scheme::Inter, &cfg).expect("compiles");
    out.push(run_legs(
        "mac_burst_sim_vgg_conv3_2",
        samples,
        || machine.run(&compiled.program),
        |stats| fnv1a64(format!("{stats:?}").as_bytes()),
    ));

    out
}

fn main() {
    const FLAGS: &[FlagSpec] = &[("--json", None), ("--samples", Some("N"))];
    let (json, samples) = cbrain_bench::args::from_args(env!("CARGO_BIN_NAME"), FLAGS, |f| {
        Ok((f.switch("--json"), f.count("--samples")?.unwrap_or(5)))
    });

    let backends: Vec<&str> = simd::Backend::available()
        .iter()
        .map(|b| b.name())
        .collect();
    let rows = rows(samples);

    if json {
        let quoted: Vec<String> = backends.iter().map(|b| format!("\"{b}\"")).collect();
        println!("{{");
        println!("  \"backends\": [{}],", quoted.join(", "));
        println!("  \"samples\": {samples},");
        println!("  \"kernels\": {{");
        for (i, r) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            let medians: Vec<String> = backends
                .iter()
                .zip(&r.medians)
                .map(|(b, s)| format!("\"{b}\": {s:.6}"))
                .collect();
            println!(
                "    \"{}\": {{\"median_s\": {{{}}}, \"speedup\": {:.3}, \"step\": {:.3}, \"byte_identical\": {}, \"digest\": \"{:016x}\"}}{comma}",
                r.name,
                medians.join(", "),
                r.speedup(),
                r.step(),
                r.identical,
                r.digest
            );
        }
        println!("  }}");
        println!("}}");
    } else {
        println!(
            "SIMD kernel microbench — one leg per available backend, each pinned in turn: {}",
            backends.join(", ")
        );
        print!("{:<26}", "kernel");
        for b in &backends {
            print!(" {b:>10}");
        }
        println!(" {:>8} {:>6}   byte-identical   digest", "speedup", "step");
        for r in &rows {
            print!("{:<26}", r.name);
            for s in &r.medians {
                print!(" {:>8.3}ms", s * 1e3);
            }
            println!(
                " {:>7.2}x {:>5.2}x   {:<14}   {:016x}",
                r.speedup(),
                r.step(),
                if r.identical { "yes" } else { "NO" },
                r.digest
            );
        }
    }

    if rows.iter().any(|r| !r.identical) {
        eprintln!("error: a kernel produced different bytes under two backends");
        std::process::exit(1);
    }
}
