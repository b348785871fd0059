//! SIMD differential property suite: every kernel in `cbrain_simd`, and
//! every hot loop rewired onto it, must agree **bit-for-bit** between the
//! scalar fallback and every SIMD backend the CPU has
//! (`simd::Backend::available`) — on *arbitrary* floats, not just the
//! integer-valued tensors the conformance matrix uses. That is the SIMD
//! layer's contract: every path evaluates one canonical expression graph
//! (vertical lanes, zero-padded tails, fixed fold tree, no FMA), so
//! IEEE-754 makes them identical.
//!
//! Geometry coverage follows the lane math: widths `0..=2*lanes+1` hit
//! every remainder class on both sides of a full vector, channel counts
//! are odd, and depthwise `k == 1` layers get their own cells.
//!
//! The backend pin is process-global, so every test that sets it
//! serializes on one mutex and lifts the pin before releasing it.

use cbrain_model::rng::XorShift64;
use cbrain_model::simd;
use cbrain_model::{reference, ConvParams, ConvWeights, EltwiseOp, FcParams, Tensor3, TensorShape};
use std::sync::Mutex;

static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` pinned to the scalar fallback, then pinned to each other
/// backend the CPU has, and lifts the pin. Returns the scalar result and
/// each other backend's name and result.
fn with_every_backend<T>(f: impl Fn() -> T) -> (T, Vec<(&'static str, T)>) {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut legs = simd::Backend::available().iter().map(|&backend| {
        simd::set_backend(Some(backend)).expect("an available backend pins");
        assert_eq!(simd::Backend::active(), backend);
        (backend.name(), f())
    });
    let (first, scalar) = legs.next().expect("the scalar fallback is available");
    assert_eq!(first, "scalar");
    let others = legs.collect();
    simd::set_backend(None).expect("lifting the pin always succeeds");
    (scalar, others)
}

fn assert_bits_eq(scalar: &[f32], vector: &[f32], what: &str) {
    assert_eq!(scalar.len(), vector.len(), "{what}: length");
    for (i, (a, b)) in scalar.iter().zip(vector).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: bit divergence at {i}: {a} vs {b}"
        );
    }
}

fn random_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = XorShift64::seed_from_u64(seed);
    (0..n).map(|_| rng.range_f32(-2.0, 2.0)).collect()
}

// ---------------------------------------------------------------------
// Kernel-level differentials across every lane-remainder width.
// ---------------------------------------------------------------------

#[test]
fn axpy_bitwise_across_remainder_widths() {
    for n in 0..=2 * simd::F32_LANES + 1 {
        let xs = random_f32(n, 0xA11 + n as u64);
        let base = random_f32(n, 0xB22 + n as u64);
        let a = 0.731f32;
        let (s, legs) = with_every_backend(|| {
            let mut dst = base.clone();
            simd::axpy(&mut dst, a, &xs);
            dst
        });
        for (leg, v) in &legs {
            assert_bits_eq(&s, v, &format!("axpy n={n} [{leg}]"));
        }
    }
}

#[test]
fn add_assign_bitwise_across_remainder_widths() {
    for n in 0..=2 * simd::F32_LANES + 1 {
        let xs = random_f32(n, 0xC33 + n as u64);
        let base = random_f32(n, 0xD44 + n as u64);
        let (s, legs) = with_every_backend(|| {
            let mut dst = base.clone();
            simd::add_assign(&mut dst, &xs);
            dst
        });
        for (leg, v) in &legs {
            assert_bits_eq(&s, v, &format!("add_assign n={n} [{leg}]"));
        }
    }
}

#[test]
fn relu_bitwise_including_negative_zero_and_nan() {
    for n in 0..=2 * simd::F32_LANES + 1 {
        let mut vals = random_f32(n, 0xE55 + n as u64);
        // Salt the interesting edge values into deterministic slots.
        for (i, v) in vals.iter_mut().enumerate() {
            match i % 5 {
                0 => *v = -0.0,
                1 => *v = f32::NAN,
                2 => *v = -*v,
                _ => {}
            }
        }
        let (s, legs) = with_every_backend(|| {
            let mut dst = vals.clone();
            simd::relu(&mut dst);
            dst
        });
        for (leg, v) in &legs {
            assert_bits_eq(&s, v, &format!("relu n={n} [{leg}]"));
        }
        // Canonical select semantics hold in every backend.
        for x in &s {
            assert!(x.to_bits() == 0 || *x > 0.0);
        }
    }
}

#[test]
fn dot_bitwise_across_remainder_widths() {
    for n in 0..=3 * simd::F32_LANES + 1 {
        let a = random_f32(n, 0xF66 + n as u64);
        let b = random_f32(n, 0x177 + n as u64);
        let (s, legs) = with_every_backend(|| simd::dot(&a, &b));
        for (leg, v) in legs {
            assert_eq!(s.to_bits(), v.to_bits(), "dot n={n} [{leg}]: {s} vs {v}");
        }
    }
}

#[test]
fn dot_f64_bitwise_across_remainder_widths() {
    for n in 0..=3 * simd::F64_LANES + 1 {
        let mut rng = XorShift64::seed_from_u64(0x288 + n as u64);
        let a: Vec<f64> = (0..n).map(|_| rng.range_f32(-2.0, 2.0) as f64).collect();
        let b: Vec<f64> = (0..n)
            .map(|_| rng.range_f32(-2.0, 2.0) as f64 * 0.37)
            .collect();
        let (s, legs) = with_every_backend(|| simd::dot_f64(&a, &b));
        for (leg, v) in legs {
            assert_eq!(
                s.to_bits(),
                v.to_bits(),
                "dot_f64 n={n} [{leg}]: {s} vs {v}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Output-parallel kernels: the window-lane dot and the tap pass.
// ---------------------------------------------------------------------

/// Every run of fewer than eight taps (one zero-padded block, each length
/// its own block instantiation), one full block, a full block plus a
/// tail, two full blocks, three plus a one-tap tail, and fifteen plus a
/// one-tap tail. The squares among them are `k * k` for `k` in 1, 2, 3,
/// 4, 5 and 11.
const TAP_COUNTS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 25, 121];

#[test]
fn dot_windows_bitwise_and_equal_to_one_dot_per_window() {
    for k2 in TAP_COUNTS {
        // Every window count up to two 16-lane registers and one more.
        for n in (0..=2 * 16 + 1).chain([37]) {
            let seed = (k2 * 1000 + n) as u64;
            let taps = random_f32(k2 * n, 0x1D07 ^ seed);
            let weights = random_f32(k2, 0x2D07 ^ seed);
            let base = random_f32(n, 0x3D07 ^ seed);
            let (s, legs) = with_every_backend(|| {
                let mut dst = base.clone();
                simd::dot_windows(&mut dst, &taps, &weights);
                dst
            });
            for (leg, v) in &legs {
                assert_bits_eq(&s, v, &format!("dot_windows k2={k2} n={n} [{leg}]"));
            }
            let per_window: Vec<f32> = (0..n)
                .map(|w| {
                    let run: Vec<f32> = (0..k2).map(|t| taps[t * n + w]).collect();
                    base[w] + simd::dot(&run, &weights)
                })
                .collect();
            assert_bits_eq(
                &s,
                &per_window,
                &format!("dot_windows vs dot k2={k2} n={n}"),
            );
        }
    }
}

#[test]
fn conv_rows_bitwise_across_map_pixel_and_kernel_remainders() {
    // Maps around the 4-map block, pixels around the 8-, 16-, 32- and
    // 64-pixel blocks (one, two and four registers of 8 or 16 lanes),
    // kernels from one tap to 5x5, rows and maps at padded strides, and
    // input windows that leave rows and columns of the scratch on either
    // side (none, some or all of a row). What the scratch holds there is
    // NaN: a lane the kernel fails to mask shows.
    for maps in 1..=9 {
        for len in [1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 47, 48, 49, 63, 64, 65] {
            for din in [1, 3] {
                for k in [1, 2, 3, 5] {
                    let (rows, cols) = (2 + k - 1, len + k - 1);
                    let b = simd::RowBand {
                        maps,
                        din,
                        k,
                        rows: 2,
                        len,
                        dst_map: 2 * (len + 3),
                        dst_row: len + 3,
                        xs_map: rows * (cols + 5) + 1,
                        xs_row: cols + 5,
                        in_rows: maps % k..rows - (maps / 2) % k,
                        in_cols: (maps + len) % k..cols - (len + din) % k,
                    };
                    let seed = (maps * 100_000 + len * 100 + din * 10 + k) as u64;
                    let mut dst0 = random_f32(maps * b.dst_map, 0x7A9 ^ seed);
                    // A -0.0 output turns +0.0 only if some tap adds its
                    // partial, a padded tap's +0.0 included.
                    for d in dst0.iter_mut().step_by(7) {
                        *d = -0.0;
                    }
                    let mut xs = random_f32(din * b.xs_map, 0x8A9 ^ seed);
                    for (at, x) in xs.iter_mut().enumerate() {
                        let (row, col) = (at % b.xs_map / b.xs_row, at % b.xs_row);
                        if !b.in_rows.contains(&row) || !b.in_cols.contains(&col) {
                            *x = f32::NAN;
                        }
                    }
                    let w = random_f32(maps * din * k * k, 0x9A9 ^ seed);
                    let (s, legs) = with_every_backend(|| {
                        let mut dst = dst0.clone();
                        simd::conv_rows(&mut dst, &w, &xs, &b);
                        (dst, oracle::conv_rows(&dst0, &w, &xs, &b))
                    });
                    let what = format!("conv_rows maps={maps} len={len} din={din} k={k}");
                    assert_bits_eq(&s.0, &s.1, &format!("{what} vs per-tap oracle"));
                    for (leg, v) in &legs {
                        assert_bits_eq(&s.0, &v.0, &format!("{what} [{leg}]"));
                        assert_bits_eq(&v.0, &v.1, &format!("{what} vs per-tap oracle [{leg}]"));
                    }
                }
            }
        }
    }
}

/// Per-call oracles: the straightforward compositions of `simd::axpy`,
/// `simd::add_assign` and `simd::dot` that spell out each
/// output-parallel executor's order of operations, one call per output
/// row or window, so each executor is held to that order bit for bit.
mod oracle {
    use cbrain_model::simd;
    use cbrain_model::{reference, ConvParams, ConvWeights, Tensor3};

    /// [`simd::conv_rows`] one tap at a time: per tap, output map and
    /// row, a zero partial row, one `axpy` per input map over the pixels
    /// whose tap reads input, and one `add_assign` of the whole row.
    pub fn conv_rows(dst: &[f32], w: &[f32], xs: &[f32], b: &simd::RowBand) -> Vec<f32> {
        let mut dst = dst.to_vec();
        let taps = b.k * b.k;
        for t in 0..taps {
            let (ky, kx) = (t / b.k, t % b.k);
            let lo = b.in_cols.start.saturating_sub(kx).min(b.len);
            let hi = b.in_cols.end.saturating_sub(kx).clamp(lo, b.len);
            for m in 0..b.maps {
                for r in 0..b.rows {
                    let mut partial = vec![0.0f32; b.len];
                    if b.in_rows.contains(&(r + ky)) {
                        for i in 0..b.din {
                            let row = &xs[i * b.xs_map + (r + ky) * b.xs_row + kx..];
                            let wt = w[(m * b.din + i) * taps + t];
                            simd::axpy(&mut partial[lo..hi], wt, &row[lo..hi]);
                        }
                    }
                    simd::add_assign(&mut dst[m * b.dst_map + r * b.dst_row..][..b.len], &partial);
                }
            }
        }
        dst
    }

    fn seeded(shape: cbrain_model::TensorShape, bias: &[f32]) -> Tensor3 {
        let mut out = Tensor3::zeros(shape);
        for (o, &bv) in bias.iter().enumerate() {
            for oy in 0..shape.height {
                out.row_mut(o, oy).fill(bv);
            }
        }
        out
    }

    /// The unit-stride loop nest `partition_forward` and
    /// `improved_inter_forward` each carried: per tap, output map and
    /// output row, a zero partial row, one `axpy` per input map over the
    /// in-bounds span, then one `add_assign` of the whole row.
    pub fn stride1(
        input: &Tensor3,
        weights: &ConvWeights,
        bias: &[f32],
        p: &ConvParams,
    ) -> Tensor3 {
        assert_eq!(p.stride, 1);
        let in_shape = input.shape();
        let out_shape = p.output_shape(in_shape).expect("valid case");
        let mut out = seeded(out_shape, bias);
        let (in_per_group, out_per_group) = (p.in_maps_per_group(), p.out_maps_per_group());
        let pad = p.pad as isize;
        let mut partial_row = vec![0.0f32; out_shape.width];
        for ky in 0..p.kernel {
            for kx in 0..p.kernel {
                let lo = (pad - kx as isize).max(0) as usize;
                let hi = (in_shape.width as isize + pad - kx as isize)
                    .clamp(0, out_shape.width as isize) as usize;
                for o in 0..p.out_maps {
                    let in_base = o / out_per_group * in_per_group;
                    for oy in 0..out_shape.height {
                        let y = oy as isize - pad + ky as isize;
                        partial_row.fill(0.0);
                        if y >= 0 && (y as usize) < in_shape.height && lo < hi {
                            let x0 = (lo as isize + kx as isize - pad) as usize;
                            for i in 0..in_per_group {
                                let in_row = input.row(in_base + i, y as usize);
                                simd::axpy(
                                    &mut partial_row[lo..hi],
                                    weights.at(o, i, ky, kx),
                                    &in_row[x0..x0 + (hi - lo)],
                                );
                            }
                        }
                        simd::add_assign(out.row_mut(o, oy), &partial_row);
                    }
                }
            }
        }
        out
    }

    /// The unrolled executor's one `dot` per (output map, window, input
    /// map), added to the bias in input-map order.
    pub fn unrolled(
        input: &Tensor3,
        weights: &ConvWeights,
        bias: &[f32],
        p: &ConvParams,
    ) -> Tensor3 {
        let out_shape = p.output_shape(input.shape()).expect("valid case");
        let (buf, wy, wx) =
            reference::unroll_windows(input, p.kernel, p.stride, p.pad).expect("valid case");
        let k2 = p.kernel * p.kernel;
        let (in_per_group, out_per_group) = (p.in_maps_per_group(), p.out_maps_per_group());
        let windows = wy * wx;
        let mut out = Tensor3::zeros(out_shape);
        for (o, &b) in bias.iter().enumerate().take(p.out_maps) {
            let in_base = o / out_per_group * in_per_group;
            for w in 0..windows {
                let mut acc = b;
                for i in 0..in_per_group {
                    let run = &buf[((in_base + i) * windows + w) * k2..][..k2];
                    acc += simd::dot(run, weights.kernel_run(o, i));
                }
                *out.at_mut(o, w / wx, w % wx) = acc;
            }
        }
        out
    }
}

/// Geometries for the output-parallel executors: widths off the pixel
/// blocks, `Dout` off the map block, grouped and depthwise layers,
/// `k * k` in 1, 4, 9 and 121, window counts off the 8-window register,
/// padding that leaves whole rows, or a whole row span, in the border,
/// and padded `k == s` layers on odd widths, whose border windows the
/// unrolled executor fills with zeros.
fn output_parallel_cases() -> Vec<(ConvParams, TensorShape)> {
    let mut cases = Vec::new();
    for (out_maps, width) in [(1, 7), (5, 15), (6, 16), (7, 17), (9, 31), (3, 33)] {
        cases.push((
            ConvParams::new(3, out_maps, 3, 1, 1),
            TensorShape::new(3, 5, width),
        ));
    }
    cases.extend([
        (ConvParams::new(5, 6, 1, 1, 0), TensorShape::new(5, 3, 19)),
        (ConvParams::new(4, 5, 2, 1, 0), TensorShape::new(4, 6, 13)),
        (ConvParams::new(3, 6, 2, 2, 0), TensorShape::new(3, 10, 14)),
        (ConvParams::new(3, 5, 11, 1, 5), TensorShape::new(3, 12, 13)),
        (ConvParams::new(3, 4, 11, 4, 0), TensorShape::new(3, 23, 27)),
        (
            ConvParams::grouped(6, 9, 3, 1, 1, 3),
            TensorShape::new(6, 5, 11),
        ),
        (
            ConvParams::depthwise(7, 3, 1, 1),
            TensorShape::new(7, 6, 10),
        ),
        (ConvParams::depthwise(4, 2, 2, 0), TensorShape::new(4, 8, 9)),
        (ConvParams::new(3, 5, 3, 1, 2), TensorShape::new(3, 4, 9)),
        (ConvParams::new(2, 5, 7, 1, 3), TensorShape::new(2, 1, 1)),
        // pad > k: the corner outputs see no input at all.
        (ConvParams::new(2, 5, 2, 1, 3), TensorShape::new(2, 3, 4)),
        (ConvParams::new(3, 5, 3, 3, 1), TensorShape::new(3, 10, 11)),
        (ConvParams::new(2, 4, 2, 2, 1), TensorShape::new(2, 7, 9)),
        // The `infer` stem's shape on rows off every pixel block, a
        // depthwise layer on long rows, and an input-map count off the
        // map block.
        (ConvParams::new(3, 6, 5, 1, 2), TensorShape::new(3, 6, 37)),
        (
            ConvParams::depthwise(5, 3, 1, 1),
            TensorShape::new(5, 7, 41),
        ),
        (ConvParams::new(17, 5, 3, 1, 1), TensorShape::new(17, 4, 19)),
    ]);
    cases
}

/// Holds the unrolled executor and, at unit stride, the partition and
/// improved-inter executors to their per-call oracles bit for bit under
/// every backend, and the unrolled executor's backends to each other.
fn check_output_parallel(
    what: &str,
    p: &ConvParams,
    input: &Tensor3,
    w: &ConvWeights,
    bias: &[f32],
) {
    use cbrain::functional::{improved_inter_forward, partition_forward, unrolled_forward};
    let what = |name: &str| format!("{name} {what} {p:?} {}", input.shape());
    let (s, legs) = with_every_backend(|| {
        let unrolled = unrolled_forward(input, w, Some(bias), p).expect("valid");
        let oracle = oracle::unrolled(input, w, bias, p);
        let stride1 = (p.stride == 1).then(|| {
            (
                partition_forward(input, w, Some(bias), p).expect("valid"),
                improved_inter_forward(input, w, Some(bias), p).expect("valid"),
                oracle::stride1(input, w, bias, p),
            )
        });
        (unrolled, oracle, stride1)
    });
    for (leg, (unrolled, oracle, stride1)) in
        legs.iter().map(|(l, v)| (*l, v)).chain([("scalar", &s)])
    {
        let leg = |name| what(&format!("{name} [{leg}]"));
        assert_bits_eq(unrolled.as_slice(), oracle.as_slice(), &leg("unrolled"));
        if let Some((partition, improved, oracle)) = stride1 {
            assert_bits_eq(partition.as_slice(), oracle.as_slice(), &leg("partition"));
            assert_bits_eq(
                improved.as_slice(),
                oracle.as_slice(),
                &leg("improved-inter"),
            );
        }
    }
    for (leg, v) in &legs {
        assert_bits_eq(
            s.0.as_slice(),
            v.0.as_slice(),
            &what(&format!("unrolled scalar vs {leg}")),
        );
    }
}

#[test]
fn output_parallel_executors_equal_their_per_call_oracles() {
    for (ci, (p, shape)) in output_parallel_cases().into_iter().enumerate() {
        let seed = 0x0A1 + ci as u64 * 7_919;
        let input = Tensor3::random(shape, seed);
        let weights = ConvWeights::random(&p, seed ^ 0x5A);
        let mut bias = random_f32(p.out_maps, seed ^ 0xB1);
        // A -0.0 bias only survives if every zero partial is still added.
        bias[0] = -0.0;
        check_output_parallel(&format!("case {ci}"), &p, &input, &weights, &bias);
    }
}

#[test]
fn padded_taps_add_an_exact_zero_under_infinite_weights() {
    use cbrain::functional::{improved_inter_forward, partition_forward};
    // pad 3 on a 3x3 kernel: the outputs of the border rows and columns
    // read only padding through some taps, and the corner outputs
    // through all nine. An infinite weight times a padded zero is NaN, so
    // only an exact +0.0 partial for those taps matches the oracle, which
    // never multiplies the padding.
    let p = ConvParams::new(3, 5, 3, 1, 3);
    let input = Tensor3::random(TensorShape::new(3, 4, 9), 0x1F);
    let mut weights = ConvWeights::random(&p, 0x2F);
    *weights.at_mut(0, 1, 0, 0) = f32::INFINITY;
    *weights.at_mut(0, 2, 2, 2) = f32::NEG_INFINITY;
    *weights.at_mut(3, 0, 1, 2) = f32::INFINITY;
    let mut bias = random_f32(p.out_maps, 0x3F);
    bias[0] = -0.0;
    check_output_parallel("infinite weights", &p, &input, &weights, &bias);
    // The corner output of map 0 is its -0.0 bias plus nine +0.0
    // partials: +0.0.
    let (s, legs) = with_every_backend(|| {
        (
            partition_forward(&input, &weights, Some(&bias), &p).expect("valid"),
            improved_inter_forward(&input, &weights, Some(&bias), &p).expect("valid"),
        )
    });
    for (leg, (partition, improved)) in legs.iter().map(|(l, v)| (*l, v)).chain([("scalar", &s)]) {
        assert_eq!(partition.at(0, 0, 0).to_bits(), 0, "partition [{leg}]");
        assert_eq!(improved.at(0, 0, 0).to_bits(), 0, "improved-inter [{leg}]");
    }
}

// ---------------------------------------------------------------------
// Hot-loop differentials: conv reference, im2col, fc, eltwise, relu.
// ---------------------------------------------------------------------

/// Geometries chosen to hit lane remainders in the output rows (widths
/// 1..=17 around the 8-lane vector), odd channel counts, grouped and
/// depthwise layers (including k == 1), strided layers (the per-pixel
/// path) and pad >= 1 border spans.
fn conv_cases() -> Vec<(ConvParams, TensorShape)> {
    let mut cases = Vec::new();
    // Unit-stride 3x3 across every output-row remainder class.
    for w in 1..=2 * simd::F32_LANES + 1 {
        cases.push((ConvParams::new(3, 2, 3, 1, 1), TensorShape::new(3, 4, w)));
    }
    // Odd channel counts, 1x1 and 5x5, pad 0 and 2.
    cases.push((ConvParams::new(5, 3, 1, 1, 0), TensorShape::new(5, 3, 13)));
    cases.push((ConvParams::new(7, 5, 5, 1, 2), TensorShape::new(7, 6, 11)));
    // Grouped and depthwise, k == 3 and the degenerate k == 1.
    cases.push((
        ConvParams::grouped(6, 4, 3, 1, 1, 2),
        TensorShape::new(6, 5, 9),
    ));
    cases.push((
        ConvParams::depthwise(5, 3, 1, 1),
        TensorShape::new(5, 4, 10),
    ));
    cases.push((
        ConvParams::depthwise(3, 1, 1, 0),
        TensorShape::new(3, 2, 17),
    ));
    // Strided layers exercise the per-pixel fallback path.
    cases.push((ConvParams::new(3, 4, 11, 4, 0), TensorShape::new(3, 23, 23)));
    cases.push((ConvParams::new(4, 3, 3, 2, 1), TensorShape::new(4, 9, 9)));
    cases
}

#[test]
fn conv_reference_bitwise_scalar_vs_simd() {
    for (ci, (p, shape)) in conv_cases().into_iter().enumerate() {
        let seed = 0x5EED + ci as u64 * 7919;
        let input = Tensor3::random(shape, seed);
        let weights = ConvWeights::random(&p, seed ^ 0xF1);
        let mut rng = XorShift64::seed_from_u64(seed ^ 0xB1A5);
        let bias: Vec<f32> = (0..p.out_maps).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let (s, legs) = with_every_backend(|| {
            reference::conv_forward(&input, &weights, Some(&bias), &p).expect("valid case")
        });
        for (leg, v) in &legs {
            assert_bits_eq(
                s.as_slice(),
                v.as_slice(),
                &format!("conv case {ci} {p:?} [{leg}]"),
            );
        }
    }
}

type Executor<'a> = (&'a str, Box<dyn Fn() -> Tensor3 + 'a>);

#[test]
fn scheme_executors_bitwise_scalar_vs_simd() {
    use cbrain::functional::{
        improved_inter_forward, inter_forward, partition_forward, unrolled_forward,
    };
    for (ci, (p, shape)) in conv_cases().into_iter().enumerate() {
        let seed = 0xFEED + ci as u64 * 104729;
        let input = Tensor3::random(shape, seed);
        let weights = ConvWeights::random(&p, seed ^ 0x33);
        let mut rng = XorShift64::seed_from_u64(seed ^ 0x77);
        let bias: Vec<f32> = (0..p.out_maps).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let executors: [Executor<'_>; 4] = [
            (
                "inter",
                Box::new(|| {
                    inter_forward(&input, &weights, Some(&bias), &p, 3).expect("valid case")
                }),
            ),
            (
                "improved-inter",
                Box::new(|| {
                    improved_inter_forward(&input, &weights, Some(&bias), &p).expect("valid case")
                }),
            ),
            (
                "unrolled",
                Box::new(|| {
                    unrolled_forward(&input, &weights, Some(&bias), &p).expect("valid case")
                }),
            ),
            (
                "partition",
                Box::new(|| {
                    partition_forward(&input, &weights, Some(&bias), &p).expect("valid case")
                }),
            ),
        ];
        for (name, run) in &executors {
            let (s, legs) = with_every_backend(run);
            for (leg, v) in &legs {
                assert_bits_eq(
                    s.as_slice(),
                    v.as_slice(),
                    &format!("{name} case {ci} {p:?} [{leg}]"),
                );
            }
        }
    }
}

#[test]
fn unroll_windows_bitwise_scalar_vs_simd() {
    for (ci, (p, shape)) in conv_cases().into_iter().enumerate() {
        let input = Tensor3::random(shape, 0x1AB + ci as u64);
        let (s, legs) = with_every_backend(|| {
            reference::unroll_windows(&input, p.kernel, p.stride, p.pad).expect("valid case")
        });
        for (leg, v) in &legs {
            assert_eq!((s.1, s.2), (v.1, v.2));
            assert_bits_eq(&s.0, &v.0, &format!("unroll case {ci} [{leg}]"));
        }
    }
}

#[test]
fn fc_bitwise_scalar_vs_simd_at_odd_widths() {
    for in_features in [1, 3, 7, 8, 9, 16, 17, 33] {
        let p = FcParams::new(in_features, 5);
        let input = random_f32(in_features, 0x4CC + in_features as u64);
        let weights = random_f32(in_features * 5, 0x5DD + in_features as u64);
        let bias = random_f32(5, 0x6EE);
        let (s, legs) = with_every_backend(|| {
            reference::fc_forward(&input, &weights, Some(&bias), &p).expect("valid case")
        });
        for (leg, v) in &legs {
            assert_bits_eq(&s, v, &format!("fc in={in_features} [{leg}]"));
        }
    }
}

#[test]
fn eltwise_and_relu_bitwise_scalar_vs_simd() {
    let shape = TensorShape::new(3, 5, 11);
    let a = Tensor3::random(shape, 0x7FF);
    let b = Tensor3::random(shape, 0x800);
    let (s, legs) = with_every_backend(|| {
        let mut out = reference::eltwise_forward(&a, &b, EltwiseOp::Add).expect("shapes match");
        out.relu_in_place();
        out
    });
    for (leg, v) in &legs {
        assert_bits_eq(s.as_slice(), v.as_slice(), &format!("eltwise+relu [{leg}]"));
    }
}

// ---------------------------------------------------------------------
// Simulator differentials: PE issue values and machine statistics.
// ---------------------------------------------------------------------

#[test]
fn pe_issue_bitwise_scalar_vs_simd() {
    use cbrain_sim::pe::PeArray;
    use cbrain_sim::PeConfig;
    let array = PeArray::new(PeConfig::new(16, 4));
    let mut rng = XorShift64::seed_from_u64(0x91A);
    for segment_len in [1, 2, 4, 8, 16] {
        let data: Vec<f64> = (0..16).map(|_| rng.range_f32(-1.5, 1.5) as f64).collect();
        let lanes: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..16).map(|_| rng.range_f32(-1.5, 1.5) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
        let (s, legs) = with_every_backend(|| {
            array
                .issue(&data, &refs, segment_len)
                .expect("consistent shapes")
        });
        for (leg, v) in &legs {
            for (lane, (ls, lv)) in s.iter().zip(v).enumerate() {
                for (seg, (a, b)) in ls.iter().zip(lv).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "issue seg_len={segment_len} lane={lane} seg={seg} [{leg}]"
                    );
                }
            }
        }
    }
}

#[test]
fn machine_stats_identical_scalar_vs_simd_and_traced_vs_untraced() {
    use cbrain_sim::{AcceleratorConfig, Machine, MacroOp, Program, Tile};
    let mut rng = XorShift64::seed_from_u64(0xACE);
    let tiles: Vec<Tile> = (0..9)
        .map(|i| {
            let mut ops: Vec<MacroOp> = (0..=i % 5)
                .map(|_| MacroOp::MacBurst {
                    bursts: 1 + rng.next_u64() % 1000,
                    active_lanes: 1 + (rng.next_u64() % 256) as u32,
                    input_reads: (rng.next_u64() % 17) as u32,
                    input_requests: 1 + (rng.next_u64() % 4) as u32,
                    weight_reads: (rng.next_u64() % 257) as u32,
                    psum_reads: (rng.next_u64() % 17) as u32,
                    output_writes: (rng.next_u64() % 17) as u32,
                })
                .collect();
            ops.push(MacroOp::AddStore {
                count: rng.next_u64() % 100,
            });
            Tile {
                dram_read_bytes: rng.next_u64() % 4096,
                dram_write_bytes: rng.next_u64() % 1024,
                ops,
            }
        })
        .collect();
    let prog = Program::new(tiles);
    let machine = Machine::new(AcceleratorConfig::paper_16_16());
    let (s, legs) = with_every_backend(|| machine.run(&prog));
    for (leg, v) in &legs {
        assert_eq!(&s, v, "stats diverge between scalar and {leg} accounting");
    }
    let (traced, _) = machine.run_traced(&prog, 4096);
    assert_eq!(s, traced, "bulk accounting diverges from the traced path");
}

// ---------------------------------------------------------------------
// The suite's own preconditions.
// ---------------------------------------------------------------------

#[test]
fn active_backend_reports_a_name() {
    // Sanity: whatever hardware CI runs on, dispatch resolves somewhere.
    let name = simd::Backend::active().name();
    assert!(
        ["scalar", "sse2", "avx2", "avx512", "neon"].contains(&name),
        "{name}"
    );
    // The line `scripts/ci.sh` prints, so a log shows what was checked.
    let available: Vec<&str> = simd::Backend::available()
        .iter()
        .map(|b| b.name())
        .collect();
    println!("simd backends: {}", available.join(" "));
}
