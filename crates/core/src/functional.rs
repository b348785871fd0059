//! Data-accurate executions of each mapping scheme.
//!
//! The performance simulator never touches values; this module proves the
//! *mathematical* claims: kernel partitioning (Algorithm 1), data
//! unrolling, and the improved inter-kernel partial-sum ordering all
//! compute exactly the same convolution as the reference sliding window.
//! The PE-level variant additionally pushes values through the segmented
//! adder-tree datapath the cycle model assumes.
//!
//! At unit stride, kernel partitioning degenerates to one pass per kernel
//! tap, the same add-and-store order improved inter uses, so both run one
//! shared executor ([`simd::conv_rows`]). It keeps each output's order of
//! adds, not the hardware's loop order: a register block of output maps x
//! pixels takes every tap in row-major order before it moves on, so the
//! block stays in L1 instead of the whole output streaming through the
//! cache once per tap. A tap over the padding adds an exact `+0.0`
//! partial, whatever its weights. The unrolled executor copies each input
//! map's windows tap-major into a scratch, straight from the map (Eq. 1's
//! unrolling, with no window-major im2col copy between), and runs their
//! dots a register of windows at a time ([`simd::dot_windows`], whose runs
//! of fewer than eight taps, such as a 2x2 kernel's, take a block built
//! for their length). Both kernels vectorize across independent outputs,
//! so every output keeps the exact sequence of adds the per-pixel loops
//! below spell out.
//!
//! Every executor checks its operands with
//! [`reference::check_conv_operands`], as the reference does.

use crate::partition_math::partition;
use cbrain_model::{reference, simd, ConvParams, ConvWeights, ModelError, Tensor3, TensorShape};
use cbrain_sim::pe::PeArray;
use cbrain_sim::PeConfig;

/// The outputs `ox < out_w` of a row (or column) whose input tap
/// `ox * stride + kx - pad` lands inside an unpadded extent `in_w`,
/// together with the input index the first one reads: `(lo, hi, x0)`
/// with the span possibly empty (`lo >= hi`).
#[inline]
fn row_span(
    kx: usize,
    pad: usize,
    stride: usize,
    in_w: usize,
    out_w: usize,
) -> (usize, usize, usize) {
    let lo = pad.saturating_sub(kx).div_ceil(stride);
    let hi = (in_w + pad).saturating_sub(kx).div_ceil(stride).min(out_w);
    let x0 = if lo < hi { lo * stride + kx - pad } else { 0 };
    (lo, hi, x0)
}

/// The output buffer of partial sums, seeded with the bias.
fn bias_seeded(out_shape: TensorShape, bias: Option<&[f32]>) -> Tensor3 {
    let mut out = Tensor3::zeros(out_shape);
    if let Some(b) = bias {
        let plane = out_shape.height * out_shape.width;
        for (map, &bv) in out.as_mut_slice().chunks_exact_mut(plane).zip(b) {
            map.fill(bv);
        }
    }
    out
}

/// Scratch budget of [`unit_stride`] in floats (16 KB): a band holds as
/// many output rows as fit, and at least one.
const BAND_FLOATS: usize = 4096;

/// The unit-stride executor that [`partition_forward`] (whose `ks == 1`
/// sub-kernels are single taps) and [`improved_inter_forward`] share.
/// Every output pixel takes one add-and-store per kernel tap `(ky, kx)`,
/// in row-major order, of its partial summed from `+0.0` over the group's
/// input maps in order; a tap over the padding adds an exact `+0.0`,
/// whatever its weights. [`simd::conv_rows`] runs every tap of a block of
/// output maps x pixels before it moves on. It reads the weights in place
/// and, per band of output rows and group, the input rows the band reads
/// from a reused scratch whose columns outside the input stay zero. A
/// band holds as many output rows as fit in [`BAND_FLOATS`], and at least
/// one: 16 rows of a 3-deep 5x5 stem on 64-pixel rows, one row of a
/// 32-deep 3x3 layer on 32-pixel rows (13 KB), a depthwise group's whole
/// map.
fn unit_stride(input: &Tensor3, weights: &ConvWeights, params: &ConvParams, out: &mut Tensor3) {
    let (in_shape, out_shape) = (input.shape(), out.shape());
    let (din, dout) = (params.in_maps_per_group(), params.out_maps_per_group());
    let (k, pad) = (params.kernel, params.pad);
    let (out_h, out_w) = (out_shape.height, out_shape.width);
    // Scratch column `c` of a row holds input column `c - pad`.
    let cols = out_w + k - 1;
    let band = (BAND_FLOATS / (din * cols))
        .saturating_sub(k - 1)
        .min(out_h)
        .max(1);
    let xs_map = (band + k - 1) * cols;
    let mut scratch = vec![0.0f32; din * xs_map];
    let group_weights = dout * din * k * k;
    for oy in (0..out_h).step_by(band) {
        let rows = band.min(out_h - oy);
        // Scratch row `j` holds input row `oy + j - pad`.
        let in_rows =
            pad.saturating_sub(oy)..(in_shape.height + pad).saturating_sub(oy).min(rows + k - 1);
        for group in 0..params.groups {
            for (i, map) in scratch.chunks_exact_mut(xs_map).enumerate() {
                for j in in_rows.clone() {
                    map[j * cols + pad..][..in_shape.width]
                        .copy_from_slice(input.row(group * din + i, oy + j - pad));
                }
            }
            let o = group * dout;
            simd::conv_rows(
                &mut out.as_mut_slice()[(o * out_h + oy) * out_w..],
                &weights.as_slice()[o * din * k * k..][..group_weights],
                &scratch,
                &simd::RowBand {
                    maps: dout,
                    din,
                    k,
                    rows,
                    len: out_w,
                    dst_map: out_h * out_w,
                    dst_row: out_w,
                    xs_map,
                    xs_row: cols,
                    in_rows: in_rows.clone(),
                    in_cols: pad..pad + in_shape.width,
                },
            );
        }
    }
}

/// Kernel-partitioned convolution (Algorithm 1): the `k x k` kernel is
/// split into `g x g` sub-kernels of side `ks = s`; each pass produces a
/// partial output map (`r_{i/G}` in Fig. 5d) which is accumulated into the
/// final result.
///
/// At unit stride the passes are the kernel taps, run by the executor
/// [`improved_inter_forward`] shares: every output takes its tap partials
/// in row-major order, and a tap over the padding adds an exact `+0.0`,
/// whatever its weights: no product of a padded zero reaches an output.
/// The strided passes multiply the padding's zeros like any input.
///
/// # Errors
///
/// Propagates shape/parameter errors.
///
/// # Examples
///
/// ```
/// use cbrain::functional::partition_forward;
/// use cbrain_model::{reference, ConvParams, ConvWeights, Tensor3, TensorShape};
///
/// let params = ConvParams::new(3, 4, 11, 4, 0);
/// let input = Tensor3::random(TensorShape::new(3, 43, 43), 7);
/// let weights = ConvWeights::random(&params, 8);
/// let ours = partition_forward(&input, &weights, None, &params)?;
/// let truth = reference::conv_forward(&input, &weights, None, &params)?;
/// assert!(ours.max_abs_diff(&truth) < 1e-4);
/// # Ok::<(), cbrain_model::ModelError>(())
/// ```
pub fn partition_forward(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
) -> Result<Tensor3, ModelError> {
    let out_shape = reference::check_conv_operands("<partition>", input, weights, bias, params)?;
    let (g, ks) = partition(params.kernel, params.stride);
    // Seed with the bias, then add the g*g partial maps.
    let mut out = bias_seeded(out_shape, bias);
    if params.stride == 1 {
        // Unit stride means ks == 1: every pass slides a single weight,
        // so the passes are exactly the kernel taps (Algorithm 1 line 8
        // is each pass's one add-and-store per pixel).
        unit_stride(input, weights, params, &mut out);
        return Ok(out);
    }

    let in_per_group = params.in_maps_per_group();
    let out_per_group = params.out_maps_per_group();
    let pad = params.pad as isize;
    for gy in 0..g {
        for gx in 0..g {
            // One pass: slide the (gy, gx) sub-kernel at stride s. Its
            // windows are non-overlapping because ks == s.
            for o in 0..params.out_maps {
                let group = o / out_per_group;
                let in_base = group * in_per_group;
                for oy in 0..out_shape.height {
                    for ox in 0..out_shape.width {
                        let mut acc = 0.0f32;
                        for i in 0..in_per_group {
                            for ky in 0..ks {
                                for kx in 0..ks {
                                    let wy = gy * ks + ky;
                                    let wx = gx * ks + kx;
                                    // Zero-padded weights beyond k (Fig. 5c).
                                    if wy >= params.kernel || wx >= params.kernel {
                                        continue;
                                    }
                                    let y = (oy * params.stride) as isize - pad + wy as isize;
                                    let x = (ox * params.stride) as isize - pad + wx as isize;
                                    acc += input.at_padded(in_base + i, y, x)
                                        * weights.at(o, i, wy, wx);
                                }
                            }
                        }
                        // Algorithm 1 line 8: reload the partial pixel, add,
                        // store.
                        *out.at_mut(o, oy, ox) += acc;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Unrolled (im2col) convolution: the intra-kernel scheme's data layout.
/// Every window's `k x k` taps form one run (Eq. 1's footprint cost), and
/// each output pixel is one dot product of its run with the kernel per
/// input map, added to the bias in input-map order.
///
/// One input map at a time, the runs are written tap-major into a reused
/// `k^2 x windows` scratch, straight from the map: per tap and window
/// row, a strided copy of the input columns that tap reads. Every output
/// map of the map's group then takes one [`simd::dot_windows`] over it:
/// the vector lanes run across windows, each window's dot keeping
/// [`simd::dot`]'s graph.
///
/// # Errors
///
/// Propagates shape/parameter errors. Grouped convolutions are supported.
pub fn unrolled_forward(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
) -> Result<Tensor3, ModelError> {
    let out_shape = reference::check_conv_operands("<unrolled>", input, weights, bias, params)?;
    let in_shape = input.shape();
    let (k, s) = (params.kernel, params.stride);
    let (out_h, out_w) = (out_shape.height, out_shape.width);
    let windows = out_h * out_w;
    let in_per_group = params.in_maps_per_group();
    let out_per_group = params.out_maps_per_group();

    let mut out = bias_seeded(out_shape, bias);
    // Tap t = (ky, kx) of window (oy, ox) sits at taps[t * windows + oy *
    // out_w + ox]. Which taps fall in the padding depends on the geometry
    // alone, so they keep the zeros they start with and every map writes
    // the same in-bounds slots.
    let mut taps = vec![0.0f32; k * k * windows];
    for m in 0..in_shape.maps {
        for (t, run) in taps.chunks_exact_mut(windows).enumerate() {
            let (rows_lo, rows_hi, y0) = row_span(t / k, params.pad, s, in_shape.height, out_h);
            let (lo, hi, x0) = row_span(t % k, params.pad, s, in_shape.width, out_w);
            if lo >= hi {
                continue;
            }
            for oy in rows_lo..rows_hi {
                let xs = input.row(m, y0 + (oy - rows_lo) * s)[x0..]
                    .iter()
                    .step_by(s);
                for (d, &x) in run[oy * out_w + lo..oy * out_w + hi].iter_mut().zip(xs) {
                    *d = x;
                }
            }
        }
        let (group, i) = (m / in_per_group, m % in_per_group);
        for o in group * out_per_group..(group + 1) * out_per_group {
            let map = &mut out.as_mut_slice()[o * windows..][..windows];
            simd::dot_windows(map, &taps, weights.kernel_run(o, i));
        }
    }
    Ok(out)
}

/// Plain inter-kernel convolution with the input-map dimension walked in
/// `tin`-wide blocks: each block's window dot-product accumulates in a PE
/// register, then add-and-stores into the output buffer once per block —
/// the accumulation order of the inter-kernel hardware mapping.
///
/// The reference sliding window accumulates the whole window in one
/// running sum; this executor deliberately reorders it the way the array
/// does, so the conformance suite compares two genuinely different
/// summation orders.
///
/// # Errors
///
/// Propagates shape/parameter errors. Grouped convolutions are supported.
///
/// # Panics
///
/// Panics if `tin` is zero.
pub fn inter_forward(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
    tin: usize,
) -> Result<Tensor3, ModelError> {
    assert!(tin > 0, "tin must be non-zero");
    let out_shape = reference::check_conv_operands("<inter>", input, weights, bias, params)?;
    let in_per_group = params.in_maps_per_group();
    let out_per_group = params.out_maps_per_group();
    let pad = params.pad as isize;

    let mut out = bias_seeded(out_shape, bias);
    if params.stride == 1 {
        // Row-wise variant: each Din block's partial accumulates in a row
        // of "PE registers" via axpy over shifted input rows (term order
        // per pixel unchanged: i -> ky -> kx), then one add-and-store per
        // block, exactly like the per-pixel loop below.
        let in_shape = input.shape();
        let mut acc_row = vec![0.0f32; out_shape.width];
        for o in 0..params.out_maps {
            let group = o / out_per_group;
            let in_base = group * in_per_group;
            for oy in 0..out_shape.height {
                for i_block in (0..in_per_group).step_by(tin) {
                    acc_row.fill(0.0);
                    for i in i_block..(i_block + tin).min(in_per_group) {
                        for ky in 0..params.kernel {
                            let y = oy as isize - pad + ky as isize;
                            if y < 0 || y as usize >= in_shape.height {
                                continue;
                            }
                            let in_row = input.row(in_base + i, y as usize);
                            for kx in 0..params.kernel {
                                let (lo, hi, x0) =
                                    row_span(kx, params.pad, 1, in_shape.width, out_shape.width);
                                if lo < hi {
                                    simd::axpy(
                                        &mut acc_row[lo..hi],
                                        weights.at(o, i, ky, kx),
                                        &in_row[x0..x0 + (hi - lo)],
                                    );
                                }
                            }
                        }
                    }
                    // One add-and-store per Din block.
                    simd::add_assign(out.row_mut(o, oy), &acc_row);
                }
            }
        }
        return Ok(out);
    }

    for o in 0..params.out_maps {
        let group = o / out_per_group;
        let in_base = group * in_per_group;
        for oy in 0..out_shape.height {
            for ox in 0..out_shape.width {
                for i_block in (0..in_per_group).step_by(tin) {
                    let mut acc = 0.0f32; // the PE register
                    for i in i_block..(i_block + tin).min(in_per_group) {
                        for ky in 0..params.kernel {
                            for kx in 0..params.kernel {
                                let y = (oy * params.stride) as isize - pad + ky as isize;
                                let x = (ox * params.stride) as isize - pad + kx as isize;
                                acc +=
                                    input.at_padded(in_base + i, y, x) * weights.at(o, i, ky, kx);
                            }
                        }
                    }
                    // One add-and-store per Din block.
                    *out.at_mut(o, oy, ox) += acc;
                }
            }
        }
    }
    Ok(out)
}

/// Improved inter-kernel convolution (Sec. 4.2.2): the kernel-position loop
/// is outermost, so each output element is built from `k*k` partial sums
/// accumulated in the output buffer ("add-and-store") instead of in the PE
/// register. At unit stride that is the executor [`partition_forward`]
/// shares, which adds the partials of a block of outputs tap by tap
/// before the next block, and adds an exact `+0.0` for a tap over the
/// padding, whatever its weights. The strided path multiplies the
/// padding's zeros like any input.
///
/// # Errors
///
/// Propagates shape/parameter errors.
pub fn improved_inter_forward(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
) -> Result<Tensor3, ModelError> {
    let out_shape =
        reference::check_conv_operands("<improved-inter>", input, weights, bias, params)?;
    let in_per_group = params.in_maps_per_group();
    let out_per_group = params.out_maps_per_group();
    let pad = params.pad as isize;

    // The "output buffer" of partial sums.
    let mut out = bias_seeded(out_shape, bias);
    if params.stride == 1 {
        unit_stride(input, weights, params, &mut out);
        return Ok(out);
    }

    // Weights for one (ky, kx) are held while every pixel of every output
    // map is visited — the traversal that slashes weight reloads.
    for ky in 0..params.kernel {
        for kx in 0..params.kernel {
            for o in 0..params.out_maps {
                let group = o / out_per_group;
                let in_base = group * in_per_group;
                for oy in 0..out_shape.height {
                    for ox in 0..out_shape.width {
                        let y = (oy * params.stride) as isize - pad + ky as isize;
                        let x = (ox * params.stride) as isize - pad + kx as isize;
                        let mut partial = 0.0f32;
                        for i in 0..in_per_group {
                            partial +=
                                input.at_padded(in_base + i, y, x) * weights.at(o, i, ky, kx);
                        }
                        // add-and-store
                        *out.at_mut(o, oy, ox) += partial;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Kernel-partitioned convolution executed issue-by-issue on the
/// functional PE array, including the adder-tree segmentation that packs
/// several `ks x ks` sub-windows into one issue (Sec. 4.2.1's mapping).
///
/// Supports ungrouped layers whose sub-window size does not exceed `Tin`.
///
/// # Errors
///
/// Propagates shape/parameter errors.
///
/// # Panics
///
/// Panics if `params.groups != 1` or `s * s > pe.tin` (not a meaningful
/// hardware mapping — use [`partition_forward`] for the general check).
pub fn partition_forward_on_pe(
    input: &Tensor3,
    weights: &ConvWeights,
    params: &ConvParams,
    pe: PeConfig,
) -> Result<Tensor3, ModelError> {
    assert_eq!(params.groups, 1, "PE-level check supports ungrouped only");
    let (g, ks) = partition(params.kernel, params.stride);
    let window = ks * ks;
    assert!(window <= pe.tin, "sub-window must fit the lane group");
    let out_shape = reference::check_conv_operands("<partition-pe>", input, weights, None, params)?;
    let array = PeArray::new(pe);
    let pack = pe.tin / window;
    let pad = params.pad as isize;

    let mut out = Tensor3::zeros(out_shape);
    let windows_total = out_shape.height * out_shape.width;

    for gy in 0..g {
        for gx in 0..g {
            for i in 0..params.in_maps {
                // Sweep output maps in Tout-wide blocks with weights held.
                for o_base in (0..params.out_maps).step_by(pe.tout) {
                    let o_count = pe.tout.min(params.out_maps - o_base);
                    // Weight vector per output lane: the sub-kernel repeated
                    // per packed window.
                    let lane_weights: Vec<Vec<f64>> = (0..o_count)
                        .map(|oo| {
                            let mut w = Vec::with_capacity(pack * window);
                            for _ in 0..pack {
                                for ky in 0..ks {
                                    for kx in 0..ks {
                                        let (wy, wx) = (gy * ks + ky, gx * ks + kx);
                                        let v = if wy < params.kernel && wx < params.kernel {
                                            weights.at(o_base + oo, i, wy, wx) as f64
                                        } else {
                                            0.0
                                        };
                                        w.push(v);
                                    }
                                }
                            }
                            w
                        })
                        .collect();

                    for w_base in (0..windows_total).step_by(pack) {
                        let batch = pack.min(windows_total - w_base);
                        // Gather the packed sub-windows (contiguous in the
                        // real buffer; gathered here from the dense tensor).
                        let mut data = Vec::with_capacity(batch * window);
                        for b in 0..batch {
                            let w_idx = w_base + b;
                            let (oy, ox) = (w_idx / out_shape.width, w_idx % out_shape.width);
                            for ky in 0..ks {
                                for kx in 0..ks {
                                    let y = (oy * params.stride) as isize - pad
                                        + (gy * ks + ky) as isize;
                                    let x = (ox * params.stride) as isize - pad
                                        + (gx * ks + kx) as isize;
                                    data.push(input.at_padded(i, y, x) as f64);
                                }
                            }
                        }
                        let lanes: Vec<&[f64]> = lane_weights[..o_count]
                            .iter()
                            .map(|w| &w[..data.len()])
                            .collect();
                        let psums = array
                            .issue(&data, &lanes, window)
                            .expect("issue shapes are consistent by construction");
                        for (oo, lane) in psums.iter().enumerate() {
                            for (b, p) in lane.iter().enumerate() {
                                let w_idx = w_base + b;
                                let (oy, ox) = (w_idx / out_shape.width, w_idx % out_shape.width);
                                // add-and-store into the output buffer.
                                *out.at_mut(o_base + oo, oy, ox) += *p as f32;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::TensorShape;

    const TOL: f32 = 2e-3;

    fn check_against_reference(
        params: ConvParams,
        input_shape: TensorShape,
        f: impl Fn(&Tensor3, &ConvWeights, Option<&[f32]>, &ConvParams) -> Result<Tensor3, ModelError>,
    ) {
        let input = Tensor3::random(input_shape, 11);
        let weights = ConvWeights::random(&params, 23);
        let bias: Vec<f32> = (0..params.out_maps).map(|i| i as f32 * 0.1 - 1.0).collect();
        let truth = reference::conv_forward(&input, &weights, Some(&bias), &params).unwrap();
        let ours = f(&input, &weights, Some(&bias), &params).unwrap();
        let diff = ours.max_abs_diff(&truth);
        assert!(diff < TOL, "diff={diff}");
    }

    #[test]
    fn partition_matches_reference_alexnet_c1_shape() {
        // Scaled-down AlexNet conv1: k=11, s=4.
        check_against_reference(
            ConvParams::new(3, 8, 11, 4, 0),
            TensorShape::new(3, 47, 47),
            partition_forward,
        );
    }

    #[test]
    fn partition_matches_reference_with_padding() {
        check_against_reference(
            ConvParams::new(4, 6, 5, 2, 2),
            TensorShape::new(4, 19, 19),
            partition_forward,
        );
    }

    #[test]
    fn partition_matches_reference_stride_1() {
        // VGG-style: g=3, ks=1 single-weight sub-kernels.
        check_against_reference(
            ConvParams::new(3, 4, 3, 1, 1),
            TensorShape::new(3, 12, 12),
            partition_forward,
        );
    }

    #[test]
    fn partition_matches_reference_grouped() {
        check_against_reference(
            ConvParams::grouped(6, 8, 5, 2, 1, 2),
            TensorShape::new(6, 17, 17),
            partition_forward,
        );
    }

    #[test]
    fn partition_matches_when_k_equals_s() {
        // Degenerate g=1: plain sliding window.
        check_against_reference(
            ConvParams::new(2, 3, 4, 4, 0),
            TensorShape::new(2, 16, 16),
            partition_forward,
        );
    }

    #[test]
    fn unrolled_matches_reference() {
        check_against_reference(
            ConvParams::new(3, 5, 5, 2, 1),
            TensorShape::new(3, 15, 15),
            unrolled_forward,
        );
    }

    #[test]
    fn unrolled_matches_reference_grouped() {
        check_against_reference(
            ConvParams::grouped(4, 4, 3, 1, 1, 2),
            TensorShape::new(4, 9, 9),
            unrolled_forward,
        );
    }

    #[test]
    fn inter_blocked_matches_reference() {
        check_against_reference(
            ConvParams::new(40, 6, 3, 1, 1),
            TensorShape::new(40, 9, 9),
            |i, w, b, p| inter_forward(i, w, b, p, 16),
        );
    }

    #[test]
    fn inter_blocked_matches_reference_grouped_depthwise() {
        check_against_reference(
            ConvParams::depthwise(6, 3, 2, 1),
            TensorShape::new(6, 11, 11),
            |i, w, b, p| inter_forward(i, w, b, p, 16),
        );
    }

    #[test]
    fn improved_inter_matches_reference() {
        check_against_reference(
            ConvParams::new(5, 7, 3, 1, 1),
            TensorShape::new(5, 13, 13),
            improved_inter_forward,
        );
    }

    #[test]
    fn improved_inter_matches_reference_strided() {
        check_against_reference(
            ConvParams::grouped(6, 4, 5, 2, 0, 2),
            TensorShape::new(6, 21, 21),
            improved_inter_forward,
        );
    }

    #[test]
    fn executors_reject_operands_like_the_reference() {
        let short_bias = [0.5f32];
        for params in [
            ConvParams::new(3, 4, 3, 1, 1),
            ConvParams::new(3, 4, 2, 2, 0),
        ] {
            let (k, s) = (params.kernel, params.stride);
            let input = Tensor3::random(TensorShape::new(3, 8, 8), 1);
            let weights = ConvWeights::random(&params, 2);
            // Weights of other layers: too few values, and as many values
            // in another layout.
            let fewer = ConvWeights::random(&ConvParams::new(3, 2, k, s, 0), 3);
            let relaid = ConvWeights::random(&ConvParams::new(1, 12, k, s, 0), 4);
            assert_eq!(relaid.len(), weights.len());
            for (w, bias) in [
                (&weights, Some(&short_bias[..])),
                (&fewer, None),
                (&relaid, None),
            ] {
                let truth = reference::conv_forward(&input, w, bias, &params).unwrap_err();
                assert!(matches!(truth, ModelError::ShapeMismatch { .. }), "{truth}");
                for (name, result) in [
                    ("partition", partition_forward(&input, w, bias, &params)),
                    ("unrolled", unrolled_forward(&input, w, bias, &params)),
                    ("inter", inter_forward(&input, w, bias, &params, 2)),
                    (
                        "improved-inter",
                        improved_inter_forward(&input, w, bias, &params),
                    ),
                ] {
                    assert_eq!(result.unwrap_err(), truth, "{name} {params:?}");
                }
            }
        }
    }

    #[test]
    fn pe_level_partition_matches_reference() {
        // k=11, s=4 -> ks=4, window 16 = Tin: exactly one window per issue.
        let params = ConvParams::new(3, 8, 11, 4, 0);
        let input = Tensor3::random(TensorShape::new(3, 43, 43), 3);
        let weights = ConvWeights::random(&params, 5);
        let truth = reference::conv_forward(&input, &weights, None, &params).unwrap();
        let ours =
            partition_forward_on_pe(&input, &weights, &params, PeConfig::new(16, 16)).unwrap();
        let diff = ours.max_abs_diff(&truth);
        assert!(diff < TOL, "diff={diff}");
    }

    #[test]
    fn pe_level_partition_packs_multiple_windows() {
        // k=3, s=1 -> ks=1, window 1: 16 windows pack per issue.
        let params = ConvParams::new(2, 5, 3, 1, 1);
        let input = Tensor3::random(TensorShape::new(2, 10, 10), 13);
        let weights = ConvWeights::random(&params, 17);
        let truth = reference::conv_forward(&input, &weights, None, &params).unwrap();
        let ours =
            partition_forward_on_pe(&input, &weights, &params, PeConfig::new(16, 4)).unwrap();
        let diff = ours.max_abs_diff(&truth);
        assert!(diff < TOL, "diff={diff}");
    }

    #[test]
    fn pe_level_partition_handles_remainder_batch() {
        // windows_total not a multiple of the pack width.
        let params = ConvParams::new(1, 2, 2, 2, 0);
        let input = Tensor3::random(TensorShape::new(1, 10, 10), 29);
        let weights = ConvWeights::random(&params, 31);
        let truth = reference::conv_forward(&input, &weights, None, &params).unwrap();
        // window = 4, Tin = 12 -> pack 3; 25 windows = 8 batches + 1 rem.
        let ours =
            partition_forward_on_pe(&input, &weights, &params, PeConfig::new(12, 2)).unwrap();
        assert!(ours.max_abs_diff(&truth) < TOL);
    }
}
