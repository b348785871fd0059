//! Ground-truth forward pass, written as the straightforward sliding-window
//! loop nest (Sec. 3 of the paper). Every parallelization scheme in the
//! compiler/functional crates is validated against these functions.

use crate::error::ModelError;
use crate::layer::{ConvParams, EltwiseOp, FcParams, PoolKind, PoolParams};
use crate::shape::TensorShape;
use crate::tensor::{ConvWeights, Tensor3};

/// Checks a convolution's operands against `params` and returns its
/// output shape. [`conv_forward`] and every scheme executor in
/// `cbrain::functional` start with it, so operands that do not fit the
/// layer are the same error whichever of them runs.
///
/// # Errors
///
/// Returns [`ModelError::InvalidLayer`] naming `layer` when `params` do
/// not validate, [`ModelError::KernelExceedsInput`] when the kernel does
/// not fit the padded input, and [`ModelError::ShapeMismatch`] when the
/// input's maps, the weights' `out x in-per-group x k x k` layout or the
/// bias length differ from what `params` need.
pub fn check_conv_operands(
    layer: &str,
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
) -> Result<TensorShape, ModelError> {
    params.validate(layer)?;
    let out_shape = params.output_shape(input.shape())?;
    let wanted = [params.out_maps, params.in_maps_per_group(), params.kernel];
    if weights.dims() != wanted {
        let layout = |[o, i, k]: [usize; 3]| format!("{o}x{i}x{k}x{k} values");
        return Err(ModelError::ShapeMismatch {
            context: "convolution weights".to_owned(),
            expected: layout(wanted),
            found: layout(weights.dims()),
        });
    }
    if let Some(b) = bias.filter(|b| b.len() != params.out_maps) {
        return Err(ModelError::ShapeMismatch {
            context: "convolution bias".to_owned(),
            expected: format!("{} values", params.out_maps),
            found: format!("{} values", b.len()),
        });
    }
    Ok(out_shape)
}

/// Direct convolution: for every output pixel, slide the `k x k x Din/groups`
/// kernel across the zero-padded input and accumulate.
///
/// # Errors
///
/// Returns a [`ModelError`] when the input/weight shapes disagree with
/// `params`.
///
/// # Examples
///
/// ```
/// use cbrain_model::{reference, ConvParams, ConvWeights, Tensor3, TensorShape};
///
/// let params = ConvParams::new(1, 1, 2, 1, 0);
/// let input = Tensor3::from_fn(TensorShape::new(1, 2, 2), |_, y, x| (y * 2 + x) as f32);
/// let weights = ConvWeights::from_fn(&params, |_, _, _, _| 1.0);
/// let out = reference::conv_forward(&input, &weights, None, &params)?;
/// assert_eq!(out.at(0, 0, 0), 0.0 + 1.0 + 2.0 + 3.0);
/// # Ok::<(), cbrain_model::ModelError>(())
/// ```
pub fn conv_forward(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: Option<&[f32]>,
    params: &ConvParams,
) -> Result<Tensor3, ModelError> {
    let out_shape = check_conv_operands("<conv>", input, weights, bias, params)?;
    let mut out = Tensor3::zeros(out_shape);
    let in_per_group = params.in_maps_per_group();
    let out_per_group = params.out_maps_per_group();
    let pad = params.pad as isize;
    let in_shape = input.shape();
    if params.stride == 1 {
        // Row-wise path: for a unit stride every output row is an axpy
        // accumulation of shifted input rows. Vectorization runs *across*
        // independent output pixels, so each pixel still accumulates its
        // terms in the same `i -> ky -> kx` order as the per-pixel loop
        // below — the SIMD and scalar backends agree bit-for-bit.
        for o in 0..params.out_maps {
            let group = o / out_per_group;
            let in_base = group * in_per_group;
            let b = bias.map_or(0.0, |b| b[o]);
            for oy in 0..out_shape.height {
                let iy0 = oy as isize - pad;
                let row = out.row_mut(o, oy);
                row.fill(b);
                for i in 0..in_per_group {
                    for ky in 0..params.kernel {
                        let y = iy0 + ky as isize;
                        if y < 0 || y as usize >= in_shape.height {
                            continue;
                        }
                        let in_row = input.row(in_base + i, y as usize);
                        for kx in 0..params.kernel {
                            // Output columns whose tap `ox + kx - pad`
                            // lands inside the (unpadded) input row.
                            let lo = pad.saturating_sub(kx as isize).max(0) as usize;
                            let hi = (in_shape.width as isize + pad - kx as isize)
                                .clamp(0, out_shape.width as isize)
                                as usize;
                            if lo >= hi {
                                continue;
                            }
                            let x0 = (lo as isize + kx as isize - pad) as usize;
                            cbrain_simd::axpy(
                                &mut row[lo..hi],
                                weights.at(o, i, ky, kx),
                                &in_row[x0..x0 + (hi - lo)],
                            );
                        }
                    }
                }
            }
        }
        return Ok(out);
    }
    for o in 0..params.out_maps {
        let group = o / out_per_group;
        let in_base = group * in_per_group;
        let b = bias.map_or(0.0, |b| b[o]);
        for oy in 0..out_shape.height {
            for ox in 0..out_shape.width {
                let mut acc = b;
                let iy0 = (oy * params.stride) as isize - pad;
                let ix0 = (ox * params.stride) as isize - pad;
                for i in 0..in_per_group {
                    for ky in 0..params.kernel {
                        for kx in 0..params.kernel {
                            let v =
                                input.at_padded(in_base + i, iy0 + ky as isize, ix0 + kx as isize);
                            acc += v * weights.at(o, i, ky, kx);
                        }
                    }
                }
                *out.at_mut(o, oy, ox) = acc;
            }
        }
    }
    Ok(out)
}

/// Pooling: max or average over non-padded `p x p` windows at stride `sp`.
///
/// # Errors
///
/// Returns a [`ModelError`] if the window does not fit in the input.
pub fn pool_forward(input: &Tensor3, params: &PoolParams) -> Result<Tensor3, ModelError> {
    let out_shape = params.output_shape(input.shape())?;
    let mut out = Tensor3::zeros(out_shape);
    let in_shape = input.shape();
    for m in 0..out_shape.maps {
        for oy in 0..out_shape.height {
            for ox in 0..out_shape.width {
                let y0 = oy * params.stride;
                let x0 = ox * params.stride;
                // Ceil mode lets the last window hang off the edge; clamp it.
                let y1 = (y0 + params.kernel).min(in_shape.height);
                let x1 = (x0 + params.kernel).min(in_shape.width);
                let mut acc = match params.kind {
                    PoolKind::Max => f32::NEG_INFINITY,
                    PoolKind::Average => 0.0,
                };
                let mut count = 0usize;
                for y in y0..y1 {
                    for x in x0..x1 {
                        let v = input.at(m, y, x);
                        match params.kind {
                            PoolKind::Max => acc = acc.max(v),
                            PoolKind::Average => acc += v,
                        }
                        count += 1;
                    }
                }
                *out.at_mut(m, oy, ox) = match params.kind {
                    PoolKind::Max => acc,
                    PoolKind::Average => acc / count as f32,
                };
            }
        }
    }
    Ok(out)
}

/// Fully-connected layer: `out[j] = bias[j] + sum_i in[i] * w[j][i]`, with
/// weights stored row-major by output feature.
///
/// # Errors
///
/// Returns a [`ModelError`] on any length mismatch.
pub fn fc_forward(
    input: &[f32],
    weights: &[f32],
    bias: Option<&[f32]>,
    params: &FcParams,
) -> Result<Vec<f32>, ModelError> {
    if input.len() != params.in_features {
        return Err(ModelError::ShapeMismatch {
            context: "fully-connected input".to_owned(),
            expected: format!("{} values", params.in_features),
            found: format!("{} values", input.len()),
        });
    }
    if weights.len() != params.in_features * params.out_features {
        return Err(ModelError::ShapeMismatch {
            context: "fully-connected weights".to_owned(),
            expected: format!("{} values", params.in_features * params.out_features),
            found: format!("{} values", weights.len()),
        });
    }
    if let Some(b) = bias {
        if b.len() != params.out_features {
            return Err(ModelError::ShapeMismatch {
                context: "fully-connected bias".to_owned(),
                expected: format!("{} values", params.out_features),
                found: format!("{} values", b.len()),
            });
        }
    }
    let mut out = Vec::with_capacity(params.out_features);
    for j in 0..params.out_features {
        let row = &weights[j * params.in_features..(j + 1) * params.in_features];
        out.push(bias.map_or(0.0, |b| b[j]) + cbrain_simd::dot(input, row));
    }
    Ok(out)
}

/// Elementwise merge of two same-shaped cubes (residual shortcut).
///
/// # Errors
///
/// Returns a [`ModelError::ShapeMismatch`] when the operand shapes differ.
///
/// # Examples
///
/// ```
/// use cbrain_model::{reference, EltwiseOp, Tensor3, TensorShape};
///
/// let a = Tensor3::from_fn(TensorShape::new(1, 2, 2), |_, y, x| (y + x) as f32);
/// let b = Tensor3::from_fn(TensorShape::new(1, 2, 2), |_, _, _| 1.0);
/// let out = reference::eltwise_forward(&a, &b, EltwiseOp::Add)?;
/// assert_eq!(out.at(0, 1, 1), 3.0);
/// # Ok::<(), cbrain_model::ModelError>(())
/// ```
pub fn eltwise_forward(a: &Tensor3, b: &Tensor3, op: EltwiseOp) -> Result<Tensor3, ModelError> {
    if a.shape() != b.shape() {
        return Err(ModelError::ShapeMismatch {
            context: "eltwise operands".to_owned(),
            expected: a.shape().to_string(),
            found: b.shape().to_string(),
        });
    }
    let mut data = a.as_slice().to_vec();
    match op {
        EltwiseOp::Add => cbrain_simd::add_assign(&mut data, b.as_slice()),
    }
    Ok(Tensor3::from_vec(a.shape(), data))
}

/// Unrolls the input for intra-kernel parallelization (im2col): every
/// `k x k` window of every input map becomes one contiguous run of `k*k`
/// values. Returns `(buffer, windows_y, windows_x)`; the buffer layout is
/// `map-major, then window row, then window column, then kernel row-major`.
///
/// The duplication factor of this transform is the paper's Equation 1.
/// `cbrain::functional::unrolled_forward` writes the same runs tap-major
/// straight from the input; this window-major form is its tests' oracle.
///
/// # Errors
///
/// Returns a [`ModelError`] if the kernel does not fit.
pub fn unroll_windows(
    input: &Tensor3,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Result<(Vec<f32>, usize, usize), ModelError> {
    let shape = input.shape();
    let padded_h = shape.height + 2 * pad;
    let padded_w = shape.width + 2 * pad;
    if kernel > padded_h || kernel > padded_w || kernel == 0 || stride == 0 {
        return Err(ModelError::KernelExceedsInput {
            layer: "<unroll>".to_owned(),
            kernel,
            padded_extent: padded_h.min(padded_w),
        });
    }
    let wy = (padded_h - kernel) / stride + 1;
    let wx = (padded_w - kernel) / stride + 1;
    let mut out = Vec::with_capacity(shape.maps * wy * wx * kernel * kernel);
    for m in 0..shape.maps {
        for oy in 0..wy {
            for ox in 0..wx {
                let y0 = (oy * stride) as isize - pad as isize;
                let x0 = (ox * stride) as isize - pad as isize;
                for ky in 0..kernel {
                    let y = y0 + ky as isize;
                    if y < 0 || y as usize >= shape.height {
                        out.resize(out.len() + kernel, 0.0);
                        continue;
                    }
                    // The in-bounds columns of this window row form one
                    // contiguous slice of the image row; copy it whole.
                    let lo = ((-x0).max(0) as usize).min(kernel);
                    let hi =
                        ((shape.width as isize - x0).clamp(0, kernel as isize) as usize).max(lo);
                    out.resize(out.len() + lo, 0.0);
                    if lo < hi {
                        let x = (x0 + lo as isize) as usize;
                        out.extend_from_slice(&input.row(m, y as usize)[x..x + (hi - lo)]);
                    }
                    out.resize(out.len() + (kernel - hi), 0.0);
                }
            }
        }
    }
    Ok((out, wy, wx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::TensorShape;

    fn ramp(shape: TensorShape) -> Tensor3 {
        let mut i = 0.0f32;
        Tensor3::from_fn(shape, |_, _, _| {
            i += 1.0;
            i
        })
    }

    #[test]
    fn identity_kernel_convolution() {
        // A 1x1 kernel of weight 1 reproduces the input map.
        let params = ConvParams::new(1, 1, 1, 1, 0);
        let input = ramp(TensorShape::new(1, 4, 4));
        let weights = ConvWeights::from_fn(&params, |_, _, _, _| 1.0);
        let out = conv_forward(&input, &weights, None, &params).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn box_filter_sums_window() {
        let params = ConvParams::new(1, 1, 2, 1, 0);
        let input = Tensor3::from_fn(TensorShape::new(1, 2, 3), |_, y, x| (y * 3 + x) as f32);
        let weights = ConvWeights::from_fn(&params, |_, _, _, _| 1.0);
        let out = conv_forward(&input, &weights, None, &params).unwrap();
        assert_eq!(out.shape(), TensorShape::new(1, 1, 2));
        assert_eq!(out.at(0, 0, 0), 0.0 + 1.0 + 3.0 + 4.0);
        assert_eq!(out.at(0, 0, 1), 1.0 + 2.0 + 4.0 + 5.0);
    }

    #[test]
    fn stride_skips_positions() {
        let params = ConvParams::new(1, 1, 2, 2, 0);
        let input = Tensor3::from_fn(TensorShape::new(1, 4, 4), |_, y, x| (y * 4 + x) as f32);
        let weights = ConvWeights::from_fn(&params, |_, _, _, _| 1.0);
        let out = conv_forward(&input, &weights, None, &params).unwrap();
        assert_eq!(out.shape(), TensorShape::new(1, 2, 2));
        // Window anchored at (2, 2): 10 + 11 + 14 + 15.
        assert_eq!(out.at(0, 1, 1), 50.0);
    }

    #[test]
    fn padding_adds_zero_border() {
        let params = ConvParams::new(1, 1, 3, 1, 1);
        let input = Tensor3::from_fn(TensorShape::new(1, 2, 2), |_, _, _| 1.0);
        let weights = ConvWeights::from_fn(&params, |_, _, _, _| 1.0);
        let out = conv_forward(&input, &weights, None, &params).unwrap();
        assert_eq!(out.shape(), TensorShape::new(1, 2, 2));
        // Corner windows see 4 ones, everything else padded zeros.
        assert_eq!(out.at(0, 0, 0), 4.0);
    }

    #[test]
    fn bias_is_added_per_output_map() {
        let params = ConvParams::new(1, 2, 1, 1, 0);
        let input = Tensor3::zeros(TensorShape::new(1, 2, 2));
        let weights = ConvWeights::zeros(&params);
        let out = conv_forward(&input, &weights, Some(&[1.5, -2.0]), &params).unwrap();
        assert_eq!(out.at(0, 1, 1), 1.5);
        assert_eq!(out.at(1, 0, 0), -2.0);
    }

    #[test]
    fn grouped_conv_blocks_cross_talk() {
        // Two groups; weights are 1. Output map 0 must only see input map 0.
        let params = ConvParams::grouped(2, 2, 1, 1, 0, 2);
        let input = Tensor3::from_fn(TensorShape::new(2, 1, 1), |m, _, _| (m + 1) as f32 * 10.0);
        let weights = ConvWeights::from_fn(&params, |_, _, _, _| 1.0);
        let out = conv_forward(&input, &weights, None, &params).unwrap();
        assert_eq!(out.at(0, 0, 0), 10.0);
        assert_eq!(out.at(1, 0, 0), 20.0);
    }

    #[test]
    fn conv_rejects_wrong_weight_len() {
        let params = ConvParams::new(1, 1, 3, 1, 0);
        let other = ConvParams::new(1, 1, 2, 1, 0);
        let input = Tensor3::zeros(TensorShape::new(1, 4, 4));
        let weights = ConvWeights::zeros(&other);
        assert!(conv_forward(&input, &weights, None, &params).is_err());
    }

    #[test]
    fn max_pool() {
        let input = Tensor3::from_fn(TensorShape::new(1, 2, 2), |_, y, x| (y * 2 + x) as f32);
        let out = pool_forward(&input, &PoolParams::max(2, 2)).unwrap();
        assert_eq!(out.at(0, 0, 0), 3.0);
    }

    #[test]
    fn average_pool() {
        let input = Tensor3::from_fn(TensorShape::new(1, 2, 2), |_, y, x| (y * 2 + x) as f32);
        let out = pool_forward(&input, &PoolParams::average(2, 2)).unwrap();
        assert_eq!(out.at(0, 0, 0), 1.5);
    }

    #[test]
    fn ceil_mode_pool_clamps_edge_window() {
        // 5-wide input, k=2, s=2, ceil: 3 windows; last window has 1 column.
        let input = Tensor3::from_fn(TensorShape::new(1, 5, 5), |_, y, x| (y * 5 + x) as f32);
        let mut p = PoolParams::max(2, 2);
        p.ceil_mode = true;
        let out = pool_forward(&input, &p).unwrap();
        assert_eq!(out.shape(), TensorShape::new(1, 3, 3));
        assert_eq!(out.at(0, 2, 2), 24.0);
    }

    #[test]
    fn fc_matches_hand_computation() {
        let params = FcParams::new(3, 2);
        let input = [1.0, 2.0, 3.0];
        let weights = [1.0, 0.0, 0.0, 0.5, 0.5, 0.5];
        let out = fc_forward(&input, &weights, Some(&[0.0, 1.0]), &params).unwrap();
        assert_eq!(out, vec![1.0, 4.0]);
    }

    #[test]
    fn fc_rejects_bad_lengths() {
        let params = FcParams::new(3, 2);
        assert!(fc_forward(&[1.0; 2], &[0.0; 6], None, &params).is_err());
        assert!(fc_forward(&[1.0; 3], &[0.0; 5], None, &params).is_err());
        assert!(fc_forward(&[1.0; 3], &[0.0; 6], Some(&[0.0; 3]), &params).is_err());
    }

    #[test]
    fn eltwise_add_is_elementwise() {
        let a = ramp(TensorShape::new(2, 2, 2));
        let b = ramp(TensorShape::new(2, 2, 2));
        let out = eltwise_forward(&a, &b, EltwiseOp::Add).unwrap();
        for (o, x) in out.as_slice().iter().zip(a.as_slice()) {
            assert_eq!(*o, 2.0 * x);
        }
    }

    #[test]
    fn eltwise_rejects_shape_mismatch() {
        let a = Tensor3::zeros(TensorShape::new(1, 2, 2));
        let b = Tensor3::zeros(TensorShape::new(1, 2, 3));
        assert!(eltwise_forward(&a, &b, EltwiseOp::Add).is_err());
    }

    #[test]
    fn unroll_duplication_matches_equation_1() {
        // 28x28 map, k=5, s=1: unrolled size is 24*24*25 (paper Sec. 4.1.2).
        let input = Tensor3::zeros(TensorShape::new(1, 28, 28));
        let (buf, wy, wx) = unroll_windows(&input, 5, 1, 0).unwrap();
        assert_eq!((wy, wx), (24, 24));
        assert_eq!(buf.len(), 24 * 24 * 25);
    }

    #[test]
    fn unrolled_windows_are_contiguous_and_correct() {
        let input = Tensor3::from_fn(TensorShape::new(1, 3, 3), |_, y, x| (y * 3 + x) as f32);
        let (buf, wy, wx) = unroll_windows(&input, 2, 1, 0).unwrap();
        assert_eq!((wy, wx), (2, 2));
        // First window is rows {0,1} x cols {0,1}.
        assert_eq!(&buf[0..4], &[0.0, 1.0, 3.0, 4.0]);
        // Last window is rows {1,2} x cols {1,2}.
        assert_eq!(&buf[12..16], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn unroll_with_padding() {
        let input = Tensor3::from_fn(TensorShape::new(1, 2, 2), |_, _, _| 1.0);
        let (buf, wy, wx) = unroll_windows(&input, 3, 1, 1).unwrap();
        assert_eq!((wy, wx), (2, 2));
        // Each padded 3x3 window over a 2x2 ones-map sums to 4.
        let first: f32 = buf[0..9].iter().sum();
        assert_eq!(first, 4.0);
    }
}
