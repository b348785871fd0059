//! Dense tensors for the functional reference path.
//!
//! The accelerator operates on cubes of 2-D feature maps; [`Tensor3`] mirrors
//! that layout (`maps x height x width`, row-major within a map, maps
//! outermost — the paper's "intra-order" `(X, Y, Din)` storage corresponds to
//! iterating width fastest within one map).

use crate::rng::XorShift64;
use crate::shape::TensorShape;
use std::fmt;

/// A dense `maps x height x width` tensor of `f32`.
///
/// # Examples
///
/// ```
/// use cbrain_model::{Tensor3, TensorShape};
///
/// let mut t = Tensor3::zeros(TensorShape::new(2, 3, 3));
/// *t.at_mut(1, 2, 0) = 7.0;
/// assert_eq!(t.at(1, 2, 0), 7.0);
/// assert_eq!(t.at(0, 0, 0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3 {
    shape: TensorShape,
    data: Vec<f32>,
}

impl Tensor3 {
    /// All-zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero dimension.
    pub fn zeros(shape: TensorShape) -> Self {
        assert!(shape.is_valid(), "zero-sized tensor shape {shape}");
        Self {
            shape,
            data: vec![0.0; shape.elems()],
        }
    }

    /// Tensor filled by `f(map, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero dimension.
    pub fn from_fn(shape: TensorShape, mut f: impl FnMut(usize, usize, usize) -> f32) -> Self {
        let mut t = Self::zeros(shape);
        for m in 0..shape.maps {
            for y in 0..shape.height {
                for x in 0..shape.width {
                    *t.at_mut(m, y, x) = f(m, y, x);
                }
            }
        }
        t
    }

    /// Deterministic pseudo-random tensor in `[-1, 1)`, seeded so that
    /// experiments are reproducible run to run.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero dimension.
    pub fn random(shape: TensorShape, seed: u64) -> Self {
        let mut rng = XorShift64::seed_from_u64(seed);
        Self::from_fn(shape, |_, _, _| rng.range_f32(-1.0, 1.0))
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.elems()`.
    pub fn from_vec(shape: TensorShape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.elems(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    #[inline]
    fn offset(&self, map: usize, y: usize, x: usize) -> usize {
        debug_assert!(map < self.shape.maps && y < self.shape.height && x < self.shape.width);
        (map * self.shape.height + y) * self.shape.width + x
    }

    /// Element at `(map, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on out-of-range indices.
    #[inline]
    pub fn at(&self, map: usize, y: usize, x: usize) -> f32 {
        self.data[self.offset(map, y, x)]
    }

    /// Mutable element at `(map, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on out-of-range indices.
    #[inline]
    pub fn at_mut(&mut self, map: usize, y: usize, x: usize) -> &mut f32 {
        let off = self.offset(map, y, x);
        &mut self.data[off]
    }

    /// Element at `(map, y, x)` treating coordinates outside the map as a
    /// zero-padded border (signed coordinates).
    #[inline]
    pub fn at_padded(&self, map: usize, y: isize, x: isize) -> f32 {
        if y < 0 || x < 0 || y as usize >= self.shape.height || x as usize >= self.shape.width {
            0.0
        } else {
            self.at(map, y as usize, x as usize)
        }
    }

    /// One contiguous image row: the `width` values of map `map` at height
    /// `y`. The SIMD'd convolution paths operate row-wise on these slices.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on out-of-range indices.
    #[inline]
    pub fn row(&self, map: usize, y: usize) -> &[f32] {
        let off = self.offset(map, y, 0);
        &self.data[off..off + self.shape.width]
    }

    /// Mutable counterpart of [`Tensor3::row`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on out-of-range indices.
    #[inline]
    pub fn row_mut(&mut self, map: usize, y: usize) -> &mut [f32] {
        let off = self.offset(map, y, 0);
        let w = self.shape.width;
        &mut self.data[off..off + w]
    }

    /// Flat view of the underlying storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Maximum absolute element-wise difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor3) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in comparison");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Applies ReLU in place (the accelerator's active-function stage).
    ///
    /// Uses select semantics (`v > 0.0 ? v : 0.0`) so the SIMD and scalar
    /// backends agree bitwise; `-0.0` normalizes to `+0.0`.
    pub fn relu_in_place(&mut self) {
        cbrain_simd::relu(&mut self.data);
    }
}

impl fmt::Display for Tensor3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor3({})", self.shape)
    }
}

/// Convolution weights: `out_maps` kernels of
/// `in_maps_per_group x kernel x kernel` values.
///
/// # Examples
///
/// ```
/// use cbrain_model::{ConvParams, ConvWeights};
///
/// let params = ConvParams::new(3, 8, 5, 1, 2);
/// let w = ConvWeights::random(&params, 1);
/// assert_eq!(w.len(), 8 * 3 * 5 * 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConvWeights {
    out_maps: usize,
    in_maps_per_group: usize,
    kernel: usize,
    data: Vec<f32>,
}

impl ConvWeights {
    /// All-zero weights for the given convolution.
    pub fn zeros(params: &crate::layer::ConvParams) -> Self {
        let len = params.weight_count();
        Self {
            out_maps: params.out_maps,
            in_maps_per_group: params.in_maps_per_group(),
            kernel: params.kernel,
            data: vec![0.0; len],
        }
    }

    /// Deterministic pseudo-random weights in `[-0.5, 0.5)`.
    pub fn random(params: &crate::layer::ConvParams, seed: u64) -> Self {
        let mut w = Self::zeros(params);
        let mut rng = XorShift64::seed_from_u64(seed);
        for v in &mut w.data {
            *v = rng.range_f32(-0.5, 0.5);
        }
        w
    }

    /// Weights filled by `f(out_map, in_map, ky, kx)`.
    pub fn from_fn(
        params: &crate::layer::ConvParams,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let mut w = Self::zeros(params);
        for o in 0..w.out_maps {
            for i in 0..w.in_maps_per_group {
                for ky in 0..w.kernel {
                    for kx in 0..w.kernel {
                        *w.at_mut(o, i, ky, kx) = f(o, i, ky, kx);
                    }
                }
            }
        }
        w
    }

    #[inline]
    fn offset(&self, out_map: usize, in_map: usize, ky: usize, kx: usize) -> usize {
        debug_assert!(
            out_map < self.out_maps
                && in_map < self.in_maps_per_group
                && ky < self.kernel
                && kx < self.kernel
        );
        ((out_map * self.in_maps_per_group + in_map) * self.kernel + ky) * self.kernel + kx
    }

    /// Weight for output map `out_map`, group-local input map `in_map`,
    /// kernel position `(ky, kx)`.
    #[inline]
    pub fn at(&self, out_map: usize, in_map: usize, ky: usize, kx: usize) -> f32 {
        self.data[self.offset(out_map, in_map, ky, kx)]
    }

    /// Mutable weight access; see [`ConvWeights::at`].
    #[inline]
    pub fn at_mut(&mut self, out_map: usize, in_map: usize, ky: usize, kx: usize) -> &mut f32 {
        let off = self.offset(out_map, in_map, ky, kx);
        &mut self.data[off]
    }

    /// The contiguous `kernel * kernel` run of weights for output map
    /// `out_map` and group-local input map `in_map`, in `(ky, kx)`
    /// row-major order — exactly the layout [`crate::reference::unroll_windows`]
    /// produces per window, so the unrolled executor can take a dot product
    /// of the two runs directly.
    #[inline]
    pub fn kernel_run(&self, out_map: usize, in_map: usize) -> &[f32] {
        let off = self.offset(out_map, in_map, 0, 0);
        &self.data[off..off + self.kernel * self.kernel]
    }

    /// Every weight, laid out `[out_map][in_map][ky][kx]` row-major: the
    /// order [`ConvWeights::at`] indexes.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Total number of weight values.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether there are no weights (never true for a valid convolution).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// `[out_maps, in_maps_per_group, kernel]`: the layout of the
    /// convolution these weights were built for.
    pub(crate) fn dims(&self) -> [usize; 3] {
        [self.out_maps, self.in_maps_per_group, self.kernel]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ConvParams;

    #[test]
    fn zeros_and_index() {
        let mut t = Tensor3::zeros(TensorShape::new(2, 3, 4));
        assert_eq!(t.as_slice().len(), 24);
        *t.at_mut(1, 2, 3) = 5.0;
        assert_eq!(t.at(1, 2, 3), 5.0);
        assert_eq!(t.at(0, 0, 0), 0.0);
    }

    #[test]
    fn from_fn_layout_is_row_major_maps_outer() {
        let t = Tensor3::from_fn(TensorShape::new(2, 2, 2), |m, y, x| {
            (m * 100 + y * 10 + x) as f32
        });
        assert_eq!(
            t.as_slice(),
            &[0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0]
        );
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor3::random(TensorShape::new(2, 4, 4), 42);
        let b = Tensor3::random(TensorShape::new(2, 4, 4), 42);
        let c = Tensor3::random(TensorShape::new(2, 4, 4), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn padded_access() {
        let t = Tensor3::from_fn(TensorShape::new(1, 2, 2), |_, y, x| (y * 2 + x + 1) as f32);
        assert_eq!(t.at_padded(0, -1, 0), 0.0);
        assert_eq!(t.at_padded(0, 0, -1), 0.0);
        assert_eq!(t.at_padded(0, 2, 0), 0.0);
        assert_eq!(t.at_padded(0, 1, 1), 4.0);
    }

    #[test]
    fn max_abs_diff() {
        let a = Tensor3::zeros(TensorShape::new(1, 2, 2));
        let mut b = Tensor3::zeros(TensorShape::new(1, 2, 2));
        *b.at_mut(0, 1, 1) = -0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }

    #[test]
    fn rows_are_contiguous_width_slices() {
        let mut t = Tensor3::from_fn(TensorShape::new(2, 2, 3), |m, y, x| {
            (m * 100 + y * 10 + x) as f32
        });
        assert_eq!(t.row(1, 1), &[110.0, 111.0, 112.0]);
        t.row_mut(0, 1).copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(t.at(0, 1, 2), 9.0);
        assert_eq!(t.row(0, 0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn kernel_run_matches_elementwise_access() {
        let p = ConvParams::new(3, 2, 2, 1, 0);
        let w = ConvWeights::from_fn(&p, |o, i, ky, kx| {
            (o * 1000 + i * 100 + ky * 10 + kx) as f32
        });
        let run = w.kernel_run(1, 2);
        assert_eq!(run.len(), 4);
        for ky in 0..2 {
            for kx in 0..2 {
                assert_eq!(run[ky * 2 + kx], w.at(1, 2, ky, kx));
            }
        }
    }

    #[test]
    fn relu() {
        let mut t = Tensor3::from_fn(TensorShape::new(1, 1, 3), |_, _, x| x as f32 - 1.0);
        t.relu_in_place();
        assert_eq!(t.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zeros_rejects_empty_shape() {
        let _ = Tensor3::zeros(TensorShape::new(0, 1, 1));
    }

    #[test]
    fn weights_layout() {
        let p = ConvParams::new(2, 3, 2, 1, 0);
        let w = ConvWeights::from_fn(&p, |o, i, ky, kx| {
            (o * 1000 + i * 100 + ky * 10 + kx) as f32
        });
        assert_eq!(w.at(2, 1, 1, 0), 2110.0);
        assert_eq!(w.len(), 3 * 2 * 2 * 2);
        assert!(!w.is_empty());
    }

    #[test]
    fn grouped_weights_smaller() {
        let whole = ConvParams::new(96, 256, 5, 1, 2);
        let grouped = ConvParams::grouped(96, 256, 5, 1, 2, 2);
        assert_eq!(
            ConvWeights::zeros(&grouped).len() * 2,
            ConvWeights::zeros(&whole).len()
        );
    }
}
