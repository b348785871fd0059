//! # cbrain-simd
//!
//! A small safe SIMD layer for the workspace's arithmetic hot loops: the
//! reference convolution, the scheme executors' accumulation paths, the
//! functional PE array's segmented dot products and the simulator's
//! multiply-burst accounting.
//!
//! ## Dispatch strategy
//!
//! Every public kernel is a safe function that dispatches once per call on
//! [`Backend::active`]: AVX2 when the CPU reports it at runtime, otherwise
//! SSE2 (baseline on `x86_64`), NEON on `aarch64` (baseline there), and a
//! scalar fallback everywhere else. `CBRAIN_FORCE_SCALAR=1` (or a
//! programmatic [`set_force_scalar`] override, which wins over the
//! environment) pins the scalar fallback so differential tests can compare
//! the two paths inside one process.
//!
//! ## The bit-exactness contract
//!
//! Every kernel computes one *canonical* floating-point expression graph,
//! and every backend — including the scalar fallback — evaluates exactly
//! that graph:
//!
//! * element-wise kernels ([`axpy`], [`add_assign`], [`relu`]) perform the
//!   same independent per-element operation in every backend, so lanes
//!   cannot interact;
//! * reductions ([`dot`], [`dot_f64`]) accumulate into a fixed number of
//!   *vertical* partial sums ([`F32_LANES`] / [`F64_LANES`]), zero-pad the
//!   tail block, and fold the partials in one fixed tree order. The scalar
//!   fallback maintains the same lane array and folds it in the same
//!   order, and narrower vector units (SSE2/NEON) run two registers side
//!   by side to preserve the 8-wide (f32) / 4-wide (f64) lane layout;
//! * output-parallel kernels ([`dot_windows`], [`conv_rows`]) evaluate
//!   each output's own graph ([`dot`]'s lanes per window; per pixel, one
//!   in-order sum over the input maps for each kernel tap, added in tap
//!   order) with the vector lanes across independent outputs, so lane
//!   width cannot reorder anything either. [`conv_rows`] masks the lanes
//!   of a tap over the padding to an exact `+0.0` partial, so no product
//!   of a padded input reaches an output, whatever the weights.
//!
//! IEEE-754 multiplies and adds are exact per lane (no FMA contraction is
//! used anywhere), so every backend returns bit-identical results on
//! arbitrary inputs — not merely on the integer-valued tensors the
//! conformance suite feeds (where *any* summation order is exact because
//! all partial sums are integers far below 2^24). `tests/prop_simd.rs`
//! enforces the bit-for-bit contract across lane-remainder geometries.
//!
//! ## Example
//!
//! ```
//! let a = [1.0f32, 2.0, 3.0, 4.0, 5.0];
//! let b = [0.5f32, 0.5, 0.5, 0.5, 0.5];
//! assert_eq!(cbrain_simd::dot(&a, &b), 7.5);
//!
//! let mut acc = [1.0f32; 5];
//! cbrain_simd::axpy(&mut acc, 2.0, &a);
//! assert_eq!(acc, [3.0, 5.0, 7.0, 9.0, 11.0]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable that pins the scalar fallback when set to `1`,
/// `true` or `on` (case-insensitive). Read once, at first dispatch, here
/// and nowhere else: this crate sits below `cbrain::config`.
pub const ENV_FORCE_SCALAR: &str = "CBRAIN_FORCE_SCALAR";

/// Number of vertical f32 accumulator lanes every [`dot`] backend uses.
pub const F32_LANES: usize = 8;

/// Number of vertical f64 accumulator lanes every [`dot_f64`] backend uses.
pub const F64_LANES: usize = 4;

/// The instruction set a kernel call executes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar fallback (also the forced differential-test path).
    Scalar,
    /// x86_64 SSE2 (baseline — always available on that architecture).
    Sse2,
    /// x86_64 AVX2, selected by runtime feature detection.
    Avx2,
    /// aarch64 NEON (baseline on that architecture).
    Neon,
}

impl Backend {
    /// The backend kernels currently dispatch to, honouring
    /// [`set_force_scalar`] first and `CBRAIN_FORCE_SCALAR` second.
    pub fn active() -> Backend {
        if scalar_forced() {
            Backend::Scalar
        } else {
            detected()
        }
    }

    /// Short lowercase name (`scalar`, `sse2`, `avx2`, `neon`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// 0 = follow the environment, 1 = force scalar, 2 = force SIMD.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Programmatic override of the scalar pin: `Some(true)` forces the scalar
/// fallback, `Some(false)` forces SIMD dispatch (where available), `None`
/// restores the `CBRAIN_FORCE_SCALAR` environment default. The override is
/// process-global; differential tests serialize around it.
pub fn set_force_scalar(force: Option<bool>) {
    let v = match force {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    OVERRIDE.store(v, Ordering::SeqCst);
}

/// Whether kernels are currently pinned to the scalar fallback.
pub fn scalar_forced() -> bool {
    match OVERRIDE.load(Ordering::SeqCst) {
        1 => true,
        2 => false,
        _ => env_forced(),
    }
}

fn env_forced() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        matches!(
            std::env::var(ENV_FORCE_SCALAR)
                .map(|v| v.trim().to_ascii_lowercase())
                .as_deref(),
            Ok("1") | Ok("true") | Ok("on")
        )
    })
}

fn detected() -> Backend {
    static DETECTED: OnceLock<Backend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                Backend::Avx2
            } else {
                Backend::Sse2
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            Backend::Neon
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            Backend::Scalar
        }
    })
}

/// `dst[i] += a * xs[i]` for every element. Element-wise, so every backend
/// is bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(dst: &mut [f32], a: f32, xs: &[f32]) {
    assert_eq!(dst.len(), xs.len(), "axpy length mismatch");
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::axpy_avx2(dst, a, xs) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::axpy_sse2(dst, a, xs) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::axpy(dst, a, xs) },
        _ => scalar::axpy(dst, a, xs),
    }
}

/// `dst[i] += xs[i]` for every element.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_assign(dst: &mut [f32], xs: &[f32]) {
    assert_eq!(dst.len(), xs.len(), "add_assign length mismatch");
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::add_avx2(dst, xs) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::add_sse2(dst, xs) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::add(dst, xs) },
        _ => scalar::add(dst, xs),
    }
}

/// In-place ReLU with select semantics: `dst[i] = if dst[i] > 0.0
/// { dst[i] } else { 0.0 }`. Negative zero becomes `+0.0` and NaN becomes
/// `0.0` in *every* backend, so scalar and SIMD agree bitwise.
pub fn relu(dst: &mut [f32]) {
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::relu_avx2(dst) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::relu_sse2(dst) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::relu(dst) },
        _ => scalar::relu(dst),
    }
}

/// Dot product over the canonical [`F32_LANES`]-wide vertical accumulator
/// graph (see the module docs). All backends are bit-identical on
/// arbitrary inputs.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::dot_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::dot_sse2(a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::dot(a, b) },
        _ => scalar::dot(a, b),
    }
}

/// `f64` dot product over the canonical [`F64_LANES`]-wide vertical
/// accumulator graph. Used by the functional PE array's segmented
/// adder-tree reduce.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_f64 length mismatch");
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::dot_f64_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::dot_f64_sse2(a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::dot_f64(a, b) },
        _ => scalar::dot_f64(a, b),
    }
}

/// Window-parallel [`dot`]: `dst[w] += dot(run_w, weights)` for every
/// window `w`, where window `w`'s run is stored tap-major, `run_w[t] =
/// taps[t * dst.len() + w]`. Each window's dot is the canonical 8-lane
/// graph [`dot`] evaluates, and the result is added to `dst[w]` once, so
/// the outcome is bit-identical to calling [`dot`] window by window; the
/// vector lanes run across windows instead of along one short run.
///
/// # Panics
///
/// Panics if `taps.len() != weights.len() * dst.len()`.
pub fn dot_windows(dst: &mut [f32], taps: &[f32], weights: &[f32]) {
    assert_eq!(
        Some(taps.len()),
        weights.len().checked_mul(dst.len()),
        "dot_windows length mismatch"
    );
    // SAFETY: the length check above bounds every index the kernels
    // touch, and each backend arm runs only where `Backend::active`
    // found its instruction set.
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::dot_windows_avx2(dst, taps, weights) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe {
            across::dot_windows::<std::arch::x86_64::__m128>(dst, taps, weights)
        },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe {
            across::dot_windows::<std::arch::aarch64::float32x4_t>(dst, taps, weights)
        },
        _ => scalar::dot_windows(dst, taps, weights),
    }
}

/// Shape and element strides of one [`conv_rows`] call: `rows` output
/// rows of `maps` output maps of a unit-stride `k x k` convolution, read
/// from a scratch of `rows + k - 1` rows of `len + k - 1` columns per
/// input map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBand {
    /// Output maps in the call; the weights hold `maps * din * k * k`
    /// values, laid out `[map][input map][ky][kx]`.
    pub maps: usize,
    /// Input maps each partial sums over (at least one).
    pub din: usize,
    /// Kernel side (at least one).
    pub k: usize,
    /// Output rows in the call.
    pub rows: usize,
    /// Pixels per output row.
    pub len: usize,
    /// Stride of `dst` between output maps.
    pub dst_map: usize,
    /// Stride of `dst` between rows.
    pub dst_row: usize,
    /// Stride of `xs` between input maps.
    pub xs_map: usize,
    /// Stride of `xs` between rows.
    pub xs_row: usize,
    /// The scratch rows that hold input: tap row `ky` of output row `r`
    /// reads scratch row `r + ky`.
    pub in_rows: Range<usize>,
    /// The scratch columns that hold input: tap column `kx` of pixel `x`
    /// reads scratch column `x + kx`.
    pub in_cols: Range<usize>,
}

/// One past the last element of `count` maps of `rows` rows of `len`
/// values at these strides, or `None` on overflow.
fn extent(count: usize, map: usize, rows: usize, row: usize, len: usize) -> Option<usize> {
    (count - 1)
        .checked_mul(map)?
        .checked_add((rows - 1).checked_mul(row)?)?
        .checked_add(len)
}

/// A band of output rows of a unit-stride convolution, every kernel tap
/// at once: for every map `m`, row `r` and pixel `x`
///
/// ```text
/// acc = dst[m*dst_map + r*dst_row + x]
/// for ky in 0..k, kx in 0..k:
///     p = +0.0
///     if in_rows.contains(r + ky) and in_cols.contains(x + kx):
///         for i in 0..din:
///             p += w[((m*din + i)*k + ky)*k + kx] * xs[i*xs_map + (r + ky)*xs_row + x + kx]
///     acc += p
/// dst[m*dst_map + r*dst_row + x] = acc
/// ```
///
/// That is Algorithm 1's add-and-store of one partial per tap, in tap
/// order, with each partial summed from `+0.0` over the input maps in
/// order. A tap over the padding adds an exact `+0.0` whatever its
/// weights: the vector backends mask those lanes after the input-map
/// loop, so what `xs` holds outside `in_rows` x `in_cols` never reaches
/// an output. A block of output maps x pixels runs every tap before it
/// moves on, so the output block stays in L1 across the taps. Lanes are
/// independent output pixels, so every backend is bit-identical to the
/// scalar loop. Outputs are expected not to overlap.
///
/// # Panics
///
/// Panics if `din` or `k` is zero, `w.len() != maps * din * k * k`, or
/// a stride reaches past the end of `dst` or of the
/// `(rows + k - 1) x (len + k - 1)` scratch in `xs`.
pub fn conv_rows(dst: &mut [f32], w: &[f32], xs: &[f32], b: &RowBand) {
    assert!(b.din > 0, "conv_rows needs at least one input map");
    assert!(b.k > 0, "conv_rows needs a kernel");
    assert_eq!(
        Some(w.len()),
        b.maps
            .checked_mul(b.din)
            .and_then(|n| n.checked_mul(b.k.checked_mul(b.k)?)),
        "conv_rows weight count mismatch"
    );
    if b.maps == 0 || b.rows == 0 || b.len == 0 {
        return;
    }
    let xs_end = (b.rows.checked_add(b.k - 1))
        .zip(b.len.checked_add(b.k - 1))
        .and_then(|(rows, cols)| extent(b.din, b.xs_map, rows, b.xs_row, cols));
    assert!(
        extent(b.maps, b.dst_map, b.rows, b.dst_row, b.len).is_some_and(|end| end <= dst.len()),
        "conv_rows dst too short"
    );
    assert!(
        xs_end.is_some_and(|end| end <= xs.len()),
        "conv_rows xs too short"
    );
    // SAFETY: the extents checked above bound every index the kernels
    // touch, and each backend arm runs only where `Backend::active` found
    // its instruction set.
    match Backend::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::conv_rows_avx2(dst, w, xs, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { across::conv_rows::<std::arch::x86_64::__m128>(dst, w, xs, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe {
            across::conv_rows::<std::arch::aarch64::float32x4_t>(dst, w, xs, b)
        },
        _ => scalar::conv_rows(dst, w, xs, b),
    }
}

/// The canonical scalar implementations every SIMD backend must match
/// bit-for-bit. Public (under this module) so benches and tests can time
/// and compare the fallback explicitly without toggling global state.
pub mod scalar {
    use super::{RowBand, F32_LANES, F64_LANES};

    /// Scalar [`crate::axpy`].
    pub fn axpy(dst: &mut [f32], a: f32, xs: &[f32]) {
        for (d, x) in dst.iter_mut().zip(xs) {
            *d += a * x;
        }
    }

    /// Scalar [`crate::add_assign`].
    pub fn add(dst: &mut [f32], xs: &[f32]) {
        for (d, x) in dst.iter_mut().zip(xs) {
            *d += x;
        }
    }

    /// Scalar [`crate::relu`] (select semantics, see the public docs).
    pub fn relu(dst: &mut [f32]) {
        for v in dst {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }

    /// Scalar [`crate::dot`]: the canonical 8-lane vertical graph.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; F32_LANES];
        let mut i = 0;
        while i + F32_LANES <= a.len() {
            for j in 0..F32_LANES {
                acc[j] += a[i + j] * b[i + j];
            }
            i += F32_LANES;
        }
        if i < a.len() {
            let (mut ta, mut tb) = ([0.0f32; F32_LANES], [0.0f32; F32_LANES]);
            ta[..a.len() - i].copy_from_slice(&a[i..]);
            tb[..b.len() - i].copy_from_slice(&b[i..]);
            for j in 0..F32_LANES {
                acc[j] += ta[j] * tb[j];
            }
        }
        // Fixed fold tree: 8 -> 4 -> 2 -> 1, matching the vector reduces.
        let s = [
            acc[0] + acc[4],
            acc[1] + acc[5],
            acc[2] + acc[6],
            acc[3] + acc[7],
        ];
        let t = [s[0] + s[2], s[1] + s[3]];
        t[0] + t[1]
    }

    /// Scalar [`crate::dot_windows`]: one [`dot`] per window over its
    /// gathered run.
    pub fn dot_windows(dst: &mut [f32], taps: &[f32], weights: &[f32]) {
        let n = dst.len();
        let mut run = vec![0.0f32; weights.len()];
        for (w, d) in dst.iter_mut().enumerate() {
            for (t, r) in run.iter_mut().enumerate() {
                *r = taps[t * n + w];
            }
            *d += dot(&run, weights);
        }
    }

    /// Scalar [`crate::conv_rows`], one tap at a time: per output map,
    /// row and tap, a partial row summed from `+0.0` over the input maps
    /// (one [`axpy`] each, over the pixels whose tap reads input) and one
    /// [`add`] into the output row. Every pixel sees the per-pixel
    /// sequence of adds the public docs spell out.
    pub fn conv_rows(dst: &mut [f32], w: &[f32], xs: &[f32], b: &RowBand) {
        let taps = b.k * b.k;
        let mut partial = vec![0.0f32; b.len];
        for (m, wm) in w.chunks_exact(b.din * taps).enumerate() {
            for r in 0..b.rows {
                let out = &mut dst[m * b.dst_map + r * b.dst_row..][..b.len];
                for t in 0..taps {
                    let (ky, kx) = (t / b.k, t % b.k);
                    partial.fill(0.0);
                    if b.in_rows.contains(&(r + ky)) {
                        let lo = b.in_cols.start.saturating_sub(kx).min(b.len);
                        let hi = b.in_cols.end.saturating_sub(kx).clamp(lo, b.len);
                        for (i, wi) in wm[t..].iter().step_by(taps).enumerate() {
                            let row = &xs[i * b.xs_map + (r + ky) * b.xs_row + kx..];
                            axpy(&mut partial[lo..hi], *wi, &row[lo..hi]);
                        }
                    }
                    add(out, &partial);
                }
            }
        }
    }

    /// Scalar [`crate::dot_f64`]: the canonical 4-lane vertical graph.
    pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = [0.0f64; F64_LANES];
        let mut i = 0;
        while i + F64_LANES <= a.len() {
            for j in 0..F64_LANES {
                acc[j] += a[i + j] * b[i + j];
            }
            i += F64_LANES;
        }
        if i < a.len() {
            let (mut ta, mut tb) = ([0.0f64; F64_LANES], [0.0f64; F64_LANES]);
            ta[..a.len() - i].copy_from_slice(&a[i..]);
            tb[..b.len() - i].copy_from_slice(&b[i..]);
            for j in 0..F64_LANES {
                acc[j] += ta[j] * tb[j];
            }
        }
        let s = [acc[0] + acc[2], acc[1] + acc[3]];
        s[0] + s[1]
    }
}

/// The kernels that run their vector lanes across independent outputs
/// (windows, pixels), written once over a backend register type. Each
/// [`across::Lanes`] method is one lane-wise IEEE operation (no FMA),
/// so every register width evaluates the same per-output graph.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
mod across {
    use super::{RowBand, F32_LANES};
    use std::ops::Range;

    /// One backend register of `N` f32 lanes.
    ///
    /// # Safety
    ///
    /// Every method needs a CPU with the register's instruction set.
    /// `load` and `store` need `N` valid f32 at `p`; the `_part` pair
    /// needs `n` of them.
    pub trait Lanes: Copy {
        const N: usize;
        unsafe fn zero() -> Self;
        unsafe fn splat(v: f32) -> Self;
        unsafe fn load(p: *const f32) -> Self;
        unsafe fn store(self, p: *mut f32);
        unsafe fn add(self, o: Self) -> Self;
        unsafe fn mul(self, o: Self) -> Self;

        /// The first `n < N` lanes from `p`, zeros above.
        #[inline(always)]
        unsafe fn load_part(p: *const f32, n: usize) -> Self {
            let mut buf = [0.0f32; 8];
            std::ptr::copy_nonoverlapping(p, buf.as_mut_ptr(), n);
            Self::load(buf.as_ptr())
        }

        /// Stores the first `n < N` lanes to `p`.
        #[inline(always)]
        unsafe fn store_part(self, p: *mut f32, n: usize) {
            let mut buf = [0.0f32; 8];
            self.store(buf.as_mut_ptr());
            std::ptr::copy_nonoverlapping(buf.as_ptr(), p, n);
        }

        /// Lanes `lo..hi` (`lo, hi <= N`), with `+0.0` in the others.
        #[inline(always)]
        unsafe fn keep(self, lo: usize, hi: usize) -> Self {
            let mut buf = [0.0f32; 8];
            self.store(buf.as_mut_ptr());
            for (j, v) in buf.iter_mut().enumerate() {
                if j < lo || j >= hi {
                    *v = 0.0;
                }
            }
            Self::load(buf.as_ptr())
        }
    }

    /// `V::load`, or `V::load_part` of `n` lanes in a partial block.
    ///
    /// # Safety
    /// As for [`Lanes`].
    #[inline(always)]
    unsafe fn load<V: Lanes, const PART: bool>(p: *const f32, n: usize) -> V {
        if PART {
            V::load_part(p, n)
        } else {
            V::load(p)
        }
    }

    /// `*p += v` over a full or partial register.
    ///
    /// # Safety
    /// As for [`Lanes`].
    #[inline(always)]
    unsafe fn add_store<V: Lanes, const PART: bool>(p: *mut f32, v: V, n: usize) {
        let sum = load::<V, PART>(p, n).add(v);
        if PART {
            sum.store_part(p, n)
        } else {
            sum.store(p)
        }
    }

    /// # Safety
    /// `taps.len() == weights.len() * dst.len()`, and `V` must be
    /// supported by the running CPU.
    #[inline(always)]
    pub unsafe fn dot_windows<V: Lanes>(dst: &mut [f32], taps: &[f32], weights: &[f32]) {
        match weights.len() {
            1 => windows::<V, 1>(dst, taps, weights),
            2 => windows::<V, 2>(dst, taps, weights),
            3 => windows::<V, 3>(dst, taps, weights),
            4 => windows::<V, 4>(dst, taps, weights),
            5 => windows::<V, 5>(dst, taps, weights),
            6 => windows::<V, 6>(dst, taps, weights),
            7 => windows::<V, 7>(dst, taps, weights),
            _ => windows::<V, 0>(dst, taps, weights),
        }
    }

    /// [`dot_windows`] over runs of `K` taps, or of `weights.len()` taps
    /// when `K == 0`. A run of `K < F32_LANES` taps is one zero-padded
    /// block of [`crate::dot`]'s graph, so fixing `K` at compile time
    /// leaves no lane test in the window loop and lets the weight
    /// broadcasts leave it.
    ///
    /// # Safety
    /// As for [`dot_windows`], with `weights.len() == K` when `K > 0`.
    #[inline(always)]
    unsafe fn windows<V: Lanes, const K: usize>(dst: &mut [f32], taps: &[f32], weights: &[f32]) {
        let (n, d, t) = (dst.len(), dst.as_mut_ptr(), taps.as_ptr());
        let mut w = 0;
        while w + V::N <= n {
            window_block::<V, K, false>(d.add(w), t.add(w), n, weights, 0);
            w += V::N;
        }
        if w < n {
            window_block::<V, K, true>(d.add(w), t.add(w), n, weights, n - w);
        }
    }

    /// [`crate::dot`]'s graph for one register of windows: accumulator
    /// `acc[j]` holds canonical lane `j` of every window in the block.
    ///
    /// # Safety
    /// `taps + t * stride` must hold a register (or `part` lanes) for
    /// every tap `t`, and `dst` one.
    #[inline(always)]
    unsafe fn window_block<V: Lanes, const K: usize, const PART: bool>(
        dst: *mut f32,
        taps: *const f32,
        stride: usize,
        weights: &[f32],
        part: usize,
    ) {
        let k = if K > 0 { K } else { weights.len() };
        let full = k - k % F32_LANES;
        let tap = |t: usize| load::<V, PART>(taps.add(t * stride), part).mul(V::splat(weights[t]));
        let mut acc = [V::zero(); F32_LANES];
        for t in (0..full).step_by(F32_LANES) {
            for (j, a) in acc.iter_mut().enumerate() {
                *a = a.add(tap(t + j));
            }
        }
        if full < k {
            // The zero-padded tail block. A padded lane adds +0·+0; on a
            // lane no earlier block touched that leaves +0.0 as it was.
            for (j, a) in acc.iter_mut().enumerate() {
                if full + j < k {
                    *a = a.add(tap(full + j));
                } else if full > 0 {
                    *a = a.add(V::zero());
                }
            }
        }
        let s = [
            acc[0].add(acc[4]),
            acc[1].add(acc[5]),
            acc[2].add(acc[6]),
            acc[3].add(acc[7]),
        ];
        add_store::<V, PART>(dst, s[0].add(s[2]).add(s[1].add(s[3])), part);
    }

    /// Output maps per register block of [`conv_rows`].
    const MAP_BLOCK: usize = 4;

    /// # Safety
    /// The band must fit `dst` and `xs` and `w` must hold its weights
    /// (checked by [`crate::conv_rows`]), and `V` must be supported by
    /// the running CPU.
    #[inline(always)]
    pub unsafe fn conv_rows<V: Lanes>(dst: &mut [f32], w: &[f32], xs: &[f32], b: &RowBand) {
        let per_map = b.din * b.k * b.k;
        for r in 0..b.rows {
            let d = dst.as_mut_ptr().add(r * b.dst_row);
            let mut m = 0;
            while m + MAP_BLOCK <= b.maps {
                let (dm, wm) = (d.add(m * b.dst_map), w.as_ptr().add(m * per_map));
                map_row::<V, MAP_BLOCK>(dm, wm, xs.as_ptr(), r, b);
                m += MAP_BLOCK;
            }
            for m in m..b.maps {
                let (dm, wm) = (d.add(m * b.dst_map), w.as_ptr().add(m * per_map));
                map_row::<V, 1>(dm, wm, xs.as_ptr(), r, b);
            }
        }
    }

    /// Row `r` of `MB` output maps, in pixel blocks of two registers
    /// (four for a single map, such as a depthwise group's, whose
    /// partials leave the registers for them), then one, then a partial
    /// one.
    ///
    /// # Safety
    /// As for [`conv_rows`], for maps `m..m + MB` of row `r`.
    #[inline(always)]
    unsafe fn map_row<V: Lanes, const MB: usize>(
        d: *mut f32,
        w: *const f32,
        xs: *const f32,
        r: usize,
        b: &RowBand,
    ) {
        let mut p = 0;
        while MB == 1 && p + 4 * V::N <= b.len {
            pixel_block::<V, MB, 4, false>(d, w, xs, r, p, b, 0);
            p += 4 * V::N;
        }
        while p + 2 * V::N <= b.len {
            pixel_block::<V, MB, 2, false>(d, w, xs, r, p, b, 0);
            p += 2 * V::N;
        }
        if p + V::N <= b.len {
            pixel_block::<V, MB, 1, false>(d, w, xs, r, p, b, 0);
            p += V::N;
        }
        if p < b.len {
            pixel_block::<V, MB, 1, true>(d, w, xs, r, p, b, b.len - p);
        }
    }

    /// `MB` maps x `PV` registers of pixels from pixel `p0` of row `r`,
    /// every tap in turn: the tap's partials stay in registers across the
    /// whole `din` loop, lanes over the padding are masked to `+0.0`, and
    /// the block is added into `dst`, where it stays in L1 until the next
    /// tap.
    ///
    /// # Safety
    /// As for [`map_row`], for the block's pixels.
    #[inline(always)]
    unsafe fn pixel_block<V: Lanes, const MB: usize, const PV: usize, const PART: bool>(
        d: *mut f32,
        w: *const f32,
        xs: *const f32,
        r: usize,
        p0: usize,
        b: &RowBand,
        part: usize,
    ) {
        let (k, taps) = (b.k, b.k * b.k);
        // Through the taps `kx` in `whole[v]`, every lane of register `v`
        // reads an input column; the other taps mask their padded lanes.
        let whole: [Range<usize>; PV] = std::array::from_fn(|v| {
            let col = p0 + v * V::N;
            b.in_cols.start.saturating_sub(col)..b.in_cols.end.saturating_sub(col + V::N - 1)
        });
        for ky in 0..k {
            let present = b.in_rows.contains(&(r + ky));
            let row = xs.add((r + ky) * b.xs_row + p0);
            for kx in 0..k {
                let mut acc = [[V::zero(); PV]; MB];
                if present {
                    let wt = w.add(ky * k + kx);
                    for i in 0..b.din {
                        let xi = row.add(i * b.xs_map + kx);
                        let xv: [V; PV] =
                            std::array::from_fn(|v| load::<V, PART>(xi.add(v * V::N), part));
                        for (m, maps) in acc.iter_mut().enumerate() {
                            let wv = V::splat(*wt.add((m * b.din + i) * taps));
                            for (a, xv) in maps.iter_mut().zip(&xv) {
                                *a = a.add(wv.mul(*xv));
                            }
                        }
                    }
                    for (v, whole) in whole.iter().enumerate() {
                        if !whole.contains(&kx) {
                            let col = p0 + v * V::N + kx;
                            let lo = b.in_cols.start.saturating_sub(col).min(V::N);
                            let hi = b.in_cols.end.saturating_sub(col).min(V::N);
                            for maps in acc.iter_mut() {
                                maps[v] = maps[v].keep(lo, hi);
                            }
                        }
                    }
                }
                for (m, maps) in acc.iter().enumerate() {
                    for (v, a) in maps.iter().enumerate() {
                        add_store::<V, PART>(d.add(m * b.dst_map + p0 + v * V::N), *a, part);
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86_64 backends. SSE2 is baseline for the architecture, so its
    //! functions need no runtime gate; the AVX2 ones are only reached
    //! after `is_x86_feature_detected!("avx2")` succeeded.

    use super::across::{self, Lanes};
    use super::{scalar, RowBand};
    use std::arch::x86_64::*;

    impl Lanes for __m128 {
        const N: usize = 4;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm_add_ps(self, o)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            _mm_mul_ps(self, o)
        }
    }

    /// Only used inside `#[target_feature(enable = "avx2")]` functions,
    /// where these always-inlined bodies compile to single AVX ops.
    impl Lanes for __m256 {
        const N: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm256_add_ps(self, o)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            _mm256_mul_ps(self, o)
        }
        #[inline(always)]
        unsafe fn load_part(p: *const f32, n: usize) -> Self {
            _mm256_maskload_ps(p, lane_mask(0, n))
        }
        #[inline(always)]
        unsafe fn store_part(self, p: *mut f32, n: usize) {
            _mm256_maskstore_ps(p, lane_mask(0, n), self)
        }
        #[inline(always)]
        unsafe fn keep(self, lo: usize, hi: usize) -> Self {
            _mm256_and_ps(self, _mm256_castsi256_ps(lane_mask(lo, hi)))
        }
    }

    /// All-ones in 32-bit lanes `lo..hi` (`lo, hi <= 8`), zeros in the
    /// others.
    #[inline(always)]
    unsafe fn lane_mask(lo: usize, hi: usize) -> __m256i {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let below = |n: usize| _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane);
        _mm256_andnot_si256(below(lo), below(hi))
    }

    /// # Safety
    /// Caller must have verified AVX2 support and the
    /// [`crate::dot_windows`] length contract.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_windows_avx2(dst: &mut [f32], taps: &[f32], weights: &[f32]) {
        across::dot_windows::<__m256>(dst, taps, weights)
    }

    /// # Safety
    /// Caller must have verified AVX2 support and the band bounds
    /// [`crate::conv_rows`] checks.
    #[target_feature(enable = "avx2")]
    pub unsafe fn conv_rows_avx2(dst: &mut [f32], w: &[f32], xs: &[f32], b: &RowBand) {
        across::conv_rows::<__m256>(dst, w, xs, b)
    }

    /// # Safety
    /// Caller must run on x86_64 (SSE2 is baseline there).
    pub unsafe fn axpy_sse2(dst: &mut [f32], a: f32, xs: &[f32]) {
        let n = dst.len();
        let av = _mm_set1_ps(a);
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm_loadu_ps(dst.as_ptr().add(i));
            let x = _mm_loadu_ps(xs.as_ptr().add(i));
            _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_add_ps(d, _mm_mul_ps(av, x)));
            i += 4;
        }
        scalar::axpy(&mut dst[i..], a, &xs[i..]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(dst: &mut [f32], a: f32, xs: &[f32]) {
        let n = dst.len();
        let av = _mm256_set1_ps(a);
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            _mm256_storeu_ps(
                dst.as_mut_ptr().add(i),
                _mm256_add_ps(d, _mm256_mul_ps(av, x)),
            );
            i += 8;
        }
        scalar::axpy(&mut dst[i..], a, &xs[i..]);
    }

    /// # Safety
    /// Caller must run on x86_64.
    pub unsafe fn add_sse2(dst: &mut [f32], xs: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm_loadu_ps(dst.as_ptr().add(i));
            let x = _mm_loadu_ps(xs.as_ptr().add(i));
            _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_add_ps(d, x));
            i += 4;
        }
        scalar::add(&mut dst[i..], &xs[i..]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_avx2(dst: &mut [f32], xs: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, x));
            i += 8;
        }
        scalar::add(&mut dst[i..], &xs[i..]);
    }

    /// # Safety
    /// Caller must run on x86_64.
    pub unsafe fn relu_sse2(dst: &mut [f32]) {
        let n = dst.len();
        let zero = _mm_setzero_ps();
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm_loadu_ps(dst.as_ptr().add(i));
            // v > 0 ? v : +0.0 — and-mask keeps x only where the compare
            // is true, exactly the scalar select semantics.
            let mask = _mm_cmpgt_ps(v, zero);
            _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_and_ps(v, mask));
            i += 4;
        }
        scalar::relu(&mut dst[i..]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn relu_avx2(dst: &mut [f32]) {
        let n = dst.len();
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(dst.as_ptr().add(i));
            let mask = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_and_ps(v, mask));
            i += 8;
        }
        scalar::relu(&mut dst[i..]);
    }

    unsafe fn load_tail_ps(src: &[f32]) -> (__m128, __m128) {
        let mut pad = [0.0f32; 8];
        pad[..src.len()].copy_from_slice(src);
        (
            _mm_loadu_ps(pad.as_ptr()),
            _mm_loadu_ps(pad.as_ptr().add(4)),
        )
    }

    /// Fixed 4-lane horizontal fold shared by the f32 dot reduces:
    /// `s -> [s0+s2, s1+s3] -> (s0+s2)+(s1+s3)`.
    unsafe fn fold_ps(s: __m128) -> f32 {
        let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let r = _mm_add_ss(t, _mm_shuffle_ps(t, t, 0b01));
        _mm_cvtss_f32(r)
    }

    /// # Safety
    /// Caller must run on x86_64.
    pub unsafe fn dot_sse2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        // Two registers hold the canonical 8 vertical lanes: acc_lo is
        // lanes 0..4, acc_hi lanes 4..8.
        let mut acc_lo = _mm_setzero_ps();
        let mut acc_hi = _mm_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let a_lo = _mm_loadu_ps(a.as_ptr().add(i));
            let b_lo = _mm_loadu_ps(b.as_ptr().add(i));
            let a_hi = _mm_loadu_ps(a.as_ptr().add(i + 4));
            let b_hi = _mm_loadu_ps(b.as_ptr().add(i + 4));
            acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(a_lo, b_lo));
            acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(a_hi, b_hi));
            i += 8;
        }
        if i < n {
            let (a_lo, a_hi) = load_tail_ps(&a[i..]);
            let (b_lo, b_hi) = load_tail_ps(&b[i..]);
            acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(a_lo, b_lo));
            acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(a_hi, b_hi));
        }
        // 8 -> 4: lane j gets acc[j] + acc[j+4], then the fixed fold.
        fold_ps(_mm_add_ps(acc_lo, acc_hi))
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let av = _mm256_loadu_ps(a.as_ptr().add(i));
            let bv = _mm256_loadu_ps(b.as_ptr().add(i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
            i += 8;
        }
        if i < n {
            let mut pa = [0.0f32; 8];
            let mut pb = [0.0f32; 8];
            pa[..n - i].copy_from_slice(&a[i..]);
            pb[..n - i].copy_from_slice(&b[i..]);
            let av = _mm256_loadu_ps(pa.as_ptr());
            let bv = _mm256_loadu_ps(pb.as_ptr());
            acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
        }
        // 8 -> 4: low 128 lane j + high 128 lane j == acc[j] + acc[j+4].
        let s = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
        fold_ps(s)
    }

    /// # Safety
    /// Caller must run on x86_64.
    pub unsafe fn dot_f64_sse2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        // acc01 holds canonical lanes 0..2, acc23 lanes 2..4.
        let mut acc01 = _mm_setzero_pd();
        let mut acc23 = _mm_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            let a01 = _mm_loadu_pd(a.as_ptr().add(i));
            let b01 = _mm_loadu_pd(b.as_ptr().add(i));
            let a23 = _mm_loadu_pd(a.as_ptr().add(i + 2));
            let b23 = _mm_loadu_pd(b.as_ptr().add(i + 2));
            acc01 = _mm_add_pd(acc01, _mm_mul_pd(a01, b01));
            acc23 = _mm_add_pd(acc23, _mm_mul_pd(a23, b23));
            i += 4;
        }
        if i < n {
            let mut pa = [0.0f64; 4];
            let mut pb = [0.0f64; 4];
            pa[..n - i].copy_from_slice(&a[i..]);
            pb[..n - i].copy_from_slice(&b[i..]);
            let a01 = _mm_loadu_pd(pa.as_ptr());
            let b01 = _mm_loadu_pd(pb.as_ptr());
            let a23 = _mm_loadu_pd(pa.as_ptr().add(2));
            let b23 = _mm_loadu_pd(pb.as_ptr().add(2));
            acc01 = _mm_add_pd(acc01, _mm_mul_pd(a01, b01));
            acc23 = _mm_add_pd(acc23, _mm_mul_pd(a23, b23));
        }
        // 4 -> 2 (lane j = acc[j] + acc[j+2]) -> 1.
        let s = _mm_add_pd(acc01, acc23);
        let r = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
        _mm_cvtsd_f64(r)
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_f64_avx2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            let av = _mm256_loadu_pd(a.as_ptr().add(i));
            let bv = _mm256_loadu_pd(b.as_ptr().add(i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
            i += 4;
        }
        if i < n {
            let mut pa = [0.0f64; 4];
            let mut pb = [0.0f64; 4];
            pa[..n - i].copy_from_slice(&a[i..]);
            pb[..n - i].copy_from_slice(&b[i..]);
            let av = _mm256_loadu_pd(pa.as_ptr());
            let bv = _mm256_loadu_pd(pb.as_ptr());
            acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
        }
        // 4 -> 2: low 128 + high 128 == [acc0+acc2, acc1+acc3].
        let s = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
        let r = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
        _mm_cvtsd_f64(r)
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! aarch64 NEON backends (NEON is baseline on aarch64).

    use super::across::Lanes;
    use super::scalar;
    use std::arch::aarch64::*;

    impl Lanes for float32x4_t {
        const N: usize = 4;
        #[inline(always)]
        unsafe fn zero() -> Self {
            vdupq_n_f32(0.0)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            vdupq_n_f32(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            vld1q_f32(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            vst1q_f32(p, self)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            vaddq_f32(self, o)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            vmulq_f32(self, o)
        }
    }

    /// # Safety
    /// Caller must run on aarch64.
    pub unsafe fn axpy(dst: &mut [f32], a: f32, xs: &[f32]) {
        let n = dst.len();
        let av = vdupq_n_f32(a);
        let mut i = 0;
        while i + 4 <= n {
            let d = vld1q_f32(dst.as_ptr().add(i));
            let x = vld1q_f32(xs.as_ptr().add(i));
            vst1q_f32(dst.as_mut_ptr().add(i), vaddq_f32(d, vmulq_f32(av, x)));
            i += 4;
        }
        scalar::axpy(&mut dst[i..], a, &xs[i..]);
    }

    /// # Safety
    /// Caller must run on aarch64.
    pub unsafe fn add(dst: &mut [f32], xs: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = vld1q_f32(dst.as_ptr().add(i));
            let x = vld1q_f32(xs.as_ptr().add(i));
            vst1q_f32(dst.as_mut_ptr().add(i), vaddq_f32(d, x));
            i += 4;
        }
        scalar::add(&mut dst[i..], &xs[i..]);
    }

    /// # Safety
    /// Caller must run on aarch64.
    pub unsafe fn relu(dst: &mut [f32]) {
        let n = dst.len();
        let zero = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 4 <= n {
            let v = vld1q_f32(dst.as_ptr().add(i));
            // Select v where v > 0, else +0.0 (vmaxq would differ on NaN).
            let mask = vcgtq_f32(v, zero);
            vst1q_f32(dst.as_mut_ptr().add(i), vbslq_f32(mask, v, zero));
            i += 4;
        }
        scalar::relu(&mut dst[i..]);
    }

    /// # Safety
    /// Caller must run on aarch64.
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        // Canonical lanes 0..4 and 4..8 in two registers.
        let mut acc_lo = vdupq_n_f32(0.0);
        let mut acc_hi = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 8 <= n {
            let a_lo = vld1q_f32(a.as_ptr().add(i));
            let b_lo = vld1q_f32(b.as_ptr().add(i));
            let a_hi = vld1q_f32(a.as_ptr().add(i + 4));
            let b_hi = vld1q_f32(b.as_ptr().add(i + 4));
            acc_lo = vaddq_f32(acc_lo, vmulq_f32(a_lo, b_lo));
            acc_hi = vaddq_f32(acc_hi, vmulq_f32(a_hi, b_hi));
            i += 8;
        }
        if i < n {
            let mut pa = [0.0f32; 8];
            let mut pb = [0.0f32; 8];
            pa[..n - i].copy_from_slice(&a[i..]);
            pb[..n - i].copy_from_slice(&b[i..]);
            acc_lo = vaddq_f32(
                acc_lo,
                vmulq_f32(vld1q_f32(pa.as_ptr()), vld1q_f32(pb.as_ptr())),
            );
            acc_hi = vaddq_f32(
                acc_hi,
                vmulq_f32(vld1q_f32(pa.as_ptr().add(4)), vld1q_f32(pb.as_ptr().add(4))),
            );
        }
        // 8 -> 4 -> 2 -> 1 in the canonical order.
        let s = vaddq_f32(acc_lo, acc_hi);
        let t = vadd_f32(vget_low_f32(s), vget_high_f32(s));
        vget_lane_f32::<0>(t) + vget_lane_f32::<1>(t)
    }

    /// # Safety
    /// Caller must run on aarch64.
    pub unsafe fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let mut acc01 = vdupq_n_f64(0.0);
        let mut acc23 = vdupq_n_f64(0.0);
        let mut i = 0;
        while i + 4 <= n {
            let a01 = vld1q_f64(a.as_ptr().add(i));
            let b01 = vld1q_f64(b.as_ptr().add(i));
            let a23 = vld1q_f64(a.as_ptr().add(i + 2));
            let b23 = vld1q_f64(b.as_ptr().add(i + 2));
            acc01 = vaddq_f64(acc01, vmulq_f64(a01, b01));
            acc23 = vaddq_f64(acc23, vmulq_f64(a23, b23));
            i += 4;
        }
        if i < n {
            let mut pa = [0.0f64; 4];
            let mut pb = [0.0f64; 4];
            pa[..n - i].copy_from_slice(&a[i..]);
            pb[..n - i].copy_from_slice(&b[i..]);
            acc01 = vaddq_f64(
                acc01,
                vmulq_f64(vld1q_f64(pa.as_ptr()), vld1q_f64(pb.as_ptr())),
            );
            acc23 = vaddq_f64(
                acc23,
                vmulq_f64(vld1q_f64(pa.as_ptr().add(2)), vld1q_f64(pb.as_ptr().add(2))),
            );
        }
        let s = vaddq_f64(acc01, acc23);
        vgetq_lane_f64::<0>(s) + vgetq_lane_f64::<1>(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* clone (the model crate's PRNG is not a dependency here).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn f32(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0
        }
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    fn vec_f32(n: usize, seed: u64) -> Vec<f32> {
        let mut r = Rng(seed | 1);
        (0..n).map(|_| r.f32()).collect()
    }

    #[test]
    fn active_backend_is_forceable() {
        set_force_scalar(Some(true));
        assert_eq!(Backend::active(), Backend::Scalar);
        assert!(scalar_forced());
        set_force_scalar(None);
        #[cfg(target_arch = "x86_64")]
        {
            set_force_scalar(Some(false));
            assert_ne!(Backend::active(), Backend::Scalar);
            set_force_scalar(None);
        }
    }

    #[test]
    fn dot_matches_plain_sum_on_integers() {
        // Integer values: any summation order is exact, so the canonical
        // graph must equal the naive left-to-right sum.
        let a: Vec<f32> = (0..37).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| (i % 5) as f32 - 2.0).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b), naive);
        assert_eq!(scalar::dot(&a, &b), naive);
    }

    #[test]
    fn axpy_and_add_match_scalar_bitwise() {
        for n in 0..=2 * F32_LANES + 1 {
            let xs = vec_f32(n, 11 + n as u64);
            let base = vec_f32(n, 101 + n as u64);
            let mut simd_dst = base.clone();
            let mut scalar_dst = base.clone();
            axpy(&mut simd_dst, 0.37, &xs);
            scalar::axpy(&mut scalar_dst, 0.37, &xs);
            for (a, b) in simd_dst.iter().zip(&scalar_dst) {
                assert_eq!(a.to_bits(), b.to_bits(), "axpy n={n}");
            }
            let mut simd_dst = base.clone();
            let mut scalar_dst = base;
            add_assign(&mut simd_dst, &xs);
            scalar::add(&mut scalar_dst, &xs);
            for (a, b) in simd_dst.iter().zip(&scalar_dst) {
                assert_eq!(a.to_bits(), b.to_bits(), "add n={n}");
            }
        }
    }

    #[test]
    fn dot_matches_scalar_bitwise_across_remainders() {
        for n in 0..=3 * F32_LANES + 1 {
            let a = vec_f32(n, 7 + n as u64);
            let b = vec_f32(n, 77 + n as u64);
            assert_eq!(
                dot(&a, &b).to_bits(),
                scalar::dot(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn dot_f64_matches_scalar_bitwise_across_remainders() {
        for n in 0..=3 * F64_LANES + 1 {
            let mut r = Rng(n as u64 + 5);
            let a: Vec<f64> = (0..n).map(|_| r.f64()).collect();
            let b: Vec<f64> = (0..n).map(|_| r.f64()).collect();
            assert_eq!(
                dot_f64(&a, &b).to_bits(),
                scalar::dot_f64(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn relu_select_semantics() {
        let mut v = vec![-1.0f32, -0.0, 0.0, 2.5, f32::NAN];
        relu(&mut v);
        assert_eq!(v[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(v[1].to_bits(), 0.0f32.to_bits(), "-0.0 becomes +0.0");
        assert_eq!(v[2].to_bits(), 0.0f32.to_bits());
        assert_eq!(v[3], 2.5);
        assert_eq!(v[4].to_bits(), 0.0f32.to_bits(), "NaN becomes 0.0");
        let mut s = vec![-1.0f32, -0.0, 0.0, 2.5, f32::NAN];
        scalar::relu(&mut s);
        for (a, b) in v.iter().zip(&s) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn conv_rows_rejects_a_band_past_its_buffers() {
        // Two rows of three pixels through a 3x3 kernel read a scratch
        // of four rows of five columns.
        let band = RowBand {
            maps: 2,
            din: 1,
            k: 3,
            rows: 2,
            len: 3,
            dst_map: 6,
            dst_row: 3,
            xs_map: 20,
            xs_row: 5,
            in_rows: 1..3,
            in_cols: 1..4,
        };
        // The panic message of one call, or `None` if it returned.
        let run = |dst: usize, w: usize, xs: usize, b: &RowBand| {
            let b = b.clone();
            let panic = std::panic::catch_unwind(move || {
                conv_rows(&mut vec![0.0; dst], &vec![1.0; w], &vec![1.0; xs], &b)
            })
            .err()?;
            Some(match panic.downcast::<String>() {
                Ok(message) => *message,
                Err(panic) => panic
                    .downcast::<&str>()
                    .map_or(String::new(), |m| m.to_string()),
            })
        };
        assert_eq!(run(12, 18, 20, &band), None);
        assert!(run(11, 18, 20, &band).is_some_and(|m| m == "conv_rows dst too short"));
        assert!(run(12, 18, 19, &band).is_some_and(|m| m == "conv_rows xs too short"));
        assert!(run(12, 9, 20, &band).is_some_and(|m| m.contains("weight count mismatch")));
        // A row count whose scratch extent overflows.
        let huge = RowBand {
            rows: usize::MAX,
            dst_row: 0,
            ..band
        };
        assert!(run(12, 18, 20, &huge).is_some_and(|m| m == "conv_rows xs too short"));
    }

    #[test]
    fn backend_names() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Sse2.name(), "sse2");
        assert_eq!(Backend::Neon.name(), "neon");
        assert!(!Backend::active().name().is_empty());
    }
}
