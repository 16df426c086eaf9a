//! 2-D convolution via im2col/col2im.
//!
//! Convolution is lowered to matrix multiplication: each sliding window of
//! the (zero-padded) input is unrolled into a column (`im2col`), the kernel
//! is viewed as an `[out_c, in_c·kh·kw]` matrix, and the output is their
//! product. The backward pass reuses the same lowering: `col2im` is the exact
//! adjoint of `im2col` (a property-tested invariant), which makes input
//! gradients a transpose-product followed by re-folding.
//!
//! The forward pass folds the batch into the product's columns (see
//! [`conv2d`]): alone, one sample's 2×2 or 1×1 output plane is narrower than
//! the 16-column GEBP tile, and the matmul would fall back to scalar saxpy.

use crate::error::{Result, TensorError};
use crate::ops::matmul::{matmul_into, transpose_into};
use crate::par::{self, min_items_per_worker};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use tcl_simd::kernels::NR;

/// Geometry of a 2-D convolution: kernel size, stride, and symmetric zero
/// padding.
///
/// # Examples
///
/// ```
/// use tcl_tensor::ops::ConvGeometry;
///
/// // A padded 3x3 "same" convolution on an 8x8 input.
/// let g = ConvGeometry::new(3, 3, 1, 1)?;
/// assert_eq!(g.output_hw(8, 8)?, (8, 8));
/// # Ok::<(), tcl_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Symmetric zero padding (same on all four sides).
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a geometry, validating that the kernel is non-empty and the
    /// stride nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a zero kernel extent or
    /// zero stride.
    pub fn new(kernel_h: usize, kernel_w: usize, stride: usize, padding: usize) -> Result<Self> {
        if kernel_h == 0 || kernel_w == 0 {
            return Err(TensorError::InvalidArgument {
                detail: "kernel extents must be nonzero".into(),
            });
        }
        if stride == 0 {
            return Err(TensorError::InvalidArgument {
                detail: "stride must be nonzero".into(),
            });
        }
        Ok(ConvGeometry {
            kernel_h,
            kernel_w,
            stride,
            padding,
        })
    }

    /// Square-kernel convenience constructor.
    ///
    /// # Errors
    ///
    /// As for [`ConvGeometry::new`].
    pub fn square(kernel: usize, stride: usize, padding: usize) -> Result<Self> {
        Self::new(kernel, kernel, stride, padding)
    }

    /// Output spatial extent for an input of `in_h x in_w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::WindowDoesNotFit`] if the padded input is
    /// smaller than the kernel.
    pub fn output_hw(&self, in_h: usize, in_w: usize) -> Result<(usize, usize)> {
        let ph = in_h + 2 * self.padding;
        let pw = in_w + 2 * self.padding;
        if ph < self.kernel_h || pw < self.kernel_w {
            return Err(TensorError::WindowDoesNotFit {
                detail: format!(
                    "kernel {}x{} on padded input {}x{}",
                    self.kernel_h, self.kernel_w, ph, pw
                ),
            });
        }
        Ok((
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        ))
    }
}

/// Unrolls sliding windows of a single image `[C, H, W]` (given as a flat
/// slice) into a `[C*kh*kw, out_h*out_w]` column matrix.
///
/// Out-of-bounds (padding) positions contribute zeros.
#[allow(clippy::too_many_arguments)] // geometry is explicit by design in the hot path
pub fn im2col_single(
    input: &[f32],
    channels: usize,
    in_h: usize,
    in_w: usize,
    geom: ConvGeometry,
    out_h: usize,
    out_w: usize,
    cols: &mut [f32],
) {
    let col_width = out_h * out_w;
    debug_assert_eq!(
        cols.len(),
        channels * geom.kernel_h * geom.kernel_w * col_width
    );
    im2col_strided(
        input, channels, in_h, in_w, geom, out_h, out_w, cols, col_width, 0,
    );
}

/// [`im2col_single`] into columns `col0..col0 + out_h·out_w` of a wider
/// row-major block whose rows are `ld` apart, so the images of a chunk
/// unroll side by side into one product operand without a staging copy.
#[allow(clippy::too_many_arguments)] // geometry is explicit by design in the hot path
fn im2col_strided(
    input: &[f32],
    channels: usize,
    in_h: usize,
    in_w: usize,
    geom: ConvGeometry,
    out_h: usize,
    out_w: usize,
    cols: &mut [f32],
    ld: usize,
    col0: usize,
) {
    let col_width = out_h * out_w;
    debug_assert_eq!(input.len(), channels * in_h * in_w);
    debug_assert!(col0 + col_width <= ld);
    let pad = geom.padding as isize;
    let stride = geom.stride;
    let mut row = 0usize;
    for c in 0..channels {
        let plane = &input[c * in_h * in_w..(c + 1) * in_h * in_w];
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                let dst = &mut cols[row * ld + col0..row * ld + col0 + col_width];
                let mut idx = 0usize;
                for oh in 0..out_h {
                    let ih = oh as isize * stride as isize + kh as isize - pad;
                    if ih < 0 || ih >= in_h as isize {
                        for d in dst[idx..idx + out_w].iter_mut() {
                            *d = 0.0;
                        }
                        idx += out_w;
                        continue;
                    }
                    let src_row = &plane[ih as usize * in_w..(ih as usize + 1) * in_w];
                    for ow in 0..out_w {
                        let iw = ow as isize * stride as isize + kw as isize - pad;
                        dst[idx] = if iw < 0 || iw >= in_w as isize {
                            0.0
                        } else {
                            src_row[iw as usize]
                        };
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Folds a `[C*kh*kw, out_h*out_w]` column matrix back into an image
/// `[C, H, W]`, *accumulating* overlapping contributions.
///
/// This is the adjoint of [`im2col_single`]: for all `x`, `y` it holds that
/// `⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩`.
#[allow(clippy::too_many_arguments)] // geometry is explicit by design in the hot path
pub fn col2im_single(
    cols: &[f32],
    channels: usize,
    in_h: usize,
    in_w: usize,
    geom: ConvGeometry,
    out_h: usize,
    out_w: usize,
    output: &mut [f32],
) {
    let col_width = out_h * out_w;
    debug_assert_eq!(output.len(), channels * in_h * in_w);
    debug_assert_eq!(
        cols.len(),
        channels * geom.kernel_h * geom.kernel_w * col_width
    );
    let pad = geom.padding as isize;
    let stride = geom.stride;
    let mut row = 0usize;
    for c in 0..channels {
        let plane = &mut output[c * in_h * in_w..(c + 1) * in_h * in_w];
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                let src = &cols[row * col_width..(row + 1) * col_width];
                let mut idx = 0usize;
                for oh in 0..out_h {
                    let ih = oh as isize * stride as isize + kh as isize - pad;
                    if ih < 0 || ih >= in_h as isize {
                        idx += out_w;
                        continue;
                    }
                    let dst_row = &mut plane[ih as usize * in_w..(ih as usize + 1) * in_w];
                    for ow in 0..out_w {
                        let iw = ow as isize * stride as isize + kw as isize - pad;
                        if iw >= 0 && iw < in_w as isize {
                            dst_row[iw as usize] += src[idx];
                        }
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Widest folded product of the forward pass: sixteen `NR`-column GEBP
/// tiles. The cap keeps each worker's im2col block a few hundred KB;
/// folding a whole batch at once grows it with the batch and shows in peak
/// RSS.
const FOLD_COLS: usize = 16 * NR;

/// Forward 2-D convolution.
///
/// * `input` — `[N, C, H, W]`
/// * `weight` — `[O, C, kh, kw]`
/// * `bias` — optional `[O]`
///
/// Returns `[N, O, out_h, out_w]`.
///
/// The batch is lowered in folded chunks: each worker's run of samples is
/// cut into chunks of up to `⌊256 / (out_h·out_w)⌋` samples, a chunk's
/// samples are unrolled side by side into one `[C·kh·kw, chunk·out_h·out_w]`
/// block, and one product covers the chunk. The block width is rounded up
/// to a whole number of 16-column GEBP tiles with zero columns, so every
/// output element comes out of a full tile at every SIMD level: its bits do
/// not depend on the batch it shares, on where chunks are cut, or on the
/// thread count. Each element still accumulates over `C·kh·kw` in the
/// per-sample order, so `Scalar`/`Wide` results equal a per-sample lowering
/// bitwise.
///
/// # Errors
///
/// Returns an error if the ranks are wrong, channel counts disagree, the
/// kernel does not fit the padded input, or the bias length differs from the
/// output channel count.
///
/// # Examples
///
/// ```
/// use tcl_tensor::{ops, Tensor};
/// use tcl_tensor::ops::ConvGeometry;
///
/// // 1x1 convolution with weight 1 is the identity.
/// let x = Tensor::from_fn([1, 1, 2, 2], |i| i as f32);
/// let w = Tensor::ones([1, 1, 1, 1]);
/// let g = ConvGeometry::square(1, 1, 0)?;
/// let y = ops::conv2d(&x, &w, None, g)?;
/// assert_eq!(y.data(), x.data());
/// # Ok::<(), tcl_tensor::TensorError>(())
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (out_c, wc, kh, kw) = weight.shape().as_nchw()?;
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            left: input.dims().to_vec(),
            right: weight.dims().to_vec(),
        });
    }
    if kh != geom.kernel_h || kw != geom.kernel_w {
        return Err(TensorError::InvalidArgument {
            detail: format!(
                "weight kernel {kh}x{kw} disagrees with geometry {}x{}",
                geom.kernel_h, geom.kernel_w
            ),
        });
    }
    if let Some(b) = bias {
        if b.len() != out_c {
            return Err(TensorError::LengthMismatch {
                expected: out_c,
                actual: b.len(),
            });
        }
    }
    let (out_h, out_w) = geom.output_hw(h, w)?;
    let _span = tcl_telemetry::span_with("conv2d", || {
        vec![
            ("batch", n as f64),
            ("in_c", c as f64),
            ("out_c", out_c as f64),
            ("out_h", out_h as f64),
            ("out_w", out_w as f64),
        ]
    });
    let mut out = Tensor::zeros([n, out_c, out_h, out_w]);
    if out.is_empty() {
        return Ok(out);
    }
    let col_rows = c * kh * kw;
    let plane = out_h * out_w;
    let item_in = c * h * w;
    let item_out = out_c * plane;
    let fold = (FOLD_COLS / plane).max(1);
    // Batch items write disjoint output slices, so they fan out across
    // threads; each worker folds its run chunk by chunk into a private
    // im2col block. Inside a worker the matmul stays serial (nested fan-out
    // is suppressed), while a single-worker run lets the matmul parallelize
    // over rows instead.
    let min_items = min_items_per_worker(out_c * col_rows * plane);
    par::par_items_mut(
        par::current(),
        out.data_mut(),
        item_out,
        1,
        min_items,
        |first_item, run| {
            let run_items = run.len() / item_out;
            let max_ld = (fold.min(run_items) * plane).next_multiple_of(NR);
            let mut cols = vec![0.0f32; col_rows * max_ld];
            let mut product = Vec::new();
            for (ci, dst) in run.chunks_mut(fold * item_out).enumerate() {
                let first = first_item + ci * fold;
                let chunk = dst.len() / item_out;
                let width = chunk * plane;
                // Zero pad columns round the product up to whole tiles.
                let ld = width.next_multiple_of(NR);
                let cols = &mut cols[..col_rows * ld];
                let src = &input.data()[first * item_in..(first + chunk) * item_in];
                for (s, image) in src.chunks_exact(item_in.max(1)).enumerate() {
                    im2col_strided(image, c, h, w, geom, out_h, out_w, cols, ld, s * plane);
                }
                for row in cols.chunks_exact_mut(ld) {
                    row[width..].fill(0.0);
                }
                if ld == plane {
                    // One sample whose plane is already whole tiles: its
                    // `[O, out_h·out_w]` product is its NCHW output.
                    matmul_into(weight.data(), cols, dst, out_c, col_rows, ld);
                    if let Some(b) = bias {
                        for (out_plane, &bv) in dst.chunks_exact_mut(plane).zip(b.data()) {
                            for v in out_plane {
                                *v += bv;
                            }
                        }
                    }
                    continue;
                }
                product.clear();
                product.resize(out_c * ld, 0.0);
                matmul_into(weight.data(), cols, &mut product, out_c, col_rows, ld);
                // Scatter the `[O, chunk·plane]` product back to NCHW order,
                // adding the bias on the way.
                for (s, item) in dst.chunks_exact_mut(item_out).enumerate() {
                    for (o, out_plane) in item.chunks_exact_mut(plane).enumerate() {
                        let folded = &product[o * ld + s * plane..][..plane];
                        match bias {
                            Some(b) => {
                                let bv = b.data()[o];
                                for (v, &p) in out_plane.iter_mut().zip(folded) {
                                    *v = p + bv;
                                }
                            }
                            None => out_plane.copy_from_slice(folded),
                        }
                    }
                }
            }
        },
    );
    Ok(out)
}

/// Gradients of [`conv2d`] with respect to input, weight, and bias.
#[derive(Debug, Clone)]
pub struct Conv2dGradients {
    /// Gradient with respect to the input, `[N, C, H, W]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weight, `[O, C, kh, kw]`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, `[O]` (zeros when the forward pass
    /// had no bias — callers simply ignore it).
    pub grad_bias: Tensor,
}

/// Backward 2-D convolution.
///
/// Given the forward inputs and the upstream gradient `grad_output`
/// (`[N, O, out_h, out_w]`), computes gradients for input, weight, and bias.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with the forward geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    geom: ConvGeometry,
) -> Result<Conv2dGradients> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (out_c, _, kh, kw) = weight.shape().as_nchw()?;
    let (gn, go, goh, gow) = grad_output.shape().as_nchw()?;
    let (out_h, out_w) = geom.output_hw(h, w)?;
    if gn != n || go != out_c || goh != out_h || gow != out_w {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, out_c, out_h, out_w],
            right: grad_output.dims().to_vec(),
        });
    }
    let col_rows = c * kh * kw;
    let col_width = out_h * out_w;
    let mut grad_input = Tensor::zeros([n, c, h, w]);
    let mut grad_weight = Tensor::zeros(weight.shape().clone());
    let mut grad_bias = Tensor::zeros([out_c]);
    let item_in = c * h * w;
    let item_out = out_c * col_width;

    // Phase 1 — input gradients, parallel over batch items: each item's
    // `dCols = Wᵀ @ dY` and col2im fold write a disjoint grad_input slice.
    // Per-item bias partials ride along in lockstep slots and are folded in
    // item order afterwards, so results are thread-count-invariant.
    let mut wt = vec![0.0f32; out_c * col_rows];
    transpose_into(weight.data(), &mut wt, out_c, col_rows);
    let mut bias_partials = vec![0.0f32; n * out_c];
    let min_items = min_items_per_worker(col_rows * out_c * col_width);
    par::par_items_mut2(
        par::current(),
        grad_input.data_mut(),
        item_in,
        &mut bias_partials,
        out_c,
        1,
        min_items,
        |first_item, gi_run, db_run| {
            let mut dcols = vec![0.0f32; col_rows * col_width];
            for (i, (dst, db)) in gi_run
                .chunks_exact_mut(item_in.max(1))
                .zip(db_run.chunks_exact_mut(out_c.max(1)))
                .enumerate()
            {
                let ni = first_item + i;
                let gout = &grad_output.data()[ni * item_out..(ni + 1) * item_out];
                dcols.fill(0.0);
                matmul_into(&wt, gout, &mut dcols, col_rows, out_c, col_width);
                col2im_single(&dcols, c, h, w, geom, out_h, out_w, dst);
                for (o, gb) in db.iter_mut().enumerate() {
                    *gb = gout[o * col_width..(o + 1) * col_width].iter().sum::<f32>();
                }
            }
        },
    );
    for item in bias_partials.chunks_exact(out_c.max(1)) {
        for (gb, &p) in grad_bias.data_mut().iter_mut().zip(item) {
            *gb += p;
        }
    }

    // Phase 2 — weight gradients, serial over items (the accumulation into
    // dW is a reduction, so item order is kept fixed); the inner matmul
    // parallelizes over its own output rows.
    let mut cols = vec![0.0f32; col_rows * col_width];
    let mut cols_t = vec![0.0f32; col_rows * col_width];
    for ni in 0..n {
        let src = &input.data()[ni * item_in..(ni + 1) * item_in];
        im2col_single(src, c, h, w, geom, out_h, out_w, &mut cols);
        let gout = &grad_output.data()[ni * item_out..(ni + 1) * item_out];
        // dW += dY @ colsᵀ  ([O, CW] @ [CR, CW]ᵀ -> [O, CR]).
        transpose_into(&cols, &mut cols_t, col_rows, col_width);
        matmul_into(
            gout,
            &cols_t,
            grad_weight.data_mut(),
            out_c,
            col_width,
            col_rows,
        );
    }
    Ok(Conv2dGradients {
        grad_input,
        grad_weight,
        grad_bias,
    })
}

/// Reference direct (nested-loop) convolution used to validate the im2col
/// path in tests and property checks. Slow; not for production use.
///
/// # Errors
///
/// As for [`conv2d`].
pub fn conv2d_naive(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (out_c, _, kh, kw) = weight.shape().as_nchw()?;
    let (out_h, out_w) = geom.output_hw(h, w)?;
    let mut out = Tensor::zeros([n, out_c, out_h, out_w]);
    for ni in 0..n {
        for oc in 0..out_c {
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let mut acc = bias.map_or(0.0, |b| b.at(oc));
                    for ic in 0..c {
                        for ki in 0..kh {
                            for kj in 0..kw {
                                let ih = (oh * geom.stride + ki) as isize - geom.padding as isize;
                                let iw = (ow * geom.stride + kj) as isize - geom.padding as isize;
                                if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w {
                                    acc += input.at4(ni, ic, ih as usize, iw as usize)
                                        * weight.at4(oc, ic, ki, kj);
                                }
                            }
                        }
                    }
                    out.set4(ni, oc, oh, ow, acc);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validates_arguments() {
        assert!(ConvGeometry::new(0, 3, 1, 0).is_err());
        assert!(ConvGeometry::new(3, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(3, 3, 1, 0).is_ok());
    }

    #[test]
    fn output_hw_matches_formula() {
        let g = ConvGeometry::square(3, 1, 1).unwrap();
        assert_eq!(g.output_hw(8, 8).unwrap(), (8, 8));
        let g = ConvGeometry::square(3, 2, 1).unwrap();
        assert_eq!(g.output_hw(8, 8).unwrap(), (4, 4));
        let g = ConvGeometry::square(5, 1, 0).unwrap();
        assert!(g.output_hw(3, 3).is_err());
    }

    #[test]
    fn identity_1x1_convolution() {
        let x = Tensor::from_fn([2, 3, 4, 4], |i| (i as f32).sin());
        let mut w = Tensor::zeros([3, 3, 1, 1]);
        for c in 0..3 {
            w.set4(c, c, 0, 0, 1.0);
        }
        let g = ConvGeometry::square(1, 1, 0).unwrap();
        let y = conv2d(&x, &w, None, g).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn matches_naive_reference_with_padding_and_stride() {
        let x = Tensor::from_fn([2, 3, 7, 6], |i| ((i * 37 % 17) as f32 - 8.0) * 0.25);
        let w = Tensor::from_fn([4, 3, 3, 3], |i| ((i * 13 % 11) as f32 - 5.0) * 0.1);
        let b = Tensor::from_slice(&[0.5, -0.5, 0.25, 0.0]);
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (2, 0), (3, 2)] {
            let g = ConvGeometry::square(3, stride, pad).unwrap();
            let fast = conv2d(&x, &w, Some(&b), g).unwrap();
            let slow = conv2d_naive(&x, &w, Some(&b), g).unwrap();
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-4,
                "stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn bias_adds_per_output_channel() {
        let x = Tensor::zeros([1, 1, 3, 3]);
        let w = Tensor::zeros([2, 1, 3, 3]);
        let b = Tensor::from_slice(&[1.5, -2.0]);
        let g = ConvGeometry::square(3, 1, 1).unwrap();
        let y = conv2d(&x, &w, Some(&b), g).unwrap();
        for h in 0..3 {
            for wd in 0..3 {
                assert_eq!(y.at4(0, 0, h, wd), 1.5);
                assert_eq!(y.at4(0, 1, h, wd), -2.0);
            }
        }
    }

    #[test]
    fn channel_mismatch_is_rejected() {
        let x = Tensor::zeros([1, 2, 4, 4]);
        let w = Tensor::zeros([1, 3, 3, 3]);
        let g = ConvGeometry::square(3, 1, 1).unwrap();
        assert!(conv2d(&x, &w, None, g).is_err());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let x = Tensor::from_fn([1, 2, 5, 5], |i| ((i * 31 % 13) as f32 - 6.0) * 0.1);
        let w = Tensor::from_fn([3, 2, 3, 3], |i| ((i * 7 % 9) as f32 - 4.0) * 0.1);
        let b = Tensor::from_slice(&[0.1, -0.2, 0.3]);
        let g = ConvGeometry::square(3, 2, 1).unwrap();
        // Loss = sum of outputs, so upstream gradient is all-ones.
        let y = conv2d(&x, &w, Some(&b), g).unwrap();
        let gout = Tensor::ones(y.shape().clone());
        let grads = conv2d_backward(&x, &w, &gout, g).unwrap();
        let eps = 1e-2f32;
        let loss = |xt: &Tensor, wt: &Tensor, bt: &Tensor| -> f32 {
            conv2d(xt, wt, Some(bt), g).unwrap().sum()
        };
        // Check a scattering of coordinates in each gradient.
        for idx in [0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (grads.grad_input.at(idx) - fd).abs() < 1e-2,
                "input idx {idx}: analytic {} vs fd {fd}",
                grads.grad_input.at(idx)
            );
        }
        for idx in [0usize, 11, 35, 53] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (grads.grad_weight.at(idx) - fd).abs() < 1e-2,
                "weight idx {idx}: analytic {} vs fd {fd}",
                grads.grad_weight.at(idx)
            );
        }
        for idx in 0..3 {
            let mut bp = b.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = b.clone();
            bm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!((grads.grad_bias.at(idx) - fd).abs() < 1e-2);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        let c = 2;
        let (h, w) = (5, 4);
        let g = ConvGeometry::square(3, 2, 1).unwrap();
        let (oh, ow) = g.output_hw(h, w).unwrap();
        let col_len = c * 9 * oh * ow;
        let x: Vec<f32> = (0..c * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..col_len).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut cols = vec![0.0; col_len];
        im2col_single(&x, c, h, w, g, oh, ow, &mut cols);
        let mut folded = vec![0.0; c * h * w];
        col2im_single(&y, c, h, w, g, oh, ow, &mut folded);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
