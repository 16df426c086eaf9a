//! Batch-folded convolution: a sample's output does not depend on the batch
//! it shares.
//!
//! `conv2d` folds chunks of samples side by side into one product and pads
//! the folded width to whole 16-column GEBP tiles. These tests pin what that
//! buys, at every SIMD level the host offers:
//!
//! * a sample convolved inside a batch is **bitwise** equal to the same
//!   sample convolved alone (under AVX2 a full tile fuses multiply-adds and
//!   an edge tile does not, so an unpadded fold breaks this);
//! * a run under the process thread budget (`TCL_THREADS`, default all
//!   cores) is bitwise equal to a forced-serial run;
//! * both agree with the direct nested-loop reference.
//!
//! The shapes are the small output planes (1×1, 2×2, 4×4) where folding
//! matters. The batch sizes cross the 16-column tile boundary and, at 4×4
//! (16 samples per 256-column chunk), the chunk boundary too.

use tcl_tensor::ops::{conv2d, conv2d_naive, ConvGeometry};
use tcl_tensor::{par, simd, SeededRng, Tensor};

/// Enough channels that even a 1×1 plane's per-sample cost splits the
/// larger batches across workers whenever the thread budget allows.
const CHANNELS: usize = 64;
const BATCHES: [usize; 5] = [1, 3, 5, 17, 50];
const PLANES: [usize; 3] = [1, 2, 4];

/// `count` samples of an `[N, C, H, W]` tensor, starting at `first`.
fn samples(x: &Tensor, first: usize, count: usize) -> Tensor {
    let item = x.len() / x.dims()[0];
    let mut dims = x.dims().to_vec();
    dims[0] = count;
    Tensor::from_vec(
        dims,
        x.data()[first * item..(first + count) * item].to_vec(),
    )
    .unwrap()
}

/// Index of the first element whose bits differ, if any.
fn first_difference(a: &[f32], b: &[f32]) -> Option<usize> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
}

#[test]
fn batched_conv_is_bitwise_equal_to_each_sample_alone_and_to_serial() {
    let geom = ConvGeometry::square(3, 1, 1).unwrap();
    let max_batch = BATCHES[BATCHES.len() - 1];
    for hw in PLANES {
        let mut rng = SeededRng::new(40 + hw as u64);
        let weight = rng.uniform_tensor([CHANNELS, CHANNELS, 3, 3], -0.1, 0.1);
        let bias = rng.uniform_tensor([CHANNELS], -0.5, 0.5);
        let x = rng.uniform_tensor([max_batch, CHANNELS, hw, hw], -1.0, 1.0);
        for level in simd::Level::available() {
            simd::with_level(level, || {
                for batch in BATCHES {
                    let xb = samples(&x, 0, batch);
                    let conv = |input: &Tensor| conv2d(input, &weight, Some(&bias), geom).unwrap();
                    let serial = par::with_serial(|| conv(&xb));
                    let parallel = conv(&xb);
                    let tag = format!("{} {hw}x{hw} batch {batch}", level.name());
                    assert_eq!(
                        first_difference(parallel.data(), serial.data()),
                        None,
                        "parallel vs serial, {tag}"
                    );
                    let item = serial.len() / batch;
                    for i in 0..batch {
                        let solo = par::with_serial(|| conv(&samples(&xb, i, 1)));
                        assert_eq!(
                            first_difference(&serial.data()[i * item..(i + 1) * item], solo.data()),
                            None,
                            "sample {i} in a batch vs alone, {tag}"
                        );
                    }
                    let naive = conv2d_naive(&xb, &weight, Some(&bias), geom).unwrap();
                    let diff = serial.max_abs_diff(&naive).unwrap();
                    assert!(diff < 1e-3, "vs naive reference, {tag}: {diff}");
                }
            });
        }
    }
}
