//! Order statistics for timings: medians and the tail percentile a sample
//! can support.

/// Sorts with `f64::total_cmp`, so NaNs and signed zeros have a fixed place
/// instead of making the order depend on the input permutation.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); `None`
/// for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile actually reported, in `(0, 1)`: the requested one, or
    /// the highest one the sample supports when it is smaller.
    pub quantile: f64,
    /// The nearest-rank value at `quantile`.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// The nearest-rank percentile at `target` (e.g. 0.99), lowered to the
/// highest quantile that still has at least [`TAIL_SUPPORT`] samples beyond
/// it. `None` when even that is impossible (`n ≤ TAIL_SUPPORT`).
///
/// With `n` samples the nearest-rank index of quantile `q` is
/// `ceil(q·n) − 1`; leaving `TAIL_SUPPORT` samples beyond it means
/// `q ≤ (n − TAIL_SUPPORT) / n`.
pub fn tail(values: &[f64], target: f64) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_SUPPORT {
        return None;
    }
    let supported = (n - TAIL_SUPPORT) as f64 / n as f64;
    let quantile = target.min(supported);
    let v = sorted(values);
    let rank = (quantile * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n - TAIL_SUPPORT) - 1;
    Some(Tail {
        quantile,
        value: v[idx],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_the_requested_quantile_when_the_sample_supports_it() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v, 0.99).expect("supported");
        assert_eq!(t.quantile, 0.99);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.samples, 2000);
        // 20 samples lie beyond the reported value.
        assert!(v.iter().filter(|&&x| x > t.value).count() >= TAIL_SUPPORT);
    }

    #[test]
    fn tail_lowers_the_quantile_to_leave_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v, 0.99).expect("supported");
        assert!((t.quantile - 0.9).abs() < 1e-12);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_SUPPORT);
        // The median needs only 20 samples.
        let m = tail(&v[..20], 0.5).expect("supported");
        assert_eq!(m.quantile, 0.5);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10], 0.5), None);
        let t = tail(&[1.0; 11], 0.99).expect("supported");
        assert_eq!(t.value, 1.0);
        assert!((t.quantile - 1.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_sorts_with_total_order() {
        let mut v: Vec<f64> = (0..30).map(f64::from).collect();
        v.push(f64::INFINITY);
        v.push(f64::NAN);
        v.push(-0.0);
        let t = tail(&v, 0.5).expect("supported");
        assert_eq!(t.samples, 33);
        assert_eq!(t.value, 15.0);
        // Infinite latencies (failed requests) stay in the tail.
        let t = tail(&v, 0.99).expect("supported");
        assert!(t.value.is_finite());
    }
}
