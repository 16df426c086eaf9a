//! Seeded workload inputs: which test samples are presented in which
//! order, and when open-loop requests are due.

use tcl_tensor::SeededRng;

/// Derives an independent stream from the workload seed, so the sample
/// order and the arrival schedule do not share draws.
fn stream(seed: u64, salt: u64) -> SeededRng {
    SeededRng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` indices into a test set of `pool` samples: successive seeded
/// permutations of the pool, concatenated, so every sample appears before
/// any repeats.
pub fn presentation_order(seed: u64, pool: usize, count: usize) -> Vec<usize> {
    let mut rng = stream(seed, 1);
    let mut order = Vec::with_capacity(count);
    while order.len() < count && pool > 0 {
        let perm = rng.permutation(pool);
        let take = (count - order.len()).min(pool);
        order.extend_from_slice(&perm[..take]);
    }
    order
}

/// Due times (seconds from the phase start) of the first `count` arrivals
/// of a Poisson process at `rate` requests per second; `phase` selects an
/// independent stream per phase.
pub fn poisson_arrivals(seed: u64, phase: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = stream(seed, 2 + phase);
    let mut due = Vec::with_capacity(count);
    if rate <= 0.0 {
        return due;
    }
    let mut t = 0.0f64;
    while due.len() < count {
        // Exponential gap by inversion; 1 − u lies in (0, 1], so ln is
        // finite.
        let u = f64::from(rng.uniform(0.0, 1.0));
        t += -(1.0 - u).ln() / rate;
        due.push(t);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_seeded_and_covers_the_pool_before_repeating() {
        let a = presentation_order(7, 120, 300);
        assert_eq!(a, presentation_order(7, 120, 300));
        assert_ne!(a, presentation_order(8, 120, 300));
        assert_eq!(a.len(), 300);
        let mut first: Vec<usize> = a[..120].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..120).collect::<Vec<_>>());
        assert!(presentation_order(1, 0, 10).is_empty());
    }

    #[test]
    fn arrivals_are_seeded_sorted_and_near_the_offered_rate() {
        let a = poisson_arrivals(3, 0, 200.0, 10_000);
        assert_eq!(a, poisson_arrivals(3, 0, 200.0, 10_000));
        assert_ne!(a, poisson_arrivals(3, 1, 200.0, 10_000));
        assert_eq!(a.len(), 10_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] > 0.0);
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 200.0).abs() < 10.0, "{rate}");
        assert_eq!(poisson_arrivals(3, 0, 200.0, 50), a[..50]);
        assert!(poisson_arrivals(3, 0, 0.0, 5).is_empty());
    }
}
