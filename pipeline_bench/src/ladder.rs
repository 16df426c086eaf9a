//! The highest sustainable arrival rate: the saturation throughput, or
//! lower where a ladder of offered rates below it breaks the tail limit.

/// What one rung of the ladder measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Tail latency at the rung (ms); failed requests count as infinite.
    pub tail_ms: f64,
    /// No request failed and the backlog did not grow.
    pub clean: bool,
}

impl Rung {
    /// Whether the rung meets `limit_ms`.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.clean && self.tail_ms <= limit_ms
    }
}

/// The highest offered rate that meets `limit_ms` with no backlog growth,
/// from rungs measured in increasing rate order below `saturated`, the
/// rate the system answers at when it never waits for work.
///
/// An offered rate above `saturated` grows the backlog without bound, so
/// the answer is at most `saturated`, and it is `saturated` when every
/// rung passes. Between the last passing rung and the first failing one
/// the rate is interpolated linearly in tail latency, to where the tail
/// would cross the limit, so the answer moves continuously with the system
/// instead of jumping a whole ladder step. A failing rung whose tail stayed
/// within the limit (it failed on errors or backlog growth alone) gives
/// nothing to interpolate towards, and the last passing rate is the
/// answer. Below the first rung the interpolation runs from an idle system
/// (0 rps, 0 ms).
pub fn max_rps(rungs: &[Rung], limit_ms: f64, saturated: f64) -> f64 {
    let Some(first_fail) = rungs.iter().position(|r| !r.passes(limit_ms)) else {
        return saturated;
    };
    let hi = rungs[first_fail];
    let (lo_rate, lo_tail) = match first_fail {
        0 => (0.0, 0.0),
        i => (rungs[i - 1].rate, rungs[i - 1].tail_ms),
    };
    // The passing rung's tail is at or below the limit, so a finite tail
    // above it brackets the crossing.
    if !(hi.tail_ms.is_finite() && hi.tail_ms > limit_ms) {
        return lo_rate.min(saturated);
    }
    let frac = ((limit_ms - lo_tail) / (hi.tail_ms - lo_tail)).clamp(0.0, 1.0);
    (lo_rate + (hi.rate - lo_rate) * frac).min(saturated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, tail_ms: f64, clean: bool) -> Rung {
        Rung {
            rate,
            tail_ms,
            clean,
        }
    }

    #[test]
    fn interpolates_where_the_tail_crosses_the_limit() {
        let rungs = [
            rung(50.0, 40.0, true),
            rung(100.0, 80.0, true),
            rung(150.0, 180.0, true),
            rung(200.0, 900.0, false),
        ];
        // 80 ms at 100 rps, 180 ms at 150 rps: 100 ms is a fifth of the way.
        let v = max_rps(&rungs, 100.0, 1e3);
        assert!((v - 110.0).abs() < 1e-9, "{v}");
        // A slightly different tail moves the answer slightly: no
        // quantisation to the 50 rps ladder step.
        let mut moved = rungs;
        moved[2].tail_ms = 170.0;
        let w = max_rps(&moved, 100.0, 1e3);
        assert!(w > v && w < 150.0, "{w}");
    }

    #[test]
    fn a_failing_rung_within_the_limit_stops_at_the_last_pass() {
        // Errors or backlog growth with the tail still under the limit.
        let rungs = [rung(50.0, 40.0, true), rung(100.0, 60.0, false)];
        assert_eq!(max_rps(&rungs, 100.0, 1e3), 50.0);
        // Too many failures to read a finite tail.
        let rungs = [rung(50.0, 40.0, true), rung(100.0, f64::INFINITY, true)];
        assert_eq!(max_rps(&rungs, 100.0, 1e3), 50.0);
    }

    #[test]
    fn backlog_growth_past_the_limit_still_interpolates() {
        let rungs = [rung(50.0, 40.0, true), rung(100.0, 340.0, false)];
        assert!((max_rps(&rungs, 100.0, 1e3) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn first_rung_failing_interpolates_from_idle() {
        let rungs = [rung(50.0, 200.0, true)];
        assert!((max_rps(&rungs, 100.0, 1e3) - 25.0).abs() < 1e-9);
        assert_eq!(max_rps(&[rung(50.0, 20.0, false)], 100.0, 1e3), 0.0);
        assert_eq!(max_rps(&[rung(50.0, f64::NAN, true)], 100.0, 1e3), 0.0);
    }

    #[test]
    fn all_rungs_passing_reports_the_saturation_rate() {
        let rungs = [rung(50.0, 10.0, true), rung(100.0, 20.0, true)];
        assert_eq!(max_rps(&rungs, 100.0, 120.0), 120.0);
        assert_eq!(max_rps(&[], 100.0, 120.0), 120.0);
    }

    #[test]
    fn the_answer_never_exceeds_the_saturation_rate() {
        // The tail crosses at 110 rps, but the system saturates at 105.
        let rungs = [rung(100.0, 80.0, true), rung(150.0, 180.0, true)];
        assert_eq!(max_rps(&rungs, 100.0, 105.0), 105.0);
        let rungs = [rung(100.0, 80.0, true), rung(150.0, 90.0, false)];
        assert_eq!(max_rps(&rungs, 100.0, 90.0), 90.0);
    }

    #[test]
    fn the_answer_stays_within_the_bracketing_rates() {
        let rungs = [rung(50.0, 99.0, true), rung(100.0, 101.0, true)];
        let v = max_rps(&rungs, 100.0, 1e3);
        assert!((50.0..=100.0).contains(&v));
    }
}
