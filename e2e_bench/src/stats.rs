//! Order statistics with the benchmark's reporting rule: a tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; otherwise the highest percentile that has them.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// A tail percentile as reported: which quantile, its value, and the
/// sample count it came from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub q: f64,
    pub value: f64,
    pub n: usize,
}

/// The `target` quantile of `sorted`, lowered until at least
/// [`MIN_BEYOND`] samples lie beyond it (never below the median).
pub fn tail(sorted: &[f64], target: f64) -> Tail {
    let n = sorted.len();
    let supported = 1.0 - MIN_BEYOND as f64 / n as f64;
    let q = target.min(supported).max(0.5);
    Tail {
        q,
        value: quantile(sorted, q),
        n,
    }
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{:.4} = {:.3} ms (n = {})",
            self.q * 100.0,
            self.value,
            self.n
        )
    }
}

/// One rung of a fixed-rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate: f64,
    pub tail: Tail,
    pub failed: u64,
}

impl Rung {
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0 && self.tail.value <= limit_ms
    }
}

/// The highest offered rate whose tail latency stays within `limit_ms`
/// with no failures. The climb ends at the first of two rungs in a row
/// that miss the limit (a single disturbed rung is passed over); the rate
/// is interpolated in the logarithm of the tail latency, which grows
/// about exponentially towards saturation, between the rung before it
/// and that rung. When the lowest rung already misses, its rate is scaled
/// down by the overshoot; when no two rungs in a row miss, the highest
/// passing rate is returned.
pub fn slo_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    let misses = |i: usize| rungs.get(i).is_some_and(|r| !r.meets(limit_ms));
    let end = (0..rungs.len()).find(|&i| misses(i) && (i + 1 == rungs.len() || misses(i + 1)));
    match end {
        None => rungs
            .iter()
            .filter(|r| r.meets(limit_ms))
            .map(|r| r.rate)
            .fold(0.0, f64::max),
        Some(0) => {
            let r = rungs[0];
            r.rate * (limit_ms / r.tail.value).min(1.0)
        }
        Some(i) => {
            let (lo, hi) = (rungs[i - 1], rungs[i]);
            let hi_ms = if hi.failed > 0 {
                hi.tail.value.max(2.0 * limit_ms)
            } else {
                hi.tail.value
            };
            let frac =
                ((limit_ms / lo.tail.value).ln() / (hi_ms / lo.tail.value).ln()).clamp(0.0, 1.0);
            lo.rate + (hi.rate - lo.rate) * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_lowers_to_supported_percentile() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&sorted, 0.99);
        assert!((t.q - 0.90).abs() < 1e-12);
        assert_eq!(t.value, 90.0);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many, 0.99).value, 1980.0);
    }

    #[test]
    fn slo_interpolates_between_rungs() {
        let rung = |rate, ms| Rung {
            rate,
            tail: Tail {
                q: 0.99,
                value: ms,
                n: 1000,
            },
            failed: 0,
        };
        let rungs = [rung(100.0, 5.0), rung(200.0, 10.0), rung(300.0, 30.0)];
        let frac = 2f64.ln() / 3f64.ln();
        assert!((slo_rate(&rungs, 20.0) - (200.0 + 100.0 * frac)).abs() < 1e-9);
        assert_eq!(slo_rate(&rungs[..2], 20.0), 200.0);
        assert!((slo_rate(&rungs[2..], 20.0) - 200.0).abs() < 1e-9);
        // One disturbed rung below the knee does not end the climb.
        let bumpy = [
            rung(100.0, 5.0),
            rung(200.0, 30.0),
            rung(300.0, 10.0),
            rung(400.0, 40.0),
            rung(500.0, 80.0),
        ];
        let frac = 2f64.ln() / 4f64.ln();
        assert!((slo_rate(&bumpy, 20.0) - (300.0 + 100.0 * frac)).abs() < 1e-9);
    }
}
