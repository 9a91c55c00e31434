//! Order statistics and the micro-benchmark timer.

use std::time::Instant;

/// Ascending copy of `v` (NaNs sort last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the two middle values for an even count);
/// `0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// A tail latency: the highest percentile at or above the median that
/// still has at least [`TAIL_BEYOND`] samples above it, with the
/// percentile and the sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The `k`-th smallest sample with `k = max(n - TAIL_BEYOND, ⌊n/2⌋ + 1)`,
/// i.e. the `100·k/n`-th percentile. With at most `2·TAIL_BEYOND`
/// samples no percentile above the median has that many beyond it, and
/// the tail is the smallest sample at or above the median; the caller
/// prints the percentile either way.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            n,
        };
    }
    let k = n.saturating_sub(TAIL_BEYOND).max(n / 2 + 1);
    Tail {
        value: s[k - 1],
        percentile: 100.0 * k as f64 / n as f64,
        n,
    }
}

/// Median nanoseconds per call of `f`: calibrate a repetition count
/// that fills ~`SAMPLE_NS`, then take the median of `SAMPLES` timed
/// batches.
pub fn time_ns(mut f: impl FnMut()) -> f64 {
    const SAMPLE_NS: u128 = 4_000_000;
    const SAMPLES: usize = 7;
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1);
    let reps = (SAMPLE_NS / once).clamp(1, 1_000_000) as usize;
    let per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let t = tail(&[2.0, 5.0, 1.0]);
        assert_eq!((t.value, t.n), (2.0, 3));
        for n in 1..=21 {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            assert!(tail(&v).value >= median(&v), "n = {n}");
        }
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&v).value, 5.0);
        // from 2·TAIL_BEYOND + 2 samples on the ten-beyond rule decides
        let v: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&v).value, 12.0);
    }
}
