//! Order statistics for timing samples, and the run-to-run spread the
//! driver judges the benchmark by.

/// The summary printed for a timed operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// 2nd percentile: the "quiet-box" time, the gated estimator. What a
    /// shared VM adds to a run it only ever adds, so the estimator sits low:
    /// low enough to stay clear of contended stretches (over ten seeds under
    /// noisy neighbours it spread at most 8% across runs where the 10th
    /// percentile spread 20% and the median 37%), not so low that a handful
    /// of freak fast samples decide it (on a quiet box the minimum spread 9%,
    /// this 3.5%). See the table in `README.md`.
    pub quiet: f64,
    /// 10th percentile.
    pub q10: f64,
    /// Median.
    pub p50: f64,
    /// The highest percentile that still has at least ten samples beyond it
    /// (the maximum when there are fewer than twenty samples).
    pub hi: f64,
    /// Sample count.
    pub n: usize,
}

/// The percentile of the quiet-box time.
const QUIET: f64 = 0.02;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile `p` (0..=1) of `samples`.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples to take a percentile of");
    nearest_rank(&sorted(samples), p)
}

/// Summarises `samples`.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarise");
    let v = sorted(samples);
    let n = v.len();
    Summary {
        quiet: nearest_rank(&v, QUIET),
        q10: nearest_rank(&v, 0.10),
        p50: nearest_rank(&v, 0.50),
        hi: v[n - 1 - if n >= 20 { 10 } else { 0 }],
        n,
    }
}

/// The gated timing estimator: the sum over a sample's parts of each part's
/// quiet-box time ([`Summary::quiet`]). A sample's parts (the modes of a round, the plan keys of a
/// cycle) cost differently, so each gets its own quiet-box time; one slow
/// part then spoils a sample of that part only, not the whole sample.
///
/// # Panics
/// Panics if `samples` is empty or its rows differ in length.
pub fn quiet_sum(samples: &[Vec<f64>]) -> f64 {
    let parts = samples.first().expect("no samples to summarise").len();
    assert!(samples.iter().all(|s| s.len() == parts), "ragged samples");
    (0..parts)
        .map(|p| summarize(&samples.iter().map(|s| s[p]).collect::<Vec<f64>>()).quiet)
        .sum()
}

/// Median with the midpoint rule for even counts (Python's
/// `statistics.median`).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples to take a median of");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them,
/// so `--repeat` judges spreads the way the driver does.
///
/// # Panics
/// Panics with fewer than two values, as Python does.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let ld = v.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: clamping j can push delta outside 0..=4 for tiny inputs,
        // where Python extrapolates as well.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_on_one_to_hundred() {
        // 1..=100 shuffled by a fixed stride: rank k holds value k.
        let samples: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 100);
        assert_eq!(s.quiet, 2.0);
        assert_eq!(s.q10, 10.0);
        assert_eq!(s.p50, 50.0);
        // Ten samples (91..=100) lie beyond the reported high percentile.
        assert_eq!(s.hi, 90.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), 198.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
    }

    #[test]
    fn picker_on_few_samples_reports_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.quiet, s.q10, s.p50, s.hi, s.n), (1.0, 1.0, 2.0, 3.0, 3));
        let one = summarize(&[7.5]);
        assert_eq!((one.q10, one.p50, one.hi), (7.5, 7.5, 7.5));
    }

    #[test]
    fn hi_needs_twenty_samples_to_leave_ten_beyond() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&v).hi, 10.0);
        assert_eq!(summarize(&v[..19]).hi, 19.0);
    }

    #[test]
    fn quiet_sum_takes_each_parts_own_quiet_time() {
        // Two parts, each quiet in a different sample: no sample's total is
        // as low as the sum of the parts' own quiet times.
        let samples = vec![vec![1.0, 9.0], vec![5.0, 2.0], vec![4.0, 4.0]];
        assert_eq!(quiet_sum(&samples), 3.0);
        // One part of 1..=100: its 2nd percentile.
        let single: Vec<Vec<f64>> = (1..=100).rev().map(|i| vec![f64::from(i)]).collect();
        assert_eq!(quiet_sum(&single), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
    }

    #[test]
    fn equal_values_have_no_spread() {
        assert_eq!(spread(&[4.0; 10]), 0.0);
    }
}
