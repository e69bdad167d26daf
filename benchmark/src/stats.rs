//! Order statistics the benchmark reports: medians, supported
//! percentiles, inter-quartile spread, and the log-log slope fit behind
//! the `scaling.*_exp` growth exponents.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the middle four fifths of `values`: what a run reports over
/// its units (arcs, batches). This host runs at one of two speeds a
/// quarter apart and changes every few seconds. A median over a run's
/// units reads the one speed or the other according to which had the
/// majority, so between runs split about evenly it jumps by that quarter
/// (measured: spreads over 20 % on 7 of 38 metrics in a restless hour);
/// a mean moves by the change in the split (3 of 38). The tenth cut from
/// each end is for the unit a collection or a stall of the host lands on.
/// Panics on an empty slice.
pub fn steady_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The highest of the percentiles the benchmark names (99, 95, 90, 50)
/// that still has at least ten samples beyond it in a sample of `n` —
/// the rule for which tail a sample supports.
pub fn supported_percentile(n: usize) -> f64 {
    // Whole-number arithmetic in per mille: the nearest-rank p-th
    // percentile of n samples is sample number ceil(n·p), and what lies
    // beyond it is the rest.
    [990, 950, 900]
        .into_iter()
        .find(|&p| n - (n * p).div_ceil(1000) >= 10)
        .map_or(0.50, |p| p as f64 / 1000.0)
}

/// Nearest-rank percentile `p` (0..1) of an unsorted sample.
pub fn percentile(samples: &mut [u32], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

/// Median and tail of a latency sample in nanoseconds: `(p50, tail,
/// which tail)`. The tail is p99 when the sample supports it and the
/// highest supported percentile otherwise.
pub fn latency_summary(samples: &mut [u32]) -> (f64, f64, f64) {
    let tail = supported_percentile(samples.len());
    (percentile(samples, 0.50), percentile(samples, tail), tail)
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance spread is defined with. Needs two or more values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Not clamped: like Python, tiny samples extrapolate past the ends.
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 for fewer than
/// two values, where no spread is known).
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `e` of the
/// best-fit `y = c·x^e`. Points with a non-positive coordinate carry no
/// logarithm and are skipped; fewer than two usable points give 0.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return 0.0;
    }
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn steady_mean_drops_a_tenth_from_each_end() {
        // Ten batches, one stalled: the stalled one and the fastest go.
        let mut rates = vec![1000.0; 9];
        rates.push(10.0);
        assert_eq!(steady_mean(&rates), 1000.0);
        // Two speeds, split 3:7 and 7:3: the reading follows the split.
        let run = |slow: usize| {
            let v: Vec<f64> = (0..10).map(|i| if i < slow { 1.25 } else { 1.0 }).collect();
            steady_mean(&v)
        };
        assert!((run(3) - 1.0625).abs() < 1e-12 && (run(7) - 1.1875).abs() < 1e-12);
        // Fewer than ten values: nothing is cut.
        assert_eq!(steady_mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn median_of_batches_ignores_one_slow_batch() {
        // Ten batch rates with one stalled batch: the reported rate is
        // the typical batch, not the mean dragged down by the stall.
        let mut rates = vec![1000.0; 9];
        rates.push(10.0);
        assert_eq!(median(&rates), 1000.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(999), 0.95);
        assert_eq!(supported_percentile(1000), 0.99);
        assert_eq!(supported_percentile(200), 0.95);
        assert_eq!(supported_percentile(199), 0.90);
        assert_eq!(supported_percentile(100), 0.90);
        assert_eq!(supported_percentile(99), 0.50);
        assert_eq!(supported_percentile(20), 0.50);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut s, 0.50), 500.0);
        assert_eq!(percentile(&mut s, 0.99), 990.0);
        assert_eq!(percentile(&mut s, 1.0), 1000.0);
        let (p50, tail, which) = latency_summary(&mut s);
        assert_eq!((p50, tail, which), (500.0, 990.0, 0.99));
        let mut small: Vec<u32> = (1..=50).collect();
        assert_eq!(latency_summary(&mut small), (25.0, 25.0, 0.50));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]);
        assert_eq!((q1, q3), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert_eq!((q1, q3), (0.75, 2.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[4.2]), 0.0);
    }

    #[test]
    fn loglog_slope_recovers_a_synthetic_exponent() {
        let pts: Vec<(f64, f64)> = [1000.0f64, 5000.0, 40_000.0]
            .iter()
            .map(|&x| (x, 3e-7 * x.powf(1.7)))
            .collect();
        assert!((loglog_slope(&pts) - 1.7).abs() < 1e-9);
        let flat = [(10.0, 2.0), (100.0, 2.0), (1000.0, 2.0)];
        assert!(loglog_slope(&flat).abs() < 1e-12);
        assert_eq!(loglog_slope(&[(10.0, 1.0)]), 0.0);
        assert_eq!(loglog_slope(&[(10.0, 0.0), (20.0, 0.0)]), 0.0);
    }
}
