//! Order statistics for the round samples.
//!
//! Every timing this benchmark reports is the **lower quartile over many
//! fixed-work rounds**. On the small shared guests this runs on, the same
//! replay alternates between a quiet and a noisy level (about 1.45× apart)
//! in stretches of seconds, and the minimum drifts too; the median of a run
//! lands on whichever level held the majority and the best-of-run chases
//! the drift, while the lower quartile sits inside the quiet level as soon
//! as a quarter of the rounds saw it. The median is kept beside it as the
//! noise diagnostic (`noise.p50_over_p25`).

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between the two nearest order statistics (the "type 7" rule NumPy and R
/// default to). `values` need not be sorted.
///
/// # Panics
///
/// When `values` is empty or contains a NaN: both are bugs in the caller.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Lower quartile: the estimator behind every reported time.
pub fn p25(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Upper quartile: the same estimator for a rate (a rate's good quartile is
/// its upper one).
pub fn p75(values: &[f64]) -> f64 {
    quantile(values, 0.75)
}

/// Median.
pub fn p50(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median and 99th percentile of one round's per-operation samples, sorted
/// in place. With `n` samples the 99th percentile has `n / 100` samples
/// beyond it; callers keep `n ≥ 1000` so that is at least ten.
pub fn p50_p99(samples: &mut [f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.99))
}

/// How far the run's typical round sat above its quiet level: median round
/// time over lower-quartile round time. Near 1.0 on a quiet host; a run
/// above 1.25 spent most of its time in the noisy level and `compare`
/// reports its timings as unresolved.
pub fn p50_over_p25(round_ns: &[f64]) -> f64 {
    p50(round_ns) / p25(round_ns)
}

/// Share of rounds within 10 % of the lower-quartile round.
pub fn quiet_share(round_ns: &[f64]) -> f64 {
    let limit = p25(round_ns) * 1.10;
    round_ns.iter().filter(|&&t| t <= limit).count() as f64 / round_ns.len() as f64
}

/// Index of the round whose time is closest to the lower quartile: the
/// traced pass reports that one round's spans, so that its parts add up
/// exactly instead of being quartiles of different rounds.
pub fn p25_round(round_ns: &[f64]) -> usize {
    let target = p25(round_ns);
    let mut best = 0;
    for (i, t) in round_ns.iter().enumerate() {
        if (t - target).abs() < (round_ns[best] - target).abs() {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(p50(&v), 3.0);
        assert_eq!(p25(&v), 2.0);
        assert_eq!(p75(&v), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn p25_ignores_a_noisy_majority() {
        // 30 % quiet rounds at 100, 70 % noisy rounds at 145: the median
        // reports the noisy level, the lower quartile the quiet one.
        let mut v = vec![100.0; 30];
        v.extend(vec![145.0; 70]);
        assert_eq!(p25(&v), 100.0);
        assert_eq!(p50(&v), 145.0);
        assert!((p50_over_p25(&v) - 1.45).abs() < 1e-9);
        assert!((quiet_share(&v) - 0.30).abs() < 1e-9);
        assert!(v[p25_round(&v)] == 100.0);
    }

    #[test]
    fn p99_leaves_a_hundredth_beyond() {
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p50, p99) = p50_p99(&mut v);
        assert_eq!(p50, 500.0);
        assert_eq!(p99, 989.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }
}
