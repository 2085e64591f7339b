//! Order statistics under the benchmark's sample-size rule.

/// A p99 rests on at least this many successful samples; below it the
/// percentile is refused rather than read off a handful of points.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Nearest-rank quantile of an ascending sample.  Failed requests enter
/// latency samples as `f64::INFINITY`, so they sort last and a failure
/// share above `1 - q` drives the quantile to infinity.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sort ascending; infinities last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// p99 of a latency sample, refused when fewer than
/// [`P99_MIN_SAMPLES`] of its entries are successes (finite).
pub fn p99(sorted: &[f64]) -> Result<f64, String> {
    let ok = sorted.iter().filter(|v| v.is_finite()).count();
    if ok < P99_MIN_SAMPLES {
        return Err(format!(
            "p99 refused: {ok} successful samples, the rule needs {P99_MIN_SAMPLES}"
        ));
    }
    Ok(quantile(sorted, 0.99))
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_the_sample_floor() {
        let short: Vec<f64> = (0..P99_MIN_SAMPLES - 1).map(|i| i as f64).collect();
        assert!(p99(&short).is_err());
        let full: Vec<f64> = (0..P99_MIN_SAMPLES).map(|i| i as f64).collect();
        assert_eq!(p99(&full).unwrap(), 989.0);
    }

    #[test]
    fn failures_count_as_samples_but_not_as_successes() {
        // 1000 successes plus 20 failures: the failures are 2% of the
        // sample, so the p99 is infinite — a missed latency limit.
        let mut v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 20));
        let v = sorted(v);
        assert!(p99(&v).unwrap().is_infinite());
        assert_eq!(quantile(&v, 0.5), 509.0);
        // 999 successes with failures padding the count is still refused.
        let mut w: Vec<f64> = (0..999).map(|i| i as f64).collect();
        w.push(f64::INFINITY);
        assert!(p99(&sorted(w)).is_err());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
