//! The benchmark's own statistics: medians, tail percentiles that refuse to
//! report from too few samples, and the metric-name grammar of the result
//! line.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported; below that the value is withheld rather than guessed.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` for no
/// samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank percentile `q` in (0, 1), withheld unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| Percentile { value: v[rank - 1], samples: n })
}

/// Whether `name` may appear as a metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let starts_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail_percentile(&v, 0.9).expect("100 samples leave 10 beyond p90");
        assert_eq!(p90, Percentile { value: 90.0, samples: 100 });
        assert_eq!(tail_percentile(&v[..99], 0.9), None, "99 samples leave only 9 beyond");
        assert_eq!(tail_percentile(&v[..20], 0.5).map(|p| p.value), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_reports_its_sample_count() {
        let v: Vec<f64> = (0..250).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9).map(|p| p.samples), Some(250));
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in ["round_s", "fl.stage.audit_s", "tensor.gemm.cvae_enc.gflops", "9lives", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "round s", "a/b", "µs", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
