//! Order statistics over timing samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// A percentile read off a sample: which percentile it is, its value and
/// the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (in `0..=100`) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let index = rank.min(v.len()) - 1;
    Some(Quantile {
        percentile: p,
        value: v[index],
        samples: v.len(),
    })
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |q| q.value)
}

/// Mean of the middle half of `values`: sorted, with the lowest and the
/// highest quarter (rounded down) left out. A few disturbed repetitions do
/// not move it, and unlike the median it does not jump between the modes of
/// values that cluster in two groups. 0 when empty.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// The highest nearest-rank percentile at or below `target` with at least
/// [`TAIL_SUPPORT`] samples beyond it. With too few samples for any such
/// percentile, the largest sample is reported as the 100th percentile.
pub fn tail(samples: &[f64], target: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_SUPPORT {
        return Some(Quantile {
            percentile: 100.0,
            value: v[n - 1],
            samples: n,
        });
    }
    let wanted = ((target / 100.0) * n as f64).ceil().max(1.0) as usize - 1;
    let index = wanted.min(n - 1 - TAIL_SUPPORT);
    Some(Quantile {
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        value: v[index],
        samples: n,
    })
}

/// `tail(samples, 99)`, with 0 for an empty sample.
pub fn p99(samples: &[f64]) -> f64 {
    tail(samples, 99.0).map_or(0.0, |q| q.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_when_the_sample_supports_it() {
        let q = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(q.value, 990.0);
        assert_eq!(q.percentile, 99.0);
        assert_eq!(1000 - q.value as usize, TAIL_SUPPORT, "ten samples beyond");
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        let q = tail(&ramp(360), 99.0).unwrap();
        assert_eq!(360 - q.value as usize, TAIL_SUPPORT);
        assert!((q.percentile - 350.0 / 3.6).abs() < 1e-9);
        assert_eq!(q.samples, 360);
        // One more sample beyond would be a lower percentile, one fewer
        // breaks the support rule: the helper picks the highest valid one.
        let q = tail(&ramp(2000), 99.9).unwrap();
        assert_eq!(2000 - q.value as usize, TAIL_SUPPORT);
    }

    #[test]
    fn tiny_samples_report_their_maximum() {
        let q = tail(&ramp(5), 99.0).unwrap();
        assert_eq!((q.value, q.percentile), (5.0, 100.0));
        assert!(tail(&[], 99.0).is_none());
    }

    #[test]
    fn interquartile_mean_leaves_out_the_outer_quarters() {
        assert_eq!(interquartile_mean(&ramp(10)), 5.5, "3..=8 of 1..=10");
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 400.0]), 2.5);
        assert_eq!(interquartile_mean(&[3.0, 1.0]), 2.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(9)), 5.0);
        assert_eq!(median(&ramp(10)), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
