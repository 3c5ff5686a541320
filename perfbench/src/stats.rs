//! Order statistics over latency samples.

/// Value at percentile `p` (nearest rank) of `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// The tail of `sorted`: the highest percentile that leaves ten
/// samples beyond it, i.e. the eleventh-largest sample, with the
/// percentile it sits at. The percentile moves smoothly with the sample
/// count, so runs of slightly different length stay comparable. With
/// ten samples or fewer it falls back to the median.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n <= 10 {
        return (50.0, percentile(sorted, 50.0));
    }
    (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&v[..8]), (50.0, 4.0));
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
