//! Order statistics of latency samples.

/// The median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Percentiles a tail is reported at, in hundredths of a percent, highest
/// first (integers, so ranks carry no rounding error).
const TAIL_PERCENTILES: [usize; 9] = [9999, 9990, 9950, 9900, 9800, 9500, 9000, 8000, 7500];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail latency: the percentile, its nearest-rank value, and how many
/// samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// The highest of [`TAIL_PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// beyond its nearest-rank position. Fewer than 40 samples have no tail: the
/// median is all they can report.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = (p * n).div_ceil(10_000);
        let beyond = n - rank;
        (rank >= 1 && beyond >= MIN_BEYOND).then(|| Tail {
            percentile: p as f64 / 100.0,
            value: sorted[rank - 1],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn fewer_than_forty_samples_have_no_tail() {
        assert_eq!(tail(&ramp(39)), None);
        let t = tail(&ramp(40)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (75.0, 30.0, 10, 40));
    }

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.beyond), (98.0, 19));
        let t = tail(&ramp(100_000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.99, 10));
        let t = tail(&ramp(150)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 135.0, 15));
    }

    #[test]
    fn the_tail_ignores_input_order() {
        let mut values = ramp(200);
        values.reverse();
        assert_eq!(tail(&values), tail(&ramp(200)));
    }
}
