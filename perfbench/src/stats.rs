//! Order statistics and ratios behind every reported number.

/// Samples that must lie above a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// A reported percentile and the number of samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The sample at the percentile's nearest rank.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

/// Smallest sample count for which [`percentile`] reports quantile `q`.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| n - nearest_rank(q, n) >= TAIL_SAMPLES)
        .expect("some sample count leaves ten samples beyond any q < 1")
}

fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or `None`
/// unless at least [`TAIL_SAMPLES`] samples lie above its rank: a p50
/// needs 20 samples, a p90 needs 100.
pub fn percentile(samples: &[f64], q: f64) -> Option<Quantile> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(q, n);
    if n - rank < TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Quantile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The median of `samples` whatever their count (lower middle for an
/// even count), for internal comparisons that are never reported as a
/// percentile; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[(sorted.len() - 1) / 2])
}

/// `num / den`, or 0 when nothing was measured (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mebibytes per second for `bytes` processed in `seconds`.
pub fn mib_per_s(bytes: u64, seconds: f64) -> f64 {
    ratio(bytes as f64 / MIB, seconds)
}

/// Bytes per mebibyte.
pub const MIB: f64 = 1024.0 * 1024.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: percentile must sort.
        (0..n).rev().map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(percentile(&ramp(99), 0.9), None);
        let q = percentile(&ramp(100), 0.9).expect("100 samples report a p90");
        assert_eq!(q.value, 90.0);
        assert_eq!(q.samples, 100);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(percentile(&ramp(19), 0.5), None);
        let q = percentile(&ramp(20), 0.5).expect("20 samples report a p50");
        assert_eq!((q.value, q.samples), (10.0, 20));
        let q = percentile(&ramp(21), 0.5).expect("21 samples report a p50");
        assert_eq!((q.value, q.samples), (11.0, 21));
    }

    #[test]
    fn percentile_of_nothing_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_reports_any_count() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(mib_per_s(3 << 20, 1.5), 2.0);
        assert_eq!(mib_per_s(1 << 20, 0.0), 0.0);
    }
}
