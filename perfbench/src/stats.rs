//! Sample arithmetic: medians, nearest-rank percentiles, and the rule for
//! which percentile a sample set may report.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; with fewer, its value is one or two outliers and moves from
//! run to run by itself.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the benchmark reports, in per-mille, lowest first.
pub const PERCENTILES: [u32; 4] = [500, 900, 990, 999];

/// The 1-based nearest rank of percentile `permille` among `n` samples.
pub fn rank(n: usize, permille: u32) -> usize {
    let scaled = n as u64 * u64::from(permille);
    (scaled.div_ceil(1000) as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond percentile `permille`.
pub fn beyond(n: usize, permille: u32) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// The highest of [`PERCENTILES`] that keeps at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when not even the median does.
pub fn highest_reportable(n: usize) -> Option<u32> {
    PERCENTILES
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .max()
}

/// The value at percentile `permille` of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// A percentile that was asked for, capped to what the samples support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Capped {
    /// The percentile actually reported, in per-mille.
    pub permille: u32,
    /// Its value.
    pub value: f64,
    /// The sample count it was taken from.
    pub samples: usize,
}

/// Percentile `want` of `samples`, or the highest reportable one below it
/// when too few samples lie beyond `want`. The median is the floor: it is
/// reported even from a handful of samples, and says so in `permille`.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn capped(samples: &[f64], want: u32) -> Capped {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let permille = highest_reportable(sorted.len()).map_or(500, |p| p.min(want));
    Capped {
        permille,
        value: percentile(&sorted, permille),
        samples: sorted.len(),
    }
}

/// The median of `samples` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median nanoseconds per call of `f` over `batches` batches of `per`
/// calls; `f` gets the call's index within its batch.
pub fn per_call_ns(batches: usize, per: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = std::time::Instant::now();
            for i in 0..per {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        assert_eq!(rank(10, 500), 5);
        assert_eq!(rank(11, 500), 6);
        assert_eq!(rank(100, 900), 90);
        assert_eq!(rank(1, 999), 1);
        assert_eq!(rank(0, 500), 1);
    }

    #[test]
    fn the_highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(500));
        // p90 of 99 samples is rank 90: only nine lie beyond it.
        assert_eq!(highest_reportable(99), Some(500));
        assert_eq!(highest_reportable(100), Some(900));
        assert_eq!(highest_reportable(999), Some(900));
        assert_eq!(highest_reportable(1000), Some(990));
        assert_eq!(highest_reportable(9999), Some(990));
        assert_eq!(highest_reportable(10_000), Some(999));
        for n in 0..3000 {
            if let Some(p) = highest_reportable(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn capped_falls_back_to_what_the_samples_support() {
        let few: Vec<f64> = (1..=6).map(f64::from).collect();
        let c = capped(&few, 900);
        assert_eq!((c.permille, c.samples), (500, 6));
        assert_eq!(c.value, 3.0);

        let many: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let c = capped(&many, 900);
        assert_eq!((c.permille, c.value), (900, 180.0));
        // Asking for less than the samples allow is honoured as asked.
        assert_eq!(capped(&many, 500).permille, 500);
        let c = capped(&many, 990);
        assert_eq!(c.permille, 900, "200 samples cannot carry a p99");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
