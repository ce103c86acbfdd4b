//! Order statistics: percentiles of latency samples, the quartiles
//! `compare` judges spread by, and the median-of-segments tail estimate.

/// The `p`-th percentile (0–100) of `sorted`, by nearest rank. 0 when empty.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Sorts `samples` in place and returns the `p`-th percentile.
pub fn percentile_of(samples: &mut [u32], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p)
}

/// Median of `values` (mean of the middle two when even). 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
/// spread computed here matches one computed from the same runs elsewhere.
/// With a single value all three are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median; 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

/// Splits timestamped samples into consecutive segments of `seg_ns`, takes
/// the `p`-th percentile inside each segment that holds at least
/// `min_samples`, and returns the median of those — a tail estimate that one
/// bad segment (a disk hiccup) moves far less than the raw percentile.
pub fn segment_median(samples: &[(u64, u32)], seg_ns: u64, p: f64, min_samples: usize) -> f64 {
    let Some(t0) = samples.iter().map(|s| s.0).min() else {
        return 0.0;
    };
    let mut segments: Vec<Vec<u32>> = Vec::new();
    for &(t, v) in samples {
        let idx = ((t - t0) / seg_ns.max(1)) as usize;
        if segments.len() <= idx {
            segments.resize_with(idx + 1, Vec::new);
        }
        segments[idx].push(v);
    }
    let per_segment: Vec<f64> = segments
        .iter_mut()
        .filter(|s| s.len() >= min_samples.max(1))
        .map(|s| percentile_of(s, p))
        .collect();
    median(&per_segment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile::<u32>(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7u32], 99.0), 7.0);
    }

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn segment_median_shrugs_off_one_bad_segment() {
        // Three 1 s segments of 100 samples; the middle one has a bad tail.
        let mut samples = Vec::new();
        for seg in 0..3u64 {
            for i in 0..100u64 {
                let v = if seg == 1 && i >= 90 {
                    10_000
                } else {
                    100 + i as u32
                };
                samples.push((seg * 1_000_000_000 + i, v));
            }
        }
        let raw = {
            let mut all: Vec<u32> = samples.iter().map(|s| s.1).collect();
            percentile_of(&mut all, 99.0)
        };
        assert_eq!(raw, 10_000.0);
        assert_eq!(segment_median(&samples, 1_000_000_000, 99.0, 10), 198.0);
        assert_eq!(segment_median(&[], 1, 99.0, 1), 0.0);
    }
}
