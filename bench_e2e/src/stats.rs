//! Order statistics and span self-time arithmetic.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// With 1000 samples the 0.95 quantile leaves 50 samples beyond it.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns its `q`-quantile; 0 for no samples.
pub fn quantile_u64(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    quantile_sorted(samples, q)
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`. Intervals
/// may overlap, nest, or reach outside the window.
pub fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    (end - start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&samples, 0.5), 500);
        assert_eq!(quantile_sorted(&samples, 0.95), 950);
        assert_eq!(quantile_sorted(&samples, 0.99), 990);
        assert_eq!(quantile_sorted(&samples, 1.0), 1000);
        assert_eq!(quantile_sorted(&samples, 0.0), 1);
        assert_eq!(quantile_sorted(&[7u64], 0.95), 7);
        assert_eq!(quantile_u64(&mut [30, 10, 20], 0.5), 20);
        assert_eq!(quantile_u64(&mut [], 0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(0, 100, &mut [(10, 20), (50, 80)]), 60);
        assert_eq!(self_time(0, 100, &mut []), 100);
    }

    #[test]
    fn self_time_counts_overlapping_and_nested_children_once() {
        // (10,40) and (30,60) overlap; (35,38) nests inside both.
        assert_eq!(self_time(0, 100, &mut [(30, 60), (10, 40), (35, 38)]), 50);
        // Two identical children cover their interval once.
        assert_eq!(self_time(0, 100, &mut [(20, 70), (20, 70)]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(100, 200, &mut [(50, 120), (190, 400)]), 70);
        assert_eq!(self_time(100, 200, &mut [(0, 1000)]), 0);
        assert_eq!(self_time(100, 200, &mut [(0, 50), (300, 400)]), 100);
    }
}
