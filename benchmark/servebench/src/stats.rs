//! Percentiles and the slice-median summary of a timed window.

/// The median of `values` (mean of the middle two for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest quantile, at most `want`, that `n` samples support: it needs
/// at least ten samples beyond it, so p95 needs 200 and p99 needs 1000.
/// `None` below twenty samples, where only the median is reported.
pub fn supported_tail(n: usize, want: f64) -> Option<f64> {
    (n >= 20).then(|| want.min(1.0 - 10.0 / n as f64))
}

/// One completed op of the timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Completion time, seconds from the start of the window.
    pub end_s: f64,
    /// Client-observed latency in milliseconds.
    pub latency_ms: f64,
}

/// Median-over-slices summary of one op kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over slices of the slice median.
    pub p50_ms: f64,
    /// Median over slices of the slice tail (p95 where supported).
    pub tail_ms: f64,
    /// The quantile `tail_ms` actually is: 0.95, or lower when the smallest
    /// slice held fewer than 200 samples.
    pub tail_q: f64,
    /// Samples summarised.
    pub count: usize,
    /// Samples in the smallest slice.
    pub min_slice: usize,
}

/// Split `[0, window_s)` into `slices` equal parts by completion time, take
/// each part's median and tail, and report the median of each across parts:
/// one slow second moves one slice, not the result. `None` when some slice
/// is empty.
pub fn summarise(samples: &[Sample], window_s: f64, slices: usize) -> Option<Summary> {
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for s in samples.iter().filter(|s| s.end_s < window_s) {
        let k = ((s.end_s / window_s) * slices as f64) as usize;
        parts[k.min(slices - 1)].push(s.latency_ms);
    }
    let min_slice = parts.iter().map(Vec::len).min()?;
    if min_slice == 0 {
        return None;
    }
    let tail_q = supported_tail(min_slice, 0.95).unwrap_or(0.5);
    let (mut medians, mut tails) = (Vec::new(), Vec::new());
    for part in &mut parts {
        part.sort_by(f64::total_cmp);
        medians.push(quantile(part, 0.5));
        tails.push(quantile(part, tail_q));
    }
    Some(Summary {
        p50_ms: median(&medians)?,
        tail_ms: median(&tails)?,
        tail_q,
        count: parts.iter().map(Vec::len).sum(),
        min_slice,
    })
}

/// The quantile [`fast_mean`] takes of each kind's latencies.
pub const FAST_Q: f64 = 0.10;

/// Mean over `ops` (`(kind, latency)` pairs) of their kind's fastest-decile
/// latency: what an op costs when the host leaves the server alone (why the
/// gate is built on this is in [`crate::spec::END_TO_END`]). Weighting by how
/// often a kind was sent keeps the result a latency per op. A kind with fewer
/// than ten samples contributes its minimum. `None` when `ops` is empty.
pub fn fast_mean(ops: &[(usize, f64)]) -> Option<f64> {
    let mut by_kind: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(kind, latency) in ops {
        by_kind.entry(kind).or_default().push(latency);
    }
    let weighted: f64 = by_kind
        .values_mut()
        .map(|v| {
            v.sort_by(f64::total_cmp);
            quantile(v, FAST_Q) * v.len() as f64
        })
        .sum();
    (!ops.is_empty()).then(|| weighted / ops.len() as f64)
}

/// Quantile of unsorted values; `None` when empty.
pub fn quantile_of(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile(&sorted, q))
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank_quantiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.95), 95.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19, 0.95), None);
        assert_eq!(supported_tail(20, 0.95), Some(0.5));
        assert_eq!(supported_tail(100, 0.95), Some(0.9));
        assert_eq!(supported_tail(199, 0.95), Some(1.0 - 10.0 / 199.0));
        assert_eq!(supported_tail(200, 0.95), Some(0.95));
        assert_eq!(supported_tail(5000, 0.95), Some(0.95));
        assert_eq!(supported_tail(999, 0.99), Some(1.0 - 10.0 / 999.0));
        assert_eq!(supported_tail(1000, 0.99), Some(0.99));
    }

    #[test]
    fn one_slow_slice_does_not_move_the_summary() {
        // Four slices of 200 samples at 1 ms; the third slice is all 50 ms.
        let mut samples = Vec::new();
        for k in 0..800 {
            let end_s = k as f64 * 0.01;
            let latency_ms = if (400..600).contains(&k) { 50.0 } else { 1.0 };
            samples.push(Sample { end_s, latency_ms });
        }
        // Completed after the window: not counted.
        samples.push(Sample {
            end_s: 8.5,
            latency_ms: 999.0,
        });
        let s = summarise(&samples, 8.0, 4).unwrap();
        assert_eq!(s.count, 800);
        assert_eq!(s.min_slice, 200);
        assert_eq!(s.tail_q, 0.95);
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.tail_ms, 1.0);
    }

    #[test]
    fn fast_mean_reads_each_kind_at_its_fastest_decile() {
        assert_eq!(fast_mean(&[]), None);
        // Kind 0: 100 samples, 1..=100 ms, decile 10 ms. Kind 1: 300 samples
        // of which two thirds are disturbed (26 ms instead of 20 ms).
        let mut ops: Vec<(usize, f64)> = (1..=100).map(|k| (0, f64::from(k))).collect();
        ops.extend((0..300).map(|k| (1, if k % 3 == 0 { 20.0 } else { 26.0 })));
        assert_eq!(fast_mean(&ops), Some((10.0 * 100.0 + 20.0 * 300.0) / 400.0));
        // Fewer than ten samples: the minimum.
        assert_eq!(fast_mean(&[(7, 5.0), (7, 3.0), (7, 4.0)]), Some(3.0));
    }

    #[test]
    fn small_slices_lower_the_tail_and_empty_slices_refuse() {
        let samples: Vec<Sample> = (0..400)
            .map(|k| Sample {
                end_s: k as f64 * 0.01,
                latency_ms: k as f64,
            })
            .collect();
        let s = summarise(&samples, 4.0, 4).unwrap();
        assert_eq!(s.min_slice, 100);
        assert_eq!(s.tail_q, 0.9);
        assert!(
            summarise(&samples, 40.0, 4).is_none(),
            "three slices are empty"
        );
    }
}
