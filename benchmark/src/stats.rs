//! Order statistics: the percentile rule, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them, and per-window
//! medians that keep one stall from deciding a whole run's number.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of the values (mean of the middle two for an even count).
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The `q`-quantile (`0 < q < 1`) of **sorted** samples by nearest
/// rank, reported only when at least [`MIN_BEYOND`] samples lie
/// strictly beyond it — fewer, and the tail is anecdote, not a
/// percentile.
#[must_use]
pub fn percentile_sorted(sorted: &[u32], q: f64) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// First quartile, median, third quartile by the exclusive method —
/// the default of Python's `statistics.quantiles(values, n=4)`, which
/// is what the acceptance driver computes. `None` under two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // j = i·(n+1) div 4 clamped to 1..n-1, delta taken after the clamp,
    // so the ends extrapolate exactly as Python's do.
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Interquartile range as a share of the median: the acceptance
/// driver's spread.
#[must_use]
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Latency samples bucketed into consecutive windows of a phase, so a
/// percentile can be taken per window and the windows' median reported.
#[derive(Debug)]
pub struct Windows {
    width_ns: u64,
    /// Per window: latencies in nanoseconds (saturated at `u32::MAX`).
    samples: Vec<Vec<u32>>,
}

impl Windows {
    /// `count` windows of `width_ns` each.
    #[must_use]
    pub fn new(count: usize, width_ns: u64) -> Windows {
        Windows {
            width_ns: width_ns.max(1),
            samples: vec![Vec::new(); count.max(1)],
        }
    }

    /// Records a latency observed `at_ns` after the phase began. Late
    /// stragglers land in the last window.
    pub fn record(&mut self, at_ns: u64, latency_ns: u64) {
        let w = ((at_ns / self.width_ns) as usize).min(self.samples.len() - 1);
        self.samples[w].push(u32::try_from(latency_ns).unwrap_or(u32::MAX));
    }

    /// Completions per second of each window.
    #[must_use]
    pub fn rates(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|w| w.len() as f64 * 1e9 / self.width_ns as f64)
            .collect()
    }

    /// Median over windows of each window's `q`-quantile, in
    /// microseconds. `None` when any window is too thin for `q` under
    /// the [`MIN_BEYOND`] rule.
    #[must_use]
    pub fn quantile_us(&mut self, q: f64) -> Option<f64> {
        let mut per_window = Vec::with_capacity(self.samples.len());
        for w in &mut self.samples {
            w.sort_unstable();
            per_window.push(f64::from(percentile_sorted(w, q)?) / 1e3);
        }
        median(&per_window)
    }

    /// The `q`-quantile over all samples at once, in microseconds.
    #[must_use]
    pub fn overall_us(&self, q: f64) -> Option<f64> {
        let mut all: Vec<u32> = self.samples.iter().flatten().copied().collect();
        all.sort_unstable();
        percentile_sorted(&all, q).map(|v| f64::from(v) / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u32> = (1..=1000).collect();
        // p99 of 1000 → rank 990, ten samples beyond: reported.
        assert_eq!(percentile_sorted(&v, 0.99), Some(990));
        // p999 → rank 999, one beyond: withheld.
        assert_eq!(percentile_sorted(&v, 0.999), None);
        let v: Vec<u32> = (1..=999).collect();
        // rank ceil(989.01) = 990, nine beyond: withheld.
        assert_eq!(percentile_sorted(&v, 0.99), None);
        assert_eq!(percentile_sorted(&v, 0.5), Some(500));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past a short sample's ends.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_report_the_median_window() {
        let mut w = Windows::new(3, 1_000);
        // Window 0 and 2 are fast, window 1 has a stall; the median
        // window's p50 ignores the stall, the overall p50 does not.
        for i in 0..100u64 {
            w.record(i, 1_000);
            w.record(1_000 + i, 9_000_000);
            w.record(2_000 + i, 2_000);
        }
        assert_eq!(w.quantile_us(0.5), Some(2.0));
        assert_eq!(w.rates(), vec![1e8, 1e8, 1e8]);
        // Fewer than ten beyond p99 in each window: withheld.
        assert_eq!(w.quantile_us(0.99), None);
    }
}
