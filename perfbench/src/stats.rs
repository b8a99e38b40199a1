//! The benchmark's own arithmetic: percentiles under the "ten samples
//! beyond" rule, open-loop latency and lateness, and cache hit ratios with
//! their base. Everything here is pure and unit-tested below.

/// Percentiles the benchmark may report, in per-mille.
pub const LADDER: [u32; 4] = [500, 900, 990, 999];

/// A percentile counts only when at least this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of the `per_mille` percentile among `n`
/// sorted samples: the smallest rank whose share of samples is at least
/// `per_mille / 1000`. Integer arithmetic, so 0.9 · 100 is exactly 90.
pub fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).max(1)
}

/// Samples strictly beyond the `per_mille` percentile of `n` samples.
pub fn beyond(n: usize, per_mille: u32) -> usize {
    n.saturating_sub(rank(n, per_mille))
}

/// Whether `n` samples support the `per_mille` percentile.
pub fn supported(n: usize, per_mille: u32) -> bool {
    n > 0 && beyond(n, per_mille) >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<u32> {
    LADDER.iter().rev().copied().find(|&p| supported(n, p))
}

/// Label of a per-mille percentile: 500 → `p50`, 990 → `p99`, 999 → `p999`.
pub fn label(per_mille: u32) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{per_mille}")
    }
}

/// One percentile read off a sample set, with the counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub per_mille: u32,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The `want` percentile of `samples` when the sample count supports it;
/// otherwise the highest lower percentile that it does support, so a
/// short run reports an honest, named lower percentile instead of a
/// tail estimated from fewer than [`MIN_BEYOND`] samples. `None` when not
/// even the median is supported.
pub fn percentile(samples: &[f64], want: u32) -> Option<Percentile> {
    let n = samples.len();
    let per_mille = highest_supported(n)?.min(want);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        per_mille,
        value: sorted[rank(n, per_mille) - 1],
        samples: n,
        beyond: beyond(n, per_mille),
    })
}

/// Median of any non-empty sample set (the plain middle value; no
/// ten-beyond rule, for per-layer medians over few calls).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its answer arrived (seconds since the phase start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl OpenLoopSample {
    /// Latency as a user arriving on schedule sees it: from the *intended*
    /// send time, so a stalled generator or a full window cannot hide the
    /// wait it imposed on the requests queued behind it.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent this request.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Verdict on one window of an open-loop phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub latencies: Vec<f64>,
    /// The window's p99 generator lateness (or its highest supported
    /// percentile), in seconds.
    pub late: f64,
    pub valid: bool,
}

/// Split an open-loop phase into `windows` equal spans of due time and
/// judge each: a window whose generator lateness exceeds `late_bound`
/// seconds did not offer the scheduled load, so it is invalid and its
/// latencies are not pooled with the others.
pub fn judge_windows(
    samples: &[OpenLoopSample],
    duration: f64,
    windows: usize,
    late_bound: f64,
) -> Vec<Window> {
    let windows = windows.max(1);
    let span = duration / windows as f64;
    (0..windows)
        .map(|w| {
            let (lo, hi) = (w as f64 * span, (w + 1) as f64 * span);
            let inside: Vec<&OpenLoopSample> =
                samples.iter().filter(|s| s.due >= lo && s.due < hi).collect();
            let late: Vec<f64> = inside.iter().map(|s| s.lateness()).collect();
            let late = percentile(&late, 990).map_or(f64::INFINITY, |p| p.value);
            Window {
                latencies: inside.iter().map(|s| s.latency()).collect(),
                late,
                valid: late <= late_bound,
            }
        })
        .collect()
}

/// Group `(time, value)` samples into `windows` equal spans of `duration`
/// seconds by their time; samples outside `[0, duration)` are dropped.
pub fn by_window(samples: &[(f64, f64)], duration: f64, windows: usize) -> Vec<Vec<f64>> {
    let windows = windows.max(1);
    let span = duration / windows as f64;
    let mut out = vec![Vec::new(); windows];
    for &(t, v) in samples {
        if t >= 0.0 && t < duration {
            out[((t / span) as usize).min(windows - 1)].push(v);
        }
    }
    out
}

/// The median over windows of each window's `per_mille` percentile, with
/// the percentile actually read (the lowest any window supported) and the
/// smallest window's sample count. A transient stall then moves one
/// window's reading, not the run's.
pub fn median_of_windows(windows: &[Vec<f64>], per_mille: u32) -> Option<Percentile> {
    let per: Vec<Percentile> = windows.iter().filter_map(|w| percentile(w, per_mille)).collect();
    if per.len() < windows.len() {
        return None;
    }
    let low = per.iter().map(|p| p.per_mille).min()?;
    let values: Vec<f64> =
        windows.iter().filter_map(|w| percentile(w, low)).map(|p| p.value).collect();
    let smallest = per.iter().min_by_key(|p| p.samples)?;
    Some(Percentile {
        per_mille: low,
        value: median(&values)?,
        samples: smallest.samples,
        beyond: beyond(smallest.samples, low),
    })
}

/// Cache hits over lookups, with the base kept beside the ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitRatio {
    pub hits: u64,
    pub lookups: u64,
}

impl HitRatio {
    /// The counts between two cumulative `(hits, misses)` snapshots.
    pub fn between(before: (u64, u64), after: (u64, u64)) -> HitRatio {
        let hits = after.0.saturating_sub(before.0);
        let misses = after.1.saturating_sub(before.1);
        HitRatio { hits, lookups: hits + misses }
    }

    /// `None` when nothing was looked up: a ratio without a base is not a
    /// measurement.
    pub fn ratio(&self) -> Option<f64> {
        (self.lookups > 0).then(|| self.hits as f64 / self.lookups as f64)
    }

    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 100 samples: rank of p90 is 90, ten lie beyond it
        assert_eq!(rank(100, 900), 90);
        assert_eq!(beyond(100, 900), 10);
        assert!(supported(100, 900));
        assert!(!supported(99, 900));
        // p99 needs a thousand
        assert!(supported(1000, 990));
        assert!(!supported(999, 990));
        assert!(!supported(0, 500));
        assert!(!supported(19, 500));
        assert!(supported(20, 500));
    }

    #[test]
    fn highest_supported_percentile_climbs_the_ladder() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(500));
        assert_eq!(highest_supported(99), Some(500));
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
        assert_eq!(label(500), "p50");
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p999");
    }

    #[test]
    fn percentile_reads_nearest_rank_and_falls_back_with_its_name() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&samples, 900).unwrap();
        assert_eq!((p90.per_mille, p90.value, p90.samples, p90.beyond), (900, 90.0, 100, 10));
        // p99 of 100 samples is unsupported: the highest lower rung answers
        let tail = percentile(&samples, 990).unwrap();
        assert_eq!((tail.per_mille, tail.value), (900, 90.0));
        assert_eq!(percentile(&samples[..10], 500), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_intended_send_time() {
        // due at 1.0, sent late at 1.5, answered at 1.7: the user waited
        // 0.7 s, not the 0.2 s the wire saw
        let s = OpenLoopSample { due: 1.0, sent: 1.5, done: 1.7 };
        assert!((s.latency() - 0.7).abs() < 1e-12);
        assert!((s.lateness() - 0.5).abs() < 1e-12);
        // sending early is not negative lateness
        let early = OpenLoopSample { due: 1.0, sent: 0.999, done: 1.1 };
        assert_eq!(early.lateness(), 0.0);
    }

    #[test]
    fn late_windows_are_invalid_and_kept_apart() {
        // two windows of 1 s with 1000 requests each; the second one's
        // generator ran 50 ms late on every request
        let mut samples = Vec::new();
        for i in 0..2000 {
            let due = i as f64 / 1000.0;
            let late = if due >= 1.0 { 0.05 } else { 0.0001 };
            samples.push(OpenLoopSample { due, sent: due + late, done: due + late + 0.001 });
        }
        let windows = judge_windows(&samples, 2.0, 2, 0.002);
        assert_eq!(windows.len(), 2);
        assert!(windows[0].valid);
        assert!(!windows[1].valid);
        assert_eq!(windows[0].latencies.len(), 1000);
        assert!((windows[1].late - 0.05).abs() < 1e-9);
        // a window too thin to support a lateness percentile is invalid
        let thin = judge_windows(&samples[..5], 2.0, 1, 1.0);
        assert!(!thin[0].valid);
    }

    #[test]
    fn windows_report_the_median_of_their_percentiles() {
        // three 1 s windows of 100 samples; the middle one stalled
        let mut samples = Vec::new();
        for w in 0..3 {
            for i in 0..100 {
                let slow = if w == 1 { 50.0 } else { 1.0 };
                samples.push((w as f64 + i as f64 / 100.0, slow * (1.0 + i as f64 / 100.0)));
            }
        }
        let windows = by_window(&samples, 3.0, 3);
        assert_eq!(windows.iter().map(Vec::len).collect::<Vec<_>>(), vec![100, 100, 100]);
        let p90 = median_of_windows(&windows, 900).unwrap();
        assert_eq!((p90.per_mille, p90.samples, p90.beyond), (900, 100, 10));
        assert!((p90.value - 1.89).abs() < 1e-9, "the stalled window does not set the value");
        // p99 is unsupported in 100-sample windows: the p90 rung is read
        assert_eq!(median_of_windows(&windows, 990).unwrap().per_mille, 900);
        // an empty window supports nothing
        assert_eq!(median_of_windows(&by_window(&samples, 6.0, 6), 500), None);
    }

    #[test]
    fn hit_ratio_keeps_its_base() {
        let r = HitRatio::between((10, 5), (100, 35));
        assert_eq!(r, HitRatio { hits: 90, lookups: 120 });
        assert_eq!(r.misses(), 30);
        assert_eq!(r.ratio(), Some(0.75));
        assert_eq!(HitRatio::between((7, 7), (7, 7)).ratio(), None);
    }
}
