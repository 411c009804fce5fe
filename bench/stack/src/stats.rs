//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice: the
/// `ceil(p/100 * n)`-th smallest sample, clamped into `1..=n`.
///
/// # Panics
///
/// Panics on an empty slice: a phase that took no sample has no
/// percentile, and reporting zero would hide that.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// `ceil(p/100 * n)`, with the product's rounding error (99.9 % of
/// 10 000 is 9990.000000000002 in floating point) taken off first.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// Median of an unsorted sample (sorts in place).
pub fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    percentile(samples, 50.0)
}

/// Median of an unsorted `f64` sample (sorts in place).
pub fn median_f64(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

/// The percentiles a tail is reported at, ascending.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of the ladder that still has at least
/// `min_beyond` of `n` samples above it — the deepest tail the sample
/// supports. Falls back to the median for tiny samples.
pub fn highest_supported_percentile(n: usize, min_beyond: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(rank(n, p)) >= min_beyond)
        .unwrap_or(TAIL_LADDER[0])
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// One timed operation: where in its phase it belongs (completion time
/// of a closed-loop read, due time of a paced write) and how long it
/// took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub at_ns: u64,
    pub latency_ns: u64,
}

/// Length of the windows a timed phase is cut into.
pub const WINDOW_NS: u64 = 250_000_000;

/// Window length of a phase of `phase_ns`: a phase shorter than one
/// window is a single window of its own length.
fn window_ns(phase_ns: u64) -> u64 {
    phase_ns.clamp(1, WINDOW_NS)
}

/// The latencies of each full window of a phase of `phase_ns`, in
/// window order; samples past the last full window are left out.
pub fn windows(samples: &[Sample], phase_ns: u64) -> Vec<Vec<u64>> {
    let width = window_ns(phase_ns);
    let mut out = vec![Vec::new(); (phase_ns / width).max(1) as usize];
    for sample in samples {
        if let Some(window) = out.get_mut((sample.at_ns / width) as usize) {
            window.push(sample.latency_ns);
        }
    }
    out
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The best of a set of per-window values: the smallest when lower is
/// better, the largest when higher is.
///
/// Interference in this sandbox is one-sided and large: the two virtual
/// cores swing between two speeds some 40 % apart on a sub-second
/// scale, and whole minutes run slow. It only ever makes a window
/// worse, so the quietest window is the one that measures the program.
/// A change that slows every request moves the best window by the full
/// amount; one that adds occasional stalls does not — that is what the
/// whole-phase `client.*_p99_us` rows are for.
pub fn best(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best of an empty sample");
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(pick).expect("non-empty")
}

/// A phase's median latency in microseconds: the median of each
/// window, then the best of those. `None` when no window holds a
/// sample.
pub fn steady_median_us(samples: &[Sample], phase_ns: u64) -> Option<f64> {
    let medians: Vec<f64> = windows(samples, phase_ns)
        .into_iter()
        .filter(|window| !window.is_empty())
        .map(|mut window| ns_to_us(median(&mut window)))
        .collect();
    match medians.is_empty() {
        true => None,
        false => Some(best(&medians, Better::Lower)),
    }
}

/// A phase's completion rate per second: the count of each window over
/// its length, then the best of those.
pub fn steady_rate_per_s(samples: &[Sample], phase_ns: u64) -> f64 {
    let window_s = window_ns(phase_ns) as f64 / 1e9;
    let rates: Vec<f64> = windows(samples, phase_ns)
        .iter()
        .map(|window| window.len() as f64 / window_s)
        .collect();
    best(&rates, Better::Higher)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[7], 99.9), 7);
        let mut odd = [9, 1, 5];
        assert_eq!(median(&mut odd), 5);
        let mut even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median_f64(&mut even), 2.0);
    }

    #[test]
    fn windows_are_full_and_consecutive_and_the_best_one_is_reported() {
        let at = |at_ns: u64, latency_ns: u64| Sample { at_ns, latency_ns };
        let samples = [
            at(0, 1),
            at(WINDOW_NS - 1, 2),
            at(WINDOW_NS, 3),
            // Past the second full window of a 1.2-window phase: dropped.
            at(2 * WINDOW_NS + 5, 4),
        ];
        assert_eq!(
            windows(&samples, 2 * WINDOW_NS + WINDOW_NS / 5),
            vec![vec![1, 2], vec![3]]
        );
        // A phase shorter than a window is one window of its length.
        assert_eq!(windows(&samples, WINDOW_NS - 1), vec![vec![1]]);
        // Window medians are 1 ns and 3 ns; window counts 2 and 1.
        assert_eq!(steady_median_us(&samples, 2 * WINDOW_NS), Some(0.001));
        assert_eq!(
            steady_rate_per_s(&samples, 2 * WINDOW_NS),
            2.0 / (WINDOW_NS as f64 / 1e9)
        );
        assert_eq!(steady_median_us(&[], WINDOW_NS), None);
        assert_eq!(best(&[4.0, 9.0, 6.0], Better::Lower), 4.0);
        assert_eq!(best(&[4.0, 9.0, 6.0], Better::Higher), 9.0);
    }

    #[test]
    fn tail_selection_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(highest_supported_percentile(1_000, 10), 99.0);
        assert_eq!(highest_supported_percentile(999, 10), 90.0);
        assert_eq!(highest_supported_percentile(10_000, 10), 99.9);
        assert_eq!(highest_supported_percentile(100_000, 10), 99.99);
        assert_eq!(highest_supported_percentile(100, 10), 90.0);
        assert_eq!(highest_supported_percentile(20, 10), 50.0);
        assert_eq!(highest_supported_percentile(3, 10), 50.0);
    }
}
