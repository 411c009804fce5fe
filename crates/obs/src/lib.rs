//! Lock-free metrics, request tracing and slow-query capture for the
//! serving stack.
//!
//! Everything here is plain `std`: handles are `Arc`'d atomics updated
//! with relaxed ordering on the hot path, and the only locks are a
//! registration-time mutex in [`Registry`] and the bounded ring buffer
//! in [`SlowLog`] — nothing a request ever blocks on for long.
//!
//! The three metric kinds:
//!
//! - [`Counter`] — a monotone `u64`.
//! - [`Gauge`] — a settable `u64` that also remembers its high-water
//!   mark, so saturation ("how busy did the mux get?") survives the
//!   moment it happened.
//! - [`Histogram`] — log-bucketed with 8 sub-buckets per power of two
//!   (values below 16 are exact), so any recorded value lands in a
//!   bucket whose upper bound overshoots it by at most 1/8th. Snapshots
//!   are plain bucket vectors: mergeable across shards, subtractable
//!   for before/after deltas, with nearest-rank quantiles matching
//!   `geodabs_serve::percentile` semantics.
//!
//! [`Registry`] names the instruments and renders them in the
//! Prometheus text exposition format; [`TraceId`] mints the id a
//! frontend stamps on a request before scattering it to shards; and
//! [`SlowLog`] keeps the last N requests that crossed a latency
//! threshold, each with its trace id and per-stage timings.
//!
//! # Examples
//!
//! ```
//! use geodabs_obs::{Registry, TraceId};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("geodabs_requests_total", "requests served");
//! let latency = registry.histogram("geodabs_request_latency_us", "request latency");
//! requests.inc();
//! latency.record(250);
//!
//! let snap = latency.snapshot();
//! assert_eq!(snap.count(), 1);
//! let p50 = snap.quantile(50.0);
//! assert!((250..=250 + 250 / 8 + 1).contains(&p50));
//!
//! let trace = TraceId::mint();
//! assert_ne!(trace.raw(), 0, "trace ids are never zero");
//! let text = registry.expose();
//! assert!(text.contains("geodabs_requests_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per power of two, which
/// bounds a bucket's relative width (and so any quantile's relative
/// overshoot) by 1/8.
const SUB_BITS: u32 = 3;

/// Values below this are their own bucket (exact).
const LINEAR_LIMIT: u64 = 1 << (SUB_BITS + 1);

/// Total buckets needed to cover the full `u64` range:
/// 16 exact + 8 per remaining power of two.
pub const NUM_BUCKETS: usize =
    (LINEAR_LIMIT + (64 - SUB_BITS as u64 - 1) * (1 << SUB_BITS)) as usize;

/// Maps a value to its bucket index.
fn bucket_index(value: u64) -> usize {
    if value < LINEAR_LIMIT {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as u64;
    let sub = (value >> (msb - SUB_BITS as u64)) - (1 << SUB_BITS);
    (LINEAR_LIMIT + (msb - SUB_BITS as u64 - 1) * (1 << SUB_BITS) + sub) as usize
}

/// The largest value a bucket covers — the representative a quantile
/// reports, so quantiles never understate a latency.
fn bucket_upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < LINEAR_LIMIT {
        return index;
    }
    let msb = (index - LINEAR_LIMIT) / (1 << SUB_BITS) + SUB_BITS as u64 + 1;
    let sub = (index - LINEAR_LIMIT) % (1 << SUB_BITS);
    let lower = ((1 << SUB_BITS) + sub) << (msb - SUB_BITS as u64);
    lower + ((1u64 << (msb - SUB_BITS as u64)) - 1)
}

/// A monotone counter; cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge that also tracks its high-water mark; cloning
/// shares the underlying cells.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
    peak: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge, advancing the peak if the value exceeds it.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
        self.peak.fetch_max(value, Ordering::Relaxed);
    }

    /// Adds `n`, advancing the peak past the new value if needed.
    pub fn add(&self, n: u64) {
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero under races: a concurrent
    /// decrement past zero clamps rather than wraps).
    pub fn sub(&self, n: u64) {
        let mut current = self.value.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(n);
            match self.value.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest value ever set or reached.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

struct HistogramCells {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log-bucketed histogram; cloning shares the underlying cells.
///
/// Values below 16 are recorded exactly; above that, buckets widen
/// geometrically with 8 sub-buckets per power of two, so a bucket's
/// upper bound overshoots any value it holds by at most 1/8th. Updates
/// are two relaxed atomic adds; reads go through [`Histogram::snapshot`].
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramCells {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.0.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    /// A fresh, unregistered histogram with no observations.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts. Concurrent updates
    /// may straddle the copy (the snapshot is not an atomic cut), but
    /// every bucket count is individually monotone, so deltas between
    /// two snapshots never go negative.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a histogram's buckets: mergeable across shards,
/// subtractable for before/after deltas, and queryable for
/// nearest-rank quantiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Rebuilds a snapshot from sparse `(bucket index, count)` pairs
    /// and a sum — the wire shape. Out-of-range indices are ignored.
    pub fn from_sparse(pairs: &[(u16, u64)], sum: u64) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for &(index, count) in pairs {
            if let Some(bucket) = snap.buckets.get_mut(index as usize) {
                *bucket += count;
                snap.count += count;
            }
        }
        snap.sum = sum;
        snap
    }

    /// The non-empty buckets as `(bucket index, count)` pairs — the
    /// compact shape the wire protocol carries.
    pub fn to_sparse(&self) -> Vec<(u16, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (index as u16, count))
            .collect()
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds another snapshot's observations into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The observations recorded since `earlier` — the before/after
    /// delta two snapshots of the same histogram support because bucket
    /// counts are monotone. Saturates at zero per bucket, so a snapshot
    /// pair from *different* histograms degrades rather than panics.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// The nearest-rank `p`-th percentile (0 for an empty snapshot),
    /// using the same rank rule as `geodabs_serve::percentile`: the
    /// `ceil(p/100 · n)`-th smallest observation, clamped into `1..=n`.
    /// Reports the containing bucket's upper bound, so the answer
    /// overshoots the exact sample quantile by at most 1/8th.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_upper_bound(index);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }

    /// Mean of the recorded values (0 for an empty snapshot).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Renders the cumulative non-empty buckets as Prometheus
    /// `_bucket{le="…"}` lines into `out`. `base` is the metric name
    /// without labels; `labels` the pre-rendered label list (may be
    /// empty).
    fn expose_into(&self, out: &mut String, base: &str, labels: &str) {
        use std::fmt::Write;
        let mut cumulative = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            cumulative += count;
            let le = bucket_upper_bound(index);
            if labels.is_empty() {
                let _ = writeln!(out, "{base}_bucket{{le=\"{le}\"}} {cumulative}");
            } else {
                let _ = writeln!(out, "{base}_bucket{{{labels},le=\"{le}\"}} {cumulative}");
            }
        }
        let braces = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        if labels.is_empty() {
            let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {cumulative}");
        } else {
            let _ = writeln!(out, "{base}_bucket{{{labels},le=\"+Inf\"}} {cumulative}");
        }
        let _ = writeln!(out, "{base}_sum{braces} {}", self.sum);
        let _ = writeln!(out, "{base}_count{braces} {}", self.count);
    }
}

/// One registered instrument's current reading, in typed form — what
/// the `Metrics` wire frame carries alongside the text exposition.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The full metric name, labels included.
    pub name: String,
    /// The reading.
    pub value: SampleValue,
}

/// A typed metric reading.
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// A counter's total.
    Counter(u64),
    /// A gauge's value and high-water mark.
    Gauge {
        /// Current value.
        value: u64,
        /// Highest value ever reached.
        peak: u64,
    },
    /// A histogram's buckets.
    Histogram(HistogramSnapshot),
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Registered {
    name: String,
    help: String,
    instrument: Instrument,
}

/// Names and renders a process's instruments.
///
/// Registration takes a mutex; the handles it returns are lock-free.
/// Metric names may embed Prometheus labels (`name{kind="query"}`) —
/// the exposition groups same-base-name siblings under one `# TYPE`
/// header.
pub struct Registry {
    entries: Mutex<Vec<Registered>>,
    enabled: bool,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Registry {
        Registry {
            entries: Mutex::new(Vec::new()),
            enabled: true,
        }
    }

    /// A disabled registry: handles still work (they are plain
    /// atomics), but [`Registry::enabled`] reports `false` so callers
    /// can skip the clock reads that dominate instrumentation cost.
    pub fn disabled() -> Registry {
        Registry {
            entries: Mutex::new(Vec::new()),
            enabled: false,
        }
    }

    /// Whether instrumentation should spend clock reads on this
    /// registry.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or re-joins) a counter under `name`. Registering the
    /// same name twice returns a handle to the same cell.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut entries = self.entries.lock().expect("registry poisoned");
        for entry in entries.iter() {
            if entry.name == name {
                if let Instrument::Counter(c) = &entry.instrument {
                    return c.clone();
                }
            }
        }
        let counter = Counter::new();
        entries.push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            instrument: Instrument::Counter(counter.clone()),
        });
        counter
    }

    /// Registers (or re-joins) a gauge under `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut entries = self.entries.lock().expect("registry poisoned");
        for entry in entries.iter() {
            if entry.name == name {
                if let Instrument::Gauge(g) = &entry.instrument {
                    return g.clone();
                }
            }
        }
        let gauge = Gauge::new();
        entries.push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            instrument: Instrument::Gauge(gauge.clone()),
        });
        gauge
    }

    /// Registers (or re-joins) a histogram under `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let mut entries = self.entries.lock().expect("registry poisoned");
        for entry in entries.iter() {
            if entry.name == name {
                if let Instrument::Histogram(h) = &entry.instrument {
                    return h.clone();
                }
            }
        }
        let histogram = Histogram::new();
        entries.push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            instrument: Instrument::Histogram(histogram.clone()),
        });
        histogram
    }

    /// Every registered instrument's current reading, in registration
    /// order.
    pub fn samples(&self) -> Vec<Sample> {
        let entries = self.entries.lock().expect("registry poisoned");
        entries
            .iter()
            .map(|entry| Sample {
                name: entry.name.clone(),
                value: match &entry.instrument {
                    Instrument::Counter(c) => SampleValue::Counter(c.get()),
                    Instrument::Gauge(g) => SampleValue::Gauge {
                        value: g.get(),
                        peak: g.peak(),
                    },
                    Instrument::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Renders every instrument in the Prometheus text exposition
    /// format (`# HELP` / `# TYPE` headers, one per base name, then
    /// sample lines; histograms as cumulative `_bucket{le=…}` series).
    pub fn expose(&self) -> String {
        use std::fmt::Write;
        let entries = self.entries.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for entry in entries.iter() {
            let (base, labels) = split_labels(&entry.name);
            if !typed.contains(&base) {
                typed.push(base);
                let kind = match &entry.instrument {
                    Instrument::Counter(_) => "counter",
                    Instrument::Gauge(_) => "gauge",
                    Instrument::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {base} {}", entry.help);
                let _ = writeln!(out, "# TYPE {base} {kind}");
            }
            match &entry.instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{} {}", entry.name, c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", entry.name, g.get());
                    if labels.is_empty() {
                        let _ = writeln!(out, "{base}_peak {}", g.peak());
                    } else {
                        let _ = writeln!(out, "{base}_peak{{{labels}}} {}", g.peak());
                    }
                }
                Instrument::Histogram(h) => {
                    h.snapshot().expose_into(&mut out, base, labels);
                }
            }
        }
        out
    }
}

/// Splits `name{labels}` into its base name and label list.
fn split_labels(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    }
}

/// A nonzero 64-bit request trace id, minted once at the serving edge
/// and propagated with the request wherever it fans out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Mints a fresh id: a process-wide counter seeded from the clock,
    /// finalized through a 64-bit mix so consecutive ids don't share
    /// prefixes. Never zero — zero is the wire's "no trace" marker.
    pub fn mint() -> TraceId {
        static STATE: AtomicU64 = AtomicU64::new(0);
        if STATE.load(Ordering::Relaxed) == 0 {
            let seed = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9E37_79B9_7F4A_7C15)
                ^ (u64::from(std::process::id()) << 32);
            let _ = STATE.compare_exchange(0, seed | 1, Ordering::Relaxed, Ordering::Relaxed);
        }
        let raw = STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mixed = splitmix64(raw);
        TraceId(if mixed == 0 { 1 } else { mixed })
    }

    /// The raw id, as the wire carries it.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One request that crossed the slow-query threshold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowQuery {
    /// The request's trace id (0 if the request carried none).
    pub trace_id: u64,
    /// The request kind (frame type name).
    pub kind: String,
    /// End-to-end service time, microseconds.
    pub total_us: u64,
    /// Per-stage timings: `(stage name, microseconds)`.
    pub stages: Vec<(String, u64)>,
}

/// A bounded ring buffer of the most recent requests slower than a
/// threshold. Writers take a short mutex only when a request actually
/// crossed the threshold, so the fast path costs one comparison.
pub struct SlowLog {
    capacity: usize,
    threshold_us: u64,
    entries: Mutex<VecDeque<SlowQuery>>,
}

impl SlowLog {
    /// A log keeping at most `capacity` entries, admitting requests
    /// that took at least `threshold_us` microseconds.
    pub fn new(capacity: usize, threshold_us: u64) -> SlowLog {
        SlowLog {
            capacity: capacity.max(1),
            threshold_us,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// The admission threshold, microseconds.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Records `query` if it crossed the threshold, evicting the
    /// oldest entry once full.
    pub fn observe(&self, query: SlowQuery) {
        if query.total_us < self.threshold_us {
            return;
        }
        let mut entries = self.entries.lock().expect("slow log poisoned");
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(query);
    }

    /// The `n` slowest retained entries, slowest first.
    pub fn top(&self, n: usize) -> Vec<SlowQuery> {
        let entries = self.entries.lock().expect("slow log poisoned");
        let mut all: Vec<SlowQuery> = entries.iter().cloned().collect();
        all.sort_by_key(|entry| std::cmp::Reverse(entry.total_us));
        all.truncate(n);
        all
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("slow log poisoned").len()
    }

    /// Whether no entry is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        for v in (0..200u64).chain([1 << 20, u64::MAX / 2, u64::MAX]) {
            let index = bucket_index(v);
            assert!(index < NUM_BUCKETS, "value {v} -> bucket {index}");
            let upper = bucket_upper_bound(index);
            assert!(upper >= v, "upper bound {upper} below value {v}");
            // The bound overshoots by at most 1/8th.
            assert!(upper - v <= v / 8 + 1, "value {v}, upper {upper}");
        }
        // Bucket upper bounds strictly increase, so cumulative walks
        // are well ordered.
        for i in 1..NUM_BUCKETS {
            assert!(
                bucket_upper_bound(i) > bucket_upper_bound(i - 1),
                "index {i}"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..LINEAR_LIMIT {
            assert_eq!(bucket_upper_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 6, "clones share the cell");

        let g = Gauge::new();
        g.set(7);
        g.sub(3);
        assert_eq!(g.get(), 4);
        assert_eq!(g.peak(), 7, "peak survives the decrement");
        g.add(10);
        assert_eq!(g.peak(), 14);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
    }

    #[test]
    fn empty_snapshot_quantile_is_zero() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.quantile(50.0), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn sparse_roundtrip_preserves_the_snapshot() {
        let h = Histogram::new();
        for v in [0, 3, 17, 250, 4096, 1 << 40] {
            h.record(v);
        }
        let snap = h.snapshot();
        let rebuilt = HistogramSnapshot::from_sparse(&snap.to_sparse(), snap.sum());
        assert_eq!(rebuilt, snap);
        // An out-of-range sparse index is dropped, not a panic.
        let odd = HistogramSnapshot::from_sparse(&[(u16::MAX, 3)], 9);
        assert_eq!(odd.count(), 0);
    }

    #[test]
    fn delta_subtracts_an_earlier_snapshot() {
        let h = Histogram::new();
        h.record(10);
        h.record(100);
        let before = h.snapshot();
        h.record(10);
        h.record(1000);
        let delta = h.snapshot().delta(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 1010);
        // Mismatched snapshots saturate instead of wrapping.
        let zero = HistogramSnapshot::empty().delta(&h.snapshot());
        assert_eq!(zero.count(), 0);
    }

    #[test]
    fn registry_exposes_prometheus_text() {
        let registry = Registry::new();
        let c = registry.counter("geodabs_requests_total{kind=\"query\"}", "requests");
        let g = registry.gauge("geodabs_connections", "open connections");
        let h = registry.histogram("geodabs_latency_us", "latency");
        c.add(3);
        g.set(2);
        h.record(40);
        let text = registry.expose();
        assert!(text.contains("# TYPE geodabs_requests_total counter"));
        assert!(text.contains("geodabs_requests_total{kind=\"query\"} 3"));
        assert!(text.contains("# TYPE geodabs_connections gauge"));
        assert!(text.contains("geodabs_connections 2"));
        assert!(text.contains("geodabs_connections_peak 2"));
        assert!(text.contains("# TYPE geodabs_latency_us histogram"));
        assert!(text.contains("geodabs_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("geodabs_latency_us_count 1"));
        // Re-registering a name joins the same cell, and the TYPE
        // header appears once per base name.
        registry
            .counter("geodabs_requests_total{kind=\"query\"}", "requests")
            .inc();
        assert_eq!(c.get(), 4);
        let text = registry.expose();
        assert_eq!(
            text.matches("# TYPE geodabs_requests_total counter")
                .count(),
            1
        );
    }

    #[test]
    fn disabled_registry_reports_so() {
        assert!(Registry::new().enabled());
        assert!(!Registry::disabled().enabled());
        // Handles from a disabled registry still function.
        let registry = Registry::disabled();
        let c = registry.counter("x_total", "x");
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn trace_ids_are_distinct_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = TraceId::mint();
            assert_ne!(id.raw(), 0);
            assert!(seen.insert(id.raw()), "duplicate trace id {id}");
        }
    }

    #[test]
    fn slow_log_keeps_the_slowest_within_capacity() {
        let log = SlowLog::new(3, 100);
        assert!(log.is_empty());
        for (i, total) in [(1u64, 50u64), (2, 150), (3, 300), (4, 200), (5, 900)] {
            log.observe(SlowQuery {
                trace_id: i,
                kind: "query".into(),
                total_us: total,
                stages: vec![("engine".into(), total / 2)],
            });
        }
        // 50 was under the threshold; the ring kept the last 3 slow
        // ones and `top` sorts them slowest first.
        assert_eq!(log.len(), 3);
        let top = log.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].total_us, 900);
        assert_eq!(top[0].trace_id, 5);
        assert_eq!(top[1].total_us, 300);
    }

    #[test]
    fn concurrent_updates_never_lose_counts() {
        let h = Histogram::new();
        let c = Counter::new();
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = h.clone();
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record((t * PER_THREAD + i) as u64 % 5000);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), (THREADS * PER_THREAD) as u64);
        assert_eq!(h.snapshot().count(), (THREADS * PER_THREAD) as u64);
    }

    /// The exact nearest-rank percentile of a sorted sample — the
    /// reference `HistogramSnapshot::quantile` is compared against.
    fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    proptest! {
        /// Histogram quantiles must bracket the exact sample quantile
        /// from above, within the bucketing's 1/8th relative error.
        #[test]
        fn quantiles_track_the_exact_reference(
            values in proptest::collection::vec(0u64..2_000_000, 1..300),
            p in 0.0f64..100.0,
        ) {
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let exact = exact_percentile(&sorted, p);
            let approx = h.snapshot().quantile(p);
            prop_assert!(approx >= exact, "approx {approx} under exact {exact}");
            prop_assert!(
                approx <= exact + exact / 8 + 1,
                "approx {approx} overshoots exact {exact} by more than 1/8"
            );
        }

        /// Merging snapshots is associative and order-independent:
        /// (a ∪ b) ∪ c == a ∪ (b ∪ c), and both equal one histogram
        /// fed everything.
        #[test]
        fn snapshot_merge_is_associative(
            a in proptest::collection::vec(0u64..100_000, 0..80),
            b in proptest::collection::vec(0u64..100_000, 0..80),
            c in proptest::collection::vec(0u64..100_000, 0..80),
        ) {
            let snap = |values: &[u64]| {
                let h = Histogram::new();
                for &v in values {
                    h.record(v);
                }
                h.snapshot()
            };
            let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));

            let mut left = sa.clone();
            left.merge(&sb);
            left.merge(&sc);

            let mut bc = sb.clone();
            bc.merge(&sc);
            let mut right = sa.clone();
            right.merge(&bc);

            prop_assert_eq!(&left, &right);

            let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
            prop_assert_eq!(&left, &snap(&all));
        }
    }
}
