//! The serving stack's instrument panel: one [`ServeMetrics`] per
//! server (or frontend) process, wiring the `geodabs-obs` registry into
//! every layer — mux sweep, request execution, shards, WAL, engine —
//! and assembling the [`MetricsReport`] the `Metrics` frame answers
//! with.
//!
//! Instrumentation cost is governed by the `GEODABS_METRICS`
//! environment variable: `off`/`0`/`false` builds a disabled registry,
//! and every timing site checks [`ServeMetrics::now`] (which then
//! returns `None`) before reading the clock — the counters themselves
//! are relaxed atomics and stay live either way, so the kill switch
//! removes the clock reads that dominate the overhead.

use std::time::Instant;

use geodabs_obs::{Counter, Gauge, Histogram, Registry, SampleValue, SlowLog, SlowQuery};

use crate::proto::{MetricsHistogram, MetricsReport, MetricsSlowQuery, Request};

/// Request kinds, indexed by [`kind_index`]; the label vocabulary of
/// the per-kind request counters and latency histograms.
pub(crate) const KINDS: [&str; 8] = [
    "ping",
    "stats",
    "query",
    "insert",
    "remove",
    "shard_query",
    "shard_insert",
    "metrics",
];

/// Maps a request to its slot in [`KINDS`].
pub(crate) fn kind_index(request: &Request) -> usize {
    match request {
        Request::Ping => 0,
        Request::Stats { .. } => 1,
        Request::Query { .. } => 2,
        Request::Insert { .. } => 3,
        Request::Remove { .. } => 4,
        Request::ShardQuery { .. } => 5,
        Request::ShardInsert { .. } => 6,
        Request::Metrics => 7,
    }
}

/// Slow-query log capacity: enough to hold the interesting tail
/// without unbounded memory.
const SLOW_LOG_CAPACITY: usize = 64;

/// Default slow-query admission threshold, microseconds. Override with
/// `GEODABS_SLOW_US`.
const SLOW_THRESHOLD_US: u64 = 1_000;

/// Every instrument the serving stack records into, pre-registered so
/// the hot path never takes the registry mutex.
pub(crate) struct ServeMetrics {
    registry: Registry,
    /// Per-kind request counters, indexed by [`kind_index`].
    pub requests: [Counter; KINDS.len()],
    /// Per-kind end-to-end service latency (µs), indexed by
    /// [`kind_index`].
    pub latency_us: [Histogram; KINDS.len()],
    /// Open multiplexed connections.
    pub connections: Gauge,
    /// Mux workers currently executing a request handler.
    pub workers_busy: Gauge,
    /// Frames decoded but not yet fully written back.
    pub frames_in_flight: Gauge,
    /// Times a mux worker ran out of spin budget and parked in `poll`.
    pub mux_parks: Counter,
    /// Times a parked mux worker was woken (parks minus wake-ups is the
    /// number of workers parked right now).
    pub mux_wakeups: Counter,
    /// Wake-ups after which the worker parked again without having
    /// answered a frame.
    pub mux_spurious_wakeups: Counter,
    /// Request frame decode time, µs.
    pub decode_us: Histogram,
    /// Response frame encode time, µs.
    pub encode_us: Histogram,
    /// Read-lock acquisition time before the engine runs, µs.
    pub stage_lock_us: Histogram,
    /// Engine scan time, µs.
    pub stage_engine_us: Histogram,
    /// Partial-ranking merge time (the frontend's scatter path), µs.
    pub stage_merge_us: Histogram,
    /// WAL append (including policy fsync) time, µs.
    pub wal_append_us: Histogram,
    /// Sequence number of the last record known durable.
    pub wal_last_durable_seq: Gauge,
    /// Acknowledged-but-not-yet-durable records (durability lag).
    pub wal_durable_lag: Gauge,
    /// Bytes of complete records across the log's segments.
    pub wal_bytes: Gauge,
    /// Completed compactions.
    pub compactions: Counter,
    /// Compaction duration, µs.
    pub compaction_us: Histogram,
    /// WAL bytes folded into snapshots by compaction.
    pub compaction_bytes_folded: Counter,
    /// One shard server's scatter exchange time, µs.
    pub scatter_shard_us: Histogram,
    /// Remote shard servers contacted per scattered query.
    pub scatter_fanout: Histogram,
    /// Engine scans run (process-wide).
    pub engine_searches: Counter,
    /// Engine candidates scanned (distinct ids touched).
    pub engine_candidates_scanned: Counter,
    /// Engine candidates admitted into the final ranking.
    pub engine_candidates_admitted: Counter,
    /// Engine pruning-cutoff activations (new candidates refused).
    pub engine_prune_cutoffs: Counter,
    /// The slow-query ring buffer.
    pub slow: SlowLog,
}

impl ServeMetrics {
    /// Builds the full instrument panel on a fresh registry.
    /// `enabled == false` keeps the handles but marks the registry
    /// disabled, so timing sites skip their clock reads.
    pub fn new(enabled: bool, slow_threshold_us: u64) -> ServeMetrics {
        let registry = if enabled {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let requests = std::array::from_fn(|i| {
            registry.counter(
                &format!("geodabs_requests_total{{kind=\"{}\"}}", KINDS[i]),
                "requests served by frame type",
            )
        });
        let latency_us = std::array::from_fn(|i| {
            registry.histogram(
                &format!("geodabs_request_latency_us{{kind=\"{}\"}}", KINDS[i]),
                "end-to-end request service time by frame type",
            )
        });
        ServeMetrics {
            requests,
            latency_us,
            connections: registry.gauge("geodabs_connections", "open multiplexed connections"),
            workers_busy: registry.gauge(
                "geodabs_mux_workers_busy",
                "mux workers currently executing a request",
            ),
            frames_in_flight: registry.gauge(
                "geodabs_mux_frames_in_flight",
                "frames decoded but not yet answered",
            ),
            mux_parks: registry.counter(
                "geodabs_mux_parks_total",
                "times a mux worker parked in poll after its spin budget",
            ),
            mux_wakeups: registry.counter(
                "geodabs_mux_wakeups_total",
                "times a parked mux worker was woken",
            ),
            mux_spurious_wakeups: registry.counter(
                "geodabs_mux_spurious_wakeups_total",
                "wake-ups followed by a park with no frame answered in between",
            ),
            decode_us: registry.histogram("geodabs_decode_us", "request frame decode time"),
            encode_us: registry.histogram("geodabs_encode_us", "response frame encode time"),
            stage_lock_us: registry.histogram(
                "geodabs_stage_lock_us",
                "read-lock acquisition time before the engine runs",
            ),
            stage_engine_us: registry.histogram("geodabs_stage_engine_us", "engine scan time"),
            stage_merge_us: registry
                .histogram("geodabs_stage_merge_us", "partial-ranking merge time"),
            wal_append_us: registry.histogram(
                "geodabs_wal_append_us",
                "wal append time, policy fsync included",
            ),
            wal_last_durable_seq: registry.gauge(
                "geodabs_wal_last_durable_seq",
                "sequence number of the last durable record",
            ),
            wal_durable_lag: registry.gauge(
                "geodabs_wal_durable_lag",
                "appended records not yet known durable",
            ),
            wal_bytes: registry.gauge("geodabs_wal_bytes", "bytes of complete wal records"),
            compactions: registry.counter("geodabs_compactions_total", "completed compactions"),
            compaction_us: registry.histogram("geodabs_compaction_us", "compaction duration"),
            compaction_bytes_folded: registry.counter(
                "geodabs_compaction_bytes_folded_total",
                "wal bytes folded into snapshots",
            ),
            scatter_shard_us: registry.histogram(
                "geodabs_scatter_shard_us",
                "per-shard scatter exchange time",
            ),
            scatter_fanout: registry.histogram(
                "geodabs_scatter_fanout",
                "remote shards contacted per scattered query",
            ),
            engine_searches: registry.counter(
                "geodabs_engine_searches_total",
                "engine scans run in this process",
            ),
            engine_candidates_scanned: registry.counter(
                "geodabs_engine_candidates_scanned_total",
                "distinct candidates touched by engine scans",
            ),
            engine_candidates_admitted: registry.counter(
                "geodabs_engine_candidates_admitted_total",
                "candidates admitted into final rankings",
            ),
            engine_prune_cutoffs: registry.counter(
                "geodabs_engine_prune_cutoffs_total",
                "pruning-cutoff activations refusing new candidates",
            ),
            slow: SlowLog::new(SLOW_LOG_CAPACITY, slow_threshold_us),
            registry,
        }
    }

    /// Builds the panel per the process environment: `GEODABS_METRICS`
    /// = `off`/`0`/`false` disables timing, `GEODABS_SLOW_US` overrides
    /// the slow-query threshold (microseconds).
    pub fn from_env() -> ServeMetrics {
        let enabled = !matches!(
            std::env::var("GEODABS_METRICS").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        );
        let slow_threshold_us = std::env::var("GEODABS_SLOW_US")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(SLOW_THRESHOLD_US);
        ServeMetrics::new(enabled, slow_threshold_us)
    }

    /// Whether timing sites should read the clock.
    pub fn enabled(&self) -> bool {
        self.registry.enabled()
    }

    /// A timing start, or `None` when metrics are disabled — the one
    /// branch the kill switch hinges on.
    pub fn now(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records the microseconds since `started` into `histogram` (a
    /// no-op when the start was skipped); returns the elapsed µs.
    pub fn record_since(&self, histogram: &Histogram, started: Option<Instant>) -> u64 {
        match started {
            Some(started) => {
                let us = started.elapsed().as_micros() as u64;
                histogram.record(us);
                us
            }
            None => 0,
        }
    }

    /// Raises the engine counters to the process-wide totals the engine
    /// itself tracks (the engine has no registry dependency, so the
    /// serve layer pulls its atomics in at scrape time). Counters are
    /// monotonic, so the sync adds only the delta.
    pub fn sync_engine(&self, searches: u64, scanned: u64, admitted: u64, cutoffs: u64) {
        for (counter, total) in [
            (&self.engine_searches, searches),
            (&self.engine_candidates_scanned, scanned),
            (&self.engine_candidates_admitted, admitted),
            (&self.engine_prune_cutoffs, cutoffs),
        ] {
            let current = counter.get();
            if total > current {
                counter.add(total - current);
            }
        }
    }

    /// Feeds a finished request into the slow-query log; a request under
    /// the threshold returns before anything is allocated for it.
    pub fn observe_slow(
        &self,
        trace_id: u64,
        kind: &str,
        total_us: u64,
        stages: &[(&'static str, u64)],
    ) {
        if total_us < self.slow.threshold_us() {
            return;
        }
        self.slow.observe(SlowQuery {
            trace_id,
            kind: kind.to_string(),
            total_us,
            stages: stages
                .iter()
                .map(|&(stage, us)| (stage.to_string(), us))
                .collect(),
        });
    }

    /// Assembles the typed wire report plus the text exposition from
    /// the registry's current readings.
    pub fn report(&self) -> MetricsReport {
        let mut report = MetricsReport {
            text: self.registry.expose(),
            ..MetricsReport::default()
        };
        for sample in self.registry.samples() {
            match sample.value {
                SampleValue::Counter(value) => report.counters.push((sample.name, value)),
                SampleValue::Gauge { value, peak } => {
                    report.gauges.push((sample.name, value, peak))
                }
                SampleValue::Histogram(snapshot) => report.histograms.push(MetricsHistogram {
                    name: sample.name,
                    sum: snapshot.sum(),
                    buckets: snapshot.to_sparse(),
                }),
            }
        }
        report.slow_queries = self
            .slow
            .top(SLOW_LOG_CAPACITY)
            .into_iter()
            .map(|q| MetricsSlowQuery {
                trace_id: q.trace_id,
                kind: q.kind,
                total_us: q.total_us,
                stages: q.stages,
            })
            .collect();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_index::SearchOptions;

    #[test]
    fn kinds_cover_every_request_shape() {
        let requests = [
            Request::Ping,
            Request::Stats { durability: false },
            Request::Query {
                query: crate::proto::QueryBody::Fingerprints(vec![1]),
                options: SearchOptions::default(),
            },
            Request::Insert {
                id: geodabs_traj::TrajId::new(1),
                trajectory: geodabs_traj::Trajectory::default(),
            },
            Request::Remove {
                id: geodabs_traj::TrajId::new(1),
            },
            Request::ShardQuery {
                terms: vec![],
                options: SearchOptions::default(),
                trace: 0,
            },
            Request::ShardInsert {
                id: geodabs_traj::TrajId::new(1),
                terms: vec![],
            },
            Request::Metrics,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for request in &requests {
            let index = kind_index(request);
            assert!(index < KINDS.len());
            seen.insert(index);
        }
        assert_eq!(seen.len(), KINDS.len(), "one distinct slot per kind");
    }

    #[test]
    fn report_carries_registry_readings_and_slow_queries() {
        let metrics = ServeMetrics::new(true, 100);
        metrics.requests[kind_index(&Request::Ping)].inc();
        metrics.latency_us[0].record(40);
        metrics.connections.set(3);
        metrics.mux_parks.add(3);
        metrics.mux_wakeups.add(2);
        metrics.mux_spurious_wakeups.inc();
        metrics.observe_slow(7, "query", 5_000, &[("engine", 4_000)]);
        metrics.observe_slow(0, "query", 50, &[]); // under threshold
        let report = metrics.report();
        assert_eq!(
            report.counter("geodabs_requests_total{kind=\"ping\"}"),
            Some(1)
        );
        assert_eq!(report.gauge("geodabs_connections"), Some((3, 3)));
        assert_eq!(report.counter("geodabs_mux_parks_total"), Some(3));
        assert_eq!(report.counter("geodabs_mux_wakeups_total"), Some(2));
        assert_eq!(
            report.counter("geodabs_mux_spurious_wakeups_total"),
            Some(1)
        );
        let histogram = report
            .histogram("geodabs_request_latency_us{kind=\"ping\"}")
            .unwrap();
        assert_eq!(histogram.snapshot().count(), 1);
        assert_eq!(report.slow_queries.len(), 1);
        assert_eq!(report.slow_queries[0].trace_id, 7);
        assert!(report.text.contains("geodabs_requests_total"));
    }

    #[test]
    fn disabled_metrics_skip_clock_reads() {
        let metrics = ServeMetrics::new(false, 100);
        assert!(!metrics.enabled());
        assert!(metrics.now().is_none());
        assert_eq!(metrics.record_since(&metrics.decode_us, None), 0);
        assert!(metrics.decode_us.snapshot().is_empty());
    }
}
