//! The machine-readable workload harness behind `geodabs bench`.
//!
//! Named scenarios combine a dataset *preset* (built from the
//! [`geodabs_gen`] generators) with a corpus size; running one measures
//! the throughput layer end to end — parallel batch ingest at several
//! thread counts, per-query latency percentiles and batch-query
//! throughput — and emits a versioned `BENCH_<scenario>.json` report.
//! Those reports are the repo's perf trajectory: every scaling PR is
//! judged against them, and CI's `perf-smoke` job gates merges on the
//! `smoke` scenario against a checked-in baseline
//! (`bench/baselines/smoke.json`).
//!
//! # Report schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "scenario": "smoke",
//!   "preset": "dense-urban",
//!   "seed": 42,
//!   "geodab_config": { "depth": 36, "k": 6, "t": 12, "prefix_bits": 16 },
//!   "corpus": { "trajectories": 240, "points": 68712, "routes": 12,
//!               "distinct_terms": 1204, "generation_seconds": 0.11 },
//!   "ingest": { "consistent": true,
//!               "runs": [ { "threads": 1, "seconds": 0.5, "traj_per_sec": 480.0 } ] },
//!   "query": { "count": 24, "limit": 10,
//!              "latency_ms": { "p50": 0.2, "p95": 0.4, "p99": 0.5,
//!                              "mean": 0.22, "max": 0.6 },
//!              "batch_runs": [ { "threads": 1, "seconds": 0.01,
//!                                "queries_per_sec": 2400.0 } ] }
//! }
//! ```
//!
//! `schema_version` is bumped whenever a field changes meaning; consumers
//! (the CI gate, plotting scripts) must check it before reading further.

use geodabs_cluster::{ClusterIndex, ShardNode, ShardRouter};
use geodabs_core::{Fingerprinter, GeodabConfig};
use geodabs_gen::dataset::{Dataset, DatasetConfig};
use geodabs_gen::sampler::SamplerConfig;
use geodabs_index::store::Persist;
use geodabs_index::{GeodabIndex, GeohashIndex, SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_roadnet::generators::{grid_network, GridConfig};
use geodabs_serve::{
    recover, AnyIndex, Client, Frontend, FrontendConfig, LoadClient, LoadRun, ServeBackend, Server,
    ServerConfig,
};
use geodabs_traj::{TrajId, Trajectory};
use geodabs_wal::{SyncPolicy, Wal};
use std::time::{Duration, Instant};

use crate::json::Json;

/// The current `BENCH_*.json` schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// A dataset family: how the synthetic world and its trajectories look.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Short overlapping urban routes at 1 Hz with 20 m GPS noise — the
    /// paper's dense-London workload.
    DenseUrban,
    /// A wide-spacing network with long, mostly disjoint routes, noisier
    /// fixes and faster travel — sparse rural traffic.
    SparseRural,
    /// Dense-urban routes with zero positional noise, as if every fix had
    /// been map-matched onto the network (the Section V-B pipeline).
    RoadMatched,
    /// Route lengths spread from a few hundred meters to network-scale,
    /// stressing fingerprint-count variance within one corpus.
    MixedLength,
}

impl Preset {
    /// The preset's stable name (used in scenario names and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Preset::DenseUrban => "dense-urban",
            Preset::SparseRural => "sparse-rural",
            Preset::RoadMatched => "road-matched",
            Preset::MixedLength => "mixed-length",
        }
    }

    /// The road network the preset generates trajectories on.
    pub fn grid(&self) -> GridConfig {
        match self {
            Preset::DenseUrban | Preset::RoadMatched | Preset::MixedLength => GridConfig::default(),
            Preset::SparseRural => GridConfig {
                rows: 24,
                cols: 24,
                spacing_m: 1_500.0,
                jitter_m: 200.0,
                speed_range_mps: (15.0, 30.0),
                ..GridConfig::default()
            },
        }
    }

    /// The dataset configuration producing roughly `corpus` trajectories
    /// (routes × per-direction × 2, reverse paths included) and `queries`
    /// query trajectories.
    pub fn dataset(&self, corpus: usize, queries: usize) -> DatasetConfig {
        let (per_direction, min_route_m, noise_sigma_m) = match self {
            Preset::DenseUrban => (10, 2_000.0, 20.0),
            Preset::SparseRural => (5, 6_000.0, 30.0),
            Preset::RoadMatched => (10, 2_000.0, 0.0),
            Preset::MixedLength => (10, 400.0, 20.0),
        };
        let routes = (corpus / (per_direction * 2)).max(1);
        DatasetConfig {
            routes,
            per_direction,
            include_reverse: true,
            sampler: SamplerConfig {
                period_s: 1.0,
                noise_sigma_m,
            },
            min_route_m,
            queries,
            max_attempts_per_route: 400,
        }
    }
}

/// A named, reproducible workload: preset + corpus size + query count +
/// seed. The same scenario always generates the same trajectories, so two
/// `BENCH_<scenario>.json` files are comparable measurement to
/// measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The scenario's stable name; the report lands in
    /// `BENCH_<name>.json`.
    pub name: String,
    /// Dataset family.
    pub preset: Preset,
    /// Target corpus size in trajectories.
    pub corpus: usize,
    /// Number of query trajectories.
    pub queries: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Scenario {
    fn new(name: &str, preset: Preset, corpus: usize, queries: usize, seed: u64) -> Scenario {
        Scenario {
            name: name.to_string(),
            preset,
            corpus,
            queries,
            seed,
        }
    }
}

/// The scenario catalog. `smoke` is the seconds-scale config CI's
/// `perf-smoke` job runs on every push; `micro` exists for the test
/// suite; the `-1k/-10k/-100k` families are the sizes scaling PRs report
/// against.
pub fn catalog() -> Vec<Scenario> {
    let mut scenarios = vec![
        Scenario::new("micro", Preset::DenseUrban, 40, 4, 7),
        Scenario::new("smoke", Preset::DenseUrban, 2_000, 40, 42),
        // Snapshot restore vs re-ingest on the 10k preset; runs through
        // `run_cold_start` instead of `run_scenario`.
        Scenario::new(COLD_START, Preset::DenseUrban, 10_000, 50, 42),
        // Network serving over loopback; runs through `run_serve`
        // instead of `run_scenario`.
        Scenario::new(SERVE, Preset::DenseUrban, 2_000, 40, 42),
        // Write-ahead-log durability; runs through `run_durability`
        // instead of `run_scenario`.
        Scenario::new(DURABILITY, Preset::DenseUrban, 500, 40, 42),
        // Scatter/gather serving over remote shard servers; runs
        // through `run_distributed` instead of `run_scenario`.
        Scenario::new(DISTRIBUTED, Preset::DenseUrban, 2_000, 40, 42),
        // In-process shard-per-core serving with the lock-free read
        // path; runs through `run_multicore` instead of `run_scenario`.
        Scenario::new(MULTICORE, Preset::DenseUrban, 2_000, 40, 42),
        // Zipf hot-key query distribution over the serve layer; runs
        // through `run_skewed` instead of `run_scenario`.
        Scenario::new(SKEWED, Preset::DenseUrban, 2_000, 40, 42),
    ];
    for (suffix, corpus, queries) in [
        ("1k", 1_000, 50),
        ("10k", 10_000, 100),
        ("100k", 100_000, 100),
    ] {
        scenarios.push(Scenario::new(
            &format!("dense-urban-{suffix}"),
            Preset::DenseUrban,
            corpus,
            queries,
            42,
        ));
    }
    for preset in [
        Preset::SparseRural,
        Preset::RoadMatched,
        Preset::MixedLength,
    ] {
        for (suffix, corpus, queries) in [("1k", 1_000, 50), ("10k", 10_000, 100)] {
            scenarios.push(Scenario::new(
                &format!("{}-{suffix}", preset.name()),
                preset,
                corpus,
                queries,
                42,
            ));
        }
    }
    scenarios
}

/// The snapshot cold-start scenario's name; it measures save/load
/// bandwidth and restore-vs-reingest speedup via [`run_cold_start`]
/// rather than the throughput ladder of [`run_scenario`].
pub const COLD_START: &str = "cold-start";

/// The network-serving scenario's name; it measures client-observed QPS
/// and latency percentiles over loopback per connection count via
/// [`run_serve`] rather than the in-process ladder of [`run_scenario`].
pub const SERVE: &str = "serve";

/// The distributed-serving scenario's name; it measures
/// client-observed QPS and latency against a scatter/gather frontend
/// over in-process shard servers at several shard-server counts, every
/// response verified bit-identical against the monolithic index, via
/// [`run_distributed`] rather than the in-process ladder of
/// [`run_scenario`].
pub const DISTRIBUTED: &str = "distributed";

/// The multicore-serving scenario's name; it measures client-observed
/// QPS and latency against one server at several in-process shard
/// counts — quiet, and with a concurrent bulk ingest in flight to
/// exercise the lock-free read path — via [`run_multicore`] rather than
/// the in-process ladder of [`run_scenario`].
pub const MULTICORE: &str = "multicore";

/// The skewed-workload scenario's name; it measures client-observed QPS
/// and latency over loopback when the request stream follows a Zipf
/// hot-key distribution over the scenario's queries — the real-shaped
/// counterpart of the uniform round-robin of [`run_serve`] — via
/// [`run_skewed`] rather than the in-process ladder of [`run_scenario`].
pub const SKEWED: &str = "skewed";

/// The durability scenario's name; it measures acknowledged-write
/// latency per WAL sync policy, replay-on-boot recovery speed, and the
/// query-latency cost of concurrent background compaction via
/// [`run_durability`] rather than the in-process ladder of
/// [`run_scenario`].
pub const DURABILITY: &str = "durability";

/// Generates a scenario's reproducible dataset (network + corpus +
/// queries) — the one corpus-construction path shared by the scenario
/// runners, `snapshot save/load --verify`, and the serving layer.
pub fn generate(scenario: &Scenario) -> Dataset {
    let network = grid_network(&scenario.preset.grid(), scenario.seed);
    let config = scenario.preset.dataset(scenario.corpus, scenario.queries);
    Dataset::generate(&network, &config, scenario.seed).expect("grid networks are always routable")
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    catalog().into_iter().find(|s| s.name == name)
}

/// The thread counts a run measures: the powers of two `1, 2, 4, 8, …`
/// up to `max_threads`, plus `max_threads` itself.
pub fn thread_ladder(max_threads: usize) -> Vec<usize> {
    let max_threads = max_threads.max(1);
    let mut ladder: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();
    if ladder.last() != Some(&max_threads) {
        ladder.push(max_threads);
    }
    ladder
}

/// One timed batch-ingest build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestRun {
    /// Worker threads used for fingerprinting.
    pub threads: usize,
    /// Wall-clock build time in seconds.
    pub seconds: f64,
    /// Trajectories indexed per second.
    pub traj_per_sec: f64,
}

/// One timed batch-query run over the full query set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryBatchRun {
    /// Worker threads used for query fan-out.
    pub threads: usize,
    /// Wall-clock time for the whole batch in seconds.
    pub seconds: f64,
    /// Queries answered per second.
    pub queries_per_sec: f64,
}

/// Per-query latency percentiles, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyMs {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Slowest query.
    pub max: f64,
}

/// Everything one scenario run measured; serialize with
/// [`WorkloadReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The fingerprinting configuration used.
    pub config: GeodabConfig,
    /// Trajectories in the corpus.
    pub trajectories: usize,
    /// Total points across the corpus.
    pub points: usize,
    /// Distinct routes behind the corpus.
    pub routes: usize,
    /// Distinct geodab terms after ingest.
    pub distinct_terms: usize,
    /// Seconds spent generating the dataset (not part of any throughput).
    pub generation_seconds: f64,
    /// Whether every build produced identical `(len, term_count)` — the
    /// cheap online check that parallel ingest matched serial ingest (the
    /// test suite pins full bit-identity).
    pub ingest_consistent: bool,
    /// One build per measured thread count.
    pub ingest: Vec<IngestRun>,
    /// Result cap used for all queries.
    pub query_limit: usize,
    /// Per-query latencies (sequential pass).
    pub latency: LatencyMs,
    /// One batch-query run per measured thread count.
    pub query_batches: Vec<QueryBatchRun>,
}

impl WorkloadReport {
    /// The canonical report file name: `BENCH_<scenario>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.scenario.name)
    }

    /// The best (highest) measured ingest throughput, in trajectories per
    /// second — the single number the CI perf gate compares.
    pub fn best_ingest_throughput(&self) -> f64 {
        self.ingest
            .iter()
            .map(|r| r.traj_per_sec)
            .fold(0.0, f64::max)
    }

    /// Serializes the report (schema version [`SCHEMA_VERSION`]).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("scenario", Json::Str(self.scenario.name.clone())),
            ("preset", Json::Str(self.scenario.preset.name().into())),
            ("seed", Json::Num(self.scenario.seed as f64)),
            (
                "geodab_config",
                Json::obj(vec![
                    ("depth", Json::Num(self.config.normalization_depth() as f64)),
                    ("k", Json::Num(self.config.k() as f64)),
                    ("t", Json::Num(self.config.t() as f64)),
                    ("prefix_bits", Json::Num(self.config.prefix_bits() as f64)),
                ]),
            ),
            (
                "corpus",
                Json::obj(vec![
                    ("trajectories", Json::Num(self.trajectories as f64)),
                    ("points", Json::Num(self.points as f64)),
                    ("routes", Json::Num(self.routes as f64)),
                    ("distinct_terms", Json::Num(self.distinct_terms as f64)),
                    (
                        "generation_seconds",
                        Json::Num(round6(self.generation_seconds)),
                    ),
                ]),
            ),
            (
                "ingest",
                Json::obj(vec![
                    ("consistent", Json::Bool(self.ingest_consistent)),
                    (
                        "runs",
                        Json::Arr(
                            self.ingest
                                .iter()
                                .map(|r| {
                                    Json::obj(vec![
                                        ("threads", Json::Num(r.threads as f64)),
                                        ("seconds", Json::Num(round6(r.seconds))),
                                        ("traj_per_sec", Json::Num(round3(r.traj_per_sec))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "query",
                Json::obj(vec![
                    ("count", Json::Num(self.scenario.queries as f64)),
                    ("limit", Json::Num(self.query_limit as f64)),
                    (
                        "latency_ms",
                        Json::obj(vec![
                            ("p50", Json::Num(round6(self.latency.p50))),
                            ("p95", Json::Num(round6(self.latency.p95))),
                            ("p99", Json::Num(round6(self.latency.p99))),
                            ("mean", Json::Num(round6(self.latency.mean))),
                            ("max", Json::Num(round6(self.latency.max))),
                        ]),
                    ),
                    (
                        "batch_runs",
                        Json::Arr(
                            self.query_batches
                                .iter()
                                .map(|r| {
                                    Json::obj(vec![
                                        ("threads", Json::Num(r.threads as f64)),
                                        ("seconds", Json::Num(round6(r.seconds))),
                                        ("queries_per_sec", Json::Num(round3(r.queries_per_sec))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

// The latency percentile definition is shared with the load client
// (`geodabs_serve::percentile`, nearest-rank) so serve-side and
// bench-side numbers stay comparable.
use geodabs_serve::percentile;

/// Runs a scenario: generates its dataset, builds the index once per
/// thread count (timing batch ingest), then measures per-query latency
/// and batch-query throughput at the same thread counts.
///
/// Deterministic workload, non-deterministic timings — run on quiet
/// hardware for comparable numbers.
pub fn run_scenario(scenario: &Scenario, threads: &[usize]) -> WorkloadReport {
    assert!(!threads.is_empty(), "need at least one thread count");
    let started = Instant::now();
    let dataset = generate(scenario);
    let generation_seconds = started.elapsed().as_secs_f64();

    let items: Vec<(TrajId, &Trajectory)> = dataset
        .records()
        .iter()
        .map(|r| (r.id, &r.trajectory))
        .collect();
    let config = GeodabConfig::default();

    // Ingest: one full build per thread count. The thread-1 build is the
    // serial reference; `consistent` records that every other build
    // reached the same (len, term_count).
    let mut ingest = Vec::with_capacity(threads.len());
    let mut shapes: Vec<(usize, usize)> = Vec::with_capacity(threads.len());
    let mut index = GeodabIndex::new(config);
    for &t in threads {
        let mut built = GeodabIndex::new(config);
        let started = Instant::now();
        built.insert_batch_threads(&items, t);
        let seconds = started.elapsed().as_secs_f64();
        ingest.push(IngestRun {
            threads: t,
            seconds,
            traj_per_sec: items.len() as f64 / seconds.max(1e-9),
        });
        shapes.push((built.len(), built.term_count()));
        index = built;
    }
    let ingest_consistent = shapes.windows(2).all(|w| w[0] == w[1]);

    // Queries: a sequential pass for the latency distribution, then one
    // batch run per thread count for throughput.
    let query_limit = 10;
    let options = SearchOptions::default().limit(query_limit);
    let queries: Vec<Trajectory> = dataset
        .queries()
        .iter()
        .map(|q| q.trajectory.clone())
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(queries.len());
    for query in &queries {
        let started = Instant::now();
        let hits = index.search(query, &options);
        latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(hits);
    }
    latencies_ms.sort_by(f64::total_cmp);
    let latency = LatencyMs {
        p50: percentile(&latencies_ms, 50.0),
        p95: percentile(&latencies_ms, 95.0),
        p99: percentile(&latencies_ms, 99.0),
        mean: latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64,
        max: latencies_ms.last().copied().unwrap_or(0.0),
    };
    let mut query_batches = Vec::with_capacity(threads.len());
    for &t in threads {
        let started = Instant::now();
        let all = index.search_batch_threads(&queries, &options, t);
        let seconds = started.elapsed().as_secs_f64();
        std::hint::black_box(&all);
        query_batches.push(QueryBatchRun {
            threads: t,
            seconds,
            queries_per_sec: queries.len() as f64 / seconds.max(1e-9),
        });
    }

    WorkloadReport {
        scenario: scenario.clone(),
        config,
        trajectories: dataset.records().len(),
        points: dataset.total_points(),
        routes: dataset.routes().len(),
        distinct_terms: index.term_count(),
        generation_seconds,
        ingest_consistent,
        ingest,
        query_limit,
        latency,
        query_batches,
    }
}

/// Everything one cold-start run measured: how fast engine state moves
/// to and from its snapshot form, and how that compares to rebuilding
/// the index from raw trajectories.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStartReport {
    /// The scenario that ran (normally [`COLD_START`]).
    pub scenario: Scenario,
    /// The fingerprinting configuration used.
    pub config: GeodabConfig,
    /// Trajectories in the corpus.
    pub trajectories: usize,
    /// Total points across the corpus.
    pub points: usize,
    /// Distinct geodab terms after ingest.
    pub distinct_terms: usize,
    /// Seconds spent generating the dataset (not part of any rate).
    pub generation_seconds: f64,
    /// Worker threads used for the re-ingest build.
    pub reingest_threads: usize,
    /// Wall-clock seconds to build the index from raw trajectories.
    pub reingest_seconds: f64,
    /// Snapshot size in bytes.
    pub snapshot_bytes: usize,
    /// Wall-clock seconds to serialize the snapshot.
    pub save_seconds: f64,
    /// Wall-clock seconds to materialize the index from the snapshot.
    pub load_seconds: f64,
    /// `reingest_seconds / load_seconds` — how much faster a cold start
    /// from a snapshot is than re-ingesting the corpus.
    pub restore_speedup: f64,
    /// Whether the restored index answered every scenario query exactly
    /// like the freshly built one.
    pub consistent: bool,
}

impl ColdStartReport {
    /// The canonical report file name: `BENCH_<scenario>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.scenario.name)
    }

    /// Snapshot serialization bandwidth in MB/s (decimal megabytes).
    pub fn save_mb_per_s(&self) -> f64 {
        self.snapshot_bytes as f64 / 1e6 / self.save_seconds.max(1e-9)
    }

    /// Snapshot materialization bandwidth in MB/s (decimal megabytes).
    pub fn load_mb_per_s(&self) -> f64 {
        self.snapshot_bytes as f64 / 1e6 / self.load_seconds.max(1e-9)
    }

    /// Serializes the report. Shares `schema_version` with the workload
    /// report; the `kind` field marks the different shape, so the ingest
    /// perf gate rejects a cold-start report as a baseline (it has no
    /// `ingest.runs`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("kind", Json::Str("cold-start".into())),
            ("scenario", Json::Str(self.scenario.name.clone())),
            ("preset", Json::Str(self.scenario.preset.name().into())),
            ("seed", Json::Num(self.scenario.seed as f64)),
            (
                "corpus",
                Json::obj(vec![
                    ("trajectories", Json::Num(self.trajectories as f64)),
                    ("points", Json::Num(self.points as f64)),
                    ("distinct_terms", Json::Num(self.distinct_terms as f64)),
                    (
                        "generation_seconds",
                        Json::Num(round6(self.generation_seconds)),
                    ),
                ]),
            ),
            (
                "snapshot",
                Json::obj(vec![
                    ("bytes", Json::Num(self.snapshot_bytes as f64)),
                    ("save_seconds", Json::Num(round6(self.save_seconds))),
                    ("save_mb_per_s", Json::Num(round3(self.save_mb_per_s()))),
                    ("load_seconds", Json::Num(round6(self.load_seconds))),
                    ("load_mb_per_s", Json::Num(round3(self.load_mb_per_s()))),
                    ("reingest_threads", Json::Num(self.reingest_threads as f64)),
                    ("reingest_seconds", Json::Num(round6(self.reingest_seconds))),
                    ("restore_speedup", Json::Num(round3(self.restore_speedup))),
                    ("consistent", Json::Bool(self.consistent)),
                ]),
            ),
        ])
    }
}

/// Runs the cold-start scenario: build the index once from raw
/// trajectories (timed re-ingest at `threads` workers), serialize it to a
/// v2 snapshot, materialize it back, and verify the restored index
/// answers every scenario query identically to the built one.
///
/// Deterministic workload, non-deterministic timings — run on quiet
/// hardware for comparable numbers.
pub fn run_cold_start(scenario: &Scenario, threads: usize) -> ColdStartReport {
    let started = Instant::now();
    let dataset = generate(scenario);
    let generation_seconds = started.elapsed().as_secs_f64();

    let items: Vec<(TrajId, &Trajectory)> = dataset
        .records()
        .iter()
        .map(|r| (r.id, &r.trajectory))
        .collect();
    let config = GeodabConfig::default();

    let mut index = GeodabIndex::new(config);
    let started = Instant::now();
    index.insert_batch_threads(&items, threads.max(1));
    let reingest_seconds = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let snapshot = index.to_snapshot();
    let save_seconds = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let restored = GeodabIndex::from_snapshot(&snapshot).expect("own snapshot always loads");
    let load_seconds = started.elapsed().as_secs_f64();

    let options = SearchOptions::default().limit(10);
    let consistent = restored.len() == index.len()
        && restored.term_count() == index.term_count()
        && dataset.queries().iter().all(|q| {
            restored.search(&q.trajectory, &options) == index.search(&q.trajectory, &options)
        });

    ColdStartReport {
        scenario: scenario.clone(),
        config,
        trajectories: dataset.records().len(),
        points: dataset.total_points(),
        distinct_terms: index.term_count(),
        generation_seconds,
        reingest_threads: threads.max(1),
        reingest_seconds,
        snapshot_bytes: snapshot.len(),
        save_seconds,
        load_seconds,
        restore_speedup: reingest_seconds / load_seconds.max(1e-9),
        consistent,
    }
}

/// An empty index of the same backend and shape (configuration, depth,
/// cluster geometry) as `index` — what a verification rebuild
/// re-ingests into.
fn fresh_twin(index: &AnyIndex) -> Result<AnyIndex, String> {
    Ok(match index {
        AnyIndex::Geodab(index) => AnyIndex::Geodab(GeodabIndex::new(*index.config())),
        AnyIndex::Geohash(index) => AnyIndex::Geohash(GeohashIndex::new(index.depth())),
        AnyIndex::Cluster(index) => AnyIndex::Cluster(
            ClusterIndex::new(
                *index.config(),
                index.router().num_shards(),
                index.router().num_nodes(),
            )
            .map_err(|e| e.to_string())?,
        ),
        AnyIndex::Node(index) => AnyIndex::Node(
            ShardNode::new(
                *index.config(),
                index.router().num_shards(),
                index.router().num_nodes(),
                index.node_id(),
            )
            .map_err(|e| e.to_string())?,
        ),
    })
}

/// The result cap every verification replay queries with.
pub const VERIFY_LIMIT: usize = 10;

/// Verifies a restored (or warm-started) index against a fresh rebuild:
/// re-ingests the scenario's corpus into an empty index of the same
/// backend and shape, demands the same index shape, then replays every
/// scenario query and demands bit-identical rankings. The one
/// query-replay loop behind `geodabs snapshot load --verify rebuild` and
/// `geodabs serve --verify rebuild`.
///
/// Returns the number of queries that were compared.
///
/// # Errors
///
/// A message naming the divergence (shape mismatch or the count of
/// differing queries).
pub fn verify_against_rebuild(restored: &AnyIndex, scenario: &Scenario) -> Result<usize, String> {
    let dataset = generate(scenario);
    let items: Vec<(TrajId, &Trajectory)> = dataset
        .records()
        .iter()
        .map(|r| (r.id, &r.trajectory))
        .collect();
    let mut fresh = fresh_twin(restored)?;
    fresh.insert_batch(items);
    if TrajectoryIndex::len(&fresh) != TrajectoryIndex::len(restored)
        || fresh.term_count() != restored.term_count()
    {
        return Err(format!(
            "rebuilt {} index shape differs from the loaded one \
             ({} vs {} trajectories, {} vs {} terms)",
            restored.backend_name(),
            TrajectoryIndex::len(&fresh),
            TrajectoryIndex::len(restored),
            fresh.term_count(),
            restored.term_count()
        ));
    }
    let options = SearchOptions::default().limit(VERIFY_LIMIT);
    let mismatches = dataset
        .queries()
        .iter()
        .filter(|q| {
            TrajectoryIndex::search(restored, &q.trajectory, &options)
                != TrajectoryIndex::search(&fresh, &q.trajectory, &options)
        })
        .count();
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} of {} queries answered differently than a fresh rebuild of \
             scenario {}",
            dataset.queries().len(),
            scenario.name
        ));
    }
    Ok(dataset.queries().len())
}

/// One server-side stage's latency distribution over a load run, from
/// the before/after delta of the server's own histograms — the view the
/// client cannot measure (decode, engine scan, merge, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStage {
    /// Stage name (e.g. `decode`, `engine`, `merge`, `request`).
    pub name: String,
    /// Samples the stage recorded during the run.
    pub count: u64,
    /// Median, microseconds (nearest-rank, bucket upper bound).
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
}

/// The server's own telemetry over a load run: per-stage latency deltas
/// plus the mux saturation gauges, scraped via the metrics frame before
/// and after the ladder.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerSide {
    /// Per-stage latency distributions, server clock.
    pub stages: Vec<ServerStage>,
    /// Peak simultaneously-busy mux workers over the server's lifetime.
    pub workers_busy_peak: u64,
    /// Peak frames in flight (decoded, not yet answered).
    pub frames_in_flight_peak: u64,
    /// Peak concurrent connections.
    pub connections_peak: u64,
}

/// Everything one serving run measured: client-observed throughput and
/// latency per concurrent-connection count, over loopback or against a
/// remote server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The workload scenario supplying corpus and queries.
    pub scenario: Scenario,
    /// The served backend's name (as reported by the server's `Stats`).
    pub backend: String,
    /// Trajectories held by the server.
    pub trajectories: usize,
    /// Result cap used for all queries.
    pub query_limit: usize,
    /// Whether responses were verified against in-process rankings.
    pub verified: bool,
    /// One load point per measured connection count.
    pub points: Vec<LoadRun>,
    /// Server-side telemetry over the whole ladder (`None` unless the
    /// driver scraped the metrics frame, e.g. `loadtest
    /// --server-metrics`).
    pub server: Option<ServerSide>,
}

impl ServeReport {
    /// The canonical report file name: `BENCH_serve.json`, regardless of
    /// which workload scenario supplied the traffic (the `scenario`
    /// field in the report records that).
    pub fn file_name(&self) -> String {
        "BENCH_serve.json".to_string()
    }

    /// Whether every response matched and every connection survived.
    pub fn consistent(&self) -> bool {
        self.points.iter().all(|p| p.mismatches == 0)
    }

    /// Serializes the report. Shares `schema_version` with the workload
    /// report; the `kind` field marks the different shape, so the ingest
    /// perf gate rejects a serve report as a baseline.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("kind", Json::Str("serve".into())),
            ("scenario", Json::Str(self.scenario.name.clone())),
            ("preset", Json::Str(self.scenario.preset.name().into())),
            ("seed", Json::Num(self.scenario.seed as f64)),
            ("backend", Json::Str(self.backend.clone())),
            (
                "corpus",
                Json::obj(vec![("trajectories", Json::Num(self.trajectories as f64))]),
            ),
            (
                "query",
                Json::obj(vec![
                    ("count", Json::Num(self.scenario.queries as f64)),
                    ("limit", Json::Num(self.query_limit as f64)),
                    ("verified", Json::Bool(self.verified)),
                    ("consistent", Json::Bool(self.consistent())),
                ]),
            ),
            (
                "connections",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("connections", Json::Num(p.connections as f64)),
                                ("requests", Json::Num(p.requests as f64)),
                                ("mismatches", Json::Num(p.mismatches as f64)),
                                ("seconds", Json::Num(round6(p.seconds))),
                                ("qps", Json::Num(round3(p.qps))),
                                (
                                    "latency_ms",
                                    Json::obj(vec![
                                        ("p50", Json::Num(round6(p.p50_ms))),
                                        ("p95", Json::Num(round6(p.p95_ms))),
                                        ("p99", Json::Num(round6(p.p99_ms))),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(server) = &self.server {
            fields.push((
                "server",
                Json::obj(vec![
                    (
                        "stages",
                        Json::Arr(
                            server
                                .stages
                                .iter()
                                .map(|s| {
                                    Json::obj(vec![
                                        ("name", Json::Str(s.name.clone())),
                                        ("count", Json::Num(s.count as f64)),
                                        (
                                            "latency_us",
                                            Json::obj(vec![
                                                ("p50", Json::Num(s.p50_us as f64)),
                                                ("p95", Json::Num(s.p95_us as f64)),
                                                ("p99", Json::Num(s.p99_us as f64)),
                                            ]),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "workers_busy_peak",
                        Json::Num(server.workers_busy_peak as f64),
                    ),
                    (
                        "frames_in_flight_peak",
                        Json::Num(server.frames_in_flight_peak as f64),
                    ),
                    (
                        "connections_peak",
                        Json::Num(server.connections_peak as f64),
                    ),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

/// Drives the connection ladder against an already-listening server:
/// one closed-loop load point per ladder entry, each for
/// `seconds_per_point`. `expected` installs per-query bit-identity
/// verification.
///
/// # Errors
///
/// The first connection or wire error — broken connections fail the run
/// loudly instead of deflating the numbers.
/// A single-shard [`ServerConfig`] with `workers` mux workers — the
/// monolithic-server shape every loopback harness here boots with
/// unless it is explicitly exercising in-process shards.
fn mux_config(workers: usize) -> Result<ServerConfig, String> {
    ServerConfig::builder()
        .mux_workers(workers)
        .build()
        .map_err(|e| e.to_string())
}

pub fn run_load_ladder(
    addr: &str,
    queries: Vec<Trajectory>,
    options: SearchOptions,
    expected: Option<Vec<Vec<SearchResult>>>,
    ladder: &[usize],
    seconds_per_point: f64,
) -> Result<Vec<LoadRun>, String> {
    let mut load = LoadClient::new(addr.to_string(), queries, options);
    if let Some(expected) = expected {
        load = load.expect_results(expected);
    }
    let duration = Duration::from_secs_f64(seconds_per_point.max(0.05));
    let mut points = Vec::with_capacity(ladder.len());
    for &connections in ladder {
        let point = load
            .run(connections, duration)
            .map_err(|e| format!("load run at {connections} connection(s): {e}"))?;
        points.push(point);
    }
    Ok(points)
}

/// Runs the serving scenario end to end on loopback: ingest the
/// scenario's corpus into a geodab index, serve it from an OS-assigned
/// port, then drive the connection ladder `1, 2, 4, …` (capped by
/// `max_connections`) with the scenario's queries — every response
/// verified bit-identical against the in-process ranking.
///
/// # Errors
///
/// Bind/connection failures, or any response mismatch.
pub fn run_serve(
    scenario: &Scenario,
    max_connections: usize,
    seconds_per_point: f64,
) -> Result<ServeReport, String> {
    let dataset = generate(scenario);
    let items: Vec<(TrajId, &Trajectory)> = dataset
        .records()
        .iter()
        .map(|r| (r.id, &r.trajectory))
        .collect();
    let mut index = AnyIndex::empty("geodab", 0, 0)?;
    index.insert_batch(items);
    let trajectories = TrajectoryIndex::len(&index);
    let backend = index.backend_name().to_string();

    let query_limit = VERIFY_LIMIT;
    let options = SearchOptions::default().limit(query_limit);
    let queries: Vec<Trajectory> = dataset
        .queries()
        .iter()
        .map(|q| q.trajectory.clone())
        .collect();
    let expected: Vec<Vec<SearchResult>> = queries
        .iter()
        .map(|q| TrajectoryIndex::search(&index, q, &options))
        .collect();

    // The multiplexer sweeps many connections per worker, so the pool
    // no longer needs to scale with the ladder width — one worker per
    // core serves even the widest point without queueing artifacts.
    let config = ServerConfig::builder()
        .mux_workers(geodabs_index::batch::default_threads())
        .build()
        .map_err(|e| e.to_string())?;
    let server =
        Server::bind("127.0.0.1:0", index, config).map_err(|e| format!("binding loopback: {e}"))?;
    let running = server.spawn();
    let ladder = thread_ladder(max_connections);
    let points = run_load_ladder(
        &running.addr().to_string(),
        queries,
        options,
        Some(expected),
        &ladder,
        seconds_per_point,
    );
    running
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    Ok(ServeReport {
        scenario: scenario.clone(),
        backend,
        trajectories,
        query_limit,
        verified: true,
        points: points?,
        server: None,
    })
}

/// Acknowledged-write latency under one WAL sync policy: the client
/// round-trip of `Insert` requests against a durable loopback server,
/// where every ack implies the record hit the log per that policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AckRun {
    /// The sync policy, as `SyncPolicy::to_string` renders it.
    pub policy: String,
    /// Acknowledged inserts measured.
    pub inserts: usize,
    /// Wall-clock for the whole insert stream, seconds.
    pub seconds: f64,
    /// Acknowledged writes per second.
    pub acks_per_sec: f64,
    /// Median ack latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile ack latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile ack latency, milliseconds.
    pub p99_ms: f64,
}

/// Everything one durability run measured: ack latency per sync policy,
/// replay-on-boot recovery, and query latency with background
/// compaction off vs on. Serialize with [`DurabilityReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityReport {
    /// The workload scenario supplying corpus and queries.
    pub scenario: Scenario,
    /// The served backend's name.
    pub backend: String,
    /// One insert stream per measured sync policy.
    pub acks: Vec<AckRun>,
    /// Log records replayed during the recovery phase.
    pub replayed_records: usize,
    /// Wall-clock to scan the log and rebuild the index, seconds.
    pub recovery_seconds: f64,
    /// Trajectories live after recovery (must equal the acked inserts).
    pub recovered_trajectories: usize,
    /// Query p95 with the WAL on but compaction off, milliseconds.
    pub baseline_query_p95_ms: f64,
    /// Query p95 while the compactor folds the log concurrently,
    /// milliseconds.
    pub compacting_query_p95_ms: f64,
    /// The snapshot watermark after the compacting phase (nonzero iff
    /// at least one compaction actually ran).
    pub compacted_watermark: u64,
    /// Whether recovery restored every acked write and compaction
    /// actually ran during the concurrent phase.
    pub consistent: bool,
}

impl DurabilityReport {
    /// The canonical report file name: `BENCH_durability.json`.
    pub fn file_name(&self) -> String {
        "BENCH_durability.json".to_string()
    }

    /// Serializes the report. Shares `schema_version` with the workload
    /// report; the `kind` field marks the different shape, so the ingest
    /// perf gate rejects a durability report as a baseline.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("kind", Json::Str("durability".into())),
            ("scenario", Json::Str(self.scenario.name.clone())),
            ("preset", Json::Str(self.scenario.preset.name().into())),
            ("seed", Json::Num(self.scenario.seed as f64)),
            ("backend", Json::Str(self.backend.clone())),
            (
                "acks",
                Json::Arr(
                    self.acks
                        .iter()
                        .map(|run| {
                            Json::obj(vec![
                                ("policy", Json::Str(run.policy.clone())),
                                ("inserts", Json::Num(run.inserts as f64)),
                                ("seconds", Json::Num(round6(run.seconds))),
                                ("acks_per_sec", Json::Num(round3(run.acks_per_sec))),
                                (
                                    "latency_ms",
                                    Json::obj(vec![
                                        ("p50", Json::Num(round6(run.p50_ms))),
                                        ("p95", Json::Num(round6(run.p95_ms))),
                                        ("p99", Json::Num(round6(run.p99_ms))),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "recovery",
                Json::obj(vec![
                    ("records", Json::Num(self.replayed_records as f64)),
                    ("seconds", Json::Num(round6(self.recovery_seconds))),
                    (
                        "trajectories",
                        Json::Num(self.recovered_trajectories as f64),
                    ),
                ]),
            ),
            (
                "compaction",
                Json::obj(vec![
                    (
                        "baseline_query_p95_ms",
                        Json::Num(round6(self.baseline_query_p95_ms)),
                    ),
                    (
                        "concurrent_query_p95_ms",
                        Json::Num(round6(self.compacting_query_p95_ms)),
                    ),
                    ("watermark", Json::Num(self.compacted_watermark as f64)),
                ]),
            ),
            ("consistent", Json::Bool(self.consistent)),
        ])
    }
}

/// A scratch directory for one durability phase; recreated empty.
fn durability_dir(tag: &str) -> Result<std::path::PathBuf, String> {
    let dir = std::env::temp_dir().join(format!(
        "geodabs-bench-durability-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Measures query latency percentiles against a running durable server
/// while a writer connection concurrently re-inserts corpus
/// trajectories (replace-on-reinsert keeps state stable), for roughly
/// `seconds` of wall clock. Returns the sorted query latencies in
/// milliseconds.
fn query_under_write_load(
    addr: std::net::SocketAddr,
    queries: &[Trajectory],
    options: &SearchOptions,
    writes: &[(TrajId, Trajectory)],
    seconds: f64,
) -> Result<Vec<f64>, String> {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<u64, String> {
            let mut client = Client::connect(addr).map_err(|e| format!("writer connect: {e}"))?;
            let mut written = 0u64;
            'outer: loop {
                for (id, trajectory) in writes {
                    if stop.load(std::sync::atomic::Ordering::SeqCst) {
                        break 'outer;
                    }
                    client
                        .insert(*id, trajectory)
                        .map_err(|e| format!("writer insert: {e}"))?;
                    written += 1;
                }
            }
            Ok(written)
        });
        let mut client = Client::connect(addr).map_err(|e| format!("reader connect: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.05));
        let mut latencies = Vec::new();
        'measure: loop {
            for query in queries {
                if Instant::now() >= deadline {
                    break 'measure;
                }
                let t0 = Instant::now();
                client
                    .query(query, options)
                    .map_err(|e| format!("reader query: {e}"))?;
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let written = writer.join().expect("writer thread panicked")?;
        if written == 0 {
            return Err("writer made no progress during the measurement".into());
        }
        latencies.sort_by(f64::total_cmp);
        Ok(latencies)
    })
}

/// Runs the durability scenario end to end on loopback:
///
/// 1. **Ack latency** — for each sync policy (`always`, a 5 ms
///    interval, `never`), stream `max_inserts` acknowledged inserts
///    into an empty durable server and record the client-observed ack
///    percentiles.
/// 2. **Recovery** — replay the `always` run's log into a fresh index,
///    timing the scan+rebuild and demanding zero acked-write loss.
/// 3. **Compaction** — serve the full corpus durably and measure query
///    p95 under a concurrent writer, once with compaction off and once
///    with the compactor folding the log continuously; the report
///    records both so CI can see compaction is not blocking readers.
///
/// `max_inserts` bounds phase 1 (capped by the corpus size) and
/// `seconds_per_phase` bounds each phase-3 measurement, so tests can
/// run the whole thing in well under a second.
///
/// # Errors
///
/// I/O, bind and wire failures, or a writer that made no progress.
pub fn run_durability(
    scenario: &Scenario,
    max_inserts: usize,
    seconds_per_phase: f64,
) -> Result<DurabilityReport, String> {
    let dataset = generate(scenario);
    let records = dataset.records();
    let inserts = max_inserts.clamp(1, records.len());
    let queries: Vec<Trajectory> = dataset
        .queries()
        .iter()
        .map(|q| q.trajectory.clone())
        .collect();
    let options = SearchOptions::default().limit(VERIFY_LIMIT);

    // Phase 1: acknowledged-write latency per sync policy.
    let policies = [
        SyncPolicy::Always,
        SyncPolicy::Interval(Duration::from_millis(5)),
        SyncPolicy::Never,
    ];
    let mut acks = Vec::with_capacity(policies.len());
    let mut always_dir = None;
    for (phase, policy) in policies.into_iter().enumerate() {
        let dir = durability_dir(&format!("ack{phase}"))?;
        let wal = Wal::open(&dir, policy).map_err(|e| format!("opening wal: {e}"))?;
        let index = AnyIndex::empty("geodab", 0, 0)?;
        let running = Server::bind("127.0.0.1:0", index, mux_config(2)?)
            .map_err(|e| format!("binding loopback: {e}"))?
            .with_durability(wal, 0, None)
            .spawn();
        let mut client =
            Client::connect(running.addr()).map_err(|e| format!("ack client connect: {e}"))?;
        let mut latencies = Vec::with_capacity(inserts);
        let started = Instant::now();
        for record in &records[..inserts] {
            let t0 = Instant::now();
            client
                .insert(record.id, &record.trajectory)
                .map_err(|e| format!("ack insert: {e}"))?;
            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let seconds = started.elapsed().as_secs_f64();
        running
            .shutdown()
            .map_err(|e| format!("ack server shutdown: {e}"))?;
        latencies.sort_by(f64::total_cmp);
        acks.push(AckRun {
            policy: policy.to_string(),
            inserts,
            seconds,
            acks_per_sec: inserts as f64 / seconds.max(1e-9),
            p50_ms: geodabs_serve::percentile(&latencies, 50.0),
            p95_ms: geodabs_serve::percentile(&latencies, 95.0),
            p99_ms: geodabs_serve::percentile(&latencies, 99.0),
        });
        if policy == SyncPolicy::Always {
            always_dir = Some(dir);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // Phase 2: replay-on-boot recovery from the sync-always log — the
    // exact read path `geodabs serve --wal-dir` boots through.
    let dir = always_dir.expect("the always policy ran");
    let recovery_started = Instant::now();
    let recovered = recover(&dir, || Ok((AnyIndex::empty("geodab", 0, 0)?, 0)))
        .map_err(|e: String| format!("recovery: {e}"))?;
    let recovery_seconds = recovery_started.elapsed().as_secs_f64();
    let replayed = recovered.replayed;
    let recovered_trajectories = TrajectoryIndex::len(&recovered.index);
    let recovery_consistent = replayed == inserts && recovered_trajectories == inserts;
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 3: query latency under write load, compaction off vs on.
    // Both sides run the full corpus behind a sync-always WAL; the only
    // difference is the background compactor, so the p95 delta isolates
    // what folding the log costs concurrent readers.
    let writes: Vec<(TrajId, Trajectory)> = records
        .iter()
        .take(inserts)
        .map(|r| (r.id, r.trajectory.clone()))
        .collect();
    let measure = |compact_every: Option<Duration>, tag: &str| -> Result<(Vec<f64>, u64), String> {
        let dir = durability_dir(tag)?;
        let wal = Wal::open(&dir, SyncPolicy::Always).map_err(|e| format!("opening wal: {e}"))?;
        let mut index = AnyIndex::empty("geodab", 0, 0)?;
        index.insert_batch(records.iter().map(|r| (r.id, &r.trajectory)));
        let running = Server::bind("127.0.0.1:0", index, mux_config(2)?)
            .map_err(|e| format!("binding loopback: {e}"))?
            .with_durability(wal, 0, compact_every)
            .spawn();
        let latencies = query_under_write_load(
            running.addr(),
            &queries,
            &options,
            &writes,
            seconds_per_phase,
        )?;
        let stats = Client::connect(running.addr())
            .map_err(|e| format!("stats connect: {e}"))?
            .stats_durable()
            .map_err(|e| format!("stats probe: {e}"))?;
        let watermark = stats.durability.map(|d| d.snapshot_watermark).unwrap_or(0);
        running
            .shutdown()
            .map_err(|e| format!("phase-3 server shutdown: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok((latencies, watermark))
    };
    let (baseline_latencies, baseline_watermark) = measure(None, "compact-off")?;
    // Fold continuously (a 1 ms period re-arms as fast as the compactor
    // can cycle) so the measurement overlaps real compactions.
    let (compacting_latencies, compacted_watermark) =
        measure(Some(Duration::from_millis(1)), "compact-on")?;

    let consistent = recovery_consistent && baseline_watermark == 0 && compacted_watermark > 0;
    Ok(DurabilityReport {
        scenario: scenario.clone(),
        backend: "geodab".to_string(),
        acks,
        replayed_records: replayed,
        recovery_seconds,
        recovered_trajectories,
        baseline_query_p95_ms: geodabs_serve::percentile(&baseline_latencies, 95.0),
        compacting_query_p95_ms: geodabs_serve::percentile(&compacting_latencies, 95.0),
        compacted_watermark,
        consistent,
    })
}

/// One measured shard-server count of the distributed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedPoint {
    /// Shard servers behind the frontend.
    pub shard_servers: usize,
    /// The closed-loop load point measured against the frontend.
    pub load: LoadRun,
}

/// Everything one distributed-serving run measured: client-observed
/// QPS and latency through a scatter/gather frontend, at several
/// shard-server counts, every response verified bit-identical against
/// the monolithic index.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedReport {
    /// The workload scenario supplying corpus and queries.
    pub scenario: Scenario,
    /// Logical shards the router slices the Z-curve into.
    pub num_shards: u64,
    /// Trajectories in the corpus.
    pub trajectories: usize,
    /// Result cap used for all queries.
    pub query_limit: usize,
    /// Concurrent connections each point drove.
    pub connections: usize,
    /// One load point per measured shard-server count.
    pub points: Vec<DistributedPoint>,
}

impl DistributedReport {
    /// The canonical report file name: `BENCH_distributed.json`.
    pub fn file_name(&self) -> String {
        "BENCH_distributed.json".to_string()
    }

    /// Whether every response at every shard count matched the
    /// monolithic ranking bit for bit.
    pub fn consistent(&self) -> bool {
        self.points.iter().all(|p| p.load.mismatches == 0)
    }

    /// Serializes the report. Shares `schema_version` with the workload
    /// report; the `kind` field marks the different shape, so the ingest
    /// perf gate rejects a distributed report as a baseline.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("kind", Json::Str("distributed".into())),
            ("scenario", Json::Str(self.scenario.name.clone())),
            ("preset", Json::Str(self.scenario.preset.name().into())),
            ("seed", Json::Num(self.scenario.seed as f64)),
            ("num_shards", Json::Num(self.num_shards as f64)),
            (
                "corpus",
                Json::obj(vec![("trajectories", Json::Num(self.trajectories as f64))]),
            ),
            (
                "query",
                Json::obj(vec![
                    ("count", Json::Num(self.scenario.queries as f64)),
                    ("limit", Json::Num(self.query_limit as f64)),
                    ("connections", Json::Num(self.connections as f64)),
                    ("verified", Json::Bool(true)),
                    ("consistent", Json::Bool(self.consistent())),
                ]),
            ),
            (
                "shard_servers",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("shard_servers", Json::Num(p.shard_servers as f64)),
                                ("requests", Json::Num(p.load.requests as f64)),
                                ("mismatches", Json::Num(p.load.mismatches as f64)),
                                ("seconds", Json::Num(round6(p.load.seconds))),
                                ("qps", Json::Num(round3(p.load.qps))),
                                (
                                    "latency_ms",
                                    Json::obj(vec![
                                        ("p50", Json::Num(round6(p.load.p50_ms))),
                                        ("p95", Json::Num(round6(p.load.p95_ms))),
                                        ("p99", Json::Num(round6(p.load.p99_ms))),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The logical shard count of the distributed scenario — the paper's
/// fine-grained 10 000-shard configuration (Figure 16).
pub const DISTRIBUTED_NUM_SHARDS: u64 = 10_000;

/// Runs the distributed-serving scenario end to end on loopback: for
/// each entry of `shard_server_counts`, boot that many in-process shard
/// servers (each hosting one [`ShardNode`] slice of the corpus) plus a
/// scatter/gather [`Frontend`], then drive `connections` closed-loop
/// connections of scenario queries against the frontend — every
/// response verified **bit-identical** against the monolithic geodab
/// index.
///
/// # Errors
///
/// Bind/connection failures, a cluster-shape error, or any response
/// mismatch surfacing as a nonzero mismatch count in the report.
pub fn run_distributed(
    scenario: &Scenario,
    shard_server_counts: &[usize],
    connections: usize,
    seconds_per_point: f64,
) -> Result<DistributedReport, String> {
    assert!(
        !shard_server_counts.is_empty(),
        "need at least one shard-server count"
    );
    let dataset = generate(scenario);
    let items: Vec<(TrajId, &Trajectory)> = dataset
        .records()
        .iter()
        .map(|r| (r.id, &r.trajectory))
        .collect();
    let config = GeodabConfig::default();

    // The monolithic reference: the exact rankings every distributed
    // answer must reproduce bit for bit.
    let mut monolith = GeodabIndex::new(config);
    monolith.insert_batch(items.clone());
    let query_limit = VERIFY_LIMIT;
    let options = SearchOptions::default().limit(query_limit);
    let queries: Vec<Trajectory> = dataset
        .queries()
        .iter()
        .map(|q| q.trajectory.clone())
        .collect();
    let expected: Vec<Vec<SearchResult>> = queries
        .iter()
        .map(|q| monolith.search(q, &options))
        .collect();

    // Connections multiplex over a core-sized worker pool on both the
    // shard servers and the frontend; the driven connection count no
    // longer dictates pool size.
    let pool = geodabs_index::batch::default_threads();
    let duration = Duration::from_secs_f64(seconds_per_point.max(0.05));
    let mut points = Vec::with_capacity(shard_server_counts.len());
    for &servers in shard_server_counts {
        let mut cluster = ClusterIndex::new(config, DISTRIBUTED_NUM_SHARDS, servers)
            .map_err(|e| e.to_string())?;
        cluster.insert_batch(items.clone());
        let mut running = Vec::with_capacity(servers);
        let mut addrs = Vec::with_capacity(servers);
        for node in 0..servers {
            let slice = cluster.shard_node(node).expect("node id in range");
            let server = Server::bind("127.0.0.1:0", slice, mux_config(pool)?)
                .map_err(|e| format!("binding shard server {node}: {e}"))?;
            addrs.push(server.local_addr().to_string());
            running.push(server.spawn());
        }
        let router = ShardRouter::new(config.prefix_bits(), DISTRIBUTED_NUM_SHARDS, servers)
            .map_err(|e| e.to_string())?;
        let frontend = Frontend::bind(
            "127.0.0.1:0",
            Fingerprinter::new(config),
            router,
            addrs,
            FrontendConfig::builder()
                .mux_workers(pool)
                .build()
                .map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("binding frontend: {e}"))?
        .spawn();
        let load = LoadClient::new(frontend.addr().to_string(), queries.clone(), options)
            .expect_results(expected.clone());
        let point = load
            .run(connections, duration)
            .map_err(|e| format!("load run at {servers} shard server(s): {e}"))?;
        frontend
            .shutdown()
            .map_err(|e| format!("frontend shutdown: {e}"))?;
        for server in running {
            server
                .shutdown()
                .map_err(|e| format!("shard server shutdown: {e}"))?;
        }
        points.push(DistributedPoint {
            shard_servers: servers,
            load: point,
        });
    }

    Ok(DistributedReport {
        scenario: scenario.clone(),
        num_shards: DISTRIBUTED_NUM_SHARDS,
        trajectories: dataset.records().len(),
        query_limit,
        connections,
        points,
    })
}

/// One measured in-process shard count of the multicore scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticorePoint {
    /// In-process shard cells the server hosted.
    pub shards: usize,
    /// The closed-loop load point with no writes in flight, every
    /// response verified bit-identical against the monolithic index.
    pub quiet: LoadRun,
    /// The closed-loop load point measured while a bulk ingest ran
    /// concurrently (responses are unverifiable mid-mutation, so this
    /// point reports latency only — the read-under-ingest figure the
    /// copy-on-write read path exists for).
    pub under_ingest: LoadRun,
    /// Trajectories the concurrent ingest pushed during the
    /// under-ingest point.
    pub ingested: u64,
}

/// Everything one multicore-serving run measured: client-observed QPS
/// and latency against a single server at several in-process shard
/// counts, quiet and under concurrent ingest.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticoreReport {
    /// The workload scenario supplying corpus and queries.
    pub scenario: Scenario,
    /// Trajectories in the corpus.
    pub trajectories: usize,
    /// Result cap used for all queries.
    pub query_limit: usize,
    /// Concurrent connections each point drove.
    pub connections: usize,
    /// One point per measured shard count.
    pub points: Vec<MulticorePoint>,
}

impl MulticoreReport {
    /// The canonical report file name: `BENCH_multicore.json`.
    pub fn file_name(&self) -> String {
        "BENCH_multicore.json".to_string()
    }

    /// Whether every verified (quiet) response matched the monolithic
    /// ranking bit for bit and no connection died under ingest.
    pub fn consistent(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.quiet.mismatches == 0 && p.under_ingest.mismatches == 0)
    }

    /// Serializes the report. Shares `schema_version` with the workload
    /// report; the `kind` field marks the different shape, so the ingest
    /// perf gate rejects a multicore report as a baseline.
    pub fn to_json(&self) -> Json {
        let load_json = |p: &LoadRun| {
            Json::obj(vec![
                ("requests", Json::Num(p.requests as f64)),
                ("mismatches", Json::Num(p.mismatches as f64)),
                ("seconds", Json::Num(round6(p.seconds))),
                ("qps", Json::Num(round3(p.qps))),
                (
                    "latency_ms",
                    Json::obj(vec![
                        ("p50", Json::Num(round6(p.p50_ms))),
                        ("p95", Json::Num(round6(p.p95_ms))),
                        ("p99", Json::Num(round6(p.p99_ms))),
                    ]),
                ),
            ])
        };
        Json::obj(vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("kind", Json::Str("multicore".into())),
            ("scenario", Json::Str(self.scenario.name.clone())),
            ("preset", Json::Str(self.scenario.preset.name().into())),
            ("seed", Json::Num(self.scenario.seed as f64)),
            (
                "corpus",
                Json::obj(vec![("trajectories", Json::Num(self.trajectories as f64))]),
            ),
            (
                "query",
                Json::obj(vec![
                    ("count", Json::Num(self.scenario.queries as f64)),
                    ("limit", Json::Num(self.query_limit as f64)),
                    ("connections", Json::Num(self.connections as f64)),
                    ("verified", Json::Bool(true)),
                    ("consistent", Json::Bool(self.consistent())),
                ]),
            ),
            (
                "shards",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("shards", Json::Num(p.shards as f64)),
                                ("quiet", load_json(&p.quiet)),
                                ("under_ingest", load_json(&p.under_ingest)),
                                ("ingested", Json::Num(p.ingested as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Id offset for the trajectories the under-ingest phase pushes, far
/// above any scenario corpus id so the writes never collide with the
/// served corpus.
const MULTICORE_INGEST_ID_BASE: u32 = 1 << 30;

/// Runs the multicore-serving scenario end to end on loopback: for
/// each entry of `shard_counts`, serve the scenario corpus from one
/// server hosting that many in-process shard cells (a count of `1`
/// keeps the monolithic lock-based host — the regression baseline) and
/// drive `connections` closed-loop connections twice — once quiet, with
/// every response verified **bit-identical** against the in-process
/// ranking, and once with a concurrent bulk ingest in flight, the
/// read-latency-under-writes figure the copy-on-write read path exists
/// for.
///
/// # Errors
///
/// Bind/connection failures, a refused shard conversion, or any
/// response mismatch surfacing as a nonzero mismatch count in the
/// report.
pub fn run_multicore(
    scenario: &Scenario,
    shard_counts: &[usize],
    connections: usize,
    seconds_per_point: f64,
) -> Result<MulticoreReport, String> {
    assert!(!shard_counts.is_empty(), "need at least one shard count");
    let dataset = generate(scenario);
    let items: Vec<(TrajId, &Trajectory)> = dataset
        .records()
        .iter()
        .map(|r| (r.id, &r.trajectory))
        .collect();

    let mut monolith = GeodabIndex::new(GeodabConfig::default());
    monolith.insert_batch(items.clone());
    let query_limit = VERIFY_LIMIT;
    let options = SearchOptions::default().limit(query_limit);
    let queries: Vec<Trajectory> = dataset
        .queries()
        .iter()
        .map(|q| q.trajectory.clone())
        .collect();
    let expected: Vec<Vec<SearchResult>> = queries
        .iter()
        .map(|q| monolith.search(q, &options))
        .collect();

    let workers = geodabs_index::batch::default_threads();
    let duration = Duration::from_secs_f64(seconds_per_point.max(0.05));
    let mut points = Vec::with_capacity(shard_counts.len());
    for &shards in shard_counts {
        let mut index = GeodabIndex::new(GeodabConfig::default());
        index.insert_batch(items.clone());
        let config = ServerConfig::builder()
            .shards(shards)
            .mux_workers(workers)
            .build()
            .map_err(|e| e.to_string())?;
        let running = Server::bind("127.0.0.1:0", index, config)
            .map_err(|e| format!("binding loopback at {shards} shard(s): {e}"))?
            .spawn();
        let addr = running.addr().to_string();

        let quiet = LoadClient::new(addr.clone(), queries.clone(), options)
            .expect_results(expected.clone())
            .run(connections, duration)
            .map_err(|e| format!("quiet load run at {shards} shard(s): {e}"))?;

        // Under-ingest point: one writer streams fresh trajectories
        // while the readers run. Rankings legitimately shift as the
        // corpus grows, so this point measures latency, not identity.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (under, ingested) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| -> Result<u64, String> {
                let mut client = Client::connect(addr.as_str())
                    .map_err(|e| format!("ingest client connect: {e}"))?;
                let records = dataset.records();
                let mut pushed = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let record = &records[(pushed as usize) % records.len()];
                    client
                        .insert(
                            TrajId::new(MULTICORE_INGEST_ID_BASE + pushed as u32),
                            &record.trajectory,
                        )
                        .map_err(|e| format!("concurrent ingest insert: {e}"))?;
                    pushed += 1;
                }
                Ok(pushed)
            });
            let under = LoadClient::new(addr.clone(), queries.clone(), options)
                .run(connections, duration)
                .map_err(|e| format!("under-ingest load run at {shards} shard(s): {e}"));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            match writer.join() {
                Ok(Ok(pushed)) => (under, pushed),
                Ok(Err(e)) => (under.and(Err(e)), 0),
                Err(_) => (under.and(Err("ingest thread panicked".to_string())), 0),
            }
        });
        let under_ingest = under?;

        running
            .shutdown()
            .map_err(|e| format!("server shutdown at {shards} shard(s): {e}"))?;
        points.push(MulticorePoint {
            shards,
            quiet,
            under_ingest,
            ingested,
        });
    }

    Ok(MulticoreReport {
        scenario: scenario.clone(),
        trajectories: dataset.records().len(),
        query_limit,
        connections,
        points,
    })
}

/// Zipf exponent of the skewed scenario's query distribution. At 1.2
/// over 40 distinct queries the hottest key takes roughly a third of
/// the stream — the hot-key shape measured in production key-value and
/// query traces.
pub const SKEWED_ZIPF_EXPONENT: f64 = 1.2;

/// Zipf-draws per distinct query when expanding the request stream.
const SKEWED_STREAM_FACTOR: usize = 8;

/// SplitMix64 step — the tiny deterministic PRNG behind the Zipf draws
/// (the vendored `rand` exposes no distributions, so the inverse-CDF
/// sampling is done by hand).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws `count` Zipf(`exponent`)-distributed ranks in `0..n` by
/// inverse-CDF over the precomputed cumulative weights. Deterministic
/// given the seed; rank 0 is the hottest key.
fn zipf_ranks(n: usize, exponent: f64, count: usize, seed: u64) -> Vec<usize> {
    assert!(n > 0, "zipf over an empty domain");
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for rank in 0..n {
        total += 1.0 / ((rank + 1) as f64).powf(exponent);
        cumulative.push(total);
    }
    let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
    (0..count)
        .map(|_| {
            // 53 random bits → uniform f64 in [0, 1).
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let target = u * total;
            cumulative.partition_point(|&c| c <= target).min(n - 1)
        })
        .collect()
}

/// Everything one skewed-workload run measured: client-observed
/// throughput and latency per connection count when the request stream
/// follows a Zipf hot-key distribution over the scenario's queries.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewedReport {
    /// The workload scenario supplying corpus and queries.
    pub scenario: Scenario,
    /// The served backend's name.
    pub backend: String,
    /// Trajectories held by the server.
    pub trajectories: usize,
    /// Result cap used for all queries.
    pub query_limit: usize,
    /// Whether responses were verified against in-process rankings.
    pub verified: bool,
    /// The Zipf exponent shaping the stream.
    pub zipf_exponent: f64,
    /// Distinct queries behind the stream.
    pub distinct_queries: usize,
    /// Requests in the expanded stream the clients cycle over.
    pub stream_length: usize,
    /// Fraction of the stream taken by the single hottest query.
    pub hot_query_share: f64,
    /// One load point per measured connection count.
    pub points: Vec<LoadRun>,
}

impl SkewedReport {
    /// The canonical report file name: `BENCH_skewed.json`.
    pub fn file_name(&self) -> String {
        "BENCH_skewed.json".to_string()
    }

    /// Whether every response matched and every connection survived.
    pub fn consistent(&self) -> bool {
        self.points.iter().all(|p| p.mismatches == 0)
    }

    /// Serializes the report. The `kind` field marks the shape, so the
    /// ingest perf gate rejects a skewed report as a baseline.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("kind", Json::Str("skewed".into())),
            ("scenario", Json::Str(self.scenario.name.clone())),
            ("preset", Json::Str(self.scenario.preset.name().into())),
            ("seed", Json::Num(self.scenario.seed as f64)),
            ("backend", Json::Str(self.backend.clone())),
            (
                "corpus",
                Json::obj(vec![("trajectories", Json::Num(self.trajectories as f64))]),
            ),
            (
                "skew",
                Json::obj(vec![
                    ("zipf_exponent", Json::Num(self.zipf_exponent)),
                    ("distinct_queries", Json::Num(self.distinct_queries as f64)),
                    ("stream_length", Json::Num(self.stream_length as f64)),
                    ("hot_query_share", Json::Num(round6(self.hot_query_share))),
                ]),
            ),
            (
                "query",
                Json::obj(vec![
                    ("limit", Json::Num(self.query_limit as f64)),
                    ("verified", Json::Bool(self.verified)),
                    ("consistent", Json::Bool(self.consistent())),
                ]),
            ),
            (
                "connections",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("connections", Json::Num(p.connections as f64)),
                                ("requests", Json::Num(p.requests as f64)),
                                ("mismatches", Json::Num(p.mismatches as f64)),
                                ("seconds", Json::Num(round6(p.seconds))),
                                ("qps", Json::Num(round3(p.qps))),
                                (
                                    "latency_ms",
                                    Json::obj(vec![
                                        ("p50", Json::Num(round6(p.p50_ms))),
                                        ("p95", Json::Num(round6(p.p95_ms))),
                                        ("p99", Json::Num(round6(p.p99_ms))),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs the skewed-workload scenario end to end on loopback: ingest the
/// corpus, serve it, then drive the connection ladder with a request
/// stream whose query frequencies follow Zipf([`SKEWED_ZIPF_EXPONENT`])
/// over the scenario's queries — hammering the hot posting lists the way
/// real query logs do, every response verified bit-identical against the
/// in-process ranking. The clients cycle over a pre-expanded stream of
/// 8 × queries Zipf draws, so stream frequency
/// equals request frequency.
///
/// # Errors
///
/// Bind/connection failures, or any response mismatch.
pub fn run_skewed(
    scenario: &Scenario,
    max_connections: usize,
    seconds_per_point: f64,
) -> Result<SkewedReport, String> {
    let dataset = generate(scenario);
    let items: Vec<(TrajId, &Trajectory)> = dataset
        .records()
        .iter()
        .map(|r| (r.id, &r.trajectory))
        .collect();
    let mut index = AnyIndex::empty("geodab", 0, 0)?;
    index.insert_batch(items);
    let trajectories = TrajectoryIndex::len(&index);
    let backend = index.backend_name().to_string();

    let query_limit = VERIFY_LIMIT;
    let options = SearchOptions::default().limit(query_limit);
    let distinct: Vec<Trajectory> = dataset
        .queries()
        .iter()
        .map(|q| q.trajectory.clone())
        .collect();
    if distinct.is_empty() {
        return Err("the skewed scenario needs at least one query".to_string());
    }
    let answers: Vec<Vec<SearchResult>> = distinct
        .iter()
        .map(|q| TrajectoryIndex::search(&index, q, &options))
        .collect();

    // Expand the Zipf draws into the stream the clients round-robin
    // over; matching expected answers keep per-response verification.
    let ranks = zipf_ranks(
        distinct.len(),
        SKEWED_ZIPF_EXPONENT,
        distinct.len() * SKEWED_STREAM_FACTOR,
        scenario.seed,
    );
    let stream: Vec<Trajectory> = ranks.iter().map(|&r| distinct[r].clone()).collect();
    let expected: Vec<Vec<SearchResult>> = ranks.iter().map(|&r| answers[r].clone()).collect();
    let hottest = ranks.iter().filter(|&&r| r == 0).count();
    let hot_query_share = hottest as f64 / ranks.len() as f64;

    let config = ServerConfig::builder()
        .mux_workers(geodabs_index::batch::default_threads())
        .build()
        .map_err(|e| e.to_string())?;
    let server =
        Server::bind("127.0.0.1:0", index, config).map_err(|e| format!("binding loopback: {e}"))?;
    let running = server.spawn();
    let ladder = thread_ladder(max_connections);
    let points = run_load_ladder(
        &running.addr().to_string(),
        stream,
        options,
        Some(expected),
        &ladder,
        seconds_per_point,
    );
    running
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    Ok(SkewedReport {
        scenario: scenario.clone(),
        backend,
        trajectories,
        query_limit,
        verified: true,
        zipf_exponent: SKEWED_ZIPF_EXPONENT,
        distinct_queries: distinct.len(),
        stream_length: ranks.len(),
        hot_query_share,
        points: points?,
    })
}

/// The CI perf gate's verdict: current vs baseline batch-ingest
/// throughput, with the allowed regression applied.
#[derive(Debug, Clone, PartialEq)]
pub struct GateVerdict {
    /// Best ingest throughput of the fresh run, trajectories/second.
    pub current: f64,
    /// Best ingest throughput recorded in the baseline file.
    pub baseline: f64,
    /// The floor the current run must clear:
    /// `baseline × (1 − max_regress_pct/100)`.
    pub floor: f64,
    /// p95 query latency of the fresh run, milliseconds.
    pub latency_p95: f64,
    /// Baseline p95 latency, when the baseline records one (older or
    /// hand-written baselines may not; the latency check is skipped
    /// then).
    pub latency_baseline_p95: Option<f64>,
    /// The ceiling the current p95 must stay under:
    /// `baseline_p95 × (1 + max_regress_pct/100)`.
    pub latency_ceiling: Option<f64>,
    /// Whether the gate passes: throughput at or above the floor **and**
    /// — when the baseline records latency — p95 at or under the
    /// ceiling.
    pub pass: bool,
}

/// The fields of a baseline `BENCH_*.json` the gate consumes.
struct BaselineData {
    scenario: String,
    seed: f64,
    best_ingest: f64,
    latency_p95: Option<f64>,
}

fn parse_baseline(baseline_text: &str) -> Result<BaselineData, String> {
    let baseline = Json::parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let version = baseline
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("baseline: missing schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "baseline schema version {version} != supported {SCHEMA_VERSION}; re-baseline"
        ));
    }
    let scenario = baseline
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or("baseline: missing scenario")?;
    let seed = baseline
        .get("seed")
        .and_then(Json::as_f64)
        .ok_or("baseline: missing seed")?;
    let runs = baseline
        .get("ingest")
        .and_then(|i| i.get("runs"))
        .and_then(Json::as_array)
        .ok_or("baseline: missing ingest.runs")?;
    let best_ingest = runs
        .iter()
        .filter_map(|r| r.get("traj_per_sec").and_then(Json::as_f64))
        .fold(f64::NAN, f64::max);
    if !best_ingest.is_finite() || best_ingest <= 0.0 {
        return Err("baseline: no positive ingest.runs[].traj_per_sec".into());
    }
    // Latency is optional so minimal or pre-p95 baselines stay usable;
    // when present it must be a sane positive number.
    let latency_p95 = baseline
        .get("query")
        .and_then(|q| q.get("latency_ms"))
        .and_then(|l| l.get("p95"))
        .and_then(Json::as_f64);
    if let Some(p95) = latency_p95 {
        if !p95.is_finite() || p95 <= 0.0 {
            return Err("baseline: query.latency_ms.p95 must be positive".into());
        }
    }
    Ok(BaselineData {
        scenario: scenario.to_string(),
        seed,
        best_ingest,
        latency_p95,
    })
}

fn validate_gate(
    scenario: &Scenario,
    data: &BaselineData,
    max_regress_pct: f64,
) -> Result<(), String> {
    if data.scenario != scenario.name {
        return Err(format!(
            "baseline is for scenario {:?}, this run is {:?}",
            data.scenario, scenario.name
        ));
    }
    // A different seed generates a different corpus; its throughput is
    // not comparable, so the gate verdict would be meaningless.
    if data.seed != scenario.seed as f64 {
        return Err(format!(
            "baseline was measured with seed {}, this run used seed {} — \
             not the same workload",
            data.seed, scenario.seed
        ));
    }
    if !(0.0..100.0).contains(&max_regress_pct) {
        return Err(format!(
            "max regression must be in 0..100 percent (got {max_regress_pct}); \
             100% or more would make the gate vacuous"
        ));
    }
    Ok(())
}

/// Validates gate inputs **before** a (possibly minutes-long) scenario
/// run: the baseline must parse, match the scenario's name and seed, and
/// the allowed regression must be a sane percentage. Input errors fail
/// in milliseconds instead of after the measurement.
///
/// # Errors
///
/// Returns the same messages [`check_gate`] would for bad inputs.
pub fn preflight_gate(
    scenario: &Scenario,
    baseline_text: &str,
    max_regress_pct: f64,
) -> Result<(), String> {
    validate_gate(scenario, &parse_baseline(baseline_text)?, max_regress_pct)
}

/// Compares a fresh report against a checked-in baseline `BENCH_*.json`
/// (any report emitted by this harness is a valid baseline). The gate
/// fails when the best batch-ingest throughput drops more than
/// `max_regress_pct` percent below the baseline's, or — when the
/// baseline records query latency — when the fresh p95 rises more than
/// `max_regress_pct` percent above the baseline's.
///
/// # Errors
///
/// Returns a message when the baseline is unparsable, has a different
/// schema version, names a different scenario or seed, or the allowed
/// regression is outside `0..100` percent.
pub fn check_gate(
    report: &WorkloadReport,
    baseline_text: &str,
    max_regress_pct: f64,
) -> Result<GateVerdict, String> {
    let data = parse_baseline(baseline_text)?;
    validate_gate(&report.scenario, &data, max_regress_pct)?;
    let current = report.best_ingest_throughput();
    let floor = data.best_ingest * (1.0 - max_regress_pct / 100.0);
    let latency_p95 = report.latency.p95;
    let latency_ceiling = data
        .latency_p95
        .map(|p95| p95 * (1.0 + max_regress_pct / 100.0));
    let latency_pass = latency_ceiling.is_none_or(|ceiling| latency_p95 <= ceiling);
    Ok(GateVerdict {
        current,
        baseline: data.best_ingest,
        floor,
        latency_p95,
        latency_baseline_p95: data.latency_p95,
        latency_ceiling,
        pass: current >= floor && latency_pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_cover_the_presets_and_sizes() {
        let scenarios = catalog();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate scenario names");
        for required in [
            "smoke",
            "micro",
            "dense-urban-1k",
            "dense-urban-10k",
            "dense-urban-100k",
            "sparse-rural-1k",
            "road-matched-1k",
            "mixed-length-1k",
        ] {
            assert!(find(required).is_some(), "missing scenario {required}");
        }
    }

    #[test]
    fn presets_hit_their_corpus_targets() {
        for preset in [
            Preset::DenseUrban,
            Preset::SparseRural,
            Preset::RoadMatched,
            Preset::MixedLength,
        ] {
            for corpus in [1_000usize, 10_000] {
                let cfg = preset.dataset(corpus, 10);
                let produced = cfg.routes * cfg.per_direction * 2;
                assert_eq!(produced, corpus, "{} at {corpus}", preset.name());
            }
        }
    }

    #[test]
    fn thread_ladder_caps_and_includes_max() {
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(2), vec![1, 2]);
        assert_eq!(thread_ladder(4), vec![1, 2, 4]);
        assert_eq!(thread_ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_ladder(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_ladder(0), vec![1], "zero clamps to one");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 95.0), 95.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn micro_scenario_runs_and_serializes_a_valid_report() {
        let scenario = find("micro").expect("catalog has micro");
        let report = run_scenario(&scenario, &[1, 2]);
        assert_eq!(report.trajectories, 40);
        assert!(report.ingest_consistent);
        assert_eq!(report.ingest.len(), 2);
        assert!(report.best_ingest_throughput() > 0.0);
        assert!(report.latency.p50 <= report.latency.p95);
        assert!(report.latency.p95 <= report.latency.p99);
        assert!(report.latency.p99 <= report.latency.max);
        // The emitted JSON parses back and carries the schema markers the
        // gate checks.
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).expect("report is valid JSON");
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(parsed.get("scenario").and_then(Json::as_str), Some("micro"));
        assert_eq!(report.file_name(), "BENCH_micro.json");
    }

    #[test]
    fn cold_start_scenario_is_in_the_catalog() {
        let scenario = find(COLD_START).expect("catalog has cold-start");
        assert_eq!(scenario.preset, Preset::DenseUrban);
        assert_eq!(scenario.corpus, 10_000);
    }

    #[test]
    fn cold_start_runs_and_serializes_a_valid_report() {
        // A scaled-down twin of the real scenario so the test suite stays
        // fast; the CLI runs the 10k catalog entry.
        let scenario = Scenario {
            name: "cold-start".into(),
            preset: Preset::DenseUrban,
            corpus: 60,
            queries: 6,
            seed: 7,
        };
        let report = run_cold_start(&scenario, 2);
        assert_eq!(report.trajectories, 60);
        assert!(report.consistent, "restored index must answer identically");
        assert!(report.snapshot_bytes > 0);
        assert!(report.save_seconds >= 0.0 && report.load_seconds >= 0.0);
        assert!(report.restore_speedup > 0.0);
        assert!(report.save_mb_per_s() > 0.0);
        assert!(report.load_mb_per_s() > 0.0);
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).expect("report is valid JSON");
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some("cold-start")
        );
        assert_eq!(
            parsed
                .get("snapshot")
                .and_then(|s| s.get("consistent"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(report.file_name(), "BENCH_cold-start.json");
        // A cold-start report is not a valid ingest-gate baseline.
        let scenario = find("micro").unwrap();
        let workload_report = run_scenario(&scenario, &[1]);
        assert!(check_gate(&workload_report, &text, 30.0).is_err());
    }

    #[test]
    fn serve_scenario_is_in_the_catalog() {
        let scenario = find(SERVE).expect("catalog has serve");
        assert_eq!(scenario.preset, Preset::DenseUrban);
        assert_eq!(scenario.corpus, 2_000);
    }

    #[test]
    fn any_index_roundtrips_snapshots_and_verifies_against_rebuild() {
        let scenario = find("micro").expect("catalog has micro");
        let dataset = generate(&scenario);
        let items: Vec<(TrajId, &Trajectory)> = dataset
            .records()
            .iter()
            .map(|r| (r.id, &r.trajectory))
            .collect();
        for backend in ["geodab", "geohash", "cluster"] {
            let mut index = AnyIndex::empty(backend, 1_000, 3).expect("known backend");
            index.insert_batch(items.clone());
            assert_eq!(index.backend_name(), backend);
            assert_eq!(TrajectoryIndex::len(&index), 40);
            assert_eq!(TrajectoryIndex::ids(&index).count(), 40);

            // Snapshot → AnyIndex round trip picks the right backend…
            let restored = AnyIndex::from_snapshot(&index.to_snapshot()).expect("roundtrip");
            assert_eq!(restored.backend_name(), backend);
            assert_eq!(restored.term_count(), index.term_count());

            // …and the shared verification replay passes on it.
            let checked = verify_against_rebuild(&restored, &scenario).expect("verify");
            assert_eq!(checked, dataset.queries().len());
        }
        // The node backend is sliced from a cluster ingest, not built by
        // `empty`; the verification replay covers its snapshot too.
        let mut cluster = ClusterIndex::new(GeodabConfig::default(), 1_000, 2).unwrap();
        cluster.insert_batch(items);
        let bytes = cluster.shard_node(0).unwrap().to_snapshot();
        let node = AnyIndex::from_snapshot(&bytes).expect("node snapshot loads");
        verify_against_rebuild(&node, &scenario).expect("verify node");

        assert!(AnyIndex::empty("warp", 1, 1).is_err());
        assert!(AnyIndex::from_snapshot(b"garbage").is_err());
    }

    #[test]
    fn verify_against_rebuild_detects_divergence() {
        let scenario = find("micro").expect("catalog has micro");
        let dataset = generate(&scenario);
        let mut index = AnyIndex::empty("geodab", 0, 0).unwrap();
        let items: Vec<(TrajId, &Trajectory)> = dataset
            .records()
            .iter()
            .map(|r| (r.id, &r.trajectory))
            .collect();
        index.insert_batch(items);
        // Drop one trajectory: the rebuild must notice the shape drift.
        let some_id = TrajectoryIndex::ids(&index).next().unwrap();
        TrajectoryIndex::remove(&mut index, some_id);
        let err = verify_against_rebuild(&index, &scenario).unwrap_err();
        assert!(err.contains("shape differs"), "{err}");
    }

    #[test]
    fn serve_runner_reports_verified_consistent_traffic() {
        // A scaled-down twin of the catalog scenario so the test suite
        // stays fast; the CLI runs the 2k catalog entry.
        let scenario = Scenario {
            name: SERVE.into(),
            preset: Preset::DenseUrban,
            corpus: 40,
            queries: 4,
            seed: 7,
        };
        let report = run_serve(&scenario, 2, 0.1).expect("serve run");
        assert_eq!(report.backend, "geodab");
        assert_eq!(report.trajectories, 40);
        assert!(report.verified);
        assert!(report.consistent(), "{report:?}");
        assert_eq!(report.points.len(), thread_ladder(2).len());
        for point in &report.points {
            assert!(point.requests > 0, "{point:?}");
            assert!(point.qps > 0.0);
            assert!(point.p50_ms <= point.p95_ms && point.p95_ms <= point.p99_ms);
        }
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("serve"));
        assert_eq!(
            parsed
                .get("query")
                .and_then(|q| q.get("consistent"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(report.file_name(), "BENCH_serve.json");
        // A serve report is not a valid ingest-gate baseline.
        let micro = find("micro").unwrap();
        let workload_report = run_scenario(&micro, &[1]);
        assert!(check_gate(&workload_report, &text, 30.0).is_err());
    }

    #[test]
    fn distributed_scenario_is_in_the_catalog() {
        let scenario = find(DISTRIBUTED).expect("catalog has distributed");
        assert_eq!(scenario.preset, Preset::DenseUrban);
        assert_eq!(scenario.corpus, 2_000);
    }

    #[test]
    fn distributed_runner_matches_the_monolith_at_every_shard_count() {
        // A scaled-down twin of the catalog scenario so the test suite
        // stays fast; the CLI runs the 2k catalog entry.
        let scenario = Scenario {
            name: DISTRIBUTED.into(),
            preset: Preset::DenseUrban,
            corpus: 40,
            queries: 4,
            seed: 7,
        };
        let report = run_distributed(&scenario, &[1, 2], 2, 0.1).expect("distributed run");
        assert_eq!(report.trajectories, 40);
        assert_eq!(report.num_shards, DISTRIBUTED_NUM_SHARDS);
        assert!(report.consistent(), "{report:?}");
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            assert!(point.load.requests > 0, "{point:?}");
            assert_eq!(point.load.mismatches, 0, "{point:?}");
        }
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some("distributed")
        );
        assert_eq!(
            parsed
                .get("query")
                .and_then(|q| q.get("consistent"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(report.file_name(), "BENCH_distributed.json");
        // A distributed report is not a valid ingest-gate baseline.
        assert!(preflight_gate(&scenario, &text, 30.0).is_err());
    }

    #[test]
    fn multicore_runner_stays_consistent_quiet_and_under_ingest() {
        // A scaled-down twin of the catalog scenario so the test suite
        // stays fast; the CLI runs the 2k catalog entry.
        let scenario = Scenario {
            name: MULTICORE.into(),
            preset: Preset::DenseUrban,
            corpus: 40,
            queries: 4,
            seed: 7,
        };
        let report = run_multicore(&scenario, &[1, 2], 2, 0.1).expect("multicore run");
        assert_eq!(report.trajectories, 40);
        assert!(report.consistent(), "{report:?}");
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.points[0].shards, 1);
        assert_eq!(report.points[1].shards, 2);
        for point in &report.points {
            assert!(point.quiet.requests > 0, "{point:?}");
            assert!(point.under_ingest.requests > 0, "{point:?}");
            assert_eq!(point.quiet.mismatches, 0, "{point:?}");
            assert_eq!(point.under_ingest.mismatches, 0, "{point:?}");
            assert!(point.ingested > 0, "the writer made progress: {point:?}");
        }
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("multicore"));
        assert_eq!(report.file_name(), "BENCH_multicore.json");
        // A multicore report is not a valid ingest-gate baseline.
        assert!(preflight_gate(&scenario, &text, 30.0).is_err());
    }

    #[test]
    fn multicore_scenario_is_in_the_catalog() {
        let scenario = find(MULTICORE).expect("catalog has multicore");
        assert_eq!(scenario.preset, Preset::DenseUrban);
        assert_eq!(scenario.corpus, 2_000);
    }

    #[test]
    fn zipf_ranks_are_deterministic_and_head_heavy() {
        let ranks = zipf_ranks(40, SKEWED_ZIPF_EXPONENT, 320, 7);
        assert_eq!(ranks, zipf_ranks(40, SKEWED_ZIPF_EXPONENT, 320, 7));
        assert_ne!(ranks, zipf_ranks(40, SKEWED_ZIPF_EXPONENT, 320, 8));
        assert!(ranks.iter().all(|&r| r < 40));
        // Rank 0 must dominate any single tail rank by a wide margin.
        let hot = ranks.iter().filter(|&&r| r == 0).count();
        let cold = ranks.iter().filter(|&&r| r >= 20).count();
        assert!(hot > 320 / 10, "hot key drew {hot} of 320");
        assert!(hot > cold / 2, "hot {hot} vs tail half {cold}");
    }

    #[test]
    fn skewed_runner_reports_verified_consistent_traffic() {
        // A scaled-down twin of the catalog scenario so the test suite
        // stays fast; the CLI runs the 2k catalog entry.
        let scenario = Scenario {
            name: SKEWED.into(),
            preset: Preset::DenseUrban,
            corpus: 40,
            queries: 4,
            seed: 7,
        };
        let report = run_skewed(&scenario, 2, 0.1).expect("skewed run");
        assert_eq!(report.backend, "geodab");
        assert_eq!(report.trajectories, 40);
        assert!(report.verified);
        assert!(report.consistent(), "{report:?}");
        assert_eq!(report.distinct_queries, 4);
        assert_eq!(report.stream_length, 4 * 8);
        assert!(report.hot_query_share > 0.25, "{report:?}");
        assert_eq!(report.points.len(), thread_ladder(2).len());
        for point in &report.points {
            assert!(point.requests > 0, "{point:?}");
            assert!(point.qps > 0.0);
            assert!(point.p50_ms <= point.p95_ms && point.p95_ms <= point.p99_ms);
        }
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("skewed"));
        assert_eq!(
            parsed
                .get("skew")
                .and_then(|s| s.get("distinct_queries"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            parsed
                .get("query")
                .and_then(|q| q.get("consistent"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(report.file_name(), "BENCH_skewed.json");
        // A skewed report is not a valid ingest-gate baseline.
        assert!(preflight_gate(&scenario, &text, 30.0).is_err());
    }

    #[test]
    fn skewed_scenario_is_in_the_catalog() {
        let scenario = find(SKEWED).expect("catalog has skewed");
        assert_eq!(scenario.preset, Preset::DenseUrban);
        assert_eq!(scenario.corpus, 2_000);
    }

    #[test]
    fn latency_gate_checks_p95_against_the_baseline() {
        let scenario = find("micro").expect("catalog has micro");
        let report = run_scenario(&scenario, &[1]);
        let own = report.to_json().pretty();

        // Against its own numbers both checks pass and the ceiling is
        // recorded.
        let verdict = check_gate(&report, &own, 30.0).expect("valid baseline");
        assert!(verdict.pass);
        let baseline_p95 = verdict.latency_baseline_p95.expect("baseline has p95");
        assert!((verdict.latency_ceiling.unwrap() - baseline_p95 * 1.3).abs() < 1e-9);

        // An impossibly fast baseline p95 fails the latency check even
        // with throughput far above the floor.
        let tight = r#"{"schema_version": 1, "scenario": "micro", "seed": 7,
                        "ingest": {"runs": [{"threads": 1, "traj_per_sec": 0.001}]},
                        "query": {"latency_ms": {"p95": 1e-12}}}"#;
        let verdict = check_gate(&report, tight, 30.0).expect("valid baseline");
        assert!(!verdict.pass, "{verdict:?}");
        assert!(verdict.current >= verdict.floor, "throughput was fine");
        assert!(verdict.latency_p95 > verdict.latency_ceiling.unwrap());

        // A baseline without latency skips the check (still gating
        // throughput).
        let no_latency = r#"{"schema_version": 1, "scenario": "micro", "seed": 7,
                             "ingest": {"runs": [{"threads": 1, "traj_per_sec": 0.001}]}}"#;
        let verdict = check_gate(&report, no_latency, 30.0).expect("valid baseline");
        assert!(verdict.pass);
        assert!(verdict.latency_baseline_p95.is_none());
        assert!(verdict.latency_ceiling.is_none());

        // A garbage p95 is rejected in parsing, not silently ignored.
        let bad = no_latency.replace(
            r#""ingest""#,
            r#""query": {"latency_ms": {"p95": -3}}, "ingest""#,
        );
        assert!(check_gate(&report, &bad, 30.0).unwrap_err().contains("p95"));
    }

    #[test]
    fn durability_run_measures_acks_recovery_and_compaction() {
        let scenario = find(DURABILITY).expect("catalog has durability");
        // Micro-sized: 8 acked inserts per policy and ~0.3 s per
        // compaction phase keep the test well under test-suite budget.
        let report = run_durability(&scenario, 8, 0.3).expect("durability run");
        assert_eq!(report.backend, "geodab");
        assert_eq!(report.acks.len(), 3, "{:?}", report.acks);
        let policies: Vec<&str> = report.acks.iter().map(|a| a.policy.as_str()).collect();
        assert_eq!(policies, ["always", "interval:5", "never"]);
        for run in &report.acks {
            assert_eq!(run.inserts, 8);
            assert!(run.acks_per_sec > 0.0, "{run:?}");
            assert!(
                run.p50_ms <= run.p95_ms && run.p95_ms <= run.p99_ms,
                "{run:?}"
            );
        }
        // Zero acked-write loss through the replay path…
        assert_eq!(report.replayed_records, 8);
        assert_eq!(report.recovered_trajectories, 8);
        // …and the compactor provably ran while queries flowed.
        assert!(report.compacted_watermark > 0, "{report:?}");
        assert!(report.baseline_query_p95_ms > 0.0);
        assert!(report.compacting_query_p95_ms > 0.0);
        assert!(report.consistent, "{report:?}");

        // The serialized report is machine-readable and shape-marked.
        let json = report.to_json();
        let text = json.pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some("durability")
        );
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(
            parsed
                .get("recovery")
                .and_then(|r| r.get("records"))
                .and_then(Json::as_f64),
            Some(8.0)
        );
        assert_eq!(report.file_name(), "BENCH_durability.json");

        // The ingest perf gate must reject a durability report as a
        // baseline instead of misreading its numbers.
        assert!(preflight_gate(&scenario, &text, 30.0).is_err());
    }

    #[test]
    fn gate_passes_within_allowance_and_fails_beyond_it() {
        let scenario = find("micro").expect("catalog has micro");
        let report = run_scenario(&scenario, &[1]);
        let own = report.to_json().pretty();
        // A run always clears a gate against its own numbers.
        let verdict = check_gate(&report, &own, 30.0).expect("own report is a valid baseline");
        assert!(verdict.pass);
        // The serialized baseline rounds to 3 decimals.
        assert!((verdict.current - verdict.baseline).abs() < 0.01);

        // An impossibly fast baseline fails the gate…
        let inflated = r#"{"schema_version": 1, "scenario": "micro", "seed": 7,
                           "ingest": {"runs": [{"threads": 1, "traj_per_sec": 1e12}]}}"#;
        let verdict = check_gate(&report, inflated, 30.0).expect("valid baseline");
        assert!(!verdict.pass, "{verdict:?}");
        assert!(verdict.floor > verdict.current);

        // …and malformed baselines are reported, not panicked on.
        assert!(check_gate(&report, "not json", 30.0).is_err());
        assert!(check_gate(&report, "{}", 30.0).is_err());
        let wrong = own.replace("\"micro\"", "\"smoke\"");
        assert!(check_gate(&report, &wrong, 30.0)
            .unwrap_err()
            .contains("scenario"));
        let wrong_version = own.replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(check_gate(&report, &wrong_version, 30.0)
            .unwrap_err()
            .contains("schema version"));
        // A baseline measured on a different workload (other seed) is not
        // comparable and must be rejected rather than gated against.
        let other_seed = own.replace("\"seed\": 7", "\"seed\": 8");
        assert!(check_gate(&report, &other_seed, 30.0)
            .unwrap_err()
            .contains("seed"));
        // Allowances of 100% or more would make the gate vacuous
        // (zero or negative floor): reject them.
        for pct in [100.0, 300.0, -5.0] {
            assert!(check_gate(&report, &own, pct)
                .unwrap_err()
                .contains("max regression"));
        }
    }
}
