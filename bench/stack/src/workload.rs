//! The four workloads: set-up, timed phases (tracing off), the optional
//! traced pass, and the checks that every output was correct.

use crate::corpus::{self, Corpus};
use crate::deploy::{self, Deployment};
use crate::layers;
use crate::load::{self, QuerySet, ReadTally, WriteTally};
use crate::report::Report;
use crate::stats::{self, ns_to_us};
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::store::{self, Persist};
use geodabs_index::{GeodabIndex, TrajectoryIndex};
use geodabs_serve::WAL_SNAPSHOT_FILE;
use geodabs_wal::{Wal, WalOp};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What serves the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `Server<GeodabIndex>`.
    Monolith,
    /// `Frontend` over two `Server<ShardNode>`.
    Scatter,
    /// `Server<GeodabIndex>` with a write-ahead log.
    Durable,
}

pub struct Plan {
    pub name: &'static str,
    pub trajectories: usize,
    pub topology: Topology,
    /// Set-ups per run; `setup_s` is the median over them and
    /// `client.build_traj_per_s` their best. Small corpora set up in a fraction of a second, which
    /// one sample cannot pin; the 100k corpora take long enough alone.
    pub setup_repeats: usize,
}

pub const PLANS: [Plan; 4] = [
    Plan {
        name: "wire-2k",
        trajectories: 2_000,
        topology: Topology::Monolith,
        setup_repeats: 9,
    },
    Plan {
        name: "dense-100k",
        trajectories: 100_000,
        topology: Topology::Monolith,
        setup_repeats: 1,
    },
    Plan {
        name: "scatter-2n",
        trajectories: 20_000,
        topology: Topology::Scatter,
        setup_repeats: 1,
    },
    Plan {
        name: "mixed-rw",
        trajectories: 10_000,
        topology: Topology::Durable,
        setup_repeats: 3,
    },
];

pub fn plan(name: &str) -> Option<&'static Plan> {
    PLANS.iter().find(|p| p.name == name)
}

/// How one invocation runs a workload.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Total length of the timed phases.
    pub seconds: f64,
    pub trace: bool,
    /// Corpus / 50 and short warm-ups: a smoke run, not a measurement.
    pub quick: bool,
    pub out: PathBuf,
}

/// Threads of the one bulk build (`insert_batch_threads(items, 2)`).
const BUILD_THREADS: usize = 2;

/// The durable server folds its log this often, so the 3 s write phase
/// of a default run sees about four compactions.
const COMPACT_EVERY: Duration = Duration::from_millis(700);

/// Shares of `--seconds`: one connection for latency, two for
/// throughput, and the rest for the paced writer.
const LATENCY_SHARE: f64 = 0.5;
const THROUGHPUT_SHARE: f64 = 0.2;

struct Fixture {
    corpus: Corpus,
    deployment: Deployment,
    build: Duration,
    wal_dir: Option<PathBuf>,
}

fn io_err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Everything before the first warm-up request: corpus generation, the
/// oracle, the bulk build, and binding the servers.
fn setup(plan: &Plan, options: &Options) -> Result<Fixture, String> {
    let trajectories = if options.quick {
        plan.trajectories / 50
    } else {
        plan.trajectories
    };
    let corpus = Corpus::generate(trajectories, options.seed);
    let items = corpus.items();
    let config = GeodabConfig::default();
    let mut wal_dir = None;
    let (deployment, build) = match plan.topology {
        Topology::Monolith | Topology::Durable => {
            let mut index = GeodabIndex::new(config);
            let started = Instant::now();
            index.insert_batch_threads(&items, BUILD_THREADS);
            let build = started.elapsed();
            let deployment = if plan.topology == Topology::Durable {
                let dir = options
                    .out
                    .join(format!("{}-{}-wal", plan.name, options.seed));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).map_err(|e| io_err("creating the wal dir", e))?;
                // The state a restart boots from: the bulk-built index as
                // the watermark-0 snapshot the log suffix replays onto.
                let snapshot = store::with_watermark(&index.to_snapshot(), 0)
                    .map_err(|e| io_err("stamping the boot snapshot", e))?;
                std::fs::write(dir.join(WAL_SNAPSHOT_FILE), snapshot)
                    .map_err(|e| io_err("writing the boot snapshot", e))?;
                let deployment = Deployment::durable(index, &dir, COMPACT_EVERY);
                wal_dir = Some(dir);
                deployment
            } else {
                Deployment::monolith(index)
            };
            (deployment, build)
        }
        Topology::Scatter => {
            let mut cluster = deploy::empty_cluster();
            let started = Instant::now();
            cluster.insert_batch_threads(&items, BUILD_THREADS);
            let build = started.elapsed();
            (Deployment::scatter(deploy::shard_nodes(&cluster)), build)
        }
    };
    Ok(Fixture {
        corpus,
        deployment: deployment.map_err(|e| io_err("binding the servers", e))?,
        build,
        wal_dir,
    })
}

fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The write phase: the open-loop replace writer for `duration`, with
/// one closed-loop reader beside it when `set` is given.
fn write_phase(
    fixture: &Fixture,
    set: Option<QuerySet<'_>>,
    duration: Duration,
) -> (ReadTally, WriteTally) {
    let addr = fixture.deployment.addr;
    let records = fixture.corpus.items();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| load::replace_writer(addr, &records, duration));
        let reads = match set {
            Some(set) => load::closed_loop(addr, set, 1, duration),
            None => ReadTally::default(),
        };
        (reads, writer.join().expect("writer thread panicked"))
    })
}

fn compactions(addr: std::net::SocketAddr) -> Result<u64, String> {
    let report = load::connect(addr)
        .map_err(|e| io_err("connecting for metrics", e))?
        .metrics()
        .map_err(|e| io_err("fetching server metrics", e))?;
    Ok(report.counter("geodabs_compactions_total").unwrap_or(0))
}

/// Whole-phase tail of one sample under the names of `prefix`: the p99
/// and the deepest percentile the sample count supports.
fn record_tail(report: &mut Report, prefix: &str, sorted_ns: &[u64]) {
    report.set(
        &format!("client.{prefix}_p99_us"),
        ns_to_us(stats::percentile(sorted_ns, 99.0)),
    );
    let tail = stats::highest_supported_percentile(sorted_ns.len(), 10);
    report.set(&format!("client.{prefix}_samples"), sorted_ns.len() as f64);
    report.set(&format!("client.{prefix}_tail_pct"), tail);
    report.set(
        &format!("client.{prefix}_tail_us"),
        ns_to_us(stats::percentile(sorted_ns, tail)),
    );
}

/// Restores the durable server's state the way a restart would — the
/// compacted snapshot plus the log suffix beyond its watermark — and
/// checks it against the oracle. Returns `(attempted, failed)`.
fn verify_durability(dir: &Path, corpus: &Corpus, acked: u64) -> Result<(u64, u64), String> {
    let bytes = std::fs::read(dir.join(WAL_SNAPSHOT_FILE))
        .map_err(|e| io_err("reading the compacted snapshot", e))?;
    let watermark = store::watermark(&bytes)
        .map_err(|e| io_err("reading the snapshot watermark", e))?
        .unwrap_or(0);
    let mut index =
        GeodabIndex::from_snapshot(&bytes).map_err(|e| io_err("loading the snapshot", e))?;
    let mut last_seq = watermark;
    for record in Wal::records(dir).map_err(|e| io_err("reading the log", e))? {
        last_seq = last_seq.max(record.seq);
        if record.seq <= watermark {
            continue;
        }
        match record.op {
            WalOp::Insert { id, trajectory } => index.insert(id, &trajectory),
            WalOp::Remove { id } => {
                index.remove(id);
            }
            WalOp::InsertFingerprints { id, terms } => {
                index.insert_fingerprints(id, Fingerprints::from_ordered(terms));
            }
        }
    }
    // Every acknowledged insert appended one record before its ack, so
    // the restored history must be at least as long as the ack count.
    let lost_acks = acked.saturating_sub(last_seq);
    let size_wrong = u64::from(index.len() != corpus.len());
    let options = corpus::search_options();
    let wrong_rankings = corpus
        .queries()
        .iter()
        .zip(&corpus.expected)
        .filter(|(query, expected)| &index.search(query, &options) != *expected)
        .count() as u64;
    Ok((
        acked + 1 + corpus.expected.len() as u64,
        lost_acks + size_wrong + wrong_rankings,
    ))
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// Environment failures (cannot bind, cannot write under `--out`);
/// wrong or failed operations are counted in the report instead.
pub fn run(plan: &Plan, options: &Options) -> Result<Report, String> {
    let mut report = Report::new(plan.name, options.seed);
    std::fs::create_dir_all(&options.out).map_err(|e| io_err("creating --out", e))?;

    let mut setup_s = Vec::with_capacity(plan.setup_repeats);
    let mut build_rate = Vec::with_capacity(plan.setup_repeats);
    let mut fixture = None;
    for _ in 0..plan.setup_repeats {
        // One fixture at a time: the previous servers (and their log
        // directory) are gone before the next set-up starts.
        drop(fixture.take());
        let started = Instant::now();
        let built = setup(plan, options)?;
        setup_s.push(started.elapsed().as_secs_f64());
        build_rate.push(built.corpus.len() as f64 / built.build.as_secs_f64());
        fixture = Some(built);
    }
    let fixture = fixture.expect("at least one set-up per plan");
    report.set("setup_s", stats::median_f64(&mut setup_s));
    report.set(
        "client.build_traj_per_s",
        stats::best(&build_rate, stats::Better::Higher),
    );
    report.set("precision_at_10", fixture.corpus.precision_at_10);
    let rss = rss_mb();

    let queries = fixture.corpus.queries();
    let set = QuerySet {
        queries: &queries,
        expected: &fixture.corpus.expected,
        options: corpus::search_options(),
    };
    let addr = fixture.deployment.addr;
    let warm_up = Duration::from_secs_f64(if options.quick { 0.05 } else { 0.5 });
    let phase = |share: f64| Duration::from_secs_f64(options.seconds * share);
    let compactions_before = compactions(addr)?;

    load::closed_loop(addr, set, 1, warm_up);
    let latency = load::closed_loop(addr, set, 1, phase(LATENCY_SHARE));
    load::closed_loop(addr, set, 2, warm_up);
    let throughput = load::closed_loop(addr, set, 2, phase(THROUGHPUT_SHARE));
    // Reads beside writes is what the durable workload is for. On the
    // others the writer runs alone: a reader beside it saturates the
    // single shard worker of the scatter topology (a 3 ms read between
    // any two writes) and turns insert latency into queue length.
    let beside = (plan.topology == Topology::Durable).then_some(set);
    let write_share = 1.0 - LATENCY_SHARE - THROUGHPUT_SHARE;
    let (rw_reads, mut writes) = write_phase(&fixture, beside, phase(write_share));
    let folded = compactions(addr)? - compactions_before;

    for tally in [&latency, &throughput, &rw_reads] {
        report.attempted += tally.attempted;
        report.failed += tally.failed;
    }
    report.attempted += writes.attempted;
    report.failed += writes.failed;
    let nanos = |share: f64| phase(share).as_nanos() as u64;
    let none_verified = || "a timed phase verified no response at all".to_string();
    let query_p50_us = stats::steady_median_us(&latency.samples, nanos(LATENCY_SHARE))
        .ok_or_else(none_verified)?;
    report.set("query_p50_us", query_p50_us);
    report.set(
        "client.qps",
        stats::steady_rate_per_s(&throughput.samples, nanos(THROUGHPUT_SHARE)),
    );
    report.set(
        "insert_p50_us",
        stats::steady_median_us(&writes.samples, nanos(write_share)).ok_or_else(none_verified)?,
    );
    if let Some(us) = stats::steady_median_us(&rw_reads.samples, nanos(write_share)) {
        report.note("query_p50_us_beside_writer", us);
    }
    for (prefix, samples) in [("query", &latency.samples), ("insert", &writes.samples)] {
        let mut sorted_ns: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
        sorted_ns.sort_unstable();
        record_tail(&mut report, prefix, &sorted_ns);
    }
    report.set("wal.compactions", folded as f64);
    report.set("proc.rss_mb", rss);
    report.set("gen.corpus_s", fixture.corpus.generate.as_secs_f64());
    // Every send is backlogged only when the server is overloaded; an
    // empty sample then reads as zero overshoot.
    writes.lateness_ns.sort_unstable();
    let lateness_p99_us = match writes.lateness_ns.is_empty() {
        true => 0.0,
        false => ns_to_us(stats::percentile(&writes.lateness_ns, 99.0)),
    };
    report.set("gen.lateness_p99_us", lateness_p99_us);
    report.set(
        "gen.backlogged_share",
        writes.backlogged as f64 / writes.attempted as f64,
    );

    report.note("topology", format!("{:?}", plan.topology));
    report.note("trajectories", fixture.corpus.len());
    report.note("queries", corpus::QUERIES);
    report.note("seconds", options.seconds);
    report.note("quick", options.quick);
    report.note("setup_repeats", plan.setup_repeats);
    report.note("writes_per_second", load::WRITES_PER_SECOND);
    report.note(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    report.note(
        "geodabs_metrics",
        std::env::var("GEODABS_METRICS").unwrap_or_else(|_| "on (default)".to_string()),
    );
    if options.trace {
        layers::trace_pass(
            &fixture.corpus,
            &fixture.deployment,
            query_p50_us,
            options,
            &mut report,
        )?;
    }

    let Fixture {
        corpus,
        deployment,
        wal_dir,
        ..
    } = fixture;
    deployment
        .shutdown()
        .map_err(|e| io_err("shutting the servers down", e))?;
    if let Some(dir) = wal_dir {
        let acked = writes.samples.len() as u64;
        let (attempted, failed) = verify_durability(&dir, &corpus, acked)?;
        report.attempted += attempted;
        report.failed += failed;
        std::fs::remove_dir_all(&dir).map_err(|e| io_err("removing the wal dir", e))?;
    }
    Ok(report)
}
