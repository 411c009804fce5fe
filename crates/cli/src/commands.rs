//! The subcommand implementations.

use geodabs_cluster::ShardNode;
use geodabs_core::GeodabConfig;
use geodabs_gen::dataset::{Dataset, DatasetConfig};
use geodabs_gen::world::{WorldActivity, WorldConfig};
use geodabs_index::store::{self, Persist, SnapshotReader};
use geodabs_index::tuning::{hill_climb, TuningSample};
use geodabs_index::{codec, GeodabIndex, SearchOptions, TrajectoryIndex};
use geodabs_roadnet::generators::{grid_network, GridConfig};
use geodabs_roadnet::RoadNetwork;
use geodabs_serve::{recover, AnyIndex, Recovered, ServeBackend, ServerHandle};
use std::collections::HashSet;
use std::error::Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::workload::{self, Scenario};
use crate::Args;

/// Runs the subcommand selected by `args`, writing human-readable output
/// to `out`.
///
/// # Errors
///
/// Propagates flag, I/O, decoding and generation errors.
pub fn run(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    match args.command() {
        "build" => build(args, out),
        "stats" => stats(args, out),
        "search" => search(args, out),
        "tune" => tune(args, out),
        "world" => world(args, out),
        "export" => export(args, out),
        "snapshot" => snapshot(args, out),
        "serve" => serve(args, out),
        "frontend" => frontend(args, out),
        "loadtest" => loadtest(args, out),
        "metrics" => metrics(args, out),
        "wal" => wal(args, out),
        "help" => {
            write!(out, "{}", HELP)?;
            Ok(())
        }
        other => unreachable!("parser rejects unknown command {other}"),
    }
}

/// Usage text.
pub const HELP: &str = "\
geodabs — trajectory indexing with fingerprints (ICDCS 2018 reproduction)

USAGE:
  geodabs build  --out FILE [--routes N] [--per-direction M] [--seed S]
  geodabs stats  --index FILE
  geodabs search --index FILE [--routes N] [--per-direction M] [--seed S]
                 [--query Q] [--limit K]
  geodabs tune   [--routes N] [--seed S] [--steps T]
  geodabs world  [--trajectories N] [--cities C] [--seed S]
  geodabs export --out FILE.csv [--routes N] [--per-direction M] [--seed S]
  geodabs snapshot save    --out FILE [--backend geodab|cluster]
                           [--scenario NAME] [--seed S] [--nodes N] [--shards P]
  geodabs snapshot load    --in FILE [--verify rebuild] [--scenario NAME] [--seed S]
  geodabs snapshot inspect --in FILE [--json]
  geodabs serve    --addr HOST:PORT (--snapshot FILE | --scenario NAME | --wal-dir DIR)
                   [--backend geodab|cluster] [--seed S] [--threads T]
                   [--serve-shards C] [--verify rebuild] [--duration SECS]
                   [--nodes N] [--shards P] [--shard-id I] [--wal-dir DIR]
                   [--sync-policy always|never|interval[:MS]]
                   [--compact-every SECS]
  geodabs frontend --addr HOST:PORT --shards ADDR,ADDR,...
                   [--threads T] [--duration SECS] [--num-shards P]
  geodabs loadtest --addr HOST:PORT [--connections N] [--duration SECS]
                   [--scenario NAME] [--seed S] [--limit K]
                   [--verify local|none] [--server-metrics]
  geodabs metrics  --addr HOST:PORT [--top N] [--text] [--out FILE]
  geodabs wal inspect --dir DIR
  geodabs wal replay  --dir DIR [--out FILE]
                      [--backend geodab|cluster] [--nodes N] [--shards P]
                      [--shard-id I]
  geodabs help

Datasets are synthetic and reproducible: the same (routes, per-direction,
seed) triple always generates the same trajectories, so `search` can
regenerate its query workload against a persisted index. --scenario
names a seed-reproducible corpus (`micro` by default; an unknown name
lists the catalog). This tool checks behaviour; the stack is
benchmarked by the separate `bench/stack` package.

`snapshot save` ingests a scenario's corpus (default: micro) into
the chosen backend and writes a GDAB v2 snapshot; `load` restores it
(any backend, v1 blobs included) and with `--verify rebuild` re-ingests
the same corpus and fails unless both answer every scenario query
identically; `inspect` prints the container header and section table
without materializing the index.

`serve` hosts an index over the binary wire protocol: warm-started from
a GDAB v2 snapshot (--snapshot) or freshly ingested from a scenario
(--scenario), behind a connection multiplexer of T workers
(default: all cores) — each worker sweeps many non-blocking
connections, so T sizes parallelism, not the concurrent-connection
capacity. `--serve-shards C` re-partitions the index at boot into a
cluster of C in-process shard nodes behind the same read-write lock:
a query fans out over the nodes its terms touch and rankings stay
bit-identical to the monolith.
`--verify rebuild` (with --snapshot; a scenario ingest is already a
fresh rebuild) replays the scenario queries against a fresh rebuild
before serving; `--duration` shuts down cleanly after that many
seconds (0 = serve until killed). `loadtest` drives N concurrent
connections against a running server with a scenario's queries for
--duration seconds and — with the default `--verify local` — compares
every response bit-identically against an in-process rebuild, exiting
nonzero on any mismatch or connection error.

`serve --wal-dir` makes the server durable: every Insert/Remove is
appended to a CRC-framed write-ahead log (synced per --sync-policy,
default `always`) before it is acknowledged, and on restart the server
warm-starts from the latest compacted snapshot in the log directory and
replays the log suffix beyond its watermark — acknowledged writes
survive a SIGKILL. With --compact-every the server periodically folds
the log into a fresh watermark-stamped snapshot without blocking
readers. SIGTERM/Ctrl-C flush the log and exit through the clean
shutdown path. `wal inspect` prints the segment table; `wal replay`
reconstructs the state offline (snapshot + log suffix) and with --out
writes it as a compacted snapshot.

`serve --shard-id I --nodes N` hosts shard node I of an N-node cluster:
the node backend keeps the full fingerprint replica of every trajectory
that routes at least one posting here, answers per-shard top-k
sub-queries, and composes with --wal-dir/--snapshot like any other
backend. `frontend` coordinates such shard servers: it fingerprints
each query once, scatters sub-queries to the servers named by --shards
(the i-th address hosts router node i), and merges the returned heaps
exactly — every ranking is bit-identical to a monolithic index over the
same corpus. A lost shard yields a typed \"shard node unavailable\"
error, never a silently partial ranking, and the frontend redials on
the next request without a restart; `loadtest` verifies a frontend
exactly like a monolithic server.

`metrics` scrapes a running server's telemetry over the wire: request
counters and latency histograms per frame type, mux gauges
(connections, busy workers, frames in flight), WAL and compaction
figures, engine pruning counters, per-stage server-side timings and the
slow-query log (slowest first, each entry carrying its trace id and
per-stage breakdown). `--text` prints the raw Prometheus exposition
instead; `--out FILE` writes that exposition to a file (the CI smoke
jobs upload it as an artifact). Telemetry is on by default and costs a
clock read per stage; GEODABS_METRICS=off disables it server-side, and
GEODABS_SLOW_US sets the slow-query threshold (default 1000).
`loadtest --server-metrics` scrapes the server before and after the
run and reports the delta: server-clock p50/p95/p99 per stage
(decode, engine, merge, …) next to the client-observed view, plus the
real mux saturation gauges.
";

fn network(seed: u64) -> RoadNetwork {
    grid_network(&GridConfig::default(), seed)
}

fn dataset_from_args(args: &Args) -> Result<Dataset, Box<dyn Error>> {
    let routes = args.usize_or("routes", 20)?;
    let per_direction = args.usize_or("per-direction", 5)?;
    let seed = args.u64_or("seed", 42)?;
    let cfg = DatasetConfig {
        routes,
        per_direction,
        queries: routes.min(16),
        ..DatasetConfig::default()
    };
    Ok(Dataset::generate(&network(seed), &cfg, seed)?)
}

fn build(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("out")?;
    let ds = dataset_from_args(args)?;
    let mut index = GeodabIndex::new(GeodabConfig::default());
    for r in ds.records() {
        index.insert(r.id, &r.trajectory);
    }
    let bytes = codec::encode(&index);
    std::fs::write(&path, &bytes)?;
    writeln!(
        out,
        "indexed {} trajectories ({} terms) into {} ({} bytes)",
        index.len(),
        index.term_count(),
        path,
        bytes.len()
    )?;
    Ok(())
}

fn stats(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("index")?;
    let bytes = std::fs::read(&path)?;
    let index = codec::decode(&bytes)?;
    let cfg = index.config();
    writeln!(out, "index file        {path}")?;
    writeln!(out, "trajectories      {}", index.len())?;
    writeln!(out, "distinct terms    {}", index.term_count())?;
    writeln!(
        out,
        "config            depth={} k={} t={} (w={}) prefix={} bits",
        cfg.normalization_depth(),
        cfg.k(),
        cfg.t(),
        cfg.window(),
        cfg.prefix_bits()
    )?;
    let total_fps: usize = index.iter_fingerprints().map(|(_, fp)| fp.len()).sum();
    writeln!(
        out,
        "fingerprints      {} total, {:.1} per trajectory",
        total_fps,
        total_fps as f64 / index.len().max(1) as f64
    )?;
    Ok(())
}

fn search(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("index")?;
    let bytes = std::fs::read(&path)?;
    let index = codec::decode(&bytes)?;
    let ds = dataset_from_args(args)?;
    let qi = args.usize_or("query", 0)?;
    let limit = args.usize_or("limit", 10)?;
    let query = ds.queries().get(qi).ok_or_else(|| {
        format!(
            "query index {qi} out of range (have {})",
            ds.queries().len()
        )
    })?;
    let relevant = ds.relevant_ids(query);
    let hits = index.search(&query.trajectory, &SearchOptions::default().limit(limit));
    writeln!(
        out,
        "query {qi} (route {}, {} points): {} hit(s)",
        query.route,
        query.trajectory.len(),
        hits.len()
    )?;
    for (rank, h) in hits.iter().enumerate() {
        writeln!(
            out,
            "{:>4}  {:>8}  d={:.3}  {}",
            rank + 1,
            h.id.to_string(),
            h.distance,
            if relevant.contains(&h.id) {
                "relevant"
            } else {
                "-"
            }
        )?;
    }
    Ok(())
}

fn tune(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    let ds = dataset_from_args(args)?;
    let steps = args.usize_or("steps", 5)?;
    let corpus: Vec<_> = ds
        .records()
        .iter()
        .map(|r| (r.id, r.trajectory.clone()))
        .collect();
    let queries: Vec<_> = ds
        .queries()
        .iter()
        .map(|q| {
            let rel: HashSet<_> = ds.relevant_ids(q);
            (q.trajectory.clone(), rel)
        })
        .collect();
    let sample = TuningSample::new(corpus, queries);
    let result = hill_climb(&sample, GeodabConfig::default(), steps);
    writeln!(out, "evaluated {} configurations", result.evaluations)?;
    for (cfg, score) in &result.trace {
        writeln!(
            out,
            "  depth={} k={} t={}  score={score:.3}",
            cfg.normalization_depth(),
            cfg.k(),
            cfg.t()
        )?;
    }
    writeln!(
        out,
        "best: depth={} k={} t={} (mean R-precision {:.3})",
        result.config.normalization_depth(),
        result.config.k(),
        result.config.t(),
        result.score
    )?;
    Ok(())
}

fn world(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    let trajectories = args.u64_or("trajectories", 200_000)?;
    let cities = args.usize_or("cities", 1_000)?;
    let seed = args.u64_or("seed", 15)?;
    let activity = WorldActivity::generate(
        &WorldConfig {
            cities,
            trajectories,
            ..WorldConfig::default()
        },
        seed,
    );
    writeln!(out, "trajectories      {}", activity.total())?;
    writeln!(out, "non-empty cells   {}", activity.counts().len())?;
    writeln!(out, "occupancy         {:.4}", activity.occupancy())?;
    writeln!(out, "peak cell         {}", activity.peak())?;
    Ok(())
}

fn snapshot(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    match args.action().expect("parser guarantees a snapshot action") {
        "save" => snapshot_save(args, out),
        "load" => snapshot_load(args, out),
        "inspect" => snapshot_inspect(args, out),
        other => unreachable!("parser rejects unknown action {other}"),
    }
}

/// Resolves a scenario by flag (for `snapshot save`/`load --verify` and
/// the serving layer).
fn scenario_from_args(args: &Args) -> Result<Scenario, Box<dyn Error>> {
    let name = args.string_or("scenario", "micro");
    let mut scenario = workload::find(&name).ok_or_else(|| {
        let names: Vec<String> = workload::catalog().into_iter().map(|s| s.name).collect();
        format!("unknown scenario {name:?} (one of {})", names.join(", "))
    })?;
    scenario.seed = args.u64_or("seed", scenario.seed)?;
    Ok(scenario)
}

/// Resolves a scenario and generates its reproducible dataset.
fn scenario_dataset(args: &Args) -> Result<(Scenario, Dataset), Box<dyn Error>> {
    let scenario = scenario_from_args(args)?;
    let dataset = workload::generate(&scenario);
    Ok((scenario, dataset))
}

fn snapshot_save(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    args.reject_unknown_flags(&["backend", "out", "scenario", "seed", "nodes", "shards"])?;
    let path = args.string_required("out")?;
    let backend = args.string_or("backend", "geodab");
    // Build the empty backend *before* the (possibly minutes-long) corpus
    // generation, so a typo fails in milliseconds.
    let mut index = AnyIndex::empty(
        &backend,
        args.u64_or("shards", 10_000)?,
        args.usize_or("nodes", 8)?,
    )?;
    let (scenario, dataset) = scenario_dataset(args)?;

    let started = Instant::now();
    index.insert_batch(dataset.records().iter().map(|r| (r.id, &r.trajectory)));
    let (len, terms) = (index.len(), index.term_count());
    let written = index.save_to(&path)?;
    let seconds = started.elapsed().as_secs_f64();
    writeln!(
        out,
        "saved {backend} snapshot of scenario {} ({len} trajectories, {terms} terms/shards) \
         to {path}: {written} bytes in {seconds:.3}s",
        scenario.name
    )?;
    Ok(())
}

fn snapshot_load(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    args.reject_unknown_flags(&["in", "verify", "scenario", "seed"])?;
    let path = args.string_required("in")?;
    let bytes = std::fs::read(&path)?;
    let started = Instant::now();
    let loaded = AnyIndex::from_snapshot(&bytes)?;
    let seconds = started.elapsed().as_secs_f64();
    writeln!(
        out,
        "loaded {} snapshot: {} trajectories from {} bytes in {seconds:.3}s ({:.1} MB/s)",
        loaded.backend_name(),
        loaded.len(),
        bytes.len(),
        bytes.len() as f64 / 1e6 / seconds.max(1e-9)
    )?;

    match args.string_or("verify", "").as_str() {
        "" => Ok(()),
        "rebuild" => {
            // The query-replay loop is shared with `geodabs serve
            // --verify rebuild` — one verification routine, two callers.
            let scenario = scenario_from_args(args)?;
            let checked = workload::verify_against_rebuild(&loaded, &scenario)
                .map_err(|e| format!("snapshot verify FAILED: {e}"))?;
            writeln!(
                out,
                "verify            PASS ({checked} queries identical to a fresh rebuild of {})",
                scenario.name
            )?;
            Ok(())
        }
        other => Err(format!("invalid value {other:?} for --verify (expected \"rebuild\")").into()),
    }
}

fn snapshot_inspect(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    use crate::json::Json;
    args.reject_unknown_flags(&["in", "json"])?;
    let path = args.string_required("in")?;
    let bytes = std::fs::read(&path)?;
    let version = store::peek_version(&bytes)?;
    let machine = args.has("json");
    if version == store::VERSION_V1 {
        if machine {
            let report = Json::obj(vec![
                ("schema_version", Json::Num(1.0)),
                ("kind", Json::Str("snapshot".into())),
                ("file", Json::Str(path.clone())),
                ("bytes", Json::Num(bytes.len() as f64)),
                ("format_version", Json::Num(f64::from(version))),
                ("backend", Json::Str("geodab".into())),
                ("watermark", Json::Null),
                ("sections", Json::Arr(Vec::new())),
            ]);
            writeln!(out, "{}", report.pretty())?;
            return Ok(());
        }
        writeln!(out, "snapshot file     {path}")?;
        writeln!(out, "size              {} bytes", bytes.len())?;
        writeln!(out, "format version    {version}")?;
        writeln!(
            out,
            "layout            legacy v1 geodab codec (raw fingerprint sequences, \
             engine state rebuilt on load)"
        )?;
        return Ok(());
    }
    let reader = SnapshotReader::parse(&bytes)?;
    let watermark = store::watermark(&bytes)?;
    if machine {
        let sections: Vec<Json> = reader
            .sections()
            .iter()
            .map(|&(id, payload)| {
                Json::obj(vec![
                    ("name", Json::Str(store::section_name(id))),
                    ("bytes", Json::Num(payload.len() as f64)),
                ])
            })
            .collect();
        let report = Json::obj(vec![
            ("schema_version", Json::Num(1.0)),
            ("kind", Json::Str("snapshot".into())),
            ("file", Json::Str(path.clone())),
            ("bytes", Json::Num(bytes.len() as f64)),
            ("format_version", Json::Num(f64::from(version))),
            (
                "backend",
                match reader.backend() {
                    Some(kind) => Json::Str(kind.to_string()),
                    None => Json::Null,
                },
            ),
            (
                "watermark",
                match watermark {
                    Some(seq) => Json::Num(seq as f64),
                    None => Json::Null,
                },
            ),
            ("sections", Json::Arr(sections)),
        ]);
        writeln!(out, "{}", report.pretty())?;
        return Ok(());
    }
    writeln!(out, "snapshot file     {path}")?;
    writeln!(out, "size              {} bytes", bytes.len())?;
    writeln!(out, "format version    {version}")?;
    match reader.backend() {
        Some(kind) => writeln!(out, "backend           {kind}")?,
        None => writeln!(
            out,
            "backend           unknown (tag {})",
            reader.backend_tag()
        )?,
    }
    if let Some(seq) = watermark {
        writeln!(out, "wal watermark     seq {seq} folded into this snapshot")?;
    }
    writeln!(
        out,
        "sections          {} (all checksums OK)",
        reader.sections().len()
    )?;
    for &(id, payload) in reader.sections() {
        writeln!(
            out,
            "  {:<8} {:>12} bytes",
            store::section_name(id),
            payload.len()
        )?;
    }
    Ok(())
}

fn serve(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    use geodabs_serve::{Server, ServerConfig};
    use geodabs_wal::{SyncPolicy, Wal};

    args.reject_unknown_flags(&[
        "addr",
        "backend",
        "snapshot",
        "scenario",
        "seed",
        "threads",
        "verify",
        "duration",
        "shards",
        "nodes",
        "shard-id",
        "serve-shards",
        "wal-dir",
        "sync-policy",
        "compact-every",
    ])?;
    let addr = args.string_required("addr")?;
    let threads = args.usize_or("threads", geodabs_index::batch::default_threads())?;
    let serve_shards = args.usize_or("serve-shards", 1)?;
    // Out-of-range counts are refused here, before any corpus is built.
    let config = ServerConfig::builder()
        .shards(serve_shards)
        .mux_workers(threads)
        .build()?;
    if serve_shards > 1 && args.has("shard-id") {
        return Err(
            "--serve-shards conflicts with --shard-id: a shard server already hosts one \
             node's slice"
                .into(),
        );
    }
    let duration = args.u64_or("duration", 0)?;
    let verify = args.string_or("verify", "");
    if !["", "rebuild"].contains(&verify.as_str()) {
        return Err(format!("invalid value {verify:?} for --verify (expected \"rebuild\")").into());
    }
    let wal_dir = match args.has("wal-dir") {
        true => Some(args.string_required("wal-dir")?),
        false => None,
    };
    // Durability knobs only mean something with a log to apply them to.
    if wal_dir.is_none() && (args.has("sync-policy") || args.has("compact-every")) {
        return Err("--sync-policy/--compact-every need --wal-dir".into());
    }
    let sync_policy = SyncPolicy::parse(&args.string_or("sync-policy", "always"))?;
    let compact_every = args.u64_or("compact-every", 0)?;
    // Both together are fine (--snapshot serves, --scenario names the
    // verify corpus); a durable server may also boot from its log
    // directory alone. No corpus source at all is an error.
    if wal_dir.is_none() && !args.has("snapshot") && !args.has("scenario") {
        return Err(
            "serve needs a corpus: pass --snapshot FILE, --scenario NAME or --wal-dir DIR".into(),
        );
    }
    // A scenario ingest IS a fresh rebuild (batch ≡ serial ingest is
    // pinned by the equivalence proptests), so verifying it against
    // another fresh rebuild could never fail — reject the vacuous check
    // instead of doubling startup cost for nothing.
    if verify == "rebuild" && wal_dir.is_some() {
        return Err(
            "--verify rebuild conflicts with --wal-dir: replayed log mutations legitimately \
             diverge from the scenario corpus, so the check would fail spuriously"
                .into(),
        );
    }
    if verify == "rebuild" && !args.has("snapshot") {
        return Err(
            "--verify rebuild needs --snapshot: a --scenario ingest is itself a fresh rebuild, \
             so the check would be vacuous"
                .into(),
        );
    }
    if args.has("shard-id") && args.has("snapshot") {
        return Err(
            "--shard-id conflicts with --snapshot (the snapshot records which node it is)".into(),
        );
    }

    // Boot order for a durable server: the latest compacted snapshot in
    // the log directory wins (it reflects acknowledged state newer than
    // any --snapshot the caller passes), then the log suffix beyond its
    // watermark is replayed. Without one, boot starts from --snapshot, a
    // --scenario ingest or an empty index.
    let started = Instant::now();
    let empty = empty_index(args)?;
    let base = || -> Result<(AnyIndex, u64), Box<dyn Error>> {
        if args.has("snapshot") {
            if args.has("backend") {
                return Err(
                    "--backend conflicts with --snapshot (the snapshot names its backend)".into(),
                );
            }
            let bytes = std::fs::read(args.string_required("snapshot")?)?;
            let watermark = store::watermark(&bytes)?.unwrap_or(0);
            let index = AnyIndex::from_snapshot(&bytes)?;
            writeln!(
                out,
                "warm-start        {} snapshot: {} trajectories from {} bytes in {:.3}s",
                index.backend_name(),
                index.len(),
                bytes.len(),
                started.elapsed().as_secs_f64()
            )?;
            return Ok((index, watermark));
        }
        if !args.has("scenario") {
            // --wal-dir alone: a durable server that has not compacted
            // yet (or is brand new) boots empty and replays its whole log.
            writeln!(
                out,
                "fresh             empty {} index",
                empty.backend_name()
            )?;
            return Ok((empty, 0));
        }
        let (scenario, dataset) = scenario_dataset(args)?;
        let items: Vec<_> = dataset
            .records()
            .iter()
            .map(|r| (r.id, &r.trajectory))
            .collect();
        // A shard server ingests the whole corpus and keeps its node's
        // slice — exactly the state it would hold after a live N-node
        // ingest, so the per-shard heaps it answers merge exactly at the
        // frontend.
        let mut index = empty;
        index.insert_batch(items);
        writeln!(
            out,
            "ingested          scenario {} into a {} index: {} trajectories in {:.3}s",
            scenario.name,
            index.backend_name(),
            index.len(),
            started.elapsed().as_secs_f64()
        )?;
        Ok((index, 0))
    };
    let (index, snapshot_watermark) = match &wal_dir {
        None => base()?,
        Some(dir) => {
            let recovered = recover(std::path::Path::new(dir), base)?;
            if let Some(bytes) = recovered.compacted {
                writeln!(
                    out,
                    "warm-start        {} compacted snapshot (watermark {}) from {bytes} bytes",
                    recovered.index.backend_name(),
                    recovered.watermark
                )?;
            }
            writeln!(
                out,
                "wal replay        {} record(s) beyond watermark {} from {dir}: {} trajectories \
                 now live after {:.3}s",
                recovered.replayed,
                recovered.watermark,
                recovered.index.len(),
                started.elapsed().as_secs_f64()
            )?;
            (recovered.index, recovered.watermark)
        }
    };

    if verify == "rebuild" {
        // The same query-replay loop `snapshot load --verify rebuild`
        // runs; a server must not come up on a corpus it cannot prove.
        let scenario = scenario_from_args(args)?;
        let checked = workload::verify_against_rebuild(&index, &scenario)
            .map_err(|e| format!("startup verify FAILED: {e}"))?;
        writeln!(
            out,
            "verify            PASS ({checked} queries identical to a fresh rebuild of {})",
            scenario.name
        )?;
    }

    let mut server = Server::bind(addr.as_str(), index, config)?;
    if let Some(dir) = &wal_dir {
        let wal = Wal::open(std::path::Path::new(dir), sync_policy)?;
        writeln!(
            out,
            "durability        wal {dir} at seq {} (sync {sync_policy}, compaction {})",
            wal.last_seq(),
            if compact_every > 0 {
                format!("every {compact_every}s")
            } else {
                "off".to_string()
            }
        )?;
        server = server.with_durability(
            wal,
            snapshot_watermark,
            (compact_every > 0).then(|| std::time::Duration::from_secs(compact_every)),
        );
    }
    writeln!(
        out,
        "listening on      {} ({} mux worker(s), {} in-process shard(s){})",
        server.local_addr(),
        threads,
        serve_shards,
        if duration > 0 {
            format!(", shutting down after {duration}s")
        } else {
            String::new()
        }
    )?;
    out.flush()?;
    serve_until_stopped(server.handle(), duration, || server.run(), out)
}

/// Serves until `--duration` seconds pass (when nonzero) or SIGTERM/
/// Ctrl-C arrives. Both route into `handle`'s clean-shutdown path: the
/// serving loop drains, the WAL flushes, and the process exits 0
/// instead of being torn mid-append.
fn serve_until_stopped(
    handle: ServerHandle,
    duration: u64,
    run: impl FnOnce() -> std::io::Result<u64>,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    if duration > 0 {
        let handle = handle.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(duration));
            handle.shutdown();
        });
    }
    let stop = crate::signals::install();
    let finished = Arc::new(AtomicBool::new(false));
    {
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || loop {
            if finished.load(Ordering::SeqCst) {
                break;
            }
            if stop.load(Ordering::SeqCst) {
                handle.shutdown();
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    let served = run()?;
    finished.store(true, Ordering::SeqCst);
    writeln!(
        out,
        "served            {served} request(s); shut down cleanly"
    )?;
    Ok(())
}

fn frontend(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    use geodabs_cluster::ShardRouter;
    use geodabs_core::Fingerprinter;
    use geodabs_serve::{Frontend, FrontendConfig};

    args.reject_unknown_flags(&["addr", "shards", "threads", "duration", "num-shards"])?;
    let addr = args.string_required("addr")?;
    let shard_addrs: Vec<String> = args
        .string_required("shards")?
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    if shard_addrs.is_empty() {
        return Err("--shards needs at least one HOST:PORT".into());
    }
    let threads = args.usize_or("threads", geodabs_index::batch::default_threads())?;
    let frontend_config = FrontendConfig::builder().mux_workers(threads).build()?;
    let duration = args.u64_or("duration", 0)?;
    // The logical shard count must match the shard servers' (both
    // default to the paper's 10 000): the router is shared verbatim, and
    // a disagreement would silently drop postings.
    let num_shards = args.u64_or("num-shards", 10_000)?;
    let config = GeodabConfig::default();
    let router = ShardRouter::new(config.prefix_bits(), num_shards, shard_addrs.len())?;
    writeln!(
        out,
        "topology          {num_shards} logical shard(s) over {} shard server(s)",
        shard_addrs.len()
    )?;
    for (node, shard_addr) in shard_addrs.iter().enumerate() {
        writeln!(out, "  node {node:<4} {shard_addr}")?;
    }
    let frontend = Frontend::bind(
        addr.as_str(),
        Fingerprinter::new(config),
        router,
        shard_addrs,
        frontend_config,
    )?;
    writeln!(
        out,
        "listening on      {} ({} mux worker(s){})",
        frontend.local_addr(),
        threads,
        if duration > 0 {
            format!(", shutting down after {duration}s")
        } else {
            String::new()
        }
    )?;
    out.flush()?;
    serve_until_stopped(frontend.handle(), duration, || frontend.run(), out)
}

fn loadtest(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    use geodabs_serve::{Client, LoadClient};
    use geodabs_traj::Trajectory;

    args.reject_unknown_flags(&[
        "addr",
        "connections",
        "duration",
        "scenario",
        "seed",
        "limit",
        "verify",
        "server-metrics",
    ])?;
    let addr = args.string_required("addr")?;
    let server_metrics = args.has("server-metrics");
    let connections = args.usize_or("connections", 4)?.max(1);
    let seconds = args.u64_or("duration", 2)?.max(1);
    let limit = args.usize_or("limit", workload::VERIFY_LIMIT)?;
    let verify = args.string_or("verify", "local");
    if !["local", "none"].contains(&verify.as_str()) {
        return Err(format!("invalid value {verify:?} for --verify (local|none)").into());
    }
    let (scenario, dataset) = scenario_dataset(args)?;
    let queries: Vec<Trajectory> = dataset
        .queries()
        .iter()
        .map(|q| q.trajectory.clone())
        .collect();
    if queries.is_empty() {
        return Err(format!("scenario {} has no queries", scenario.name).into());
    }
    let options = SearchOptions::default().limit(limit);

    // One probe connection up front: fail fast on a dead address and
    // learn the served backend.
    let stats = Client::connect(addr.as_str())
        .map_err(|e| format!("connecting to {addr}: {e}"))?
        .stats()
        .map_err(|e| format!("probing {addr}: {e}"))?;
    writeln!(
        out,
        "server            {} at {addr}: {} trajectories, {} terms, {} mux worker(s)",
        stats.backend, stats.trajectories, stats.terms, stats.workers
    )?;
    // A frontend reports its shard-server count in the `terms` slot; it
    // ranks exactly like a monolithic index, so the single-process
    // geodab twin below stays the right verification oracle.
    if stats.backend == "frontend" {
        writeln!(
            out,
            "topology          frontend over {} shard server(s)",
            stats.terms
        )?;
    }
    let scrape = || {
        Client::connect(addr.as_str())
            .map_err(|e| format!("connecting to {addr}: {e}"))?
            .metrics()
            .map_err(|e| {
                format!(
                    "scraping {addr} for --server-metrics: {e} (pre-metrics servers and \
                     GEODABS_METRICS=off builds cannot serve the frame)"
                )
            })
    };
    let before = server_metrics.then(&scrape).transpose()?;

    let mut load = LoadClient::new(addr.clone(), queries, options);
    if verify == "local" {
        // Rebuild the scenario corpus in-process and pin every response
        // bit-identically. Every served backend ranks exactly like the
        // monolithic geodab index (the equivalence proptests pin that),
        // so one geodab twin covers them all.
        let mut twin = GeodabIndex::new(GeodabConfig::default());
        let items: Vec<_> = dataset
            .records()
            .iter()
            .map(|r| (r.id, &r.trajectory))
            .collect();
        twin.insert_batch(items);
        if stats.backend == "frontend" && stats.trajectories == 0 {
            // A frontend only counts mutations routed through it; shard
            // servers that ingested their slices at boot leave that count
            // at zero, so there is no corpus size to probe. The bit-exact
            // response comparison below still fails loudly on any corpus
            // mismatch.
            writeln!(
                out,
                "note              shard corpora were loaded out-of-band; corpus-size probe \
                 skipped (responses are still verified bit-exactly)"
            )?;
        } else if twin.len() as u64 != stats.trajectories {
            return Err(format!(
                "server holds {} trajectories but scenario {} generates {} — verification \
                 would always fail; pass the right --scenario/--seed or --verify none",
                stats.trajectories,
                scenario.name,
                twin.len()
            )
            .into());
        }
        let expected = dataset
            .queries()
            .iter()
            .map(|q| twin.search(&q.trajectory, &options))
            .collect();
        load = load.expect_results(expected);
    }

    writeln!(
        out,
        "driving           {connections} connection(s) for {seconds}s, {} queries (limit {limit}), \
         verify {verify}",
        dataset.queries().len()
    )?;
    let point = load
        .run(connections, std::time::Duration::from_secs(seconds))
        .map_err(|e| format!("load run at {connections} connection(s): {e}"))?;
    writeln!(
        out,
        "load    {:>2} conn(s)   {:>9.1} qps  p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  \
         ({} requests, {} mismatches)",
        point.connections,
        point.qps,
        point.p50_ms,
        point.p95_ms,
        point.p99_ms,
        point.requests,
        point.mismatches
    )?;

    // With --server-metrics, scrape again and report the delta: the
    // server's own clock on each stage next to the client view above.
    if let Some(before) = before {
        let after = scrape()?;
        write_server_side(out, &before, &after, stats.workers)?;
    }

    if point.mismatches > 0 {
        return Err(format!(
            "loadtest FAILED: {} response(s) diverged from the in-process engine",
            point.mismatches
        )
        .into());
    }
    if verify == "local" {
        writeln!(out, "verify            PASS (every response bit-identical)")?;
    }
    Ok(())
}

/// The server-side stages `loadtest --server-metrics` reports, as
/// `(stage label, registered histogram name)` pairs. Absent or empty
/// histograms are skipped, so the same table serves monoliths (lock,
/// engine), sharded servers (merge) and frontends (scatter, merge).
const SERVER_STAGES: &[(&str, &str)] = &[
    ("request", "geodabs_request_latency_us{kind=\"query\"}"),
    ("decode", "geodabs_decode_us"),
    ("lock", "geodabs_stage_lock_us"),
    ("engine", "geodabs_stage_engine_us"),
    ("scatter", "geodabs_scatter_shard_us"),
    ("merge", "geodabs_stage_merge_us"),
    ("encode", "geodabs_encode_us"),
];

/// Prints the server's own view of a load run from two metrics scrapes:
/// per-stage latency quantiles from the histogram deltas, then the mux
/// gauge peaks (peaks are process-lifetime, not deltas — the run can
/// only have raised them).
fn write_server_side(
    out: &mut dyn std::io::Write,
    before: &geodabs_serve::MetricsReport,
    after: &geodabs_serve::MetricsReport,
    workers: u64,
) -> std::io::Result<()> {
    let mut stages = 0;
    for (label, name) in SERVER_STAGES {
        let Some(current) = after.histogram(name) else {
            continue;
        };
        let current = current.snapshot();
        let delta = match before.histogram(name) {
            Some(earlier) => current.delta(&earlier.snapshot()),
            None => current,
        };
        if delta.is_empty() {
            continue;
        }
        stages += 1;
        writeln!(
            out,
            "server  {label:<10} {:>9} sample(s)  p50 {} us  p95 {} us  p99 {} us",
            delta.count(),
            delta.quantile(50.0),
            delta.quantile(95.0),
            delta.quantile(99.0)
        )?;
    }
    if stages == 0 {
        writeln!(
            out,
            "server-side       no stage histograms recorded (GEODABS_METRICS=off?)"
        )?;
    }
    let peak = |name: &str| after.gauge(name).map(|(_, peak)| peak).unwrap_or(0);
    writeln!(
        out,
        "mux saturation    peak {} of {workers} worker(s) busy, peak {} frame(s) in flight, \
         peak {} connection(s) (server gauges)",
        peak("geodabs_mux_workers_busy"),
        peak("geodabs_mux_frames_in_flight"),
        peak("geodabs_connections")
    )
}

fn metrics(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    use geodabs_serve::Client;

    args.reject_unknown_flags(&["addr", "top", "text", "out"])?;
    let addr = args.string_required("addr")?;
    let top = args.usize_or("top", 5)?;
    let report = Client::connect(addr.as_str())
        .map_err(|e| format!("connecting to {addr}: {e}"))?
        .metrics()
        .map_err(|e| format!("scraping {addr}: {e} (pre-metrics servers answer with an error)"))?;

    if let Some(path) = args.has("out").then(|| args.string_or("out", "")) {
        std::fs::write(&path, &report.text)?;
        writeln!(out, "exposition        {path}")?;
    }
    if args.has("text") {
        write!(out, "{}", report.text)?;
        return Ok(());
    }

    writeln!(out, "server            {addr}")?;
    writeln!(out, "counters          {}", report.counters.len())?;
    for (name, total) in &report.counters {
        writeln!(out, "  {name}  {total}")?;
    }
    writeln!(
        out,
        "gauges            {} (value / peak)",
        report.gauges.len()
    )?;
    for (name, value, peak) in &report.gauges {
        writeln!(out, "  {name}  {value} / {peak}")?;
    }
    let populated = report
        .histograms
        .iter()
        .filter(|h| !h.buckets.is_empty())
        .count();
    writeln!(
        out,
        "histograms        {populated} of {} non-empty (count, us at p50/p95/p99)",
        report.histograms.len()
    )?;
    for histogram in &report.histograms {
        let snapshot = histogram.snapshot();
        if snapshot.is_empty() {
            continue;
        }
        writeln!(
            out,
            "  {}  {}  p50 {} us  p95 {} us  p99 {} us",
            histogram.name,
            snapshot.count(),
            snapshot.quantile(50.0),
            snapshot.quantile(95.0),
            snapshot.quantile(99.0)
        )?;
    }
    writeln!(
        out,
        "slow queries      {} captured, showing {}",
        report.slow_queries.len(),
        report.slow_queries.len().min(top)
    )?;
    for slow in report.slow_queries.iter().take(top) {
        let stages: Vec<String> = slow
            .stages
            .iter()
            .map(|(stage, us)| format!("{stage}={us}us"))
            .collect();
        writeln!(
            out,
            "  trace {:016x}  {}  {} us  [{}]",
            slow.trace_id,
            slow.kind,
            slow.total_us,
            stages.join(" ")
        )?;
    }
    Ok(())
}

fn wal(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    match args.action().expect("parser guarantees a wal action") {
        "inspect" => wal_inspect(args, out),
        "replay" => wal_replay(args, out),
        other => unreachable!("parser rejects unknown action {other}"),
    }
}

fn wal_inspect(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    use geodabs_serve::WAL_SNAPSHOT_FILE;
    use geodabs_wal::Wal;
    args.reject_unknown_flags(&["dir"])?;
    let dir = args.string_required("dir")?;
    let segments = Wal::segments(std::path::Path::new(&dir))?;
    writeln!(out, "wal directory     {dir}")?;
    let snapshot = std::path::Path::new(&dir).join(WAL_SNAPSHOT_FILE);
    match std::fs::read(&snapshot) {
        Ok(bytes) => {
            let watermark = store::watermark(&bytes)?;
            writeln!(
                out,
                "snapshot          {} bytes, watermark {}",
                bytes.len(),
                watermark.map_or_else(|| "none".to_string(), |seq| format!("seq {seq}")),
            )?;
        }
        Err(_) => writeln!(out, "snapshot          none (no compaction yet)")?,
    }
    let records: u64 = segments.iter().map(|s| s.records).sum();
    let bytes: u64 = segments.iter().map(|s| s.bytes).sum();
    let last_seq = segments.iter().filter_map(|s| s.last_seq()).max();
    writeln!(
        out,
        "segments          {} ({records} records, {bytes} bytes, last seq {})",
        segments.len(),
        last_seq.map_or_else(|| "none".to_string(), |seq| seq.to_string()),
    )?;
    for segment in &segments {
        writeln!(
            out,
            "  {:<26} start {:>8}  {:>8} record(s)  {:>12} bytes",
            segment.file_name, segment.start_seq, segment.records, segment.bytes
        )?;
    }
    Ok(())
}

fn wal_replay(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    args.reject_unknown_flags(&["dir", "out", "backend", "nodes", "shards", "shard-id"])?;
    let dir = args.string_required("dir")?;

    // The same recovery `serve --wal-dir` boots through, runnable
    // offline.
    let empty = empty_index(args)?;
    let Recovered {
        index,
        watermark,
        last_seq,
        replayed,
        compacted,
    } = recover(std::path::Path::new(&dir), || {
        writeln!(
            out,
            "snapshot          none; replaying into an empty {} index",
            empty.backend_name()
        )?;
        Ok::<_, Box<dyn Error>>((empty, 0))
    })?;
    if let Some(bytes) = compacted {
        writeln!(
            out,
            "snapshot          {} backend, {bytes} bytes, watermark {watermark}",
            index.backend_name()
        )?;
    }
    writeln!(
        out,
        "replayed          {replayed} record(s) beyond watermark {watermark}: \
         {} trajectories at seq {last_seq}",
        index.len()
    )?;

    // With --out the reconstruction is persisted as a compacted,
    // watermark-stamped snapshot — offline compaction for a server that
    // is not running.
    if args.has("out") {
        let path = args.string_required("out")?;
        let stamped = store::with_watermark(&index.to_snapshot(), last_seq)?;
        std::fs::write(&path, &stamped)?;
        writeln!(
            out,
            "compacted         {} bytes to {path} (watermark {last_seq})",
            stamped.len()
        )?;
    }
    Ok(())
}

/// The empty index `serve` and `wal replay` start from when no snapshot
/// holds the state: node `--shard-id` of a `--nodes` × `--shards`
/// cluster, or an empty `--backend` index. A shard server hosts the node
/// backend, so `--backend` beside `--shard-id` is refused.
fn empty_index(args: &Args) -> Result<AnyIndex, Box<dyn Error>> {
    let shards = args.u64_or("shards", 10_000)?;
    let nodes = args.usize_or("nodes", 8)?;
    if !args.has("shard-id") {
        return Ok(AnyIndex::empty(
            &args.string_or("backend", "geodab"),
            shards,
            nodes,
        )?);
    }
    if args.has("backend") {
        return Err(
            "--backend conflicts with --shard-id (a shard server hosts the node backend)".into(),
        );
    }
    let node_id = args.usize_or("shard-id", 0)?;
    Ok(AnyIndex::Node(ShardNode::new(
        GeodabConfig::default(),
        shards,
        nodes,
        node_id,
    )?))
}

fn export(args: &Args, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("out")?;
    let ds = dataset_from_args(args)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    geodabs_gen::csv::write_records(ds.records(), &mut file)?;
    use std::io::Write as _;
    file.flush()?;
    writeln!(
        out,
        "exported {} trajectories ({} points) to {}",
        ds.records().len(),
        ds.total_points(),
        path
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> Result<String, String> {
        let args = Args::parse(argv.iter().copied()).map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        run(&args, &mut buf).map_err(|e| e.to_string())?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("geodabs-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run_to_string(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("geodabs build"));
        assert!(!out.contains("geodabs bench"), "{out}");
    }

    #[test]
    fn build_stats_search_roundtrip() {
        let path = tmp("roundtrip.gdab");
        let out = run_to_string(&[
            "build",
            "--out",
            &path,
            "--routes",
            "4",
            "--per-direction",
            "2",
            "--seed",
            "9",
        ])
        .unwrap();
        assert!(out.contains("indexed 16 trajectories"), "{out}");

        let out = run_to_string(&["stats", "--index", &path]).unwrap();
        assert!(out.contains("trajectories      16"), "{out}");
        assert!(out.contains("depth=36 k=6 t=12"), "{out}");

        let out = run_to_string(&[
            "search",
            "--index",
            &path,
            "--routes",
            "4",
            "--per-direction",
            "2",
            "--seed",
            "9",
            "--limit",
            "3",
        ])
        .unwrap();
        assert!(out.contains("query 0"), "{out}");
        assert!(out.contains("relevant"), "{out}");
    }

    #[test]
    fn search_rejects_out_of_range_query() {
        let path = tmp("range.gdab");
        run_to_string(&[
            "build",
            "--out",
            &path,
            "--routes",
            "2",
            "--per-direction",
            "2",
            "--seed",
            "3",
        ])
        .unwrap();
        let err = run_to_string(&[
            "search",
            "--index",
            &path,
            "--routes",
            "2",
            "--per-direction",
            "2",
            "--seed",
            "3",
            "--query",
            "99",
        ])
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn stats_rejects_garbage_files() {
        let path = tmp("garbage.gdab");
        std::fs::write(&path, b"not an index").unwrap();
        let err = run_to_string(&["stats", "--index", &path]).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn world_prints_summary() {
        let out = run_to_string(&[
            "world",
            "--trajectories",
            "5000",
            "--cities",
            "50",
            "--seed",
            "2",
        ])
        .unwrap();
        assert!(out.contains("trajectories      5000"), "{out}");
        assert!(out.contains("peak cell"), "{out}");
    }

    #[test]
    fn tune_reports_a_best_config() {
        let out = run_to_string(&[
            "tune",
            "--routes",
            "3",
            "--per-direction",
            "2",
            "--seed",
            "4",
            "--steps",
            "1",
        ])
        .unwrap();
        assert!(out.contains("best: depth="), "{out}");
        assert!(out.contains("evaluated"), "{out}");
    }

    #[test]
    fn missing_required_flags_error_cleanly() {
        assert!(run_to_string(&["build"]).unwrap_err().contains("--out"));
        assert!(run_to_string(&["stats"]).unwrap_err().contains("--index"));
        assert!(run_to_string(&["export"]).unwrap_err().contains("--out"));
    }

    #[test]
    fn snapshot_save_load_inspect_roundtrip_all_backends() {
        for backend in ["geodab", "cluster"] {
            let path = tmp(&format!("snap-{backend}.gdab"));
            let out = run_to_string(&[
                "snapshot",
                "save",
                "--backend",
                backend,
                "--scenario",
                "micro",
                "--out",
                &path,
            ])
            .unwrap();
            assert!(out.contains(&format!("saved {backend} snapshot")), "{out}");
            assert!(out.contains("40 trajectories"), "{out}");

            let out =
                run_to_string(&["snapshot", "load", "--in", &path, "--scenario", "micro"]).unwrap();
            assert!(out.contains(&format!("loaded {backend} snapshot")), "{out}");
            assert!(out.contains("40 trajectories"), "{out}");

            // Full verification: rebuild the corpus and compare answers.
            let out = run_to_string(&[
                "snapshot",
                "load",
                "--in",
                &path,
                "--scenario",
                "micro",
                "--verify",
                "rebuild",
            ])
            .unwrap();
            assert!(out.contains("verify            PASS"), "{out}");

            let out = run_to_string(&["snapshot", "inspect", "--in", &path]).unwrap();
            assert!(out.contains("format version    2"), "{out}");
            assert!(
                out.contains(&format!("backend           {backend}")),
                "{out}"
            );
            assert!(out.contains("checksums OK"), "{out}");
            assert!(out.contains("CONF"), "{out}");
        }
    }

    #[test]
    fn snapshot_load_rejects_corrupted_files() {
        let path = tmp("snap-corrupt.gdab");
        run_to_string(&["snapshot", "save", "--scenario", "micro", "--out", &path]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = bytes.len() - 30;
        bytes[offset] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let err = run_to_string(&["snapshot", "load", "--in", &path]).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        let err = run_to_string(&["snapshot", "inspect", "--in", &path]).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn snapshot_inspect_reports_legacy_v1_blobs() {
        // `build` writes through the codec; craft a v1 blob explicitly.
        let ds = Dataset::generate(
            &network(9),
            &DatasetConfig {
                routes: 2,
                per_direction: 2,
                ..DatasetConfig::default()
            },
            9,
        )
        .unwrap();
        let mut index = GeodabIndex::new(GeodabConfig::default());
        for r in ds.records() {
            index.insert(r.id, &r.trajectory);
        }
        let path = tmp("snap-v1.gdab");
        std::fs::write(&path, codec::encode_v1(&index)).unwrap();
        let out = run_to_string(&["snapshot", "inspect", "--in", &path]).unwrap();
        assert!(out.contains("format version    1"), "{out}");
        assert!(out.contains("legacy v1"), "{out}");
        // And the v1 blob loads through the version switch.
        let out = run_to_string(&["snapshot", "load", "--in", &path]).unwrap();
        assert!(out.contains("loaded geodab snapshot"), "{out}");
    }

    #[test]
    fn snapshot_flags_fail_loudly() {
        let err = run_to_string(&["snapshot", "save", "--scenario", "micro"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        for backend in ["warp", "geohash"] {
            let err = run_to_string(&["snapshot", "save", "--out", "x.gdab", "--backend", backend])
                .unwrap_err();
            let refusal = format!("unknown backend {backend:?} (geodab|cluster)");
            assert!(err.contains(&refusal), "{err}");
        }
        let err = run_to_string(&["snapshot", "frobnicate"]).unwrap_err();
        assert!(err.contains("unknown action"), "{err}");
        // An unknown scenario lists the catalog.
        let err = run_to_string(&["snapshot", "save", "--scenario", "smoke", "--out", "x.gdab"])
            .unwrap_err();
        assert!(
            err.contains("unknown scenario") && err.contains("micro"),
            "{err}"
        );
        let err =
            run_to_string(&["snapshot", "load", "--in", "x", "--verfiy", "rebuild"]).unwrap_err();
        assert!(err.contains("unknown flag --verfiy"), "{err}");
        let path = tmp("snap-verify-flag.gdab");
        run_to_string(&["snapshot", "save", "--scenario", "micro", "--out", &path]).unwrap();
        let err =
            run_to_string(&["snapshot", "load", "--in", &path, "--verify", "yes"]).unwrap_err();
        assert!(err.contains("--verify"), "{err}");
    }

    /// A `Write` target observable from another thread, so the serve
    /// test can learn the OS-assigned port while the server blocks.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8 output")
        }

        /// Polls until a line starting with `prefix` appears, returning
        /// the rest of that line.
        fn wait_for(&self, prefix: &str) -> String {
            for _ in 0..400 {
                if let Some(line) = self
                    .contents()
                    .lines()
                    .find_map(|l| l.strip_prefix(prefix).map(str::to_string))
                {
                    return line.trim().to_string();
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            panic!("server never printed {prefix:?}: {:?}", self.contents());
        }
    }

    #[test]
    fn serve_and_loadtest_roundtrip_on_loopback() {
        // Serializes against the signals tests: they flip the global
        // shutdown flag this server's watcher thread polls.
        let _guard = crate::signals::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Warm-start the server from a real snapshot (the acceptance
        // path), on an OS-assigned port, with a startup verify.
        let snap = tmp("serve-roundtrip.gdab");
        run_to_string(&["snapshot", "save", "--scenario", "micro", "--out", &snap]).unwrap();

        let buf = SharedBuf::default();
        let server_buf = buf.clone();
        let snap_for_server = snap.clone();
        // Detached on purpose: --duration bounds the server's lifetime,
        // and the test must not block on that timer.
        std::thread::spawn(move || {
            let args = Args::parse([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--snapshot",
                &snap_for_server,
                "--scenario",
                "micro",
                "--verify",
                "rebuild",
                "--threads",
                "4",
                "--duration",
                "60",
            ])
            .expect("valid serve args");
            let mut out = server_buf;
            run(&args, &mut out).map_err(|e| e.to_string())
        });
        let verify_line = buf.wait_for("verify            ");
        assert!(verify_line.contains("PASS"), "{verify_line}");

        let addr_line = buf.wait_for("listening on      ");
        let addr = addr_line.split_whitespace().next().expect("addr token");

        // Drive it: 4 connections, a short run, full local verification.
        let out = run_to_string(&[
            "loadtest",
            "--addr",
            addr,
            "--connections",
            "4",
            "--duration",
            "1",
            "--scenario",
            "micro",
        ])
        .unwrap();
        assert!(out.contains("server            geodab"), "{out}");
        assert!(out.contains("verify            PASS"), "{out}");
        assert!(out.contains("load     4 conn(s)"), "{out}");
        assert!(out.contains("0 mismatches"), "{out}");
        // The loadtest checks behaviour; it writes no report.
        assert!(!out.contains("report"), "{out}");

        // The same run with --server-metrics: the server's own per-stage
        // latency and the real mux gauges show up next to the client view.
        let out = run_to_string(&[
            "loadtest",
            "--addr",
            addr,
            "--connections",
            "2",
            "--duration",
            "1",
            "--scenario",
            "micro",
            "--server-metrics",
        ])
        .unwrap();
        assert!(!out.contains("connection(s) per mux worker"), "{out}");
        assert!(out.contains("server  request"), "{out}");
        assert!(out.contains("server  engine"), "{out}");
        assert!(out.contains("mux saturation    peak"), "{out}");

        // The standalone scraper against the same server: counters,
        // gauges, histograms and the raw exposition must all render.
        let scraped = run_to_string(&["metrics", "--addr", addr, "--top", "3"]).unwrap();
        assert!(
            scraped.contains("geodabs_requests_total{kind=\"query\"}"),
            "{scraped}"
        );
        assert!(scraped.contains("geodabs_connections"), "{scraped}");
        assert!(
            scraped.contains("geodabs_request_latency_us{kind=\"query\"}"),
            "{scraped}"
        );
        assert!(scraped.contains("slow queries"), "{scraped}");
        let exposition_path = tmp("serve-roundtrip-metrics.prom");
        let text = run_to_string(&[
            "metrics",
            "--addr",
            addr,
            "--text",
            "--out",
            &exposition_path,
        ])
        .unwrap();
        assert!(text.contains("# TYPE"), "{text}");
        assert!(text.contains("geodabs_requests_total"), "{text}");
        let written = std::fs::read_to_string(&exposition_path).expect("exposition file");
        assert!(written.contains("geodabs_requests_total"), "{written}");

        // A same-size corpus from another seed passes the length probe
        // but every response then diverges from the local expectation —
        // the mismatch detector must fail the run loudly.
        let err = run_to_string(&[
            "loadtest",
            "--addr",
            addr,
            "--connections",
            "1",
            "--scenario",
            "micro",
            "--seed",
            "8",
            "--duration",
            "1",
        ])
        .unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn serve_flags_fail_loudly() {
        let err = run_to_string(&["serve", "--addr", "127.0.0.1:0"]).unwrap_err();
        assert!(
            err.contains("--snapshot") && err.contains("--scenario"),
            "{err}"
        );
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            "x.gdab",
            "--backend",
            "geodab",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts"), "{err}");
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scenario",
            "micro",
            "--verify",
            "yes",
        ])
        .unwrap_err();
        assert!(err.contains("--verify"), "{err}");
        let err = run_to_string(&["serve", "--scenario", "micro"]).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        // Verifying a fresh ingest against a fresh rebuild is vacuous.
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scenario",
            "micro",
            "--verify",
            "rebuild",
        ])
        .unwrap_err();
        assert!(err.contains("vacuous"), "{err}");
        let err =
            run_to_string(&["serve", "--addr", "127.0.0.1:0", "--scenari", "micro"]).unwrap_err();
        assert!(err.contains("unknown flag --scenari"), "{err}");
    }

    #[test]
    fn loadtest_flags_fail_loudly() {
        let err = run_to_string(&["loadtest"]).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err =
            run_to_string(&["loadtest", "--addr", "127.0.0.1:1", "--verify", "maybe"]).unwrap_err();
        assert!(err.contains("--verify"), "{err}");
        let err = run_to_string(&["loadtest", "--addr", "127.0.0.1:1", "--connectoins", "2"])
            .unwrap_err();
        assert!(err.contains("unknown flag --connectoins"), "{err}");
        // The retired report directory is an unknown flag, not a no-op.
        let err = run_to_string(&["loadtest", "--addr", "127.0.0.1:1", "--out", "."]).unwrap_err();
        assert!(err.contains("unknown flag --out"), "{err}");
        // A dead address fails on the probe connection, fast.
        let err =
            run_to_string(&["loadtest", "--addr", "127.0.0.1:1", "--duration", "1"]).unwrap_err();
        assert!(err.contains("connecting to"), "{err}");
    }

    #[test]
    fn serve_durability_flags_fail_loudly() {
        let err = run_to_string(&["serve", "--addr", "127.0.0.1:0", "--sync-policy", "always"])
            .unwrap_err();
        assert!(err.contains("--wal-dir"), "{err}");
        let err =
            run_to_string(&["serve", "--addr", "127.0.0.1:0", "--compact-every", "5"]).unwrap_err();
        assert!(err.contains("--wal-dir"), "{err}");
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            "logs",
            "--verify",
            "rebuild",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts with --wal-dir"), "{err}");
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            "logs",
            "--sync-policy",
            "sometimes",
        ])
        .unwrap_err();
        assert!(err.contains("sync policy"), "{err}");
    }

    #[test]
    fn wal_flags_fail_loudly() {
        let err = run_to_string(&["wal", "inspect"]).unwrap_err();
        assert!(err.contains("--dir"), "{err}");
        let err = run_to_string(&["wal", "replay"]).unwrap_err();
        assert!(err.contains("--dir"), "{err}");
        let err = run_to_string(&["wal", "inspect", "--dri", "logs"]).unwrap_err();
        assert!(err.contains("unknown flag --dri"), "{err}");
        // A shard server's log replays into the node backend, as `serve`
        // insists too.
        let err = run_to_string(&[
            "wal",
            "replay",
            "--dir",
            "logs",
            "--backend",
            "geodab",
            "--shard-id",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts with --shard-id"), "{err}");
    }

    #[test]
    fn snapshot_inspect_json_is_machine_readable() {
        use crate::json::Json;
        let path = tmp("inspect-json.gdab");
        run_to_string(&["snapshot", "save", "--scenario", "micro", "--out", &path]).unwrap();
        let out = run_to_string(&["snapshot", "inspect", "--in", &path, "--json"]).unwrap();
        let parsed = Json::parse(&out).expect("valid JSON");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("snapshot"));
        assert_eq!(parsed.get("backend").and_then(Json::as_str), Some("geodab"));
        assert_eq!(
            parsed.get("format_version").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(parsed.get("watermark"), Some(&Json::Null));
        let sections = parsed
            .get("sections")
            .and_then(Json::as_array)
            .expect("sections array");
        assert!(!sections.is_empty());
        assert!(sections
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("CONF")));
    }

    #[test]
    fn wal_inspect_replay_and_stamped_snapshot_roundtrip() {
        use crate::json::Json;
        use geodabs_wal::{SyncPolicy, Wal, WalOp};
        let dir = std::env::temp_dir().join(format!("geodabs-cli-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Log three inserts and one remove through the real WAL.
        let ds = Dataset::generate(
            &network(5),
            &DatasetConfig {
                routes: 2,
                per_direction: 2,
                ..DatasetConfig::default()
            },
            5,
        )
        .unwrap();
        let mut wal = Wal::open(&dir, SyncPolicy::Always).unwrap();
        for r in &ds.records()[..3] {
            wal.append(&WalOp::Insert {
                id: r.id,
                trajectory: r.trajectory.clone(),
            })
            .unwrap();
        }
        wal.append(&WalOp::Remove {
            id: ds.records()[0].id,
        })
        .unwrap();
        drop(wal);

        let out = run_to_string(&["wal", "inspect", "--dir", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("snapshot          none"), "{out}");
        assert!(out.contains("4 records"), "{out}");
        assert!(out.contains("last seq 4"), "{out}");

        // Offline replay: 3 inserts − 1 remove = 2 live trajectories,
        // persisted as a watermark-stamped compacted snapshot.
        let compacted = dir.join("offline.gdab");
        let out = run_to_string(&[
            "wal",
            "replay",
            "--dir",
            dir.to_str().unwrap(),
            "--out",
            compacted.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("snapshot          none"), "{out}");
        assert!(
            out.contains("replayed          4 record(s) beyond watermark 0: 2 trajectories"),
            "{out}"
        );
        assert!(out.contains("watermark 4"), "{out}");

        // The stamp is visible to both inspect modes…
        let out =
            run_to_string(&["snapshot", "inspect", "--in", compacted.to_str().unwrap()]).unwrap();
        assert!(out.contains("wal watermark     seq 4"), "{out}");
        let out = run_to_string(&[
            "snapshot",
            "inspect",
            "--in",
            compacted.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        let parsed = Json::parse(&out).expect("valid JSON");
        assert_eq!(parsed.get("watermark").and_then(Json::as_f64), Some(4.0));

        // …and the snapshot still loads (the WMRK section is ignored by
        // the backend decoder).
        let out =
            run_to_string(&["snapshot", "load", "--in", compacted.to_str().unwrap()]).unwrap();
        assert!(out.contains("2 trajectories"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_boots_from_a_wal_dir_and_replays_acked_writes() {
        use geodabs_serve::Client;
        use geodabs_wal::{SyncPolicy, Wal, WalOp};
        let _guard = crate::signals::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir =
            std::env::temp_dir().join(format!("geodabs-cli-serve-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Seed the log as a crashed durable server would have left it.
        let ds = Dataset::generate(
            &network(6),
            &DatasetConfig {
                routes: 2,
                per_direction: 2,
                ..DatasetConfig::default()
            },
            6,
        )
        .unwrap();
        let mut wal = Wal::open(&dir, SyncPolicy::Always).unwrap();
        for r in &ds.records()[..3] {
            wal.append(&WalOp::Insert {
                id: r.id,
                trajectory: r.trajectory.clone(),
            })
            .unwrap();
        }
        drop(wal);

        // Boot from the log directory alone: empty index + full replay.
        let buf = SharedBuf::default();
        let server_buf = buf.clone();
        let dir_for_server = dir.to_str().unwrap().to_string();
        std::thread::spawn(move || {
            let args = Args::parse([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--wal-dir",
                &dir_for_server,
                "--threads",
                "2",
                "--duration",
                "60",
            ])
            .expect("valid serve args");
            let mut out = server_buf;
            run(&args, &mut out).map_err(|e| e.to_string())
        });
        let replay_line = buf.wait_for("wal replay        ");
        assert!(
            replay_line.contains("3 record(s) beyond watermark 0"),
            "{replay_line}"
        );
        let addr_line = buf.wait_for("listening on      ");
        let addr = addr_line.split_whitespace().next().expect("addr token");

        // The replayed state serves, and new acked writes extend the log.
        let mut client = Client::connect(addr).expect("connect");
        let stats = client.stats_durable().expect("stats");
        assert_eq!(stats.trajectories, 3);
        let durability = stats.durability.expect("durable server reports wal state");
        assert_eq!(durability.last_durable_seq, 3);
        let next = &ds.records()[3];
        client.insert(next.id, &next.trajectory).expect("insert");
        let stats = client.stats_durable().expect("stats");
        assert_eq!(stats.trajectories, 4);
        assert_eq!(stats.durability.expect("durability").last_durable_seq, 4);
    }

    #[test]
    fn frontend_flags_fail_loudly() {
        let err = run_to_string(&["frontend", "--shards", "127.0.0.1:1"]).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err = run_to_string(&["frontend", "--addr", "127.0.0.1:0"]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err =
            run_to_string(&["frontend", "--addr", "127.0.0.1:0", "--shards", ",,"]).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
        let err = run_to_string(&[
            "frontend",
            "--addr",
            "127.0.0.1:0",
            "--shrads",
            "127.0.0.1:1",
        ])
        .unwrap_err();
        assert!(err.contains("unknown flag --shrads"), "{err}");
    }

    #[test]
    fn zero_shard_and_worker_counts_are_refused_before_any_corpus_is_built() {
        use geodabs_serve::ServerConfigError;

        // The snapshot does not exist: reading it would fail first if the
        // counts were checked after the corpus.
        let serve = |flag: &str| {
            run_to_string(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--snapshot",
                "missing.gdab",
                flag,
                "0",
            ])
            .unwrap_err()
        };
        assert_eq!(
            serve("--serve-shards"),
            ServerConfigError::ZeroShards.to_string()
        );
        assert_eq!(
            serve("--threads"),
            ServerConfigError::ZeroMuxWorkers.to_string()
        );
        let err = run_to_string(&[
            "frontend",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "127.0.0.1:1",
            "--threads",
            "0",
        ])
        .unwrap_err();
        assert_eq!(err, ServerConfigError::ZeroMuxWorkers.to_string());
    }

    #[test]
    fn serve_shard_id_flags_fail_loudly() {
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scenario",
            "micro",
            "--shard-id",
            "0",
            "--backend",
            "geodab",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts with --shard-id"), "{err}");
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            "x.gdab",
            "--shard-id",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts with --snapshot"), "{err}");
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scenario",
            "micro",
            "--shard-id",
            "9",
            "--nodes",
            "2",
        ])
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    /// The full distributed loop in one process: two `serve --shard-id`
    /// servers, a `frontend` over them, and `loadtest --verify local`
    /// proving every scattered answer bit-identical to the monolithic
    /// rebuild.
    #[test]
    fn shard_servers_and_frontend_roundtrip_on_loopback() {
        let _guard = crate::signals::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut shard_addrs = Vec::new();
        for shard_id in ["0", "1"] {
            let buf = SharedBuf::default();
            let server_buf = buf.clone();
            std::thread::spawn(move || {
                let args = Args::parse([
                    "serve",
                    "--addr",
                    "127.0.0.1:0",
                    "--scenario",
                    "micro",
                    "--shard-id",
                    shard_id,
                    "--nodes",
                    "2",
                    "--threads",
                    "4",
                    "--duration",
                    "60",
                ])
                .expect("valid serve args");
                let mut out = server_buf;
                run(&args, &mut out).map_err(|e| e.to_string())
            });
            let ingest_line = buf.wait_for("ingested          ");
            assert!(ingest_line.contains("node index"), "{ingest_line}");
            let addr_line = buf.wait_for("listening on      ");
            shard_addrs.push(
                addr_line
                    .split_whitespace()
                    .next()
                    .expect("addr token")
                    .to_string(),
            );
        }

        let buf = SharedBuf::default();
        let frontend_buf = buf.clone();
        let shards_flag = shard_addrs.join(",");
        std::thread::spawn(move || {
            let args = Args::parse([
                "frontend",
                "--addr",
                "127.0.0.1:0",
                "--shards",
                &shards_flag,
                "--threads",
                "4",
                "--duration",
                "60",
            ])
            .expect("valid frontend args");
            let mut out = frontend_buf;
            run(&args, &mut out).map_err(|e| e.to_string())
        });
        let addr_line = buf.wait_for("listening on      ");
        let addr = addr_line.split_whitespace().next().expect("addr token");

        let out = run_to_string(&[
            "loadtest",
            "--addr",
            addr,
            "--connections",
            "2",
            "--duration",
            "1",
            "--scenario",
            "micro",
        ])
        .unwrap();
        assert!(out.contains("server            frontend"), "{out}");
        assert!(
            out.contains("topology          frontend over 2 shard server(s)"),
            "{out}"
        );
        assert!(out.contains("verify            PASS"), "{out}");
    }

    #[test]
    fn export_writes_parseable_csv() {
        let path = tmp("export.csv");
        let out = run_to_string(&[
            "export",
            "--out",
            &path,
            "--routes",
            "2",
            "--per-direction",
            "1",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(out.contains("exported 4 trajectories"), "{out}");
        let file = std::fs::File::open(&path).unwrap();
        let records = geodabs_gen::csv::read_records(std::io::BufReader::new(file)).unwrap();
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.trajectory.len() > 10));
    }
}
