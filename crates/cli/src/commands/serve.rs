//! `serve` and `frontend`: host an index, or coordinate shard servers,
//! over the wire protocol until `--duration` passes or a signal arrives.

use geodabs_core::GeodabConfig;
use geodabs_index::store::{self, Persist};
use geodabs_index::TrajectoryIndex;
use geodabs_serve::{recover, AnyIndex, ServeBackend, ServerHandle};
use std::error::Error;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use super::{empty_index, refuse, scenario_dataset, scenario_from_args};
use crate::workload;
use crate::Args;

pub(super) fn serve(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    use geodabs_serve::{Server, ServerConfig};
    use geodabs_wal::{SyncPolicy, Wal};

    let addr = args.string_required("addr")?;
    let threads = args.usize_or("threads", geodabs_index::batch::default_threads())?;
    let serve_shards = args.usize_or("serve-shards", 1)?;
    // Out-of-range counts are refused here, before any corpus is built.
    let config = ServerConfig::builder()
        .shards(serve_shards)
        .mux_workers(threads)
        .build()?;
    refuse(
        serve_shards > 1 && args.has("shard-id"),
        "--serve-shards conflicts with --shard-id: a shard server already hosts one node's slice",
    )?;
    let duration = args.u64_or("duration", 0)?;
    let rebuild = args.one_of("verify", &["rebuild"])?.is_some();
    let wal_dir = args.get("wal-dir");
    // Durability knobs only mean something with a log to apply them to.
    refuse(
        wal_dir.is_none() && (args.has("sync-policy") || args.has("compact-every")),
        "--sync-policy/--compact-every need --wal-dir",
    )?;
    let sync_policy = SyncPolicy::parse(&args.string_or("sync-policy", "always"))?;
    let compact_every = args.u64_or("compact-every", 0)?;
    // Both together are fine (--snapshot serves, --scenario names the
    // verify corpus); a durable server may also boot from its log
    // directory alone. No corpus source at all is an error.
    refuse(
        wal_dir.is_none() && !args.has("snapshot") && !args.has("scenario"),
        "serve needs a corpus: pass --snapshot FILE, --scenario NAME or --wal-dir DIR",
    )?;
    // A scenario ingest IS a fresh rebuild (batch ≡ serial ingest is
    // pinned by the equivalence proptests), so verifying it against
    // another fresh rebuild could never fail — reject the vacuous check
    // instead of doubling startup cost for nothing.
    refuse(
        rebuild && wal_dir.is_some(),
        "--verify rebuild conflicts with --wal-dir: replayed log mutations legitimately \
         diverge from the scenario corpus, so the check would fail spuriously",
    )?;
    refuse(
        rebuild && !args.has("snapshot"),
        "--verify rebuild needs --snapshot: a --scenario ingest is itself a fresh rebuild, \
         so the check would be vacuous",
    )?;
    refuse(
        args.has("shard-id") && args.has("snapshot"),
        "--shard-id conflicts with --snapshot (the snapshot records which node it is)",
    )?;
    refuse(
        args.has("backend") && args.has("snapshot"),
        "--backend conflicts with --snapshot (the snapshot names its backend)",
    )?;

    // Boot order for a durable server: the latest compacted snapshot in
    // the log directory wins (it reflects acknowledged state newer than
    // any --snapshot the caller passes), then the log suffix beyond its
    // watermark is replayed. Without one, boot starts from --snapshot, a
    // --scenario ingest or an empty index.
    let started = Instant::now();
    let empty = empty_index(args)?;
    let base = || -> Result<(AnyIndex, u64), Box<dyn Error>> {
        if let Some(snapshot) = args.get("snapshot") {
            let bytes = std::fs::read(snapshot)?;
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
        // A shard server ingests the whole corpus and keeps its node's
        // slice — exactly the state it would hold after a live N-node
        // ingest, so the per-shard heaps it answers merge exactly at the
        // frontend.
        let mut index = empty;
        index.insert_batch(dataset.records().iter().map(|r| (r.id, &r.trajectory)));
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
    let (index, snapshot_watermark) = match wal_dir {
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

    if rebuild {
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
    if let Some(dir) = wal_dir {
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
    let shape = format!("{threads} mux worker(s), {serve_shards} in-process shard(s)");
    serve_until_stopped(server.handle(), &shape, duration, || server.run(), out)
}

pub(super) fn frontend(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    use geodabs_cluster::ShardRouter;
    use geodabs_core::Fingerprinter;
    use geodabs_serve::{Frontend, FrontendConfig};

    let addr = args.string_required("addr")?;
    let shard_addrs: Vec<String> = args
        .string_required("shards")?
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    refuse(
        shard_addrs.is_empty(),
        "--shards needs at least one HOST:PORT",
    )?;
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
    let shape = format!("{threads} mux worker(s)");
    serve_until_stopped(frontend.handle(), &shape, duration, || frontend.run(), out)
}

/// Prints the `listening on` line, then serves until `duration` seconds
/// pass (when nonzero) or SIGTERM/Ctrl-C arrives. Both route into
/// `handle`'s clean-shutdown path: the serving loop drains, the WAL
/// flushes, and the process exits 0 instead of being torn mid-append.
fn serve_until_stopped(
    handle: ServerHandle,
    shape: &str,
    duration: u64,
    run: impl FnOnce() -> std::io::Result<u64>,
    out: &mut dyn Write,
) -> Result<(), Box<dyn Error>> {
    let until = match duration {
        0 => String::new(),
        _ => format!(", shutting down after {duration}s"),
    };
    writeln!(out, "listening on      {} ({shape}{until})", handle.addr())?;
    out.flush()?;
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
