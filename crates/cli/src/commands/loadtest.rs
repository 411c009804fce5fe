//! `loadtest` and `metrics`: the client side of a running server. The
//! load run checks every response against an in-process rebuild; the
//! scraper pretty-prints the server's telemetry.

use geodabs_core::GeodabConfig;
use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
use geodabs_serve::{Client, LoadClient, MetricsReport};
use geodabs_traj::Trajectory;
use std::error::Error;
use std::io::Write;

use super::{refuse, scenario_dataset};
use crate::workload;
use crate::Args;

pub(super) fn loadtest(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let addr = args.string_required("addr")?;
    let server_metrics = args.has("server-metrics");
    let connections = args.usize_or("connections", 4)?;
    let seconds = args.u64_or("duration", 2)?;
    // Refused before any corpus is built, like `serve --threads 0`.
    refuse(connections == 0, "--connections must be at least 1")?;
    refuse(seconds == 0, "--duration must be at least 1")?;
    let limit = args.usize_or("limit", workload::VERIFY_LIMIT)?;
    let verify = args
        .one_of("verify", &["local", "none"])?
        .unwrap_or("local");
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
        twin.insert_batch(dataset.records().iter().map(|r| (r.id, &r.trajectory)));
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
    out: &mut dyn Write,
    before: &MetricsReport,
    after: &MetricsReport,
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

pub(super) fn metrics(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let addr = args.string_required("addr")?;
    let top = args.usize_or("top", 5)?;
    let report = Client::connect(addr.as_str())
        .map_err(|e| format!("connecting to {addr}: {e}"))?
        .metrics()
        .map_err(|e| format!("scraping {addr}: {e} (pre-metrics servers answer with an error)"))?;

    if let Some(path) = args.get("out") {
        std::fs::write(path, &report.text)?;
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

#[cfg(test)]
mod tests {
    use super::SERVER_STAGES;
    use geodabs_core::GeodabConfig;
    use geodabs_index::GeodabIndex;
    use geodabs_serve::{Client, Server, ServerConfig};

    /// Every stage `--server-metrics` reports names a histogram a fresh
    /// server registers, so renaming one in `geodabs-serve` fails here
    /// instead of silently dropping its row.
    #[test]
    fn server_stages_name_registered_histograms() {
        let config = ServerConfig::builder().mux_workers(1).build().unwrap();
        let index = GeodabIndex::new(GeodabConfig::default());
        let server = Server::bind("127.0.0.1:0", index, config)
            .expect("bind")
            .spawn();
        let report = Client::connect(server.addr())
            .expect("connect")
            .metrics()
            .expect("metrics");
        server.shutdown().expect("shutdown");
        for (label, name) in SERVER_STAGES {
            assert!(
                report.histogram(name).is_some(),
                "stage {label}: no histogram {name} in {:?}",
                report
                    .histograms
                    .iter()
                    .map(|h| &h.name)
                    .collect::<Vec<_>>()
            );
        }
    }
}
