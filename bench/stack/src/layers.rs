//! The traced pass: after the timed phases, every query is pushed one
//! at a time through successively deeper public entry points — over the
//! wire, then in process — with a span around each call. A row is the
//! median over the spans of one name; derived rows subtract a shallower
//! entry point from a deeper one (a differential waterfall, because the
//! spans are recorded from outside the product).
//!
//! Every workload reports the whole layer table on its own corpus: the
//! fixtures a workload does not serve from (a cluster, a frontend, a
//! log) are built here from the corpus fingerprints.

use crate::corpus::{self, Corpus, QUERIES};
use crate::deploy::{self, Deployment};
use crate::load::{self, QuerySet};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{self, ns_to_us};
use crate::workload::Options;
use geodabs_cluster::merge_heaps;
use geodabs_core::{Fingerprinter, Fingerprints, GeodabConfig};
use geodabs_geo::CellEncoder;
use geodabs_index::store::Persist;
use geodabs_index::{engine_telemetry, GeodabIndex, SearchResult, TrajectoryIndex};
use geodabs_roaring::RoaringBitmap;
use geodabs_serve::{Client, MetricsReport, QueryBody, Request, Response, ShardedIndex};
use geodabs_traj::{GeohashNormalizer, Normalizer};
use geodabs_wal::{SyncPolicy, Wal, WalOp};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Times each query goes through each entry point.
const REPETITIONS: usize = 8;

/// Fsynced appends timed for `wal.append_sync_us` (each costs a device
/// flush, so fewer than the other rows).
const SYNC_APPENDS: usize = 512;

/// Length of each side of the metrics-on / metrics-off pair.
const OBS_SIDE: Duration = Duration::from_millis(1_500);

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("trace pass, {context}: {e}")
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    load::connect(addr).map_err(|e| err("connect", e))
}

/// One value per request, in request order, to a row of the layer
/// table in microseconds: the median within each cycle through the
/// queries, then the quietest cycle (see `stats::best`).
fn quietest_cycle_us(per_request_ns: &mut [u64]) -> f64 {
    let medians: Vec<f64> = per_request_ns
        .chunks_mut(QUERIES)
        .map(|cycle| ns_to_us(stats::median(cycle)))
        .collect();
    stats::best(&medians, stats::Better::Lower)
}

/// The row of the spans called `name`.
fn row_us(rec: &Recorder, name: &str) -> f64 {
    quietest_cycle_us(&mut rec.durations_ns(name))
}

/// Server-side median of histogram `name` over the window between two
/// scrapes; 0 when the server recorded nothing under that name (a
/// frontend has no engine stage, a disabled registry has no samples).
fn p50_between(before: &MetricsReport, after: &MetricsReport, name: &str) -> f64 {
    let Some(after) = after.histogram(name) else {
        return 0.0;
    };
    let after = after.snapshot();
    let window = match before.histogram(name) {
        Some(before) => after.delta(&before.snapshot()),
        None => after,
    };
    window.quantile(50.0) as f64
}

/// Outputs checked during the pass, folded into the run's totals.
#[derive(Default)]
struct Checked {
    attempted: u64,
    failed: u64,
}

impl Checked {
    fn expect(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn hits<E>(&mut self, got: Result<Vec<SearchResult>, E>, expected: &[SearchResult]) {
        self.expect(got.is_ok_and(|hits| hits == expected));
    }
}

/// Calls `f(request, query)` for every query, `repetitions` cycles.
fn each_request(repetitions: usize, mut f: impl FnMut(u32, usize)) {
    for cycle in 0..repetitions {
        for query in 0..QUERIES {
            f((cycle * QUERIES + query) as u32, query);
        }
    }
}

fn fingerprints(ordered: &[u32]) -> Fingerprints {
    Fingerprints::from_ordered(ordered.to_vec())
}

/// Runs the traced pass and records every per-layer row it owns.
///
/// # Errors
///
/// Environment failures only; wrong outputs are counted in `report`.
pub fn trace_pass(
    corpus: &Corpus,
    deployment: &Deployment,
    untraced_p50_us: f64,
    options: &Options,
    report: &mut Report,
) -> Result<(), String> {
    let repetitions = if options.quick { 1 } else { REPETITIONS };
    let requests = repetitions * QUERIES;
    let search = corpus::search_options();
    let config = GeodabConfig::default();
    let queries = corpus.queries();
    let records = corpus.items();
    let query_fps: Vec<Fingerprints> = corpus.query_terms.iter().map(|t| fingerprints(t)).collect();
    let expected = &corpus.expected;
    let mut rec = Recorder::new();
    let mut checked = Checked::default();

    // --- Over the wire, against the workload's own endpoint. ---
    let mut client = connect(deployment.addr)?;
    each_request(repetitions, |request, _| {
        let pong = rec.time("serve.ping", request, None, || client.ping());
        checked.expect(pong.is_ok());
    });
    each_request(repetitions, |request, q| {
        let hits = rec.time("serve.query_fp", request, None, || {
            client.query_fingerprints(&corpus.query_terms[q], &search)
        });
        checked.hits(hits, &expected[q]);
    });
    let before = client.metrics().map_err(|e| err("server metrics", e))?;
    each_request(repetitions, |request, q| {
        let hits = rec.time("serve.query", request, None, || {
            client.query(queries[q], &search)
        });
        checked.hits(hits, &expected[q]);
    });
    let after = client.metrics().map_err(|e| err("server metrics", e))?;
    drop(client);
    let serve_query_us = row_us(&rec, "serve.query");
    let serve_query_fp_us = row_us(&rec, "serve.query_fp");
    report.set("serve.ping_rtt_us", row_us(&rec, "serve.ping"));
    report.set("serve.query_fp_us", serve_query_fp_us);
    report.set("serve.query_us", serve_query_us);
    let request_us_p50 = p50_between(
        &before,
        &after,
        "geodabs_request_latency_us{kind=\"query\"}",
    );
    report.set("serve.server.request_us_p50", request_us_p50);
    for (row, histogram) in [
        ("serve.server.engine_us_p50", "geodabs_stage_engine_us"),
        ("serve.server.lock_us_p50", "geodabs_stage_lock_us"),
        ("serve.server.decode_us_p50", "geodabs_decode_us"),
        ("serve.server.encode_us_p50", "geodabs_encode_us"),
    ] {
        report.set(row, p50_between(&before, &after, histogram));
    }
    report.set(
        "serve.server.workers_busy_peak",
        after
            .gauge("geodabs_mux_workers_busy")
            .map_or(0.0, |(_, peak)| peak as f64),
    );
    report.set("obs.clock_gap_us", serve_query_us - request_us_p50);
    report.set(
        "trace.overhead_share",
        (serve_query_us - untraced_p50_us) / untraced_p50_us,
    );

    // --- In process: the same index content, rebuilt from the corpus
    // fingerprints in record order (what the bulk build produces). ---
    let mut index = GeodabIndex::new(config);
    for ((id, _), terms) in records.iter().zip(&corpus.record_terms) {
        index.insert_fingerprints(*id, fingerprints(terms));
    }
    each_request(repetitions, |request, q| {
        let hits = rec.time("index.search", request, None, || {
            index.search(queries[q], &search)
        });
        checked.expect(hits == expected[q]);
    });
    // The three steps `search` is made of, as children of one span, so
    // the parent's self time is the glue between them.
    let normalizer = GeohashNormalizer::robust(config.normalization_depth())
        .map_err(|e| err("normalizer depth", e))?;
    let fingerprinter = Fingerprinter::new(config);
    each_request(repetitions, |request, q| {
        let pipeline = rec.begin("index.pipeline", request, None);
        let normalized = rec.time("traj.normalize", request, Some(pipeline), || {
            normalizer.normalize(queries[q])
        });
        let fp = rec.time("core.fingerprint", request, Some(pipeline), || {
            fingerprinter.fingerprint(&normalized)
        });
        let hits = rec.time("index.search_fp", request, Some(pipeline), || {
            index.search_fingerprints(&fp, &search)
        });
        rec.end(pipeline);
        checked.expect(hits == expected[q]);
    });
    let normalize_us = row_us(&rec, "traj.normalize");
    let fingerprint_us = row_us(&rec, "core.fingerprint");
    let search_fp_us = row_us(&rec, "index.search_fp");
    report.set("traj.normalize_us", normalize_us);
    report.set("core.fingerprint_us", fingerprint_us);
    report.set("index.search_fp_us", search_fp_us);
    report.set("index.search_us", row_us(&rec, "index.search"));
    report.set(
        "index.pipeline_glue_us",
        quietest_cycle_us(&mut rec.self_times_ns("index.pipeline")),
    );
    let distinct_terms: u64 = query_fps.iter().map(Fingerprints::distinct_len).sum();
    report.set(
        "core.terms_per_query",
        distinct_terms as f64 / QUERIES as f64,
    );
    let wire_us = serve_query_fp_us - search_fp_us;
    report.set("serve.wire_us", wire_us);
    let accounted = wire_us + normalize_us + fingerprint_us + search_fp_us;
    report.set(
        "serve.waterfall_residual_share",
        (serve_query_us - accounted).abs() / serve_query_us,
    );

    // Engine counters are process-wide statics: read them around a
    // loop in which nothing else searches, so the deltas are exact.
    let telemetry = engine_telemetry();
    for fp in &query_fps {
        black_box(index.search_fingerprints(fp, &search));
    }
    let scanned = engine_telemetry();
    let searches = (scanned.searches - telemetry.searches) as f64;
    report.set(
        "index.candidates_scanned_per_query",
        (scanned.candidates_scanned - telemetry.candidates_scanned) as f64 / searches,
    );
    report.set(
        "index.candidates_admitted_per_query",
        (scanned.candidates_admitted - telemetry.candidates_admitted) as f64 / searches,
    );
    report.set(
        "index.prune_cutoff_share",
        (scanned.prune_cutoffs - telemetry.prune_cutoffs) as f64 / searches,
    );

    // --- geo: the cell encoder over each query's points. ---
    let encoder =
        CellEncoder::new(config.normalization_depth()).map_err(|e| err("encoder depth", e))?;
    let mut encode_ns_per_point = Vec::with_capacity(requests);
    each_request(repetitions, |request, q| {
        let id = rec.begin("geo.encode", request, None);
        for point in queries[q].iter() {
            black_box(encoder.encode_bits(black_box(point)));
        }
        rec.end(id);
        let span = rec.spans().last().expect("just recorded");
        encode_ns_per_point.push(span.duration_ns() as f64 / queries[q].len() as f64);
    });
    report.set(
        "geo.encode_ns_per_point",
        stats::median_f64(&mut encode_ns_per_point),
    );

    // --- roaring: `for_each` over the benchmark's own term -> bitmap
    // postings of each query's terms, the floor under the engine's
    // inner loop. ---
    let mut postings: HashMap<u32, RoaringBitmap> = HashMap::new();
    for (slot, terms) in corpus.record_terms.iter().enumerate() {
        for term in corpus::distinct(terms) {
            postings.entry(term).or_default().insert(slot as u32);
        }
    }
    let query_sets: Vec<Vec<u32>> = corpus
        .query_terms
        .iter()
        .map(|t| corpus::distinct(t))
        .collect();
    let mut scanned_ids = 0u64;
    each_request(repetitions, |request, q| {
        rec.time("roaring.scan", request, None, || {
            for term in &query_sets[q] {
                if let Some(list) = postings.get(term) {
                    list.for_each(|id| {
                        scanned_ids += 1;
                        black_box(id);
                    });
                }
            }
        });
    });
    drop(postings);
    report.set("roaring.scan_us", row_us(&rec, "roaring.scan"));
    report.set("roaring.scan_ids", scanned_ids as f64 / requests as f64);

    // --- index writes: replace a record under its own id, from the raw
    // trajectory and from its fingerprints. ---
    for request in 0..requests {
        let (id, trajectory) = records[request % records.len()];
        rec.time("index.insert", request as u32, None, || {
            index.insert(id, trajectory)
        });
        let fp = fingerprints(&corpus.record_terms[request % records.len()]);
        rec.time("index.insert_fp", request as u32, None, || {
            index.insert_fingerprints(id, fp)
        });
    }
    report.set("index.insert_us", row_us(&rec, "index.insert"));
    report.set("index.insert_fp_us", row_us(&rec, "index.insert_fp"));
    let mut snapshot_bytes = 0;
    for cycle in 0..3 {
        let bytes = rec.time("index.snapshot_save", cycle, None, || index.to_snapshot());
        let loaded = rec.time("index.snapshot_load", cycle, None, || {
            GeodabIndex::from_snapshot(&bytes)
        });
        checked.expect(loaded.is_ok_and(|restored| restored.len() == index.len()));
        snapshot_bytes = bytes.len();
    }
    report.set("index.snapshot_bytes", snapshot_bytes as f64);
    report.set(
        "index.snapshot_save_us",
        row_us(&rec, "index.snapshot_save"),
    );
    report.set(
        "index.snapshot_load_us",
        row_us(&rec, "index.snapshot_load"),
    );

    // --- serve.proto: the frames of one query exchange. ---
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    each_request(repetitions, |request, q| {
        let message = Request::Query {
            query: QueryBody::Trajectory(queries[q].clone()),
            options: search,
        };
        let frame = rec.time("serve.proto.encode_req", request, None, || message.encode());
        let decoded = rec.time("serve.proto.decode_req", request, None, || {
            Request::decode(&frame)
        });
        checked.expect(decoded.is_ok_and(|d| d == message));
        let answer = Response::Hits(expected[q].clone());
        let reply = rec.time("serve.proto.encode_resp", request, None, || answer.encode());
        let decoded = rec.time("serve.proto.decode_resp", request, None, || {
            Response::decode(&reply)
        });
        checked.expect(decoded.is_ok_and(|d| d == answer));
        req_bytes += frame.len();
        resp_bytes += reply.len();
    });
    report.set("serve.proto.req_bytes", req_bytes as f64 / requests as f64);
    report.set(
        "serve.proto.resp_bytes",
        resp_bytes as f64 / requests as f64,
    );
    for row in [
        "serve.proto.encode_req",
        "serve.proto.decode_req",
        "serve.proto.encode_resp",
        "serve.proto.decode_resp",
    ] {
        report.set(&format!("{row}_us"), row_us(&rec, row));
    }

    // --- cluster: the in-process fan-out, then its legs and its merge
    // one by one. ---
    let mut cluster = deploy::empty_cluster();
    for ((id, _), terms) in records.iter().zip(&corpus.record_terms) {
        cluster.insert_fingerprints(*id, fingerprints(terms));
    }
    let nodes = deploy::shard_nodes(&cluster);
    let mut shards_touched = 0usize;
    each_request(repetitions, |request, q| {
        let (hits, stats) = rec.time("cluster.search", request, None, || {
            cluster.search_fingerprints_with_stats(&query_fps[q], &search)
        });
        shards_touched += stats.shards_contacted;
        checked.expect(hits == expected[q]);
    });
    each_request(repetitions, |request, q| {
        let legs = rec.begin("cluster.legs", request, None);
        let heaps: Vec<Vec<SearchResult>> = nodes
            .iter()
            .map(|node| {
                rec.time("cluster.leg", request, Some(legs), || {
                    node.search_fingerprints(&query_fps[q], &search)
                })
            })
            .collect();
        rec.end(legs);
        let merged = rec.time("cluster.merge", request, None, || {
            merge_heaps(heaps, &search)
        });
        checked.expect(merged == expected[q]);
    });
    let leg_ns = rec.durations_ns("cluster.leg");
    let mut leg_max: Vec<u64> = Vec::with_capacity(requests);
    let mut leg_sum: Vec<u64> = Vec::with_capacity(requests);
    for legs in leg_ns.chunks(nodes.len()) {
        leg_max.push(legs.iter().copied().max().expect("at least one node"));
        leg_sum.push(legs.iter().sum());
    }
    let leg_us_max = quietest_cycle_us(&mut leg_max);
    report.set("cluster.search_us", row_us(&rec, "cluster.search"));
    report.set("cluster.leg_us_max", leg_us_max);
    report.set("cluster.leg_us_sum", quietest_cycle_us(&mut leg_sum));
    report.set("cluster.merge_us", row_us(&rec, "cluster.merge"));
    report.set(
        "cluster.shards_touched",
        shards_touched as f64 / requests as f64,
    );

    // --- serve.frontend: the socket fan-out, on the workload's own
    // scatter deployment when it has one. ---
    let private = match deployment.shard_addrs.is_empty() {
        true => Some(Deployment::scatter(nodes.clone()).map_err(|e| err("binding shards", e))?),
        false => None,
    };
    let scatter = private.as_ref().unwrap_or(deployment);
    let mut frontend = connect(scatter.addr)?;
    let before = frontend.metrics().map_err(|e| err("frontend metrics", e))?;
    each_request(repetitions, |request, q| {
        let hits = rec.time("serve.frontend.query", request, None, || {
            frontend.query(queries[q], &search)
        });
        checked.hits(hits, &expected[q]);
    });
    let after = frontend.metrics().map_err(|e| err("frontend metrics", e))?;
    drop(frontend);
    let mut shard = connect(scatter.shard_addrs[0])?;
    each_request(repetitions, |request, q| {
        let heap = rec.time("serve.frontend.shard_query", request, None, || {
            shard.shard_query(&corpus.query_terms[q], &search)
        });
        checked.expect(heap.is_ok());
    });
    drop(shard);
    if let Some(private) = private {
        private.shutdown().map_err(|e| err("stopping shards", e))?;
    }
    let frontend_query_us = row_us(&rec, "serve.frontend.query");
    report.set("serve.frontend.query_us", frontend_query_us);
    report.set(
        "serve.frontend.shard_query_us",
        row_us(&rec, "serve.frontend.shard_query"),
    );
    report.set("serve.frontend.overhead_us", frontend_query_us - leg_us_max);
    report.set(
        "serve.frontend.scatter_shard_us_p50",
        p50_between(&before, &after, "geodabs_scatter_shard_us"),
    );
    report.set(
        "serve.frontend.merge_us_p50",
        p50_between(&before, &after, "geodabs_stage_merge_us"),
    );

    // --- serve.shards: the copy-on-write cells, the third fan-out. ---
    drop(nodes);
    let sharded = ShardedIndex::from_cluster(cluster);
    each_request(repetitions, |request, q| {
        let hits = rec.time("serve.shards.search", request, None, || {
            sharded.search_fingerprints(&query_fps[q], &search)
        });
        checked.expect(hits == expected[q]);
    });
    drop(sharded);
    report.set(
        "serve.shards.search_us",
        row_us(&rec, "serve.shards.search"),
    );

    // --- wal: the append with and without the fsync, and replay. ---
    let wal_root = options
        .out
        .join(format!("{}-{}-trace-wal", report.workload, report.seed));
    let _ = std::fs::remove_dir_all(&wal_root);
    let op = |request: usize| {
        let (id, trajectory) = records[request % records.len()];
        WalOp::Insert {
            id,
            trajectory: trajectory.clone(),
        }
    };
    let mut synced =
        Wal::open(&wal_root.join("sync"), SyncPolicy::Always).map_err(|e| err("wal open", e))?;
    for request in 0..requests.min(SYNC_APPENDS) {
        let op = op(request);
        let seq = rec.time("wal.append_sync", request as u32, None, || {
            synced.append(&op)
        });
        checked.expect(seq.is_ok());
    }
    drop(synced);
    let unsynced_dir = wal_root.join("nosync");
    let mut unsynced =
        Wal::open(&unsynced_dir, SyncPolicy::Never).map_err(|e| err("wal open", e))?;
    let mut user_bytes = 0usize;
    for request in 0..requests {
        let op = op(request);
        user_bytes += records[request % records.len()].1.len() * 16;
        let seq = rec.time("wal.append_nosync", request as u32, None, || {
            unsynced.append(&op)
        });
        checked.expect(seq.is_ok());
    }
    let log_bytes = unsynced.size_bytes();
    drop(unsynced);
    let mut replayed = GeodabIndex::new(config);
    let replay = Instant::now();
    for record in Wal::records(&unsynced_dir).map_err(|e| err("wal replay", e))? {
        if let WalOp::Insert { id, trajectory } = record.op {
            replayed.insert(id, &trajectory);
        }
    }
    let replay = replay.elapsed();
    checked.expect(replayed.len() == requests.min(records.len()));
    std::fs::remove_dir_all(&wal_root).map_err(|e| err("removing the trace wal", e))?;
    report.set("wal.append_sync_us", row_us(&rec, "wal.append_sync"));
    report.set("wal.append_nosync_us", row_us(&rec, "wal.append_nosync"));
    report.set("wal.bytes_per_op", log_bytes as f64 / requests as f64);
    report.set(
        "wal.bytes_per_user_byte",
        log_bytes as f64 / user_bytes as f64,
    );
    report.set(
        "wal.replay_records_per_s",
        requests as f64 / replay.as_secs_f64(),
    );

    // --- obs: the same closed loop against the same index with the
    // server's clocks off, then on. `GEODABS_METRICS` is read at bind. ---
    let set = QuerySet {
        queries: &queries,
        expected,
        options: search,
    };
    let side = if options.quick {
        OBS_SIDE / 15
    } else {
        OBS_SIDE
    };
    let inherited = std::env::var_os("GEODABS_METRICS");
    let mut qps_of = |setting: &str, index: GeodabIndex| -> Result<f64, String> {
        std::env::set_var("GEODABS_METRICS", setting);
        let server = Deployment::monolith(index).map_err(|e| err("binding the obs pair", e));
        match &inherited {
            Some(value) => std::env::set_var("GEODABS_METRICS", value),
            None => std::env::remove_var("GEODABS_METRICS"),
        }
        let server = server?;
        load::closed_loop(server.addr, set, 1, side / 5);
        let tally = load::closed_loop(server.addr, set, 1, side);
        server
            .shutdown()
            .map_err(|e| err("stopping the obs pair", e))?;
        checked.attempted += tally.attempted;
        checked.failed += tally.failed;
        Ok(stats::steady_rate_per_s(
            &tally.samples,
            side.as_nanos() as u64,
        ))
    };
    let qps_off = qps_of("off", index.clone())?;
    let qps_on = qps_of("on", index)?;
    report.set("obs.qps_on_over_off", qps_on / qps_off);

    report.set("trace.spans", rec.spans().len() as f64);
    rec.write_json(&options.out.join(format!("{}.trace.json", report.workload)))
        .map_err(|e| err("writing the trace", e))?;
    report.attempted += checked.attempted;
    report.failed += checked.failed;
    Ok(())
}
