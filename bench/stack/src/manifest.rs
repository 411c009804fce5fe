//! The benchmark's declaration: workloads, metrics, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is
//! [`render`]ed from these tables (`stackbench --emit-manifest`), and a
//! test pins the checked-in file to them, so the declaration and the
//! code that measures it cannot drift apart.

pub use crate::stats::Better;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` on per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// How long one run measures, in seconds (the `--seconds` default).
pub const RUN_SECONDS: u32 = 10;

/// The package directory, relative to the repo root.
pub const PATH: &str = "bench/stack";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire-2k",
        why: "2k corpus behind Server: the engine is ~15us of a ~160us request, so mux, proto, TCP and fingerprinting dominate; wire work must show here and engine work must not",
    },
    Workload {
        name: "dense-100k",
        why: "100k paper-dense corpus behind Server: the engine is ~70% of a ~0.8ms request, so roaring/index work must show here and wire work must stay within its share",
    },
    Workload {
        name: "scatter-2n",
        why: "20k corpus on 2 shard servers behind a Frontend: the second hop, ShardNode scoring and heap merge that no other workload serves from; fan-out work must show here only",
    },
    Workload {
        name: "mixed-rw",
        why: "10k corpus behind a durable Server (WAL fsync per write, compaction) with a reader beside the paced writer, so a read gain paid for by the write path shows",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the served index sees. Every workload reports every
/// one of these (the driver's contract), from phases run with tracing
/// off.
///
/// The bounds are the widest the driver allows: in this sandbox the
/// same commit differs from itself by 10-20 % from one run to the next
/// (see `stats::best`), and a bound inside that noise would reject
/// unchanged code.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("insert_p50_us", "us", Lower, 0.25),
    e2e("precision_at_10", "ratio", Higher, 0.25),
];

/// Single layers, measured from outside in the `--trace` pass by timing
/// calls into public functions (plus server-side histograms read over
/// the wire). Layer = crate or module; the prefix names it.
pub const PER_LAYER: [Metric; 69] = [
    layer("geo.encode_ns_per_point", "ns", Lower),
    layer("traj.normalize_us", "us", Lower),
    layer("core.fingerprint_us", "us", Lower),
    layer("core.terms_per_query", "count", Lower),
    layer("roaring.scan_us", "us", Lower),
    layer("roaring.scan_ids", "count", Lower),
    layer("index.search_fp_us", "us", Lower),
    layer("index.search_us", "us", Lower),
    layer("index.pipeline_glue_us", "us", Lower),
    layer("index.candidates_scanned_per_query", "count", Lower),
    layer("index.candidates_admitted_per_query", "count", Lower),
    layer("index.prune_cutoff_share", "ratio", Higher),
    layer("index.insert_us", "us", Lower),
    layer("index.insert_fp_us", "us", Lower),
    layer("index.snapshot_bytes", "bytes", Lower),
    layer("index.snapshot_save_us", "us", Lower),
    layer("index.snapshot_load_us", "us", Lower),
    layer("serve.proto.req_bytes", "bytes", Lower),
    layer("serve.proto.resp_bytes", "bytes", Lower),
    layer("serve.proto.encode_req_us", "us", Lower),
    layer("serve.proto.decode_req_us", "us", Lower),
    layer("serve.proto.encode_resp_us", "us", Lower),
    layer("serve.proto.decode_resp_us", "us", Lower),
    layer("serve.ping_rtt_us", "us", Lower),
    layer("serve.query_fp_us", "us", Lower),
    layer("serve.query_us", "us", Lower),
    layer("serve.wire_us", "us", Lower),
    layer("serve.waterfall_residual_share", "ratio", Lower),
    layer("serve.server.request_us_p50", "us", Lower),
    layer("serve.server.engine_us_p50", "us", Lower),
    layer("serve.server.lock_us_p50", "us", Lower),
    layer("serve.server.decode_us_p50", "us", Lower),
    layer("serve.server.encode_us_p50", "us", Lower),
    layer("serve.server.workers_busy_peak", "count", Lower),
    layer("obs.clock_gap_us", "us", Lower),
    layer("obs.qps_on_over_off", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("cluster.search_us", "us", Lower),
    layer("cluster.leg_us_max", "us", Lower),
    layer("cluster.leg_us_sum", "us", Lower),
    layer("cluster.merge_us", "us", Lower),
    layer("cluster.shards_touched", "count", Lower),
    layer("serve.shards.search_us", "us", Lower),
    layer("serve.frontend.query_us", "us", Lower),
    layer("serve.frontend.shard_query_us", "us", Lower),
    layer("serve.frontend.overhead_us", "us", Lower),
    layer("serve.frontend.scatter_shard_us_p50", "us", Lower),
    layer("serve.frontend.merge_us_p50", "us", Lower),
    layer("wal.append_sync_us", "us", Lower),
    layer("wal.append_nosync_us", "us", Lower),
    layer("wal.bytes_per_op", "bytes", Lower),
    layer("wal.bytes_per_user_byte", "ratio", Lower),
    layer("wal.replay_records_per_s", "1/s", Higher),
    layer("wal.compactions", "count", Higher),
    layer("proc.rss_mb", "MB", Lower),
    layer("gen.corpus_s", "s", Lower),
    layer("gen.lateness_p99_us", "us", Lower),
    layer("gen.backlogged_share", "ratio", Lower),
    // These four could not repeat within a bound (the A/A rule of the
    // issue): throughput over two connections (four busy threads on two
    // cores), the one-shot bulk build and the whole-phase tails are
    // reported here without one.
    layer("client.qps", "1/s", Higher),
    layer("client.build_traj_per_s", "traj/s", Higher),
    layer("client.query_p99_us", "us", Lower),
    layer("client.insert_p99_us", "us", Lower),
    layer("client.query_samples", "count", Higher),
    layer("client.query_tail_pct", "%", Higher),
    layer("client.query_tail_us", "us", Lower),
    layer("client.insert_samples", "count", Higher),
    layer("client.insert_tail_pct", "%", Higher),
    layer("client.insert_tail_us", "us", Lower),
];

/// Looks a declared metric up by name, end-to-end first.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

fn quote(s: &str) -> String {
    debug_assert!(s.chars().all(|c| c != '"' && c != '\\' && !c.is_control()));
    format!("\"{s}\"")
}

/// `BENCHMARK.json`, byte for byte.
pub fn render() -> String {
    let manifest_path = format!("{PATH}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &manifest_path,
        "--",
    ];
    let mut out = String::from("{\n");
    let command: Vec<String> = command.iter().map(|s| quote(s)).collect();
    out.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    out.push_str(&format!("  \"paths\": [{}],\n", quote(PATH)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declaration_meets_the_drivers_limits() {
        let mut names = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(render().len() <= 64 * 1024);
    }

    #[test]
    fn checked_in_benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            render(),
            "regenerate with `stackbench --emit-manifest > BENCHMARK.json`"
        );
    }
}
