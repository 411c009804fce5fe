//! Golden pin of the wire protocol's payload bytes.
//!
//! Round-trip tests compare the encoder with its own decoder, so a
//! symmetric change to both — a reordered field, a wider count, a
//! dropped flag byte — would pass them and still break every peer
//! running the previous build (old shard servers, old clients, the
//! frozen legacy `Stats`/`ShardQuery` shapes). These digests pin
//! `encode()` of every request and response variant; they must never
//! change without a deliberate protocol bump.

use geodabs_geo::Point;
use geodabs_index::{SearchOptions, SearchResult};
use geodabs_serve::{
    DurabilityStats, MetricsHistogram, MetricsReport, MetricsSlowQuery, QueryBody, Request,
    Response, StatsBody,
};
use geodabs_traj::{TrajId, Trajectory};

/// FNV-1a over the bytes, with a length prefix so two payloads that
/// differ only by where one ends cannot collide.
fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `n` points on a plain arithmetic grid (no trigonometry, so the
/// coordinates are bit-identical on every platform).
fn grid(n: usize) -> Trajectory {
    (0..n)
        .map(|i| Point::new(51.5 + i as f64 * 0.001, -0.125 + i as f64 * 0.0005).unwrap())
        .collect()
}

fn hit(id: u32, distance: f64) -> SearchResult {
    SearchResult {
        id: TrajId::new(id),
        distance,
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let limited = SearchOptions::default().max_distance(0.75).limit(10);
    vec![
        ("ping", Request::Ping),
        ("stats legacy", Request::Stats { durability: false }),
        ("stats durability", Request::Stats { durability: true }),
        (
            "query trajectory",
            Request::Query {
                query: QueryBody::Trajectory(grid(5)),
                options: limited,
            },
        ),
        (
            "query fingerprints",
            Request::Query {
                query: QueryBody::Fingerprints(vec![1, 2, 3, u32::MAX]),
                options: SearchOptions::default(),
            },
        ),
        (
            "insert",
            Request::Insert {
                id: TrajId::new(42),
                trajectory: grid(4),
            },
        ),
        (
            "remove",
            Request::Remove {
                id: TrajId::new(u32::MAX),
            },
        ),
        (
            "shard query untraced",
            Request::ShardQuery {
                terms: vec![5, 6, 7],
                options: SearchOptions::default().limit(9),
                trace: 0,
            },
        ),
        (
            "shard query traced",
            Request::ShardQuery {
                terms: vec![5, 6, 7],
                options: limited,
                trace: 0xDEAD_BEEF_CAFE_F00D,
            },
        ),
        (
            "shard insert",
            Request::ShardInsert {
                id: TrajId::new(9),
                terms: vec![3, 3, 3, 8],
            },
        ),
        ("metrics", Request::Metrics),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    let stats = StatsBody {
        backend: "geodab".into(),
        trajectories: 12,
        terms: 3400,
        workers: 8,
        durability: None,
    };
    let report = MetricsReport {
        counters: vec![
            ("geodabs_requests_total{kind=\"query\"}".into(), 41),
            ("geodabs_wal_appends_total".into(), 7),
        ],
        gauges: vec![("geodabs_connections".into(), 2, 16)],
        histograms: vec![
            MetricsHistogram {
                name: "geodabs_request_latency_us{kind=\"query\"}".into(),
                sum: 12_345,
                buckets: vec![(0, 1), (17, 4), (200, 2)],
            },
            MetricsHistogram::default(),
        ],
        slow_queries: vec![MetricsSlowQuery {
            trace_id: 0x1234_5678_9ABC_DEF0,
            kind: "query".into(),
            total_us: 15_000,
            stages: vec![("engine".into(), 14_000), ("merge".into(), 500)],
        }],
        text: "# TYPE geodabs_requests_total counter\n".into(),
    };
    vec![
        ("pong", Response::Pong),
        ("stats legacy", Response::Stats(stats.clone())),
        (
            "stats durability",
            Response::Stats(StatsBody {
                durability: Some(DurabilityStats {
                    last_durable_seq: 77,
                    wal_bytes: 4096,
                    snapshot_watermark: 50,
                }),
                ..stats
            }),
        ),
        ("hits", Response::Hits(vec![hit(3, 0.0), hit(9, 0.375)])),
        ("inserted", Response::Inserted { len: 41 }),
        ("removed yes", Response::Removed { was_present: true }),
        ("removed no", Response::Removed { was_present: false }),
        ("error", Response::Error("boom".into())),
        ("shard topk", Response::ShardTopK(vec![hit(4, 0.25)])),
        (
            "unavailable",
            Response::Unavailable {
                node: 3,
                message: "connection refused".into(),
            },
        ),
        ("metrics", Response::Metrics(report)),
    ]
}

/// Compares every digest and reports all mismatches at once, so a
/// format change names each frame it moved.
fn check(actual: Vec<(&'static str, u64)>, expected: &[(&str, u64)]) {
    let moved: Vec<String> = actual
        .iter()
        .zip(expected)
        .filter(|(a, e)| a != e)
        .map(|((name, got), _)| format!("{name}: {got:#018x}"))
        .collect();
    assert_eq!(actual.len(), expected.len(), "frame list changed");
    assert!(moved.is_empty(), "wire bytes changed: {moved:?}");
}

#[test]
fn every_request_encoding_is_pinned() {
    let actual = requests()
        .into_iter()
        .map(|(name, request)| (name, digest(&request.encode())))
        .collect();
    check(
        actual,
        &[
            ("ping", 0x529a_2ddc_8ff5_355f),
            ("stats legacy", 0x529a_2edc_8ff5_3712),
            ("stats durability", 0x9b16_7cd3_2791_6c1a),
            ("query trajectory", 0x9153_370d_68e2_0bef),
            ("query fingerprints", 0x605e_9416_26d5_b56c),
            ("insert", 0x7a06_ac1c_59b4_3b09),
            ("remove", 0xbf63_6309_2448_750e),
            ("shard query untraced", 0x3b8a_38a1_83fa_cf1a),
            ("shard query traced", 0xccea_3e7e_a740_9df4),
            ("shard insert", 0xfa15_a55c_737d_04aa),
            ("metrics", 0x529a_35dc_8ff5_42f7),
        ],
    );
}

#[test]
fn every_response_encoding_is_pinned() {
    let actual = responses()
        .into_iter()
        .map(|(name, response)| (name, digest(&response.encode())))
        .collect();
    check(
        actual,
        &[
            ("pong", 0x529a_2ddc_8ff5_355f),
            ("stats legacy", 0x9627_66f7_1295_897d),
            ("stats durability", 0x8e54_6c90_eaf9_11da),
            ("hits", 0x3923_fb87_4d3a_114c),
            ("inserted", 0xc574_483f_4dbd_5342),
            ("removed yes", 0x9b08_e4d3_2785_df76),
            ("removed no", 0x9b08_e5d3_2785_e129),
            ("error", 0x8aa1_487f_fb95_3a4a),
            ("shard topk", 0x388c_760a_48dd_5fcc),
            ("unavailable", 0xc821_0a77_e0c6_e6e4),
            ("metrics", 0xa38d_f202_a7ba_aad2),
        ],
    );
}

/// The pinned payloads are also the decoders' fixed points.
#[test]
fn pinned_payloads_decode_to_their_messages() {
    for (name, request) in requests() {
        assert_eq!(
            Request::decode(&request.encode()).unwrap(),
            request,
            "{name}"
        );
    }
    for (name, response) in responses() {
        assert_eq!(
            Response::decode(&response.encode()).unwrap(),
            response,
            "{name}"
        );
    }
}
