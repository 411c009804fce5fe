//! Corruption suite for the wire protocol, mirroring the snapshot
//! layer's `codec_roundtrip.rs` discipline: truncated, bit-flipped and
//! length-prefix-attack frames must be rejected with a typed
//! [`WireError`] — never a panic, never an unbounded allocation — and
//! arbitrary bytes must never decode-panic either.

use geodabs_geo::Point;
use geodabs_index::{SearchOptions, SearchResult};
use geodabs_serve::proto::{write_frame, FrameReader, MAX_FRAME_LEN};
use geodabs_serve::{
    MetricsHistogram, MetricsReport, MetricsSlowQuery, QueryBody, Request, Response, WireError,
};
use geodabs_traj::{TrajId, Trajectory};
use proptest::prelude::*;

fn sample_trajectory(points: usize) -> Trajectory {
    let start = Point::new(51.5074, -0.1278).unwrap();
    (0..points)
        .map(|i| start.destination(90.0, i as f64 * 90.0))
        .collect()
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, payload).expect("payload under the cap");
    wire
}

fn read_one(wire: &[u8]) -> Result<Option<Vec<u8>>, WireError> {
    FrameReader::new(wire).read_frame()
}

/// Representative request frames, one per query body shape.
fn sample_frames() -> Vec<Vec<u8>> {
    [
        QueryBody::Trajectory(sample_trajectory(8)),
        QueryBody::Fingerprints(vec![1, 99, 100_000]),
    ]
    .into_iter()
    .map(|query| {
        let options = SearchOptions::default().max_distance(0.7).limit(10);
        framed(&Request::Query { query, options }.encode())
    })
    .collect()
}

/// The distributed frames run through the same corruption gauntlets.
fn shard_frames() -> Vec<Vec<u8>> {
    vec![
        Request::ShardQuery {
            terms: vec![3, 77, 65_536],
            options: SearchOptions::default().limit(5),
            trace: 0,
        }
        .encode(),
        Request::ShardQuery {
            terms: vec![3, 77, 65_536],
            options: SearchOptions::default().limit(5),
            trace: 0x1234_5678_9ABC_DEF0,
        }
        .encode(),
        Request::ShardInsert {
            id: TrajId::new(11),
            terms: vec![0, 1, u32::MAX],
        }
        .encode(),
        Response::ShardTopK(vec![SearchResult {
            id: TrajId::new(4),
            distance: 0.25,
        }])
        .encode(),
        Response::Unavailable {
            node: 2,
            message: "dial tcp: connection refused".into(),
        }
        .encode(),
    ]
}

/// A populated telemetry report, so the metrics frames exercise every
/// nested shape (counters, gauges, sparse histograms, slow queries).
fn sample_report() -> MetricsReport {
    MetricsReport {
        counters: vec![("geodabs_requests_total".into(), 42)],
        gauges: vec![("geodabs_connections".into(), 3, 9)],
        histograms: vec![MetricsHistogram {
            name: "geodabs_request_latency_us".into(),
            sum: 1234,
            buckets: vec![(0, 5), (17, 2), (495, 1)],
        }],
        slow_queries: vec![MetricsSlowQuery {
            trace_id: 0xFEED_FACE_CAFE_BEEF,
            kind: "query".into(),
            total_us: 1500,
            stages: vec![("engine".into(), 1400), ("lock".into(), 100)],
        }],
        text: "# TYPE geodabs_requests_total counter\n".into(),
    }
}

/// The telemetry frames run through the same corruption gauntlets.
fn metrics_frames() -> Vec<Vec<u8>> {
    vec![
        Request::Metrics.encode(),
        Response::Metrics(sample_report()).encode(),
    ]
}

#[test]
fn every_strict_prefix_of_a_metrics_frame_is_rejected() {
    for payload in metrics_frames() {
        let wire = framed(&payload);
        for cut in 1..wire.len() {
            let result = read_one(&wire[..cut]);
            assert!(
                matches!(result, Err(WireError::Truncated)),
                "cut at {cut}: {result:?}"
            );
        }
    }
}

#[test]
fn every_single_bit_flip_in_a_metrics_frame_is_rejected() {
    for payload in metrics_frames() {
        let wire = framed(&payload);
        for byte in 0..wire.len() {
            for bit in 0..8u8 {
                let mut corrupted = wire.clone();
                corrupted[byte] ^= 1 << bit;
                let outcome = read_one(&corrupted);
                assert!(
                    outcome.is_err(),
                    "flip of bit {bit} in byte {byte} survived: {outcome:?}"
                );
            }
        }
    }
}

#[test]
fn truncated_metrics_payloads_are_typed_errors() {
    let payload = Response::Metrics(sample_report()).encode();
    for cut in 0..payload.len() {
        assert!(
            Response::decode(&payload[..cut]).is_err(),
            "metrics response cut at {cut}"
        );
    }
}

#[test]
fn metrics_report_roundtrip_is_identity() {
    let response = Response::Metrics(sample_report());
    assert_eq!(Response::decode(&response.encode()).unwrap(), response);
    let empty = Response::Metrics(MetricsReport::default());
    assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    assert_eq!(
        Request::decode(&Request::Metrics.encode()).unwrap(),
        Request::Metrics
    );
}

#[test]
fn every_strict_prefix_of_a_shard_frame_is_rejected() {
    for payload in shard_frames() {
        let wire = framed(&payload);
        for cut in 1..wire.len() {
            let result = read_one(&wire[..cut]);
            assert!(
                matches!(result, Err(WireError::Truncated)),
                "cut at {cut}: {result:?}"
            );
        }
    }
}

#[test]
fn every_single_bit_flip_in_a_shard_frame_is_rejected() {
    for payload in shard_frames() {
        let wire = framed(&payload);
        for byte in 0..wire.len() {
            for bit in 0..8u8 {
                let mut corrupted = wire.clone();
                corrupted[byte] ^= 1 << bit;
                let outcome = read_one(&corrupted);
                assert!(
                    outcome.is_err(),
                    "flip of bit {bit} in byte {byte} survived: {outcome:?}"
                );
            }
        }
    }
}

#[test]
fn truncated_shard_payloads_are_typed_errors() {
    // A pristine frame around a cut-short shard payload must fail its
    // decoder typed, never panic — the length-attack path for the new
    // tags. (Only the matching decoder is asserted: request and
    // response tags are separate spaces, so a request prefix may
    // coincidentally parse as some response.)
    let [shard_query, traced_query, shard_insert, shard_topk, unavailable]: [Vec<u8>; 5] =
        shard_frames().try_into().expect("five shard frames");
    for payload in [&shard_query, &shard_insert] {
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "request cut at {cut}"
            );
        }
    }
    // The traced shard query is the untraced frame plus a trace tail, so
    // the cut landing exactly on the legacy boundary IS a valid legacy
    // frame (that is the back-compat contract); every other cut — a bare
    // flag byte, a chopped trace — must fail typed.
    for cut in 0..traced_query.len() {
        let decoded = Request::decode(&traced_query[..cut]);
        if cut == shard_query.len() {
            assert!(
                matches!(decoded, Ok(Request::ShardQuery { trace: 0, .. })),
                "legacy-boundary cut must decode untraced: {decoded:?}"
            );
        } else {
            assert!(decoded.is_err(), "traced request cut at {cut}: {decoded:?}");
        }
    }
    for payload in [shard_topk, unavailable] {
        for cut in 0..payload.len() {
            assert!(
                Response::decode(&payload[..cut]).is_err(),
                "response cut at {cut}"
            );
        }
    }
}

#[test]
fn every_strict_prefix_of_a_frame_is_rejected() {
    for wire in sample_frames() {
        for cut in 1..wire.len() {
            let result = read_one(&wire[..cut]);
            assert!(
                matches!(result, Err(WireError::Truncated)),
                "cut at {cut}: {result:?}"
            );
        }
    }
    // The empty prefix is a clean close, not an error.
    assert!(matches!(read_one(&[]), Ok(None)));
}

#[test]
fn every_single_bit_flip_in_a_frame_is_rejected() {
    for wire in sample_frames() {
        for byte in 0..wire.len() {
            for bit in 0..8u8 {
                let mut corrupted = wire.clone();
                corrupted[byte] ^= 1 << bit;
                let outcome = read_one(&corrupted);
                // A flip in the length prefix can shrink the claimed
                // length; the CRC (over different bytes) then catches it.
                // A flip anywhere else fails the checksum, the length cap
                // or the truncation check. Nothing may decode cleanly.
                assert!(
                    outcome.is_err(),
                    "flip of bit {bit} in byte {byte} survived: {outcome:?}"
                );
            }
        }
    }
}

#[test]
fn length_prefix_attacks_fail_before_allocating() {
    for claimed in [MAX_FRAME_LEN + 1, u32::MAX / 2, u32::MAX] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&claimed.to_le_bytes());
        wire.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        wire.extend_from_slice(&[0u8; 64]);
        assert!(
            matches!(
                read_one(&wire),
                Err(WireError::FrameTooLarge { claimed: c }) if c == claimed
            ),
            "claimed {claimed}"
        );
    }
    // The largest admissible claim with a missing body is truncation,
    // and the reader's buffer is bounded by the claim it validated.
    let mut wire = Vec::new();
    wire.extend_from_slice(&1024u32.to_le_bytes());
    wire.extend_from_slice(&0u32.to_le_bytes());
    assert!(matches!(read_one(&wire), Err(WireError::Truncated)));
}

#[test]
fn corrupt_payloads_inside_valid_frames_are_typed_errors() {
    // A frame can be pristine while its payload is garbage: the decoder
    // must still fail typed.
    let garbage = framed(&[42u8; 33]);
    let payload = read_one(&garbage).unwrap().unwrap();
    assert!(Request::decode(&payload).is_err());
    assert!(Response::decode(&payload).is_err());
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = read_one(&bytes);
    }

    #[test]
    fn truncated_random_requests_never_panic(
        points in 0usize..20,
        cut_permille in 0u32..1000,
    ) {
        let payload = Request::Insert {
            id: TrajId::new(7),
            trajectory: sample_trajectory(points),
        }
        .encode();
        let cut = (payload.len() as u64 * cut_permille as u64 / 1000) as usize;
        prop_assert!(Request::decode(&payload[..cut]).is_err() || cut == payload.len());
    }

    #[test]
    fn request_roundtrip_is_identity(
        terms in proptest::collection::vec(any::<u32>(), 0..50),
        max_distance_pm in 0u32..1001,
        limit in 0usize..100,
    ) {
        let mut options = SearchOptions::default().max_distance(max_distance_pm as f64 / 1000.0);
        // limit == 0 doubles as the "no limit" case.
        if limit > 0 {
            options = options.limit(limit - 1);
        }
        let request = Request::Query {
            query: QueryBody::Fingerprints(terms),
            options,
        };
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }

    #[test]
    fn shard_query_roundtrip_is_identity(
        terms in proptest::collection::vec(any::<u32>(), 0..80),
        limit in 0usize..50,
        trace in any::<u64>(),
    ) {
        let request = Request::ShardQuery {
            terms,
            options: SearchOptions::default().limit(limit),
            trace,
        };
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }

    #[test]
    fn shard_insert_roundtrip_is_identity(
        id in any::<u32>(),
        terms in proptest::collection::vec(any::<u32>(), 0..80),
    ) {
        let request = Request::ShardInsert { id: TrajId::new(id), terms };
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }

    #[test]
    fn shard_topk_and_unavailable_roundtrip_is_identity(
        hits in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..50),
        node in any::<u32>(),
        message_bytes in proptest::collection::vec(0x20u8..0x7f, 0..60),
    ) {
        let message = String::from_utf8(message_bytes).expect("printable ascii");
        // Raw bit patterns for the distances: the frame must carry the
        // exact IEEE-754 bits, including NaNs and infinities.
        let hits: Vec<SearchResult> = hits
            .into_iter()
            .map(|(id, bits)| SearchResult {
                id: TrajId::new(id),
                distance: f64::from_bits(bits),
            })
            .collect();
        let response = Response::ShardTopK(hits.clone());
        match Response::decode(&response.encode()).unwrap() {
            Response::ShardTopK(decoded) => {
                prop_assert_eq!(decoded.len(), hits.len());
                for (d, h) in decoded.iter().zip(&hits) {
                    prop_assert_eq!(d.id, h.id);
                    prop_assert_eq!(d.distance.to_bits(), h.distance.to_bits());
                }
            }
            other => prop_assert!(false, "wrong variant {:?}", other),
        }
        let response = Response::Unavailable { node, message };
        prop_assert_eq!(Response::decode(&response.encode()).unwrap(), response);
    }

    #[test]
    fn response_roundtrip_is_identity(
        hits in proptest::collection::vec((any::<u32>(), 0u32..1001), 0..50),
    ) {
        let hits: Vec<SearchResult> = hits
            .into_iter()
            .map(|(id, d)| SearchResult {
                id: TrajId::new(id),
                distance: d as f64 / 1000.0,
            })
            .collect();
        let response = Response::Hits(hits);
        prop_assert_eq!(Response::decode(&response.encode()).unwrap(), response);
    }
}
