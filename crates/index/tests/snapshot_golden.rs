//! Golden pin of the single-node snapshot bytes (tag 1 and the legacy
//! v1 format).
//!
//! Round-trip tests compare the codec with itself, so a change in which
//! dense slot a trajectory gets, which freed slot is recycled first, or
//! in what order the stored fingerprints are written would
//! only show up as a deployed warm-start artifact that no longer decodes
//! to the index it was saved from. These digests must never change
//! without a deliberate format bump.

use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_geo::Point;
use geodabs_index::codec::{decode, encode_v1};
use geodabs_index::store::Persist;
use geodabs_index::{GeodabIndex, TrajectoryIndex};
use geodabs_traj::{TrajId, Trajectory};

/// FNV-1a over the bytes, with a length prefix so concatenating two
/// snapshots cannot collide with a shifted boundary.
fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `n` points heading `bearing` from `(lat, lon)`, 90 m apart.
fn walk(lat: f64, lon: f64, bearing: f64, n: usize, offset_m: f64) -> Trajectory {
    let start = Point::new(lat, lon).unwrap();
    (0..n)
        .map(|i| start.destination(bearing, offset_m + i as f64 * 90.0))
        .collect()
}

/// The fixed script every pin runs: inserts out of id order (one
/// trajectory too short to fingerprint, one with no points at all), a
/// replace, two removes, then fresh ids that recycle the freed slots.
fn script<I: TrajectoryIndex>(index: &mut I) {
    let london = (51.5074, -0.1278);
    let paris = (48.8566, 2.3522);
    let berlin = (52.5200, 13.4050);
    let inserts = [
        (7, walk(london.0, london.1, 90.0, 40, 0.0)),
        (3, walk(london.0, london.1, 90.0, 40, 0.0).reversed()),
        (12, walk(paris.0, paris.1, 0.0, 50, 300.0)),
        (5, walk(berlin.0, berlin.1, 45.0, 60, 0.0)),
        (30, walk(london.0, london.1, 90.0, 2, 0.0)),
        (31, Trajectory::new(Vec::new())),
        (9, walk(london.0, london.1, 90.0, 45, 400.0)),
    ];
    for (id, t) in &inserts {
        index.insert(TrajId::new(*id), t);
    }
    index.insert(TrajId::new(12), &walk(paris.0, paris.1, 270.0, 45, 100.0));
    assert!(index.remove(TrajId::new(3)));
    assert!(index.remove(TrajId::new(5)));
    index.insert(TrajId::new(20), &walk(berlin.0, berlin.1, 270.0, 50, 0.0));
    index.insert(TrajId::new(3), &walk(london.0, london.1, 0.0, 40, 0.0));
    index.insert(TrajId::new(1), &walk(paris.0, paris.1, 135.0, 45, 0.0));
    assert_eq!(index.len(), inserts.len() + 1);
}

#[test]
fn geodab_snapshot_is_pinned() {
    let mut geodab = GeodabIndex::new(GeodabConfig::default());
    script(&mut geodab);
    assert_eq!(
        digest(&geodab.to_snapshot()),
        0xe1fc_ee7a_eb70_66d7,
        "geodab snapshot bytes changed"
    );
}

/// A v1 blob as the legacy writer laid it out, frozen byte by byte so
/// the reader is held to the old format rather than to `encode_v1`'s
/// current output (a symmetric change to both would pass a round trip
/// and still strand every v1 file on disk).
const FROZEN_V1: &[u8] = &[
    b'G', b'D', b'A', b'B', 1, 0, // magic, version 1
    34, 12, 4, 0, 0, 0, 9, 0, 0, 0, // depth, prefix, k u32, t u32
    3, 0, 0, 0, 0, 0, 0, 0, // entries u64
    2, 0, 0, 0, 1, 0, 0, 0, 255, 255, 255, 255, // id 2: [u32::MAX]
    4, 0, 0, 0, 0, 0, 0, 0, // id 4: []
    9, 0, 0, 0, 3, 0, 0, 0, 4, 3, 2, 1, 7, 0, 0, 0, 7, 0, 0, 0, // id 9: [0x01020304, 7, 7]
];

#[test]
fn v1_writer_and_reader_are_pinned() {
    let mut geodab = GeodabIndex::new(GeodabConfig::default());
    script(&mut geodab);
    assert_eq!(
        digest(&encode_v1(&geodab)),
        0x5121_b5de_809c_d468,
        "v1 bytes changed"
    );

    let decoded = decode(FROZEN_V1).expect("frozen v1 blob decodes");
    let config = GeodabConfig::builder()
        .normalization_depth(34)
        .prefix_bits(12)
        .k(4)
        .t(9)
        .build()
        .unwrap();
    assert_eq!(*decoded.config(), config);
    let mut expected = GeodabIndex::new(config);
    // The reader inserts in file (ascending id) order, which fixes the slots.
    for (id, ordered) in [
        (2, vec![u32::MAX]),
        (4, vec![]),
        (9, vec![0x0102_0304, 7, 7]),
    ] {
        expected.insert_fingerprints(TrajId::new(id), Fingerprints::from_ordered(ordered));
    }
    assert_eq!(decoded.to_snapshot(), expected.to_snapshot());
    assert_eq!(encode_v1(&decoded), FROZEN_V1, "v1 writer moved");
}
