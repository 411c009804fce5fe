//! Golden pin of cluster and shard-node snapshot bytes.
//!
//! Snapshot round-trip tests compare the codec with itself, so a change
//! in how a node interns ids (which dense slot a trajectory gets, which
//! freed slot is recycled first) or which node keeps a posting would
//! only show up as a restored deployment that no longer matches its
//! WAL. These digests were captured before `ClusterIndex` became a
//! coordinator over `ShardNode`s; they must never change without a
//! deliberate format bump (snapshot tags 3 and 4 are warm-start
//! artifacts of running deployments).

use geodabs_cluster::ClusterIndex;
use geodabs_core::GeodabConfig;
use geodabs_geo::Point;
use geodabs_index::store::Persist;
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

/// Trajectories in four cities (different 16-bit cells, hence different
/// shards), so the three nodes each hold a share and a spanning one
/// (`id 4`) is replicated on more than one node.
fn corpus() -> Vec<Trajectory> {
    let london = (51.5074, -0.1278);
    let paris = (48.8566, 2.3522);
    let berlin = (52.5200, 13.4050);
    let madrid = (40.4168, -3.7038);
    let mut spanning = walk(london.0, london.1, 90.0, 40, 0.0);
    spanning.extend(walk(paris.0, paris.1, 0.0, 40, 0.0).iter());
    vec![
        walk(london.0, london.1, 90.0, 40, 0.0),
        walk(london.0, london.1, 90.0, 40, 0.0).reversed(),
        walk(paris.0, paris.1, 0.0, 50, 300.0),
        walk(berlin.0, berlin.1, 45.0, 60, 0.0),
        spanning,
        walk(madrid.0, madrid.1, 135.0, 45, 0.0),
        walk(berlin.0, berlin.1, 45.0, 60, 2_000.0),
        walk(paris.0, paris.1, 180.0, 35, 0.0),
    ]
}

/// The fixed script: sequential inserts (one of them too short to
/// fingerprint), one replace, two removes, then one batch of fresh ids
/// that recycles the freed dense slots. Returns the cluster snapshot
/// digest followed by one digest per node snapshot.
fn script_digests() -> Vec<u64> {
    let corpus = corpus();
    let mut cluster = ClusterIndex::new(GeodabConfig::default(), 10_000, 3).unwrap();
    for (i, t) in corpus.iter().enumerate() {
        cluster.insert(TrajId::new(i as u32), t);
    }
    cluster.insert(TrajId::new(30), &walk(51.5074, -0.1278, 90.0, 2, 0.0));
    cluster.insert(TrajId::new(2), &walk(48.8566, 2.3522, 270.0, 45, 100.0));
    assert!(cluster.remove(TrajId::new(0)));
    assert!(cluster.remove(TrajId::new(5)));
    let batch: Vec<Trajectory> = vec![
        walk(40.4168, -3.7038, 135.0, 45, 500.0),
        walk(51.5074, -0.1278, 0.0, 40, 0.0),
        walk(52.5200, 13.4050, 270.0, 50, 0.0),
    ];
    let items: Vec<(TrajId, &Trajectory)> = batch
        .iter()
        .enumerate()
        .map(|(i, t)| (TrajId::new(10 + i as u32), t))
        .collect();
    cluster.insert_batch_threads(&items, 2);
    assert_eq!(cluster.len(), corpus.len() + 1 - 2 + batch.len());

    let mut digests = vec![digest(&cluster.to_snapshot())];
    for i in 0..3 {
        let node = cluster.shard_node(i).expect("node in range");
        digests.push(digest(&node.to_snapshot()));
    }
    digests
}

#[test]
fn cluster_and_node_snapshots_are_pinned() {
    assert_eq!(
        script_digests(),
        vec![
            0x0d72_1f1b_4f83_9b42,
            0x06b6_72a6_96a9_118b,
            0xa80e_e551_9b2b_9d3f,
            0x7e91_b920_b9fb_bf71,
        ],
        "cluster or shard-node snapshot bytes changed"
    );
}
