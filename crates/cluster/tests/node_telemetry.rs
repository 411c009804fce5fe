//! Shard-node legs count in the engine's process-wide scan counters, so
//! a shard server's `geodabs_engine_*` metrics move under load. A test
//! binary of its own: the counters are process-wide, and its one test
//! is the only code searching while it reads them.

use geodabs_cluster::{ClusterIndex, ShardNode};
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::{engine_telemetry, SearchOptions};
use geodabs_traj::TrajId;

const NUM_SHARDS: u64 = 10_000;
/// 16-bit prefixes landing on shards 0 and 1 of 10 000, hence on nodes
/// 0 and 1 of two.
const CELLS: [u32; 2] = [0, 7];

fn fp(raw: &[(usize, u32)]) -> Fingerprints {
    Fingerprints::from_ordered(
        raw.iter()
            .map(|&(cell, low)| (CELLS[cell] << 16) | low)
            .collect(),
    )
}

#[test]
fn every_node_leg_counts_as_one_engine_search() {
    let config = GeodabConfig::default();
    let mut cluster = ClusterIndex::new(config, NUM_SHARDS, 2).unwrap();
    for i in 0..20u32 {
        cluster.insert_fingerprints(TrajId::new(i), fp(&[(0, i % 4), (1, i % 3), (0, 100 + i)]));
    }
    let nodes: Vec<ShardNode> = (0..2).map(|i| cluster.shard_node(i).unwrap()).collect();
    // Every query holds terms with lists on both nodes.
    let queries = [
        fp(&[(0, 0), (1, 0)]),
        fp(&[(0, 1), (0, 2), (1, 1), (1, 2)]),
        fp(&[(0, 3), (1, 0), (0, 103)]),
    ];
    let options = [SearchOptions::default(), SearchOptions::default().limit(2)];

    let before = engine_telemetry();
    let mut calls = 0u64;
    for query in &queries {
        for node in &nodes {
            for options in &options {
                assert!(!node.search_fingerprints(query, options).is_empty());
                calls += 1;
            }
        }
    }
    let after = engine_telemetry();
    assert_eq!(after.searches - before.searches, calls);
    assert!(after.candidates_scanned > before.candidates_scanned);

    // An in-process cluster query is one search per contacted node, and
    // its scored-candidate statistic is what those searches scanned.
    for query in &queries {
        let before = engine_telemetry();
        let (_, stats) = cluster.search_fingerprints_with_stats(query, &options[0]);
        let after = engine_telemetry();
        assert_eq!(stats.nodes_contacted, 2);
        assert_eq!(after.searches - before.searches, 2);
        assert_eq!(
            after.candidates_scanned - before.candidates_scanned,
            stats.candidates_scored as u64
        );
    }
}
