//! Tie-heavy cluster equivalence: many candidates at the k-th distance.
//!
//! A handful of term sets over an alphabet of 12 geodabs, each indexed
//! under many ids in scrambled order, make whole groups of candidates
//! share one distance, so every node's top-k — and the frontend merge —
//! decides the k-th place by id. The terms carry four geohash prefixes
//! that the router sends to four different shards, so with two or more
//! nodes a query spans nodes and the foreign-term path scores too. The
//! [`ClusterIndex`] and standalone [`ShardNode`]s merged with
//! [`merge_heaps`] must equal the monolithic [`GeodabIndex`] exactly.

use geodabs_cluster::{merge_heaps, ClusterIndex, ShardNode};
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::{GeodabIndex, SearchOptions};
use geodabs_traj::TrajId;
use proptest::prelude::*;

const NUM_SHARDS: u64 = 10_000;
/// 16-bit prefixes landing on shards 0, 1, 2 and 3 of 10 000.
const CELLS: [u32; 4] = [0, 7, 14, 21];

/// Letter `t` (of 12) of the alphabet as a geodab: prefix `CELLS[t % 4]`.
fn letter(t: u32) -> u32 {
    (CELLS[(t % 4) as usize] << 16) | (t / 4)
}

fn geodabs(letters: &[u32]) -> Fingerprints {
    Fingerprints::from_ordered(letters.iter().map(|&t| letter(t)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ties_at_the_kth_distance_merge_like_the_monolith(
        shapes in proptest::collection::vec(
            proptest::collection::vec(0u32..12, 1..8), 1..5),
        owners in proptest::collection::vec(0usize..4, 8..80),
        query in proptest::collection::vec(0u32..12, 1..10),
        num_nodes in 1usize..5,
        limit in 1usize..13,
    ) {
        let config = GeodabConfig::default();
        let mut mono = GeodabIndex::new(config);
        let mut cluster = ClusterIndex::new(config, NUM_SHARDS, num_nodes).unwrap();
        let mut nodes: Vec<ShardNode> = (0..num_nodes)
            .map(|i| ShardNode::new(config, NUM_SHARDS, num_nodes, i).unwrap())
            .collect();
        for (i, &owner) in owners.iter().enumerate() {
            // 97 is coprime to 1 000: distinct ids, but dense slots
            // (insertion order) no longer follow id order.
            let id = TrajId::new((i as u32 * 97 + 13) % 1_000);
            let fp = geodabs(&shapes[owner % shapes.len()]);
            mono.insert_fingerprints(id, fp.clone());
            cluster.insert_fingerprints(id, fp.clone());
            for node in &mut nodes {
                node.insert_fingerprints(id, fp.clone());
            }
        }

        let query_fp = geodabs(&query);
        let options = SearchOptions::default().limit(limit);
        let want = mono.search_fingerprints(&query_fp, &options);
        let (clustered, _) = cluster.search_fingerprints_with_stats(&query_fp, &options);
        prop_assert_eq!(&clustered, &want);
        let merged = merge_heaps(
            nodes.iter().map(|node| node.search_fingerprints(&query_fp, &options)),
            &options,
        );
        prop_assert_eq!(&merged, &want);
    }
}
