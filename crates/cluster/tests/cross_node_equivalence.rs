//! Cross-node scoring equivalence: queries whose terms are owned by at
//! least two nodes.
//!
//! Every generated corpus of the serving benches routes a query to one
//! node, so the branch of node scoring that looks *foreign* terms (owned
//! by another node) up in the candidate's replica would otherwise never
//! run. Here every term carries one of four geohash prefixes that the
//! router provably sends to four different shards — hence, with two or
//! more nodes, to at least two nodes — and every query holds terms of
//! the first two. Standalone [`ShardNode`]s merged with [`merge_heaps`],
//! the in-process [`ClusterIndex`] and the monolithic [`GeodabIndex`]
//! must agree exactly (`==` on ids and distances), across removals and re-inserts that
//! recycle node-local dense slots.

use geodabs_cluster::{merge_heaps, ClusterIndex, ShardNode};
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
use geodabs_traj::TrajId;
use proptest::prelude::*;

const NUM_SHARDS: u64 = 10_000;
/// 16-bit prefixes landing on shards 0, 1, 2 and 3 of 10 000.
const CELLS: [u32; 4] = [0, 7, 14, 21];

/// A geodab with prefix `CELLS[cell]` and the given low bits.
fn term(cell: usize, low: u32) -> u32 {
    (CELLS[cell] << 16) | low
}

fn terms(raw: &[(usize, u32)]) -> Vec<u32> {
    raw.iter().map(|&(cell, low)| term(cell, low)).collect()
}

/// The three deployments of one corpus, mutated in lockstep.
struct Deployments {
    mono: GeodabIndex,
    cluster: ClusterIndex,
    nodes: Vec<ShardNode>,
}

impl Deployments {
    fn new(num_nodes: usize) -> Deployments {
        let config = GeodabConfig::default();
        Deployments {
            mono: GeodabIndex::new(config),
            cluster: ClusterIndex::new(config, NUM_SHARDS, num_nodes).unwrap(),
            nodes: (0..num_nodes)
                .map(|i| ShardNode::new(config, NUM_SHARDS, num_nodes, i).unwrap())
                .collect(),
        }
    }

    fn insert(&mut self, id: u32, set: &[u32]) {
        let fp = Fingerprints::from_ordered(set.to_vec());
        self.mono.insert_fingerprints(TrajId::new(id), fp.clone());
        self.cluster
            .insert_fingerprints(TrajId::new(id), fp.clone());
        for node in &mut self.nodes {
            node.insert_fingerprints(TrajId::new(id), fp.clone());
        }
    }

    fn remove(&mut self, id: u32) {
        self.mono.remove(TrajId::new(id));
        self.cluster.remove(TrajId::new(id));
        for node in &mut self.nodes {
            node.remove(TrajId::new(id));
        }
    }
}

#[test]
fn the_four_prefixes_land_on_four_shards() {
    let cluster = ClusterIndex::new(GeodabConfig::default(), NUM_SHARDS, 2).unwrap();
    let shards: Vec<u64> = (0..4)
        .map(|cell| cluster.router().shard_of_geodab(term(cell, 5)))
        .collect();
    assert_eq!(shards, vec![0, 1, 2, 3]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn spanning_queries_score_identically_everywhere(
        sets in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0u32..40), 1..25), 2..40),
        query in proptest::collection::vec((0usize..4, 0u32..40), 0..25),
        num_nodes in 2usize..6,
        limit in 0usize..8,
        threshold_pm in 0u32..101,
        remove_stride in 2usize..5,
    ) {
        let mut d = Deployments::new(num_nodes);
        for (i, set) in sets.iter().enumerate() {
            d.insert(i as u32, &terms(set));
        }
        // Anchors: one trajectory per leading prefix, never removed, so
        // the query below always finds postings on two nodes.
        let anchors = sets.len() as u32;
        d.insert(anchors, &[term(0, 1_000), term(1, 1_000)]);
        d.insert(anchors + 1, &[term(1, 1_001), term(0, 1_001), term(2, 7)]);
        for i in (0..sets.len()).step_by(remove_stride) {
            d.remove(i as u32);
        }
        for i in (0..sets.len()).step_by(remove_stride * 2) {
            let shifted: Vec<u32> = terms(&sets[i]).iter().map(|t| t ^ 1).collect();
            d.insert(i as u32, &shifted);
        }

        let mut query = terms(&query);
        query.extend([term(0, 1_000), term(1, 1_001)]);
        let query_fp = Fingerprints::from_ordered(query);
        let mut options = SearchOptions::default().max_distance(threshold_pm as f64 / 100.0);
        if limit > 0 {
            options = options.limit(limit - 1);
        }

        let want = d.mono.search_fingerprints(&query_fp, &options);
        let (clustered, stats) = d.cluster.search_fingerprints_with_stats(&query_fp, &options);
        // Shards 0 and 1 sit on nodes 0 and 1 of any cluster of two or
        // more: every contacted node sees foreign terms.
        prop_assert!(stats.nodes_contacted >= 2);
        prop_assert_eq!(&clustered, &want);
        let merged = merge_heaps(
            d.nodes.iter().map(|node| node.search_fingerprints(&query_fp, &options)),
            &options,
        );
        prop_assert_eq!(&merged, &want);

        // Every candidate is scored once per node holding it, and a node
        // scores exactly its own replicas.
        let unbounded = SearchOptions::default();
        let per_node: usize = d
            .nodes
            .iter()
            .map(|node| node.search_fingerprints(&query_fp, &unbounded).len())
            .sum();
        let (_, stats) = d.cluster.search_fingerprints_with_stats(&query_fp, &unbounded);
        prop_assert_eq!(stats.candidates_scored, per_node);
    }
}

/// A remote leg runs the engine's pruned search, foreign terms counted
/// in its admission bound: with `limit(1)` the node holding a crowd on
/// one hot term freezes admission before that list and scans only the
/// twin and a rival, yet the merged ranking is still the monolith's.
#[test]
fn remote_legs_prune_and_stay_exact() {
    let mut d = Deployments::new(2);
    // The twin: eight rare terms and one hot term on node 0, two terms
    // on node 1 (foreign to node 0, and the other way round).
    let mut twin: Vec<u32> = (0..8).map(|low| term(0, low)).collect();
    twin.extend([term(0, 100), term(1, 0), term(1, 1)]);
    d.insert(0, &twin);
    // A rival sharing one rare term, so the leg holds two candidates
    // when it reaches the hot list.
    d.insert(1, &[term(0, 0), term(0, 500), term(0, 501)]);
    // The crowd, reachable only through the hot term.
    for i in 0..200u32 {
        d.insert(10 + i, &[term(0, 100), term(0, 1_000 + i)]);
    }

    let query_fp = Fingerprints::from_ordered(twin);
    let scored = |options: &SearchOptions| {
        let (hits, stats) = d.cluster.search_fingerprints_with_stats(&query_fp, options);
        assert_eq!(stats.nodes_contacted, 2);
        assert_eq!(hits, d.mono.search_fingerprints(&query_fp, options));
        let merged = merge_heaps(
            d.nodes
                .iter()
                .map(|node| node.search_fingerprints(&query_fp, options)),
            options,
        );
        assert_eq!(merged, hits);
        (hits, stats.candidates_scored)
    };
    let (top, pruned) = scored(&SearchOptions::default().limit(1));
    let (all, unbounded) = scored(&SearchOptions::default());
    assert_eq!(top.len(), 1);
    assert_eq!((top[0].id, top[0].distance), (TrajId::new(0), 0.0));
    assert_eq!(all.len(), 202);
    // Node 0 scans the whole crowd unbounded, only twin and rival under
    // the limit; node 1 scans the twin either way.
    assert_eq!(unbounded, 203);
    assert!(pruned < unbounded, "{pruned} scanned under limit(1)");
    assert_eq!(pruned, 3);
}
