//! Elastic-resizing equivalence: a cluster resized to `n` nodes must be
//! indistinguishable — bit-identical search results and routing
//! statistics — from a cluster freshly built at `n` nodes over the same
//! corpus. Resizing only moves state; it must never change what any
//! query returns.

use geodabs_cluster::ClusterIndex;
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::{SearchOptions, TrajectoryIndex};
use geodabs_traj::TrajId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn resized_cluster_equals_freshly_built_cluster(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..5_000, 0..25), 1..30),
        queries in proptest::collection::vec(
            proptest::collection::vec(0u32..5_000, 0..25), 1..6),
        shards in 1u64..10_000,
        from_nodes in 1usize..12,
        to_nodes in 1usize..12,
        limit in 0usize..6,
        threshold_pm in 0u32..101,
        remove_stride in 2usize..5,
    ) {
        let config = GeodabConfig::default();
        let mut resized = ClusterIndex::new(config, shards, from_nodes).unwrap();
        let mut fresh = ClusterIndex::new(config, shards, to_nodes).unwrap();
        for (i, set) in sets.iter().enumerate() {
            let fp = Fingerprints::from_ordered(set.clone());
            resized.insert_fingerprints(TrajId::new(i as u32), fp.clone());
            fresh.insert_fingerprints(TrajId::new(i as u32), fp);
        }
        // Removals exercise dense-slot recycling on both sides before the
        // migration happens.
        for i in (0..sets.len()).step_by(remove_stride) {
            resized.remove(TrajId::new(i as u32));
            fresh.remove(TrajId::new(i as u32));
        }
        resized.resize(to_nodes).unwrap();

        // Placement converges: same postings and replicas per node.
        prop_assert_eq!(resized.postings_per_node(), fresh.postings_per_node());
        let replicas = |c: &ClusterIndex| {
            (0..).map_while(|i| c.shard_node(i)).map(|n| n.len()).collect::<Vec<_>>()
        };
        prop_assert_eq!(replicas(&resized), replicas(&fresh));
        prop_assert_eq!(resized.active_shards(), fresh.active_shards());
        prop_assert_eq!(
            resized.ids().collect::<Vec<_>>(),
            fresh.ids().collect::<Vec<_>>()
        );

        let mut options = SearchOptions::default().max_distance(threshold_pm as f64 / 100.0);
        if limit > 0 {
            options = options.limit(limit - 1);
        }
        for query in &queries {
            let query_fp = Fingerprints::from_ordered(query.clone());
            let (hits_r, stats_r) = resized.search_fingerprints_with_stats(&query_fp, &options);
            let (hits_f, stats_f) = fresh.search_fingerprints_with_stats(&query_fp, &options);
            prop_assert_eq!(hits_r, hits_f);
            prop_assert_eq!(stats_r, stats_f);
        }
    }

    /// Chained resizes (grow, shrink, back to the start) stay equivalent
    /// to a fresh build at every step.
    #[test]
    fn chained_resizes_remain_equivalent(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..3_000, 0..20), 1..20),
        query in proptest::collection::vec(0u32..3_000, 0..20),
        hops in proptest::collection::vec(1usize..10, 1..4),
    ) {
        let config = GeodabConfig::default();
        let mut resized = ClusterIndex::new(config, 1_000, 4).unwrap();
        for (i, set) in sets.iter().enumerate() {
            resized.insert_fingerprints(
                TrajId::new(i as u32),
                Fingerprints::from_ordered(set.clone()),
            );
        }
        let query_fp = Fingerprints::from_ordered(query);
        for &nodes in &hops {
            resized.resize(nodes).unwrap();
            let mut fresh = ClusterIndex::new(config, 1_000, nodes).unwrap();
            for (i, set) in sets.iter().enumerate() {
                fresh.insert_fingerprints(
                    TrajId::new(i as u32),
                    Fingerprints::from_ordered(set.clone()),
                );
            }
            prop_assert_eq!(resized.postings_per_node(), fresh.postings_per_node());
            prop_assert_eq!(
                resized.search_fingerprints(&query_fp, &SearchOptions::default()),
                fresh.search_fingerprints(&query_fp, &SearchOptions::default())
            );
        }
    }
}
