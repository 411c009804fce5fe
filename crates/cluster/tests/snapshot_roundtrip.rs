//! Property tests pinning the cluster snapshot: `load ∘ save ≡ id` on
//! search results over arbitrary workloads (including removals, dense-slot
//! recycling and resizes), deterministic bytes, and no panic on corrupted
//! or truncated input.

use geodabs_cluster::ClusterIndex;
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::store::Persist;
use geodabs_index::{SearchOptions, TrajectoryIndex};
use geodabs_traj::TrajId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A restored cluster answers every query exactly like the one that
    /// was saved — same hits, same routing statistics, same placement.
    #[test]
    fn load_save_is_identity_on_search_results(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..5_000, 0..25), 1..30),
        query in proptest::collection::vec(0u32..5_000, 0..25),
        nodes in 1usize..10,
        shards in 1u64..5_000,
        limit in 0usize..6,
        remove_stride in 2usize..5,
        resize_to in 0usize..10,
    ) {
        let config = GeodabConfig::default();
        let mut cluster = ClusterIndex::new(config, shards, nodes).unwrap();
        for (i, set) in sets.iter().enumerate() {
            cluster.insert_fingerprints(
                TrajId::new(i as u32),
                Fingerprints::from_ordered(set.clone()),
            );
        }
        // Removals and re-inserts leave vacant node-local interner slots,
        // the state a naive snapshot would lose.
        for i in (0..sets.len()).step_by(remove_stride) {
            cluster.remove(TrajId::new(i as u32));
        }
        for i in (0..sets.len()).step_by(remove_stride * 2) {
            let shifted: Vec<u32> = sets[i].iter().map(|t| t + 1).collect();
            cluster.insert_fingerprints(
                TrajId::new(i as u32),
                Fingerprints::from_ordered(shifted),
            );
        }
        if resize_to > 0 {
            cluster.resize(resize_to).unwrap();
        }

        let bytes = cluster.to_snapshot();
        prop_assert_eq!(&bytes, &cluster.to_snapshot());
        let restored = ClusterIndex::from_snapshot(&bytes).expect("roundtrip");
        prop_assert_eq!(restored.len(), cluster.len());
        prop_assert_eq!(restored.postings_per_node(), cluster.postings_per_node());
        let replicas = |c: &ClusterIndex| {
            (0..).map_while(|i| c.shard_node(i)).map(|n| n.len()).collect::<Vec<_>>()
        };
        prop_assert_eq!(replicas(&restored), replicas(&cluster));
        prop_assert_eq!(restored.to_snapshot(), bytes);

        let query_fp = Fingerprints::from_ordered(query);
        let mut options = SearchOptions::default();
        if limit > 0 {
            options = options.limit(limit - 1);
        }
        let (hits_r, stats_r) = restored.search_fingerprints_with_stats(&query_fp, &options);
        let (hits_o, stats_o) = cluster.search_fingerprints_with_stats(&query_fp, &options);
        prop_assert_eq!(hits_r, hits_o);
        prop_assert_eq!(stats_r, stats_o);
    }

    /// Bit flips anywhere in a cluster snapshot never panic; the v2
    /// checksums and structural validation reject them.
    #[test]
    fn corruption_never_panics(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..2_000, 1..10), 1..8),
        nodes in 1usize..5,
        offset_seed in 0usize..100_000,
        xor in 1u8..=255,
    ) {
        let mut cluster = ClusterIndex::new(GeodabConfig::default(), 100, nodes).unwrap();
        for (i, set) in sets.iter().enumerate() {
            cluster.insert_fingerprints(
                TrajId::new(i as u32),
                Fingerprints::from_ordered(set.clone()),
            );
        }
        let mut bytes = cluster.to_snapshot();
        let offset = offset_seed % bytes.len();
        bytes[offset] ^= xor;
        let err = ClusterIndex::from_snapshot(&bytes).expect_err("flip is always detected");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Every strict prefix of a snapshot fails cleanly.
    #[test]
    fn truncation_never_panics(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..2_000, 1..8), 1..6),
        cut_seed in 0usize..100_000,
    ) {
        let mut cluster = ClusterIndex::new(GeodabConfig::default(), 50, 3).unwrap();
        for (i, set) in sets.iter().enumerate() {
            cluster.insert_fingerprints(
                TrajId::new(i as u32),
                Fingerprints::from_ordered(set.clone()),
            );
        }
        let bytes = cluster.to_snapshot();
        let cut = cut_seed % bytes.len();
        prop_assert!(ClusterIndex::from_snapshot(&bytes[..cut]).is_err());
    }
}
