//! The sharded cluster must behave exactly like a monolithic index:
//! distribution is an implementation detail, not a semantic change
//! (Section VI-E of the paper).

use geodabs::cluster::balance::{imbalance, node_loads};
use geodabs::gen::dataset::{Dataset, DatasetConfig};
use geodabs::gen::world::{WorldActivity, WorldConfig};
use geodabs::prelude::*;
use geodabs::roadnet::generators::{grid_network, GridConfig};

fn dataset() -> Dataset {
    let net = grid_network(&GridConfig::default(), 42);
    Dataset::generate(
        &net,
        &DatasetConfig {
            routes: 8,
            per_direction: 3,
            queries: 6,
            ..DatasetConfig::default()
        },
        5,
    )
    .expect("routable network")
}

#[test]
fn cluster_results_equal_monolithic_results() {
    let ds = dataset();
    let config = GeodabConfig::default();
    let mut mono = GeodabIndex::new(config);
    let mut cluster = ClusterIndex::new(config, 10_000, 10).expect("valid cluster");
    for r in ds.records() {
        mono.insert(r.id, &r.trajectory);
        cluster.insert(r.id, &r.trajectory);
    }
    for q in ds.queries() {
        for options in [
            SearchOptions::default(),
            SearchOptions::default().limit(3),
            SearchOptions::default().max_distance(0.5),
        ] {
            let mono_hits = mono.search(&q.trajectory, &options);
            let cluster_hits = cluster.search(&q.trajectory, &options);
            assert_eq!(mono_hits, cluster_hits, "options {options:?}");
        }
    }
}

#[test]
fn cluster_size_is_invariant_to_shard_count() {
    let ds = dataset();
    let config = GeodabConfig::default();
    for (shards, nodes) in [(1u64, 1usize), (100, 10), (10_000, 10), (50_000, 16)] {
        let mut cluster = ClusterIndex::new(config, shards, nodes).expect("valid cluster");
        for r in ds.records() {
            cluster.insert(r.id, &r.trajectory);
        }
        assert_eq!(cluster.len(), ds.records().len());
        let q = &ds.queries()[0];
        let hits = cluster.search(&q.trajectory, &SearchOptions::default());
        assert!(!hits.is_empty(), "{shards} shards x {nodes} nodes");
    }
}

#[test]
fn city_scale_queries_touch_one_node() {
    // The whole evaluation region fits a single 16-bit cell, so the
    // locality-preserving sharding must route every query to one shard.
    let ds = dataset();
    let mut cluster =
        ClusterIndex::new(GeodabConfig::default(), 10_000, 10).expect("valid cluster");
    for r in ds.records() {
        cluster.insert(r.id, &r.trajectory);
    }
    for q in ds.queries() {
        let (_, stats) = cluster.search_with_stats(&q.trajectory, &SearchOptions::default());
        assert!(
            stats.shards_contacted <= 2,
            "query touched {} shards",
            stats.shards_contacted
        );
        assert!(stats.nodes_contacted <= 2);
    }
}

#[test]
fn world_scale_balance_improves_with_shard_count() {
    let world = WorldActivity::generate(
        &WorldConfig {
            cities: 500,
            trajectories: 100_000,
            ..WorldConfig::default()
        },
        9,
    );
    let cells = world.sorted_counts();
    let coarse = node_loads(&ShardRouter::new(16, 100, 10).expect("valid"), &cells);
    let fine = node_loads(&ShardRouter::new(16, 10_000, 10).expect("valid"), &cells);
    assert_eq!(coarse.iter().sum::<u64>(), world.total());
    assert_eq!(fine.iter().sum::<u64>(), world.total());
    assert!(
        imbalance(&fine) <= imbalance(&coarse),
        "10k shards ({:.2}) should balance at least as well as 100 ({:.2})",
        imbalance(&fine),
        imbalance(&coarse)
    );
}

#[test]
fn postings_and_trajectory_accounting_are_consistent() {
    let ds = dataset();
    let mut cluster =
        ClusterIndex::new(GeodabConfig::default(), 10_000, 10).expect("valid cluster");
    for r in ds.records() {
        cluster.insert(r.id, &r.trajectory);
    }
    let postings = cluster.postings_per_node();
    let trajs = (0..)
        .map_while(|i| cluster.shard_node(i))
        .map(|n| n.len())
        .collect::<Vec<_>>();
    assert_eq!(postings.len(), 10);
    assert_eq!(trajs.len(), 10);
    // Every posting entry references a trajectory stored on that node.
    for (p, t) in postings.iter().zip(&trajs) {
        assert_eq!(*p == 0, *t == 0, "postings {p} vs trajectories {t}");
    }
    // A trajectory may be referenced from several nodes, but at least one.
    assert!(trajs.iter().sum::<usize>() >= cluster.len());
}
