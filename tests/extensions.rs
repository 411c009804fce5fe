//! Integration coverage for the features that extend the paper, and for
//! the DFD baseline: cluster elasticity and DFD ranking, both exercised
//! on generated workloads.

use geodabs::distance::dfd;
use geodabs::gen::dataset::{Dataset, DatasetConfig};
use geodabs::prelude::*;
use geodabs::roadnet::generators::{grid_network, GridConfig};

fn dataset() -> Dataset {
    let net = grid_network(&GridConfig::default(), 42);
    Dataset::generate(
        &net,
        &DatasetConfig {
            routes: 6,
            per_direction: 3,
            queries: 4,
            ..DatasetConfig::default()
        },
        29,
    )
    .expect("routable network")
}

#[test]
fn cluster_scales_out_and_in_without_changing_answers() {
    let ds = dataset();
    let items: Vec<(TrajId, _)> = ds.records().iter().map(|r| (r.id, &r.trajectory)).collect();
    let mut cluster = ClusterIndex::new(GeodabConfig::default(), 10_000, 4).expect("valid");
    cluster.insert_batch_threads(&items, 4);
    let before: Vec<_> = ds
        .queries()
        .iter()
        .map(|q| cluster.search(&q.trajectory, &SearchOptions::default()))
        .collect();
    // Scale out, then back in.
    for nodes in [16usize, 2, 4] {
        cluster.resize(nodes).expect("valid node count");
        for (q, expected) in ds.queries().iter().zip(&before) {
            assert_eq!(
                &cluster.search(&q.trajectory, &SearchOptions::default()),
                expected,
                "{nodes} nodes"
            );
        }
    }
}

#[test]
fn distance_measures_agree_on_the_obvious_cases() {
    let ds = dataset();
    let q = &ds.queries()[0];
    let sibling = ds
        .records()
        .iter()
        .find(|r| ds.relevant_ids(q).contains(&r.id))
        .expect("sibling exists");
    let other = ds
        .records()
        .iter()
        .find(|r| r.route != q.route)
        .expect("other route exists");
    // DFD must rate the sibling closer than the other route.
    let d_sib_dfd = dfd(&q.trajectory, &sibling.trajectory);
    let d_oth_dfd = dfd(&q.trajectory, &other.trajectory);
    assert!(d_sib_dfd < d_oth_dfd);
}
