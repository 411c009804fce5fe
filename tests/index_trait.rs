//! Shared conformance suite for the [`TrajectoryIndex`] trait: every
//! backend — the geodab index, the geohash baseline and the sharded
//! cluster — must agree on the insert / remove / re-insert / batch / ids
//! life-cycle, so index-generic code (evaluation, fan-out, future
//! backends) can rely on one contract.

use geodabs::prelude::*;

fn start() -> Point {
    Point::new(51.5074, -0.1278).expect("valid point")
}

/// A ~3.5 km eastward path shifted `offset_m` along its bearing.
fn eastward(n: usize, offset_m: f64) -> Trajectory {
    (0..n)
        .map(|i| start().destination(90.0, offset_m + i as f64 * 90.0))
        .collect()
}

/// The workload every backend is exercised with.
fn sample_items() -> Vec<(TrajId, Trajectory)> {
    vec![
        (TrajId::new(0), eastward(40, 0.0)),
        (TrajId::new(1), eastward(40, 0.0).reversed()),
        (TrajId::new(2), eastward(40, 20_000.0)),
        (TrajId::new(3), eastward(50, 1_000.0)),
    ]
}

/// Runs the whole conformance suite against a fresh index.
fn conformance<I: TrajectoryIndex>(mut index: I) {
    let items = sample_items();

    // Empty index invariants.
    assert_eq!(index.len(), 0);
    assert!(index.is_empty());
    assert_eq!(index.ids().count(), 0);
    assert!(!index.remove(TrajId::new(0)), "nothing to remove yet");

    // Batch insert (default impl or backend override) populates ids.
    index.insert_batch(items.iter().map(|(id, t)| (*id, t)));
    assert_eq!(index.len(), items.len());
    let mut ids: Vec<TrajId> = index.ids().collect();
    ids.sort_unstable();
    assert_eq!(ids, items.iter().map(|(id, _)| *id).collect::<Vec<_>>());

    // The query's twin ranks first while it is indexed.
    let query = eastward(40, 0.0);
    let hits = index.search(&query, &SearchOptions::default());
    assert_eq!(hits[0].id, TrajId::new(0));
    assert_eq!(hits[0].distance, 0.0);

    // Remove the twin: it disappears from results and ids; removing it
    // again reports absence.
    assert!(index.remove(TrajId::new(0)));
    assert!(!index.remove(TrajId::new(0)));
    assert_eq!(index.len(), items.len() - 1);
    assert!(index.ids().all(|id| id != TrajId::new(0)));
    let hits = index.search(&query, &SearchOptions::default());
    assert!(
        hits.iter().all(|h| h.id != TrajId::new(0)),
        "removed id must not be retrieved"
    );

    // Re-insert restores exactly the original behaviour.
    index.insert(TrajId::new(0), &eastward(40, 0.0));
    assert_eq!(index.len(), items.len());
    let hits = index.search(&query, &SearchOptions::default());
    assert_eq!(hits[0].id, TrajId::new(0));
    assert_eq!(hits[0].distance, 0.0);

    // Re-inserting an id with different contents replaces, not duplicates.
    index.insert(TrajId::new(3), &eastward(40, 40_000.0));
    assert_eq!(index.len(), items.len());
    let far_hits = index.search(&eastward(40, 40_000.0), &SearchOptions::default());
    assert!(far_hits.iter().any(|h| h.id == TrajId::new(3)));
    let near_hits = index.search(&query, &SearchOptions::default());
    assert!(
        near_hits.iter().all(|h| h.id != TrajId::new(3)),
        "old contents of a re-inserted id must be gone"
    );

    // Options still combine on every backend.
    let capped = index.search(&query, &SearchOptions::default().max_distance(0.9).limit(1));
    assert_eq!(capped.len(), 1);
    assert_eq!(capped[0].id, TrajId::new(0));

    // Draining the index empties it.
    let all: Vec<TrajId> = index.ids().collect();
    for id in all {
        assert!(index.remove(id));
    }
    assert!(index.is_empty());
    assert!(index.search(&query, &SearchOptions::default()).is_empty());
}

#[test]
fn geodab_index_conforms() {
    conformance(GeodabIndex::new(GeodabConfig::default()));
}

#[test]
fn geohash_index_conforms() {
    conformance(GeohashIndex::new(36));
}

#[test]
fn cluster_index_conforms() {
    conformance(ClusterIndex::new(GeodabConfig::default(), 10_000, 10).expect("valid topology"));
}

#[test]
fn remove_prunes_geodab_postings() {
    // Removal must scrub posting lists, not just the id table: after
    // removing the only trajectory, the term dictionary is empty again.
    let mut index = GeodabIndex::new(GeodabConfig::default());
    index.insert(TrajId::new(7), &eastward(40, 0.0));
    assert!(index.term_count() > 0);
    assert!(index.remove(TrajId::new(7)));
    assert_eq!(index.term_count(), 0);
}

#[test]
fn remove_prunes_geohash_postings() {
    let mut index = GeohashIndex::new(36);
    index.insert(TrajId::new(7), &eastward(40, 0.0));
    assert!(index.term_count() > 0);
    assert!(index.remove(TrajId::new(7)));
    assert_eq!(index.term_count(), 0);
}

#[test]
fn remove_prunes_cluster_postings() {
    let mut cluster = ClusterIndex::new(GeodabConfig::default(), 10_000, 10).expect("valid");
    cluster.insert(TrajId::new(7), &eastward(40, 0.0));
    assert!(cluster.postings_per_node().iter().sum::<u64>() > 0);
    assert!(cluster.remove(TrajId::new(7)));
    assert_eq!(cluster.postings_per_node().iter().sum::<u64>(), 0);
    assert_eq!(cluster.active_shards(), 0);
    assert!((0..10).all(|i| cluster.shard_node(i).expect("in range").is_empty()));
}

#[test]
fn cluster_results_match_monolithic_after_removals() {
    // The cluster stays consistent with a monolithic index through a
    // remove/re-insert churn.
    let mut mono = GeodabIndex::new(GeodabConfig::default());
    let mut cluster = ClusterIndex::new(GeodabConfig::default(), 10_000, 10).expect("valid");
    for (id, t) in sample_items() {
        mono.insert(id, &t);
        cluster.insert(id, &t);
    }
    mono.remove(TrajId::new(1));
    cluster.remove(TrajId::new(1));
    mono.insert(TrajId::new(9), &eastward(45, 500.0));
    cluster.insert(TrajId::new(9), &eastward(45, 500.0));
    for query in [
        eastward(40, 0.0),
        eastward(45, 500.0),
        eastward(40, 20_000.0),
    ] {
        assert_eq!(
            mono.search(&query, &SearchOptions::default()),
            cluster.search(&query, &SearchOptions::default())
        );
    }
}

#[test]
fn cluster_batch_insert_resolves_duplicate_ids_like_sequential_insert() {
    // A batch repeating an id must deterministically keep the *last*
    // occurrence — same as repeated inserts — whatever the thread count.
    let near = eastward(40, 0.0);
    let far = eastward(40, 40_000.0);
    let items = [
        (TrajId::new(1), &near),
        (TrajId::new(1), &far),
        (TrajId::new(2), &near),
    ];
    for threads in [1usize, 2, 4] {
        let mut cluster = ClusterIndex::new(GeodabConfig::default(), 10_000, 10).expect("valid");
        cluster.insert_batch_threads(&items, threads);
        assert_eq!(cluster.len(), 2);
        let far_hits = cluster.search(&far, &SearchOptions::default());
        assert!(
            far_hits
                .iter()
                .any(|h| h.id == TrajId::new(1) && h.distance == 0.0),
            "{threads} threads: last occurrence of the duplicate id must win"
        );
        let near_hits = cluster.search(&near, &SearchOptions::default());
        assert!(
            near_hits.iter().all(|h| h.id != TrajId::new(1)),
            "{threads} threads: first occurrence must have been replaced"
        );
    }
}

#[test]
fn batch_insert_default_equals_sequential() {
    let mut batched = GeodabIndex::new(GeodabConfig::default());
    batched.insert_batch(sample_items().iter().map(|(id, t)| (*id, t)));
    let mut sequential = GeodabIndex::new(GeodabConfig::default());
    for (id, t) in sample_items() {
        sequential.insert(id, &t);
    }
    let query = eastward(40, 0.0);
    assert_eq!(batched.len(), sequential.len());
    assert_eq!(
        batched.search(&query, &SearchOptions::default()),
        sequential.search(&query, &SearchOptions::default())
    );
}

/// Batch ingest ≡ a sequential insert loop, and batch search ≡ a
/// sequential query loop, on any backend, at several explicit thread
/// counts. Runs against all three index families below.
fn batch_paths_match_sequential<I, F>(make: F)
where
    I: TrajectoryIndex + Sync,
    F: Fn() -> I,
{
    let items = sample_items();
    let refs: Vec<(TrajId, &Trajectory)> = items.iter().map(|(id, t)| (*id, t)).collect();
    let queries: Vec<Trajectory> = vec![
        eastward(40, 0.0),
        eastward(40, 0.0).reversed(),
        eastward(50, 1_000.0),
        eastward(40, 20_000.0),
        eastward(3, 0.0), // too short to fingerprint
    ];
    let mut sequential = make();
    for (id, t) in &items {
        sequential.insert(*id, t);
    }
    for options in [
        SearchOptions::default(),
        SearchOptions::default().limit(2),
        SearchOptions::default().max_distance(0.5).limit(1),
    ] {
        let expected: Vec<_> = queries
            .iter()
            .map(|q| sequential.search(q, &options))
            .collect();
        let mut batched = make();
        batched.insert_batch(refs.iter().copied());
        assert_eq!(batched.len(), sequential.len());
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                batched.search_batch_threads(&queries, &options, threads),
                expected,
                "search_batch at {threads} threads, options {options:?}"
            );
        }
        assert_eq!(batched.search_batch(&queries, &options), expected);
    }
}

#[test]
fn geodab_batch_paths_match_sequential() {
    batch_paths_match_sequential(|| GeodabIndex::new(GeodabConfig::default()));
}

#[test]
fn geohash_batch_paths_match_sequential() {
    batch_paths_match_sequential(|| GeohashIndex::new(36));
}

#[test]
fn cluster_batch_paths_match_sequential() {
    batch_paths_match_sequential(|| {
        ClusterIndex::new(GeodabConfig::default(), 10_000, 10).expect("valid topology")
    });
}

#[test]
fn explicit_thread_batch_insert_equals_sequential_on_every_backend() {
    let items = sample_items();
    let refs: Vec<(TrajId, &Trajectory)> = items.iter().map(|(id, t)| (*id, t)).collect();
    let query = eastward(40, 0.0);

    let mut sequential = GeodabIndex::new(GeodabConfig::default());
    for (id, t) in &items {
        sequential.insert(*id, t);
    }
    for threads in [1usize, 2, 4, 8] {
        let mut batched = GeodabIndex::new(GeodabConfig::default());
        batched.insert_batch_threads(&refs, threads);
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(batched.term_count(), sequential.term_count());
        assert_eq!(
            batched.search(&query, &SearchOptions::default()),
            sequential.search(&query, &SearchOptions::default()),
            "geodab at {threads} threads"
        );
    }

    let mut sequential = GeohashIndex::new(36);
    for (id, t) in &items {
        sequential.insert(*id, t);
    }
    for threads in [1usize, 2, 4, 8] {
        let mut batched = GeohashIndex::new(36);
        batched.insert_batch_threads(&refs, threads);
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(batched.term_count(), sequential.term_count());
        assert_eq!(
            batched.search(&query, &SearchOptions::default()),
            sequential.search(&query, &SearchOptions::default()),
            "geohash at {threads} threads"
        );
    }

    let mut sequential = ClusterIndex::new(GeodabConfig::default(), 10_000, 10).expect("valid");
    for (id, t) in &items {
        sequential.insert(*id, t);
    }
    for threads in [1usize, 2, 4, 8] {
        let mut batched = ClusterIndex::new(GeodabConfig::default(), 10_000, 10).expect("valid");
        batched.insert_batch_threads(&refs, threads);
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(batched.postings_per_node(), sequential.postings_per_node());
        assert_eq!(
            batched.search(&query, &SearchOptions::default()),
            sequential.search(&query, &SearchOptions::default()),
            "cluster at {threads} threads"
        );
    }
}
