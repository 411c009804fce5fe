//! Sharded-server equivalence and stress tests: a server partitioned
//! into in-process shards must serve rankings **bit-identical** to the
//! monolithic engine — under concurrent ingest (where every ranking is
//! that of one prefix of the writes), over a mux pool far smaller than
//! the connection count, and through the WAL restart path.

mod common;

use common::{build_index, corpus, eastward, queries, server_config as sharded_config, wal_dir};
use geodabs_cluster::ClusterIndex;
use geodabs_core::GeodabConfig;
use geodabs_index::{GeodabIndex, SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_serve::{recover, Client, LoadClient, Server, ShardedIndex};
use geodabs_traj::TrajId;
use geodabs_wal::{SyncPolicy, Wal};
use std::time::Duration;

#[test]
fn sharded_server_rankings_and_mutations_match_the_monolith() {
    let mut reference = build_index();
    let options = SearchOptions::default().limit(10);

    let running = Server::bind("127.0.0.1:0", build_index(), sharded_config(3, 2))
        .expect("bind sharded loopback")
        .spawn();
    let mut client = Client::connect(running.addr()).expect("connect");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.backend, "sharded");
    assert_eq!(
        stats.trajectories as usize,
        TrajectoryIndex::len(&reference)
    );

    for query in queries() {
        let hits = client.query(&query, &options).expect("query");
        assert_eq!(hits, reference.search(&query, &options));
    }

    // Mutations route through the sharded write path and must leave the
    // served state bit-identical to the same edits applied in process.
    let fresh = eastward(35, 4_400.0);
    let count = client.insert(TrajId::new(64), &fresh).expect("insert");
    reference.insert(TrajId::new(64), &fresh);
    assert_eq!(count as usize, TrajectoryIndex::len(&reference));
    assert!(client.remove(TrajId::new(3)).expect("remove"));
    assert!(reference.remove(TrajId::new(3)));
    assert!(!client.remove(TrajId::new(3)).expect("re-remove"));
    // Replacing an id recycles its interner slot on every node.
    let reshaped = eastward(35, 4_800.0);
    client.insert(TrajId::new(64), &reshaped).expect("replace");
    reference.insert(TrajId::new(64), &reshaped);

    for query in queries().iter().chain([&fresh, &reshaped]) {
        let hits = client.query(query, &options).expect("query after edits");
        assert_eq!(hits, reference.search(query, &options));
    }
    running.shutdown().expect("clean shutdown");
}

#[test]
fn sixty_four_connections_over_two_mux_workers_see_zero_mismatches() {
    let reference = build_index();
    let options = SearchOptions::default().limit(10);
    let queries = queries();
    let expected: Vec<Vec<SearchResult>> = queries
        .iter()
        .map(|q| reference.search(q, &options))
        .collect();

    // 32× more connections than mux workers: the event loop must keep
    // every socket progressing, in order, with no dropped frames.
    let running = Server::bind("127.0.0.1:0", build_index(), sharded_config(2, 2))
        .expect("bind sharded loopback")
        .spawn();
    let load =
        LoadClient::new(running.addr().to_string(), queries, options).expect_results(expected);
    let run = load.run(64, Duration::from_millis(500)).expect("load run");
    assert_eq!(run.connections, 64);
    assert!(
        run.requests >= 64,
        "every connection completed work: {run:?}"
    );
    assert_eq!(run.mismatches, 0, "{run:?}");
    let served = running.shutdown().expect("clean shutdown");
    assert!(served >= run.requests);
}

#[test]
fn queries_never_diverge_under_concurrent_ingest() {
    let reference = build_index();
    let options = SearchOptions::default().limit(10);
    let queries = queries();
    let expected: Vec<Vec<SearchResult>> = queries
        .iter()
        .map(|q| reference.search(q, &options))
        .collect();

    let running = Server::bind("127.0.0.1:0", build_index(), sharded_config(4, 3))
        .expect("bind sharded loopback")
        .spawn();
    let addr = running.addr();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let ingested = std::thread::scope(|scope| {
        // A writer hammers inserts of geographically disjoint
        // trajectories (no term overlap with the queries), so the
        // expected rankings stay frozen while the shard nodes churn
        // between the readers' queries.
        let writer = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("writer connect");
            let mut pushed = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let trajectory = eastward(25, 500_000.0 + pushed as f64 * 300.0);
                client
                    .insert(TrajId::new(10_000 + pushed), &trajectory)
                    .expect("ingest insert acked");
                pushed += 1;
            }
            pushed
        });

        let mut readers = Vec::new();
        for reader_index in 0..3usize {
            let queries = &queries;
            let expected = &expected;
            readers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("reader connect");
                for round in 0..40 {
                    let qi = (round + reader_index) % queries.len();
                    let hits = client.query(&queries[qi], &options).expect("query");
                    assert_eq!(hits, expected[qi], "reader {reader_index} round {round}");
                }
            }));
        }
        for reader in readers {
            reader.join().expect("reader thread");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().expect("writer thread")
    });
    assert!(ingested > 0, "the writer made progress during the reads");

    // After the churn the ingested ids are all queryable.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.trajectories,
        corpus().len() as u64 + u64::from(ingested)
    );
    running.shutdown().expect("clean shutdown");
}

#[test]
fn sharded_acked_writes_survive_restart_via_cluster_snapshot() {
    let dir = wal_dir("sharded-e2e");

    let running = Server::bind("127.0.0.1:0", build_index(), sharded_config(2, 2))
        .expect("bind sharded loopback")
        .with_durability(
            Wal::open(&dir, SyncPolicy::Always).expect("open wal"),
            0,
            Some(Duration::from_millis(20)),
        )
        .spawn();
    let mut client = Client::connect(running.addr()).expect("connect");

    let mut acked = Vec::new();
    for i in 0..8u32 {
        let id = TrajId::new(200 + i);
        let trajectory = eastward(30, 6_000.0 + i as f64 * 250.0);
        client.insert(id, &trajectory).expect("insert acked");
        acked.push((id, trajectory));
    }
    assert!(client.remove(TrajId::new(205)).expect("remove acked"));

    // Background compaction folds the sharded state into a *cluster*
    // snapshot under the shared lock, so this reader keeps answering.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let watermark = loop {
        let stats = client.stats_durable().expect("stats");
        let durability = stats.durability.expect("durability stats present");
        if durability.snapshot_watermark >= 9 {
            break durability.snapshot_watermark;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sharded compaction never advanced the watermark: {durability:?}"
        );
        client.ping().expect("reads stay live during compaction");
        std::thread::sleep(Duration::from_millis(10));
    };
    running.shutdown().expect("clean shutdown");

    // Restart: the compaction artifact is a cluster snapshot, replayed
    // with the WAL suffix exactly like a cold boot would.
    let recovered = recover(
        &dir,
        || Err("the compacted snapshot is missing".to_string()),
    )
    .expect("recovers from the cluster snapshot");
    assert!(recovered.compacted.is_some());
    assert_eq!(recovered.watermark, watermark);
    assert_eq!(recovered.last_seq, 9);
    let restored: ClusterIndex = recovered.index;

    let mut reference = build_index();
    for (id, trajectory) in &acked {
        reference.insert(*id, trajectory);
    }
    reference.remove(TrajId::new(205));
    assert_eq!(restored.len(), TrajectoryIndex::len(&reference));
    let options = SearchOptions::default().limit(10);
    for query in queries().iter().chain(acked.iter().map(|(_, t)| t)) {
        assert_eq!(
            restored.search(query, &options),
            reference.search(query, &options),
            "restored sharded state diverged from the reference"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

mod equivalence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-process sharded index (a cluster behind one lock,
        /// merged per-node heaps) returns exactly what a monolithic index over
        /// the same fingerprints would — including after removals and
        /// re-inserts that recycle interner slots — for any workload,
        /// node count and options.
        #[test]
        fn sharded_equals_monolithic_on_random_mutations(
            sets in proptest::collection::vec(
                proptest::collection::vec(0u32..5_000, 0..30), 1..40),
            query in proptest::collection::vec(0u32..5_000, 0..30),
            nodes in 1usize..8,
            limit in 0usize..8,
            threshold_pm in 0u32..101,
            remove_stride in 2usize..5,
        ) {
            let config = GeodabConfig::default();
            let cluster = ClusterIndex::new(config, 10_000, nodes).unwrap();
            let sharded = ShardedIndex::from_cluster(cluster);
            let mut mono = GeodabIndex::new(config);
            let insert = |sharded: &ShardedIndex,
                          mono: &mut GeodabIndex,
                          i: usize,
                          set: &[u32]| {
                let fp = geodabs_core::Fingerprints::from_ordered(set.to_vec());
                sharded.insert_fingerprints(TrajId::new(i as u32), fp.clone());
                mono.insert_fingerprints(TrajId::new(i as u32), fp);
            };
            for (i, set) in sets.iter().enumerate() {
                insert(&sharded, &mut mono, i, set);
            }
            for i in (0..sets.len()).step_by(remove_stride) {
                sharded.remove(TrajId::new(i as u32));
                mono.remove(TrajId::new(i as u32));
            }
            for i in (0..sets.len()).step_by(remove_stride * 2) {
                let shifted: Vec<u32> = sets[i].iter().map(|t| t + 1).collect();
                insert(&sharded, &mut mono, i, &shifted);
            }
            prop_assert_eq!(sharded.len() as usize, TrajectoryIndex::len(&mono));
            let query_fp = geodabs_core::Fingerprints::from_ordered(query);
            let mut options =
                SearchOptions::default().max_distance(threshold_pm as f64 / 100.0);
            if limit > 0 {
                options = options.limit(limit - 1);
            }
            prop_assert_eq!(
                sharded.search_fingerprints(&query_fp, &options),
                mono.search_fingerprints(&query_fp, &options)
            );
        }
    }
}

/// Every query sees one prefix of the writes. A writer flips trajectory
/// X between a shape whose terms all live on node 1 and one whose terms
/// all live on node 0, with Y fixed on node 1, while a limit-1 reader
/// queries terms on both nodes. Any prefix ranks either `[X]` (X on
/// node 1, close) or `[Y]` (X on node 0, far); a query that read node 0
/// before a flip and node 1 after it would see both shapes of X at once
/// and rank the far one.
#[test]
fn every_ranking_under_ingest_is_the_ranking_of_one_prefix() {
    use geodabs_core::Fingerprints;
    use std::sync::atomic::{AtomicBool, Ordering};

    let cluster = ClusterIndex::new(GeodabConfig::default(), common::NUM_SHARDS, 2).unwrap();
    let router = *cluster.router();
    let terms_on = |node: usize| -> Vec<u32> {
        (1..)
            .map(|i: u32| i.wrapping_mul(0x9E37_79B9))
            .filter(|&term| router.node_of_geodab(term) == node)
            .take(8)
            .collect()
    };
    let (node0, node1) = (terms_on(0), terms_on(1));
    let fp = |terms: &[u32]| Fingerprints::from_ordered(terms.to_vec());
    let (x, y) = (TrajId::new(1), TrajId::new(2));
    let near = fp(&node1);
    let far = fp(&node0);
    let query: Vec<u32> = node1.iter().chain(&node0[..1]).copied().collect();
    let query = fp(&query);
    let options = SearchOptions::default().limit(1);

    let sharded = ShardedIndex::from_cluster(cluster);
    sharded.insert_fingerprints(y, fp(&node1[..4]));
    sharded.insert_fingerprints(x, near.clone());
    let x_near = sharded.search_fingerprints(&query, &options);
    sharded.insert_fingerprints(x, far.clone());
    let y_only = sharded.search_fingerprints(&query, &options);
    assert_eq!(x_near.iter().map(|hit| hit.id).collect::<Vec<_>>(), [x]);
    assert_eq!(y_only.iter().map(|hit| hit.id).collect::<Vec<_>>(), [y]);

    let stop = AtomicBool::new(false);
    let deadline = std::time::Instant::now() + Duration::from_millis(400);
    let (flips, queries) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut flips = 0u64;
            for shape in [&near, &far].into_iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                sharded.insert_fingerprints(x, shape.clone());
                flips += 1;
            }
            flips
        });
        let mut queries = 0u64;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while std::time::Instant::now() < deadline {
                let ranking = sharded.search_fingerprints(&query, &options);
                assert!(
                    ranking == x_near || ranking == y_only,
                    "query {queries} ranked {ranking:?}, which no prefix of the writes ranks"
                );
                queries += 1;
            }
        }));
        stop.store(true, Ordering::Relaxed);
        let flips = writer.join().expect("writer thread");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
        (flips, queries)
    });
    assert!(flips > 0 && queries > 0, "{flips} flips, {queries} queries");
}
