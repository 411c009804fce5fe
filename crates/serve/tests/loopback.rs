//! End-to-end loopback tests: the served rankings must be
//! **bit-identical** to direct in-process `TrajectoryIndex::search`
//! calls — across concurrent pipelined clients — and the server must
//! shut down cleanly on both an explicit signal and a poisoned write
//! lock.

mod common;

use common::{build_index, corpus, eastward, queries, wal_dir};
use geodabs_cluster::ClusterIndex;
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::store::{Persist, SnapshotError};
use geodabs_index::{GeodabIndex, SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_serve::{
    recover, Client, LoadClient, QueryBody, Request, Response, Server, ServerConfig,
};
use geodabs_traj::{TrajId, Trajectory};
use geodabs_wal::{SyncPolicy, Wal};
use std::time::Duration;

#[test]
fn four_concurrent_pipelined_clients_get_bit_identical_rankings() {
    let reference = build_index();
    let options = SearchOptions::default().limit(10);
    let queries = queries();
    let expected: Vec<Vec<SearchResult>> = queries
        .iter()
        .map(|q| reference.search(q, &options))
        .collect();

    let running = Server::bind(
        "127.0.0.1:0",
        build_index(),
        ServerConfig::builder().mux_workers(4).build().unwrap(),
    )
    .expect("bind loopback")
    .spawn();
    let addr = running.addr();

    std::thread::scope(|scope| {
        for client_index in 0..4 {
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Pipeline: enqueue every request before reading any
                // response; the server must answer them in order.
                for (qi, query) in queries.iter().enumerate() {
                    let rotated = (qi + client_index) % queries.len();
                    client
                        .send(&Request::Query {
                            query: QueryBody::Trajectory(queries[rotated].clone()),
                            options,
                        })
                        .expect("send");
                    let _ = query;
                }
                for qi in 0..queries.len() {
                    let rotated = (qi + client_index) % queries.len();
                    match client.recv().expect("recv") {
                        Response::Hits(hits) => {
                            assert_eq!(hits, expected[rotated], "client {client_index}")
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            });
        }
    });

    running.shutdown().expect("clean shutdown");
}

#[test]
fn batch_fingerprint_and_mutation_requests_match_in_process_state() {
    let mut reference = build_index();
    let options = SearchOptions::default().limit(5);
    let queries = queries();

    let running = Server::bind(
        "127.0.0.1:0",
        build_index(),
        ServerConfig::builder().mux_workers(2).build().unwrap(),
    )
    .expect("bind loopback")
    .spawn();
    let mut client = Client::connect(running.addr()).expect("connect");

    // A run of queries, one per frame ≡ the in-process index.
    for query in &queries {
        let hits = client.query(query, &options).expect("query");
        assert_eq!(hits, reference.search(query, &options));
    }

    // Client-side fingerprinting ≡ server-side fingerprinting.
    let fp = reference.fingerprint_query(&queries[0]);
    let via_fingerprints = client
        .query_fingerprints(fp.ordered(), &options)
        .expect("fingerprint query");
    assert_eq!(via_fingerprints, reference.search(&queries[0], &options));

    // Insert / remove round-trips mirror the in-process index.
    let fresh = eastward(50, 9_000.0);
    reference.insert(TrajId::new(500), &fresh);
    let len = client.insert(TrajId::new(500), &fresh).expect("insert");
    assert_eq!(len as usize, reference.len());
    let hits = client.query(&fresh, &options).expect("query");
    assert_eq!(hits, reference.search(&fresh, &options));
    assert_eq!(hits[0].id, TrajId::new(500));

    assert!(client.remove(TrajId::new(500)).expect("remove"));
    assert!(!client.remove(TrajId::new(500)).expect("re-remove"));
    reference.remove(TrajId::new(500));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.backend, "geodab");
    assert_eq!(stats.trajectories as usize, reference.len());
    assert_eq!(stats.terms as usize, reference.term_count());

    client.ping().expect("ping");
    running.shutdown().expect("clean shutdown");
}

#[test]
fn cluster_backend_serves_identically_to_monolithic() {
    let mut cluster = ClusterIndex::new(GeodabConfig::default(), 10_000, 4).unwrap();
    for (id, trajectory) in corpus() {
        cluster.insert(id, &trajectory);
    }
    let reference = build_index();
    let options = SearchOptions::default().limit(10);

    let running = Server::bind(
        "127.0.0.1:0",
        cluster,
        ServerConfig::builder().mux_workers(2).build().unwrap(),
    )
    .expect("bind loopback")
    .spawn();
    let mut client = Client::connect(running.addr()).expect("connect");
    for query in queries() {
        let hits = client.query(&query, &options).expect("query");
        assert_eq!(hits, reference.search(&query, &options));
    }
    assert_eq!(client.stats().expect("stats").backend, "cluster");
    running.shutdown().expect("clean shutdown");
}

#[test]
fn load_client_reports_traffic_and_zero_mismatches() {
    let reference = build_index();
    let options = SearchOptions::default().limit(10);
    let queries = queries();
    let expected: Vec<Vec<SearchResult>> = queries
        .iter()
        .map(|q| reference.search(q, &options))
        .collect();

    let running = Server::bind(
        "127.0.0.1:0",
        build_index(),
        ServerConfig::builder().mux_workers(4).build().unwrap(),
    )
    .expect("bind loopback")
    .spawn();
    let load =
        LoadClient::new(running.addr().to_string(), queries, options).expect_results(expected);
    let run = load.run(4, Duration::from_millis(300)).expect("load run");
    assert_eq!(run.connections, 4);
    assert!(run.requests > 0, "{run:?}");
    assert_eq!(run.mismatches, 0, "{run:?}");
    assert!(run.qps > 0.0);
    assert!(run.p50_ms <= run.p95_ms && run.p95_ms <= run.p99_ms);
    let served = running.shutdown().expect("clean shutdown");
    assert!(served >= run.requests);
}

#[test]
fn malformed_frames_get_an_error_response_and_the_server_survives() {
    let running = Server::bind(
        "127.0.0.1:0",
        build_index(),
        ServerConfig::builder().mux_workers(2).build().unwrap(),
    )
    .expect("bind loopback")
    .spawn();

    // Hand-write a frame whose checksum is wrong: the server answers
    // with a typed error frame, then drops that connection.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(running.addr()).expect("connect");
        let payload = [1u8]; // a Ping…
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&0xBAD0_BAD0u32.to_le_bytes()); // …with a bogus CRC
        wire.extend_from_slice(&payload);
        stream.write_all(&wire).expect("write");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read");
        assert!(!response.is_empty(), "server answered before closing");
        let mut reader = geodabs_serve::proto::FrameReader::new(response.as_slice());
        match reader
            .read_frame()
            .expect("error frame")
            .map(|p| Response::decode(&p))
        {
            Some(Ok(Response::Error(message))) => {
                assert!(message.contains("checksum"), "{message}")
            }
            other => panic!("expected an error response, got {other:?}"),
        }
    }

    // A fresh connection still works: the bad frame hurt nobody else.
    let mut client = Client::connect(running.addr()).expect("connect");
    client.ping().expect("ping after corruption");
    running.shutdown().expect("clean shutdown");
}

/// A backend that panics inside the write section, to exercise the
/// poison path of the locked hosting.
struct PanicOnInsert(GeodabIndex);

impl TrajectoryIndex for PanicOnInsert {
    fn insert(&mut self, _id: TrajId, _trajectory: &Trajectory) {
        panic!("injected failure while holding the write lock");
    }
    fn remove(&mut self, id: TrajId) -> bool {
        self.0.remove(id)
    }
    fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult> {
        self.0.search(query, options)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn ids(&self) -> impl Iterator<Item = TrajId> + '_ {
        self.0.ids()
    }
}

impl Persist for PanicOnInsert {
    fn to_snapshot(&self) -> Vec<u8> {
        self.0.to_snapshot()
    }
    fn from_snapshot(data: &[u8]) -> Result<Self, SnapshotError> {
        GeodabIndex::from_snapshot(data).map(PanicOnInsert)
    }
}

impl geodabs_serve::ServeBackend for PanicOnInsert {
    fn backend_name(&self) -> &'static str {
        "panic-on-insert"
    }
    fn term_count(&self) -> usize {
        self.0.term_count()
    }
    fn search_fingerprints(&self, fp: &Fingerprints, options: &SearchOptions) -> Vec<SearchResult> {
        geodabs_serve::ServeBackend::search_fingerprints(&self.0, fp, options)
    }
}

/// A write-path panic ends in a typed "poisoned" error and a clean,
/// self-initiated shutdown. (The sharded hosting is this same lock over
/// a cluster; `server::tests` poisons it directly.)
#[test]
fn poisoned_write_lock_shuts_the_server_down_cleanly() {
    let config = common::server_config(1, 2);
    let running = Server::bind("127.0.0.1:0", PanicOnInsert(build_index()), config)
        .expect("bind loopback")
        .spawn();
    let addr = running.addr();

    // The panicking insert is caught at the request boundary: the
    // victim gets an error response instead of a dead socket.
    {
        let mut victim = Client::connect(addr).expect("connect");
        let err = victim.insert(TrajId::new(9), &eastward(40, 0.0));
        assert!(
            matches!(&err, Err(geodabs_serve::WireError::Remote(m)) if m.contains("panicked")),
            "expected a remote panicked report: {err:?}"
        );
    }
    // …and the poisoned lock turns every later request that touches it
    // into an error response while the server starts its clean shutdown.
    let answer = Client::connect(addr)
        .map_err(geodabs_serve::WireError::Io)
        .and_then(|mut client| client.request(&Request::Stats { durability: false }));
    match answer {
        Ok(Response::Error(message)) => assert!(message.contains("poisoned"), "{message}"),
        // The shutdown may already have won the race and closed the
        // socket (or the listener) — equally acceptable, as long as
        // join() returns.
        Ok(other) => panic!("unexpected response {other:?}"),
        Err(_) => {}
    }
    running.shutdown().expect("clean shutdown after poison");
}

#[test]
fn acked_writes_survive_restart_and_compaction_advances_the_watermark() {
    let dir = wal_dir("e2e");
    let corpus_len = corpus().len() as u64;

    // Phase 1: a durable server; every ack implies the WAL has synced.
    let running = Server::bind(
        "127.0.0.1:0",
        build_index(),
        ServerConfig::builder().mux_workers(2).build().unwrap(),
    )
    .expect("bind loopback")
    .with_durability(
        Wal::open(&dir, SyncPolicy::Always).expect("open wal"),
        0,
        Some(Duration::from_millis(20)),
    )
    .spawn();
    let addr = running.addr();

    let mut client = Client::connect(addr).expect("connect");
    let mut acked = Vec::new();
    for i in 0..12u32 {
        let id = TrajId::new(100 + i);
        let trajectory = eastward(30, 5_000.0 + i as f64 * 250.0);
        client.insert(id, &trajectory).expect("insert acked");
        acked.push((id, trajectory));
    }
    // A replace of an existing id and a removal also go through the log.
    client
        .insert(TrajId::new(100), &acked[1].1)
        .expect("replace");
    assert!(client.remove(TrajId::new(111)).expect("remove"));

    // The durability stats must reflect all 14 mutations as durable…
    let stats = client.stats_durable().expect("stats");
    let durability = stats.durability.expect("durability stats present");
    assert_eq!(durability.last_durable_seq, 14);
    assert!(durability.wal_bytes > 0, "live WAL bytes");

    // …and the background compactor must fold them into a snapshot.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let watermark = loop {
        let stats = client.stats_durable().expect("stats");
        let durability = stats.durability.expect("durability stats present");
        if durability.snapshot_watermark >= 14 {
            break durability.snapshot_watermark;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "compaction never advanced the watermark: {durability:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    running.shutdown().expect("clean shutdown");

    // Phase 2: boot the way the CLI does — snapshot, then the log suffix.
    let recovered = recover(
        &dir,
        || Err("the compacted snapshot is missing".to_string()),
    )
    .expect("recovers from the compacted snapshot");
    assert!(recovered.compacted.is_some());
    assert_eq!(recovered.watermark, watermark);
    assert_eq!(recovered.last_seq, 14);
    let mut restored: GeodabIndex = recovered.index;

    // Zero acked-write loss: corpus + 12 inserts − 1 remove (the
    // replace of id 100 reuses its slot), and the replaced trajectory
    // ranks for its new shape.
    assert_eq!(restored.len() as u64, corpus_len + 12 - 1);
    assert!(
        !restored.remove(TrajId::new(111)),
        "removed id stays removed"
    );
    let hits = restored.search(&acked[1].1, &SearchOptions::default().limit(3));
    assert!(
        hits.iter().any(|h| h.id == TrajId::new(100)),
        "replaced id 100 must rank for its new trajectory: {hits:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
