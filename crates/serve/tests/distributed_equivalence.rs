//! Distributed equivalence suite: a scatter/gather frontend over N
//! shard servers on loopback must answer every query **bit-identical**
//! (`==` on the IEEE-754 distance bits) to the monolithic in-process
//! index — across shard counts, mutations routed through the frontend,
//! pipelined clients, and a restart from per-shard snapshots. Shard
//! loss yields the typed `Unavailable` error, never a silently partial
//! ranking, and the frontend recovers without a restart.

mod common;

use common::{build_index as build_monolith, corpus, eastward, empty_slices, queries};
use geodabs_cluster::ShardNode;
use geodabs_core::GeodabConfig;
use geodabs_index::store::Persist;
use geodabs_index::{GeodabIndex, SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_serve::{
    Client, QueryBody, Request, Response, RunningServer, Server, ServerConfig, WireError,
};
use geodabs_traj::{TrajId, Trajectory};

/// Boots one shard server per slice plus a frontend over them, four mux
/// workers each.
fn boot(slices: Vec<ShardNode>) -> (Vec<RunningServer>, RunningServer) {
    common::boot(slices, 4)
}

/// Slices the whole corpus through one cluster ingest — the state each
/// node would hold after a live N-node ingest.
fn preloaded_slices(nodes: usize) -> Vec<ShardNode> {
    common::slices_of(&build_monolith(), nodes)
}

#[test]
fn scatter_gather_matches_the_monolith_at_two_and_four_shards() {
    let monolith = build_monolith();
    let options = SearchOptions::default().limit(10);
    for nodes in [2usize, 4] {
        let (servers, frontend) = boot(preloaded_slices(nodes));
        let mut client = Client::connect(frontend.addr()).expect("connect");

        let stats = client.stats().expect("stats");
        assert_eq!(stats.backend, "frontend");
        assert_eq!(stats.terms, nodes as u64, "terms slot = shard servers");

        for query in queries() {
            let hits = client.query(&query, &options).expect("query");
            let expected = monolith.search(&query, &options);
            assert_eq!(hits, expected, "{nodes} shards");
        }
        // An unfingerprintable (too short) query short-circuits to an
        // empty ranking without touching the shards, like the monolith.
        let tiny: Trajectory = eastward(2, 0.0);
        assert_eq!(
            client.query(&tiny, &options).expect("tiny query"),
            monolith.search(&tiny, &options)
        );

        frontend.shutdown().expect("frontend shutdown");
        for server in servers {
            server.shutdown().expect("shard shutdown");
        }
    }
}

#[test]
fn mutations_through_the_frontend_match_the_monolith() {
    let options = SearchOptions::default().limit(10);
    let (servers, frontend) = boot(empty_slices(2));
    let mut client = Client::connect(frontend.addr()).expect("connect");
    let mut monolith = GeodabIndex::new(GeodabConfig::default());

    // Inserts are acked with the frontend's corpus count and replicate
    // to every shard server.
    for (step, (id, trajectory)) in corpus().into_iter().enumerate() {
        let len = client.insert(id, &trajectory).expect("insert");
        monolith.insert(id, &trajectory);
        assert_eq!(len, step as u64 + 1);
    }
    for query in queries() {
        assert_eq!(
            client.query(&query, &options).expect("query"),
            monolith.search(&query, &options)
        );
    }

    // Removes: present ids ack true and scrub every shard; absent ids
    // ack false without touching any.
    assert!(client.remove(TrajId::new(3)).expect("remove"));
    assert!(monolith.remove(TrajId::new(3)));
    assert!(!client.remove(TrajId::new(999)).expect("remove absent"));

    // Replace-on-reinsert: the new shape must fully scrub the old one
    // on every shard, not leave stale postings behind.
    let replacement = eastward(40, 5_000.0);
    client
        .insert(TrajId::new(0), &replacement)
        .expect("replace");
    monolith.insert(TrajId::new(0), &replacement);

    for query in queries() {
        assert_eq!(
            client.query(&query, &options).expect("query"),
            monolith.search(&query, &options)
        );
    }

    frontend.shutdown().expect("frontend shutdown");
    for server in servers {
        server.shutdown().expect("shard shutdown");
    }
}

#[test]
fn four_pipelined_clients_get_bit_identical_rankings_through_the_frontend() {
    let monolith = build_monolith();
    let options = SearchOptions::default().limit(10);
    let queries = queries();
    let expected: Vec<Vec<SearchResult>> = queries
        .iter()
        .map(|q| monolith.search(q, &options))
        .collect();

    let (servers, frontend) = boot(preloaded_slices(2));
    let addr = frontend.addr();
    std::thread::scope(|scope| {
        for client_index in 0..4 {
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Pipeline: enqueue every request before reading any
                // response; the frontend must answer them in order.
                for qi in 0..queries.len() {
                    let rotated = (qi + client_index) % queries.len();
                    client
                        .send(&Request::Query {
                            query: QueryBody::Trajectory(queries[rotated].clone()),
                            options,
                        })
                        .expect("send");
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

    frontend.shutdown().expect("frontend shutdown");
    for server in servers {
        server.shutdown().expect("shard shutdown");
    }
}

#[test]
fn restart_from_per_shard_snapshots_preserves_rankings() {
    let monolith = build_monolith();
    let options = SearchOptions::default().limit(10);

    // Snapshot each node's slice, "restart" by decoding fresh nodes
    // from the bytes, and serve those.
    let snapshots: Vec<Vec<u8>> = preloaded_slices(4)
        .iter()
        .map(Persist::to_snapshot)
        .collect();
    let restored: Vec<ShardNode> = snapshots
        .iter()
        .map(|bytes| ShardNode::from_snapshot(bytes).expect("decode slice"))
        .collect();
    for (node, slice) in restored.iter().enumerate() {
        assert_eq!(slice.node_id(), node, "snapshot remembers its node id");
    }

    let (servers, frontend) = boot(restored);
    let mut client = Client::connect(frontend.addr()).expect("connect");
    for query in queries() {
        assert_eq!(
            client.query(&query, &options).expect("query"),
            monolith.search(&query, &options)
        );
    }
    frontend.shutdown().expect("frontend shutdown");
    for server in servers {
        server.shutdown().expect("shard shutdown");
    }
}

#[test]
fn killed_shard_yields_typed_unavailable_and_the_frontend_recovers() {
    let monolith = build_monolith();
    let options = SearchOptions::default().limit(10);
    let slices = preloaded_slices(2);
    let spare = slices[0].clone();
    let (mut servers, frontend) = boot(slices);
    let mut client = Client::connect(frontend.addr()).expect("connect");

    let query = &queries()[0];
    let expected = monolith.search(query, &options);
    assert_eq!(client.query(query, &options).expect("warm query"), expected);

    // Kill shard 0 (its worker connections drop mid-service)…
    let node0_addr = servers[0].addr();
    servers.remove(0).shutdown().expect("kill shard 0");

    // …and the frontend answers with the *typed* unavailable error —
    // never a silently partial ranking assembled from the survivors.
    match client.query(query, &options) {
        Err(WireError::Unavailable { node, message }) => {
            assert_eq!(node, 0);
            assert!(!message.is_empty());
        }
        other => panic!("expected a typed Unavailable, got {other:?}"),
    }

    // Bring the shard back on the same port: the frontend redials on
    // the next request and recovers without a restart.
    let reborn = Server::bind(
        node0_addr,
        spare,
        ServerConfig::builder().mux_workers(4).build().unwrap(),
    )
    .expect("rebind shard 0")
    .spawn();
    let mut recovered = Err(WireError::Closed);
    for _ in 0..20 {
        recovered = client.query(query, &options);
        if recovered.is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert_eq!(recovered.expect("recovered query"), expected);

    frontend.shutdown().expect("frontend shutdown");
    reborn.shutdown().expect("shard shutdown");
    for server in servers {
        server.shutdown().expect("shard shutdown");
    }
}
