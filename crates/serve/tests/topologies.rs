//! One script, three deployments: the locked server, the sharded server
//! (the same lock over a two-node cluster) and a frontend over two shard
//! servers all answer
//! through one executor, so the same request sequence must produce the
//! same response sequence — every `Request` variant, both query body
//! shapes, replace-on-reinsert, removals of absent ids and refused shard
//! frames — apart from the two `Stats` fields that name the hosting. A
//! response over the frame cap is refused alike on each. The local
//! hostings' compaction snapshots must restore to the same rankings too.

mod common;

use common::{build_index, corpus, eastward, queries, server_config, wal_dir, NUM_SHARDS};
use geodabs_cluster::{ClusterIndex, ShardRouter};
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::store::Persist;
use geodabs_index::{GeodabIndex, SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_serve::proto::{write_frame, FrameReader, MAX_FRAME_LEN};
use geodabs_serve::{
    recover, Client, MetricsReport, QueryBody, Request, Response, RunningServer, ServeBackend,
    Server,
};
use geodabs_traj::{TrajId, Trajectory};
use geodabs_wal::{SyncPolicy, Wal};
use std::net::TcpStream;
use std::time::Duration;

/// Mux workers of every client-facing endpoint, so `Stats.workers`
/// agrees across hostings.
const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Topology {
    Locked,
    Sharded,
    Frontend,
}

const TOPOLOGIES: [Topology; 3] = [Topology::Locked, Topology::Sharded, Topology::Frontend];

/// The servers of one topology; the first is the one clients talk to.
struct Deployment(Vec<RunningServer>);

impl Deployment {
    /// Hosts `index`'s corpus under `topology`.
    fn host(topology: Topology, index: GeodabIndex) -> Deployment {
        let shards = match topology {
            Topology::Locked => 1,
            Topology::Sharded => 2,
            Topology::Frontend => {
                let (shards, frontend) = common::boot(common::slices_of(&index, 2), WORKERS);
                return Deployment(std::iter::once(frontend).chain(shards).collect());
            }
        };
        let server = Server::bind("127.0.0.1:0", index, server_config(shards, WORKERS));
        Deployment(vec![server.expect("bind loopback").spawn()])
    }

    fn client(&self) -> Client {
        Client::connect(self.0[0].addr()).expect("connect")
    }

    fn shutdown(self) {
        for server in self.0 {
            server.shutdown().expect("clean shutdown");
        }
    }
}

fn query(trajectory: &Trajectory, options: SearchOptions) -> Request {
    Request::Query {
        query: QueryBody::Trajectory(trajectory.clone()),
        options,
    }
}

fn insert(id: u32, trajectory: &Trajectory) -> Request {
    Request::Insert {
        id: TrajId::new(id),
        trajectory: trajectory.clone(),
    }
}

fn remove(id: u32) -> Request {
    Request::Remove {
        id: TrajId::new(id),
    }
}

/// The mutations of the script, shared with the durable run: a fresh
/// id, its replacement, an unindexable (too short) shape under a new id
/// and over an existing one, and removals of present, already-removed,
/// never-present and unindexable ids.
fn mutations() -> Vec<Request> {
    let tiny = eastward(2, 0.0);
    vec![
        insert(500, &eastward(50, 9_000.0)),
        insert(500, &eastward(45, 12_000.0)),
        insert(501, &tiny),
        insert(4, &tiny),
        remove(3),
        remove(3),
        remove(999),
        remove(501),
    ]
}

/// Every `Request` variant, with the state checks interleaved.
fn script() -> Vec<Request> {
    let limited = SearchOptions::default().limit(10);
    let unbounded = SearchOptions::default();
    let stats = Request::Stats { durability: false };
    let queries = queries();
    let reference = build_index();
    let terms = |q: &Trajectory| reference.fingerprint_query(q).ordered().to_vec();
    let everything: Vec<Request> = queries
        .iter()
        .map(|q| QueryBody::Trajectory(q.clone()))
        .chain([
            QueryBody::Fingerprints(terms(&queries[1])),
            QueryBody::Trajectory(eastward(2, 0.0)),
            QueryBody::Fingerprints(Vec::new()),
            QueryBody::Trajectory(eastward(50, 9_000.0)),
            QueryBody::Trajectory(eastward(45, 12_000.0)),
        ])
        .map(|query| Request::Query {
            query,
            options: limited,
        })
        .collect();
    // Every hosting starts empty and ingests the corpus over the wire (a
    // frontend only counts the ids it acknowledged itself).
    let mut script: Vec<Request> = corpus()
        .iter()
        .map(|(id, trajectory)| Request::Insert {
            id: *id,
            trajectory: trajectory.clone(),
        })
        .collect();
    script.extend([
        Request::Ping,
        stats.clone(),
        Request::Stats { durability: true },
        query(&queries[0], limited),
        query(&queries[5], unbounded),
        Request::Query {
            query: QueryBody::Fingerprints(terms(&queries[2])),
            options: limited,
        },
        query(&eastward(2, 0.0), limited),
        Request::Query {
            query: QueryBody::Fingerprints(Vec::new()),
            options: limited,
        },
    ]);
    script.extend(everything.iter().cloned());
    for mutation in mutations() {
        script.extend([mutation, stats.clone()]);
        script.extend(everything.iter().cloned());
    }
    script.extend([
        Request::ShardQuery {
            terms: terms(&queries[0]),
            options: limited,
            trace: 0,
        },
        Request::ShardQuery {
            terms: terms(&queries[0]),
            options: limited,
            trace: 7,
        },
        Request::ShardInsert {
            id: TrajId::new(600),
            terms: terms(&queries[0]),
        },
        stats,
        Request::Metrics,
    ]);
    script
}

/// Erases what legitimately names the hosting: the `Stats` backend and
/// term slots, the metrics readings, and the wording a hosting refuses
/// shard frames with.
fn normalize(request: &Request, response: Response) -> Response {
    match (request, response) {
        (_, Response::Stats(mut body)) => {
            body.backend.clear();
            body.terms = 0;
            Response::Stats(body)
        }
        (_, Response::Metrics(_)) => Response::Metrics(MetricsReport::default()),
        (Request::ShardQuery { .. } | Request::ShardInsert { .. }, Response::Error(_)) => {
            Response::Error("refused".to_string())
        }
        (_, response) => response,
    }
}

#[test]
fn every_request_answers_identically_on_every_hosting() {
    let script = script();
    let run = |topology| {
        let deployment = Deployment::host(topology, GeodabIndex::new(GeodabConfig::default()));
        let mut client = deployment.client();
        let responses: Vec<Response> = script
            .iter()
            .map(|request| normalize(request, client.request(request).expect("answered")))
            .collect();
        deployment.shutdown();
        responses
    };
    let locked = run(Topology::Locked);

    // The locked answers are the in-process ones (spot checks; the
    // loopback suite pins the rest), so equality below is exactness.
    let reference = build_index();
    let limited = SearchOptions::default().limit(10);
    let ingested = corpus().len();
    assert_eq!(
        locked[ingested - 1],
        Response::Inserted {
            len: ingested as u64
        }
    );
    assert_eq!(locked[ingested], Response::Pong);
    assert_eq!(
        locked[ingested + 3],
        Response::Hits(reference.search(&queries()[0], &limited))
    );
    assert_eq!(locked[ingested + 7], Response::Hits(Vec::new()));
    let refused = Response::Error("refused".to_string());
    assert_eq!(
        locked[locked.len() - 5..locked.len() - 2],
        [refused.clone(), refused.clone(), refused]
    );

    for topology in [Topology::Sharded, Topology::Frontend] {
        let responses = run(topology);
        for (step, request) in script.iter().enumerate() {
            assert_eq!(
                responses[step], locked[step],
                "{topology:?} diverged from the locked hosting at step {step}: {request:?}"
            );
        }
    }
}

fn histogram_count(report: &MetricsReport, name: &str) -> u64 {
    report
        .histogram(name)
        .map_or(0, |histogram| histogram.snapshot().count())
}

/// Each query records each stage once, on every hosting.
#[test]
fn each_query_records_each_stage_once() {
    let queries = queries();
    for topology in TOPOLOGIES {
        let deployment = Deployment::host(topology, build_index());
        let mut client = deployment.client();
        let before = client.metrics().expect("metrics");
        for query in &queries {
            client
                .query(query, &SearchOptions::default().limit(10))
                .expect("query");
        }
        let after = client.metrics().expect("metrics");
        let stages: &[&str] = match topology {
            Topology::Locked | Topology::Sharded => {
                &["geodabs_stage_lock_us", "geodabs_stage_engine_us"]
            }
            Topology::Frontend => &["geodabs_scatter_fanout", "geodabs_stage_merge_us"],
        };
        for stage in stages {
            assert_eq!(
                histogram_count(&after, stage) - histogram_count(&before, stage),
                queries.len() as u64,
                "{topology:?} {stage}"
            );
        }
        deployment.shutdown();
    }
}

/// Tag 4 once framed a batch of queries. Retired, it is refused as an
/// unknown tag on every hosting, and the connection keeps serving.
#[test]
fn the_retired_batch_tag_is_refused_and_the_connection_stays_usable() {
    for topology in TOPOLOGIES {
        let deployment = Deployment::host(topology, build_index());
        let stream = TcpStream::connect(deployment.0[0].addr()).expect("connect");
        let answer = || {
            let frame = FrameReader::new(&stream)
                .read_frame()
                .expect("intact frame");
            Response::decode(&frame.expect("answered")).expect("decodes")
        };
        write_frame(&mut &stream, &[4, 0, 0, 0, 0]).expect("send");
        assert_eq!(
            answer(),
            Response::Error("bad request: unknown request tag 4".to_string()),
            "{topology:?}"
        );
        write_frame(&mut &stream, &Request::Ping.encode()).expect("send");
        assert_eq!(answer(), Response::Pong, "{topology:?}");
        drop(stream);
        deployment.shutdown();
    }
}

/// A query whose ranking is past the frame cap is refused with the same
/// typed error everywhere, still reaches the slow-query log, and leaves
/// the connection serving — a result limit then narrows it. (One test
/// per hosting, so the harness overlaps the multi-million-hit runs.)
fn a_response_over_the_frame_cap_is_refused_and_logged(topology: Topology) {
    // One more hit than a frame holds at 12 wire bytes per hit.
    const CORPUS: u32 = MAX_FRAME_LEN / 12 + 1;
    // Two terms owned by different nodes, each held by half the corpus:
    // a frontend's shards each answer a ranking that fits, and only the
    // merge is over the cap.
    let router =
        ShardRouter::new(GeodabConfig::default().prefix_bits(), NUM_SHARDS, 2).expect("router");
    let term_on = |node| {
        (0..1u32 << 16)
            .map(|prefix| prefix << 16)
            .find(|&term| router.node_of_geodab(term) == node)
            .expect("a term on every node")
    };
    let terms = [term_on(0), term_on(1)];
    let holding = |id: u32| Fingerprints::from_ordered(vec![terms[id as usize % 2]]);
    let deployment = if topology == Topology::Frontend {
        let mut slices = common::empty_slices(2);
        for id in 0..CORPUS {
            slices[id as usize % 2].insert_fingerprints(TrajId::new(id), holding(id));
        }
        let (shards, frontend) = common::boot(slices, WORKERS);
        Deployment(std::iter::once(frontend).chain(shards).collect())
    } else {
        let mut index = GeodabIndex::new(GeodabConfig::default());
        for id in 0..CORPUS {
            index.insert_fingerprints(TrajId::new(id), holding(id));
        }
        Deployment::host(topology, index)
    };
    let mut client = deployment.client();
    let everyone = Request::Query {
        query: QueryBody::Fingerprints(terms.to_vec()),
        options: SearchOptions::default(),
    };
    assert_eq!(
        client.request(&everyone).expect("answered"),
        Response::Error(
            "response exceeds the frame cap; narrow the query with a result limit".to_string()
        ),
        "{topology:?}"
    );
    let report = client.metrics().expect("metrics");
    assert!(
        report.slow_queries.iter().any(|slow| slow.kind == "query"),
        "{topology:?}: the refused query is missing from the slow-query log"
    );
    let narrowed = client
        .query_fingerprints(&terms, &SearchOptions::default().limit(10))
        .expect("a limited ranking fits");
    assert_eq!(narrowed.len(), 10, "{topology:?}");
    drop(client);
    deployment.shutdown();
}

#[test]
fn the_locked_hosting_refuses_a_response_over_the_frame_cap() {
    a_response_over_the_frame_cap_is_refused_and_logged(Topology::Locked);
}

#[test]
fn the_sharded_hosting_refuses_a_response_over_the_frame_cap() {
    a_response_over_the_frame_cap_is_refused_and_logged(Topology::Sharded);
}

#[test]
fn the_frontend_refuses_a_response_over_the_frame_cap() {
    a_response_over_the_frame_cap_is_refused_and_logged(Topology::Frontend);
}

/// Serves the corpus durably on `shards` shard nodes, applies the script's
/// mutations, waits for the compactor to fold them all, and restores
/// the index the way a reboot would, through [`recover`].
fn restored_after_compaction<I: ServeBackend + Persist>(shards: usize) -> I {
    let dir = wal_dir(&format!("topologies-{shards}"));
    let running = Server::bind("127.0.0.1:0", build_index(), server_config(shards, WORKERS))
        .expect("bind loopback")
        .with_durability(
            Wal::open(&dir, SyncPolicy::Always).expect("open wal"),
            0,
            Some(Duration::from_millis(20)),
        )
        .spawn();
    let mut client = Client::connect(running.addr()).expect("connect");
    let mutations = mutations();
    for mutation in &mutations {
        client.request(mutation).expect("acked");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let watermark = loop {
        let stats = client.stats_durable().expect("stats");
        let durability = stats.durability.expect("durability stats present");
        if durability.snapshot_watermark >= mutations.len() as u64 {
            break durability.snapshot_watermark;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "compaction never advanced the watermark: {durability:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    running.shutdown().expect("clean shutdown");

    let recovered = recover(
        &dir,
        || Err("the compacted snapshot is missing".to_string()),
    )
    .expect("recovers from the compacted snapshot");
    assert!(recovered.compacted.is_some());
    assert_eq!(recovered.watermark, watermark);
    assert_eq!(recovered.last_seq, mutations.len() as u64);
    assert_eq!(recovered.replayed, 0, "the compactor folded every mutation");
    let _ = std::fs::remove_dir_all(&dir);
    recovered.index
}

#[test]
fn compaction_snapshots_of_both_local_hostings_restore_to_identical_rankings() {
    let mut reference = build_index();
    for mutation in mutations() {
        match mutation {
            Request::Insert { id, trajectory } => reference.insert(id, &trajectory),
            Request::Remove { id } => {
                reference.remove(id);
            }
            other => panic!("not a mutation: {other:?}"),
        }
    }
    let locked: GeodabIndex = restored_after_compaction(1);
    let sharded: ClusterIndex = restored_after_compaction(2);
    assert_eq!(TrajectoryIndex::len(&locked), reference.len());
    assert_eq!(TrajectoryIndex::len(&sharded), reference.len());

    let options = SearchOptions::default().limit(10);
    let probes = queries()
        .into_iter()
        .chain(corpus().into_iter().map(|(_, trajectory)| trajectory))
        .chain([eastward(50, 9_000.0), eastward(45, 12_000.0)]);
    for probe in probes {
        let expected: Vec<SearchResult> = reference.search(&probe, &options);
        assert_eq!(TrajectoryIndex::search(&locked, &probe, &options), expected);
        assert_eq!(
            TrajectoryIndex::search(&sharded, &probe, &options),
            expected
        );
    }
}
