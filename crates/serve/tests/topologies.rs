//! One script, three deployments: the locked server, the sharded server
//! (the same lock over a two-node cluster) and a frontend over two shard
//! servers all answer
//! through one executor, so the same request sequence must produce the
//! same response sequence — every `Request` variant, both query body
//! shapes, replace-on-reinsert, removals of absent ids, refused shard
//! frames and a response over the frame cap — apart from the two
//! `Stats` fields that name the hosting. The local hostings' compaction
//! snapshots must restore to the same rankings too.

mod common;

use common::{build_index, corpus, eastward, queries, server_config, wal_dir};
use geodabs_cluster::ClusterIndex;
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::store::Persist;
use geodabs_index::{GeodabIndex, SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_serve::{
    recover, Client, MetricsReport, QueryBody, Request, Response, RunningServer, ServeBackend,
    Server,
};
use geodabs_traj::{TrajId, Trajectory};
use geodabs_wal::{SyncPolicy, Wal};
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
    let everything = Request::QueryBatch {
        queries: queries
            .iter()
            .map(|q| QueryBody::Trajectory(q.clone()))
            .chain([
                QueryBody::Fingerprints(terms(&queries[1])),
                QueryBody::Trajectory(eastward(2, 0.0)),
                QueryBody::Fingerprints(Vec::new()),
                QueryBody::Trajectory(eastward(50, 9_000.0)),
                QueryBody::Trajectory(eastward(45, 12_000.0)),
            ])
            .collect(),
        options: limited,
    };
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
        everything.clone(),
        Request::QueryBatch {
            queries: Vec::new(),
            options: limited,
        },
    ]);
    for mutation in mutations() {
        script.extend([mutation, stats.clone(), everything.clone()]);
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
    assert!(matches!(&locked[ingested + 8], Response::HitsBatch(batches) if batches.is_empty()));
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

/// A `QueryBatch` records its stages once per contained query, exactly
/// like that many `Query` frames would.
#[test]
fn a_batch_records_its_stages_once_per_contained_query() {
    let batch = queries();
    for topology in TOPOLOGIES {
        let deployment = Deployment::host(topology, build_index());
        let mut client = deployment.client();
        let before = client.metrics().expect("metrics");
        client
            .query_batch(&batch, &SearchOptions::default().limit(10))
            .expect("batch");
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
                batch.len() as u64,
                "{topology:?} {stage}"
            );
        }
        deployment.shutdown();
    }
}

/// A batch whose rankings add up past the frame cap is refused with the
/// same typed error everywhere — while it is being built, not after —
/// and still reaches the slow-query log. (One test per hosting, so the
/// harness overlaps the three multi-million-hit runs.)
fn a_response_over_the_frame_cap_is_refused_and_logged(topology: Topology) {
    // Every trajectory shares one term, so one single-term query ranks
    // the whole corpus; the batch repeats it until the running total
    // passes the cap (64 MiB / 12 bytes per hit).
    const SHARED_TERM: u32 = 0x4000_0000;
    const CORPUS: u32 = 8_000;
    const BATCH: usize = 700;
    let mut index = GeodabIndex::new(GeodabConfig::default());
    for id in 0..CORPUS {
        index.insert_fingerprints(
            TrajId::new(id),
            Fingerprints::from_ordered(vec![SHARED_TERM]),
        );
    }
    let deployment = Deployment::host(topology, index);
    let mut client = deployment.client();
    let single = client
        .query_fingerprints(&[SHARED_TERM], &SearchOptions::default())
        .expect("one ranking fits");
    assert_eq!(single.len(), CORPUS as usize);
    let batch = Request::QueryBatch {
        queries: vec![QueryBody::Fingerprints(vec![SHARED_TERM]); BATCH],
        options: SearchOptions::default(),
    };
    assert_eq!(
        client.request(&batch).expect("answered"),
        Response::Error(
            "response exceeds the frame cap; narrow the query with a result limit".to_string()
        )
    );
    let report = client.metrics().expect("metrics");
    assert!(
        report
            .slow_queries
            .iter()
            .any(|slow| slow.kind == "query_batch"),
        "the refused batch is missing from the slow-query log"
    );
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
