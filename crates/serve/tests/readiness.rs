//! How a mux worker waits, pinned on every hosting: it parks instead of
//! ticking, never parks on a frame it already buffered, is woken for a
//! handed-over connection and for shutdown, and waits out (or gives up
//! on) a peer whose window is full without tearing a frame. Assertions
//! are on the park/wake-up counters and on answers, not on latency.

mod common;

use common::{build_index, queries, server_config, wal_dir};
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::{GeodabIndex, SearchOptions};
use geodabs_serve::proto::{write_frame, FrameReader};
use geodabs_serve::{Client, MetricsReport, QueryBody, Request, Response, RunningServer, Server};
use geodabs_traj::TrajId;
use geodabs_wal::{SyncPolicy, Wal};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
enum Topology {
    Locked,
    Sharded,
    Frontend,
}

const TOPOLOGIES: [Topology; 3] = [Topology::Locked, Topology::Sharded, Topology::Frontend];

/// Longer than any test runs: a compactor on this timer never fires.
const NEVER: Duration = Duration::from_secs(3_600);

/// What a worker needs to run out of spin budget and park, many times
/// over.
const SETTLE: Duration = Duration::from_millis(50);

/// Bounds every blocking read, so a lost wake-up fails a test instead
/// of hanging it.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// The servers of one topology; the first is the one clients talk to.
struct Deployment {
    servers: Vec<RunningServer>,
    wal_dirs: Vec<PathBuf>,
}

impl Deployment {
    /// Hosts `index` under `topology` with `workers` mux workers on the
    /// endpoint clients talk to. With a `durable` tag every server that
    /// can log gets a write-ahead log and a compactor on a [`NEVER`]
    /// timer.
    fn host(
        topology: Topology,
        index: GeodabIndex,
        workers: usize,
        durable: Option<&str>,
    ) -> Deployment {
        let mut wal_dirs = Vec::new();
        let mut log = |part: String| {
            let dir = wal_dir(&part);
            let wal = Wal::open(&dir, SyncPolicy::Never).expect("open wal");
            wal_dirs.push(dir);
            wal
        };
        let shards = match topology {
            Topology::Locked => 1,
            Topology::Sharded => 2,
            Topology::Frontend => {
                let (shards, frontend) =
                    common::boot_with(common::slices_of(&index, 2), workers, |node, server| {
                        match durable {
                            Some(tag) => server.with_durability(
                                log(format!("readiness-{tag}-{node}")),
                                0,
                                Some(NEVER),
                            ),
                            None => server,
                        }
                    });
                let servers = std::iter::once(frontend).chain(shards).collect();
                return Deployment { servers, wal_dirs };
            }
        };
        let mut server = Server::bind("127.0.0.1:0", index, server_config(shards, workers))
            .expect("bind loopback");
        if let Some(tag) = durable {
            server = server.with_durability(log(format!("readiness-{tag}")), 0, Some(NEVER));
        }
        Deployment {
            servers: vec![server.spawn()],
            wal_dirs,
        }
    }

    fn client(&self) -> Client {
        let client = Client::connect(self.servers[0].addr()).expect("connect");
        client
            .set_read_timeout(Some(ANSWER_TIMEOUT))
            .expect("read timeout");
        client
    }

    /// `count` connections the serving side has answered once — so each
    /// sits in some worker's poll set — and that then stay silent.
    fn idle_clients(&self, count: usize) -> Vec<Client> {
        (0..count)
            .map(|_| {
                let mut client = self.client();
                client.ping().expect("ping");
                client
            })
            .collect()
    }

    fn shutdown(self) {
        for server in self.servers {
            server.shutdown().expect("clean shutdown");
        }
        for dir in self.wal_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Forty small frames land in one `write`, so one `read` pulls them all
/// into the connection's buffer and a sweep answers 32 of them: the
/// other eight are invisible to `poll`, and a worker that parked on
/// them would never answer.
#[test]
fn pipelined_frames_in_one_write_are_all_answered_in_order() {
    let options = SearchOptions::default().limit(10);
    let reference = build_index();
    let bodies: Vec<QueryBody> = queries()
        .iter()
        .map(|q| QueryBody::Fingerprints(reference.fingerprint_query(q).ordered().to_vec()))
        .collect();
    let request = |i: usize| Request::Query {
        query: bodies[i % bodies.len()].clone(),
        options,
    };
    for topology in TOPOLOGIES {
        let deployment = Deployment::host(topology, build_index(), 1, None);
        let mut client = deployment.client();
        let expected: Vec<Response> = (0..bodies.len())
            .map(|i| client.request(&request(i)).expect("answered"))
            .collect();
        assert_ne!(expected[0], expected[1], "neighbours must differ");

        let mut burst = Vec::new();
        for i in 0..40 {
            write_frame(&mut burst, &request(i).encode()).expect("frame");
        }
        assert!(burst.len() < 16 * 1024, "the burst must fit one read");
        let mut stream = TcpStream::connect(deployment.servers[0].addr()).expect("connect");
        stream
            .set_read_timeout(Some(ANSWER_TIMEOUT))
            .expect("read timeout");
        std::thread::sleep(SETTLE);
        stream.write_all(&burst).expect("one write");
        let mut reader = FrameReader::new(&mut stream);
        for i in 0..40 {
            let payload = reader
                .read_frame()
                .unwrap_or_else(|e| panic!("{topology:?}: frame {i} never came: {e}"))
                .expect("open");
            assert_eq!(
                Response::decode(&payload).expect("decodes"),
                expected[i % bodies.len()],
                "{topology:?}: frame {i} out of order"
            );
        }
        deployment.shutdown();
    }
}

/// What the park/wake-up counters pin. The non-unix fallback poller
/// ticks instead of parking, so these hold only where `poll` exists.
#[cfg(unix)]
mod parked {
    use super::*;

    fn counter(report: &MetricsReport, name: &str) -> u64 {
        report
            .counter(name)
            .unwrap_or_else(|| panic!("{name} is missing from the scrape"))
    }

    const PARKS: &str = "geodabs_mux_parks_total";
    const WAKEUPS: &str = "geodabs_mux_wakeups_total";
    const SPURIOUS: &str = "geodabs_mux_spurious_wakeups_total";

    /// A pool with nothing to do sits in `poll`: over 300 ms the only park
    /// and wake-up are the ones around the scrape that reads them. (A
    /// worker ticking on a 200 µs sleep would wake ~1 000 times.)
    #[test]
    fn idle_connections_cost_no_wakeups() {
        for topology in TOPOLOGIES {
            let deployment = Deployment::host(topology, build_index(), 2, None);
            let mut idle = deployment.idle_clients(8);
            std::thread::sleep(SETTLE);
            let before = idle[0].metrics().expect("metrics");
            std::thread::sleep(Duration::from_millis(300));
            let after = idle[0].metrics().expect("metrics");
            for name in [PARKS, WAKEUPS] {
                let gained = counter(&after, name) - counter(&before, name);
                assert!(
                    gained <= 4,
                    "{topology:?}: {name} gained {gained} while idle"
                );
            }
            assert!(counter(&after, PARKS) > 0, "{topology:?}: nothing parked");
            drop(idle);
            deployment.shutdown();
        }
    }

    /// A connection accepted while the worker is parked is not in its poll
    /// set yet: only the acceptor's waker can get it served.
    #[test]
    fn a_connection_handed_to_a_parked_worker_is_answered() {
        for topology in TOPOLOGIES {
            let deployment = Deployment::host(topology, build_index(), 1, None);
            let mut scraper = deployment.client();
            // What one scrape of a parked worker costs by itself.
            std::thread::sleep(SETTLE);
            let first = scraper.metrics().expect("metrics");
            std::thread::sleep(SETTLE);
            let second = scraper.metrics().expect("metrics");
            let alone = counter(&second, WAKEUPS) - counter(&first, WAKEUPS);

            // The same interval with one silent connection arriving in it.
            let mut late = deployment.client();
            std::thread::sleep(SETTLE);
            let third = scraper.metrics().expect("metrics");
            assert_eq!(
                counter(&third, WAKEUPS) - counter(&second, WAKEUPS),
                alone + 1,
                "{topology:?}: the hand-over did not wake the worker"
            );
            // It woke for a connection that had nothing to say yet.
            assert_eq!(
                counter(&third, SPURIOUS) - counter(&second, SPURIOUS),
                1,
                "{topology:?}"
            );
            late.ping().expect("the late connection is served");
            deployment.shutdown();
        }
    }
}

/// Nothing in a server waits a timer out once it is told to stop: the
/// parked workers are woken by the acceptor and the compactor (here on
/// an hour-long timer) is unparked.
#[test]
fn shutdown_with_idle_connections_and_a_compactor_joins_promptly() {
    for (topology, tag) in TOPOLOGIES
        .into_iter()
        .zip(["locked", "sharded", "frontend"])
    {
        let deployment = Deployment::host(topology, build_index(), 2, Some(tag));
        let idle = deployment.idle_clients(8);
        std::thread::sleep(SETTLE);
        let started = Instant::now();
        deployment.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{topology:?}: shutdown took {took:?}"
        );
        drop(idle);
    }
}

/// Every trajectory shares one term, so a one-term query ranks the
/// whole corpus and a batch of them is a multi-megabyte response.
const SHARED_TERM: u32 = 0x4000_0000;
const CORPUS: u32 = 4_000;
const BATCH: usize = 60;

fn broad_index() -> GeodabIndex {
    let mut index = GeodabIndex::new(GeodabConfig::default());
    for id in 0..CORPUS {
        index.insert_fingerprints(
            TrajId::new(id),
            Fingerprints::from_ordered(vec![SHARED_TERM]),
        );
    }
    index
}

fn broad_batch() -> Request {
    Request::QueryBatch {
        queries: vec![QueryBody::Fingerprints(vec![SHARED_TERM]); BATCH],
        options: SearchOptions::default(),
    }
}

fn connections(report: &MetricsReport) -> u64 {
    report.gauge("geodabs_connections").expect("gauge").0
}

/// Scrapes through `client` until `geodabs_connections` reads `want`.
fn await_connections(client: &mut Client, want: u64, topology: Topology) {
    let deadline = Instant::now() + ANSWER_TIMEOUT;
    while connections(&client.metrics().expect("metrics")) != want {
        assert!(
            Instant::now() < deadline,
            "{topology:?}: geodabs_connections never read {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The response path on a non-blocking socket, both ways a full window
/// can end. A reader that is merely late gets every byte of every frame
/// (the write resumed at the right offset after each stall); a peer
/// that never reads is dropped once a stall outlasts the write timeout,
/// and the worker it was holding goes back to its other connection.
fn a_full_window_is_waited_out_or_the_peer_dropped(topology: Topology) {
    let deployment = Deployment::host(topology, broad_index(), 1, None);
    let batch = broad_batch();
    let mut neighbour = deployment.client();
    let whole = neighbour.request(&batch).expect("answered");
    let Response::HitsBatch(rankings) = &whole else {
        panic!("{topology:?}: unexpected {whole:?}");
    };
    assert_eq!(rankings.len(), BATCH);
    assert!(rankings.iter().all(|r| r.len() == CORPUS as usize));

    // Late: eight responses (~23 MB) queue up against a reader that is
    // not reading — far more than the socket buffers hold.
    let mut late = deployment.client();
    for _ in 0..8 {
        late.send(&batch).expect("send");
    }
    std::thread::sleep(Duration::from_millis(300));
    for i in 0..8 {
        assert!(
            late.recv().expect("intact frame") == whole,
            "{topology:?}: late response {i} differs"
        );
    }
    drop(late);
    await_connections(&mut neighbour, 1, topology);

    // Never: the same, but nobody ever reads.
    let mut stuck = TcpStream::connect(deployment.servers[0].addr()).expect("connect");
    await_connections(&mut neighbour, 2, topology);
    let mut burst = Vec::new();
    for _ in 0..24 {
        write_frame(&mut burst, &batch.encode()).expect("frame");
    }
    stuck.write_all(&burst).expect("requests fit the window");
    await_connections(&mut neighbour, 1, topology);
    neighbour.ping().expect("the neighbour is served again");
    // The drop is visible from the peer's side too: what was buffered,
    // then end-of-stream or a reset, never a read that blocks.
    stuck
        .set_read_timeout(Some(ANSWER_TIMEOUT))
        .expect("read timeout");
    let mut sink = vec![0u8; 1 << 20];
    loop {
        match stuck.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                assert!(
                    !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "{topology:?}: the stuck connection is still open"
                );
                break;
            }
        }
    }
    deployment.shutdown();
}

// One test per hosting: each waits a five-second write timeout out, so
// the harness overlaps them.
#[test]
fn the_locked_hosting_waits_a_full_window_out_or_drops_the_peer() {
    a_full_window_is_waited_out_or_the_peer_dropped(Topology::Locked);
}

#[test]
fn the_sharded_hosting_waits_a_full_window_out_or_drops_the_peer() {
    a_full_window_is_waited_out_or_the_peer_dropped(Topology::Sharded);
}

#[test]
fn the_frontend_waits_a_full_window_out_or_drops_the_peer() {
    a_full_window_is_waited_out_or_the_peer_dropped(Topology::Frontend);
}
