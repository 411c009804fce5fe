//! The client side: a blocking [`Client`] speaking the wire protocol
//! (with explicit pipelining support) and a [`LoadClient`] that drives N
//! concurrent connections and reports QPS and latency percentiles.

use geodabs_index::{SearchOptions, SearchResult};
use geodabs_traj::{TrajId, Trajectory};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::proto::{
    write_frame, FrameReader, MetricsReport, QueryBody, Request, Response, StatsBody, WireError,
};

/// A blocking connection to a `geodabs-serve` server.
///
/// [`Client::request`] is the one-in-one-out convenience;
/// [`Client::send`] / [`Client::recv`] split the two halves so callers
/// can pipeline: enqueue several requests back to back, then collect the
/// responses, which the server returns **in request order**.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
}

impl Client {
    /// Connects (with `TCP_NODELAY`, so small frames are not Nagle-delayed).
    ///
    /// # Errors
    ///
    /// Socket-level connect failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = FrameReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sets the read timeout on the underlying socket — how long
    /// [`Client::recv`] blocks before the peer counts as unreachable
    /// (`None` waits forever). The frontend uses this to bound how
    /// long a dead shard can stall a scatter.
    ///
    /// # Errors
    ///
    /// Socket-level failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request frame without waiting for the response.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on socket failures.
    pub fn send(&mut self, request: &Request) -> Result<(), WireError> {
        write_frame(&mut self.stream, &request.encode())
    }

    /// Receives the next response frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] when the server hung up; any frame or
    /// decode error otherwise.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        match self.reader.read_frame()? {
            Some(payload) => Response::decode(&payload),
            None => Err(WireError::Closed),
        }
    }

    /// Sends a request and waits for its response.
    ///
    /// # Errors
    ///
    /// See [`Client::send`] and [`Client::recv`].
    pub fn request(&mut self, request: &Request) -> Result<Response, WireError> {
        self.send(request)?;
        self.recv()
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] if the server reported one.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Index statistics (the legacy shape — [`StatsBody::durability`]
    /// is always `None`; see [`Client::stats_durable`]).
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] if the server reported one.
    pub fn stats(&mut self) -> Result<StatsBody, WireError> {
        match self.request(&Request::Stats { durability: false })? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Index statistics including the durability fields. Servers that
    /// predate the flag answer the flagged request with an error; this
    /// falls back to the legacy request then, so against an old server
    /// (or a WAL-less new one) the call succeeds with
    /// [`StatsBody::durability`] `= None`.
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] if even the legacy
    /// request failed.
    pub fn stats_durable(&mut self) -> Result<StatsBody, WireError> {
        match self.request(&Request::Stats { durability: true })? {
            Response::Stats(stats) => Ok(stats),
            Response::Error(_) => self.stats(),
            other => Err(unexpected(other)),
        }
    }

    /// Ranked retrieval for one raw trajectory.
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] if the server reported one.
    pub fn query(
        &mut self,
        query: &Trajectory,
        options: &SearchOptions,
    ) -> Result<Vec<SearchResult>, WireError> {
        match self.request(&Request::Query {
            query: QueryBody::Trajectory(query.clone()),
            options: *options,
        })? {
            Response::Hits(hits) => Ok(hits),
            other => Err(unexpected(other)),
        }
    }

    /// Ranked retrieval from pre-computed geodab fingerprints.
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] — e.g. when the backend
    /// cannot score fingerprint queries.
    pub fn query_fingerprints(
        &mut self,
        ordered: &[u32],
        options: &SearchOptions,
    ) -> Result<Vec<SearchResult>, WireError> {
        match self.request(&Request::Query {
            query: QueryBody::Fingerprints(ordered.to_vec()),
            options: *options,
        })? {
            Response::Hits(hits) => Ok(hits),
            other => Err(unexpected(other)),
        }
    }

    /// Several ranked retrievals in one round trip; rankings come back in
    /// query order.
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] if the server reported one.
    pub fn query_batch(
        &mut self,
        queries: &[Trajectory],
        options: &SearchOptions,
    ) -> Result<Vec<Vec<SearchResult>>, WireError> {
        match self.request(&Request::QueryBatch {
            queries: queries
                .iter()
                .map(|t| QueryBody::Trajectory(t.clone()))
                .collect(),
            options: *options,
        })? {
            Response::HitsBatch(batches) => Ok(batches),
            other => Err(unexpected(other)),
        }
    }

    /// Indexes a trajectory; returns the server's post-insert count.
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] if the server reported one.
    pub fn insert(&mut self, id: TrajId, trajectory: &Trajectory) -> Result<u64, WireError> {
        match self.request(&Request::Insert {
            id,
            trajectory: trajectory.clone(),
        })? {
            Response::Inserted { len } => Ok(len),
            other => Err(unexpected(other)),
        }
    }

    /// Removes a trajectory; returns whether the id was indexed.
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] if the server reported one.
    pub fn remove(&mut self, id: TrajId) -> Result<bool, WireError> {
        match self.request(&Request::Remove { id })? {
            Response::Removed { was_present } => Ok(was_present),
            other => Err(unexpected(other)),
        }
    }

    /// A frontend's scatter sub-query against one shard server: the
    /// node's exact top-k heap for the full ordered term sequence.
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] — e.g. against a server
    /// that is not hosting a shard node.
    pub fn shard_query(
        &mut self,
        ordered: &[u32],
        options: &SearchOptions,
    ) -> Result<Vec<SearchResult>, WireError> {
        match self.request(&Request::ShardQuery {
            terms: ordered.to_vec(),
            options: *options,
            trace: 0,
        })? {
            Response::ShardTopK(hits) => Ok(hits),
            other => Err(unexpected(other)),
        }
    }

    /// The server's telemetry snapshot: counters, gauges, histogram
    /// buckets, the slow-query log and the rendered Prometheus text.
    /// Servers that predate the metrics frame answer with an error,
    /// surfaced here as [`WireError::Remote`].
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] against a pre-metrics
    /// server.
    pub fn metrics(&mut self) -> Result<MetricsReport, WireError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(report) => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// A frontend's broadcast insert against one shard server; returns
    /// the node's post-insert replica count.
    ///
    /// # Errors
    ///
    /// Wire errors, or [`WireError::Remote`] — e.g. against a server
    /// that is not hosting a shard node.
    pub fn shard_insert(&mut self, id: TrajId, ordered: &[u32]) -> Result<u64, WireError> {
        match self.request(&Request::ShardInsert {
            id,
            terms: ordered.to_vec(),
        })? {
            Response::Inserted { len } => Ok(len),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(response: Response) -> WireError {
    match response {
        Response::Error(message) => WireError::Remote(message),
        Response::Unavailable { node, message } => WireError::Unavailable { node, message },
        _ => WireError::Corrupt("response type does not match the request"),
    }
}

/// One load point: everything [`LoadClient::run`] measured at a given
/// connection count.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRun {
    /// Concurrent connections driven.
    pub connections: usize,
    /// Requests completed across all connections.
    pub requests: u64,
    /// Responses that differed from the expected in-process ranking
    /// (always 0 unless expectations were installed).
    pub mismatches: u64,
    /// Wall-clock seconds the point ran.
    pub seconds: f64,
    /// Completed requests per second.
    pub qps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
}

/// A closed-loop load generator: N connections, each sending one query
/// at a time round-robin over a prepared query set, for a fixed
/// duration.
///
/// Connection `i` starts at query `i` and steps by `connections`, so the
/// set is covered evenly regardless of per-connection speed. When
/// expectations are installed ([`LoadClient::expect_results`]), every response
/// is compared **bit-identically** against the in-process ranking and
/// divergences are counted per run — the serve smoke test in CI fails on
/// any mismatch.
///
/// # Examples
///
/// ```
/// use geodabs_core::GeodabConfig;
/// use geodabs_geo::Point;
/// use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
/// use geodabs_serve::{LoadClient, Server, ServerConfig};
/// use geodabs_traj::{TrajId, Trajectory};
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let start = Point::new(51.5074, -0.1278)?;
/// let path: Trajectory = (0..40).map(|i| start.destination(90.0, i as f64 * 90.0)).collect();
/// let mut index = GeodabIndex::new(GeodabConfig::default());
/// index.insert(TrajId::new(0), &path);
/// let options = SearchOptions::default().limit(5);
/// let expected = vec![index.search(&path, &options)];
///
/// let running = Server::bind("127.0.0.1:0", index, ServerConfig::default())?.spawn();
/// let load = LoadClient::new(running.addr().to_string(), vec![path], options)
///     .expect_results(expected);
/// let run = load.run(2, Duration::from_millis(200))?;
/// assert!(run.requests > 0);
/// assert_eq!(run.mismatches, 0);
/// running.shutdown()?;
/// # Ok(())
/// # }
/// ```
pub struct LoadClient {
    addr: String,
    queries: Vec<Trajectory>,
    options: SearchOptions,
    expected: Option<Vec<Vec<SearchResult>>>,
}

impl LoadClient {
    /// A load generator for `addr` cycling over `queries` under
    /// `options`.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty.
    pub fn new(addr: String, queries: Vec<Trajectory>, options: SearchOptions) -> LoadClient {
        assert!(!queries.is_empty(), "need at least one query");
        LoadClient {
            addr,
            queries,
            options,
            expected: None,
        }
    }

    /// Installs per-query expected rankings (aligned with the query
    /// list); every response is then compared bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn expect_results(mut self, expected: Vec<Vec<SearchResult>>) -> LoadClient {
        assert_eq!(
            expected.len(),
            self.queries.len(),
            "one expected ranking per query"
        );
        self.expected = Some(expected);
        self
    }

    /// Drives `connections` concurrent connections for `duration` and
    /// aggregates the point.
    ///
    /// # Errors
    ///
    /// The first connection or wire error any connection hit — a load
    /// run with broken connections must fail loudly, not report partial
    /// throughput.
    ///
    /// # Panics
    ///
    /// Panics if `connections` is zero.
    pub fn run(&self, connections: usize, duration: Duration) -> Result<LoadRun, WireError> {
        assert!(connections > 0, "need at least one connection");
        struct ThreadStats {
            latencies_ms: Vec<f64>,
            mismatches: u64,
        }
        let started = Instant::now();
        let deadline = started + duration;
        let results: Vec<Result<ThreadStats, WireError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|conn_index| {
                    scope.spawn(move || {
                        let mut client = Client::connect(&self.addr)?;
                        let mut stats = ThreadStats {
                            latencies_ms: Vec::new(),
                            mismatches: 0,
                        };
                        let mut qi = conn_index % self.queries.len();
                        while Instant::now() < deadline {
                            let begun = Instant::now();
                            let hits = client.query(&self.queries[qi], &self.options)?;
                            stats.latencies_ms.push(begun.elapsed().as_secs_f64() * 1e3);
                            if let Some(expected) = &self.expected {
                                if hits != expected[qi] {
                                    stats.mismatches += 1;
                                }
                            }
                            qi = (qi + connections) % self.queries.len();
                        }
                        Ok(stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let seconds = started.elapsed().as_secs_f64();
        let mut latencies_ms: Vec<f64> = Vec::new();
        let mut mismatches = 0u64;
        for result in results {
            let stats = result?;
            latencies_ms.extend(stats.latencies_ms);
            mismatches += stats.mismatches;
        }
        latencies_ms.sort_by(f64::total_cmp);
        let requests = latencies_ms.len() as u64;
        Ok(LoadRun {
            connections,
            requests,
            mismatches,
            seconds,
            qps: requests as f64 / seconds.max(1e-9),
            p50_ms: percentile(&latencies_ms, 50.0),
            p95_ms: percentile(&latencies_ms, 95.0),
            p99_ms: percentile(&latencies_ms, 99.0),
        })
    }
}

/// Nearest-rank percentile of an **already sorted** sample (`0.0` for an
/// empty one) — the one percentile definition shared by the load client
/// and the bench harness, so latency numbers stay comparable across
/// both.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 95.0), 95.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn empty_query_set_panics() {
        let _ = LoadClient::new("127.0.0.1:1".into(), vec![], SearchOptions::default());
    }

    /// End-to-end pin of the new-client/old-server direction: a mock
    /// pre-durability server rejects the flagged request (its strict
    /// decoder saw trailing bytes) and only understands the bare-tag
    /// one; `stats_durable` must come back `Ok` with no durability.
    #[test]
    fn stats_durable_falls_back_against_an_old_server() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(stream.try_clone().unwrap());
            for _ in 0..2 {
                let payload = reader.read_frame().unwrap().unwrap();
                // Frozen old behavior: request tag 2 alone is Stats;
                // anything longer failed the trailing-bytes check.
                let reply: Vec<u8> = if payload == [2u8] {
                    let mut out = vec![2u8];
                    out.extend_from_slice(&6u32.to_le_bytes());
                    out.extend_from_slice(b"geodab");
                    out.extend_from_slice(&10u64.to_le_bytes());
                    out.extend_from_slice(&20u64.to_le_bytes());
                    out.extend_from_slice(&4u64.to_le_bytes());
                    out
                } else {
                    Response::Error("bad request: corrupt wire data".into()).encode()
                };
                write_frame(&mut &stream, &reply).unwrap();
            }
        });
        let mut client = Client::connect(addr).unwrap();
        let stats = client.stats_durable().unwrap();
        assert_eq!(stats.backend, "geodab");
        assert_eq!(stats.trajectories, 10);
        assert_eq!(stats.durability, None);
        server.join().unwrap();
    }

    /// New-client/old-server direction for the metrics frame: a server
    /// that predates tag 9 answers it with an error, which surfaces as
    /// [`WireError::Remote`] rather than a corrupt-wire failure.
    #[test]
    fn metrics_surfaces_a_remote_error_against_an_old_server() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(stream.try_clone().unwrap());
            let payload = reader.read_frame().unwrap().unwrap();
            // Frozen old behavior: tag 9 was unknown.
            assert_eq!(payload, [9u8]);
            let reply = Response::Error("bad request: unknown request tag".into()).encode();
            write_frame(&mut &stream, &reply).unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        match client.metrics() {
            Err(WireError::Remote(message)) => assert!(message.contains("unknown request tag")),
            other => panic!("expected a remote error, got {other:?}"),
        }
        server.join().unwrap();
    }
}
