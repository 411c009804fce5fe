//! The scatter/gather frontend: the coordinator of a distributed
//! deployment, routing queries and mutations to remote shard servers.
//!
//! # Topology
//!
//! A frontend owns the [`ShardRouter`] and the [`Fingerprinter`]; each
//! shard server is a plain `Server<ShardNode>` hosting one node's slice
//! of the index (routed-subset postings plus full fingerprint
//! replicas). A query is fingerprinted once at the frontend, the
//! router names the nodes its terms touch, and a `ShardQuery` carrying
//! the **full** ordered term sequence is pipelined to each of them;
//! every node answers its exact local top-k heap (`ShardTopK`). Route,
//! legs and merge are [`scatter_gather`] — the one fan-out the
//! in-process [`ClusterIndex`](geodabs_cluster::ClusterIndex) runs too
//! (also inside a [`ShardedIndex`](crate::ShardedIndex)), here
//! with sockets for legs — so the distributed ranking is
//! **bit-identical** to the monolithic one by construction.
//!
//! # One server, a second hosting
//!
//! A frontend is not a second server implementation: it is the crate's
//! one bind/run/spawn shell and one request executor (see the
//! [`Server`](crate::Server) module docs) over a second *host* — the
//! remote shard set defined here, next to the locked backend (which a
//! [`ShardedIndex`](crate::ShardedIndex) also is, over a cluster).
//! `bind(...)` → [`Frontend::run`] /
//! [`Frontend::spawn`] → [`RunningServer`](crate::RunningServer),
//! controlled through the same [`ServerHandle`](crate::ServerHandle);
//! client connections are served by the same multiplexer — a fixed pool
//! of [`FrontendConfig::mux_workers`] workers sweeping many non-blocking
//! connections each — and every worker owns, as its per-worker host
//! state, one lazy private connection per shard server.
//!
//! # Mutations
//!
//! `Insert` is fingerprinted once and **broadcast** to every node as a
//! `ShardInsert`: each node keeps the routed subset (replace-on-
//! reinsert scrubs stale replicas on nodes the new shape no longer
//! touches). `Remove` broadcasts too — any node might hold the id. The
//! frontend tracks the indexed id set so `Removed { was_present }` and
//! `Inserted { len }` match the monolithic answers; queries hold that
//! set's read lock across the scatter, mutations hold the write lock
//! across the broadcast, so pipelined clients observe the same
//! read-your-writes ordering a single-process server gives them.
//!
//! # Degraded mode
//!
//! Results are exact or refused — never silently partial. When a shard
//! cannot be reached (connect, send, or receive failure) the frontend
//! reconnects and retries once (a shard silent for five seconds counts
//! as unreachable); if the node still cannot answer, the whole request
//! is answered with the typed [`Response::Unavailable`] naming the dead
//! node. The failed connection is dropped from the pool, so the next
//! request redials — a shard coming back is picked up without
//! restarting the frontend.
//! A mutation refused this way may have been applied by a subset of
//! the nodes; re-issuing it (the op is idempotent) converges the
//! cluster once the node is back.

use geodabs_cluster::{scatter_gather, ShardRouter};
use geodabs_core::{Fingerprinter, Fingerprints};
use geodabs_index::batch::default_threads;
use geodabs_index::{SearchOptions, SearchResult};
use geodabs_obs::TraceId;
use geodabs_traj::TrajId;
use geodabs_wal::WalOp;
use std::collections::BTreeSet;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::RwLock;
use std::time::Duration;

use crate::client::Client;
use crate::metrics::ServeMetrics;
use crate::proto::{QueryBody, Request, Response, WireError};
use crate::server::{Bound, Host, Refusal, RunningServer, ServerConfigError, ServerHandle, Span};

/// Reconnect-and-retry attempts per shard per request before the
/// request is refused as [`Response::Unavailable`].
const SHARD_RETRIES: u32 = 1;

/// Read timeout on shard connections: a shard silent for this long
/// counts as unreachable.
const SHARD_TIMEOUT: Duration = Duration::from_secs(5);

/// Frontend tuning knobs; build with [`FrontendConfig::builder`].
///
/// ```
/// use geodabs_serve::FrontendConfig;
///
/// # fn main() -> Result<(), geodabs_serve::ServerConfigError> {
/// let config = FrontendConfig::builder().mux_workers(2).build()?;
/// assert_eq!(config.mux_workers(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    mux_workers: usize,
}

impl FrontendConfig {
    /// A builder starting from the defaults (one mux worker per core).
    pub fn builder() -> FrontendConfigBuilder {
        FrontendConfigBuilder::default()
    }

    /// Worker threads in the client-connection multiplexer. Each worker
    /// sweeps many connections (and owns one private connection per
    /// shard server), so this sizes parallelism, not the concurrent-
    /// connection capacity.
    pub fn mux_workers(&self) -> usize {
        self.mux_workers
    }
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            mux_workers: default_threads(),
        }
    }
}

/// Chainable builder for [`FrontendConfig`], mirroring
/// [`ServerConfig::builder`](crate::ServerConfig::builder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfigBuilder {
    mux_workers: usize,
}

impl Default for FrontendConfigBuilder {
    fn default() -> FrontendConfigBuilder {
        FrontendConfigBuilder {
            mux_workers: FrontendConfig::default().mux_workers,
        }
    }
}

impl FrontendConfigBuilder {
    /// Sets the multiplexer worker count (see
    /// [`FrontendConfig::mux_workers`]).
    pub fn mux_workers(mut self, mux_workers: usize) -> FrontendConfigBuilder {
        self.mux_workers = mux_workers;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// [`ServerConfigError::ZeroMuxWorkers`] when the worker count is
    /// zero.
    pub fn build(self) -> Result<FrontendConfig, ServerConfigError> {
        if self.mux_workers == 0 {
            return Err(ServerConfigError::ZeroMuxWorkers);
        }
        Ok(FrontendConfig {
            mux_workers: self.mux_workers,
        })
    }
}

/// The remote hosting: the index lives on shard servers; the frontend
/// keeps only what routes to them and the acknowledged id set.
struct RemoteShards {
    fingerprinter: Fingerprinter,
    router: ShardRouter,
    shard_addrs: Vec<String>,
    /// Ids acknowledged by the cluster, so `Inserted { len }` /
    /// `Removed { was_present }` answer exactly like a monolithic
    /// server. Queries hold the read lock across their scatter,
    /// mutations the write lock across their broadcast.
    indexed: RwLock<BTreeSet<TrajId>>,
}

/// A frontend bound to its socket but not yet serving; call
/// [`Frontend::run`] (blocking) or [`Frontend::spawn`] (background
/// thread). The module-level docs sketch the topology.
pub struct Frontend(Bound<RemoteShards>);

impl Frontend {
    /// Binds to `addr`, coordinating the shard servers at
    /// `shard_addrs` (index `i` hosts the router's node `i`).
    /// Connections to the shards are opened lazily, per worker, on
    /// first use — the shards need not be up yet.
    ///
    /// # Errors
    ///
    /// Any socket-level failure binding the listener.
    ///
    /// # Panics
    ///
    /// Panics unless `shard_addrs` has exactly `router.num_nodes()`
    /// entries — the address list *is* the node list.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        fingerprinter: Fingerprinter,
        router: ShardRouter,
        shard_addrs: Vec<String>,
        config: FrontendConfig,
    ) -> std::io::Result<Frontend> {
        assert_eq!(
            shard_addrs.len(),
            router.num_nodes(),
            "one shard server address per router node"
        );
        let shards = RemoteShards {
            fingerprinter,
            router,
            shard_addrs,
            indexed: RwLock::new(BTreeSet::new()),
        };
        Bound::bind(addr, config.mux_workers(), shards).map(Frontend)
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// A remote-control handle usable from any thread — the same
    /// [`ServerHandle`] a single-process server hands out.
    pub fn handle(&self) -> ServerHandle {
        self.0.handle()
    }

    /// Serves until [`ServerHandle::shutdown`]; returns the number of
    /// requests served. Client connections run through the same
    /// multiplexer and executor as the single-process server; each
    /// worker additionally owns one lazy connection per shard server.
    ///
    /// # Errors
    ///
    /// Fatal listener errors; per-connection errors only drop that
    /// connection.
    pub fn run(self) -> std::io::Result<u64> {
        self.0.run()
    }

    /// Moves the frontend onto a background thread and returns its
    /// controls — a [`RunningServer`], just like [`crate::Server::spawn`].
    pub fn spawn(self) -> RunningServer {
        RunningServer::spawn(self.handle(), move || self.run())
    }
}

/// One worker's private connections to the shard servers, opened
/// lazily and dropped on failure (the next use redials — that is the
/// recovery path after a shard restart).
struct ShardPool<'a> {
    remote: &'a RemoteShards,
    metrics: &'a ServeMetrics,
    clients: Vec<Option<Client>>,
    /// Nodes that rejected a trace-carrying `ShardQuery` (a pre-trace
    /// server build): once latched, this worker sends them the legacy
    /// frame shape instead of failing every traced query.
    legacy_trace: Vec<bool>,
}

impl ShardPool<'_> {
    /// The live connection to `node`, dialing if needed.
    fn client(&mut self, node: usize) -> Result<&mut Client, WireError> {
        if self.clients[node].is_none() {
            let client =
                Client::connect(self.remote.shard_addrs[node].as_str()).map_err(WireError::Io)?;
            client
                .set_read_timeout(Some(SHARD_TIMEOUT))
                .map_err(WireError::Io)?;
            self.clients[node] = Some(client);
        }
        Ok(self.clients[node].as_mut().expect("just connected"))
    }

    /// One request/response against `node`, reconnecting and retrying
    /// on connection-level failure up to [`SHARD_RETRIES`] times. A
    /// *remote* error (the shard answered, but refused) is returned
    /// as-is — retrying cannot change a typed refusal.
    fn exchange(&mut self, node: usize, request: &Request) -> Result<Response, WireError> {
        let mut last: Option<WireError> = None;
        for _ in 0..=SHARD_RETRIES {
            match self.try_exchange(node, request) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    self.clients[node] = None;
                    last = Some(e);
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    fn try_exchange(&mut self, node: usize, request: &Request) -> Result<Response, WireError> {
        let client = self.client(node)?;
        client.send(request)?;
        client.recv()
    }

    /// Scatter one request to every node in `nodes` (pipelined sends,
    /// then in-order receives) and gather the responses. Nodes whose
    /// pipelined leg failed are retried individually; a node that
    /// still cannot answer fails the whole scatter with the typed
    /// degraded response.
    ///
    /// `legacy` is the trace-less shape of `request`, when it has one:
    /// nodes latched as pre-trace builds receive it instead, and a node
    /// that rejects the traced frame as malformed is retried with it
    /// (and latched on success) — so a mixed-version cluster degrades
    /// to untraced queries instead of failing.
    fn scatter(
        &mut self,
        nodes: &[usize],
        request: &Request,
        legacy: Option<&Request>,
    ) -> Result<Vec<Response>, Refusal> {
        let metrics = self.metrics;
        let started = metrics.now();
        let mut sent = vec![false; nodes.len()];
        for (slot, &node) in nodes.iter().enumerate() {
            let outgoing = match legacy {
                Some(legacy) if self.legacy_trace[node] => legacy,
                _ => request,
            };
            sent[slot] = match self.client(node) {
                Ok(client) => client.send(outgoing).is_ok(),
                Err(_) => false,
            };
        }
        let mut responses = Vec::with_capacity(nodes.len());
        for (slot, &node) in nodes.iter().enumerate() {
            let outgoing = match legacy {
                Some(legacy) if self.legacy_trace[node] => legacy,
                _ => request,
            };
            let first = if sent[slot] {
                match self.clients[node].as_mut().expect("sent on it").recv() {
                    Ok(response) => Some(response),
                    Err(_) => {
                        self.clients[node] = None;
                        None
                    }
                }
            } else {
                self.clients[node] = None;
                None
            };
            let mut response = match first {
                Some(response) => response,
                // The pipelined leg failed: fall back to the serial
                // reconnect-and-retry path for this node alone.
                None => self
                    .exchange(node, outgoing)
                    .map_err(|e| unavailable(node, e))?,
            };
            // A pre-trace build cannot decode the trace tail and
            // answers "bad request": resend the legacy shape once and
            // remember the node's vintage.
            if let (Some(legacy), Response::Error(message)) = (legacy, &response) {
                if !self.legacy_trace[node] && message.starts_with("bad request") {
                    response = self
                        .exchange(node, legacy)
                        .map_err(|e| unavailable(node, e))?;
                    self.legacy_trace[node] = true;
                }
            }
            if let Some(started) = started {
                // Time-to-answer per scatter leg, measured from the
                // scatter's start: leg i includes draining legs < i,
                // which is exactly the tail the merge waits on.
                metrics
                    .scatter_shard_us
                    .record(started.elapsed().as_micros() as u64);
            }
            responses.push(response);
        }
        metrics.scatter_fanout.record(nodes.len() as u64);
        Ok(responses)
    }

    /// Broadcast one mutation to **all** nodes; every node must ack.
    /// The caller holds the indexed set's write lock.
    fn broadcast(&mut self, request: &Request) -> Result<(), Refusal> {
        let nodes: Vec<usize> = (0..self.remote.shard_addrs.len()).collect();
        let responses = self.scatter(&nodes, request, None)?;
        for (response, node) in responses.into_iter().zip(nodes) {
            match response {
                Response::Inserted { .. } | Response::Removed { .. } => {}
                other => return Err(unexpected(node, other)),
            }
        }
        Ok(())
    }
}

/// Maps a failed scatter leg to the typed degraded response.
fn unavailable(node: usize, error: WireError) -> Refusal {
    Refusal::Answer(match error {
        // The shard answered with a typed refusal: forward it verbatim
        // — the node is alive, the request is at fault.
        WireError::Remote(message) => Response::Error(message),
        other => Response::Unavailable {
            node: node as u32,
            message: other.to_string(),
        },
    })
}

/// Maps a shard's answer of the wrong shape: its own typed refusal is
/// forwarded verbatim, anything else means the node cannot be trusted.
fn unexpected(node: usize, response: Response) -> Refusal {
    Refusal::Answer(match response {
        Response::Error(message) => Response::Error(message),
        _ => Response::Unavailable {
            node: node as u32,
            message: "shard answered with the wrong response type".to_string(),
        },
    })
}

/// The refusal for shard frames sent to a frontend.
const NOT_A_SHARD_SERVER: &str =
    "the frontend does not answer shard frames; address them to a shard server";

impl Host for RemoteShards {
    type Worker<'a> = ShardPool<'a>;

    fn worker<'a>(&'a self, metrics: &'a ServeMetrics) -> ShardPool<'a> {
        ShardPool {
            remote: self,
            metrics,
            clients: (0..self.shard_addrs.len()).map(|_| None).collect(),
            legacy_trace: vec![false; self.shard_addrs.len()],
        }
    }

    fn mint_trace(&self) -> u64 {
        TraceId::mint().raw()
    }

    fn stats(&self) -> Result<(&'static str, u64, u64), Refusal> {
        let indexed = self.indexed.read().map_err(|_| Refusal::Poisoned)?;
        Ok((
            "frontend",
            indexed.len() as u64,
            self.shard_addrs.len() as u64,
        ))
    }

    /// One scatter/gather ranked retrieval, tagged with the span's
    /// trace on the wire; the span gains the scatter and merge stages.
    fn search(
        &self,
        pool: &mut ShardPool<'_>,
        query: &QueryBody,
        leg: bool,
        options: &SearchOptions,
        span: &mut Span<'_>,
    ) -> Result<Vec<SearchResult>, Refusal> {
        if leg {
            return Err(Refusal::error(NOT_A_SHARD_SERVER));
        }
        let _indexed = self.indexed.read().map_err(|_| Refusal::Poisoned)?;
        // The frontend fingerprints raw trajectories exactly once;
        // pre-fingerprinted bodies pass through.
        let fp = match query {
            QueryBody::Trajectory(trajectory) => {
                self.fingerprinter.normalize_and_fingerprint(trajectory)
            }
            QueryBody::Fingerprints(ordered) => Fingerprints::from_ordered(ordered.clone()),
        };
        let (metrics, trace) = (span.metrics, span.trace);
        let mut merge_started = None;
        let merged = scatter_gather(&self.router, &fp, options, |_, nodes| {
            // An unfingerprintable query touches no shard at all.
            if nodes.is_empty() {
                return Ok(Vec::new());
            }
            let shard_query = |trace| Request::ShardQuery {
                terms: fp.ordered().to_vec(),
                options: *options,
                trace,
            };
            // The trace-less twin, for nodes running a pre-trace build
            // (see ShardPool::scatter). Built only when a trace is
            // actually carried.
            let legacy = (trace != 0).then(|| shard_query(0));
            let scatter_started = metrics.now();
            let responses = pool.scatter(nodes, &shard_query(trace), legacy.as_ref())?;
            span.stage("scatter", None, scatter_started);
            let mut heaps = Vec::with_capacity(responses.len());
            for (response, &node) in responses.into_iter().zip(nodes) {
                match response {
                    Response::ShardTopK(heap) => heaps.push(heap),
                    other => return Err(unexpected(node, other)),
                }
            }
            merge_started = metrics.now();
            Ok(heaps)
        })?;
        span.stage("merge", Some(&metrics.stage_merge_us), merge_started);
        Ok(merged)
    }

    fn write(
        &self,
        pool: &mut ShardPool<'_>,
        op: WalOp,
        log: impl FnOnce(&WalOp) -> Result<(), String>,
    ) -> Result<Response, Refusal> {
        let mut indexed = self.indexed.write().map_err(|_| Refusal::Poisoned)?;
        if matches!(op, WalOp::InsertFingerprints { .. }) {
            return Err(Refusal::error(NOT_A_SHARD_SERVER));
        }
        log(&op).map_err(Refusal::error)?;
        match op {
            WalOp::Insert { id, trajectory } => {
                let fp = self.fingerprinter.normalize_and_fingerprint(&trajectory);
                if !fp.is_empty() {
                    pool.broadcast(&Request::ShardInsert {
                        id,
                        terms: fp.ordered().to_vec(),
                    })?;
                } else if indexed.contains(&id) {
                    // Replace-on-reinsert with an unindexable shape:
                    // scrub the previous shape from the shards.
                    pool.broadcast(&Request::Remove { id })?;
                }
                indexed.insert(id);
                Ok(Response::Inserted {
                    len: indexed.len() as u64,
                })
            }
            WalOp::Remove { id } => {
                // Absent ids ack false without touching any shard.
                if indexed.contains(&id) {
                    pool.broadcast(&Request::Remove { id })?;
                }
                Ok(Response::Removed {
                    was_present: indexed.remove(&id),
                })
            }
            WalOp::InsertFingerprints { .. } => unreachable!("refused before logging"),
        }
    }

    /// The frontend holds no index of its own: each shard server logs
    /// and compacts its own slice.
    fn snapshot<T>(&self, _seal: impl FnOnce(Vec<u8>) -> T) -> Result<Option<T>, String> {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_core::GeodabConfig;

    #[test]
    fn config_builder_validates_and_defaults() {
        let config = FrontendConfig::default();
        assert_eq!(config.mux_workers(), default_threads());

        let built = FrontendConfig::builder()
            .mux_workers(3)
            .build()
            .expect("valid config");
        assert_eq!(built.mux_workers(), 3);

        assert_eq!(
            FrontendConfig::builder().mux_workers(0).build(),
            Err(ServerConfigError::ZeroMuxWorkers)
        );
    }

    #[test]
    #[should_panic(expected = "one shard server address per router node")]
    fn address_count_must_match_node_count() {
        let router = ShardRouter::new(16, 100, 2).unwrap();
        let _ = Frontend::bind(
            "127.0.0.1:0",
            Fingerprinter::new(GeodabConfig::default()),
            router,
            vec!["127.0.0.1:1".to_string()],
            FrontendConfig::default(),
        );
    }

    /// A mixed-version fleet: the only shard runs a pre-trace build,
    /// whose strict decoder refuses a traced `ShardQuery` as a bad
    /// request and answers the legacy shape. The frontend must resend
    /// the legacy shape within the same query and then keep sending
    /// only that shape to the node.
    #[test]
    fn scatter_falls_back_to_legacy_frames_for_a_pre_trace_shard() {
        use crate::client::Client;
        use crate::proto::{write_frame, FrameReader};

        let hits = vec![SearchResult {
            id: TrajId::new(7),
            distance: 0.25,
        }];
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let shard_addr = listener.local_addr().unwrap().to_string();
        let answer = hits.clone();
        // Records, frame by frame, whether the frontend sent the traced
        // shape, until the frontend hangs up.
        let shard = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let mut reader = FrameReader::new(stream.try_clone().unwrap());
            let mut traced = Vec::new();
            while let Some(payload) = reader.read_frame().unwrap() {
                let Request::ShardQuery { trace, .. } = Request::decode(&payload).unwrap() else {
                    panic!("the frontend sent a shard server something other than a ShardQuery");
                };
                traced.push(trace != 0);
                let reply = match trace {
                    0 => Response::ShardTopK(answer.clone()),
                    _ => Response::Error("bad request: corrupt wire data".into()),
                };
                write_frame(&mut &stream, &reply.encode()).unwrap();
            }
            traced
        });

        let frontend = Frontend::bind(
            "127.0.0.1:0",
            Fingerprinter::new(GeodabConfig::default()),
            ShardRouter::new(16, 100, 1).unwrap(),
            vec![shard_addr],
            FrontendConfig::builder().mux_workers(1).build().unwrap(),
        )
        .expect("bind loopback")
        .spawn();
        let mut client = Client::connect(frontend.addr()).unwrap();
        for _ in 0..3 {
            let answered = client
                .query_fingerprints(&[1, 2, 3], &SearchOptions::default())
                .expect("the legacy resend answers");
            assert_eq!(answered, hits);
        }
        drop(client);
        frontend.shutdown().expect("clean shutdown");

        // One traced attempt, its legacy resend, then legacy frames only.
        assert_eq!(shard.join().unwrap(), [true, false, false, false]);
    }

    #[test]
    fn bind_run_shutdown_without_traffic() {
        let router = ShardRouter::new(16, 100, 1).unwrap();
        let frontend = Frontend::bind(
            "127.0.0.1:0",
            Fingerprinter::new(GeodabConfig::default()),
            router,
            vec!["127.0.0.1:1".to_string()],
            FrontendConfig::builder()
                .mux_workers(2)
                .build()
                .expect("valid config"),
        )
        .expect("bind loopback");
        assert_ne!(frontend.local_addr().port(), 0);
        let running = frontend.spawn();
        let served = running.shutdown().expect("clean shutdown");
        assert_eq!(served, 0);
    }
}
