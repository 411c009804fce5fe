//! The concurrent query server: a connection multiplexer, **one**
//! request executor, and the hosting interface the executor runs over.
//!
//! # Threading model
//!
//! One acceptor (the thread calling [`Server::run`]) hands accepted
//! connections — switched to non-blocking mode — to a fixed pool of
//! [`ServerConfig::mux_workers`] multiplexing workers, round-robin.
//! Each worker *sweeps* many connections per iteration instead of
//! owning one for its lifetime, so thousands of mostly-idle connections
//! share a pool sized to the cores and clients may still pipeline
//! requests freely (frames on one connection are answered in order).
//! A worker with nothing to answer spins briefly and then parks in
//! `poll(2)` over its sockets (see `mux.rs`); nothing in a server waits
//! on a timer tick.
//!
//! # One executor, two hostings
//!
//! Every request — on a [`Server`] and on a [`crate::Frontend`] alike —
//! runs through the private `execute` function. It owns the request
//! vocabulary: trace and slow-query stamping, ranking the one query
//! body of a `Query` or `ShardQuery` frame, building the [`WalOp`] a
//! mutation is logged and applied from, poison → shutdown, and
//! compaction. What differs between deployments is only *where the
//! index lives*, behind the private
//! `Host` trait (reads on `&self`, one serialized write section, one
//! freeze-and-snapshot, optional per-mux-worker state):
//!
//! | hosting | read path | write section | snapshot | after a write panic |
//! |---|---|---|---|---|
//! | locked (`RwLock<B>`; with `shards > 1` a [`ShardedIndex`], `B` = [`ClusterIndex`]) | shared read lock across the backend's search (the cluster's fan-out and merge) | exclusive write lock: refuse, log, apply | under the shared lock (readers run, writers wait); a sharded server writes a cluster snapshot | lock poisoned: reads and writes refuse |
//! | remote shards (the frontend) | id-set read lock across a pipelined scatter, merge | id-set write lock across the broadcast | none (each shard server keeps its own log) | id set poisoned: reads and writes refuse |
//!
//! Both rank through [`geodabs_cluster::scatter_gather`] or the backend
//! itself, so answers are bit-identical across hostings, and both hold
//! one lock across a query's fan-out, so every answer ranks one prefix
//! of the acknowledged writes. The locked host checks and applies a
//! logged op through the same pair [`crate::recover`] replays the log
//! with, so a rebooted server holds exactly what the live one
//! acknowledged.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] flips a shared flag and pokes the
//! listener so the accept loop wakes up; on its way out the acceptor
//! wakes every parked worker, workers check the flag between sweeps and
//! drain, and the compactor is unparked. If a request handler panics
//! inside a write section the host is poisoned: the first request that
//! observes it is answered with an error frame and the server initiates
//! the same clean shutdown rather than serving from possibly
//! half-mutated state.

use geodabs_cluster::{ClusterIndex, ShardNode};
use geodabs_core::Fingerprints;
use geodabs_index::batch::default_threads;
use geodabs_index::store::{self, Persist};
use geodabs_index::{GeodabIndex, SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_obs::Histogram;
use geodabs_wal::{Wal, WalOp};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::metrics::{kind_index, ServeMetrics, KINDS};
use crate::mux;
use crate::proto::{DurabilityStats, QueryBody, Request, Response, StatsBody};
use crate::recover;
use crate::shards::{cluster_scaffold, ShardedIndex};

/// File name of the compacted snapshot inside a WAL directory: boot
/// loads it (when present) and replays only the log suffix beyond its
/// watermark; the compaction thread atomically replaces it.
pub const WAL_SNAPSHOT_FILE: &str = "snapshot.gdab";

/// What the server needs from an index beyond [`TrajectoryIndex`] and
/// [`Persist`] (whose snapshot the durability compaction path writes):
/// every backend the workspace ships (and any future one) answers the
/// full request vocabulary through the three traits together.
pub trait ServeBackend: TrajectoryIndex + Persist + Send + Sync + 'static {
    /// The backend's stable name, reported by `Stats`.
    fn backend_name(&self) -> &'static str;

    /// Distinct terms (active shards for the cluster backend).
    fn term_count(&self) -> usize;

    /// Ranked retrieval from pre-computed geodab fingerprints.
    fn search_fingerprints(&self, fp: &Fingerprints, options: &SearchOptions) -> Vec<SearchResult>;

    /// Consumes the backend and re-partitions its corpus into an
    /// in-process [`ShardedIndex`] — a [`ClusterIndex`] of `shards`
    /// nodes behind one lock — the conversion [`Server::bind`] performs
    /// when [`ServerConfig::shards`] exceeds one. The default refuses, for
    /// backends whose state is already a single node's slice.
    ///
    /// # Errors
    ///
    /// A message naming why this backend cannot shard in process.
    fn into_shards(self, shards: usize) -> Result<ShardedIndex, String>
    where
        Self: Sized,
    {
        let _ = shards;
        Err(format!(
            "the {} backend cannot be partitioned into in-process shards",
            self.backend_name()
        ))
    }

    /// The shard node this backend is, if it is one. Only a shard node
    /// answers a frontend's scatter frames (`ShardQuery` scores the
    /// node-local slice, `ShardInsert` keeps the routed subset of a
    /// broadcast insert); on the default `None` they are refused, so
    /// pointing a frontend at a monolithic server is a typed error, not
    /// silently-partial ranking.
    fn as_shard(&self) -> Option<&ShardNode> {
        None
    }

    /// Mutable twin of [`ServeBackend::as_shard`].
    fn as_shard_mut(&mut self) -> Option<&mut ShardNode> {
        None
    }
}

/// The refusal for shard frames sent to a non-shard server.
pub(crate) const NOT_A_SHARD_NODE: &str =
    "this backend is not a shard node; start the server with --shard-id";

impl ServeBackend for GeodabIndex {
    fn backend_name(&self) -> &'static str {
        "geodab"
    }

    fn term_count(&self) -> usize {
        GeodabIndex::term_count(self)
    }

    fn search_fingerprints(&self, fp: &Fingerprints, options: &SearchOptions) -> Vec<SearchResult> {
        GeodabIndex::search_fingerprints(self, fp, options)
    }

    fn into_shards(self, shards: usize) -> Result<ShardedIndex, String> {
        let cluster = cluster_scaffold(*self.config(), shards, self.iter_fingerprints())?;
        Ok(ShardedIndex::from_cluster(cluster))
    }
}

impl ServeBackend for ClusterIndex {
    fn backend_name(&self) -> &'static str {
        "cluster"
    }

    fn term_count(&self) -> usize {
        self.active_shards()
    }

    fn search_fingerprints(&self, fp: &Fingerprints, options: &SearchOptions) -> Vec<SearchResult> {
        ClusterIndex::search_fingerprints(self, fp, options)
    }

    fn into_shards(mut self, shards: usize) -> Result<ShardedIndex, String> {
        // Keep the logical shard grid, respread it over `shards` nodes.
        self.resize(shards).map_err(|e| e.to_string())?;
        Ok(ShardedIndex::from_cluster(self))
    }
}

impl ServeBackend for ShardNode {
    fn backend_name(&self) -> &'static str {
        "node"
    }

    fn term_count(&self) -> usize {
        ShardNode::term_count(self)
    }

    fn search_fingerprints(&self, fp: &Fingerprints, options: &SearchOptions) -> Vec<SearchResult> {
        ShardNode::search_fingerprints(self, fp, options)
    }

    fn as_shard(&self) -> Option<&ShardNode> {
        Some(self)
    }

    fn as_shard_mut(&mut self) -> Option<&mut ShardNode> {
        Some(self)
    }
}

/// Server tuning knobs; build with [`ServerConfig::builder`].
///
/// ```
/// use geodabs_serve::ServerConfig;
///
/// # fn main() -> Result<(), geodabs_serve::ServerConfigError> {
/// let config = ServerConfig::builder().shards(4).mux_workers(2).build()?;
/// assert_eq!(config.shards(), 4);
/// assert_eq!(config.mux_workers(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    shards: usize,
    mux_workers: usize,
}

impl ServerConfig {
    /// A builder starting from the defaults (one shard, one mux worker
    /// per core).
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::default()
    }

    /// In-process shard nodes hosting the index. `1` keeps the backend
    /// as it is behind a read-write lock; more re-partitions it into a
    /// [`ShardedIndex`]: a [`ClusterIndex`] of that many nodes behind
    /// the same lock, so a query fans out over the nodes it touches.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Worker threads in the connection multiplexer. Each worker sweeps
    /// many connections, so this sizes parallelism, not the concurrent-
    /// connection capacity.
    pub fn mux_workers(&self) -> usize {
        self.mux_workers
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 1,
            mux_workers: default_threads(),
        }
    }
}

/// Chainable builder for [`ServerConfig`], mirroring
/// [`geodabs_core::GeodabConfig::builder`]. All validation happens in
/// [`ServerConfigBuilder::build`], so setters combine in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfigBuilder {
    shards: usize,
    mux_workers: usize,
}

impl Default for ServerConfigBuilder {
    fn default() -> ServerConfigBuilder {
        let defaults = ServerConfig::default();
        ServerConfigBuilder {
            shards: defaults.shards,
            mux_workers: defaults.mux_workers,
        }
    }
}

impl ServerConfigBuilder {
    /// Sets the in-process shard node count (see
    /// [`ServerConfig::shards`]).
    pub fn shards(mut self, shards: usize) -> ServerConfigBuilder {
        self.shards = shards;
        self
    }

    /// Sets the multiplexer worker count (see
    /// [`ServerConfig::mux_workers`]).
    pub fn mux_workers(mut self, mux_workers: usize) -> ServerConfigBuilder {
        self.mux_workers = mux_workers;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// [`ServerConfigError`] when either knob is zero.
    pub fn build(self) -> Result<ServerConfig, ServerConfigError> {
        if self.shards == 0 {
            return Err(ServerConfigError::ZeroShards);
        }
        if self.mux_workers == 0 {
            return Err(ServerConfigError::ZeroMuxWorkers);
        }
        Ok(ServerConfig {
            shards: self.shards,
            mux_workers: self.mux_workers,
        })
    }
}

/// Why a serving configuration failed to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerConfigError {
    /// `shards` was zero; the index needs at least one node.
    ZeroShards,
    /// `mux_workers` was zero; nothing would ever answer a frame.
    ZeroMuxWorkers,
}

impl std::fmt::Display for ServerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerConfigError::ZeroShards => write!(f, "shards must be at least 1"),
            ServerConfigError::ZeroMuxWorkers => write!(f, "mux_workers must be at least 1"),
        }
    }
}

impl std::error::Error for ServerConfigError {}

/// Durability state for a serving process: the open write-ahead log
/// plus the lock-free counters `Stats` reports from read paths.
struct Durability {
    wal: Mutex<Wal>,
    /// Where compaction lands its snapshot (inside the WAL directory).
    snapshot_path: PathBuf,
    /// How often the compaction thread folds the log; `None` disables
    /// the thread (the log only ever grows until a restart).
    compact_every: Option<Duration>,
    last_durable: AtomicU64,
    wal_bytes: AtomicU64,
    watermark: AtomicU64,
}

impl Durability {
    fn new(wal: Wal, snapshot_watermark: u64, compact_every: Option<Duration>) -> Durability {
        Durability {
            snapshot_path: wal.dir().join(WAL_SNAPSHOT_FILE),
            compact_every,
            last_durable: AtomicU64::new(wal.last_durable_seq()),
            wal_bytes: AtomicU64::new(wal.size_bytes()),
            watermark: AtomicU64::new(snapshot_watermark),
            wal: Mutex::new(wal),
        }
    }

    fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            last_durable_seq: self.last_durable.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            snapshot_watermark: self.watermark.load(Ordering::Relaxed),
        }
    }
}

/// Why a host could not answer.
pub(crate) enum Refusal {
    /// A panic inside a write section left the host's state unknown:
    /// the executor answers with an error and shuts the server down.
    Poisoned,
    /// A typed answer to forward verbatim: a frame this host does not
    /// serve, a failed log append, an unreachable shard.
    Answer(Response),
}

impl Refusal {
    pub(crate) fn error(message: impl Into<String>) -> Refusal {
        Refusal::Answer(Response::Error(message.into()))
    }
}

/// One query-shaped request's trace: the id its scatter frames carry
/// and the stage timings its slow-query entry shows.
pub(crate) struct Span<'a> {
    pub(crate) metrics: &'a ServeMetrics,
    /// The request's [`KINDS`] label.
    kind: &'static str,
    pub(crate) trace: u64,
    stages: Vec<(&'static str, u64)>,
}

impl Span<'_> {
    /// Closes the stage opened at `started` (a [`ServeMetrics::now`]
    /// reading; `None` when metrics are off): one `histogram` sample,
    /// and one `name` row of the elapsed µs in the trace.
    pub(crate) fn stage(
        &mut self,
        name: &'static str,
        histogram: Option<&Histogram>,
        started: Option<Instant>,
    ) {
        let Some(started) = started else { return };
        let us = started.elapsed().as_micros() as u64;
        if let Some(histogram) = histogram {
            histogram.record(us);
        }
        self.stages.push((name, us));
    }
}

/// Where the index lives, as the one executor sees it; the module docs
/// tabulate the implementations.
pub(crate) trait Host: Send + Sync {
    /// State each mux worker owns privately (a frontend worker's
    /// connections to the shard servers).
    type Worker<'a>
    where
        Self: 'a;

    /// Builds one mux worker's state, once, on that worker's thread.
    fn worker<'a>(&'a self, metrics: &'a ServeMetrics) -> Self::Worker<'a>;

    /// The trace id stamped on a query that arrived without one. Only a
    /// frontend mints ids (its scatter frames carry them to the shard
    /// servers); a server inherits the id on the wire.
    fn mint_trace(&self) -> u64 {
        0
    }

    /// `Stats`: backend name, indexed trajectories, distinct terms.
    fn stats(&self) -> Result<(&'static str, u64, u64), Refusal>;

    /// The read path: one ranked retrieval, recording its stages into
    /// `span`. `leg` marks a frontend's scatter sub-query, which only a
    /// shard node answers.
    fn search(
        &self,
        worker: &mut Self::Worker<'_>,
        query: QueryBody,
        leg: bool,
        options: &SearchOptions,
        span: &mut Span<'_>,
    ) -> Result<Vec<SearchResult>, Refusal>;

    /// The one serialized write section: take the host's write
    /// exclusion, refuse an `op` this host cannot apply, run `log` (the
    /// write-ahead append), then apply `op` and answer it. `log` runs
    /// inside the exclusion and before the apply, so log order equals
    /// apply order and a mutation is either logged-then-applied or
    /// refused whole.
    fn write(
        &self,
        worker: &mut Self::Worker<'_>,
        op: WalOp,
        log: impl FnOnce(&WalOp) -> Result<(), String>,
    ) -> Result<Response, Refusal>;

    /// Freezes writes (never reads), serializes the index into `GDAB`
    /// snapshot bytes and hands them to `seal` **before** unfreezing, so
    /// whatever `seal` records (the log rotation) covers exactly the
    /// serialized state. `Ok(None)` when the host has nothing to
    /// snapshot.
    ///
    /// # Errors
    ///
    /// A message when the host is poisoned.
    fn snapshot<T>(&self, seal: impl FnOnce(Vec<u8>) -> T) -> Result<Option<T>, String>;
}

/// The locked hosting: the backend in one read-write lock.
impl<B: ServeBackend> Host for RwLock<B> {
    type Worker<'a> = ();

    fn worker<'a>(&'a self, _metrics: &'a ServeMetrics) {}

    fn stats(&self) -> Result<(&'static str, u64, u64), Refusal> {
        let index = self.read().map_err(|_| Refusal::Poisoned)?;
        Ok((
            index.backend_name(),
            index.len() as u64,
            index.term_count() as u64,
        ))
    }

    fn search(
        &self,
        _worker: &mut (),
        query: QueryBody,
        leg: bool,
        options: &SearchOptions,
        span: &mut Span<'_>,
    ) -> Result<Vec<SearchResult>, Refusal> {
        let metrics = span.metrics;
        let lock_started = metrics.now();
        let index = self.read().map_err(|_| Refusal::Poisoned)?;
        span.stage("lock", Some(&metrics.stage_lock_us), lock_started);
        let engine_started = metrics.now();
        let result = match query {
            _ if leg && index.as_shard().is_none() => Err(NOT_A_SHARD_NODE),
            QueryBody::Trajectory(trajectory) => Ok(index.search(&trajectory, options)),
            QueryBody::Fingerprints(ordered) => {
                let fp = Fingerprints::from_ordered(ordered);
                Ok(index.search_fingerprints(&fp, options))
            }
        };
        span.stage("engine", Some(&metrics.stage_engine_us), engine_started);
        result.map_err(Refusal::error)
    }

    fn write(
        &self,
        _worker: &mut (),
        op: WalOp,
        log: impl FnOnce(&WalOp) -> Result<(), String>,
    ) -> Result<Response, Refusal> {
        let mut index = self.write().map_err(|_| Refusal::Poisoned)?;
        // The same check-then-apply pair recovery replays the log with,
        // so a refused op never lands in the log unapplied.
        recover::check(&*index, &op).map_err(Refusal::error)?;
        log(&op).map_err(Refusal::error)?;
        Ok(recover::apply(&mut *index, op))
    }

    fn snapshot<T>(&self, seal: impl FnOnce(Vec<u8>) -> T) -> Result<Option<T>, String> {
        // The shared lock: writers (and their log appends) wait for the
        // serialization, readers do not.
        let index = self.read().map_err(|_| POISONED.to_string())?;
        Ok(Some(seal(index.to_snapshot())))
    }
}

/// What every hosting's serve loop shares: the bound address, the mux
/// size, the shutdown flag, the request counter, optional durability
/// and the instrument panel.
struct Core {
    addr: SocketAddr,
    /// Mux worker count, reported via `Stats` so load generators can
    /// report saturation (connections per worker).
    workers: usize,
    shutdown: Arc<AtomicBool>,
    requests: AtomicU64,
    durability: Option<Durability>,
    metrics: ServeMetrics,
}

/// Best-effort poke so a blocked `accept()` observes the shutdown flag.
/// A wildcard bind address (`0.0.0.0` / `::`) is not connectable on
/// every platform, so the poke targets loopback at the bound port.
fn wake_listener(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_millis(200));
}

/// Remote control for a bound server **or frontend**: carries the
/// address and the shutdown flag, independent of what serves behind
/// them.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a clean shutdown: stop accepting, let workers drain.
    /// Idempotent; returns once the flag is set (the accept loop exits on
    /// its next wake-up).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake_listener(self.addr);
    }
}

/// A listener bound to a host but not yet serving — the one lifecycle
/// shell behind both [`Server`] and [`crate::Frontend`].
pub(crate) struct Bound<H> {
    listener: TcpListener,
    core: Core,
    host: H,
}

impl<H> Bound<H> {
    /// Binds `addr` for `host` with a fresh instrument panel.
    pub(crate) fn bind<A: ToSocketAddrs>(
        addr: A,
        mux_workers: usize,
        host: H,
    ) -> std::io::Result<Bound<H>> {
        let listener = TcpListener::bind(addr)?;
        let metrics = ServeMetrics::from_env();
        let core = Core {
            addr: listener.local_addr()?,
            workers: mux_workers.max(1),
            shutdown: Arc::new(AtomicBool::new(false)),
            requests: AtomicU64::new(0),
            durability: None,
            metrics,
        };
        Ok(Bound {
            listener,
            core,
            host,
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.core.addr
    }

    pub(crate) fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.core.addr,
            shutdown: Arc::clone(&self.core.shutdown),
        }
    }
}

impl<H: Host> Bound<H> {
    /// Serves until the shutdown flag flips (this thread is the
    /// acceptor); returns the number of requests served.
    pub(crate) fn run(self) -> std::io::Result<u64> {
        let (this, core) = (&self, &self.core);
        let mut served: std::io::Result<()> = Ok(());
        std::thread::scope(|scope| {
            let compactor = core
                .durability
                .as_ref()
                .and_then(|d| d.compact_every)
                .map(|every| scope.spawn(move || this.compaction_loop(every)));
            served = mux::serve_connections(
                &this.listener,
                core.workers,
                &core.shutdown,
                &core.requests,
                &core.metrics,
                || this.host.worker(&core.metrics),
                |worker, request| this.execute(worker, request),
            );
            // Release the compaction thread — flag first, then the
            // unpark that cuts its timer short — even when the serve
            // loop exited without flipping the flag itself.
            core.shutdown.store(true, Ordering::SeqCst);
            if let Some(compactor) = compactor {
                compactor.thread().unpark();
            }
        });
        // Clean shutdown flushes the log regardless of sync policy:
        // every acknowledged write survives a graceful stop even under
        // `never`.
        if let Some(d) = &core.durability {
            if let Ok(mut wal) = d.wal.lock() {
                let _ = wal.sync();
                d.last_durable
                    .store(wal.last_durable_seq(), Ordering::Relaxed);
            }
        }
        served.map(|()| core.requests.load(Ordering::SeqCst))
    }

    /// The one request executor: every frame a [`Server`] or a
    /// [`crate::Frontend`] answers goes through here, whichever host
    /// the index lives in.
    fn execute(&self, worker: &mut H::Worker<'_>, request: Request) -> Response {
        let core = &self.core;
        // Query-shaped requests feed the slow-query log, stamped with
        // the trace id a frontend minted (its scatter frames carry it
        // to the shard servers on the wire; a direct query has none).
        let kind = KINDS[kind_index(&request)];
        let span = |trace| Span {
            metrics: &core.metrics,
            kind,
            trace,
            stages: Vec::new(),
        };
        match request {
            Request::Ping => Response::Pong,
            Request::Metrics => {
                // Pull the engine's process-wide scan counters into the
                // registry, then snapshot everything.
                let telemetry = geodabs_index::engine_telemetry();
                core.metrics.sync_engine(
                    telemetry.searches,
                    telemetry.candidates_scanned,
                    telemetry.candidates_admitted,
                    telemetry.prune_cutoffs,
                );
                Response::Metrics(core.metrics.report())
            }
            Request::Stats { durability } => match self.host.stats() {
                Ok((backend, trajectories, terms)) => Response::Stats(StatsBody {
                    backend: backend.to_string(),
                    trajectories,
                    terms,
                    workers: core.workers as u64,
                    // The tail goes out only when asked for it (a legacy
                    // client's strict decoder must not see it) and when
                    // a log is actually configured.
                    durability: match durability {
                        true => core.durability.as_ref().map(Durability::stats),
                        false => None,
                    },
                }),
                Err(refusal) => self.refuse(refusal),
            },
            Request::Query { query, options } => {
                let span = span(self.host.mint_trace());
                self.rank(worker, span, false, query, &options, Response::Hits)
            }
            Request::ShardQuery {
                terms,
                options,
                trace,
            } => {
                let query = QueryBody::Fingerprints(terms);
                self.rank(
                    worker,
                    span(trace),
                    true,
                    query,
                    &options,
                    Response::ShardTopK,
                )
            }
            Request::Insert { id, trajectory } => {
                self.mutate(worker, WalOp::Insert { id, trajectory })
            }
            Request::Remove { id } => self.mutate(worker, WalOp::Remove { id }),
            Request::ShardInsert { id, terms } => {
                self.mutate(worker, WalOp::InsertFingerprints { id, terms })
            }
        }
    }

    /// The read path behind `Query` and `ShardQuery`: ranks the one
    /// body, wraps the ranking in `answer`, and feeds the slow-query log
    /// whether or not the host refused. A ranking too large to frame is
    /// the mux's to refuse, when it encodes the answer.
    fn rank(
        &self,
        worker: &mut H::Worker<'_>,
        mut span: Span<'_>,
        leg: bool,
        query: QueryBody,
        options: &SearchOptions,
        answer: fn(Vec<SearchResult>) -> Response,
    ) -> Response {
        let metrics = span.metrics;
        let started = metrics.now();
        let response = match self.host.search(worker, query, leg, options, &mut span) {
            Ok(hits) => answer(hits),
            Err(refusal) => self.refuse(refusal),
        };
        if let Some(started) = started {
            let total_us = started.elapsed().as_micros() as u64;
            metrics.observe_slow(span.trace, span.kind, total_us, &span.stages);
        }
        response
    }

    /// The write path behind `Insert`, `Remove` and `ShardInsert`: `op`
    /// was built once, by move, from the decoded request; the host logs
    /// it by reference inside its write section and applies it.
    fn mutate(&self, worker: &mut H::Worker<'_>, op: WalOp) -> Response {
        self.host
            .write(worker, op, |op| self.log_op(op))
            .unwrap_or_else(|refusal| self.refuse(refusal))
    }

    /// Maps a host's refusal to the response. A poisoned host means a
    /// write-path panic left the index in an unknown state: refuse to
    /// serve from it and shut the server down cleanly (flag **and**
    /// listener wake-up, so the acceptor does not sit in `accept()`
    /// waiting for an unrelated connection to notice).
    fn refuse(&self, refusal: Refusal) -> Response {
        match refusal {
            Refusal::Answer(response) => response,
            Refusal::Poisoned => {
                self.handle().shutdown();
                Response::Error(format!("{POISONED}; shutting down"))
            }
        }
    }

    /// Appends one mutation to the write-ahead log (when one is
    /// configured) and waits for it to be durable per the sync policy.
    /// Hosts call it **inside their write section** (see
    /// [`Host::write`]), so log order and apply order agree.
    fn log_op(&self, op: &WalOp) -> Result<(), String> {
        let Some(d) = &self.core.durability else {
            return Ok(());
        };
        let mut wal = d
            .wal
            .lock()
            .map_err(|_| "write-ahead log is poisoned".to_string())?;
        let metrics = &self.core.metrics;
        let started = metrics.now();
        wal.append(op)
            .map_err(|e| format!("write-ahead log append failed: {e}"))?;
        metrics.record_since(&metrics.wal_append_us, started);
        let last_durable = wal.last_durable_seq();
        d.last_durable.store(last_durable, Ordering::Relaxed);
        d.wal_bytes.store(wal.size_bytes(), Ordering::Relaxed);
        metrics.wal_last_durable_seq.set(last_durable);
        metrics
            .wal_durable_lag
            .set(wal.last_seq().saturating_sub(last_durable));
        metrics.wal_bytes.set(wal.size_bytes());
        Ok(())
    }

    /// Folds the log into snapshots on a timer until shutdown. Failures
    /// are skipped — the next tick retries with the log intact. The
    /// timer is a `park_timeout` that [`Bound::run`] unparks once the
    /// flag is set (an unpark that lands before the park is kept), so
    /// shutdown does not wait a tick out.
    fn compaction_loop(&self, every: Duration) {
        let mut last = Instant::now();
        while !self.core.shutdown.load(Ordering::SeqCst) {
            match every.checked_sub(last.elapsed()) {
                // Early and spurious returns land here again.
                Some(left) if !left.is_zero() => std::thread::park_timeout(left),
                _ => {
                    let _ = self.compact();
                    last = Instant::now();
                }
            }
        }
    }

    /// One compaction cycle: fold everything the log holds into a fresh
    /// watermark-stamped snapshot, swap it in atomically (tmp file →
    /// fsync → rename → fsync-of-dir), then prune the folded segments.
    /// Readers are never blocked; writers only wait while
    /// [`Host::snapshot`] serializes in memory. Returns whether a
    /// snapshot landed (`false` when there was nothing new to fold or
    /// the host holds no index of its own, as a frontend).
    fn compact(&self) -> Result<bool, String> {
        let Some(d) = &self.core.durability else {
            return Ok(false);
        };
        let lock_wal = || {
            d.wal
                .lock()
                .map_err(|_| "write-ahead log is poisoned".to_string())
        };
        if lock_wal()?.last_seq() <= d.watermark.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let metrics = &self.core.metrics;
        let compaction_started = metrics.now();
        let bytes_before = d.wal_bytes.load(Ordering::Relaxed);
        // Rotating while the host is still frozen (lock order host →
        // wal, as on the mutation path) ties the watermark to exactly
        // the records the serialized state covers.
        let sealed = self.host.snapshot(|bytes| {
            let watermark = lock_wal()?
                .rotate()
                .map_err(|e| format!("write-ahead log rotation failed: {e}"))?;
            Ok::<_, String>((bytes, watermark))
        })?;
        let Some((bytes, watermark)) = sealed.transpose()? else {
            return Ok(false);
        };
        let stamped = store::with_watermark(&bytes, watermark)
            .map_err(|e| format!("stamping the snapshot watermark failed: {e}"))?;
        write_snapshot_atomically(&d.snapshot_path, &stamped)
            .map_err(|e| format!("writing the compacted snapshot failed: {e}"))?;
        let mut wal = lock_wal()?;
        wal.prune(watermark)
            .map_err(|e| format!("pruning the write-ahead log failed: {e}"))?;
        d.watermark.store(watermark, Ordering::Relaxed);
        d.wal_bytes.store(wal.size_bytes(), Ordering::Relaxed);
        metrics.compactions.inc();
        metrics.record_since(&metrics.compaction_us, compaction_started);
        metrics
            .compaction_bytes_folded
            .add(bytes_before.saturating_sub(wal.size_bytes()));
        metrics.wal_bytes.set(wal.size_bytes());
        Ok(true)
    }
}

/// The error a poisoned host is answered (and refused a snapshot) with.
const POISONED: &str = "server index is poisoned";

/// Readers of the snapshot path must only ever see a complete snapshot:
/// write to a sibling tmp file, fsync it, rename over the destination,
/// then fsync the directory so the rename itself is durable.
fn write_snapshot_atomically(dst: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dst.with_extension("gdab.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dst)?;
    if let Some(dir) = dst.parent() {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// How a [`Server`] hosts its backend, fixed at bind time by
/// [`ServerConfig::shards`] and matched on once, when serving starts.
enum Hosted<B> {
    Locked(RwLock<B>),
    Sharded(ShardedIndex),
}

/// A server bound to its socket but not yet serving; call
/// [`Server::run`] (blocking) or [`Server::spawn`] (background thread).
///
/// # Examples
///
/// ```
/// use geodabs_core::GeodabConfig;
/// use geodabs_index::GeodabIndex;
/// use geodabs_serve::{Client, Server, ServerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let index = GeodabIndex::new(GeodabConfig::default());
/// let server = Server::bind("127.0.0.1:0", index, ServerConfig::default())?;
/// let running = server.spawn();
///
/// let mut client = Client::connect(running.addr())?;
/// client.ping()?;
/// assert_eq!(client.stats()?.backend, "geodab");
///
/// running.shutdown()?;
/// # Ok(())
/// # }
/// ```
pub struct Server<B>(Bound<Hosted<B>>);

/// A server (or frontend) running on a background thread (see
/// [`Server::spawn`] / [`crate::Frontend::spawn`]).
pub struct RunningServer {
    handle: ServerHandle,
    join: std::thread::JoinHandle<std::io::Result<u64>>,
}

impl RunningServer {
    /// Moves `run` (a bound server's serve loop) onto a background
    /// thread controlled through `handle`.
    pub(crate) fn spawn(
        handle: ServerHandle,
        run: impl FnOnce() -> std::io::Result<u64> + Send + 'static,
    ) -> RunningServer {
        RunningServer {
            handle,
            join: std::thread::spawn(run),
        }
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// A cloneable remote-control handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Shuts the server down and waits for it to drain; returns the
    /// number of requests served.
    ///
    /// # Errors
    ///
    /// Propagates the serve loop's I/O error, if it died on one.
    ///
    /// # Panics
    ///
    /// Panics if the serve thread itself panicked.
    pub fn shutdown(self) -> std::io::Result<u64> {
        self.handle.shutdown();
        self.join.join().expect("serve thread panicked")
    }
}

impl<B: ServeBackend> Server<B> {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port)
    /// hosting `backend`. With [`ServerConfig::shards`] above one the
    /// backend is re-partitioned here, via
    /// [`ServeBackend::into_shards`], into a [`ShardedIndex`].
    ///
    /// # Errors
    ///
    /// Any socket-level failure binding the listener, or
    /// [`std::io::ErrorKind::InvalidInput`] when the backend refuses
    /// the requested shard count.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        backend: B,
        config: ServerConfig,
    ) -> std::io::Result<Server<B>> {
        let host = match config.shards() {
            1 => Hosted::Locked(RwLock::new(backend)),
            shards => Hosted::Sharded(backend.into_shards(shards).map_err(|message| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, message)
            })?),
        };
        Bound::bind(addr, config.mux_workers(), host).map(Server)
    }

    /// Makes the server durable: every `Insert`/`Remove` is appended to
    /// `wal` (and synced per its policy) **before** it is acknowledged,
    /// and — when `compact_every` is set — a background thread
    /// periodically folds the log into a watermark-stamped snapshot at
    /// [`WAL_SNAPSHOT_FILE`] inside the log directory, pruning the
    /// folded segments.
    ///
    /// The caller has already restored the backend with
    /// [`recover`](crate::recover) (snapshot load plus replay of the log
    /// suffix beyond `snapshot_watermark`), so the log and the in-memory
    /// state agree when serving starts.
    pub fn with_durability(
        mut self,
        wal: Wal,
        snapshot_watermark: u64,
        compact_every: Option<Duration>,
    ) -> Server<B> {
        self.0.core.durability = Some(Durability::new(wal, snapshot_watermark, compact_every));
        self
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// A remote-control handle usable from any thread.
    pub fn handle(&self) -> ServerHandle {
        self.0.handle()
    }

    /// Serves until [`ServerHandle::shutdown`] is called (this thread is
    /// the acceptor). Returns the number of requests served.
    ///
    /// # Errors
    ///
    /// Fatal listener errors; per-connection errors only drop that
    /// connection.
    pub fn run(self) -> std::io::Result<u64> {
        let Bound {
            listener,
            core,
            host,
        } = self.0;
        match host {
            Hosted::Locked(host) => Bound {
                listener,
                core,
                host,
            }
            .run(),
            Hosted::Sharded(host) => Bound {
                listener,
                core,
                host,
            }
            .run(),
        }
    }

    /// Moves the server onto a background thread and returns its
    /// controls.
    pub fn spawn(self) -> RunningServer {
        RunningServer::spawn(self.handle(), move || self.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_core::GeodabConfig;

    #[test]
    fn config_builder_validates_and_defaults_to_all_cores() {
        let config = ServerConfig::default();
        assert_eq!(config.mux_workers(), default_threads());
        assert_eq!(config.shards(), 1);
        assert!(config.mux_workers() >= 1);

        let built = ServerConfig::builder()
            .shards(4)
            .mux_workers(2)
            .build()
            .expect("valid config");
        assert_eq!(built.shards(), 4);
        assert_eq!(built.mux_workers(), 2);

        assert_eq!(
            ServerConfig::builder().shards(0).build(),
            Err(ServerConfigError::ZeroShards)
        );
        assert_eq!(
            ServerConfig::builder().mux_workers(0).build(),
            Err(ServerConfigError::ZeroMuxWorkers)
        );
    }

    #[test]
    fn backend_names_and_stats_dispatch() {
        let geodab = GeodabIndex::new(GeodabConfig::default());
        assert_eq!(geodab.backend_name(), "geodab");
        let fp = Fingerprints::from_ordered(vec![1, 2]);
        let hits = ServeBackend::search_fingerprints(&geodab, &fp, &SearchOptions::default());
        assert!(hits.is_empty());
        assert!(geodab.as_shard().is_none());
        let cluster = ClusterIndex::new(GeodabConfig::default(), 100, 2).unwrap();
        assert_eq!(cluster.backend_name(), "cluster");
        assert_eq!(ServeBackend::term_count(&cluster), 0);
        assert!(cluster.as_shard().is_none());
        let node = cluster.shard_node(1).expect("node 1 exists");
        assert_eq!(node.backend_name(), "node");
        let hits = ServeBackend::search_fingerprints(&node, &fp, &SearchOptions::default());
        assert!(hits.is_empty());
        assert!(node.as_shard().is_some());
    }

    #[test]
    fn into_shards_partitions_geodab_and_cluster_but_not_a_node() {
        let geodab = GeodabIndex::new(GeodabConfig::default());
        let sharded = geodab.into_shards(4).expect("geodab shards");
        assert_eq!(sharded.shards(), 4);

        let cluster = ClusterIndex::new(GeodabConfig::default(), 100, 2).unwrap();
        let node = cluster.shard_node(0).expect("node 0 exists");
        let sharded = cluster.into_shards(3).expect("cluster re-shards");
        assert_eq!(sharded.shards(), 3);

        let err = node.into_shards(2).expect_err("a node refuses");
        assert!(err.contains("node"), "{err}");
    }

    #[test]
    fn binding_with_unshardable_backend_is_invalid_input() {
        let cluster = ClusterIndex::new(GeodabConfig::default(), 100, 2).unwrap();
        let node = cluster.shard_node(0).expect("node 0 exists");
        let config = ServerConfig::builder().shards(2).build().unwrap();
        let err = match Server::bind("127.0.0.1:0", node, config) {
            Ok(_) => panic!("an unshardable backend must be refused"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// A sharded server is the locked hosting over a cluster: a panic
    /// inside its write section poisons the lock, and the server answers
    /// with a typed error and shuts itself down cleanly.
    #[test]
    fn poisoned_sharded_writer_shuts_the_server_down_cleanly() {
        use crate::{Client, WireError};
        use geodabs_traj::TrajId;

        let index = GeodabIndex::new(GeodabConfig::default());
        let sharded = index.into_shards(2).expect("geodab shards");
        let remove = WalOp::Remove { id: TrajId::new(0) };
        let injected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Host::write(&sharded, &mut (), remove, |_| {
                panic!("injected failure inside the write section")
            })
        }));
        assert!(injected.is_err(), "the write section panicked");

        let bound = Bound::bind("127.0.0.1:0", 2, Hosted::Sharded(sharded)).expect("bind");
        let running = Server::<GeodabIndex>(bound).spawn();
        let addr = running.addr();
        let mut victim = Client::connect(addr).expect("connect");
        let err = victim.remove(TrajId::new(0));
        assert!(
            matches!(&err, Err(WireError::Remote(m)) if m.contains("poisoned")),
            "expected a remote poisoned report: {err:?}"
        );
        // Reads refuse too, unless the shutdown already closed the socket.
        let answer = Client::connect(addr)
            .map_err(WireError::Io)
            .and_then(|mut client| client.request(&Request::Stats { durability: false }));
        match answer {
            Ok(Response::Error(message)) => assert!(message.contains("poisoned"), "{message}"),
            Ok(other) => panic!("unexpected response {other:?}"),
            Err(_) => {}
        }
        running.shutdown().expect("clean shutdown after poison");
    }

    #[test]
    fn bind_run_shutdown_without_traffic() {
        let index = GeodabIndex::new(GeodabConfig::default());
        let config = ServerConfig::builder().mux_workers(2).build().unwrap();
        let server = Server::bind("127.0.0.1:0", index, config).expect("bind loopback");
        assert_ne!(server.local_addr().port(), 0);
        let running = server.spawn();
        let served = running.shutdown().expect("clean shutdown");
        assert_eq!(served, 0);
    }
}
