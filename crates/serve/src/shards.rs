//! Shard-per-core ownership with a lock-free read path.
//!
//! [`ShardedIndex`] partitions one server's corpus into per-core shard
//! cells along the same `ClusterIndex`/`ShardNode` routing boundary the
//! distributed deployment uses, then publishes each cell's read state
//! through a left-right copy-on-write handle:
//!
//! ```text
//!            readers                        the one writer
//!   ┌──────────────────────┐      ┌───────────────────────────────┐
//!   │ front: RwLock<Arc> ──┼──┐   │ writer: Mutex<WriterState>    │
//!   │  (briefly read-lock, │  │   │   backs[i].stale: Arc<Node>   │
//!   │   clone Arc, release)│  │   │   backs[i].missing: Vec<Op>   │
//!   └──────────────────────┘  │   │   indexed: BTreeSet<TrajId>   │
//!                             │   └───────────────────────────────┘
//!      query runs against ────┘       apply missing + new op to the
//!      its private snapshot           spare copy, swap it in, record
//!                                     the op for the demoted copy
//! ```
//!
//! Each cell keeps **two** copies of its [`ShardNode`]. Queries clone
//! the front `Arc` (a pointer copy under a read lock held for
//! nanoseconds) and score against that immutable snapshot — they never
//! wait on ingest. The single writer owns the spare copy: it waits for
//! the last pre-swap reader to drop the spare's `Arc`, replays the ops
//! the spare missed while it was the front, applies the new op, and
//! swaps it in. Ingest therefore never blocks reads, and a read can
//! delay a write only for as long as one in-flight query.
//!
//! Mutations are **broadcast** to every cell (like the frontend's
//! insert broadcast): [`ShardNode::insert_fingerprints`] keeps only the
//! locally routed postings and scrubs any previous shape of the id, so
//! replace-on-reinsert stays exact. Queries run [`scatter_gather`] —
//! the one route → legs → exact-merge fan-out the cluster coordinator
//! and the network frontend run too — with the cells owning the query's
//! terms as legs, so rankings are bit-identical to the monolithic index
//! by construction.
//!
//! A server hosts a `ShardedIndex` through the crate's private `Host`
//! interface (implemented at the bottom of this module): the read path
//! above, [`ShardedIndex::insert_logged`] / [`ShardedIndex::remove_logged`]
//! as the one serialized write section, and a cluster snapshot taken
//! under the writer mutex.

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use geodabs_cluster::{scatter_gather, ClusterIndex, ShardNode, ShardRouter};
use geodabs_core::{Fingerprinter, Fingerprints};
use geodabs_index::store::Persist;
use geodabs_index::{SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_obs::Histogram;
use geodabs_traj::{TrajId, Trajectory};
use geodabs_wal::WalOp;

use crate::metrics::ServeMetrics;
use crate::proto::{QueryBody, Response};
use crate::server::{Host, Refusal, Span, NOT_A_SHARD_NODE};

/// The sharded layer's instrument handles, cloned off the server's
/// registry and installed before serving starts. `None` (the default,
/// and the state of every `ShardedIndex` built outside a server) keeps
/// the layer silent.
pub(crate) struct ShardTelemetry {
    /// One cell's copy-on-write publish (replay + apply + swap), µs.
    publish_us: Histogram,
    /// Missed ops replayed onto the spare copy per publish.
    replay_depth: Histogram,
    /// Cells contacted per query fan-out.
    fanout_cells: Histogram,
    /// Exact heap merge across the contacted cells, µs.
    merge_us: Histogram,
    /// Gates the clock reads, mirroring the registry's kill switch.
    clock: bool,
}

impl ShardTelemetry {
    pub(crate) fn from_metrics(metrics: &ServeMetrics) -> ShardTelemetry {
        ShardTelemetry {
            publish_us: metrics.shard_publish_us.clone(),
            replay_depth: metrics.shard_replay_depth.clone(),
            fanout_cells: metrics.shard_fanout_cells.clone(),
            merge_us: metrics.stage_merge_us.clone(),
            clock: metrics.enabled(),
        }
    }

    fn now(&self) -> Option<std::time::Instant> {
        if self.clock {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }
}

/// The paper's fine-grained logical shard count, reused for in-process
/// cells: many more logical shards than cells keeps the router's
/// term→cell spread even at any cell count.
const NUM_LOGICAL_SHARDS: u64 = 10_000;

/// The error every write path returns once a mutation panicked inside
/// the write section: the cells may disagree, so the server treats this
/// like a poisoned write lock and shuts down rather than keep serving.
const POISONED: &str = "sharded index writer is poisoned";

/// One mutation, broadcast to every cell. The full fingerprint sequence
/// travels with the insert (not the routed slice) because each cell
/// keeps the full replica of every trajectory it references — its size
/// and, for query terms owned by other cells, its contents are what
/// make per-cell scoring exact.
#[derive(Clone)]
enum ShardOp {
    Insert { id: TrajId, fp: Fingerprints },
    Remove { id: TrajId },
}

fn apply_op(node: &mut ShardNode, op: ShardOp) {
    match op {
        ShardOp::Insert { id, fp } => node.insert_fingerprints(id, fp),
        ShardOp::Remove { id } => {
            node.remove(id);
        }
    }
}

/// A cell's reader-visible state: queries briefly read-lock, clone the
/// `Arc`, release, and score against their private snapshot.
struct Cell {
    front: RwLock<Arc<ShardNode>>,
}

/// A cell's writer-owned state: the spare copy and the ops it missed
/// while it was the front.
struct BackCell {
    stale: Arc<ShardNode>,
    missing: Vec<ShardOp>,
}

/// Everything the single writer owns, under one mutex: the spare copies
/// and the coordinator's id set (which also records ids whose
/// fingerprint set is empty — indexed, but stored on no cell).
struct WriterState {
    backs: Vec<BackCell>,
    indexed: BTreeSet<TrajId>,
}

/// A per-core sharded index with copy-on-write read publication; see
/// the module docs for the concurrency protocol.
pub struct ShardedIndex {
    fingerprinter: Fingerprinter,
    router: ShardRouter,
    cells: Vec<Cell>,
    writer: Mutex<WriterState>,
    /// Mirror of `indexed.len()`, refreshed after every mutation, so
    /// `Stats` never touches the writer mutex.
    len: AtomicU64,
    /// Installed by the server before serving starts; `None` outside
    /// one.
    telemetry: Option<ShardTelemetry>,
}

impl ShardedIndex {
    /// Partitions a cluster's state into per-core cells, one per node
    /// of the cluster's router.
    pub fn from_cluster(cluster: ClusterIndex) -> ShardedIndex {
        let fingerprinter = Fingerprinter::new(*cluster.config());
        let router = *cluster.router();
        let indexed: BTreeSet<TrajId> = cluster.ids().collect();
        let mut cells = Vec::with_capacity(router.num_nodes());
        let mut backs = Vec::with_capacity(router.num_nodes());
        for node in 0..router.num_nodes() {
            let slice = cluster.shard_node(node).expect("node in range");
            // Both copies start identical with nothing missing.
            backs.push(BackCell {
                stale: Arc::new(slice.clone()),
                missing: Vec::new(),
            });
            cells.push(Cell {
                front: RwLock::new(Arc::new(slice)),
            });
        }
        let len = AtomicU64::new(indexed.len() as u64);
        ShardedIndex {
            fingerprinter,
            router,
            cells,
            writer: Mutex::new(WriterState { backs, indexed }),
            len,
            telemetry: None,
        }
    }

    /// Installs the server's instrument handles (before serving starts,
    /// while the index is still exclusively owned).
    pub(crate) fn set_telemetry(&mut self, telemetry: ShardTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Number of shard cells (the configured per-core parallelism).
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// Indexed trajectories (lock-free).
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no trajectory is indexed (lock-free).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct terms across all cells. Each term routes to exactly one
    /// cell, so the per-cell counts sum without overlap.
    pub fn term_count(&self) -> u64 {
        self.cells
            .iter()
            .map(|cell| snapshot(cell).term_count() as u64)
            .sum()
    }

    /// Ranked query from a raw trajectory; bit-identical to the
    /// monolithic index over the same corpus.
    pub fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult> {
        let query_fp = self.fingerprinter.normalize_and_fingerprint(query);
        self.search_fingerprints(&query_fp, options)
    }

    /// Ranked query from pre-computed fingerprints: fan out to the
    /// cells owning the query's terms, score each against its immutable
    /// snapshot, and merge the per-cell heaps exactly.
    pub fn search_fingerprints(
        &self,
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> Vec<SearchResult> {
        let mut merge_started = None;
        let Ok(merged) = scatter_gather(&self.router, query_fp, options, |_, cells| {
            if let Some(t) = &self.telemetry {
                t.fanout_cells.record(cells.len() as u64);
            }
            let heaps = cells
                .iter()
                .map(|&cell| snapshot(&self.cells[cell]).search_fingerprints(query_fp, options))
                .collect();
            // Read the clock after the legs, so the timer brackets the
            // exact merge alone.
            merge_started = self.telemetry.as_ref().and_then(ShardTelemetry::now);
            Ok::<_, Infallible>(heaps)
        });
        if let (Some(t), Some(started)) = (&self.telemetry, merge_started) {
            t.merge_us.record(started.elapsed().as_micros() as u64);
        }
        merged
    }

    /// Indexes a trajectory (replacing any previous shape of the id);
    /// returns the post-insert trajectory count.
    pub fn insert(&self, id: TrajId, trajectory: &Trajectory) -> u64 {
        self.insert_logged(id, trajectory, || Ok(()))
            .expect("no-op log never fails")
    }

    /// Indexes a trajectory after `log` succeeds. `log` runs inside the
    /// write critical section **before** the op is applied, so a WAL
    /// append observes mutations in exactly apply order and nothing
    /// unlogged ever becomes visible.
    ///
    /// # Errors
    ///
    /// Forwards `log`'s error verbatim; the index is unchanged then.
    pub fn insert_logged(
        &self,
        id: TrajId,
        trajectory: &Trajectory,
        log: impl FnOnce() -> Result<(), String>,
    ) -> Result<u64, String> {
        let fp = self.fingerprinter.normalize_and_fingerprint(trajectory);
        self.write(ShardOp::Insert { id, fp }, log, move |indexed| {
            indexed.insert(id);
            indexed.len() as u64
        })
    }

    /// Indexes pre-computed fingerprints (the client-side-fingerprinting
    /// twin of [`ShardedIndex::insert`]).
    pub fn insert_fingerprints(&self, id: TrajId, fp: Fingerprints) -> u64 {
        self.write(
            ShardOp::Insert { id, fp },
            || Ok(()),
            move |indexed| {
                indexed.insert(id);
                indexed.len() as u64
            },
        )
        .expect("no-op log never fails")
    }

    /// Removes a trajectory; returns whether the id was indexed.
    pub fn remove(&self, id: TrajId) -> bool {
        self.remove_logged(id, || Ok(()))
            .expect("no-op log never fails")
    }

    /// Removes a trajectory after `log` succeeds (see
    /// [`ShardedIndex::insert_logged`] for the ordering contract).
    ///
    /// # Errors
    ///
    /// Forwards `log`'s error verbatim; the index is unchanged then.
    pub fn remove_logged(
        &self,
        id: TrajId,
        log: impl FnOnce() -> Result<(), String>,
    ) -> Result<bool, String> {
        self.write(ShardOp::Remove { id }, log, move |indexed| {
            indexed.remove(&id)
        })
    }

    /// The single write path: take the writer mutex, run `log`, update
    /// the coordinator's id set, then broadcast the op to every cell —
    /// replaying each spare copy's missed ops, applying the new one,
    /// and swapping it in under a momentary front write lock.
    fn write<R>(
        &self,
        op: ShardOp,
        log: impl FnOnce() -> Result<(), String>,
        outcome: impl FnOnce(&mut BTreeSet<TrajId>) -> R,
    ) -> Result<R, String> {
        let mut writer = self.writer.lock().map_err(|_| POISONED.to_string())?;
        log()?;
        let WriterState { backs, indexed } = &mut *writer;
        let result = outcome(indexed);
        for (cell, back) in self.cells.iter().zip(backs.iter_mut()) {
            let publish_started = self.telemetry.as_ref().and_then(ShardTelemetry::now);
            if let Some(t) = &self.telemetry {
                t.replay_depth.record(back.missing.len() as u64);
            }
            // Wait until the last pre-swap reader drops the spare's
            // Arc; bounded by the duration of one in-flight query.
            let mut spins = 0u32;
            while Arc::get_mut(&mut back.stale).is_none() {
                spins += 1;
                if spins < 1_000 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(20));
                }
            }
            let node = Arc::get_mut(&mut back.stale).expect("sole owner after spin");
            for missed in back.missing.drain(..) {
                apply_op(node, missed);
            }
            apply_op(node, op.clone());
            {
                let mut front = cell
                    .front
                    .write()
                    .expect("front poisoned: readers never panic holding it");
                std::mem::swap(&mut *front, &mut back.stale);
            }
            // The demoted copy has seen everything but this op.
            back.missing.push(op.clone());
            if let (Some(t), Some(started)) = (&self.telemetry, publish_started) {
                t.publish_us.record(started.elapsed().as_micros() as u64);
            }
        }
        self.len.store(indexed.len() as u64, Ordering::Release);
        Ok(result)
    }
}

/// The copy-on-write hosting: reads never take the writer mutex, so
/// they keep answering (from the last published fronts) even after a
/// write panicked.
impl Host for ShardedIndex {
    type Worker<'a> = ();

    fn worker<'a>(&'a self, _metrics: &'a ServeMetrics) {}

    fn stats(&self) -> Result<(&'static str, u64, u64), Refusal> {
        Ok(("sharded", self.len(), self.term_count()))
    }

    fn search(
        &self,
        _worker: &mut (),
        query: &QueryBody,
        leg: bool,
        options: &SearchOptions,
        span: &mut Span<'_>,
    ) -> Result<Vec<SearchResult>, Refusal> {
        // The cells are an internal layout, not cluster nodes a
        // frontend may address.
        if leg {
            return Err(Refusal::error(NOT_A_SHARD_NODE));
        }
        let metrics = span.metrics;
        let engine_started = metrics.now();
        let hits = match query {
            QueryBody::Trajectory(trajectory) => self.search(trajectory, options),
            QueryBody::Fingerprints(ordered) => {
                self.search_fingerprints(&Fingerprints::from_ordered(ordered.clone()), options)
            }
        };
        span.stage("engine", Some(&metrics.stage_engine_us), engine_started);
        Ok(hits)
    }

    fn write(
        &self,
        _worker: &mut (),
        op: WalOp,
        log: impl FnOnce(&WalOp) -> Result<(), String>,
    ) -> Result<Response, Refusal> {
        let applied = match &op {
            WalOp::Insert { id, trajectory } => self
                .insert_logged(*id, trajectory, || log(&op))
                .map(|len| Response::Inserted { len }),
            WalOp::Remove { id } => self
                .remove_logged(*id, || log(&op))
                .map(|was_present| Response::Removed { was_present }),
            WalOp::InsertFingerprints { .. } => Err(NOT_A_SHARD_NODE.to_string()),
        };
        // A poisoned writer (a mutation panicked mid-broadcast, so the
        // cells may disagree) shuts the server down like a poisoned
        // write lock; a failed log append refuses just this op.
        applied.map_err(|message| match message == POISONED {
            true => Refusal::Poisoned,
            false => Refusal::error(message),
        })
    }

    /// Reassembles the corpus as a **cluster** snapshot (GDAB backend
    /// tag 3), so a sharded server's compaction artifact warm-starts
    /// any boot path that understands cluster snapshots — including a
    /// re-shard to a different cell count.
    fn snapshot<T>(&self, seal: impl FnOnce(Vec<u8>) -> T) -> Result<Option<T>, String> {
        // The writer guard freezes the fronts: mutations *and* their
        // log appends (which happen inside the write section) wait.
        // Lock order is writer → wal, the same as the mutation path.
        let writer = self.writer.lock().map_err(|_| POISONED.to_string())?;
        let nodes: Vec<ShardNode> = self
            .cells
            .iter()
            .map(|cell| ShardNode::clone(&snapshot(cell)))
            .collect();
        let cluster = ClusterIndex::from_shard_nodes(nodes, writer.indexed.clone());
        Ok(Some(seal(cluster.to_snapshot())))
    }
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.cells.len())
            .field("len", &self.len())
            .finish()
    }
}

/// Clones a cell's current front `Arc` under a momentary read lock.
fn snapshot(cell: &Cell) -> Arc<ShardNode> {
    Arc::clone(
        &cell
            .front
            .read()
            .expect("front poisoned: readers never panic holding it"),
    )
}

/// Builds the cluster scaffold [`ShardedIndex::from_cluster`] expects
/// from a monolithic corpus iterator: `shards` cells over the paper's
/// fine-grained logical shard grid.
///
/// # Errors
///
/// Returns the router's configuration error message for `shards == 0`.
pub(crate) fn cluster_scaffold<'a>(
    config: geodabs_core::GeodabConfig,
    shards: usize,
    corpus: impl Iterator<Item = (TrajId, &'a Fingerprints)>,
) -> Result<ClusterIndex, String> {
    let mut cluster =
        ClusterIndex::new(config, NUM_LOGICAL_SHARDS, shards).map_err(|e| e.to_string())?;
    for (id, fp) in corpus {
        cluster.insert_fingerprints(id, fp.clone());
    }
    Ok(cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_core::GeodabConfig;
    use geodabs_geo::Point;
    use geodabs_index::{GeodabIndex, TrajectoryIndex};

    fn eastward(n: usize, offset_m: f64) -> Trajectory {
        let start = Point::new(51.5074, -0.1278).unwrap();
        (0..n)
            .map(|i| start.destination(90.0, offset_m + i as f64 * 90.0))
            .collect()
    }

    fn sharded(shards: usize) -> ShardedIndex {
        let cluster = ClusterIndex::new(GeodabConfig::default(), 1_000, shards).expect("cluster");
        ShardedIndex::from_cluster(cluster)
    }

    #[test]
    fn mutations_and_queries_match_the_monolith() {
        let index = sharded(4);
        let mut mono = GeodabIndex::new(GeodabConfig::default());
        for route in 0..6u32 {
            let path = eastward(40, route as f64 * 400.0);
            assert_eq!(
                index.insert(TrajId::new(route), &path),
                (route + 1) as u64,
                "insert acks the corpus count"
            );
            mono.insert(TrajId::new(route), &path);
        }
        assert_eq!(index.len(), 6);

        // Replace-on-reinsert must scrub the old shape on every cell.
        let replacement = eastward(40, 9_000.0);
        index.insert(TrajId::new(0), &replacement);
        mono.insert(TrajId::new(0), &replacement);
        assert!(index.remove(TrajId::new(3)));
        assert!(mono.remove(TrajId::new(3)));
        assert!(!index.remove(TrajId::new(99)));

        let options = SearchOptions::default().limit(10);
        for probe in 0..6 {
            let query = eastward(40, probe as f64 * 400.0);
            assert_eq!(
                index.search(&query, &options),
                mono.search(&query, &options),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn failed_log_leaves_the_index_unchanged() {
        let index = sharded(2);
        index.insert(TrajId::new(1), &eastward(40, 0.0));
        let err = index
            .insert_logged(TrajId::new(2), &eastward(40, 400.0), || {
                Err("disk full".into())
            })
            .expect_err("log failure propagates");
        assert_eq!(err, "disk full");
        assert_eq!(index.len(), 1, "refused op must not apply");
        let err = index
            .remove_logged(TrajId::new(1), || Err("disk full".into()))
            .expect_err("log failure propagates");
        assert_eq!(err, "disk full");
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn cluster_snapshot_round_trips() {
        let index = sharded(3);
        for route in 0..5u32 {
            index.insert(TrajId::new(route), &eastward(40, route as f64 * 400.0));
        }
        // An id the spare copies have not caught up on yet must still
        // be in the snapshot (fronts are always newest).
        let bytes = Host::snapshot(&index, |bytes| bytes)
            .expect("writer not poisoned")
            .expect("a sharded index always snapshots");
        let restored = ClusterIndex::from_snapshot(&bytes).expect("decode cluster");
        assert_eq!(restored.len(), 5);
        let options = SearchOptions::default().limit(10);
        let query = eastward(40, 400.0);
        assert_eq!(
            restored.search(&query, &options),
            index.search(&query, &options)
        );
    }
}
