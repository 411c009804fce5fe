//! In-process sharding: one [`ClusterIndex`] behind one read-write lock.
//!
//! [`ShardedIndex`] partitions one server's corpus over per-core
//! [`ShardNode`]s along the same `ClusterIndex`/`ShardNode` routing
//! boundary the distributed deployment uses. Queries take the shared
//! lock and run the cluster's fan-out — [`geodabs_cluster::scatter_gather`]
//! over the nodes owning the query's terms, then the exact heap merge —
//! so rankings are bit-identical to the monolithic index, and every
//! query sees the writes up to one point in their order. Mutations take
//! the exclusive lock and broadcast to every node, which keeps only the
//! locally routed postings and scrubs any previous shape of the id.
//!
//! A server hosts a `ShardedIndex` through the locked hosting's code
//! (`Host for RwLock<B>`): the same refuse, log, apply rule
//! [`crate::recover`] replays the log with, a cluster snapshot under the
//! shared lock, and poison → shutdown. Only `Stats` names it apart.

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use geodabs_cluster::ClusterIndex;
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::{SearchOptions, SearchResult};
use geodabs_traj::{TrajId, Trajectory};
use geodabs_wal::WalOp;

use crate::metrics::ServeMetrics;
use crate::proto::{QueryBody, Response};
use crate::server::{Host, Refusal, Span};

/// The paper's fine-grained logical shard count, reused for in-process
/// nodes: many more logical shards than nodes keeps the router's
/// term→node spread even at any node count.
const NUM_LOGICAL_SHARDS: u64 = 10_000;

/// A per-core sharded index: a [`ClusterIndex`] in one [`RwLock`].
///
/// # Panics
///
/// Every method panics if a mutation panicked while holding the lock
/// (the nodes may then disagree).
#[derive(Debug)]
pub struct ShardedIndex {
    cluster: RwLock<ClusterIndex>,
}

impl ShardedIndex {
    /// Hosts a cluster's nodes, one per node of its router.
    pub fn from_cluster(cluster: ClusterIndex) -> ShardedIndex {
        ShardedIndex {
            cluster: RwLock::new(cluster),
        }
    }

    fn cluster(&self) -> RwLockReadGuard<'_, ClusterIndex> {
        self.cluster.read().expect("sharded index poisoned")
    }

    fn cluster_mut(&self) -> RwLockWriteGuard<'_, ClusterIndex> {
        self.cluster.write().expect("sharded index poisoned")
    }

    /// Number of shard nodes (the configured per-core parallelism).
    pub fn shards(&self) -> usize {
        self.cluster().router().num_nodes()
    }

    /// Indexed trajectories.
    pub fn len(&self) -> u64 {
        self.cluster().len() as u64
    }

    /// Whether no trajectory is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct terms across all nodes.
    pub fn term_count(&self) -> u64 {
        self.cluster().term_count() as u64
    }

    /// Ranked query from a raw trajectory; bit-identical to the
    /// monolithic index over the same corpus.
    pub fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult> {
        self.cluster().search(query, options)
    }

    /// Ranked query from pre-computed fingerprints: fan out to the nodes
    /// owning the query's terms and merge their heaps exactly.
    pub fn search_fingerprints(
        &self,
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> Vec<SearchResult> {
        self.cluster().search_fingerprints(query_fp, options)
    }

    /// Indexes a trajectory (replacing any previous shape of the id);
    /// returns the post-insert trajectory count.
    pub fn insert(&self, id: TrajId, trajectory: &Trajectory) -> u64 {
        let mut cluster = self.cluster_mut();
        cluster.insert(id, trajectory);
        cluster.len() as u64
    }

    /// Indexes pre-computed fingerprints (the client-side-fingerprinting
    /// twin of [`ShardedIndex::insert`]).
    pub fn insert_fingerprints(&self, id: TrajId, fp: Fingerprints) -> u64 {
        let mut cluster = self.cluster_mut();
        cluster.insert_fingerprints(id, fp);
        cluster.len() as u64
    }

    /// Removes a trajectory; returns whether the id was indexed.
    pub fn remove(&self, id: TrajId) -> bool {
        self.cluster_mut().remove(id)
    }
}

/// The locked hosting over the cluster. `Stats` names it `sharded` and
/// counts distinct terms rather than the cluster backend's active shards.
impl Host for ShardedIndex {
    type Worker<'a> = ();

    fn worker<'a>(&'a self, _metrics: &'a ServeMetrics) {}

    fn stats(&self) -> Result<(&'static str, u64, u64), Refusal> {
        let cluster = self.cluster.read().map_err(|_| Refusal::Poisoned)?;
        Ok(("sharded", cluster.len() as u64, cluster.term_count() as u64))
    }

    fn search(
        &self,
        worker: &mut (),
        query: &QueryBody,
        leg: bool,
        options: &SearchOptions,
        span: &mut Span<'_>,
    ) -> Result<Vec<SearchResult>, Refusal> {
        Host::search(&self.cluster, worker, query, leg, options, span)
    }

    fn write(
        &self,
        worker: &mut (),
        op: WalOp,
        log: impl FnOnce(&WalOp) -> Result<(), String>,
    ) -> Result<Response, Refusal> {
        Host::write(&self.cluster, worker, op, log)
    }

    fn snapshot<T>(&self, seal: impl FnOnce(Vec<u8>) -> T) -> Result<Option<T>, String> {
        Host::snapshot(&self.cluster, seal)
    }
}

/// Builds the cluster [`ShardedIndex::from_cluster`] hosts from a
/// monolithic corpus iterator: `shards` nodes over the paper's
/// fine-grained logical shard grid.
///
/// # Errors
///
/// Returns the router's configuration error message for `shards == 0`.
pub(crate) fn cluster_scaffold<'a>(
    config: GeodabConfig,
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
        assert_eq!(index.term_count(), mono.term_count() as u64);

        // Replace-on-reinsert must scrub the old shape on every node.
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
        let refused = [
            WalOp::Insert {
                id: TrajId::new(2),
                trajectory: eastward(40, 400.0),
            },
            WalOp::Remove { id: TrajId::new(1) },
        ];
        for op in refused {
            match Host::write(&index, &mut (), op, |_| Err("disk full".into())) {
                Err(Refusal::Answer(Response::Error(message))) => assert_eq!(message, "disk full"),
                _ => panic!("a failed log append refuses the op"),
            }
            assert_eq!(index.len(), 1, "refused op must not apply");
        }
    }

    #[test]
    fn cluster_snapshot_round_trips() {
        use geodabs_index::store::Persist;

        let index = sharded(3);
        for route in 0..5u32 {
            index.insert(TrajId::new(route), &eastward(40, route as f64 * 400.0));
        }
        let bytes = Host::snapshot(&index, |bytes| bytes)
            .expect("not poisoned")
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
