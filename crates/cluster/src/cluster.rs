use geodabs_core::{Fingerprinter, Fingerprints, GeodabConfig};
use geodabs_traj::{TrajId, Trajectory};
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;

use crate::{ClusterConfigError, ShardNode, ShardRouter};
use geodabs_index::batch::{default_threads, parallel_map};
use geodabs_index::engine::TopK;
use geodabs_index::{SearchOptions, SearchResult, TrajectoryIndex};

/// Statistics of one fan-out query, the quantities the sharding strategy
/// tries to minimize (Section III-A4: "a good sharding strategy tries to
/// minimize the number of shards that need to be contacted").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Distinct shards holding at least one query term.
    pub shards_contacted: usize,
    /// Distinct nodes those shards live on.
    pub nodes_contacted: usize,
    /// Candidates scanned by the contacted nodes' pruned legs, summed (a
    /// trajectory held on two contacted nodes counts twice). Admission
    /// pruning keeps it below the node-local candidate count whenever a
    /// leg freezes.
    pub candidates_scored: usize,
}

/// Merges per-shard top-k heaps into the exact global ranking.
///
/// A trajectory referenced from several nodes is scored with the same
/// full fingerprint replica everywhere, so duplicates are identical;
/// deduplicate by id, then re-rank the union under the same options.
/// Pruned legs keep this exact: each heap is the exact top-k of its
/// node's candidates, and a hit of the global top-k is a candidate of
/// some node where, under the same `(distance, id)` order, it ranks in
/// that node's top-k too.
/// [`scatter_gather`] is its one production caller, so every sharded
/// answer is bit-identical to the monolithic index by construction.
pub fn merge_heaps<I>(partials: I, options: &SearchOptions) -> Vec<SearchResult>
where
    I: IntoIterator<Item = Vec<SearchResult>>,
{
    let mut merged: Vec<SearchResult> = Vec::new();
    for heap in partials {
        merged.extend(heap);
    }
    merged.sort_by_key(|a| a.id);
    merged.dedup_by(|a, b| a.id == b.id);
    let mut topk = TopK::new(options);
    for hit in merged {
        topk.push(hit);
    }
    topk.into_sorted()
}

/// The one fan-out every deployment shape runs: route the query's terms
/// to the shards and nodes owning them, let `legs` score those nodes
/// into per-node top-k heaps — in-process [`ShardNode`]s
/// ([`ClusterIndex`]) or remote shard servers (`geodabs-serve`) — and
/// merge the heaps exactly.
///
/// # Errors
///
/// Forwards `legs`' error: a remote leg can fail, local ones cannot.
pub fn scatter_gather<E>(
    router: &ShardRouter,
    query_fp: &Fingerprints,
    options: &SearchOptions,
    legs: impl FnOnce(&[u64], &[usize]) -> Result<Vec<Vec<SearchResult>>, E>,
) -> Result<Vec<SearchResult>, E> {
    let shards = router.shards_for_terms(query_fp.distinct().iter().copied());
    let nodes = router.nodes_of_shards(&shards);
    Ok(merge_heaps(legs(&shards, &nodes)?, options))
}

/// A simulated cluster hosting a sharded geodab index: a coordinator
/// over one [`ShardNode`] per node.
///
/// Every mutation is a broadcast each node applies in order, keeping
/// only the terms routed to it; querying fans out to exactly the nodes
/// owning the query's terms (the first scored on the calling thread, any
/// further ones in parallel on scoped threads) and merges the ranked
/// partial results.
#[derive(Debug)]
pub struct ClusterIndex {
    /// Node `i` of the router's `node = shard mod n` assignment (never
    /// empty: the router rejects zero nodes).
    pub(crate) nodes: Vec<ShardNode>,
    /// Ids known to the coordinator, including trajectories too short to
    /// produce fingerprints (which no node stores).
    pub(crate) indexed: BTreeSet<TrajId>,
}

impl ClusterIndex {
    /// Creates an empty cluster index.
    ///
    /// The router's prefix depth is taken from `config.prefix_bits()` so
    /// shard routing always agrees with the fingerprints.
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterConfigError`] for zero shards/nodes.
    pub fn new(
        config: GeodabConfig,
        num_shards: u64,
        num_nodes: usize,
    ) -> Result<ClusterIndex, ClusterConfigError> {
        let router = ShardRouter::new(config.prefix_bits(), num_shards, num_nodes)?;
        Ok(ClusterIndex {
            nodes: (0..num_nodes)
                .map(|node| ShardNode::empty(config, router, node))
                .collect(),
            indexed: BTreeSet::new(),
        })
    }

    /// The shard router in use.
    pub fn router(&self) -> &ShardRouter {
        self.nodes[0].router()
    }

    /// The fingerprinting configuration in use.
    pub fn config(&self) -> &GeodabConfig {
        self.nodes[0].config()
    }

    /// Number of indexed trajectories.
    pub fn len(&self) -> usize {
        self.indexed.len()
    }

    /// Whether no trajectory has been indexed.
    pub fn is_empty(&self) -> bool {
        self.indexed.is_empty()
    }

    /// The ids of every indexed trajectory, in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = TrajId> + '_ {
        self.indexed.iter().copied()
    }

    /// Broadcasts a remove to every node; returns whether the id was
    /// indexed. Costs `O(terms of id)` on each node holding a replica of
    /// it (the replica names exactly the posting lists to scrub), one
    /// lookup on every other node.
    pub fn remove(&mut self, id: TrajId) -> bool {
        if !self.indexed.remove(&id) {
            return false;
        }
        for node in &mut self.nodes {
            node.remove(id);
        }
        true
    }

    /// Indexes a trajectory: fingerprints it once, then broadcasts the
    /// fingerprints to every node.
    pub fn insert(&mut self, id: TrajId, trajectory: &Trajectory) {
        let fp = Fingerprinter::new(*self.config()).normalize_and_fingerprint(trajectory);
        self.insert_fingerprints(id, fp);
    }

    /// Indexes a batch: trajectories are fingerprinted in parallel across
    /// `threads` scoped worker threads, then every node applies the
    /// whole batch in input order on its own scoped thread (nodes are
    /// disjoint, so no lock is ever taken). Each node sees exactly the
    /// broadcasts repeated [`ClusterIndex::insert`] calls would send, so
    /// the index — dense slots included — is the same, ids repeated
    /// within the batch included.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn insert_batch_threads(&mut self, items: &[(TrajId, &Trajectory)], threads: usize) {
        let fingerprinter = Fingerprinter::new(*self.config());
        let batch = parallel_map(items, threads, |&(id, trajectory)| {
            (id, fingerprinter.normalize_and_fingerprint(trajectory))
        });
        self.broadcast(&batch);
    }

    /// Applies `batch` in input order on every node, one scoped thread
    /// per node.
    fn broadcast(&mut self, batch: &[(TrajId, Fingerprints)]) {
        std::thread::scope(|scope| {
            for node in &mut self.nodes {
                scope.spawn(move || {
                    for (id, fp) in batch {
                        node.insert_shared(*id, fp);
                    }
                });
            }
        });
        self.indexed.extend(batch.iter().map(|&(id, _)| id));
    }

    /// Broadcasts pre-computed fingerprints to every node; each keeps
    /// the postings routed to it. Re-inserting an existing id replaces
    /// its previous fingerprints.
    pub fn insert_fingerprints(&mut self, id: TrajId, fp: Fingerprints) {
        for node in &mut self.nodes {
            node.insert_shared(id, &fp);
        }
        self.indexed.insert(id);
    }

    /// Ranked fan-out query with routing statistics.
    ///
    /// Only the nodes owning at least one query term are contacted; each
    /// contacted node scores its local candidates into a bounded top-k
    /// heap — the first on the calling thread, further legs on scoped
    /// threads — and the coordinator merges the per-shard heaps,
    /// deduplicating replicas by id, into the global ranking. Returns
    /// exactly what a monolithic [`geodabs_index::GeodabIndex`] holding
    /// the same trajectories would.
    pub fn search_with_stats(
        &self,
        query: &Trajectory,
        options: &SearchOptions,
    ) -> (Vec<SearchResult>, QueryStats) {
        let query_fp = Fingerprinter::new(*self.config()).normalize_and_fingerprint(query);
        self.search_fingerprints_with_stats(&query_fp, options)
    }

    /// Ranked fan-out query starting from pre-computed query fingerprints
    /// (the client-side-fingerprinting twin of
    /// [`ClusterIndex::insert_fingerprints`]); see
    /// [`ClusterIndex::search_with_stats`].
    pub fn search_fingerprints_with_stats(
        &self,
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> (Vec<SearchResult>, QueryStats) {
        let mut stats = QueryStats::default();
        let Ok(merged) = scatter_gather(self.router(), query_fp, options, |shards, node_ids| {
            stats.shards_contacted = shards.len();
            stats.nodes_contacted = node_ids.len();
            let leg = |&ni: &usize| self.nodes[ni].score(query_fp, options);
            let mut partials = Vec::with_capacity(node_ids.len());
            if let Some((first, rest)) = node_ids.split_first() {
                // The first contacted node — for a city-scale query the
                // only one — is scored right here, on the caller's warm
                // accumulator; only further legs cost a thread each.
                std::thread::scope(|scope| {
                    let spawned: Vec<_> = rest.iter().map(|ni| scope.spawn(|| leg(ni))).collect();
                    partials.push(leg(first));
                    for handle in spawned {
                        partials.push(handle.join().expect("scoring threads never panic"));
                    }
                });
            }
            let mut heaps: Vec<Vec<SearchResult>> = Vec::with_capacity(partials.len());
            for (heap, scored) in partials {
                heaps.push(heap);
                stats.candidates_scored += scored;
            }
            Ok::<_, Infallible>(heaps)
        });
        (merged, stats)
    }

    /// Ranked fan-out query (see [`ClusterIndex::search_with_stats`]).
    pub fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult> {
        self.search_with_stats(query, options).0
    }

    /// Ranked fan-out query from pre-computed fingerprints (see
    /// [`ClusterIndex::search_fingerprints_with_stats`]).
    pub fn search_fingerprints(
        &self,
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> Vec<SearchResult> {
        self.search_fingerprints_with_stats(query_fp, options).0
    }

    /// Re-routes every shard onto a different node count — the elastic
    /// version of the `node = shard mod n` assignment. The new nodes are
    /// built fresh by broadcasting each trajectory's replica once, in
    /// ascending id order. Queries before and after resizing return
    /// identical results; only placement changes.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterConfigError::NoNodes`] if `num_nodes` is zero.
    pub fn resize(&mut self, num_nodes: usize) -> Result<(), ClusterConfigError> {
        let mut resized = ClusterIndex::new(*self.config(), self.router().num_shards(), num_nodes)?;
        let replicas: BTreeMap<TrajId, &Fingerprints> =
            self.nodes.iter().flat_map(ShardNode::replicas).collect();
        let batch: Vec<(TrajId, Fingerprints)> = replicas
            .into_iter()
            .map(|(id, fp)| (id, fp.clone()))
            .collect();
        resized.broadcast(&batch);
        resized.indexed = std::mem::take(&mut self.indexed);
        *self = resized;
        Ok(())
    }

    /// Posting entries per node — the load balance picture of Figure 16.
    pub fn postings_per_node(&self) -> Vec<u64> {
        self.nodes.iter().map(ShardNode::posting_count).collect()
    }

    /// Distinct terms across all nodes. Each term routes to exactly one
    /// node, so the per-node counts sum without overlap.
    pub fn term_count(&self) -> usize {
        self.nodes.iter().map(ShardNode::term_count).sum()
    }

    /// Number of non-empty shards.
    pub fn active_shards(&self) -> usize {
        self.nodes.iter().map(ShardNode::shard_count).sum()
    }

    /// Clones node `node` as a standalone [`ShardNode`] — the state a
    /// remote shard server boots from. Its snapshot (backend tag 4) is
    /// the per-node warm-start artifact of the distributed deployment.
    /// Returns `None` for an out-of-range node index.
    pub fn shard_node(&self, node: usize) -> Option<ShardNode> {
        self.nodes.get(node).cloned()
    }
}

/// The cluster is itself a [`TrajectoryIndex`], so evaluation and any
/// other index-generic code runs unchanged against a sharded deployment.
/// The trait's default `insert_batch` is overridden to reuse the
/// multi-threaded batch fingerprinting path.
impl TrajectoryIndex for ClusterIndex {
    fn insert(&mut self, id: TrajId, trajectory: &Trajectory) {
        ClusterIndex::insert(self, id, trajectory);
    }

    fn remove(&mut self, id: TrajId) -> bool {
        ClusterIndex::remove(self, id)
    }

    fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult> {
        ClusterIndex::search(self, query, options)
    }

    fn len(&self) -> usize {
        ClusterIndex::len(self)
    }

    fn ids(&self) -> impl Iterator<Item = TrajId> + '_ {
        ClusterIndex::ids(self)
    }

    fn insert_batch<'a, I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (TrajId, &'a Trajectory)>,
    {
        let items: Vec<(TrajId, &Trajectory)> = items.into_iter().collect();
        ClusterIndex::insert_batch_threads(self, &items, default_threads());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_geo::Point;
    use geodabs_index::store::Persist;
    use geodabs_index::{GeodabIndex, TrajectoryIndex};

    fn start() -> Point {
        Point::new(51.5074, -0.1278).unwrap()
    }

    fn eastward(n: usize, offset_m: f64) -> Trajectory {
        (0..n)
            .map(|i| start().destination(90.0, offset_m + i as f64 * 90.0))
            .collect()
    }

    fn sample_cluster() -> ClusterIndex {
        let mut c = ClusterIndex::new(GeodabConfig::default(), 10_000, 10).unwrap();
        c.insert(TrajId::new(0), &eastward(40, 0.0));
        c.insert(TrajId::new(1), &eastward(40, 0.0).reversed());
        c.insert(TrajId::new(2), &eastward(40, 20_000.0));
        c
    }

    #[test]
    fn insert_and_counts() {
        let c = sample_cluster();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.active_shards() >= 1);
        assert_eq!(c.postings_per_node().len(), 10);
        assert!(c.postings_per_node().iter().sum::<u64>() > 0);
    }

    #[test]
    fn batch_insert_equals_sequential_insert() {
        let trajectories: Vec<Trajectory> = vec![
            eastward(40, 0.0),
            eastward(40, 0.0).reversed(),
            eastward(40, 5_000.0),
            eastward(60, 1_000.0),
            eastward(50, 2_000.0),
            eastward(45, 3_000.0),
        ];
        // Id 1 repeats: its second occurrence replaces the first, and
        // must land in the dense slot a sequential re-insert recycles.
        let ids = [0u32, 1, 2, 3, 4, 1].map(TrajId::new);
        let mut sequential = ClusterIndex::new(GeodabConfig::default(), 10_000, 10).unwrap();
        for (&id, t) in ids.iter().zip(&trajectories) {
            sequential.insert(id, t);
        }
        let items: Vec<(TrajId, &Trajectory)> = ids.into_iter().zip(&trajectories).collect();
        for threads in [1usize, 2, 4] {
            let mut batched = ClusterIndex::new(GeodabConfig::default(), 10_000, 10).unwrap();
            batched.insert_batch_threads(&items, threads);
            assert_eq!(batched.len(), sequential.len());
            assert_eq!(batched.postings_per_node(), sequential.postings_per_node());
            assert_eq!(
                batched.to_snapshot(),
                sequential.to_snapshot(),
                "{threads} threads"
            );
            for t in &trajectories {
                assert_eq!(
                    batched.search(t, &SearchOptions::default()),
                    sequential.search(t, &SearchOptions::default()),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let mut c = ClusterIndex::new(GeodabConfig::default(), 10, 2).unwrap();
        c.insert_batch_threads(&[], 0);
    }

    #[test]
    fn cluster_search_matches_monolithic_index() {
        let c = sample_cluster();
        let mut mono = GeodabIndex::new(GeodabConfig::default());
        mono.insert(TrajId::new(0), &eastward(40, 0.0));
        mono.insert(TrajId::new(1), &eastward(40, 0.0).reversed());
        mono.insert(TrajId::new(2), &eastward(40, 20_000.0));
        for query in [
            eastward(40, 0.0),
            eastward(40, 0.0).reversed(),
            eastward(40, 20_000.0),
            eastward(40, 1_000.0),
        ] {
            let cluster_hits = c.search(&query, &SearchOptions::default());
            let mono_hits = mono.search(&query, &SearchOptions::default());
            assert_eq!(cluster_hits, mono_hits, "query mismatch");
        }
    }

    #[test]
    fn local_query_touches_few_nodes() {
        let c = sample_cluster();
        let (_, stats) = c.search_with_stats(&eastward(40, 0.0), &SearchOptions::default());
        // All fingerprints of a city-scale trajectory share one 16-bit
        // cell, hence one shard and one node.
        assert_eq!(stats.shards_contacted, 1);
        assert_eq!(stats.nodes_contacted, 1);
        assert!(stats.candidates_scored >= 1);
    }

    #[test]
    fn short_query_contacts_nothing() {
        let c = sample_cluster();
        let (hits, stats) = c.search_with_stats(&eastward(3, 0.0), &SearchOptions::default());
        assert!(hits.is_empty());
        assert_eq!(stats.shards_contacted, 0);
        assert_eq!(stats.nodes_contacted, 0);
    }

    #[test]
    fn options_apply_after_merge() {
        let c = sample_cluster();
        let all = c.search(&eastward(40, 0.0), &SearchOptions::default());
        let limited = c.search(&eastward(40, 0.0), &SearchOptions::default().limit(1));
        assert_eq!(limited.len(), 1);
        assert_eq!(limited[0], all[0]);
        let tight = c.search(
            &eastward(40, 0.0),
            &SearchOptions::default().max_distance(0.2),
        );
        assert!(tight.iter().all(|h| h.distance <= 0.2));
    }

    #[test]
    fn resize_preserves_query_results() {
        let mut c = sample_cluster();
        let queries = [
            eastward(40, 0.0),
            eastward(40, 0.0).reversed(),
            eastward(40, 20_000.0),
        ];
        let before: Vec<_> = queries
            .iter()
            .map(|q| c.search(q, &SearchOptions::default()))
            .collect();
        for nodes in [3usize, 25, 1, 10] {
            c.resize(nodes).unwrap();
            assert_eq!(c.postings_per_node().len(), nodes);
            for (q, expected) in queries.iter().zip(&before) {
                assert_eq!(
                    &c.search(q, &SearchOptions::default()),
                    expected,
                    "{nodes} nodes"
                );
            }
        }
        assert!(c.resize(0).is_err());
    }

    #[test]
    fn resize_conserves_postings() {
        let mut c = sample_cluster();
        let total_before: u64 = c.postings_per_node().iter().sum();
        c.resize(4).unwrap();
        let total_after: u64 = c.postings_per_node().iter().sum();
        assert_eq!(total_before, total_after);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn single_node_cluster_works() {
        let mut c = ClusterIndex::new(GeodabConfig::default(), 1, 1).unwrap();
        c.insert(TrajId::new(0), &eastward(40, 0.0));
        let hits = c.search(&eastward(40, 0.0), &SearchOptions::default());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn invalid_configuration_errors() {
        assert!(ClusterIndex::new(GeodabConfig::default(), 0, 10).is_err());
        assert!(ClusterIndex::new(GeodabConfig::default(), 100, 0).is_err());
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The sharded fan-out (per-shard heaps merged at the
            /// coordinator) returns exactly what a monolithic index over
            /// the same fingerprints would — including after removals,
            /// re-inserts (which recycle node-local interner slots) and a
            /// resize — for any workload and options.
            #[test]
            fn cluster_equals_monolithic_on_random_fingerprints(
                sets in proptest::collection::vec(
                    proptest::collection::vec(0u32..5_000, 0..30), 1..40),
                query in proptest::collection::vec(0u32..5_000, 0..30),
                nodes in 1usize..12,
                limit in 0usize..8,
                threshold_pm in 0u32..101,
                remove_stride in 2usize..5,
                resize_to in 0usize..12,
            ) {
                let config = GeodabConfig::default();
                let mut cluster = ClusterIndex::new(config, 10_000, nodes).unwrap();
                let mut mono = GeodabIndex::new(config);
                let insert = |cluster: &mut ClusterIndex,
                              mono: &mut GeodabIndex,
                              i: usize,
                              set: &[u32]| {
                    let fp = geodabs_core::Fingerprints::from_ordered(set.to_vec());
                    cluster.insert_fingerprints(TrajId::new(i as u32), fp.clone());
                    mono.insert_fingerprints(TrajId::new(i as u32), fp);
                };
                for (i, set) in sets.iter().enumerate() {
                    insert(&mut cluster, &mut mono, i, set);
                }
                // Remove a stride of ids from both, then re-insert every
                // other removed id with a shifted set — exercising posting
                // scrubs and dense-slot recycling on both sides.
                for i in (0..sets.len()).step_by(remove_stride) {
                    cluster.remove(TrajId::new(i as u32));
                    mono.remove(TrajId::new(i as u32));
                }
                for i in (0..sets.len()).step_by(remove_stride * 2) {
                    let shifted: Vec<u32> = sets[i].iter().map(|t| t + 1).collect();
                    insert(&mut cluster, &mut mono, i, &shifted);
                }
                if resize_to > 0 {
                    cluster.resize(resize_to).unwrap();
                }
                let query_fp = geodabs_core::Fingerprints::from_ordered(query);
                let mut options =
                    SearchOptions::default().max_distance(threshold_pm as f64 / 100.0);
                if limit > 0 {
                    options = options.limit(limit - 1);
                }
                prop_assert_eq!(
                    cluster.search_fingerprints(&query_fp, &options),
                    mono.search_fingerprints(&query_fp, &options)
                );
            }
        }
    }
}
