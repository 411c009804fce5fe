use geodabs_core::{Fingerprinter, Fingerprints, GeodabConfig};
use geodabs_roaring::RoaringBitmap;
use geodabs_traj::{TrajId, Trajectory};
use std::collections::{BTreeSet, HashMap};
use std::convert::Infallible;

use crate::{ClusterConfigError, ShardRouter};
use geodabs_index::engine::{for_each_overlap, IdInterner, TopK};
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
    /// Candidate trajectories scored across all contacted nodes.
    pub candidates_scored: usize,
}

/// Per-node storage: the posting lists of the terms routed to this node,
/// plus the full fingerprints of every trajectory those postings
/// reference (the paper stores "a reference to the trajectory bitmap" in
/// each posting entry; replication per referencing node is the
/// shared-nothing equivalent). Everything per trajectory is addressed by
/// the node-local dense slot, the value the posting bitmaps hold.
#[derive(Debug, Default, Clone)]
pub(crate) struct NodeStore {
    /// Posting lists of this node's terms, as roaring bitmaps of dense
    /// (node-locally interned) trajectory slots.
    pub(crate) postings: HashMap<u32, RoaringBitmap>,
    /// The node's `TrajId ↔ dense` interning table.
    pub(crate) interner: IdInterner,
    /// `replicas[dense]` is the full fingerprint replica of the
    /// trajectory in that slot (`None` while the slot is vacant).
    replicas: Vec<Option<Fingerprints>>,
    /// `set_sizes[dense]` is `|B|`, the distinct-term count of that
    /// replica (stale for vacant slots) — all scoring needs of it unless
    /// the query has terms on other nodes.
    set_sizes: Vec<u32>,
    /// Posting entries per shard, for balance accounting.
    pub(crate) shard_load: HashMap<u64, u64>,
}

impl NodeStore {
    /// Assembles a store from snapshot parts: `replicas` lists the live
    /// `(dense, fingerprints)` pairs of `interner`.
    pub(crate) fn from_parts(
        postings: HashMap<u32, RoaringBitmap>,
        interner: IdInterner,
        replicas: impl IntoIterator<Item = (u32, Fingerprints)>,
        shard_load: HashMap<u64, u64>,
    ) -> NodeStore {
        let mut store = NodeStore {
            postings,
            interner,
            shard_load,
            ..NodeStore::default()
        };
        for (dense, fp) in replicas {
            store.store_replica_at(dense, fp);
        }
        store
    }

    /// Adds `id` to the posting list of `term`.
    pub(crate) fn add_posting(&mut self, term: u32, id: TrajId) {
        let dense = self.interner.intern(id);
        let newly = self.postings.entry(term).or_default().insert(dense);
        debug_assert!(newly, "remove() scrubbed this id");
    }

    /// Scrubs `id` from the posting list of `term`; returns whether an
    /// entry was removed.
    pub(crate) fn remove_posting(&mut self, term: u32, id: TrajId) -> bool {
        let Some(dense) = self.interner.dense(id) else {
            return false;
        };
        let Some(list) = self.postings.get_mut(&term) else {
            return false;
        };
        let removed = list.remove(dense);
        if list.is_empty() {
            self.postings.remove(&term);
        }
        removed
    }

    /// Stores the full replica of `id`, which must already hold at least
    /// one posting here.
    pub(crate) fn store_replica(&mut self, id: TrajId, fp: Fingerprints) {
        let dense = self
            .interner
            .dense(id)
            .expect("a replica follows its postings");
        self.store_replica_at(dense, fp);
    }

    fn store_replica_at(&mut self, dense: u32, fp: Fingerprints) {
        let slot = dense as usize;
        if self.replicas.len() <= slot {
            self.replicas.resize(slot + 1, None);
            self.set_sizes.resize(slot + 1, 0);
        }
        self.set_sizes[slot] = fp.distinct_len() as u32;
        self.replicas[slot] = Some(fp);
    }

    /// Takes the replica of `id` out, leaving its slot interned for the
    /// posting scrub that follows; finish with [`NodeStore::drop_id`].
    pub(crate) fn take_replica(&mut self, id: TrajId) -> Option<Fingerprints> {
        let dense = self.interner.dense(id)?;
        self.replicas.get_mut(dense as usize)?.take()
    }

    /// Forgets `id` entirely: drops the fingerprint replica and frees its
    /// dense slot. Call after scrubbing its postings.
    pub(crate) fn drop_id(&mut self, id: TrajId) {
        if let Some(dense) = self.interner.release(id) {
            if let Some(replica) = self.replicas.get_mut(dense as usize) {
                *replica = None;
            }
        }
    }

    /// Distinct trajectories referenced by this node's postings.
    pub(crate) fn len(&self) -> usize {
        self.interner.len()
    }

    /// `(id, replica)` of every trajectory held here, by dense slot.
    pub(crate) fn replicas(&self) -> impl Iterator<Item = (TrajId, &Fingerprints)> {
        self.replicas
            .iter()
            .enumerate()
            .filter_map(|(dense, fp)| Some((self.interner.resolve(dense as u32), fp.as_ref()?)))
    }

    /// Local ranked scoring of node `node` of `router`'s cluster: the
    /// candidates are the trajectories on this node's posting lists for
    /// the query's terms, their overlaps counted term-at-a-time on the
    /// engine's accumulator ([`for_each_overlap`]) and kept in a bounded
    /// top-k heap — the per-shard heap the coordinator merges. Returns
    /// the heap and the number of candidates scored.
    ///
    /// The distances are exact against each candidate's **full**
    /// fingerprints `B`, not the routed subset: a query term with a
    /// posting list here is in `B` iff the candidate is on that list
    /// (this node holds every posting of the terms it owns); a term this
    /// node owns without a list is in no `B`; and a term owned by
    /// another node — *foreign*, only when the query spans nodes — is
    /// looked up in the candidate's replica. The counts sum to `|A ∩ B|`,
    /// and `δ = 1 − ov / (|A| + |B| − ov)` with `|B|` read per slot.
    pub(crate) fn score(
        &self,
        router: &ShardRouter,
        node: usize,
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> (Vec<SearchResult>, usize) {
        let mut local: Vec<&RoaringBitmap> = Vec::new();
        let mut foreign: Vec<u32> = Vec::new();
        for term in query_fp.set().iter() {
            match self.postings.get(&term) {
                Some(list) => local.push(list),
                None if router.node_of_geodab(term) != node => foreign.push(term),
                None => {}
            }
        }
        let qa = query_fp.distinct_len();
        let mut scored = 0usize;
        let mut topk = TopK::new(options);
        for_each_overlap(self.interner.capacity(), local, |dense, count| {
            scored += 1;
            let mut ov = count as u64;
            if !foreign.is_empty() {
                let replica = self.replicas[dense as usize]
                    .as_ref()
                    .expect("posting entries reference live replicas")
                    .set();
                ov += foreign.iter().filter(|&&t| replica.contains(t)).count() as u64;
            }
            let b = self.set_sizes[dense as usize] as u64;
            topk.push(SearchResult {
                id: self.interner.resolve(dense),
                distance: 1.0 - ov as f64 / (qa + b - ov) as f64,
            });
        });
        (topk.into_sorted(), scored)
    }
}

/// Merges per-shard top-k heaps into the exact global ranking.
///
/// A trajectory referenced from several nodes is scored with the same
/// full fingerprint replica everywhere, so duplicates are identical;
/// deduplicate by id, then re-rank the union under the same options.
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
/// into per-node top-k heaps — in-process stores ([`ClusterIndex`]),
/// copy-on-write cells or remote shard servers (`geodabs-serve`) — and
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
    let shards = router.shards_for_terms(query_fp.set().iter());
    let nodes = router.nodes_of_shards(&shards);
    Ok(merge_heaps(legs(&shards, &nodes)?, options))
}

/// A simulated cluster hosting a sharded geodab index.
///
/// Indexing routes each fingerprint to its shard's node; querying fans out
/// to exactly the nodes owning the query's terms (the first scored on the
/// calling thread, any further ones in parallel on scoped threads) and
/// merges the ranked partial results.
#[derive(Debug)]
pub struct ClusterIndex {
    pub(crate) fingerprinter: Fingerprinter,
    pub(crate) router: ShardRouter,
    pub(crate) nodes: Vec<NodeStore>,
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
            fingerprinter: Fingerprinter::new(config),
            router,
            nodes: vec![NodeStore::default(); num_nodes],
            indexed: BTreeSet::new(),
        })
    }

    /// The shard router in use.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The fingerprinting configuration in use.
    pub fn config(&self) -> &GeodabConfig {
        self.fingerprinter.config()
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

    /// Removes a trajectory from every node holding one of its postings or
    /// fingerprint replicas; returns whether the id was indexed.
    ///
    /// Costs `O(terms of id)`, not `O(postings in the cluster)`: the
    /// fingerprint replica (held by every node referencing the id) names
    /// exactly the posting lists to scrub, and the router maps each term
    /// back to the one node owning it.
    pub fn remove(&mut self, id: TrajId) -> bool {
        if !self.indexed.remove(&id) {
            return false;
        }
        // Take the first replica by value — every node holding one is
        // scrubbed below anyway, so no clone is needed.
        let Some(fp) = self.nodes.iter_mut().find_map(|node| node.take_replica(id)) else {
            // Too short to fingerprint: the coordinator knew the id, but no
            // node stores anything for it.
            return true;
        };
        for term in fp.set().iter() {
            let shard = self.router.shard_of_geodab(term);
            let node = &mut self.nodes[self.router.node_of_shard(shard)];
            if node.remove_posting(term, id) {
                if let Some(load) = node.shard_load.get_mut(&shard) {
                    *load -= 1;
                    if *load == 0 {
                        node.shard_load.remove(&shard);
                    }
                }
            }
        }
        for node in &mut self.nodes {
            node.drop_id(id);
        }
        true
    }

    /// Indexes a trajectory: fingerprints it once, then routes each
    /// geodab's posting to the node owning its shard.
    pub fn insert(&mut self, id: TrajId, trajectory: &Trajectory) {
        let fp = self.fingerprinter.normalize_and_fingerprint(trajectory);
        self.insert_fingerprints(id, fp);
    }

    /// Indexes a batch: trajectories are fingerprinted in parallel across
    /// `threads` scoped worker threads, then the postings ship to the
    /// shard nodes **concurrently** — each node applies its own slice of
    /// the batch on its own scoped thread (node stores are disjoint, so no
    /// lock is ever taken on the hot path). Produces exactly the same
    /// index as repeated [`ClusterIndex::insert`] calls, including
    /// last-occurrence-wins semantics for ids repeated within the batch.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn insert_batch_threads(&mut self, items: &[(TrajId, &Trajectory)], threads: usize) {
        let fps = geodabs_index::batch::parallel_map(items, threads, |&(id, trajectory)| {
            (id, self.fingerprinter.normalize_and_fingerprint(trajectory))
        });
        // Repeated inserts are replace-on-reinsert, so only the *last*
        // occurrence of an id in the batch survives; drop the others up
        // front (in input order, like a sequential loop would resolve it).
        let mut last_of: HashMap<TrajId, usize> = HashMap::with_capacity(fps.len());
        for (position, &(id, _)) in fps.iter().enumerate() {
            last_of.insert(id, position);
        }
        let batch: Vec<(TrajId, Fingerprints)> = fps
            .into_iter()
            .enumerate()
            .filter(|(position, (id, _))| last_of[id] == *position)
            .map(|(_, entry)| entry)
            .collect();
        // Scrub previous contents of re-inserted ids while the nodes are
        // still quiescent.
        for &(id, _) in &batch {
            self.remove(id);
        }
        // Route every posting to its node up front; `item` indexes into
        // `batch`. Per-node work lists preserve batch order, so each node
        // interns ids in exactly the order sequential inserts would.
        struct NodeWork {
            /// `(term, shard, item)` posting entries owned by this node.
            postings: Vec<(u32, u64, u32)>,
            /// Batch items whose fingerprint replica this node stores.
            replicas: Vec<u32>,
        }
        let mut work: Vec<NodeWork> = (0..self.nodes.len())
            .map(|_| NodeWork {
                postings: Vec::new(),
                replicas: Vec::new(),
            })
            .collect();
        for (item, (_, fp)) in batch.iter().enumerate() {
            let item = item as u32;
            for term in fp.set().iter() {
                let shard = self.router.shard_of_geodab(term);
                let node_work = &mut work[self.router.node_of_shard(shard)];
                node_work.postings.push((term, shard, item));
                if node_work.replicas.last() != Some(&item) {
                    node_work.replicas.push(item);
                }
            }
        }
        // Ship concurrently: one scoped thread per node with work, each
        // holding a disjoint `&mut NodeStore`.
        std::thread::scope(|scope| {
            for (node, node_work) in self.nodes.iter_mut().zip(&work) {
                if node_work.postings.is_empty() {
                    continue;
                }
                let batch = &batch;
                scope.spawn(move || {
                    for &(term, shard, item) in &node_work.postings {
                        node.add_posting(term, batch[item as usize].0);
                        *node.shard_load.entry(shard).or_insert(0) += 1;
                    }
                    for &item in &node_work.replicas {
                        let (id, fp) = &batch[item as usize];
                        node.store_replica(*id, fp.clone());
                    }
                });
            }
        });
        for &(id, _) in &batch {
            self.indexed.insert(id);
        }
    }

    /// Routes pre-computed fingerprints to the nodes owning their shards.
    /// Re-inserting an existing id replaces its previous fingerprints.
    pub fn insert_fingerprints(&mut self, id: TrajId, fp: Fingerprints) {
        self.remove(id);
        let mut touched: Vec<usize> = Vec::new();
        for term in fp.set().iter() {
            let shard = self.router.shard_of_geodab(term);
            let node_idx = self.router.node_of_shard(shard);
            let node = &mut self.nodes[node_idx];
            node.add_posting(term, id);
            *node.shard_load.entry(shard).or_insert(0) += 1;
            if !touched.contains(&node_idx) {
                touched.push(node_idx);
            }
        }
        for node_idx in touched {
            self.nodes[node_idx].store_replica(id, fp.clone());
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
        let query_fp = self.fingerprinter.normalize_and_fingerprint(query);
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
        let Ok(merged) = scatter_gather(&self.router, query_fp, options, |shards, node_ids| {
            stats.shards_contacted = shards.len();
            stats.nodes_contacted = node_ids.len();
            let leg = |&ni: &usize| self.nodes[ni].score(&self.router, ni, query_fp, options);
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

    /// Re-routes every shard onto a different node count, migrating
    /// posting lists and fingerprint replicas — the elastic version of
    /// the `node = shard mod n` assignment. Queries before and after
    /// resizing return identical results; only placement changes.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterConfigError::NoNodes`] if `num_nodes` is zero.
    pub fn resize(&mut self, num_nodes: usize) -> Result<(), ClusterConfigError> {
        let new_router = ShardRouter::new(
            self.router.prefix_bits(),
            self.router.num_shards(),
            num_nodes,
        )?;
        let mut new_nodes = vec![NodeStore::default(); num_nodes];
        for node in self.nodes.drain(..) {
            let NodeStore {
                postings,
                interner,
                replicas,
                ..
            } = node;
            for (term, list) in postings {
                let shard = new_router.shard_of_geodab(term);
                let target = &mut new_nodes[new_router.node_of_shard(shard)];
                for dense in list.iter() {
                    let id = interner.resolve(dense);
                    let target_dense = target.interner.intern(id);
                    if target
                        .postings
                        .entry(term)
                        .or_default()
                        .insert(target_dense)
                    {
                        *target.shard_load.entry(shard).or_insert(0) += 1;
                        // The fingerprint replica follows its postings.
                        if !matches!(target.replicas.get(target_dense as usize), Some(Some(_))) {
                            let replica = replicas[dense as usize]
                                .clone()
                                .expect("posting entries reference live replicas");
                            target.store_replica_at(target_dense, replica);
                        }
                    }
                }
            }
        }
        self.router = new_router;
        self.nodes = new_nodes;
        Ok(())
    }

    /// Posting entries per node — the load balance picture of Figure 16.
    pub fn postings_per_node(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| n.shard_load.values().sum())
            .collect()
    }

    /// Distinct trajectories referenced per node.
    pub fn trajectories_per_node(&self) -> Vec<usize> {
        self.nodes.iter().map(NodeStore::len).collect()
    }

    /// Number of non-empty shards.
    pub fn active_shards(&self) -> usize {
        self.nodes.iter().map(|n| n.shard_load.len()).sum()
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
        let threads = geodabs_index::batch::default_threads();
        ClusterIndex::insert_batch_threads(self, &items, threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_geo::Point;
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
        ];
        let mut sequential = ClusterIndex::new(GeodabConfig::default(), 10_000, 10).unwrap();
        for (i, t) in trajectories.iter().enumerate() {
            sequential.insert(TrajId::new(i as u32), t);
        }
        let items: Vec<(TrajId, &Trajectory)> = trajectories
            .iter()
            .enumerate()
            .map(|(i, t)| (TrajId::new(i as u32), t))
            .collect();
        for threads in [1usize, 2, 4] {
            let mut batched = ClusterIndex::new(GeodabConfig::default(), 10_000, 10).unwrap();
            batched.insert_batch_threads(&items, threads);
            assert_eq!(batched.len(), sequential.len());
            assert_eq!(batched.postings_per_node(), sequential.postings_per_node());
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
