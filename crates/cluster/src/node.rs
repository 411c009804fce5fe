//! One shard node: the per-node store of the sharded index. A
//! [`ClusterIndex`](crate::ClusterIndex) is a coordinator over one [`ShardNode`] per node;
//! a remote **shard server** hosts one on its own in the distributed
//! deployment.
//!
//! A [`ShardNode`] holds the posting lists of every term routed to this
//! node, plus — per node-local dense slot — the **full** fingerprint
//! replica of every trajectory those postings reference and its size
//! `|B|`. Every mutation is a broadcast of a trajectory's full
//! fingerprints: the node keeps only the postings routed to it, and the
//! replica iff at least one landed. This type is the only code that
//! places or scrubs a posting. Keeping the full replica (not the routed
//! subset) is what makes per-shard scoring exact. A node counts overlaps
//! term-at-a-time over its local posting lists on the query engine's
//! per-thread accumulator ([`geodabs_index::engine::for_each_overlap`];
//! 4 B × slot capacity, retained by each searching thread): a query term
//! with a list here is in a candidate's fingerprints iff the candidate is
//! on that list, because a node holds *every* posting of the terms it
//! owns. Only terms owned by **other** nodes — present when a query spans
//! nodes — need the replica, one `contains` probe each. Either way the
//! count is the candidate's exact `|A ∩ B|` against its complete
//! fingerprint set, `δ = 1 − ov/(|A| + |B| − ov)` follows in O(1), and
//! the per-shard top-k heaps merge into the same global ranking the
//! monolithic index produces (see [`crate::merge_heaps`]).
//!
//! Snapshots use backend tag 4 (`node`) and reuse the cluster
//! snapshot's per-node segment encoding:
//!
//! ```text
//! CONF   depth u8, prefix u8, k u32, t u32,
//!        num_shards u64, num_nodes u32, node_id u32
//! FPRS   count u32, count × (id u32, len u32, len × geodab u32)
//! NODE0  capacity u32, live u32, live × (dense u32, id u32)
//!        terms u32, terms × (term u32, posting bitmap wire form)
//! ```

use geodabs_core::{Fingerprinter, Fingerprints, GeodabConfig};
use geodabs_index::batch::{default_threads, parallel_map};
use geodabs_index::codec::{read_postings, write_postings};
use geodabs_index::engine::{for_each_overlap, IdInterner, TopK};
use geodabs_index::store::{
    node_section_id, BackendKind, Cursor, Persist, SnapshotError, SnapshotReader, SnapshotWriter,
    SEC_CONFIG, SEC_FINGERPRINTS,
};
use geodabs_index::{SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_roaring::RoaringBitmap;
use geodabs_traj::{TrajId, Trajectory};
use std::collections::HashMap;

use crate::snapshot::{decode_conf, decode_fingerprints, encode_conf, encode_fingerprints};
use crate::{ClusterConfigError, ShardRouter};

/// One cluster node: the posting lists of the terms routed to it plus
/// the full fingerprints of every trajectory those postings reference
/// (the paper stores "a reference to the trajectory bitmap" in each
/// posting entry; replication per referencing node is the shared-nothing
/// equivalent).
///
/// Mutations take the **full** fingerprint sequence of a trajectory
/// (the coordinator or frontend broadcasts it to every node) and keep
/// only the locally routed postings — plus the full replica whenever at
/// least one posting lands here. Queries score the node-local candidates
/// into a bounded top-k heap, the per-shard partial the coordinator
/// merges.
#[derive(Debug, Clone)]
pub struct ShardNode {
    fingerprinter: Fingerprinter,
    router: ShardRouter,
    node_id: usize,
    /// Posting lists of this node's terms, as roaring bitmaps of dense
    /// (node-locally interned) trajectory slots.
    postings: HashMap<u32, RoaringBitmap>,
    /// The node's `TrajId ↔ dense` interning table.
    interner: IdInterner,
    /// `replicas[dense]` is the full fingerprint replica of the
    /// trajectory in that slot (`None` while the slot is vacant).
    replicas: Vec<Option<Fingerprints>>,
    /// `set_sizes[dense]` is `|B|`, the distinct-term count of that
    /// replica (stale for vacant slots) — all scoring needs of it unless
    /// the query has terms on other nodes.
    set_sizes: Vec<u32>,
}

impl ShardNode {
    /// Creates the empty node `node_id` of a cluster with `num_shards`
    /// shards over `num_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterConfigError`] for zero shards/nodes or a node
    /// id outside `0..num_nodes`.
    pub fn new(
        config: GeodabConfig,
        num_shards: u64,
        num_nodes: usize,
        node_id: usize,
    ) -> Result<ShardNode, ClusterConfigError> {
        let router = ShardRouter::new(config.prefix_bits(), num_shards, num_nodes)?;
        if node_id >= num_nodes {
            return Err(ClusterConfigError::NodeIdOutOfRange { node_id, num_nodes });
        }
        Ok(ShardNode::empty(config, router, node_id))
    }

    /// The empty node `node_id` of `router`'s cluster.
    pub(crate) fn empty(config: GeodabConfig, router: ShardRouter, node_id: usize) -> ShardNode {
        ShardNode {
            fingerprinter: Fingerprinter::new(config),
            router,
            node_id,
            postings: HashMap::new(),
            interner: IdInterner::new(),
            replicas: Vec::new(),
            set_sizes: Vec::new(),
        }
    }

    /// The shard router in use (shared verbatim by every node and the
    /// frontend — routing disagreements would silently drop postings).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The fingerprinting configuration in use.
    pub fn config(&self) -> &GeodabConfig {
        self.fingerprinter.config()
    }

    /// This node's id within the cluster.
    pub fn node_id(&self) -> usize {
        self.node_id
    }

    /// Distinct terms with a posting list on this node.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Applies an insert broadcast: `fp` is the trajectory's **full**
    /// fingerprint sequence; postings are kept only for terms routed
    /// here, and the full replica is stored iff at least one posting
    /// landed. Re-inserting an existing id replaces it.
    pub fn insert_fingerprints(&mut self, id: TrajId, fp: Fingerprints) {
        if let Some(dense) = self.place(id, &fp) {
            self.store_replica(dense, fp);
        }
    }

    /// [`ShardNode::insert_fingerprints`] from a broadcast shared with
    /// the other nodes: the replica is cloned only if a posting lands.
    pub(crate) fn insert_shared(&mut self, id: TrajId, fp: &Fingerprints) {
        if let Some(dense) = self.place(id, fp) {
            self.store_replica(dense, fp.clone());
        }
    }

    /// Replaces `id`'s postings here by those of the terms of `fp` this
    /// node owns; returns `id`'s dense slot iff at least one landed.
    fn place(&mut self, id: TrajId, fp: &Fingerprints) -> Option<u32> {
        self.remove(id);
        let mut dense = None;
        for term in fp.set().iter() {
            if !self.owns(term) {
                continue;
            }
            let slot = *dense.get_or_insert_with(|| self.interner.intern(id));
            let newly = self.postings.entry(term).or_default().insert(slot);
            debug_assert!(newly, "remove() scrubbed this id");
        }
        dense
    }

    /// Whether the router places `term`'s posting list on this node.
    fn owns(&self, term: u32) -> bool {
        self.router.node_of_geodab(term) == self.node_id
    }

    fn store_replica(&mut self, dense: u32, fp: Fingerprints) {
        let slot = dense as usize;
        if self.replicas.len() <= slot {
            self.replicas.resize(slot + 1, None);
            self.set_sizes.resize(slot + 1, 0);
        }
        self.set_sizes[slot] = fp.distinct_len() as u32;
        self.replicas[slot] = Some(fp);
    }

    /// `(id, replica)` of every trajectory held here, by dense slot.
    pub(crate) fn replicas(&self) -> impl Iterator<Item = (TrajId, &Fingerprints)> {
        self.replicas
            .iter()
            .enumerate()
            .filter_map(|(dense, fp)| Some((self.interner.resolve(dense as u32), fp.as_ref()?)))
    }

    /// Posting entries held here.
    pub(crate) fn posting_count(&self) -> u64 {
        self.postings.values().map(RoaringBitmap::len).sum()
    }

    /// Distinct shards with at least one posting here.
    pub(crate) fn shard_count(&self) -> usize {
        self.router
            .shards_for_terms(self.postings.keys().copied())
            .len()
    }

    /// Node-local ranked scoring from the query's full fingerprints:
    /// candidates are the trajectories on this node's posting lists for
    /// the query terms, their overlaps counted term-at-a-time (terms
    /// owned by other nodes probed in the replica) and scored exactly
    /// against their full fingerprints into a bounded top-k heap — the
    /// per-shard partial the frontend merges via [`crate::merge_heaps`].
    pub fn search_fingerprints(
        &self,
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> Vec<SearchResult> {
        self.score(query_fp, options).0
    }

    /// [`ShardNode::search_fingerprints`] plus the number of candidates
    /// scored.
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
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> (Vec<SearchResult>, usize) {
        let mut local: Vec<&RoaringBitmap> = Vec::new();
        let mut foreign: Vec<u32> = Vec::new();
        for term in query_fp.set().iter() {
            match self.postings.get(&term) {
                Some(list) => local.push(list),
                None if !self.owns(term) => foreign.push(term),
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

    /// This node's snapshot segment: the interning table and the
    /// posting lists (the replicas travel once per container, in
    /// `FPRS`).
    pub(crate) fn encode_segment(&self) -> Vec<u8> {
        let live = self.interner.live_slots();
        let mut out = Vec::with_capacity(12 + 8 * live.len());
        out.extend_from_slice(&(self.interner.capacity() as u32).to_le_bytes());
        out.extend_from_slice(&(live.len() as u32).to_le_bytes());
        for &(dense, id) in &live {
            out.extend_from_slice(&dense.to_le_bytes());
            out.extend_from_slice(&id.raw().to_le_bytes());
        }
        let mut postings: Vec<(u32, &RoaringBitmap)> = self
            .postings
            .iter()
            .map(|(&term, list)| (term, list))
            .collect();
        postings.sort_unstable_by_key(|&(term, _)| term);
        write_postings(&mut out, &postings);
        out
    }

    /// Materializes node `node_id` of `router`'s cluster from its
    /// snapshot segment, each live slot's replica taken from `fps`.
    pub(crate) fn decode_segment(
        config: GeodabConfig,
        router: ShardRouter,
        node_id: usize,
        payload: &[u8],
        fps: &HashMap<TrajId, Fingerprints>,
    ) -> Result<ShardNode, SnapshotError> {
        let mut node = ShardNode::empty(config, router, node_id);
        let mut cursor = Cursor::new(payload);
        let capacity = cursor.u32()?;
        let live_count = cursor.u32()? as usize;
        let mut live = Vec::with_capacity(live_count.min(cursor.remaining() / 8));
        for _ in 0..live_count {
            let dense = cursor.u32()?;
            let id = TrajId::new(cursor.u32()?);
            live.push((dense, id));
        }
        node.interner =
            IdInterner::from_live_slots(capacity, &live).map_err(SnapshotError::Corrupt)?;
        for &(dense, id) in &live {
            let Some(fp) = fps.get(&id) else {
                return Err(SnapshotError::Corrupt(
                    "node references unknown fingerprints",
                ));
            };
            node.store_replica(dense, fp.clone());
        }
        let live_bitmap: RoaringBitmap = live.iter().map(|&(dense, _)| dense).collect();
        let posting_lists = read_postings::<u32>(&mut cursor)?;
        cursor.expect_end()?;
        node.postings.reserve(posting_lists.len());
        for (term, list) in posting_lists {
            if list.is_empty() {
                return Err(SnapshotError::Corrupt("empty posting list"));
            }
            // Count the live overlap without materializing the
            // intersection: every posting entry must be a live slot.
            if list.intersection_len(&live_bitmap) != list.len() {
                return Err(SnapshotError::Corrupt("posting references a vacant slot"));
            }
            if !node.owns(term) {
                return Err(SnapshotError::Corrupt("posting routed to the wrong node"));
            }
            // Ascending-term order (checked by the reader) rules out
            // duplicates, so this insert never replaces.
            node.postings.insert(term, list);
        }
        Ok(node)
    }
}

/// A node is a [`TrajectoryIndex`] over its slice, so a shard server
/// hosts it through the same trait as every other backend.
impl TrajectoryIndex for ShardNode {
    /// Fingerprints a trajectory and keeps this node's slice — what a
    /// shard server does when it ingests a corpus directly (every node
    /// ingests the same corpus; each keeps only its routed postings).
    fn insert(&mut self, id: TrajId, trajectory: &Trajectory) {
        let fp = self.fingerprinter.normalize_and_fingerprint(trajectory);
        self.insert_fingerprints(id, fp);
    }

    /// Applies a remove broadcast; returns whether this node held
    /// anything for `id`. The local replica names exactly the posting
    /// lists to scrub — no coordinator bookkeeping is needed.
    fn remove(&mut self, id: TrajId) -> bool {
        let Some(dense) = self.interner.release(id) else {
            return false;
        };
        let fp = self.replicas[dense as usize]
            .take()
            .expect("an interned id holds its replica");
        // Only terms this node owns have a list here.
        for term in fp.set().iter() {
            if let Some(list) = self.postings.get_mut(&term) {
                list.remove(dense);
                if list.is_empty() {
                    self.postings.remove(&term);
                }
            }
        }
        true
    }

    /// Fingerprints a query trajectory and scores it locally (see
    /// [`ShardNode::search_fingerprints`]).
    fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult> {
        let query_fp = self.fingerprinter.normalize_and_fingerprint(query);
        self.search_fingerprints(&query_fp, options)
    }

    /// Distinct trajectories referenced by this node's postings.
    fn len(&self) -> usize {
        self.interner.len()
    }

    /// The ids holding a replica on this node, ascending.
    fn ids(&self) -> impl Iterator<Item = TrajId> + '_ {
        let mut ids: Vec<TrajId> = self.replicas().map(|(id, _)| id).collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Ingests a corpus directly: fingerprints it across worker threads,
    /// then applies it in input order — the same per-node apply a
    /// [`ClusterIndex`](crate::ClusterIndex) batch runs, so the node ends up byte-identical
    /// to the matching [`ClusterIndex::shard_node`](crate::ClusterIndex::shard_node) slice.
    fn insert_batch<'a, I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (TrajId, &'a Trajectory)>,
    {
        let items: Vec<(TrajId, &Trajectory)> = items.into_iter().collect();
        let fingerprinter = self.fingerprinter;
        let batch = parallel_map(&items, default_threads(), |&(id, trajectory)| {
            (id, fingerprinter.normalize_and_fingerprint(trajectory))
        });
        for (id, fp) in batch {
            self.insert_fingerprints(id, fp);
        }
    }
}

impl Persist for ShardNode {
    fn to_snapshot(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new(BackendKind::Node);
        let mut conf = encode_conf(self.config(), &self.router);
        conf.extend_from_slice(&(self.node_id as u32).to_le_bytes());
        writer.section(SEC_CONFIG, conf);
        writer.section(SEC_FINGERPRINTS, encode_fingerprints(self.replicas()));
        writer.section(node_section_id(0), self.encode_segment());
        writer.finish()
    }

    fn from_snapshot(data: &[u8]) -> Result<ShardNode, SnapshotError> {
        let reader = SnapshotReader::parse(data)?;
        reader.expect_backend(BackendKind::Node)?;

        let mut conf = Cursor::new(reader.section(SEC_CONFIG)?);
        let (config, router) = decode_conf(&mut conf)?;
        let node_id = conf.u32()? as usize;
        conf.expect_end()?;
        if node_id >= router.num_nodes() {
            return Err(SnapshotError::Corrupt("node id out of range"));
        }
        let replicas = decode_fingerprints(reader.section(SEC_FINGERPRINTS)?)?;
        let node = ShardNode::decode_segment(
            config,
            router,
            node_id,
            reader.section(node_section_id(0))?,
            &replicas,
        )?;
        if node.len() != replicas.len() {
            return Err(SnapshotError::Corrupt("fingerprints for an unindexed id"));
        }
        Ok(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterIndex;
    use geodabs_geo::Point;

    fn eastward(n: usize, offset_m: f64) -> Trajectory {
        let start = Point::new(51.5074, -0.1278).unwrap();
        (0..n)
            .map(|i| start.destination(90.0, offset_m + i as f64 * 90.0))
            .collect()
    }

    fn sample_cluster(nodes: usize) -> ClusterIndex {
        let mut c = ClusterIndex::new(GeodabConfig::default(), 10_000, nodes).unwrap();
        c.insert(TrajId::new(0), &eastward(40, 0.0));
        c.insert(TrajId::new(1), &eastward(40, 0.0).reversed());
        c.insert(TrajId::new(2), &eastward(40, 20_000.0));
        c.insert(TrajId::new(3), &eastward(60, 400_000.0));
        c
    }

    #[test]
    fn construction_validates() {
        assert!(ShardNode::new(GeodabConfig::default(), 100, 4, 3).is_ok());
        assert_eq!(
            ShardNode::new(GeodabConfig::default(), 100, 4, 4).err(),
            Some(ClusterConfigError::NodeIdOutOfRange {
                node_id: 4,
                num_nodes: 4
            })
        );
        assert!(ShardNode::new(GeodabConfig::default(), 0, 4, 0).is_err());
    }

    /// Standalone nodes fed the full corpus hold exactly the slices an
    /// in-process cluster routes to its nodes, and their merged
    /// per-shard heaps equal the cluster's (hence the monolithic
    /// index's) ranking.
    #[test]
    fn standalone_nodes_reproduce_the_cluster_partition() {
        for num_nodes in [1usize, 2, 4] {
            let cluster = sample_cluster(num_nodes);
            let mut nodes: Vec<ShardNode> = (0..num_nodes)
                .map(|i| ShardNode::new(GeodabConfig::default(), 10_000, num_nodes, i).unwrap())
                .collect();
            for (id, trajectory) in [
                (0, eastward(40, 0.0)),
                (1, eastward(40, 0.0).reversed()),
                (2, eastward(40, 20_000.0)),
                (3, eastward(60, 400_000.0)),
            ] {
                for node in &mut nodes {
                    node.insert(TrajId::new(id), &trajectory);
                }
            }
            assert_eq!(
                nodes.iter().map(ShardNode::len).collect::<Vec<_>>(),
                cluster.trajectories_per_node(),
                "{num_nodes} nodes"
            );
            for query in [
                eastward(40, 0.0),
                eastward(40, 0.0).reversed(),
                eastward(40, 1_000.0),
                eastward(60, 400_000.0),
            ] {
                let options = SearchOptions::default();
                let merged =
                    crate::merge_heaps(nodes.iter().map(|n| n.search(&query, &options)), &options);
                assert_eq!(
                    merged,
                    cluster.search(&query, &options),
                    "{num_nodes} nodes"
                );
            }
        }
    }

    #[test]
    fn shard_node_clones_the_cluster_slice() {
        let cluster = sample_cluster(3);
        for i in 0..3 {
            let node = cluster.shard_node(i).expect("in range");
            assert_eq!(node.node_id(), i);
            assert_eq!(node.len(), cluster.trajectories_per_node()[i]);
        }
        assert!(cluster.shard_node(3).is_none());
    }

    #[test]
    fn mutations_mirror_the_cluster() {
        let mut cluster = sample_cluster(2);
        let mut nodes: Vec<ShardNode> = (0..2).map(|i| cluster.shard_node(i).unwrap()).collect();
        // Replace one id and remove another, through the broadcast path.
        let replacement = self::eastward(50, 700.0);
        let fp =
            Fingerprinter::new(GeodabConfig::default()).normalize_and_fingerprint(&replacement);
        cluster.insert_fingerprints(TrajId::new(1), fp.clone());
        for node in &mut nodes {
            node.insert_fingerprints(TrajId::new(1), fp.clone());
        }
        cluster.remove(TrajId::new(0));
        for node in &mut nodes {
            node.remove(TrajId::new(0));
        }
        assert_eq!(
            nodes.iter().map(ShardNode::len).collect::<Vec<_>>(),
            cluster.trajectories_per_node()
        );
        let options = SearchOptions::default();
        for query in [eastward(40, 0.0), replacement.clone()] {
            let merged =
                crate::merge_heaps(nodes.iter().map(|n| n.search(&query, &options)), &options);
            assert_eq!(merged, cluster.search(&query, &options));
        }
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.to_snapshot(),
                cluster.shard_node(i).unwrap().to_snapshot(),
                "node {i}"
            );
        }
    }

    /// A shard server ingesting the whole corpus itself ends up
    /// byte-identical to its slice of a cluster built from that corpus.
    #[test]
    fn batch_ingest_equals_the_cluster_slice() {
        let trajectories = [
            eastward(40, 0.0),
            eastward(40, 0.0).reversed(),
            eastward(40, 20_000.0),
            eastward(60, 400_000.0),
            eastward(45, 600.0),
        ];
        let ids = [3u32, 1, 4, 1, 5].map(TrajId::new);
        let items: Vec<(TrajId, &Trajectory)> = ids.into_iter().zip(&trajectories).collect();
        let mut cluster = ClusterIndex::new(GeodabConfig::default(), 10_000, 3).unwrap();
        cluster.insert_batch(items.clone());
        for i in 0..3 {
            let mut node = ShardNode::new(GeodabConfig::default(), 10_000, 3, i).unwrap();
            node.insert_batch(items.clone());
            assert_eq!(
                node.to_snapshot(),
                cluster.shard_node(i).unwrap().to_snapshot(),
                "node {i}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrips_and_is_deterministic() {
        let cluster = sample_cluster(3);
        for i in 0..3 {
            let node = cluster.shard_node(i).unwrap();
            let bytes = node.to_snapshot();
            assert_eq!(bytes, node.to_snapshot(), "deterministic");
            let restored = ShardNode::from_snapshot(&bytes).expect("roundtrip");
            assert_eq!(restored.node_id(), node.node_id());
            assert_eq!(restored.len(), node.len());
            assert_eq!(restored.term_count(), node.term_count());
            assert_eq!(restored.to_snapshot(), bytes, "stable across a roundtrip");
            let options = SearchOptions::default();
            for query in [eastward(40, 0.0), eastward(40, 20_000.0)] {
                assert_eq!(
                    restored.search(&query, &options),
                    node.search(&query, &options)
                );
            }
        }
    }

    #[test]
    fn restored_nodes_remain_mutable() {
        let cluster = sample_cluster(2);
        let mut nodes: Vec<ShardNode> = (0..2)
            .map(|i| {
                ShardNode::from_snapshot(&cluster.shard_node(i).unwrap().to_snapshot())
                    .expect("roundtrip")
            })
            .collect();
        let trajectory = eastward(45, 300.0);
        for node in &mut nodes {
            node.insert(TrajId::new(77), &trajectory);
            node.remove(TrajId::new(77));
            node.insert(TrajId::new(78), &trajectory);
        }
        let options = SearchOptions::default();
        let merged = crate::merge_heaps(
            nodes.iter().map(|n| n.search(&trajectory, &options)),
            &options,
        );
        assert!(merged.iter().any(|h| h.id == TrajId::new(78)));
        assert!(!merged.iter().any(|h| h.id == TrajId::new(77)));
    }

    #[test]
    fn wrong_backend_and_corruption_are_rejected() {
        assert!(matches!(
            ShardNode::from_snapshot(b"garbage"),
            Err(SnapshotError::BadMagic)
        ));
        let cluster_bytes = sample_cluster(2).to_snapshot();
        assert!(matches!(
            ShardNode::from_snapshot(&cluster_bytes),
            Err(SnapshotError::WrongBackend { .. })
        ));
        // A node id beyond the node count is structural corruption.
        let node = sample_cluster(2).shard_node(1).unwrap();
        let bytes = node.to_snapshot();
        let reader = SnapshotReader::parse(&bytes).unwrap();
        let mut writer = SnapshotWriter::new(BackendKind::Node);
        for &(id, payload) in reader.sections() {
            let mut payload = payload.to_vec();
            if id == SEC_CONFIG {
                let len = payload.len();
                payload[len - 4..].copy_from_slice(&9u32.to_le_bytes());
            }
            writer.section(id, payload);
        }
        assert!(matches!(
            ShardNode::from_snapshot(&writer.finish()),
            Err(SnapshotError::Corrupt("node id out of range"))
        ));
    }

    /// The empty-fingerprint broadcast (a too-short trajectory) leaves
    /// every node untouched.
    #[test]
    fn empty_fingerprints_store_nothing() {
        let mut node = ShardNode::new(GeodabConfig::default(), 100, 2, 0).unwrap();
        node.insert(TrajId::new(5), &eastward(2, 0.0));
        assert!(node.is_empty());
        assert!(!node.remove(TrajId::new(5)));
    }
}
