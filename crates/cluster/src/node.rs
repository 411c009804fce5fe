//! One shard node: the per-node store of the sharded index. A
//! [`ClusterIndex`](crate::ClusterIndex) is a coordinator over one [`ShardNode`] per node;
//! a remote **shard server** hosts one on its own in the distributed
//! deployment.
//!
//! A [`ShardNode`] is the query engine's one posting store
//! ([`geodabs_index::engine::PostingLists`]) under this node's
//! **placement predicate** — a term gets a posting list here iff the
//! router sends it to this node — plus the router that predicate reads.
//! Every mutation is a broadcast of a trajectory's full fingerprints: the
//! node keeps the postings placed here, and the full replica iff at
//! least one landed. This file is the only code that asks the router
//! where a posting goes. Keeping the full replica (not the routed
//! subset) is what makes per-node scoring exact: a query term with a
//! list here is in a candidate's fingerprints iff the candidate is on
//! that list, because a node holds *every* posting of the terms it owns;
//! a term owned by **another** node — *foreign*, present when a query
//! spans nodes — is probed in the candidate's replica. A node leg runs
//! the same pruned search as the monolithic index, its admission floor
//! counting the foreign terms, so it returns the exact top-k of its own
//! candidates, and the per-node heaps merge into the same global
//! ranking the monolithic index produces (see [`crate::merge_heaps`]).
//!
//! Snapshots use backend tag 4 (`node`) and reuse the cluster
//! snapshot's per-node segment encoding:
//!
//! ```text
//! CONF   the cluster CONF, then node_id u32
//! FPRS   as in a cluster snapshot
//! NODE0  (capacity u32, Vec<(dense u32, id u32)>,
//!        Vec<(term u32, posting RoaringBitmap)>)
//! ```

use geodabs_core::{Fingerprinter, Fingerprints, GeodabConfig};
use geodabs_index::batch::{default_threads, parallel_map};
use geodabs_index::codec::put_postings;
use geodabs_index::engine::PostingLists;
use geodabs_index::store::{
    from_bytes, node_section_id, strictly_ascending, to_bytes, BackendKind, Cursor, Persist,
    SnapshotError, SnapshotReader, SnapshotWriter, Wire, SEC_CONFIG, SEC_FINGERPRINTS,
};
use geodabs_index::{SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_roaring::RoaringBitmap;
use geodabs_traj::{TrajId, Trajectory};
use std::borrow::Cow;
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
    /// The postings [`placed_on`] this node, each live slot holding its
    /// trajectory's full fingerprints.
    store: PostingLists<u32, Fingerprints>,
}

/// Node `node_id`'s placement predicate: whether `router` puts a term's
/// posting list on it.
fn placed_on(router: ShardRouter, node_id: usize) -> impl Fn(u32) -> bool {
    move |term| router.node_of_geodab(term) == node_id
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
            store: PostingLists::new(),
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
        self.store.term_count()
    }

    /// Applies an insert broadcast: `fp` is the trajectory's **full**
    /// fingerprint sequence; postings are kept only for terms routed
    /// here, and the full replica is stored iff at least one posting
    /// landed. Re-inserting an existing id replaces it.
    pub fn insert_fingerprints(&mut self, id: TrajId, fp: Fingerprints) {
        self.place(id, Cow::Owned(fp));
    }

    /// [`ShardNode::insert_fingerprints`] from a broadcast shared with
    /// the other nodes: the replica is cloned only if a posting lands.
    pub(crate) fn insert_shared(&mut self, id: TrajId, fp: &Fingerprints) {
        self.place(id, Cow::Borrowed(fp));
    }

    /// Replaces whatever `id` held by `fp`, kept iff at least one of its
    /// terms is placed here.
    fn place(&mut self, id: TrajId, fp: Cow<'_, Fingerprints>) {
        let places = placed_on(self.router, self.node_id);
        if fp.distinct().iter().copied().any(&places) {
            self.store.insert(id, fp.into_owned(), places);
        } else {
            self.store.remove(id);
        }
    }

    /// `(id, replica)` of every trajectory held here, by dense slot.
    pub(crate) fn replicas(&self) -> impl Iterator<Item = (TrajId, &Fingerprints)> {
        self.store.replicas()
    }

    /// Posting entries held here.
    pub(crate) fn posting_count(&self) -> u64 {
        let postings = self.store.postings_sorted();
        postings.iter().map(|(_, list)| list.len()).sum()
    }

    /// Distinct shards with at least one posting here.
    pub(crate) fn shard_count(&self) -> usize {
        let postings = self.store.postings_sorted();
        self.router
            .shards_for_terms(postings.iter().map(|&(term, _)| term))
            .len()
    }

    /// Node-local ranked scoring from the query's full fingerprints:
    /// the engine's pruned search over this node's posting lists, terms
    /// owned by other nodes probed in the replica, each candidate scored
    /// exactly against its full fingerprints into a bounded top-k heap —
    /// the per-shard partial the frontend merges via
    /// [`crate::merge_heaps`].
    pub fn search_fingerprints(
        &self,
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> Vec<SearchResult> {
        self.score(query_fp, options).0
    }

    /// [`ShardNode::search_fingerprints`] plus the number of candidates
    /// the pruned search scanned.
    pub(crate) fn score(
        &self,
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> (Vec<SearchResult>, usize) {
        let places = placed_on(self.router, self.node_id);
        self.store
            .search(query_fp.distinct().iter().copied(), options, places)
    }

    /// This node's snapshot segment: the interning table and the
    /// posting lists (the replicas travel once per container, in
    /// `FPRS`).
    pub(crate) fn encode_segment(&self) -> Vec<u8> {
        let capacity = self.store.interner().capacity() as u32;
        let slots = self.store.snapshot_slots().into_iter();
        let live: Vec<(u32, TrajId)> = slots.map(|(dense, id, _)| (dense, id)).collect();
        let mut out = to_bytes(&(capacity, live));
        put_postings(&mut out, &self.store);
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
        type Segment = (u32, Vec<(u32, TrajId)>, Vec<(u32, RoaringBitmap)>);
        let (capacity, live, posting_lists): Segment = from_bytes(payload)?;
        strictly_ascending(&posting_lists, "posting terms not strictly ascending")?;
        // A segment stores no set sizes: each slot claims its replica's own.
        let slots: Vec<(u32, TrajId, u32)> = live
            .into_iter()
            .map(|(dense, id)| {
                let size = fps.get(&id).map_or(0, |fp| fp.distinct_len() as u32);
                (dense, id, size)
            })
            .collect();
        let replica_of = |id| fps.get(&id).cloned();
        let places = placed_on(router, node_id);
        let store =
            PostingLists::from_snapshot_parts(capacity, &slots, replica_of, posting_lists, places)
                .map_err(SnapshotError::Corrupt)?;
        Ok(ShardNode {
            store,
            ..ShardNode::empty(config, router, node_id)
        })
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
        self.store.remove(id)
    }

    /// Fingerprints a query trajectory and scores it locally (see
    /// [`ShardNode::search_fingerprints`]).
    fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult> {
        let query_fp = self.fingerprinter.normalize_and_fingerprint(query);
        self.search_fingerprints(&query_fp, options)
    }

    /// Distinct trajectories referenced by this node's postings.
    fn len(&self) -> usize {
        self.store.len()
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
        (self.node_id as u32).put(&mut conf);
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
        let node_id = conf.get::<u32>()? as usize;
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
                cluster.nodes.iter().map(ShardNode::len).collect::<Vec<_>>(),
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
            assert_eq!(node.len(), cluster.nodes[i].len());
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
            cluster.nodes.iter().map(ShardNode::len).collect::<Vec<_>>()
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
