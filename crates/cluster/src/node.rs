//! A standalone shard node: one [`ClusterIndex`] node's slice of the
//! index, hosted on its own — the state a remote **shard server**
//! carries in the distributed deployment.
//!
//! A [`ShardNode`] holds exactly what a [`NodeStore`] inside a
//! [`ClusterIndex`] holds: the posting lists of every term routed to
//! this node, plus — per node-local dense slot — the **full**
//! fingerprint replica of every trajectory those postings reference and
//! its size `|B|`. Keeping the full replica (not the routed subset) is
//! what makes per-shard scoring exact. A node counts overlaps
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
use geodabs_index::codec::{read_sequences, write_sequences};
use geodabs_index::store::{
    node_section_id, BackendKind, Cursor, Persist, SnapshotError, SnapshotReader, SnapshotWriter,
    MAX_NODE_SECTIONS, SEC_CONFIG, SEC_FINGERPRINTS,
};
use geodabs_index::{SearchOptions, SearchResult, TrajectoryIndex};
use geodabs_traj::{TrajId, Trajectory};
use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::cluster::NodeStore;
use crate::snapshot::{decode_node, encode_node};
use crate::{ClusterConfigError, ClusterIndex, ShardRouter};

/// One cluster node hosted standalone, as a remote shard server does.
///
/// Mutations take the **full** fingerprint sequence of a trajectory
/// (the frontend broadcasts it to every shard) and keep only the
/// locally routed postings — plus the full replica whenever at least
/// one posting lands here. Queries score the node-local candidates into
/// a bounded top-k heap, the per-shard partial the frontend merges.
#[derive(Debug, Clone)]
pub struct ShardNode {
    fingerprinter: Fingerprinter,
    router: ShardRouter,
    node_id: usize,
    store: NodeStore,
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
        Ok(ShardNode {
            fingerprinter: Fingerprinter::new(config),
            router,
            node_id,
            store: NodeStore::default(),
        })
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
        self.store.postings.len()
    }

    /// Applies an insert broadcast from the frontend: `fp` is the
    /// trajectory's **full** fingerprint sequence; postings are kept
    /// only for terms routed here, and the full replica is stored iff
    /// at least one posting landed. Replace-on-reinsert, like
    /// [`ClusterIndex::insert_fingerprints`].
    pub fn insert_fingerprints(&mut self, id: TrajId, fp: Fingerprints) {
        self.remove(id);
        let mut touched = false;
        for term in fp.set().iter() {
            let shard = self.router.shard_of_geodab(term);
            if self.router.node_of_shard(shard) != self.node_id {
                continue;
            }
            self.store.add_posting(term, id);
            *self.store.shard_load.entry(shard).or_insert(0) += 1;
            touched = true;
        }
        if touched {
            self.store.store_replica(id, fp);
        }
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
        self.store
            .score(&self.router, self.node_id, query_fp, options)
            .0
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

    /// Applies a remove broadcast from the frontend; returns whether
    /// this node held anything for `id`. The local replica names
    /// exactly the posting lists to scrub — no coordinator bookkeeping
    /// is needed.
    fn remove(&mut self, id: TrajId) -> bool {
        let Some(fp) = self.store.take_replica(id) else {
            return false;
        };
        for term in fp.set().iter() {
            let shard = self.router.shard_of_geodab(term);
            if self.router.node_of_shard(shard) != self.node_id {
                continue;
            }
            if self.store.remove_posting(term, id) {
                if let Some(load) = self.store.shard_load.get_mut(&shard) {
                    *load -= 1;
                    if *load == 0 {
                        self.store.shard_load.remove(&shard);
                    }
                }
            }
        }
        self.store.drop_id(id);
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
        self.store.len()
    }

    /// The ids holding a replica on this node, ascending.
    fn ids(&self) -> impl Iterator<Item = TrajId> + '_ {
        let mut ids: Vec<TrajId> = self.store.replicas().map(|(id, _)| id).collect();
        ids.sort_unstable();
        ids.into_iter()
    }
}

impl ClusterIndex {
    /// Clones node `node`'s slice of this cluster as a standalone
    /// [`ShardNode`] — the state a remote shard server boots from. Its
    /// snapshot (backend tag 4) is the per-node warm-start artifact of
    /// the distributed deployment. Returns `None` for an out-of-range
    /// node index.
    pub fn shard_node(&self, node: usize) -> Option<ShardNode> {
        let store = self.nodes.get(node)?.clone();
        Some(ShardNode {
            fingerprinter: self.fingerprinter,
            router: self.router,
            node_id: node,
            store,
        })
    }

    /// Reassembles a cluster from the standalone node slices of one
    /// deployment — the inverse of [`ClusterIndex::shard_node`] over
    /// every node. `indexed` is the coordinator's id set, passed
    /// explicitly because it also records ids whose fingerprint set is
    /// empty (indexed but unreachable by any query), which no node
    /// replica remembers.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, if node `i`'s `node_id` is not `i`,
    /// if the nodes disagree on config or router shape, or if a node
    /// holds a replica for an id absent from `indexed` — all states
    /// that cannot arise from slicing one cluster.
    pub fn from_shard_nodes(nodes: Vec<ShardNode>, indexed: BTreeSet<TrajId>) -> ClusterIndex {
        let first = nodes.first().expect("at least one shard node");
        let fingerprinter = first.fingerprinter;
        let router = first.router;
        let stores: Vec<NodeStore> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| {
                assert_eq!(node.node_id, i, "shard node out of order");
                assert_eq!(node.fingerprinter.config(), fingerprinter.config());
                assert_eq!(node.router.num_shards(), router.num_shards());
                assert_eq!(node.router.num_nodes(), router.num_nodes());
                assert!(
                    node.store.replicas().all(|(id, _)| indexed.contains(&id)),
                    "shard node holds a replica for an unindexed id"
                );
                node.store
            })
            .collect();
        assert_eq!(router.num_nodes(), stores.len(), "one slice per node");
        ClusterIndex {
            fingerprinter,
            router,
            nodes: stores,
            indexed,
        }
    }
}

impl Persist for ShardNode {
    fn to_snapshot(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new(BackendKind::Node);

        let cfg = self.fingerprinter.config();
        let mut conf = Vec::with_capacity(26);
        conf.push(cfg.normalization_depth());
        conf.push(cfg.prefix_bits());
        conf.extend_from_slice(&(cfg.k() as u32).to_le_bytes());
        conf.extend_from_slice(&(cfg.t() as u32).to_le_bytes());
        conf.extend_from_slice(&self.router.num_shards().to_le_bytes());
        conf.extend_from_slice(&(self.router.num_nodes() as u32).to_le_bytes());
        conf.extend_from_slice(&(self.node_id as u32).to_le_bytes());
        writer.section(SEC_CONFIG, conf);

        let replicas: BTreeMap<TrajId, &Fingerprints> = self.store.replicas().collect();
        let records: Vec<(TrajId, &[u32])> = replicas
            .into_iter()
            .map(|(id, fp)| (id, fp.ordered()))
            .collect();
        let mut fprs = Vec::new();
        write_sequences(&mut fprs, &records);
        writer.section(SEC_FINGERPRINTS, fprs);

        writer.section(node_section_id(0), encode_node(&self.store));
        writer.finish()
    }

    fn from_snapshot(data: &[u8]) -> Result<ShardNode, SnapshotError> {
        let reader = SnapshotReader::parse(data)?;
        reader.expect_backend(BackendKind::Node)?;

        let mut conf = Cursor::new(reader.section(SEC_CONFIG)?);
        let depth = conf.u8()?;
        let prefix = conf.u8()?;
        let k = conf.u32()? as usize;
        let t = conf.u32()? as usize;
        let num_shards = conf.u64()?;
        let num_nodes = conf.u32()? as usize;
        let node_id = conf.u32()? as usize;
        conf.expect_end()?;
        let config =
            GeodabConfig::new(depth, k, t, prefix).map_err(SnapshotError::InvalidConfig)?;
        if num_nodes == 0 || num_nodes > MAX_NODE_SECTIONS {
            return Err(SnapshotError::Corrupt("node count out of range"));
        }
        if node_id >= num_nodes {
            return Err(SnapshotError::Corrupt("node id out of range"));
        }
        let router = ShardRouter::new(config.prefix_bits(), num_shards, num_nodes)
            .map_err(|_| SnapshotError::Corrupt("invalid router configuration"))?;

        let mut replicas: HashMap<TrajId, Fingerprints> = HashMap::new();
        for (id, ordered) in read_sequences::<u32>(reader.section(SEC_FINGERPRINTS)?)? {
            replicas.insert(id, Fingerprints::from_ordered(ordered));
        }

        let store = decode_node(
            reader.section(node_section_id(0))?,
            node_id,
            &router,
            &replicas,
        )?;
        if store.len() != replicas.len() {
            return Err(SnapshotError::Corrupt("fingerprints for an unindexed id"));
        }
        Ok(ShardNode {
            fingerprinter: Fingerprinter::new(config),
            router,
            node_id,
            store,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
