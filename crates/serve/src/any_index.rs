//! [`AnyIndex`]: whichever backend a snapshot or a log directory holds,
//! behind one servable, persistable value.

use geodabs_cluster::{ClusterIndex, ShardNode};
use geodabs_core::GeodabConfig;
use geodabs_index::store::{self, Persist, SnapshotError};
use geodabs_index::{
    codec, GeodabIndex, GeohashIndex, SearchOptions, SearchResult, TrajectoryIndex,
};
use geodabs_traj::{TrajId, Trajectory};

use crate::server::ServeBackend;
use crate::shards::ShardedIndex;

/// Any index backend behind one value — the common currency of the
/// snapshot CLI and the serving layer, which both must host whatever
/// backend a `GDAB` v2 snapshot happens to hold.
#[derive(Debug)]
pub enum AnyIndex {
    /// The paper's geodab index.
    Geodab(GeodabIndex),
    /// The geohash-cell baseline.
    Geohash(GeohashIndex),
    /// The sharded cluster index.
    Cluster(ClusterIndex),
    /// One node's standalone slice of a sharded cluster — what a
    /// remote shard server hosts.
    Node(ShardNode),
}

/// Runs `$body` on whichever backend `$any` holds, bound as `$index`.
macro_rules! each {
    ($any:expr, $index:ident => $body:expr) => {
        match $any {
            AnyIndex::Geodab($index) => $body,
            AnyIndex::Geohash($index) => $body,
            AnyIndex::Cluster($index) => $body,
            AnyIndex::Node($index) => $body,
        }
    };
}

impl AnyIndex {
    /// Builds an empty index of the named backend under the default
    /// configuration (`cluster` gets `shards` × `nodes`).
    ///
    /// # Errors
    ///
    /// An unknown backend name, or an invalid cluster shape.
    pub fn empty(backend: &str, shards: u64, nodes: usize) -> Result<AnyIndex, String> {
        let config = GeodabConfig::default();
        match backend {
            "geodab" => Ok(AnyIndex::Geodab(GeodabIndex::new(config))),
            "geohash" => Ok(AnyIndex::Geohash(GeohashIndex::new(
                config.normalization_depth(),
            ))),
            "cluster" => Ok(AnyIndex::Cluster(
                ClusterIndex::new(config, shards, nodes).map_err(|e| e.to_string())?,
            )),
            // A shard node needs a node id on top of the cluster shape;
            // `serve --shard-id` constructs it directly.
            other => Err(format!(
                "unknown backend {other:?} (geodab|geohash|cluster)"
            )),
        }
    }
}

/// Snapshots of every backend; v1 blobs load as geodab through the
/// legacy path, and an unknown backend tag is
/// [`SnapshotError::UnknownBackend`].
impl Persist for AnyIndex {
    fn to_snapshot(&self) -> Vec<u8> {
        each!(self, index => index.to_snapshot())
    }

    fn from_snapshot(bytes: &[u8]) -> Result<AnyIndex, SnapshotError> {
        if store::peek_version(bytes)? == store::VERSION_V1 {
            return Ok(AnyIndex::Geodab(codec::decode(bytes)?));
        }
        let reader = store::SnapshotReader::parse(bytes)?;
        Ok(match reader.backend() {
            Some(store::BackendKind::Geodab) => AnyIndex::Geodab(Persist::from_snapshot(bytes)?),
            Some(store::BackendKind::Geohash) => AnyIndex::Geohash(Persist::from_snapshot(bytes)?),
            Some(store::BackendKind::Cluster) => AnyIndex::Cluster(Persist::from_snapshot(bytes)?),
            Some(store::BackendKind::Node) => AnyIndex::Node(Persist::from_snapshot(bytes)?),
            None => return Err(SnapshotError::UnknownBackend(reader.backend_tag())),
        })
    }
}

impl TrajectoryIndex for AnyIndex {
    fn insert(&mut self, id: TrajId, trajectory: &Trajectory) {
        each!(self, index => TrajectoryIndex::insert(index, id, trajectory))
    }

    fn remove(&mut self, id: TrajId) -> bool {
        each!(self, index => TrajectoryIndex::remove(index, id))
    }

    fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult> {
        each!(self, index => TrajectoryIndex::search(index, query, options))
    }

    fn len(&self) -> usize {
        each!(self, index => TrajectoryIndex::len(index))
    }

    fn ids(&self) -> impl Iterator<Item = TrajId> + '_ {
        let ids: Vec<TrajId> = each!(self, index => TrajectoryIndex::ids(index).collect());
        ids.into_iter()
    }

    fn insert_batch<'a, I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (TrajId, &'a Trajectory)>,
    {
        each!(self, index => TrajectoryIndex::insert_batch(index, items))
    }
}

/// Any backend can be served; the serving layer and the snapshot CLI
/// host the same value.
impl ServeBackend for AnyIndex {
    fn backend_name(&self) -> &'static str {
        each!(self, index => ServeBackend::backend_name(index))
    }

    fn term_count(&self) -> usize {
        each!(self, index => ServeBackend::term_count(index))
    }

    fn search_fingerprints(
        &self,
        ordered: &[u32],
        options: &SearchOptions,
    ) -> Result<Vec<SearchResult>, &'static str> {
        each!(self, index => ServeBackend::search_fingerprints(index, ordered, options))
    }

    fn into_shards(self, shards: usize) -> Result<ShardedIndex, String> {
        each!(self, index => ServeBackend::into_shards(index, shards))
    }

    fn as_shard(&self) -> Option<&ShardNode> {
        each!(self, index => ServeBackend::as_shard(index))
    }

    fn as_shard_mut(&mut self) -> Option<&mut ShardNode> {
        each!(self, index => ServeBackend::as_shard_mut(index))
    }
}
