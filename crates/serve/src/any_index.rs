//! [`AnyIndex`]: whichever backend a snapshot or a log directory holds,
//! behind one servable, persistable value.

use geodabs_cluster::{ClusterIndex, ShardNode};
use geodabs_core::GeodabConfig;
use geodabs_index::store::{self, Persist, SnapshotError};
use geodabs_index::{codec, GeodabIndex, SearchOptions, SearchResult, TrajectoryIndex};
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
            "cluster" => Ok(AnyIndex::Cluster(
                ClusterIndex::new(config, shards, nodes).map_err(|e| e.to_string())?,
            )),
            // A shard node needs a node id on top of the cluster shape;
            // `serve --shard-id` constructs it directly.
            other => Err(format!("unknown backend {other:?} (geodab|cluster)")),
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

    fn search_fingerprints(&self, ordered: &[u32], options: &SearchOptions) -> Vec<SearchResult> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_index::store::{section_id, to_bytes, SnapshotWriter};

    /// Tag 2 once held the geohash baseline; a v2 container carrying it
    /// is now refused like any other unknown tag.
    #[test]
    fn a_tag_2_container_is_an_unknown_backend() {
        // An empty geohash-baseline snapshot: depth 36, no slots, no
        // postings, no cell sets, under the header tag 2.
        let mut writer = SnapshotWriter::new(store::BackendKind::Geodab);
        writer.section(store::SEC_CONFIG, vec![36]);
        writer.section(store::SEC_SLOTS, to_bytes(&(0u32, 0u32)));
        writer.section(store::SEC_POSTINGS, to_bytes(&0u32));
        writer.section(section_id(b"CELL"), to_bytes(&0u32));
        let mut bytes = writer.finish();
        bytes[6] = 2;
        let err = AnyIndex::from_snapshot(&bytes).expect_err("tag 2 is no backend");
        assert!(matches!(err, SnapshotError::UnknownBackend(2)), "{err:?}");
        assert_eq!(err.to_string(), "unknown backend tag 2");
    }
}
