//! Cluster snapshots: the `GDAB` v2 implementation of
//! [`Persist`] for [`ClusterIndex`], plus the `CONF` and `FPRS`
//! encodings it shares with the standalone [`crate::ShardNode`]
//! snapshot.
//!
//! A cluster snapshot is a **manifest plus per-node segments** in one
//! container (backend tag 3):
//!
//! ```text
//! CONF   depth u8, prefix u8, k u32, t u32, num_shards u64, num_nodes u32
//! IDST   roaring bitmap of every indexed TrajId (including trajectories
//!        too short to fingerprint, which no node stores)
//! FPRS   count u32, count × (id u32, len u32, len × geodab u32) — each
//!        trajectory's ordered fingerprints, stored once even when
//!        several nodes hold a replica
//! NODEi  one segment per node:
//!        capacity u32, live u32, live × (dense u32, id u32)
//!        terms u32, terms × (term u32, posting bitmap wire form)
//! ```
//!
//! Node segments are independent byte strings, so they are serialized
//! **and** deserialized concurrently via
//! [`geodabs_index::batch::parallel_map`] — a cold-starting shard server
//! materializes all of its nodes in parallel. Each node's replicas are
//! resolved from the global fingerprint table on load rather than
//! stored per node.

use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::batch::{self, parallel_map};
use geodabs_index::codec::{read_sequences, write_sequences};
use geodabs_index::store::{
    node_section_id, BackendKind, Cursor, Persist, SnapshotError, SnapshotReader, SnapshotWriter,
    MAX_NODE_SECTIONS, SEC_CONFIG, SEC_FINGERPRINTS, SEC_IDSET,
};
use geodabs_roaring::RoaringBitmap;
use geodabs_traj::TrajId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::{ClusterIndex, ShardNode, ShardRouter};

/// The `CONF` fields both snapshot kinds start with.
pub(crate) fn encode_conf(config: &GeodabConfig, router: &ShardRouter) -> Vec<u8> {
    let mut conf = Vec::with_capacity(26);
    conf.push(config.normalization_depth());
    conf.push(config.prefix_bits());
    conf.extend_from_slice(&(config.k() as u32).to_le_bytes());
    conf.extend_from_slice(&(config.t() as u32).to_le_bytes());
    conf.extend_from_slice(&router.num_shards().to_le_bytes());
    conf.extend_from_slice(&(router.num_nodes() as u32).to_le_bytes());
    conf
}

/// Reads and validates what [`encode_conf`] wrote.
pub(crate) fn decode_conf(
    conf: &mut Cursor<'_>,
) -> Result<(GeodabConfig, ShardRouter), SnapshotError> {
    let depth = conf.u8()?;
    let prefix = conf.u8()?;
    let k = conf.u32()? as usize;
    let t = conf.u32()? as usize;
    let num_shards = conf.u64()?;
    let num_nodes = conf.u32()? as usize;
    let config = GeodabConfig::new(depth, k, t, prefix).map_err(SnapshotError::InvalidConfig)?;
    if num_nodes == 0 || num_nodes > MAX_NODE_SECTIONS {
        return Err(SnapshotError::Corrupt("node count out of range"));
    }
    let router = ShardRouter::new(config.prefix_bits(), num_shards, num_nodes)
        .map_err(|_| SnapshotError::Corrupt("invalid router configuration"))?;
    Ok((config, router))
}

/// The `FPRS` section: each distinct id's ordered fingerprints once,
/// ascending by id.
pub(crate) fn encode_fingerprints<'a>(
    replicas: impl Iterator<Item = (TrajId, &'a Fingerprints)>,
) -> Vec<u8> {
    let unique: BTreeMap<TrajId, &Fingerprints> = replicas.collect();
    let records: Vec<(TrajId, &[u32])> = unique
        .into_iter()
        .map(|(id, fp)| (id, fp.ordered()))
        .collect();
    let mut fprs = Vec::new();
    write_sequences(&mut fprs, &records);
    fprs
}

/// Reads what [`encode_fingerprints`] wrote.
pub(crate) fn decode_fingerprints(
    payload: &[u8],
) -> Result<HashMap<TrajId, Fingerprints>, SnapshotError> {
    Ok(read_sequences::<u32>(payload)?
        .into_iter()
        .map(|(id, ordered)| (id, Fingerprints::from_ordered(ordered)))
        .collect())
}

impl Persist for ClusterIndex {
    fn to_snapshot(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new(BackendKind::Cluster);
        writer.section(SEC_CONFIG, encode_conf(self.config(), self.router()));

        let ids: RoaringBitmap = self.indexed.iter().map(|id| id.raw()).collect();
        let mut idset = Vec::with_capacity(ids.serialized_size());
        ids.serialize_into(&mut idset);
        writer.section(SEC_IDSET, idset);

        let replicas = self.nodes.iter().flat_map(ShardNode::replicas);
        writer.section(SEC_FINGERPRINTS, encode_fingerprints(replicas));

        // Per-node segments are independent: serialize them concurrently.
        let segments = parallel_map(
            &self.nodes,
            batch::default_threads(),
            ShardNode::encode_segment,
        );
        for (i, segment) in segments.into_iter().enumerate() {
            writer.section(node_section_id(i), segment);
        }
        writer.finish()
    }

    fn from_snapshot(data: &[u8]) -> Result<ClusterIndex, SnapshotError> {
        let reader = SnapshotReader::parse(data)?;
        reader.expect_backend(BackendKind::Cluster)?;

        let mut conf = Cursor::new(reader.section(SEC_CONFIG)?);
        let (config, router) = decode_conf(&mut conf)?;
        conf.expect_end()?;

        let mut idset = Cursor::new(reader.section(SEC_IDSET)?);
        let indexed: BTreeSet<TrajId> = idset.bitmap()?.iter().map(TrajId::new).collect();
        idset.expect_end()?;

        let global_fps = decode_fingerprints(reader.section(SEC_FINGERPRINTS)?)?;
        if !global_fps.keys().all(|id| indexed.contains(id)) {
            return Err(SnapshotError::Corrupt("fingerprints for an unindexed id"));
        }

        let mut segments: Vec<(usize, &[u8])> = Vec::with_capacity(router.num_nodes());
        for i in 0..router.num_nodes() {
            segments.push((i, reader.section(node_section_id(i))?));
        }
        // Node segments are independent: materialize them concurrently.
        let nodes: Vec<Result<ShardNode, SnapshotError>> = parallel_map(
            &segments,
            batch::default_threads(),
            |&(node_id, payload)| {
                ShardNode::decode_segment(config, router, node_id, payload, &global_fps)
            },
        );
        Ok(ClusterIndex {
            nodes: nodes.into_iter().collect::<Result<_, _>>()?,
            indexed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_core::GeodabConfig;
    use geodabs_geo::Point;
    use geodabs_index::SearchOptions;
    use geodabs_traj::Trajectory;

    fn eastward(n: usize, offset_m: f64) -> Trajectory {
        let start = Point::new(51.5074, -0.1278).unwrap();
        (0..n)
            .map(|i| start.destination(90.0, offset_m + i as f64 * 90.0))
            .collect()
    }

    fn sample_cluster() -> ClusterIndex {
        let mut c = ClusterIndex::new(GeodabConfig::default(), 10_000, 7).unwrap();
        c.insert(TrajId::new(0), &eastward(40, 0.0));
        c.insert(TrajId::new(1), &eastward(40, 0.0).reversed());
        c.insert(TrajId::new(2), &eastward(40, 20_000.0));
        c.insert(TrajId::new(9), &eastward(2, 0.0)); // too short to fingerprint
        c
    }

    #[test]
    fn roundtrip_preserves_results_and_placement() {
        let original = sample_cluster();
        let restored = ClusterIndex::from_snapshot(&original.to_snapshot()).expect("roundtrip");
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.postings_per_node(), original.postings_per_node());
        assert_eq!(
            restored.trajectories_per_node(),
            original.trajectories_per_node()
        );
        assert_eq!(restored.active_shards(), original.active_shards());
        assert_eq!(
            restored.ids().collect::<Vec<_>>(),
            original.ids().collect::<Vec<_>>()
        );
        for query in [
            eastward(40, 0.0),
            eastward(40, 0.0).reversed(),
            eastward(40, 1_000.0),
        ] {
            let (hits_r, stats_r) = restored.search_with_stats(&query, &SearchOptions::default());
            let (hits_o, stats_o) = original.search_with_stats(&query, &SearchOptions::default());
            assert_eq!(hits_r, hits_o);
            assert_eq!(stats_r, stats_o);
        }
    }

    #[test]
    fn restored_cluster_remains_fully_mutable() {
        let original = sample_cluster();
        let mut restored = ClusterIndex::from_snapshot(&original.to_snapshot()).unwrap();
        // Removing, re-inserting and resizing all work on restored state.
        assert!(restored.remove(TrajId::new(1)));
        restored.insert(TrajId::new(42), &eastward(50, 500.0));
        restored.resize(3).unwrap();
        let hits = restored.search(&eastward(50, 500.0), &SearchOptions::default().limit(1));
        assert_eq!(hits[0].id, TrajId::new(42));
    }

    #[test]
    fn snapshot_is_deterministic() {
        let c = sample_cluster();
        assert_eq!(c.to_snapshot(), c.to_snapshot());
        // And stable across a round trip.
        let restored = ClusterIndex::from_snapshot(&c.to_snapshot()).unwrap();
        assert_eq!(restored.to_snapshot(), c.to_snapshot());
    }

    #[test]
    fn empty_cluster_roundtrips() {
        let c = ClusterIndex::new(GeodabConfig::default(), 100, 5).unwrap();
        let restored = ClusterIndex::from_snapshot(&c.to_snapshot()).unwrap();
        assert_eq!(restored.len(), 0);
        assert_eq!(restored.postings_per_node(), vec![0; 5]);
        assert_eq!(restored.router().num_shards(), 100);
    }

    #[test]
    fn wrong_backend_and_garbage_are_rejected() {
        assert!(matches!(
            ClusterIndex::from_snapshot(b"garbage"),
            Err(SnapshotError::BadMagic)
        ));
        let mut geodab_like = SnapshotWriter::new(BackendKind::Geodab);
        geodab_like.section(SEC_CONFIG, vec![36, 16, 6, 0, 0, 0, 12, 0, 0, 0]);
        assert!(matches!(
            ClusterIndex::from_snapshot(&geodab_like.finish()),
            Err(SnapshotError::WrongBackend { .. })
        ));
    }

    #[test]
    fn missing_node_segment_is_rejected() {
        let bytes = sample_cluster().to_snapshot();
        let reader = SnapshotReader::parse(&bytes).unwrap();
        // Rebuild the container without the last node segment.
        let mut writer = SnapshotWriter::new(BackendKind::Cluster);
        for &(id, payload) in reader.sections() {
            if id != node_section_id(6) {
                writer.section(id, payload.to_vec());
            }
        }
        assert!(matches!(
            ClusterIndex::from_snapshot(&writer.finish()),
            Err(SnapshotError::MissingSection(_))
        ));
    }
}
