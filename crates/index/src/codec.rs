//! Binary persistence for the single-node geodab index.
//!
//! Snapshots use the sectioned `GDAB` v2 container of [`crate::store`]
//! and serialize **derived engine state** — roaring posting bitmaps in
//! their wire form, the `TrajId ↔ dense` interner table and per-set
//! cardinalities — so loading is a direct materialization instead of an
//! O(corpus) rebuild. [`GeodabIndex`] implements [`Persist`] here,
//! writing its one store ([`PostingLists`]) as the SLOT / POST / FPRS
//! sections; on load the store itself checks that the parts agree.
//! Every section is a composition of [`Wire`] impls (the table below
//! names them), so each layout is written once for both directions. The
//! cluster backend does the same in its own crate over per-node
//! segments.
//!
//! # `GeodabIndex` section layout (backend tag 1)
//!
//! ```text
//! CONF  GeodabConfig: depth u8, prefix u8, k u32, t u32
//! SLOT  (capacity u32, Vec<(dense u32, id u32, set_size u32)>)
//! POST  Vec<(term u32, posting RoaringBitmap)>, terms strictly ascending
//! FPRS  Vec<(id u32, Fingerprints: Vec<geodab u32>)>, ids strictly ascending
//! ```
//!
//! A `Vec<T>` is a `u32` count followed by the items. The original v1
//! format (raw fingerprint sequences only, postings rebuilt on load)
//! remains fully decodable: [`decode`] switches on the version field,
//! and [`encode_v1`] still writes it so the reader's tests have v1 input.

use geodabs_core::{Fingerprinter, Fingerprints};
use geodabs_roaring::RoaringBitmap;
use geodabs_traj::TrajId;
use std::collections::HashMap;
use std::hash::Hash;

use crate::engine::{PostingLists, Replica};
use crate::store::{
    from_bytes, peek_version, put_seq, strictly_ascending, to_bytes, BackendKind, Cursor, Persist,
    SnapshotError, SnapshotReader, SnapshotWriter, Wire, MAGIC, SEC_CONFIG, SEC_FINGERPRINTS,
    SEC_POSTINGS, SEC_SLOTS, VERSION_V1,
};
use crate::GeodabIndex;

/// Reconstructs an index from either snapshot version: v2 containers are
/// materialized directly from their serialized engine state, v1 blobs are
/// decoded through the legacy rebuild path.
///
/// # Errors
///
/// Returns a [`SnapshotError`] on malformed input; a successful decode is
/// always internally consistent.
pub fn decode(data: &[u8]) -> Result<GeodabIndex, SnapshotError> {
    match peek_version(data)? {
        VERSION_V1 => decode_v1(data),
        crate::store::VERSION => GeodabIndex::from_snapshot(data),
        other => Err(SnapshotError::UnsupportedVersion(other)),
    }
}

/// Writes a store's posting dictionary in `Vec<(T, RoaringBitmap)>`'s
/// layout, terms ascending, without cloning a bitmap — the POST section
/// here and the tail of a cluster node's segment.
pub fn put_postings<T, R>(out: &mut Vec<u8>, store: &PostingLists<T, R>)
where
    T: Wire + Copy + Eq + Hash + Ord,
    R: Replica<T>,
{
    put_seq(
        out,
        store.postings_sorted().into_iter(),
        |(term, list), out| {
            term.put(out);
            list.put(out);
        },
    );
}

// ---------------------------------------------------------------------
// GeodabIndex (backend tag 1)
// ---------------------------------------------------------------------

/// CONF, then the store's SLOT, POST and FPRS sections (records
/// ascending by id); on load the store checks the parts against each
/// other.
impl Persist for GeodabIndex {
    fn to_snapshot(&self) -> Vec<u8> {
        let store = &self.engine;
        let mut writer = SnapshotWriter::new(BackendKind::Geodab);
        writer.section(SEC_CONFIG, to_bytes(self.config()));
        let capacity = store.interner().capacity() as u32;
        writer.section(SEC_SLOTS, to_bytes(&(capacity, store.snapshot_slots())));

        let mut post = Vec::new();
        put_postings(&mut post, store);
        writer.section(SEC_POSTINGS, post);

        let mut records: Vec<(TrajId, &Fingerprints)> = store.replicas().collect();
        records.sort_unstable_by_key(|&(id, _)| id);
        let mut bytes = Vec::new();
        put_seq(&mut bytes, records.into_iter(), |(id, fp), out| {
            id.put(out);
            fp.put(out);
        });
        writer.section(SEC_FINGERPRINTS, bytes);
        writer.finish()
    }

    fn from_snapshot(data: &[u8]) -> Result<GeodabIndex, SnapshotError> {
        let reader = SnapshotReader::parse(data)?;
        reader.expect_backend(BackendKind::Geodab)?;
        let config = from_bytes(reader.section(SEC_CONFIG)?)?;
        let (capacity, slots): (u32, Vec<_>) = from_bytes(reader.section(SEC_SLOTS)?)?;
        let postings: Vec<(u32, RoaringBitmap)> = from_bytes(reader.section(SEC_POSTINGS)?)?;
        strictly_ascending(&postings, "posting terms not strictly ascending")?;
        let records: Vec<(TrajId, Fingerprints)> = from_bytes(reader.section(SEC_FINGERPRINTS)?)?;
        strictly_ascending(&records, "record ids not strictly ascending")?;
        if records.len() != slots.len() {
            return Err(SnapshotError::Corrupt(
                "replica records and live slots disagree",
            ));
        }
        let mut replicas: HashMap<TrajId, Fingerprints> = records.into_iter().collect();
        let replica_of = |id| replicas.remove(&id);
        let engine =
            PostingLists::from_snapshot_parts(capacity, &slots, replica_of, postings, |_| true)
                .map_err(SnapshotError::Corrupt)?;
        Ok(GeodabIndex {
            fingerprinter: Fingerprinter::new(config),
            engine,
        })
    }
}

// ---------------------------------------------------------------------
// Legacy v1 format
// ---------------------------------------------------------------------

/// Serializes the index in the legacy v1 format: the `GDAB` magic,
/// version 1, the `GeodabConfig`, an entry count `u64`, then per entry
/// `(id u32, Fingerprints)` ascending by id; all engine state is rebuilt
/// on load. Kept so the v1 reader's tests can still produce v1 blobs;
/// new snapshots use [`Persist::to_snapshot`].
pub fn encode_v1(index: &GeodabIndex) -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    VERSION_V1.put(&mut buf);
    index.config().put(&mut buf);
    // Deterministic output: sort by id.
    let mut entries: Vec<(TrajId, &Fingerprints)> = index.iter_fingerprints().collect();
    entries.sort_by_key(|&(id, _)| id);
    (entries.len() as u64).put(&mut buf);
    for (id, fp) in entries {
        id.put(&mut buf);
        fp.put(&mut buf);
    }
    buf
}

/// The v1 rebuild path: replay every stored fingerprint sequence through
/// [`GeodabIndex::insert_fingerprints`].
fn decode_v1(data: &[u8]) -> Result<GeodabIndex, SnapshotError> {
    // The version switch in `decode` already verified magic + version.
    let mut reader = Cursor::new(&data[6..]);
    let mut index = GeodabIndex::new(reader.get()?);
    for _ in 0..reader.get::<u64>()? {
        let (id, fingerprints) = reader.get()?;
        index.insert_fingerprints(id, fingerprints);
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchOptions, TrajectoryIndex};
    use geodabs_core::GeodabConfig;
    use geodabs_geo::Point;
    use geodabs_traj::Trajectory;

    fn path(offset: f64) -> Trajectory {
        let start = Point::new(51.5074, -0.1278).unwrap();
        (0..200)
            .map(|i| start.destination(90.0, offset + i as f64 * 14.0))
            .collect()
    }

    fn sample_index() -> GeodabIndex {
        let mut idx = GeodabIndex::new(GeodabConfig::default());
        idx.insert(TrajId::new(0), &path(0.0));
        idx.insert(TrajId::new(1), &path(0.0).reversed());
        idx.insert(TrajId::new(5), &path(10_000.0));
        idx
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample_index();
        let bytes = original.to_snapshot();
        let decoded = decode(&bytes).expect("roundtrip");
        assert_eq!(decoded.len(), original.len());
        assert_eq!(decoded.term_count(), original.term_count());
        assert_eq!(*decoded.config(), *original.config());
        for (id, fp) in original.iter_fingerprints() {
            assert_eq!(decoded.fingerprints(id), Some(fp));
        }
    }

    #[test]
    fn decoded_index_answers_queries_identically() {
        let original = sample_index();
        let decoded = decode(&original.to_snapshot()).expect("roundtrip");
        let query = path(0.0);
        assert_eq!(
            original.search(&query, &SearchOptions::default()),
            decoded.search(&query, &SearchOptions::default())
        );
    }

    #[test]
    fn v1_blobs_still_decode() {
        let original = sample_index();
        let v1 = encode_v1(&original);
        assert_eq!(v1[4], 1, "legacy writer stamps version 1");
        let decoded = decode(&v1).expect("v1 decode");
        assert_eq!(decoded.len(), original.len());
        assert_eq!(decoded.term_count(), original.term_count());
        let query = path(0.0);
        assert_eq!(
            original.search(&query, &SearchOptions::default()),
            decoded.search(&query, &SearchOptions::default())
        );
        // Re-encoding a v1-loaded index produces the same v2 bytes as the
        // original: both paths land on identical engine state.
        assert_eq!(decoded.to_snapshot(), original.to_snapshot());
    }

    #[test]
    fn wrong_backend_is_rejected() {
        let mut writer = SnapshotWriter::new(BackendKind::Cluster);
        writer.section(SEC_CONFIG, to_bytes(&GeodabConfig::default()));
        assert!(matches!(
            GeodabIndex::from_snapshot(&writer.finish()),
            Err(SnapshotError::WrongBackend { .. })
        ));
    }

    #[test]
    fn encoding_is_deterministic() {
        let idx = sample_index();
        assert_eq!(idx.to_snapshot(), idx.to_snapshot());
    }

    #[test]
    fn empty_indexes_roundtrip() {
        let idx = GeodabIndex::new(GeodabConfig::default());
        let decoded = decode(&idx.to_snapshot()).expect("roundtrip");
        assert_eq!(decoded.len(), 0);
        assert_eq!(decoded.term_count(), 0);
    }

    #[test]
    fn roundtrip_after_removals_keeps_vacant_slots_reusable() {
        let mut idx = sample_index();
        idx.remove(TrajId::new(1));
        let mut decoded = decode(&idx.to_snapshot()).expect("roundtrip");
        assert_eq!(decoded.len(), 2);
        // The vacant slot is usable again after the load.
        decoded.insert(TrajId::new(9), &path(500.0));
        let fresh_hits = decoded.search(&path(500.0), &SearchOptions::default().limit(1));
        assert_eq!(fresh_hits[0].id, TrajId::new(9));
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(decode(b"NOPE"), Err(SnapshotError::BadMagic)));
        assert!(matches!(decode(b""), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample_index().to_snapshot();
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(0xFFFF))
        ));
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        for bytes in [sample_index().to_snapshot(), encode_v1(&sample_index())] {
            for cut in [5usize, 7, 10, 15, bytes.len() / 2, bytes.len() - 1] {
                let err = decode(&bytes[..cut]).expect_err("must fail");
                assert!(
                    matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                    "cut at {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn payload_corruption_is_caught_by_checksums() {
        let bytes = sample_index().to_snapshot();
        // Flip one bit somewhere inside the last section's payload.
        let offset = bytes.len() - 20;
        let mut corrupted = bytes.clone();
        corrupted[offset] ^= 0x10;
        assert!(matches!(
            decode(&corrupted),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_config_is_rejected() {
        let mut v1 = encode_v1(&sample_index());
        v1[6] = 0; // normalization depth 0
        assert!(matches!(decode(&v1), Err(SnapshotError::InvalidConfig(_))));
    }

    #[test]
    fn snapshot_error_display() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        assert!(SnapshotError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(SnapshotError::Corrupt("x").to_string().contains('x'));
    }
}
