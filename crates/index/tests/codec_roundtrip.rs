//! Property tests pinning the snapshot formats: `load ∘ save ≡ id` on
//! search results for the single-node geodab index, legacy v1 blobs still
//! decoding, and malformed input (truncation, bit flips, checksum damage)
//! surfacing as a [`SnapshotError`] — never a panic or a silently-wrong
//! index.

use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::codec::{decode, encode_v1};
use geodabs_index::store::{Persist, SnapshotError};
use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
use geodabs_traj::TrajId;
use proptest::prelude::*;

/// Builds an index holding the given raw fingerprint sequences (ids get
/// a stride so they are non-dense, as after deletions).
fn index_of(sets: &[Vec<u32>]) -> GeodabIndex {
    let mut index = GeodabIndex::new(GeodabConfig::default());
    for (i, ordered) in sets.iter().enumerate() {
        index.insert_fingerprints(
            TrajId::new((i * 3 + 1) as u32),
            Fingerprints::from_ordered(ordered.clone()),
        );
    }
    index
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round trip preserves every fingerprint sequence (ordered view
    /// included — the part a set-based bug would drop), the config and
    /// the rankings — including after removals, which leave vacant
    /// interner slots behind.
    #[test]
    fn load_save_is_identity(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..100_000, 0..40), 0..20),
        query in proptest::collection::vec(0u32..100_000, 0..40),
        remove_stride in 2usize..5,
    ) {
        let mut original = index_of(&sets);
        for i in (0..sets.len()).step_by(remove_stride) {
            original.remove(TrajId::new((i * 3 + 1) as u32));
        }
        let decoded = decode(&original.to_snapshot()).expect("roundtrip");
        prop_assert_eq!(decoded.len(), original.len());
        prop_assert_eq!(decoded.term_count(), original.term_count());
        prop_assert_eq!(decoded.config(), original.config());
        for (id, fp) in original.iter_fingerprints() {
            prop_assert_eq!(decoded.fingerprints(id), Some(fp));
        }
        // Same bytes out again: encoding is deterministic.
        prop_assert_eq!(decoded.to_snapshot(), original.to_snapshot());
        // And the decoded index ranks identically.
        let query = Fingerprints::from_ordered(query);
        for options in [
            SearchOptions::default(),
            SearchOptions::default().limit(3).max_distance(0.8),
        ] {
            prop_assert_eq!(
                decoded.search_fingerprints(&query, &options),
                original.search_fingerprints(&query, &options)
            );
        }
    }

    /// Legacy v1 blobs decode into exactly the index the v2 path
    /// produces: same contents, same rankings, same re-encoded bytes.
    #[test]
    fn v1_blobs_still_decode(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..100_000, 0..30), 0..12),
        query in proptest::collection::vec(0u32..100_000, 0..30),
    ) {
        let original = index_of(&sets);
        let from_v1 = decode(&encode_v1(&original)).expect("v1 decode");
        prop_assert_eq!(from_v1.len(), original.len());
        prop_assert_eq!(from_v1.term_count(), original.term_count());
        prop_assert_eq!(from_v1.to_snapshot(), original.to_snapshot());
        let query = Fingerprints::from_ordered(query);
        prop_assert_eq!(
            from_v1.search_fingerprints(&query, &SearchOptions::default()),
            original.search_fingerprints(&query, &SearchOptions::default())
        );
    }

    /// Every strict prefix of a valid encoding (either version) fails to
    /// decode with a structured error — no panic, no partial index.
    #[test]
    fn truncation_always_errors(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..50_000, 0..20), 0..8),
        cut_seed in 0usize..10_000,
        legacy in any::<bool>(),
    ) {
        let index = index_of(&sets);
        let bytes = if legacy { encode_v1(&index) } else { index.to_snapshot() };
        let cut = cut_seed % bytes.len();
        let err = decode(&bytes[..cut]).expect_err("truncated input must fail");
        prop_assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
            "cut at {}: {:?}", cut, err
        );
    }

    /// Corrupting the magic is always rejected as `BadMagic`.
    #[test]
    fn bad_magic_always_errors(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..50_000, 0..10), 0..4),
        byte in 0usize..4,
        xor in 1u8..=255,
    ) {
        let mut bytes = index_of(&sets).to_snapshot();
        bytes[byte] ^= xor;
        prop_assert!(matches!(decode(&bytes), Err(SnapshotError::BadMagic)));
    }

    /// Arbitrary bit flips anywhere in a v2 stream never panic — and a
    /// flip inside any section payload is always caught by its CRC-32
    /// (flips in the header or section table surface as other structured
    /// errors).
    #[test]
    fn random_corruption_never_panics(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..50_000, 0..10), 1..6),
        offset_seed in 0usize..10_000,
        xor in 1u8..=255,
    ) {
        let bytes = index_of(&sets).to_snapshot();
        let offset = offset_seed % bytes.len();
        let mut corrupted = bytes;
        corrupted[offset] ^= xor;
        let err = decode(&corrupted).expect_err("a v2 bit flip is always detected");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Bit flips in legacy v1 streams never panic either: they decode to
    /// a well-formed (if different) index or fail with a codec error —
    /// v1 has no checksums, which is part of why v2 exists.
    #[test]
    fn v1_corruption_never_panics(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..50_000, 0..10), 1..6),
        offset_seed in 0usize..10_000,
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_v1(&index_of(&sets));
        let offset = offset_seed % bytes.len();
        bytes[offset] ^= xor;
        match decode(&bytes) {
            Ok(index) => prop_assert!(index.len() <= sets.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

/// Fixed adversarial cases that random corruption is unlikely to hit.
#[test]
fn crafted_v1_length_prefixes_are_rejected() {
    let mut index = GeodabIndex::new(GeodabConfig::default());
    index.insert_fingerprints(TrajId::new(0), Fingerprints::from_ordered(vec![1, 2, 3]));
    let bytes = encode_v1(&index);
    // The per-entry fingerprint count sits right after the entry id;
    // inflate it so it claims far more payload than the stream holds.
    let count_offset = 4 + 2 + 10 + 8 + 4;
    let mut crafted = bytes.clone();
    crafted[count_offset..count_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(decode(&crafted), Err(SnapshotError::Truncated)));

    // An entry-count header promising more records than exist.
    let mut crafted = bytes;
    let count_offset = 4 + 2 + 10;
    crafted[count_offset..count_offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(decode(&crafted), Err(SnapshotError::Truncated)));
}

#[test]
fn empty_input_and_foreign_files_are_rejected() {
    assert!(matches!(decode(b""), Err(SnapshotError::BadMagic)));
    assert!(matches!(decode(b"GDA"), Err(SnapshotError::BadMagic)));
    assert!(matches!(
        decode(b"PK\x03\x04zipfile"),
        Err(SnapshotError::BadMagic)
    ));
    // Valid magic, then nothing: truncated header.
    assert!(matches!(decode(b"GDAB"), Err(SnapshotError::Truncated)));
}

#[test]
fn file_roundtrip_through_save_and_load() {
    let dir = std::env::temp_dir().join("geodabs-codec-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("roundtrip.gdab");
    let index = index_of(&[vec![1, 2, 3], vec![2, 3, 4]]);
    let written = index.save_to(&path).expect("save");
    assert_eq!(written, std::fs::metadata(&path).expect("stat").len());
    let loaded = GeodabIndex::load_from(&path).expect("load");
    assert_eq!(loaded.len(), index.len());
    assert!(matches!(
        GeodabIndex::load_from(dir.join("does-not-exist.gdab")),
        Err(SnapshotError::Io(_))
    ));
}
