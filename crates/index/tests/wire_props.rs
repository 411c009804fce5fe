//! One property suite over every `Wire` impl of `geodabs_index::store`.
//!
//! Each impl is checked the same three ways: `get` inverts `put` and
//! consumes exactly what `put` wrote; `get` on arbitrary bytes returns
//! an error instead of panicking; and a `Vec` of it claiming `u32::MAX`
//! entries over a short payload fails as `Truncated` without reserving
//! the claimed entries (an unguarded reservation of 2^32 points or
//! bitmaps would abort the test process). `MIN_LEN` is pinned as the
//! size of each type's smallest encoding.

use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_geo::Point;
use geodabs_index::store::{from_bytes, to_bytes, Cursor, ReadError, Wire};
use geodabs_index::{SearchOptions, SearchResult};
use geodabs_roaring::RoaringBitmap;
use geodabs_traj::{TrajId, Trajectory};
use proptest::prelude::*;
use std::fmt::Debug;

/// `get(put(x))` re-encodes to the same bytes and consumes all of them.
fn same_bytes<T: Wire>(value: &T) -> Result<T, TestCaseError> {
    let bytes = to_bytes(value);
    prop_assert!(bytes.len() >= T::MIN_LEN, "shorter than MIN_LEN");
    let mut cursor = Cursor::new(&bytes);
    let back = match T::get(&mut cursor) {
        Ok(back) => back,
        Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e}"))),
    };
    prop_assert_eq!(cursor.remaining(), 0);
    prop_assert_eq!(to_bytes(&back), bytes);
    Ok(back)
}

/// [`same_bytes`] plus `get(put(x)) == x`.
fn roundtrip<T: Wire + PartialEq + Debug>(value: &T) -> Result<(), TestCaseError> {
    let back = same_bytes(value)?;
    prop_assert_eq!(&back, value);
    Ok(())
}

/// Decodes `bytes` as a `T`; any outcome but a panic is fine, and a
/// success never claims more bytes than there were.
fn never_panics<T: Wire>(bytes: &[u8]) {
    let mut cursor = Cursor::new(bytes);
    if T::get(&mut cursor).is_ok() {
        assert!(cursor.remaining() <= bytes.len());
    }
}

/// A `Vec<T>` whose count claims `u32::MAX` entries, followed by one
/// genuine entry, is truncated rather than an allocation failure.
fn huge_claim_is_truncated<T: Wire>(one: &T) {
    let mut bytes = u32::MAX.to_le_bytes().to_vec();
    one.put(&mut bytes);
    assert_eq!(
        from_bytes::<Vec<T>>(&bytes).err(),
        Some(ReadError::Truncated),
        "{}",
        std::any::type_name::<T>()
    );
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn trajectory(coords: &[(f64, f64)]) -> Trajectory {
    coords
        .iter()
        .map(|&(lat, lon)| Point::new(lat, lon).unwrap())
        .collect()
}

fn config(depth: u8, prefix: u8, k: usize, extra: usize) -> GeodabConfig {
    GeodabConfig::new(depth, k, k + extra, prefix).unwrap()
}

proptest! {
    #[test]
    fn every_impl_roundtrips(
        ints in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>()),
        bits in any::<u64>(),
        flag in any::<bool>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..40),
        terms in proptest::collection::vec(any::<u32>(), 0..60),
        coords in proptest::collection::vec((-90.0f64..=90.0, -180.0f64..=180.0), 0..20),
        options in (any::<bool>(), 0usize..10_000, 0.0f64..=1.0),
        cfg in (1u8..=64, 1u8..=31, 2usize..20, 0usize..20),
    ) {
        let (a, b, c, d) = ints;
        roundtrip(&a)?;
        roundtrip(&b)?;
        roundtrip(&c)?;
        roundtrip(&d)?;
        // Any bit pattern, NaN payloads included, comes back bit-exact.
        same_bytes(&f64::from_bits(bits))?;
        roundtrip(&flag)?;
        roundtrip(&text(&bytes))?;
        roundtrip(&terms)?;
        roundtrip(&(a, text(&bytes)))?;
        roundtrip(&(d, flag, terms.clone()))?;
        roundtrip(&TrajId::new(c))?;
        roundtrip(&trajectory(&coords))?;
        if let Some(&(lat, lon)) = coords.first() {
            roundtrip(&Point::new(lat, lon).unwrap())?;
        }
        roundtrip(&Fingerprints::from_ordered(terms.clone()))?;
        let (limited, limit, max_distance) = options;
        let mut search = SearchOptions::default().max_distance(max_distance);
        if limited {
            search = search.limit(limit);
        }
        roundtrip(&search)?;
        roundtrip(&SearchResult { id: TrajId::new(c), distance: max_distance })?;
        roundtrip(&config(cfg.0, cfg.1, cfg.2, cfg.3))?;
        let bitmap: RoaringBitmap = terms.iter().copied().collect();
        roundtrip(&bitmap)?;
        // The composites the snapshot sections and wire payloads are made of.
        roundtrip(&vec![(TrajId::new(c), Fingerprints::from_ordered(terms.clone())); 3])?;
        roundtrip(&vec![(c, bitmap.clone()), (c.wrapping_add(1), RoaringBitmap::new())])?;
        roundtrip(&(c, vec![(a as u32, TrajId::new(c), d as u32); 2]))?;
        roundtrip(&vec![vec![SearchResult { id: TrajId::new(c), distance: 0.5 }]; 2])?;
        roundtrip(&vec![(text(&bytes), d, d)])?;
    }

    #[test]
    fn get_on_arbitrary_bytes_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        never_panics::<u8>(&bytes);
        never_panics::<u16>(&bytes);
        never_panics::<u32>(&bytes);
        never_panics::<u64>(&bytes);
        never_panics::<f64>(&bytes);
        never_panics::<bool>(&bytes);
        never_panics::<String>(&bytes);
        never_panics::<Vec<u32>>(&bytes);
        never_panics::<(u8, String)>(&bytes);
        never_panics::<(u64, bool, Vec<u32>)>(&bytes);
        never_panics::<TrajId>(&bytes);
        never_panics::<Point>(&bytes);
        never_panics::<Trajectory>(&bytes);
        never_panics::<Fingerprints>(&bytes);
        never_panics::<SearchOptions>(&bytes);
        never_panics::<SearchResult>(&bytes);
        never_panics::<GeodabConfig>(&bytes);
        never_panics::<RoaringBitmap>(&bytes);
        never_panics::<Vec<(TrajId, Fingerprints)>>(&bytes);
        never_panics::<Vec<(u64, RoaringBitmap)>>(&bytes);
        never_panics::<(u32, Vec<(u32, TrajId, u32)>)>(&bytes);
        never_panics::<Vec<Vec<SearchResult>>>(&bytes);
        never_panics::<Vec<(String, u64, u64)>>(&bytes);
    }
}

#[test]
fn vec_claims_beyond_the_payload_are_truncated_before_reserving() {
    huge_claim_is_truncated(&7u8);
    huge_claim_is_truncated(&7u16);
    huge_claim_is_truncated(&7u32);
    huge_claim_is_truncated(&7u64);
    huge_claim_is_truncated(&0.5f64);
    huge_claim_is_truncated(&true);
    huge_claim_is_truncated(&"seven".to_string());
    huge_claim_is_truncated(&vec![7u32]);
    huge_claim_is_truncated(&(7u8, "x".to_string()));
    huge_claim_is_truncated(&(7u64, true, vec![7u32]));
    huge_claim_is_truncated(&TrajId::new(7));
    huge_claim_is_truncated(&Point::new(1.0, 2.0).unwrap());
    huge_claim_is_truncated(&trajectory(&[(1.0, 2.0)]));
    huge_claim_is_truncated(&Fingerprints::from_ordered(vec![7]));
    huge_claim_is_truncated(&SearchOptions::default().limit(7));
    huge_claim_is_truncated(&SearchResult {
        id: TrajId::new(7),
        distance: 0.5,
    });
    huge_claim_is_truncated(&GeodabConfig::default());
    huge_claim_is_truncated(&[7u32].into_iter().collect::<RoaringBitmap>());
}

/// `MIN_LEN` is the size of the smallest encoding, so `Vec`'s capacity
/// guard is neither loose nor rejecting real payloads.
#[test]
fn min_len_is_the_smallest_encoding() {
    fn exact<T: Wire>(smallest: T) {
        assert_eq!(
            to_bytes(&smallest).len(),
            T::MIN_LEN,
            "{}",
            std::any::type_name::<T>()
        );
    }
    exact(0u8);
    exact(0u16);
    exact(0u32);
    exact(0u64);
    exact(0.0f64);
    exact(false);
    exact(String::new());
    exact(Vec::<u64>::new());
    exact((0u16, 0u64));
    exact((0u64, String::new(), 0u64));
    exact(TrajId::new(0));
    exact(Point::new(0.0, 0.0).unwrap());
    exact(Trajectory::default());
    exact(Fingerprints::default());
    exact(SearchOptions::default());
    exact(SearchResult {
        id: TrajId::new(0),
        distance: 0.0,
    });
    exact(GeodabConfig::default());
    exact(RoaringBitmap::new());
}

#[test]
fn invalid_values_are_typed_errors() {
    assert_eq!(
        from_bytes::<bool>(&[2]),
        Err(ReadError::Corrupt("flag is not 0 or 1"))
    );
    assert_eq!(
        from_bytes::<String>(&[1, 0, 0, 0, 0xFF]),
        Err(ReadError::Corrupt("string is not utf-8"))
    );
    let mut nan = f64::NAN.to_bits().to_le_bytes().to_vec();
    nan.extend_from_slice(&0f64.to_bits().to_le_bytes());
    assert_eq!(
        from_bytes::<Point>(&nan),
        Err(ReadError::Corrupt("invalid coordinate"))
    );
    let mut options = to_bytes(&SearchOptions::default());
    options[8] = 2;
    assert_eq!(
        from_bytes::<SearchOptions>(&options),
        Err(ReadError::Corrupt("limit flag is not 0 or 1"))
    );
    // k = 1 fails the configuration's own validation.
    let bad = [36, 16, 1, 0, 0, 0, 12, 0, 0, 0];
    assert!(matches!(
        from_bytes::<GeodabConfig>(&bad),
        Err(ReadError::InvalidConfig(_))
    ));
    assert_eq!(
        from_bytes::<u32>(&[1, 2, 3, 4, 5]),
        Err(ReadError::Corrupt("trailing bytes after the payload"))
    );
}
