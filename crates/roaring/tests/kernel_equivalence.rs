//! Differential proptests pinning the word kernels and the bitmap-level
//! visitors to the iterator-based originals.
//!
//! The inputs deliberately cover two regimes:
//!
//! * **random** — uniform draws over a shared value domain, and
//! * **boundary cardinality** — sets straddling the array↔bitmap container
//!   threshold (4096 values per 65 536-value chunk), so both container
//!   kinds and the conversions between them are exercised.

use geodabs_roaring::kernels;
use geodabs_roaring::RoaringBitmap;
use proptest::prelude::*;

/// Sorts and deduplicates raw draws into a valid kernel input.
fn sorted(mut xs: Vec<u16>) -> Vec<u16> {
    xs.sort_unstable();
    xs.dedup();
    xs
}

/// 1024-word bitmap store from a set of bit positions.
fn words_from(bits: &[u16]) -> Vec<u64> {
    let mut words = vec![0u64; 1024];
    for &b in bits {
        words[(b >> 6) as usize] |= 1u64 << (b & 63);
    }
    words
}

/// A bitmap hovering around the array↔bitmap threshold (4096 values) in
/// chunk 0, plus arbitrary extra values, so walks mix container kinds.
fn boundary_bitmap(n: u32, stride_seed: u32, extras: &[u32]) -> RoaringBitmap {
    let stride = 3 + stride_seed % 5;
    let mut bm: RoaringBitmap = (0..n).map(|i| (i * stride) % 65_536).collect();
    bm.extend(extras.iter().copied());
    bm
}

proptest! {
    #[test]
    fn words_visit_enumerates_set_bits(xs in proptest::collection::vec(any::<u16>(), 0..2048)) {
        let xs = sorted(xs);
        let a = words_from(&xs);
        let mut seen = Vec::new();
        kernels::words_visit(&a, 1 << 16, |v| seen.push(v));
        let expected: Vec<u32> = xs.iter().map(|&x| (1 << 16) | x as u32).collect();
        prop_assert_eq!(seen, expected);
    }

    #[test]
    fn for_each_matches_iter(xs in proptest::collection::vec(any::<u32>(), 0..600)) {
        let bm: RoaringBitmap = xs.iter().copied().collect();
        let mut visited = Vec::new();
        bm.for_each(|v| visited.push(v));
        prop_assert_eq!(visited, bm.iter().collect::<Vec<_>>());
    }

    #[test]
    fn boundary_containers_agree_with_iterators(
        n in 3900u32..4300,
        s in 0u32..97,
        extras in proptest::collection::vec(any::<u32>(), 0..20),
        thin_step in 1usize..40,
    ) {
        let a = boundary_bitmap(n, s, &extras);
        // Cross the container-kind boundary by thinning.
        let mut thin = a.clone();
        for v in a.iter().step_by(thin_step) {
            prop_assert!(thin.remove(v));
        }
        for bm in [&a, &thin] {
            let values: Vec<u32> = bm.iter().collect();
            prop_assert_eq!(values.len() as u64, bm.len());
            prop_assert_eq!(bm.fold(Vec::new(), |mut out, v| { out.push(v); out }), values.clone());
            prop_assert!(values.iter().all(|&v| bm.contains(v)));
            prop_assert_eq!(bm, &values.iter().copied().collect::<RoaringBitmap>());
        }
    }
}
