//! Differential proptests pinning every optimized kernel to its retained
//! reference implementation, and the new bitmap-level visitor/early-exit
//! APIs to the iterator-based originals.
//!
//! The inputs deliberately cover three regimes:
//!
//! * **random** — uniform draws over a shared value domain,
//! * **adversarially skewed** — one tiny sorted run against one huge one
//!   (the regime the galloping cutover exists for), and
//! * **boundary cardinality** — sets straddling the array↔bitmap container
//!   threshold (4096 values per 65 536-value chunk), so every container
//!   pairing (array∩array, array∩bitmap, bitmap∩bitmap) is exercised.

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

fn reference_intersection(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::new();
    kernels::intersect_visit_linear(a, b, |x| out.push(x));
    out
}

/// A bitmap hovering around the array↔bitmap threshold (4096 values) in
/// chunk 0, plus arbitrary extra values, so intersections mix container
/// kinds on both sides.
fn boundary_bitmap(n: u32, stride_seed: u32, extras: &[u32]) -> RoaringBitmap {
    let stride = 3 + stride_seed % 5;
    let mut bm: RoaringBitmap = (0..n).map(|i| (i * stride) % 65_536).collect();
    bm.extend(extras.iter().copied());
    bm
}

proptest! {
    // --- slice kernels: galloping vs the linear merge -------------------

    #[test]
    fn gallop_matches_linear_random(
        xs in proptest::collection::vec(any::<u16>(), 0..512),
        ys in proptest::collection::vec(any::<u16>(), 0..512),
    ) {
        let (a, b) = (sorted(xs), sorted(ys));
        let mut gallop = Vec::new();
        kernels::intersect_visit_gallop(&a, &b, |x| gallop.push(x));
        prop_assert_eq!(gallop, reference_intersection(&a, &b));
    }

    #[test]
    fn gallop_matches_linear_skewed(
        xs in proptest::collection::vec(0u16..8192, 0..24),
        ys in proptest::collection::vec(0u16..8192, 512..2048),
    ) {
        let (small, large) = (sorted(xs), sorted(ys));
        let mut gallop = Vec::new();
        kernels::intersect_visit_gallop(&small, &large, |x| gallop.push(x));
        prop_assert_eq!(&gallop, &reference_intersection(&small, &large));
        // The dispatching entry point must agree no matter which side is
        // passed first.
        let mut flipped = Vec::new();
        kernels::intersect_visit(&large, &small, |x| flipped.push(x));
        prop_assert_eq!(flipped, gallop);
    }

    #[test]
    fn intersect_len_and_into_match_visit(
        xs in proptest::collection::vec(any::<u16>(), 0..512),
        ys in proptest::collection::vec(any::<u16>(), 0..512),
    ) {
        let (a, b) = (sorted(xs), sorted(ys));
        let reference = reference_intersection(&a, &b);
        prop_assert_eq!(kernels::intersect_len(&a, &b), reference.len());
        let mut out = Vec::new();
        kernels::intersect_into(&a, &b, &mut out);
        prop_assert_eq!(out, reference);
    }

    #[test]
    fn is_subset_sorted_matches_full_count(
        xs in proptest::collection::vec(any::<u16>(), 0..256),
        ys in proptest::collection::vec(any::<u16>(), 0..1024),
    ) {
        let (a, b) = (sorted(xs), sorted(ys));
        let expected = kernels::intersect_len(&a, &b) == a.len();
        prop_assert_eq!(kernels::is_subset_sorted(&a, &b), expected);
        // Any subset of b must also report true.
        let sub: Vec<u16> = b.iter().copied().step_by(3).collect();
        prop_assert!(kernels::is_subset_sorted(&sub, &b));
    }

    // --- word kernels: chunked vs the scalar loop -----------------------

    #[test]
    fn chunked_word_kernels_match_scalar(
        xs in proptest::collection::vec(any::<u16>(), 0..2048),
        ys in proptest::collection::vec(any::<u16>(), 0..2048),
    ) {
        let (a, b) = (words_from(&xs), words_from(&ys));
        let reference = kernels::and_words_len_scalar(&a, &b);
        prop_assert_eq!(kernels::and_words_len(&a, &b), reference);

        let mut out = vec![0u64; a.len()];
        let written = kernels::and_words_into(&a, &b, &mut out);
        prop_assert_eq!(written, reference);
        for i in 0..a.len() {
            prop_assert_eq!(out[i], a[i] & b[i]);
        }

        let mut visited = 0u32;
        let mut all_set = true;
        kernels::and_words_visit(&a, &b, 0, |v| {
            all_set &= out[(v >> 6) as usize] & (1 << (v & 63)) != 0;
            visited += 1;
        });
        prop_assert!(all_set);
        prop_assert_eq!(visited, reference);
    }

    #[test]
    fn capped_count_matches_scalar(
        xs in proptest::collection::vec(any::<u16>(), 0..2048),
        ys in proptest::collection::vec(any::<u16>(), 0..2048),
        cap in 0usize..3000,
    ) {
        let (a, b) = (words_from(&xs), words_from(&ys));
        let exact = kernels::and_words_len_scalar(&a, &b) as usize;
        prop_assert_eq!(kernels::and_words_len_capped(&a, &b, cap), exact.min(cap));
        prop_assert_eq!(kernels::and_words_len_at_least(&a, &b, cap as u32), exact >= cap);
    }

    #[test]
    fn subset_words_matches_definition(
        xs in proptest::collection::vec(any::<u16>(), 0..2048),
        ys in proptest::collection::vec(any::<u16>(), 0..2048),
    ) {
        let (a, b) = (words_from(&xs), words_from(&ys));
        let expected = a.iter().zip(&b).all(|(x, y)| x & !y == 0);
        prop_assert_eq!(kernels::subset_words(&a, &b), expected);
        prop_assert!(kernels::subset_words(&a, &a));
    }

    #[test]
    fn words_visit_enumerates_set_bits(xs in proptest::collection::vec(any::<u16>(), 0..2048)) {
        let xs = sorted(xs);
        let a = words_from(&xs);
        let mut seen = Vec::new();
        kernels::words_visit(&a, 1 << 16, |v| seen.push(v));
        let expected: Vec<u32> = xs.iter().map(|&x| (1 << 16) | x as u32).collect();
        prop_assert_eq!(seen, expected);
    }

    // --- bitmap-level visitors vs the iterator originals ----------------

    #[test]
    fn for_each_matches_iter(xs in proptest::collection::vec(any::<u32>(), 0..600)) {
        let bm: RoaringBitmap = xs.iter().copied().collect();
        let mut visited = Vec::new();
        bm.for_each(|v| visited.push(v));
        prop_assert_eq!(visited, bm.iter().collect::<Vec<_>>());
    }

    #[test]
    fn intersection_len_at_least_matches_full_count(
        xs in proptest::collection::vec(0u32..100_000, 0..600),
        ys in proptest::collection::vec(0u32..100_000, 0..600),
        n in 0u64..700,
    ) {
        let a: RoaringBitmap = xs.iter().copied().collect();
        let b: RoaringBitmap = ys.iter().copied().collect();
        prop_assert_eq!(
            a.intersection_len_at_least(&b, n),
            a.intersection_len(&b) >= n
        );
    }

    // --- boundary cardinality: array↔bitmap container threshold ---------

    #[test]
    fn boundary_containers_agree_with_iterators(
        na in 3900u32..4300,
        nb in 3900u32..4300,
        sa in 0u32..97,
        sb in 0u32..97,
        extras in proptest::collection::vec(any::<u32>(), 0..20),
    ) {
        let a = boundary_bitmap(na, sa, &extras);
        let b = boundary_bitmap(nb, sb, &[]);
        // Cross the container-kind boundary on one side by thinning.
        let thin: RoaringBitmap = b.iter().step_by(17).collect();
        for other in [&b, &thin] {
            let inter = a.intersection_iter(other).count() as u64;
            prop_assert_eq!(inter, a.intersection_len(other));
            prop_assert!(a.intersection_len_at_least(other, inter));
            prop_assert!(!a.intersection_len_at_least(other, inter + 1));
        }
        prop_assert_eq!(thin.is_subset(&b), thin.intersection_len(&b) == thin.len());
        // Materialized intersection stays consistent with the visitors
        // (exercises the cardinality-first bitmap∩bitmap `and`).
        let materialized = &a & &b;
        prop_assert_eq!(materialized.len(), a.intersection_len(&b));
        prop_assert!(materialized.is_subset(&a) && materialized.is_subset(&b));
    }
}
