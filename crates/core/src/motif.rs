//! Motif discovery over fingerprint sequences (Section VI-C of the paper).
//!
//! Given two trajectories fingerprinted into ordered geodab sequences `Fi`
//! and `Fj`, the motif-discovery problem becomes: find the pair of windows
//! `(F̄i, F̄j)` of `f` fingerprints each that minimizes the Jaccard
//! distance. Because fingerprint sequences are short (winnowing keeps a
//! `2/(w+1)` fraction of the k-grams), the paper uses — and this module
//! implements — a brute-force scan over all window pairs, which Figure 11
//! shows is orders of magnitude cheaper than computing the discrete
//! Fréchet distance over all sub-trajectory pairs (the BTM baseline).

use crate::fingerprint::jaccard_sorted;
use crate::Fingerprints;

/// The best-matching pair of fingerprint windows between two trajectories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotifMatch {
    /// Start offset of the motif in the first fingerprint sequence.
    pub start_a: usize,
    /// Start offset of the motif in the second fingerprint sequence.
    pub start_b: usize,
    /// Window length in fingerprints (the `f = l * a` of the paper, where
    /// `a` is the average number of fingerprints per meter).
    pub len: usize,
    /// Jaccard distance between the two windows' fingerprint sets.
    pub distance: f64,
}

/// Finds the pair of length-`len` fingerprint windows with minimal Jaccard
/// distance, scanning all pairs (ties resolved toward the earliest pair in
/// lexicographic `(start_a, start_b)` order).
///
/// Returns `None` if either sequence is shorter than `len` or `len` is 0.
///
/// # Examples
///
/// ```
/// use geodabs_core::{discover_motif, Fingerprints};
///
/// let a = Fingerprints::from_ordered(vec![1, 2, 3, 4, 90, 91]);
/// let b = Fingerprints::from_ordered(vec![80, 2, 3, 4, 81, 82]);
/// let m = discover_motif(&a, &b, 3).expect("long enough");
/// assert_eq!((m.start_a, m.start_b), (1, 1)); // windows [2,3,4]
/// assert_eq!(m.distance, 0.0);
/// ```
pub fn discover_motif(a: &Fingerprints, b: &Fingerprints, len: usize) -> Option<MotifMatch> {
    let fa = a.ordered();
    let fb = b.ordered();
    if len == 0 || fa.len() < len || fb.len() < len {
        return None;
    }
    // Pre-sort every window once; pairwise distance is then a linear merge.
    let wins_a = sorted_windows(fa, len);
    let wins_b = sorted_windows(fb, len);
    let mut best: Option<MotifMatch> = None;
    for (i, wa) in wins_a.iter().enumerate() {
        for (j, wb) in wins_b.iter().enumerate() {
            let d = 1.0 - jaccard_sorted(wa, wb);
            if best.map(|m| d < m.distance).unwrap_or(true) {
                best = Some(MotifMatch {
                    start_a: i,
                    start_b: j,
                    len,
                    distance: d,
                });
                if d == 0.0 {
                    return best; // cannot improve
                }
            }
        }
    }
    best
}

/// All sliding windows of `len`, each sorted and deduplicated.
fn sorted_windows(seq: &[u32], len: usize) -> Vec<Vec<u32>> {
    seq.windows(len)
        .map(|w| {
            let mut v = w.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fingerprinter;
    use geodabs_geo::Point;
    use geodabs_traj::Trajectory;
    use proptest::prelude::*;

    fn fps(v: Vec<u32>) -> Fingerprints {
        Fingerprints::from_ordered(v)
    }

    #[test]
    fn finds_exact_shared_window() {
        let a = fps(vec![10, 20, 1, 2, 3, 30]);
        let b = fps(vec![40, 1, 2, 3, 50, 60]);
        let m = discover_motif(&a, &b, 3).unwrap();
        assert_eq!(m.distance, 0.0);
        assert_eq!(&a.ordered()[m.start_a..m.start_a + 3], &[1, 2, 3]);
        assert_eq!(&b.ordered()[m.start_b..m.start_b + 3], &[1, 2, 3]);
    }

    #[test]
    fn prefers_lower_distance_over_earlier_position() {
        // Early windows share 1 of 3; a later pair shares all 3.
        let a = fps(vec![1, 8, 9, 5, 6, 7]);
        let b = fps(vec![1, 2, 3, 5, 6, 7]);
        let m = discover_motif(&a, &b, 3).unwrap();
        assert_eq!(m.distance, 0.0);
        assert_eq!((m.start_a, m.start_b), (3, 3));
    }

    #[test]
    fn too_short_sequences_yield_none() {
        let a = fps(vec![1, 2]);
        let b = fps(vec![1, 2, 3]);
        assert!(discover_motif(&a, &b, 3).is_none());
        assert!(discover_motif(&b, &a, 3).is_none());
        assert!(discover_motif(&a, &b, 0).is_none());
        assert!(discover_motif(&fps(vec![]), &b, 1).is_none());
    }

    #[test]
    fn disjoint_sequences_have_distance_one() {
        let a = fps(vec![1, 2, 3, 4]);
        let b = fps(vec![5, 6, 7, 8]);
        let m = discover_motif(&a, &b, 2).unwrap();
        assert_eq!(m.distance, 1.0);
    }

    #[test]
    fn window_length_is_respected() {
        let a = fps((0..20).collect());
        let b = fps((10..30).collect());
        for len in [1usize, 3, 7] {
            let m = discover_motif(&a, &b, len).unwrap();
            assert_eq!(m.len, len);
            assert!(m.start_a + len <= 20);
            assert!(m.start_b + len <= 20);
        }
    }

    #[test]
    fn end_to_end_motif_on_real_fingerprints() {
        // Two L-shaped trajectories sharing their middle segment, sampled
        // densely (~15 m between points, GPS-like).
        let fp = Fingerprinter::default();
        let start = Point::new(51.5074, -0.1278).unwrap();
        let shared: Vec<Point> = (0..180)
            .map(|i| start.destination(90.0, i as f64 * 15.0))
            .collect();
        let mut a_pts: Vec<Point> = (1..90)
            .rev()
            .map(|i| start.destination(180.0, i as f64 * 15.0))
            .collect();
        a_pts.extend(shared.iter().copied());
        let mut b_pts: Vec<Point> = (1..90)
            .rev()
            .map(|i| start.destination(0.0, i as f64 * 15.0))
            .collect();
        b_pts.extend(shared.iter().copied());
        let fa = fp.normalize_and_fingerprint(&Trajectory::new(a_pts));
        let fb = fp.normalize_and_fingerprint(&Trajectory::new(b_pts));
        let m = discover_motif(&fa, &fb, 4).expect("sequences long enough");
        // The shared eastward stretch must produce a near-perfect motif.
        assert!(m.distance < 0.5, "distance {}", m.distance);
        // Global distance is much worse than the motif distance.
        assert!(fa.jaccard_distance(&fb) > m.distance);
    }

    proptest! {
        #[test]
        fn prop_motif_distance_bounds(
            xs in proptest::collection::vec(0u32..50, 3..30),
            ys in proptest::collection::vec(0u32..50, 3..30),
            len in 1usize..4,
        ) {
            let a = fps(xs);
            let b = fps(ys);
            if let Some(m) = discover_motif(&a, &b, len) {
                prop_assert!((0.0..=1.0).contains(&m.distance));
                prop_assert!(m.start_a + len <= a.len());
                prop_assert!(m.start_b + len <= b.len());
            }
        }

        #[test]
        fn prop_self_motif_is_zero(
            xs in proptest::collection::vec(0u32..1000, 4..30),
            len in 1usize..4,
        ) {
            let a = fps(xs);
            let m = discover_motif(&a, &a, len).unwrap();
            prop_assert_eq!(m.distance, 0.0);
        }

        #[test]
        fn prop_brute_force_reference(
            xs in proptest::collection::vec(0u32..20, 3..15),
            ys in proptest::collection::vec(0u32..20, 3..15),
            len in 1usize..4,
        ) {
            use std::collections::HashSet;
            let a = fps(xs.clone());
            let b = fps(ys.clone());
            let got = discover_motif(&a, &b, len);
            // Independent reference with HashSets.
            let mut best = f64::INFINITY;
            if xs.len() >= len && ys.len() >= len {
                for wa in xs.windows(len) {
                    for wb in ys.windows(len) {
                        let sa: HashSet<u32> = wa.iter().copied().collect();
                        let sb: HashSet<u32> = wb.iter().copied().collect();
                        let inter = sa.intersection(&sb).count();
                        let union = sa.len() + sb.len() - inter;
                        let d = 1.0 - inter as f64 / union as f64;
                        if d < best { best = d; }
                    }
                }
                prop_assert!((got.unwrap().distance - best).abs() < 1e-12);
            } else {
                prop_assert!(got.is_none());
            }
        }
    }
}
