use geodabs_traj::{GeohashNormalizer, Normalizer, Trajectory};

use crate::geodab::k_gram_geodabs;
use crate::winnow::winnow;
use crate::GeodabConfig;

/// The fingerprints of one trajectory: the ordered sequence of geodabs
/// winnowing selected, plus the distinct geodabs as a sorted slice.
///
/// The *ordered* view drives motif discovery (Section VI-C); the
/// *distinct* view drives indexing and Jaccard ranking (Section IV-A).
/// The paper keeps the set as a roaring bitmap (ref \[19\]); at ~18
/// terms a sorted slice is as fast to intersect and cheaper to build.
/// Both are built once, at their exact size.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fingerprints {
    ordered: Box<[u32]>,
    /// `ordered`, sorted and deduplicated.
    distinct: Box<[u32]>,
}

impl Fingerprints {
    /// Builds fingerprints from an ordered geodab selection.
    pub fn from_ordered(ordered: Vec<u32>) -> Fingerprints {
        let mut distinct = ordered.clone();
        distinct.sort_unstable();
        distinct.dedup();
        Fingerprints {
            ordered: ordered.into_boxed_slice(),
            distinct: distinct.into_boxed_slice(),
        }
    }

    /// The selected geodabs in trajectory order (may repeat).
    pub fn ordered(&self) -> &[u32] {
        &self.ordered
    }

    /// The distinct geodabs, ascending.
    pub fn distinct(&self) -> &[u32] {
        &self.distinct
    }

    /// Number of selected fingerprints (ordered view, with repeats).
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// Whether the trajectory produced no fingerprint (shorter than `k`).
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// Number of distinct geodabs.
    pub fn distinct_len(&self) -> u64 {
        self.distinct.len() as u64
    }

    /// The Jaccard coefficient between the two fingerprint sets, `1.0`
    /// for two empty sets.
    pub fn jaccard(&self, other: &Fingerprints) -> f64 {
        jaccard_sorted(&self.distinct, &other.distinct)
    }

    /// The Jaccard distance `δ` used to rank retrieval results
    /// (Equation 1 of the paper).
    pub fn jaccard_distance(&self, other: &Fingerprints) -> f64 {
        1.0 - self.jaccard(other)
    }
}

/// `|A ∩ B| / |A ∪ B|` of two sorted, deduplicated slices by one linear
/// merge, `1.0` for two empty sets.
pub(crate) fn jaccard_sorted(a: &[u32], b: &[u32]) -> f64 {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

impl<'a> IntoIterator for &'a Fingerprints {
    type Item = u32;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u32>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ordered.iter().copied()
    }
}

/// Extracts geodab fingerprints from trajectories — the function `W(S) = F`
/// of the paper, implementing its Algorithm 1.
///
/// The fingerprinter is cheap to construct and stateless; share one across
/// threads freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprinter {
    config: GeodabConfig,
}

impl Fingerprinter {
    /// Creates a fingerprinter with the given configuration.
    pub fn new(config: GeodabConfig) -> Fingerprinter {
        Fingerprinter { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeodabConfig {
        &self.config
    }

    /// Fingerprints an **already normalized** trajectory: computes the
    /// geodab of every `k`-gram (as [`crate::geodab`] would, several
    /// grams at a time) and winnows with window `t − k + 1`.
    ///
    /// Trajectories shorter than `k` points produce no fingerprints
    /// (matches below the noise threshold are discarded by design).
    pub fn fingerprint(&self, normalized: &Trajectory) -> Fingerprints {
        let k = self.config.k();
        if normalized.len() < k {
            return Fingerprints::default();
        }
        let candidates = k_gram_geodabs(normalized.points(), k, self.config.prefix_bits());
        Fingerprints::from_ordered(winnow(&candidates, self.config.window()))
    }

    /// Normalizes with the given normalizer, then fingerprints.
    pub fn fingerprint_with<N: Normalizer + ?Sized>(
        &self,
        normalizer: &N,
        raw: &Trajectory,
    ) -> Fingerprints {
        self.fingerprint(&normalizer.normalize(raw))
    }

    /// Normalizes on the geohash grid at the configured depth
    /// (Section V-A) — using the noise-robust variant with smoothing and
    /// transition hysteresis — then fingerprints. This is the default
    /// pipeline for raw GPS-like input.
    ///
    /// Use [`Fingerprinter::fingerprint_with`] with a plain
    /// [`GeohashNormalizer::new`] to reproduce the paper's literal
    /// construction without the robustness additions.
    pub fn normalize_and_fingerprint(&self, raw: &Trajectory) -> Fingerprints {
        let normalizer = GeohashNormalizer::robust(self.config.normalization_depth())
            .expect("config depth is validated at construction");
        self.fingerprint_with(&normalizer, raw)
    }
}

impl Default for Fingerprinter {
    /// A fingerprinter with the paper's default parameters.
    fn default() -> Fingerprinter {
        Fingerprinter::new(GeodabConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_geo::Point;
    use std::collections::BTreeSet;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new(lat, lon).unwrap()
    }

    /// A path of `n` points moving east in ~90 m steps (about one 36-bit
    /// cell per step in London).
    fn eastward(n: usize, offset_m: f64) -> Trajectory {
        let start = p(51.5074, -0.1278).destination(90.0, offset_m);
        (0..n)
            .map(|i| start.destination(90.0, i as f64 * 90.0))
            .collect()
    }

    #[test]
    fn short_trajectories_produce_no_fingerprints() {
        let fp = Fingerprinter::default();
        assert!(fp.fingerprint(&eastward(5, 0.0)).is_empty()); // k = 6
        assert!(fp.fingerprint(&Trajectory::default()).is_empty());
        assert!(!fp.fingerprint(&eastward(6, 0.0)).is_empty());
    }

    #[test]
    fn fingerprints_are_deterministic() {
        let fp = Fingerprinter::default();
        let t = eastward(40, 0.0);
        assert_eq!(fp.fingerprint(&t), fp.fingerprint(&t));
    }

    #[test]
    fn identical_trajectories_have_zero_distance() {
        let fp = Fingerprinter::default();
        let f = fp.normalize_and_fingerprint(&eastward(40, 0.0));
        assert_eq!(f.jaccard_distance(&f), 0.0);
        assert_eq!(f.jaccard(&f), 1.0);
    }

    /// A GPS-like dense path: one sample every ~14 m (1 Hz at urban
    /// speed), which is what the robust normalization pipeline targets.
    fn dense_eastward(n: usize, offset_m: f64) -> Trajectory {
        let start = p(51.5074, -0.1278).destination(90.0, offset_m);
        (0..n)
            .map(|i| start.destination(90.0, i as f64 * 14.0))
            .collect()
    }

    #[test]
    fn noisy_twin_is_close_reverse_is_far() {
        let fp = Fingerprinter::default();
        let t = dense_eastward(260, 0.0);
        let noisy: Trajectory = t
            .iter()
            .enumerate()
            .map(|(i, q)| q.destination(if i % 2 == 0 { 30.0 } else { 210.0 }, 12.0))
            .collect();
        let fa = fp.normalize_and_fingerprint(&t);
        let fb = fp.normalize_and_fingerprint(&noisy);
        let fr = fp.normalize_and_fingerprint(&t.reversed());
        let d_twin = fa.jaccard_distance(&fb);
        let d_rev = fa.jaccard_distance(&fr);
        assert!(d_twin < 0.5, "noisy twin too far: {d_twin}");
        assert!(d_rev > 0.9, "reverse too close: {d_rev}");
        assert!(d_twin < d_rev);
    }

    #[test]
    fn disjoint_paths_share_nothing() {
        let fp = Fingerprinter::default();
        let a = fp.normalize_and_fingerprint(&eastward(40, 0.0));
        let b = fp.normalize_and_fingerprint(&eastward(40, 50_000.0));
        assert_eq!(a.jaccard(&b), 0.0);
        assert!(a.distinct().iter().all(|g| !b.distinct().contains(g)));
    }

    #[test]
    fn overlapping_paths_share_fingerprints() {
        // Two paths sharing a long common stretch (>= t moves) must share
        // at least one fingerprint — the winnowing guarantee end to end.
        let fp = Fingerprinter::default();
        let a = fp.normalize_and_fingerprint(&eastward(40, 0.0));
        // Same path, but starting 10 moves in and extending further.
        let b = fp.normalize_and_fingerprint(&eastward(40, 10.0 * 90.0));
        assert!(
            a.distinct().iter().any(|g| b.distinct().contains(g)),
            "winnowing guarantee violated"
        );
        let d = a.jaccard_distance(&b);
        assert!(d < 1.0 && d > 0.0, "distance {d}");
    }

    #[test]
    fn ordered_view_follows_trajectory_order() {
        let fp = Fingerprinter::default();
        let f = fp.normalize_and_fingerprint(&eastward(60, 0.0));
        assert!(f.len() >= 2);
        assert_eq!(f.ordered().len(), f.len());
        // Every ordered entry is in the set.
        for g in &f {
            assert!(f.distinct().contains(&g));
        }
        assert!(f.distinct_len() <= f.len() as u64);
    }

    #[test]
    fn fingerprint_density_tracks_window() {
        // Expected winnowing density is 2/(w+1) over the k-gram stream.
        let fp = Fingerprinter::default();
        let t = eastward(300, 0.0);
        let n = GeohashNormalizer::new(36).unwrap().normalize(&t);
        let f = fp.fingerprint(&n);
        let candidates = n.len() - fp.config().k() + 1;
        let density = f.len() as f64 / candidates as f64;
        let expected = 2.0 / (fp.config().window() as f64 + 1.0);
        assert!(
            (density - expected).abs() < 0.15,
            "density {density:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn fingerprint_with_identity_equals_fingerprint() {
        use geodabs_traj::IdentityNormalizer;
        let fp = Fingerprinter::default();
        let t = eastward(30, 0.0);
        assert_eq!(
            fp.fingerprint_with(&IdentityNormalizer, &t),
            fp.fingerprint(&t)
        );
    }

    proptest::proptest! {
        /// The whole fingerprinting stage against the pre-rewrite path:
        /// the covering-walk geodab of every k-gram, then batch `winnow`.
        #[test]
        fn prop_fingerprint_equals_covering_walk_reference(
            lat in -89.0f64..89.0, lon in -179.9f64..179.9,
            k in 2usize..9, slack in 0usize..8, prefix_bits in 1u8..=31,
            steps in proptest::collection::vec((0.0f64..360.0, 0.0f64..5_000.0), 0..120),
        ) {
            let config = GeodabConfig::builder()
                .k(k)
                .t(k + slack)
                .prefix_bits(prefix_bits)
                .build()
                .unwrap();
            let mut at = p(lat, lon);
            let walk: Trajectory = steps
                .iter()
                .map(|&(bearing, meters)| {
                    at = at.destination(bearing, meters);
                    at
                })
                .collect();
            let got = Fingerprinter::new(config).fingerprint(&walk);
            let candidates: Vec<u32> = walk
                .k_grams(k)
                .map(|gram| crate::geodab::geodab_reference(gram, prefix_bits))
                .collect();
            let want = if walk.len() < k {
                Vec::new()
            } else {
                winnow(&candidates, config.window())
            };
            proptest::prop_assert_eq!(got.ordered(), want.as_slice());
        }
    }

    /// `|A ∩ B| / |A ∪ B|` over `BTreeSet`s, `1.0` for two empty sets.
    fn model_jaccard(a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> f64 {
        let inter = a.intersection(b).count();
        let union = a.union(b).count();
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    proptest::proptest! {
        /// `distinct` and both Jaccard forms against the `BTreeSet`
        /// model, bit for bit, with empty selections included.
        #[test]
        fn prop_jaccard_matches_btreeset_model(
            xs in proptest::collection::vec(0u32..64, 0..30),
            ys in proptest::collection::vec(0u32..64, 0..30),
            zs in proptest::collection::vec(0u32..64, 0..30),
        ) {
            let sets: Vec<BTreeSet<u32>> =
                [&xs, &ys, &zs].iter().map(|v| v.iter().copied().collect()).collect();
            let fps: Vec<Fingerprints> =
                [xs, ys, zs].into_iter().map(Fingerprints::from_ordered).collect();
            for (f, s) in fps.iter().zip(&sets) {
                proptest::prop_assert!(f.distinct().iter().eq(s.iter()));
                proptest::prop_assert_eq!(f.distinct_len(), s.len() as u64);
            }
            let (a, b, c) = (&fps[0], &fps[1], &fps[2]);
            let want = model_jaccard(&sets[0], &sets[1]);
            proptest::prop_assert_eq!(a.jaccard(b).to_bits(), want.to_bits());
            proptest::prop_assert_eq!(a.jaccard_distance(b).to_bits(), (1.0 - want).to_bits());
            proptest::prop_assert_eq!(a.jaccard(b).to_bits(), b.jaccard(a).to_bits());
            proptest::prop_assert_eq!(a.jaccard_distance(a), 0.0);
            // The Jaccard distance is a metric (Kosub, the paper's ref
            // [17]): the triangle inequality holds on every triple.
            proptest::prop_assert!(
                a.jaccard_distance(c) <= a.jaccard_distance(b) + b.jaccard_distance(c) + 1e-12
            );
        }
    }

    #[test]
    fn from_ordered_builds_consistent_set() {
        let f = Fingerprints::from_ordered(vec![5, 3, 5, 9]);
        assert_eq!(f.len(), 4);
        assert_eq!(f.distinct_len(), 3);
        assert_eq!(f.distinct(), [3, 5, 9]);
    }

    #[test]
    fn default_fingerprinter_uses_default_config() {
        assert_eq!(*Fingerprinter::default().config(), GeodabConfig::default());
    }
}
