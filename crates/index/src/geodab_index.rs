use geodabs_core::{Fingerprinter, Fingerprints, GeodabConfig};
use geodabs_traj::{Normalizer, TrajId, Trajectory};

use crate::engine::PostingLists;
use crate::result::finalize;
use crate::{SearchOptions, SearchResult, TrajectoryIndex};

/// The paper's inverted index: terms are geodab fingerprints, posting
/// lists are roaring bitmaps of interned trajectory ids, and ranked
/// retrieval runs on the exact pruned top-k engine of
/// [`crate::engine`] (Section IV-A).
///
/// # Examples
///
/// ```
/// use geodabs_core::GeodabConfig;
/// use geodabs_geo::Point;
/// use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
/// use geodabs_traj::{TrajId, Trajectory};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let start = Point::new(51.5074, -0.1278)?;
/// let path: Trajectory =
///     (0..40).map(|i| start.destination(90.0, i as f64 * 90.0)).collect();
///
/// let mut index = GeodabIndex::new(GeodabConfig::default());
/// index.insert(TrajId::new(0), &path);
/// index.insert(TrajId::new(1), &path.reversed());
///
/// // Top-1 ranked retrieval under a distance threshold.
/// let hits = index.search(&path, &SearchOptions::default().max_distance(0.5).limit(1));
/// assert_eq!(hits[0].id, TrajId::new(0));
/// assert_eq!(hits[0].distance, 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GeodabIndex {
    pub(crate) fingerprinter: Fingerprinter,
    /// Every geodab gets a list; each slot keeps its full fingerprints.
    pub(crate) engine: PostingLists<Fingerprints>,
}

impl GeodabIndex {
    /// Creates an empty index with the given fingerprinting configuration.
    pub fn new(config: GeodabConfig) -> GeodabIndex {
        GeodabIndex {
            fingerprinter: Fingerprinter::new(config),
            engine: PostingLists::new(),
        }
    }

    /// The fingerprinting configuration in use.
    pub fn config(&self) -> &GeodabConfig {
        self.fingerprinter.config()
    }

    /// Number of distinct terms (geodabs) in the dictionary.
    pub fn term_count(&self) -> usize {
        self.engine.term_count()
    }

    /// The stored fingerprints of an indexed trajectory.
    pub fn fingerprints(&self, id: TrajId) -> Option<&Fingerprints> {
        self.engine.replica(id)
    }

    /// Fingerprints a query trajectory with the index's pipeline
    /// (normalization + winnowing), e.g. for motif discovery against
    /// stored trajectories.
    pub fn fingerprint_query(&self, query: &Trajectory) -> Fingerprints {
        self.fingerprinter.normalize_and_fingerprint(query)
    }

    /// Indexes a trajectory normalized by the caller-provided normalizer
    /// instead of the default geohash grid — e.g. a
    /// [`geodabs_traj::MapMatchNormalizer`] for the paper's Section V-B
    /// pipeline. Queries against such an index must use
    /// [`GeodabIndex::search_with_normalizer`] with the same normalizer.
    pub fn insert_with_normalizer<N: Normalizer + ?Sized>(
        &mut self,
        normalizer: &N,
        id: TrajId,
        trajectory: &Trajectory,
    ) {
        let fp = self.fingerprinter.fingerprint_with(normalizer, trajectory);
        self.insert_fingerprints(id, fp);
    }

    /// Ranked retrieval with a caller-provided normalizer; see
    /// [`GeodabIndex::insert_with_normalizer`].
    pub fn search_with_normalizer<N: Normalizer + ?Sized>(
        &self,
        normalizer: &N,
        query: &Trajectory,
        options: &SearchOptions,
    ) -> Vec<SearchResult> {
        let fp = self.fingerprinter.fingerprint_with(normalizer, query);
        self.search_fingerprints(&fp, options)
    }

    /// Indexes a batch of trajectories, fingerprinting them across
    /// `threads` scoped worker threads; posting-list insertion stays
    /// single-writer, applied in input order. Produces exactly the index a
    /// sequential [`TrajectoryIndex::insert`] loop over `items` would —
    /// same fingerprints, same postings, same search results.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn insert_batch_threads(&mut self, items: &[(TrajId, &Trajectory)], threads: usize) {
        let fingerprinter = self.fingerprinter;
        let fps = crate::batch::parallel_map(items, threads, |&(id, trajectory)| {
            (id, fingerprinter.normalize_and_fingerprint(trajectory))
        });
        for (id, fp) in fps {
            self.insert_fingerprints(id, fp);
        }
    }

    /// Indexes pre-computed fingerprints under the given id, bypassing
    /// normalization and winnowing. Used by the binary codec on load and
    /// useful whenever fingerprints are computed elsewhere (e.g. on the
    /// client, as the sharding layer does). Re-inserting an existing id
    /// replaces its previous fingerprints.
    pub fn insert_fingerprints(&mut self, id: TrajId, fp: Fingerprints) {
        self.engine.insert(id, fp, |_| true);
    }

    /// Iterates over `(id, fingerprints)` of every indexed trajectory in
    /// unspecified order.
    pub fn iter_fingerprints(&self) -> impl Iterator<Item = (TrajId, &Fingerprints)> {
        self.engine.replicas()
    }

    /// Ranked retrieval starting from pre-computed query fingerprints,
    /// answered by the pruned top-k engine: overlap counting over roaring
    /// posting lists, rarest query term first, with candidates that cannot
    /// reach the current top-k threshold skipped. Exactly equivalent to
    /// [`GeodabIndex::search_fingerprints_naive`], only faster.
    pub fn search_fingerprints(
        &self,
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> Vec<SearchResult> {
        self.engine
            .search(query_fp.distinct().iter().copied(), options, |_| true)
            .0
    }

    /// The reference ranker the engine is proven against: materialize the
    /// full candidate set, compute each bitmap Jaccard distance, sort
    /// everything, then cut. Kept public for equivalence tests and the
    /// `crit_query_engine` benchmark; use
    /// [`GeodabIndex::search_fingerprints`] everywhere else.
    pub fn search_fingerprints_naive(
        &self,
        query_fp: &Fingerprints,
        options: &SearchOptions,
    ) -> Vec<SearchResult> {
        let hits = self
            .engine
            .candidate_ids(query_fp.distinct().iter().copied())
            .into_iter()
            .map(|id| SearchResult {
                id,
                distance: query_fp
                    .jaccard_distance(self.engine.replica(id).expect("a candidate is indexed")),
            })
            .collect();
        finalize(hits, options)
    }
}

impl TrajectoryIndex for GeodabIndex {
    fn insert(&mut self, id: TrajId, trajectory: &Trajectory) {
        let fp = self.fingerprinter.normalize_and_fingerprint(trajectory);
        self.insert_fingerprints(id, fp);
    }

    fn remove(&mut self, id: TrajId) -> bool {
        self.engine.remove(id)
    }

    fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult> {
        self.search_fingerprints(&self.fingerprint_query(query), options)
    }

    fn len(&self) -> usize {
        self.engine.len()
    }

    fn ids(&self) -> impl Iterator<Item = TrajId> + '_ {
        self.engine.replicas().map(|(id, _)| id)
    }

    fn insert_batch<'a, I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (TrajId, &'a Trajectory)>,
    {
        let items: Vec<(TrajId, &Trajectory)> = items.into_iter().collect();
        GeodabIndex::insert_batch_threads(self, &items, crate::batch::default_threads());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_geo::Point;

    fn start() -> Point {
        Point::new(51.5074, -0.1278).unwrap()
    }

    fn eastward(n: usize, offset_m: f64) -> Trajectory {
        (0..n)
            .map(|i| start().destination(90.0, offset_m + i as f64 * 90.0))
            .collect()
    }

    fn jittered(t: &Trajectory, bearing: f64, meters: f64) -> Trajectory {
        t.iter().map(|p| p.destination(bearing, meters)).collect()
    }

    fn sample_index() -> GeodabIndex {
        let mut idx = GeodabIndex::new(GeodabConfig::default());
        idx.insert(TrajId::new(0), &eastward(40, 0.0)); // the target
        idx.insert(TrajId::new(1), &eastward(40, 0.0).reversed()); // return path
        idx.insert(TrajId::new(2), &eastward(40, 20_000.0)); // elsewhere
        idx.insert(TrajId::new(3), &jittered(&eastward(40, 0.0), 200.0, 9.0)); // sibling
        idx
    }

    #[test]
    fn insert_and_len() {
        let idx = sample_index();
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
        assert!(idx.term_count() > 0);
        assert!(idx.fingerprints(TrajId::new(0)).is_some());
        assert!(idx.fingerprints(TrajId::new(9)).is_none());
    }

    #[test]
    fn search_ranks_same_direction_first() {
        let idx = sample_index();
        let query = jittered(&eastward(40, 0.0), 45.0, 7.0);
        let hits = idx.search(&query, &SearchOptions::default());
        assert!(!hits.is_empty());
        // Forward twin and sibling before anything else; reverse and
        // far-away trajectories must not precede them.
        assert!(hits[0].id == TrajId::new(0) || hits[0].id == TrajId::new(3));
        assert!(hits.windows(2).all(|w| w[0].distance <= w[1].distance));
    }

    #[test]
    fn far_away_trajectory_is_not_a_candidate() {
        let idx = sample_index();
        let query = eastward(40, 0.0);
        let candidates = idx
            .engine
            .candidate_ids(idx.fingerprint_query(&query).distinct().iter().copied());
        assert!(!candidates.contains(&TrajId::new(2)));
        assert!(candidates.windows(2).all(|w| w[0] < w[1]), "ascending ids");
    }

    #[test]
    fn pruned_engine_matches_naive_ranker() {
        let idx = sample_index();
        for query in [
            eastward(40, 0.0),
            eastward(40, 0.0).reversed(),
            jittered(&eastward(40, 0.0), 45.0, 7.0),
            eastward(40, 20_000.0),
        ] {
            let fp = idx.fingerprint_query(&query);
            for options in [
                SearchOptions::default(),
                SearchOptions::default().limit(1),
                SearchOptions::default().limit(2).max_distance(0.5),
                SearchOptions::default().max_distance(0.0),
            ] {
                assert_eq!(
                    idx.search_fingerprints(&fp, &options),
                    idx.search_fingerprints_naive(&fp, &options),
                    "options {options:?}"
                );
            }
        }
    }

    #[test]
    fn reverse_direction_scores_far() {
        let idx = sample_index();
        let hits = idx.search(&eastward(40, 0.0), &SearchOptions::default());
        let reverse = hits.iter().find(|h| h.id == TrajId::new(1));
        if let Some(r) = reverse {
            assert!(r.distance > 0.9, "reverse at {}", r.distance);
        }
        // Either way, the forward twin is ranked strictly better.
        assert_eq!(hits[0].id, TrajId::new(0));
        assert!(hits[0].distance < 0.1);
    }

    #[test]
    fn threshold_and_limit_apply() {
        let idx = sample_index();
        let query = eastward(40, 0.0);
        let all = idx.search(&query, &SearchOptions::default());
        let tight = idx.search(&query, &SearchOptions::default().max_distance(0.2));
        assert!(tight.len() <= all.len());
        assert!(tight.iter().all(|h| h.distance <= 0.2));
        let limited = idx.search(&query, &SearchOptions::default().limit(1));
        assert_eq!(limited.len(), 1);
        assert_eq!(limited[0].id, all[0].id);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = GeodabIndex::new(GeodabConfig::default());
        assert!(idx.is_empty());
        assert!(idx
            .search(&eastward(40, 0.0), &SearchOptions::default())
            .is_empty());
    }

    #[test]
    fn short_query_produces_no_candidates() {
        let idx = sample_index();
        let hits = idx.search(&eastward(3, 0.0), &SearchOptions::default());
        assert!(hits.is_empty());
    }

    #[test]
    fn reinserting_same_id_does_not_duplicate_postings() {
        let mut idx = GeodabIndex::new(GeodabConfig::default());
        let t = eastward(40, 0.0);
        idx.insert(TrajId::new(0), &t);
        idx.insert(TrajId::new(0), &t);
        assert_eq!(idx.len(), 1);
        let hits = idx.search(&t, &SearchOptions::default());
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn exact_duplicate_has_zero_distance() {
        let idx = sample_index();
        let hits = idx.search(&eastward(40, 0.0), &SearchOptions::default());
        assert_eq!(hits[0].id, TrajId::new(0));
        assert_eq!(hits[0].distance, 0.0);
    }
}
