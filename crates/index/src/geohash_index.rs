use geodabs_geo::{CellEncoder, MAX_DEPTH};
use geodabs_traj::{TrajId, Trajectory};

use crate::engine::PostingLists;
use crate::{SearchOptions, SearchResult, TrajectoryIndex};

/// The baseline index of Section VI-D: terms are plain geohash cells of
/// the trajectory's points (as in landmark search engines), ranked by
/// Jaccard distance over cell *sets*.
///
/// Because a set of cells carries no ordering, this index cannot
/// distinguish a trajectory from its return path — the cause of the
/// 0.5-precision plateau in Figure 12 — and it discriminates overlapping
/// trajectories poorly, which Figure 14 shows as query time growing with
/// dataset density.
#[derive(Debug, Clone)]
pub struct GeohashIndex {
    depth: u8,
    /// Every cell gets a list; each slot keeps its sorted cell set.
    engine: PostingLists<u64, Vec<u64>>,
}

impl GeohashIndex {
    /// Creates an empty index over cells of `depth` bits (the paper's
    /// comparison uses the same 36-bit depth as geodab normalization).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or above 64.
    pub fn new(depth: u8) -> GeohashIndex {
        assert!(
            (1..=MAX_DEPTH).contains(&depth),
            "cell depth must be in 1..=64"
        );
        GeohashIndex {
            depth,
            engine: PostingLists::new(),
        }
    }

    /// The cell depth in bits.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Number of distinct cells in the dictionary.
    pub fn term_count(&self) -> usize {
        self.engine.term_count()
    }

    /// The distinct, sorted cell set of a trajectory at this index depth.
    pub fn cell_set(&self, trajectory: &Trajectory) -> Vec<u64> {
        cell_set_at(self.depth, trajectory)
    }

    /// Indexes a batch of trajectories, extracting cell sets across
    /// `threads` scoped worker threads; posting-list insertion stays
    /// single-writer, applied in input order. Produces exactly the index a
    /// sequential [`TrajectoryIndex::insert`] loop over `items` would.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn insert_batch_threads(&mut self, items: &[(TrajId, &Trajectory)], threads: usize) {
        let depth = self.depth;
        let cell_sets = crate::batch::parallel_map(items, threads, |&(id, trajectory)| {
            (id, cell_set_at(depth, trajectory))
        });
        for (id, cells) in cell_sets {
            self.engine.insert(id, cells, |_| true);
        }
    }
}

impl TrajectoryIndex for GeohashIndex {
    fn insert(&mut self, id: TrajId, trajectory: &Trajectory) {
        self.engine.insert(id, self.cell_set(trajectory), |_| true);
    }

    fn remove(&mut self, id: TrajId) -> bool {
        self.engine.remove(id)
    }

    fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult> {
        let query_cells = self.cell_set(query);
        self.engine.search(query_cells, options, |_| true).0
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
        GeohashIndex::insert_batch_threads(self, &items, crate::batch::default_threads());
    }
}

/// The distinct, sorted cell set of a trajectory at `depth` bits — free of
/// `&self` so batch workers can run it while the index is mutably held.
fn cell_set_at(depth: u8, trajectory: &Trajectory) -> Vec<u64> {
    CellEncoder::new(depth)
        .expect("depth validated at construction")
        .cell_set(trajectory.points())
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

    #[test]
    fn cell_set_is_sorted_and_deduplicated() {
        let idx = GeohashIndex::new(36);
        let t = eastward(40, 0.0);
        let cells = idx.cell_set(&t);
        assert!(!cells.is_empty());
        assert!(cells.windows(2).all(|w| w[0] < w[1]));
        assert!(cells.len() <= t.len());
    }

    #[test]
    fn cannot_discriminate_direction() {
        // The defining weakness: a trajectory and its reverse have the
        // same cell set, hence distance zero.
        let mut idx = GeohashIndex::new(36);
        let t = eastward(40, 0.0);
        idx.insert(TrajId::new(0), &t);
        idx.insert(TrajId::new(1), &t.reversed());
        let hits = idx.search(&t, &SearchOptions::default());
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].distance, hits[1].distance);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn still_separates_disjoint_regions() {
        let mut idx = GeohashIndex::new(36);
        idx.insert(TrajId::new(0), &eastward(40, 0.0));
        idx.insert(TrajId::new(1), &eastward(40, 20_000.0));
        let hits = idx.search(&eastward(40, 0.0), &SearchOptions::default());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, TrajId::new(0));
    }

    #[test]
    fn options_apply() {
        let mut idx = GeohashIndex::new(36);
        for i in 0..5u32 {
            idx.insert(TrajId::new(i), &eastward(40, i as f64 * 200.0));
        }
        let all = idx.search(&eastward(40, 0.0), &SearchOptions::default());
        assert!(
            all.len() > 1,
            "overlapping offsets should all be candidates"
        );
        let one = idx.search(&eastward(40, 0.0), &SearchOptions::default().limit(1));
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].id, all[0].id);
        let tight = idx.search(
            &eastward(40, 0.0),
            &SearchOptions::default().max_distance(0.1),
        );
        assert!(tight.iter().all(|h| h.distance <= 0.1));
    }

    #[test]
    fn depth_accessor_and_validation() {
        assert_eq!(GeohashIndex::new(36).depth(), 36);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_depth_panics() {
        let _ = GeohashIndex::new(0);
    }

    #[test]
    fn empty_index_is_empty() {
        let idx = GeohashIndex::new(36);
        assert!(idx.is_empty());
        assert_eq!(idx.term_count(), 0);
        assert!(idx
            .search(&eastward(10, 0.0), &SearchOptions::default())
            .is_empty());
    }

    #[test]
    fn engine_distances_match_brute_force_cell_jaccard() {
        let mut idx = GeohashIndex::new(36);
        let stored: Vec<Trajectory> = (0..6).map(|i| eastward(40, i as f64 * 400.0)).collect();
        for (i, t) in stored.iter().enumerate() {
            idx.insert(TrajId::new(i as u32), t);
        }
        let query = eastward(40, 100.0);
        let qcells = idx.cell_set(&query);
        let hits = idx.search(&query, &SearchOptions::default());
        assert!(!hits.is_empty());
        for h in &hits {
            let bcells = idx.cell_set(&stored[h.id.raw() as usize]);
            let inter = qcells.iter().filter(|c| bcells.contains(c)).count();
            assert!(inter > 0, "hits share at least one cell");
            let union = qcells.len() + bcells.len() - inter;
            assert_eq!(h.distance, 1.0 - inter as f64 / union as f64, "{}", h.id);
        }
    }
}
