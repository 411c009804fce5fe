//! Property-based equivalence of the pruned top-k query engine and the
//! naive full-scan ranker.
//!
//! The engine (term-at-a-time overlap counting, rarest-first, with
//! upper-bound admission pruning and a bounded heap) is an *optimization*,
//! not an approximation: for every workload and every combination of
//! `SearchOptions` it must return exactly the ids and distances of the
//! collect-all-then-sort reference, ties broken by id. These properties
//! drive randomized workloads through both paths and assert bit-identical
//! results.

use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::{GeodabIndex, SearchOptions, SearchResult};
use geodabs_traj::TrajId;
use proptest::prelude::*;

fn index_of(sets: &[Vec<u32>]) -> GeodabIndex {
    let mut idx = GeodabIndex::new(GeodabConfig::default());
    for (i, set) in sets.iter().enumerate() {
        idx.insert_fingerprints(
            TrajId::new(i as u32),
            Fingerprints::from_ordered(set.clone()),
        );
    }
    idx
}

fn assert_identical(pruned: &[SearchResult], naive: &[SearchResult]) -> Result<(), TestCaseError> {
    prop_assert_eq!(pruned.len(), naive.len());
    for (p, n) in pruned.iter().zip(naive) {
        prop_assert_eq!(p.id, n.id);
        // Bit-identical distances: both paths must evaluate the same
        // 1 − |A∩B| / (|A| + |B| − |A∩B|) expression over the same integers.
        prop_assert_eq!(p.distance.to_bits(), n.distance.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Unlimited, unthresholded search: the engine must reproduce the
    /// full ranking.
    #[test]
    fn full_ranking_matches_naive(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..400, 0..50), 0..80),
        query in proptest::collection::vec(0u32..400, 0..50),
    ) {
        let idx = index_of(&sets);
        let fp = Fingerprints::from_ordered(query);
        let options = SearchOptions::default();
        assert_identical(
            &idx.search_fingerprints(&fp, &options),
            &idx.search_fingerprints_naive(&fp, &options),
        )?;
    }

    /// Every combination of limit and threshold, including the degenerate
    /// ones (`limit == 0`, `max_distance == 0.0`), stays exact — this is
    /// where admission pruning and the bounded heap actually engage.
    #[test]
    fn pruned_topk_matches_naive_under_options(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..300, 0..40), 0..60),
        query in proptest::collection::vec(0u32..300, 0..40),
        limit in 0usize..12,
        threshold_pm in 0u32..101,
    ) {
        let idx = index_of(&sets);
        let fp = Fingerprints::from_ordered(query);
        // limit 0 means "no limit"; 1..=11 map to explicit limits 0..=10.
        let mut options = SearchOptions::default()
            .max_distance(threshold_pm as f64 / 100.0);
        if limit > 0 {
            options = options.limit(limit - 1);
        }
        assert_identical(
            &idx.search_fingerprints(&fp, &options),
            &idx.search_fingerprints_naive(&fp, &options),
        )?;
    }

    /// Skewed workloads — one hot term shared by everything plus long
    /// unique tails — exercise the rarest-first ordering and the flip to
    /// increment-only scanning.
    #[test]
    fn skewed_postings_stay_exact(
        tails in proptest::collection::vec(
            proptest::collection::vec(100u32..10_000, 0..25), 1..50),
        limit in 1usize..6,
    ) {
        let sets: Vec<Vec<u32>> = tails
            .iter()
            .map(|tail| {
                let mut s = vec![7u32]; // the hot term
                s.extend_from_slice(tail);
                s
            })
            .collect();
        let idx = index_of(&sets);
        // The query shares the hot term with every trajectory and the
        // tail of the first one.
        let fp = Fingerprints::from_ordered(sets[0].clone());
        let options = SearchOptions::default().limit(limit);
        assert_identical(
            &idx.search_fingerprints(&fp, &options),
            &idx.search_fingerprints_naive(&fp, &options),
        )?;
    }

    /// Tie-heavy corpora: a handful of term sets over an alphabet of 12,
    /// each indexed under many ids in scrambled order, so whole groups of
    /// candidates share one distance and the k-th place goes by id — the
    /// boundary at which the engine's top-k decides whether to resolve a
    /// candidate's id at all.
    #[test]
    fn ties_at_the_kth_distance_break_by_id(
        shapes in proptest::collection::vec(
            proptest::collection::vec(0u32..12, 1..8), 1..5),
        owners in proptest::collection::vec(0usize..4, 8..80),
        query in proptest::collection::vec(0u32..12, 1..10),
        limit in 1usize..13,
        threshold_pm in 0u32..101,
    ) {
        let mut idx = GeodabIndex::new(GeodabConfig::default());
        for (i, &owner) in owners.iter().enumerate() {
            // 97 is coprime to 1 000: distinct ids, but dense slots
            // (insertion order) no longer follow id order.
            let id = (i as u32 * 97 + 13) % 1_000;
            idx.insert_fingerprints(
                TrajId::new(id),
                Fingerprints::from_ordered(shapes[owner % shapes.len()].clone()),
            );
        }
        let fp = Fingerprints::from_ordered(query);
        for options in [
            SearchOptions::default().limit(limit),
            SearchOptions::default()
                .limit(limit)
                .max_distance(threshold_pm as f64 / 100.0),
        ] {
            assert_identical(
                &idx.search_fingerprints(&fp, &options),
                &idx.search_fingerprints_naive(&fp, &options),
            )?;
        }
    }

    /// Removals and re-insertions (which recycle interned dense slots)
    /// must not disturb equivalence.
    #[test]
    fn equivalence_survives_removals_and_reinserts(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..200, 1..20), 4..40),
        remove_stride in 2usize..5,
        query in proptest::collection::vec(0u32..200, 1..20),
    ) {
        use geodabs_index::TrajectoryIndex;
        let mut idx = index_of(&sets);
        for i in (0..sets.len()).step_by(remove_stride) {
            idx.remove(TrajId::new(i as u32));
        }
        // Re-insert half of the removed ids with fresh sets.
        for i in (0..sets.len()).step_by(remove_stride * 2) {
            let recycled: Vec<u32> = sets[i].iter().map(|t| t + 1).collect();
            idx.insert_fingerprints(
                TrajId::new(i as u32),
                Fingerprints::from_ordered(recycled),
            );
        }
        let fp = Fingerprints::from_ordered(query);
        for options in [
            SearchOptions::default(),
            SearchOptions::default().limit(3),
            SearchOptions::default().limit(2).max_distance(0.6),
        ] {
            assert_identical(
                &idx.search_fingerprints(&fp, &options),
                &idx.search_fingerprints_naive(&fp, &options),
            )?;
        }
    }
}

/// A tiny deterministic generator for the plain (non-proptest) hazards
/// test below.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u32) -> u32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as u32
    }

    fn set(&mut self, vocabulary: u32, max_len: u32) -> Vec<u32> {
        let len = 1 + self.below(max_len);
        (0..len).map(|_| self.below(vocabulary)).collect()
    }
}

/// The engine counts overlaps in one per-thread array that outlives the
/// search (taken, bumped, zeroed where touched, parked). This drives the
/// hazards of that reuse on a **single thread**: 1 500 queries
/// alternating between two indexes of very different slot capacity,
/// while both grow (the array must grow with them), shrink and recycle
/// dense slots — and through every way a search can return early — each
/// compared with the naive ranker. A count leaking from one search into
/// the next would change a distance here; in debug builds the engine
/// additionally asserts the array is all-zero whenever it is parked.
#[test]
fn one_threads_accumulator_survives_alternating_indexes_and_early_exits() {
    use geodabs_index::TrajectoryIndex;

    let mut rng = XorShift(0x5EED_CAFE);
    // `small` stays around 30 slots, `large` around 700: the parked array
    // is always sized for `large` and mostly unused by `small`.
    let mut small = GeodabIndex::new(GeodabConfig::default());
    let mut large = GeodabIndex::new(GeodabConfig::default());
    const SMALL_VOCABULARY: u32 = 60;
    const LARGE_VOCABULARY: u32 = 500;
    for i in 0..30 {
        small.insert_fingerprints(
            TrajId::new(i),
            Fingerprints::from_ordered(rng.set(SMALL_VOCABULARY, 12)),
        );
    }
    for i in 0..400 {
        // Term 7 is hot: on every trajectory of `large`.
        let mut set = rng.set(LARGE_VOCABULARY, 25);
        set.push(7);
        large.insert_fingerprints(TrajId::new(i), Fingerprints::from_ordered(set));
    }
    let mut next_id = 1_000u32;

    for round in 0..1_500u32 {
        let on_large = round % 2 == 0;
        let (index, vocabulary) = match on_large {
            true => (&mut large, LARGE_VOCABULARY),
            false => (&mut small, SMALL_VOCABULARY),
        };

        // Mutate between queries: growth past every capacity seen so
        // far, then removals whose slots the next inserts recycle.
        if round % 25 == 0 {
            let grow = if on_large { 20 } else { 2 };
            for _ in 0..grow {
                let mut set = rng.set(vocabulary, 20);
                if on_large {
                    set.push(7);
                }
                index.insert_fingerprints(TrajId::new(next_id), Fingerprints::from_ordered(set));
                next_id += 1;
            }
        }
        if round % 40 == 1 {
            let ids: Vec<TrajId> = index.ids().collect();
            for _ in 0..ids.len() / 10 {
                index.remove(ids[rng.below(ids.len() as u32) as usize]);
            }
        }

        let default = SearchOptions::default();
        let (query, options): (Vec<u32>, SearchOptions) = match round % 7 {
            // Empty query.
            0 => (Vec::new(), default.limit(3)),
            // A limit of zero.
            1 => (rng.set(vocabulary, 20), default.limit(0)),
            // No query term has a posting list.
            2 => (vec![900_000 + round, 900_001 + round], default),
            // One known term among unknown ones under a tight threshold:
            // admission freezes before any candidate exists.
            3 => (
                vec![rng.below(vocabulary), 800_000, 800_001, 800_002],
                default.max_distance(0.5),
            ),
            // Pruned top-k, with and without the hot term.
            4 => (
                rng.set(vocabulary, 25),
                default.limit(1 + rng.below(5) as usize),
            ),
            5 => {
                let mut query = rng.set(vocabulary, 25);
                query.push(7);
                (query, default.limit(2).max_distance(0.9))
            }
            // The full ranking.
            _ => (rng.set(vocabulary, 25), default),
        };
        let fp = Fingerprints::from_ordered(query);
        let pruned = index.search_fingerprints(&fp, &options);
        let naive = index.search_fingerprints_naive(&fp, &options);
        assert_identical(&pruned, &naive)
            .unwrap_or_else(|e| panic!("round {round} ({options:?}): {e:?}"));
        // The first four shapes are the early exits: nothing can match.
        assert!(round % 7 >= 4 || pruned.is_empty(), "round {round}");
    }
}
