//! The winnowing guarantees, end to end on realistic data: common
//! sub-trajectories of at least `t` moves share a fingerprint; matches
//! shorter than `k` moves are treated as noise (Section IV-A).

use geodabs::prelude::*;
use geodabs::traj::{GeohashNormalizer, Normalizer};

fn start() -> Point {
    Point::new(51.5074, -0.1278).expect("valid point")
}

/// A clean path through a given cell sequence: `moves` eastward cell
/// transitions starting `offset_cells` in, one point per ~85 m move.
fn cell_path(offset_cells: usize, moves: usize) -> Trajectory {
    (0..=moves)
        .map(|i| start().destination(90.0, (offset_cells + i) as f64 * 95.0))
        .collect()
}

/// Fingerprint without smoothing (clean input, exact cell sequences).
fn clean_fingerprint(t: &Trajectory) -> Fingerprints {
    let fp = Fingerprinter::new(GeodabConfig::default());
    let plain = GeohashNormalizer::new(36).expect("valid depth");
    fp.fingerprint(&plain.normalize(t))
}

/// How many distinct geodabs the two fingerprint sets share.
fn shared(a: &Fingerprints, b: &Fingerprints) -> usize {
    let other = b.distinct();
    a.distinct()
        .iter()
        .filter(|g| other.binary_search(g).is_ok())
        .count()
}

#[test]
fn shared_run_of_t_moves_guarantees_a_common_fingerprint() {
    let config = GeodabConfig::default();
    // Two paths overlapping in exactly t = 12 moves: a guaranteed match.
    let a = cell_path(0, 30);
    let b = cell_path(30 - config.t(), 30);
    let fa = clean_fingerprint(&a);
    let fb = clean_fingerprint(&b);
    assert!(
        shared(&fa, &fb) >= 1,
        "winnowing guarantee violated for a t-move overlap"
    );
}

#[test]
fn overlap_shorter_than_k_is_noise() {
    let config = GeodabConfig::default();
    // Overlap of k - 1 = 5 moves: below the noise threshold, the overlap
    // spans no complete k-gram, so no fingerprint can match.
    let a = cell_path(0, 30);
    let b = cell_path(30 - (config.k() - 1), 60);
    let fa = clean_fingerprint(&a);
    let fb = clean_fingerprint(&b);
    assert_eq!(
        shared(&fa, &fb),
        0,
        "sub-k overlap must not produce a match"
    );
}

#[test]
fn overlap_between_k_and_t_may_or_may_not_match() {
    // Between the bounds the detection is probabilistic; we only check
    // that the machinery does not crash and distances stay in range.
    let a = cell_path(0, 30);
    for overlap in 6..12 {
        let b = cell_path(30 - overlap, 30);
        let fa = clean_fingerprint(&a);
        let fb = clean_fingerprint(&b);
        let d = fa.jaccard_distance(&fb);
        assert!((0.0..=1.0).contains(&d));
    }
}

#[test]
fn longer_overlaps_mean_smaller_distances() {
    let a = cell_path(0, 60);
    let mut last = 1.1;
    for overlap in [12usize, 24, 36, 48, 60] {
        let b = cell_path(60 - overlap, 60);
        let d = clean_fingerprint(&a).jaccard_distance(&clean_fingerprint(&b));
        assert!(
            d <= last + 0.15,
            "distance should broadly decrease with overlap: {d} after {last}"
        );
        last = d;
    }
    // Full overlap is an exact match.
    assert_eq!(
        clean_fingerprint(&a).jaccard_distance(&clean_fingerprint(&cell_path(0, 60))),
        0.0
    );
}

#[test]
fn fingerprint_density_matches_theory_on_long_paths() {
    // Winnowing selects ~2/(w+1) of the k-gram stream.
    let config = GeodabConfig::default();
    let t = cell_path(0, 400);
    let f = clean_fingerprint(&t);
    let candidates = (401 - config.k() + 1) as f64;
    let density = f.len() as f64 / candidates;
    let expected = 2.0 / (config.window() as f64 + 1.0);
    assert!(
        (density - expected).abs() < 0.1,
        "density {density:.3} vs theoretical {expected:.3}"
    );
}

#[test]
fn direction_flip_destroys_all_matches() {
    let a = cell_path(0, 40);
    let fa = clean_fingerprint(&a);
    let fr = clean_fingerprint(&a.reversed());
    assert!(shared(&fa, &fr) == 0, "reverse path must not match");
}
