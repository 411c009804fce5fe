//! Golden pin of the normalization + fingerprinting pipeline.
//!
//! Every retrieval-quality test in the workspace compares the pipeline
//! with itself (index-time vs query-time), so a one-ulp drift in
//! `GeohashNormalizer` or a changed geodab bit would only show up as a
//! moved `precision_at_10`. These digests were captured from the
//! per-sample normalizer and the `geodab()`-per-k-gram fingerprinter
//! *before* either kernel was rewritten; they must never change without
//! a deliberate format bump (every snapshot, WAL record and shard
//! routing decision depends on the term values).

use geodabs::gen::dataset::{Dataset, DatasetConfig};
use geodabs::gen::sampler::SamplerConfig;
use geodabs::prelude::*;
use geodabs::roadnet::generators::{grid_network, GridConfig};
use geodabs::traj::{GeohashNormalizer, Normalizer};

/// FNV-1a over little-endian words, with a length prefix per sequence
/// so moving a term between neighbouring trajectories changes the
/// digest.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn terms(&mut self, terms: &[u32]) {
        self.word(terms.len() as u64);
        for &t in terms {
            self.word(u64::from(t));
        }
    }

    fn points(&mut self, t: &Trajectory) {
        self.word(t.len() as u64);
        for p in t.iter() {
            self.word(p.lat().to_bits());
            self.word(p.lon().to_bits());
        }
    }
}

/// The stackbench dense-urban preset at 200 records: 10 routes × 10 per
/// direction × both directions, 1 Hz sampling, 20 m noise.
fn dense_urban(seed: u64) -> Dataset {
    let network = grid_network(&GridConfig::default(), seed);
    let config = DatasetConfig {
        routes: 10,
        per_direction: 10,
        include_reverse: true,
        sampler: SamplerConfig {
            period_s: 1.0,
            noise_sigma_m: 20.0,
        },
        min_route_m: 2_000.0,
        queries: 32,
        max_attempts_per_route: 400,
    };
    Dataset::generate(&network, &config, seed).expect("grid networks are always routable")
}

fn trajectories(ds: &Dataset) -> impl Iterator<Item = &Trajectory> {
    ds.records()
        .iter()
        .map(|r| &r.trajectory)
        .chain(ds.queries().iter().map(|q| &q.trajectory))
}

/// `(ordered terms, GeohashNormalizer::new(36), GeohashNormalizer::robust(36))`
/// digests over every record and query of the seeded corpus.
fn digests(seed: u64) -> (u64, u64, u64) {
    let ds = dense_urban(seed);
    assert!(ds.records().len() >= 200, "{} records", ds.records().len());
    let fingerprinter = Fingerprinter::new(GeodabConfig::default());
    let plain = GeohashNormalizer::new(36).unwrap();
    let robust = GeohashNormalizer::robust(36).unwrap();
    let (mut terms, mut plain_pts, mut robust_pts) = (Digest::new(), Digest::new(), Digest::new());
    let mut total_terms = 0usize;
    for t in trajectories(&ds) {
        let fp = fingerprinter.normalize_and_fingerprint(t);
        total_terms += fp.len();
        terms.terms(fp.ordered());
        plain_pts.points(&plain.normalize(t));
        robust_pts.points(&robust.normalize(t));
    }
    assert!(total_terms > 1_000, "corpus too thin: {total_terms} terms");
    (terms.0, plain_pts.0, robust_pts.0)
}

#[test]
fn seed_42_pipeline_is_pinned() {
    assert_eq!(
        digests(42),
        (0x90e7ca8021a2f56a, 0x94ceec2261d4024d, 0xaffde25b8db6a9ab),
        "normalization or fingerprint output changed for seed 42"
    );
}

#[test]
fn seed_43_pipeline_is_pinned() {
    assert_eq!(
        digests(43),
        (0xa0cc2c8ac0ae7a0e, 0x049d237cf2ad5aa8, 0x1536c9eb6371c6fb),
        "normalization or fingerprint output changed for seed 43"
    );
}
