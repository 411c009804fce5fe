//! Golden pin of every `GeohashNormalizer` shape and of `hash_points`.
//!
//! `fingerprint_golden.rs` pins the default pipeline (robust-36 points
//! and the default config's terms). This file widens the pin to the
//! plain, robust and full-hysteresis normalizers at a coarse, the
//! paper's and a fine depth, and to the raw 64-bit `hash_points` of
//! every 6-gram, so a kernel rewrite that is exact only at the default
//! parameters, or only in the suffix bits a geodab keeps, still shows.
//! The digests were captured before the normalizer and the hash were
//! rewritten; they must never change without a deliberate format bump.

use geodabs::core::hash::hash_points;
use geodabs::gen::dataset::{Dataset, DatasetConfig};
use geodabs::gen::sampler::SamplerConfig;
use geodabs::prelude::*;
use geodabs::roadnet::generators::{grid_network, GridConfig};
use geodabs::traj::{GeohashNormalizer, Normalizer};

/// FNV-1a over little-endian words, with a length prefix per sequence
/// so moving a point between neighbouring trajectories changes the
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

/// `(label, digest)` for each normalizer shape and depth, then the
/// 6-gram hashes of the robust-36 outputs, over every record and query.
fn digests(seed: u64) -> Vec<(String, u64)> {
    let ds = dense_urban(seed);
    let raw: Vec<&Trajectory> = ds
        .records()
        .iter()
        .map(|r| &r.trajectory)
        .chain(ds.queries().iter().map(|q| &q.trajectory))
        .collect();
    let mut out = Vec::new();
    for depth in [20u8, 36, 52] {
        let shapes = [
            ("new", GeohashNormalizer::new(depth).unwrap()),
            ("robust", GeohashNormalizer::robust(depth).unwrap()),
            (
                "hysteresis-1",
                GeohashNormalizer::new(depth).unwrap().with_hysteresis(1.0),
            ),
        ];
        for (name, normalizer) in shapes {
            let mut d = Digest::new();
            for t in &raw {
                d.points(&normalizer.normalize(t));
            }
            out.push((format!("{name}-{depth}"), d.0));
        }
    }
    let robust = GeohashNormalizer::robust(36).unwrap();
    let (mut d, mut grams) = (Digest::new(), 0usize);
    for t in &raw {
        let n = robust.normalize(t);
        d.word(n.len() as u64);
        for gram in n.points().windows(6) {
            d.word(hash_points(gram));
            grams += 1;
        }
    }
    assert!(grams > 10_000, "corpus too thin: {grams} 6-grams");
    out.push(("hash-6grams-robust-36".to_string(), d.0));
    out
}

fn assert_pinned(seed: u64, want: &[(&str, u64)]) {
    let got = digests(seed);
    let got: Vec<(&str, u64)> = got.iter().map(|(l, d)| (l.as_str(), *d)).collect();
    assert_eq!(
        got, want,
        "normalizer or hash output changed for seed {seed}"
    );
}

#[test]
fn seed_42_normalizers_and_hashes_are_pinned() {
    assert_pinned(
        42,
        &[
            ("new-20", 0xe42f9389d6548fc9),
            ("robust-20", 0xeabc30fd5a739d07),
            ("hysteresis-1-20", 0xeabc30fd5a739d07),
            ("new-36", 0x94ceec2261d4024d),
            ("robust-36", 0xaffde25b8db6a9ab),
            ("hysteresis-1-36", 0xb4fba941d7972447),
            ("new-52", 0xaa810a5d8e552c43),
            ("robust-52", 0xb632fcfb4f63dcc8),
            ("hysteresis-1-52", 0x28212cc267429dad),
            ("hash-6grams-robust-36", 0xdfdbc26a2c8b5fe5),
        ],
    );
}

#[test]
fn seed_43_normalizers_and_hashes_are_pinned() {
    assert_pinned(
        43,
        &[
            ("new-20", 0x5779283f812e667f),
            ("robust-20", 0x39750c5aad684ca5),
            ("hysteresis-1-20", 0x39750c5aad684ca5),
            ("new-36", 0x049d237cf2ad5aa8),
            ("robust-36", 0x1536c9eb6371c6fb),
            ("hysteresis-1-36", 0x759fb8e212bd5548),
            ("new-52", 0x900164e29e3d38a1),
            ("robust-52", 0x4fe7c480d578e7c6),
            ("hysteresis-1-52", 0x8ecc75619f32277d),
            ("hash-6grams-robust-36", 0xbd8ebcaf8f3ebf07),
        ],
    );
}
