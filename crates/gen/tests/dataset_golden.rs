//! Golden pin of the dataset generator's output.
//!
//! Every index, snapshot and benchmark corpus in the workspace is drawn
//! by `Dataset::generate`, so its output is part of the contract: a
//! changed draw order or a one-ulp drift in the sampler would silently
//! move every seeded result. These digests were captured from the
//! sequential generator, before record sampling was spread across
//! threads; the parallel generator must reproduce them bit for bit on
//! any core count.

use geodabs_gen::dataset::{Dataset, DatasetConfig};
use geodabs_gen::sampler::SamplerConfig;
use geodabs_roadnet::generators::{grid_network, GridConfig};
use geodabs_traj::Trajectory;

/// FNV-1a over little-endian words.
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

    /// Length prefix, then every point's latitude and longitude bits.
    fn points(&mut self, t: &Trajectory) {
        self.word(t.len() as u64);
        for p in t.iter() {
            self.word(p.lat().to_bits());
            self.word(p.lon().to_bits());
        }
    }
}

/// The stackbench dense-urban preset at 2 000 records: 100 routes × 10
/// per direction × both directions, 1 Hz, 20 m noise, 64 queries.
fn dense_urban(seed: u64) -> Dataset {
    let network = grid_network(&GridConfig::default(), seed);
    let config = DatasetConfig {
        routes: 100,
        per_direction: 10,
        include_reverse: true,
        sampler: SamplerConfig {
            period_s: 1.0,
            noise_sigma_m: 20.0,
        },
        min_route_m: 2_000.0,
        queries: 64,
        max_attempts_per_route: 400,
    };
    Dataset::generate(&network, &config, seed).expect("grid networks are always routable")
}

/// `(records, queries)` digests: provenance and every point's bits.
fn digests(seed: u64) -> (u64, u64) {
    let ds = dense_urban(seed);
    assert_eq!(ds.records().len(), 2_000);
    assert_eq!(ds.queries().len(), 64);
    let mut records = Digest::new();
    for r in ds.records() {
        records.word(u64::from(r.id.raw()));
        records.word(r.route as u64);
        records.word(u64::from(r.forward));
        records.points(&r.trajectory);
    }
    let mut queries = Digest::new();
    for q in ds.queries() {
        queries.word(q.route as u64);
        queries.word(u64::from(q.forward));
        queries.points(&q.trajectory);
    }
    (records.0, queries.0)
}

#[test]
fn seed_42_dataset_is_pinned() {
    assert_eq!(
        digests(42),
        (0xfce5_d1e5_625e_929f, 0xe6a0_d3cd_bd2d_efe4),
        "generated dataset changed for seed 42"
    );
}

#[test]
fn seed_43_dataset_is_pinned() {
    assert_eq!(
        digests(43),
        (0xf1b5_5061_18c6_b63b, 0x8c10_71ec_01f9_de33),
        "generated dataset changed for seed 43"
    );
}
