//! Criterion micro-benchmarks of the computational kernels underlying
//! every figure: haversine, geohash encoding, geodab construction,
//! winnowing, fingerprinting, Jaccard between two fingerprint sets, DTW
//! and DFD, plus reference-vs-optimized pairs for point→cell encoding,
//! and the synthetic corpus generator (one sampled route, one 2k-record
//! dataset).
//!
//! Run with `cargo bench -p geodabs-bench --bench crit_kernels`. Set
//! `CRIT_QUICK=1` (the CI kernel-smoke step does) to shrink sample counts
//! and measurement time to a smoke-test budget.

use criterion::{criterion_group, criterion_main, Criterion};
use geodabs_bench::crit_config;
use geodabs_core::winnow::{winnow, winnow_streaming};
use geodabs_core::{geodab, Fingerprinter, Fingerprints};
use geodabs_distance::{dfd, dtw};
use geodabs_gen::dataset::{Dataset, DatasetConfig};
use geodabs_gen::sampler::{sample_route, SamplerConfig};
use geodabs_geo::{morton, CellEncoder, Geohash, Point};
use geodabs_index::store::crc32;
use geodabs_roadnet::generators::{grid_network, GridConfig};
use geodabs_roadnet::Route;
use geodabs_traj::{GeohashNormalizer, Normalizer, Trajectory};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn path(n: usize, offset_m: f64) -> Trajectory {
    let start = Point::new(51.5074, -0.1278)
        .expect("valid point")
        .destination(0.0, offset_m);
    (0..n)
        .map(|i| start.destination(90.0, i as f64 * 30.0))
        .collect()
}

fn bench_geo(c: &mut Criterion) {
    let a = Point::new(51.5074, -0.1278).expect("valid");
    let b = Point::new(48.8566, 2.3522).expect("valid");
    c.bench_function("haversine", |bench| {
        bench.iter(|| black_box(a).haversine_distance(black_box(b)))
    });
    c.bench_function("geohash_encode_36", |bench| {
        bench.iter(|| Geohash::encode(black_box(a), 36).expect("valid depth"))
    });
    let gram: Vec<Point> = (0..6)
        .map(|i| a.destination(90.0, i as f64 * 85.0))
        .collect();
    c.bench_function("geodab_6gram", |bench| {
        bench.iter(|| geodab(black_box(&gram), 16))
    });
}

fn bench_winnow(c: &mut Criterion) {
    let mut x: u32 = 99;
    let hashes: Vec<u32> = (0..1_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        })
        .collect();
    c.bench_function("winnow_1000_w7", |bench| {
        bench.iter(|| winnow(black_box(&hashes), 7))
    });
    c.bench_function("winnow_streaming_1000_w7", |bench| {
        bench.iter(|| winnow_streaming(black_box(&hashes).iter().copied(), 7))
    });
}

fn bench_fingerprint(c: &mut Criterion) {
    let fp = Fingerprinter::default();
    let t = path(1_000, 0.0);
    c.bench_function("fingerprint_1000pt", |bench| {
        bench.iter(|| fp.normalize_and_fingerprint(black_box(&t)))
    });
}

/// The per-request kernels of a served `wire-2k` query at their real
/// sizes: the CRC of one 7.1 KB raw-trajectory frame, robust
/// normalization of ~450 noisy 1 Hz samples, fingerprinting the ~80
/// cells that survive it, and both stages over the served corpus.
fn bench_request_path(c: &mut Criterion) {
    let frame: Vec<u8> = (0..7_100u32).map(|i| (i * 31 + 7) as u8).collect();
    c.bench_function("crc32_7k", |bench| bench.iter(|| crc32(black_box(&frame))));
    // 14 m per sample with ~20 m of deterministic lateral jitter, so
    // most samples sit in the held cell's hysteresis zone.
    let start = Point::new(51.5074, -0.1278).expect("valid point");
    let mut x: u32 = 7;
    let raw: Trajectory = (0..450)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            start
                .destination(90.0, i as f64 * 14.0)
                .destination(f64::from(x % 360), f64::from(x % 41))
        })
        .collect();
    let robust = GeohashNormalizer::robust(36).expect("valid depth");
    c.bench_function("normalize_robust_450pt", |bench| {
        bench.iter(|| robust.normalize(black_box(&raw)))
    });
    // One sample per ~100 m: every point lands in a 36-bit cell of its own.
    let sparse: Trajectory = (0..80)
        .map(|i| start.destination(90.0, i as f64 * 100.0))
        .collect();
    let cells = GeohashNormalizer::new(36)
        .expect("valid depth")
        .normalize(&sparse);
    assert_eq!(cells.len(), 80);
    let fp = Fingerprinter::default();
    c.bench_function("fingerprint_80cells", |bench| {
        bench.iter(|| fp.fingerprint(black_box(&cells)))
    });
    // The served shape: the stackbench `wire-2k` corpus (default grid,
    // 1 Hz, 20 m Gaussian noise, ~450 samples per record), one record
    // per iteration, round-robin.
    let net = grid_network(&GridConfig::default(), 42);
    let config = DatasetConfig {
        routes: 100,
        per_direction: 10,
        include_reverse: true,
        sampler: SamplerConfig {
            period_s: 1.0,
            noise_sigma_m: 20.0,
        },
        min_route_m: 2_000.0,
        queries: 0,
        max_attempts_per_route: 400,
    };
    let corpus = Dataset::generate(&net, &config, 42).expect("grid networks are routable");
    let raw: Vec<&Trajectory> = corpus.records().iter().map(|r| &r.trajectory).collect();
    let mut next = 0usize;
    c.bench_function("normalize_and_fingerprint_dense_urban", |bench| {
        bench.iter(|| {
            next = (next + 1) % raw.len();
            fp.normalize_and_fingerprint(black_box(raw[next]))
        })
    });
}

/// Eq. 1 at its served size: two sets of 18 distinct geodabs (a
/// `wire-2k` fingerprint has 17.8 on average) sharing half of them.
fn bench_jaccard(c: &mut Criterion) {
    let mut x: u32 = 0x9E37_79B9;
    let mut terms = std::iter::repeat_with(move || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    });
    let shared: Vec<u32> = terms.by_ref().take(9).collect();
    let mut fingerprint = |shared: &[u32]| {
        let mut ordered = shared.to_vec();
        ordered.extend(terms.by_ref().take(9));
        Fingerprints::from_ordered(ordered)
    };
    let (a, b) = (fingerprint(&shared), fingerprint(&shared));
    assert_eq!((a.distinct_len(), b.distinct_len()), (18, 18));
    c.bench_function("fingerprint_jaccard", |bench| {
        bench.iter(|| black_box(&a).jaccard_distance(black_box(&b)))
    });
}

fn bench_distances(c: &mut Criterion) {
    let a = path(200, 0.0);
    let b = path(200, 10.0);
    c.bench_function("dtw_200x200", |bench| {
        bench.iter(|| dtw(black_box(&a), black_box(&b)))
    });
    c.bench_function("dfd_200x200", |bench| {
        bench.iter(|| dfd(black_box(&a), black_box(&b)))
    });
}

fn bench_encode(c: &mut Criterion) {
    let t = path(1_000, 0.0);
    let points = t.points().to_vec();
    let pts = points.clone();
    c.bench_function("cells_1000pt_encode_loop", move |bench| {
        bench.iter(|| {
            let mut cells: Vec<u64> = pts
                .iter()
                .map(|&p| Geohash::encode(p, 36).expect("valid depth").bits())
                .collect();
            cells.sort_unstable();
            cells.dedup();
            cells
        })
    });
    let pts = points;
    let enc = CellEncoder::new(36).expect("valid depth");
    c.bench_function("cells_1000pt_encoder", move |bench| {
        bench.iter(|| enc.cell_set(black_box(&pts)))
    });
    c.bench_function("morton_spread_masks", |bench| {
        bench.iter(|| morton::spread_masks(black_box(0xDEAD_BEEF)))
    });
    c.bench_function("morton_spread_lut", |bench| {
        bench.iter(|| morton::spread(black_box(0xDEAD_BEEF)))
    });
}

/// The synthetic-corpus generator every benchmark set-up waits on: one
/// trajectory of the paper's 1 Hz / 20 m sampler at the dense corpus's
/// typical ~450 samples, and a whole 2k-record dense-urban corpus (routes
/// drawn, then every record and query sampled across all cores).
fn bench_generator(c: &mut Criterion) {
    let net = grid_network(&GridConfig::default(), 42);
    let corpus = DatasetConfig {
        routes: 100,
        per_direction: 10,
        include_reverse: true,
        sampler: SamplerConfig::default(),
        min_route_m: 2_000.0,
        queries: 64,
        max_attempts_per_route: 400,
    };
    let routes_only = DatasetConfig {
        per_direction: 0,
        queries: 0,
        ..corpus.clone()
    };
    let routes = Dataset::generate(&net, &routes_only, 42).expect("grid networks are routable");
    let off_450 = |r: &&Route| (r.duration_seconds() - 450.0).abs();
    let route = routes
        .routes()
        .iter()
        .min_by(|a, b| off_450(a).total_cmp(&off_450(b)))
        .expect("100 routes");
    let sampler = SamplerConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("sample_route_450pt", |bench| {
        bench.iter(|| sample_route(black_box(route), &sampler, &mut rng))
    });
    c.bench_function("dataset_generate_2k", |bench| {
        bench.iter(|| Dataset::generate(&net, black_box(&corpus), 42).expect("routable"))
    });
}

/// [`crit_config`] with fewer samples: one `dataset_generate_2k` pass (16
/// corpora) takes seconds.
fn generator_config() -> Criterion {
    let samples = if std::env::var_os("CRIT_QUICK").is_some() {
        2
    } else {
        10
    };
    crit_config().sample_size(samples)
}

criterion_group! {
    name = kernels_suite;
    config = crit_config();
    targets = bench_geo, bench_winnow, bench_fingerprint, bench_request_path, bench_jaccard,
        bench_distances, bench_encode
}
criterion_group! {
    name = generator_suite;
    config = generator_config();
    targets = bench_generator
}
criterion_main!(kernels_suite, generator_suite);
