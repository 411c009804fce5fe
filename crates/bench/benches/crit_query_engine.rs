//! Criterion benchmark of the pruned top-k query engine against the naive
//! collect-all-then-sort ranker, in three groups:
//!
//! * `*_10k` — a 10 000-trajectory corpus, synthetic but
//!   posting-realistic: 500 routes of ~60 terms each, 20 trajectories per
//!   route sharing ~90% of their route's terms, with a few region-level
//!   hot terms shared across 25 routes — so posting lists range from a
//!   handful of entries to hundreds, which is exactly the skew the
//!   rarest-first upper-bound pruning exploits.
//! * `*_dense100k` — the same generator at 5 000 routes with regions of
//!   250 routes: 100 000 trajectories, four 5 000-entry hot lists per
//!   query (~20 000 posting entries, the shape of stackbench's
//!   `dense-100k`). This is where the per-candidate bookkeeping, not the
//!   posting walk, used to dominate.
//! * `frozen_long_lists_*` — the adversarial cases for the frozen phase:
//!   three 60 000-entry postings left to count once admission has
//!   frozen. `_probed` froze with 8 candidates: walking the lists would
//!   cost 180 000 visits for 24 useful increments, probing costs 24
//!   `contains` — the case that justifies `engine::PROBE_RATIO`.
//!   `_walked` froze with 6 000 candidates, a tenth of each list: below
//!   the ratio, so the lists are walked with the counted-only bump.
//!
//! Before any timing, the engine is checked equal to the naive ranker on
//! every query of each corpus, under every option set it is timed with.
//!
//! Run with `cargo bench -p geodabs-bench --bench crit_query_engine`;
//! `CRIT_QUICK=1` shrinks the budget to a smoke test (used by the CI
//! `Query-engine smoke` step).

use criterion::{criterion_group, criterion_main, Criterion};
use geodabs_bench::crit_config;
use geodabs_core::{Fingerprints, GeodabConfig};
use geodabs_index::engine::PostingLists;
use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
use geodabs_traj::TrajId;
use std::hint::black_box;

const PER_ROUTE: usize = 20;
const TERMS_PER_ROUTE: usize = 60;

/// A corpus shape: `routes × PER_ROUTE` trajectories, hot terms shared by
/// `routes_per_region × PER_ROUTE` of them.
#[derive(Clone, Copy)]
struct Shape {
    label: &'static str,
    routes: usize,
    routes_per_region: usize,
}

const SHAPES: [Shape; 2] = [
    Shape {
        label: "10k",
        routes: 500,
        routes_per_region: 25,
    },
    Shape {
        label: "dense100k",
        routes: 5_000,
        routes_per_region: 250,
    },
];

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One trajectory's fingerprint set: most of its route's terms, plus its
/// region's hot terms, plus a small unique tail.
fn trajectory_terms(rng: &mut XorShift, shape: Shape, route: usize) -> Vec<u32> {
    let region = route / shape.routes_per_region;
    let mut terms: Vec<u32> = Vec::with_capacity(TERMS_PER_ROUTE + 8);
    let route_base = 10_000 + (route as u32) * TERMS_PER_ROUTE as u32;
    for t in 0..TERMS_PER_ROUTE as u32 {
        // Keep ~90% of the route's terms.
        if rng.below(10) != 0 {
            terms.push(route_base + t);
        }
    }
    // Region-level hot terms: long posting lists shared by the region.
    for h in 0..4u32 {
        terms.push(region as u32 * 8 + h);
    }
    // Unique noise tail.
    for _ in 0..4 {
        terms.push(1_000_000 + rng.below(4_000_000) as u32);
    }
    terms
}

fn build_corpus(shape: Shape) -> (GeodabIndex, Vec<Fingerprints>) {
    let mut rng = XorShift(0xC0FFEE);
    let mut index = GeodabIndex::new(GeodabConfig::default());
    let mut queries = Vec::new();
    for route in 0..shape.routes {
        for i in 0..PER_ROUTE {
            let id = TrajId::new((route * PER_ROUTE + i) as u32);
            let terms = trajectory_terms(&mut rng, shape, route);
            if i == 0 && route % (shape.routes / 10) == 0 {
                // Query workload: a fresh perturbation of this route.
                queries.push(Fingerprints::from_ordered(trajectory_terms(
                    &mut rng, shape, route,
                )));
            }
            index.insert_fingerprints(id, Fingerprints::from_ordered(terms));
        }
    }
    (index, queries)
}

type Ranker = fn(&GeodabIndex, &Fingerprints, &SearchOptions) -> Vec<geodabs_index::SearchResult>;

fn bench_query_engine(c: &mut Criterion) {
    for shape in SHAPES {
        let (index, queries) = build_corpus(shape);
        assert_eq!(index.len(), shape.routes * PER_ROUTE);

        let engine: Ranker = GeodabIndex::search_fingerprints;
        let naive: Ranker = GeodabIndex::search_fingerprints_naive;
        let cases: [(&str, SearchOptions, Ranker); 6] = [
            ("engine_topk10", SearchOptions::default().limit(10), engine),
            ("naive_topk10", SearchOptions::default().limit(10), naive),
            (
                "engine_topk10_d0.4",
                SearchOptions::default().max_distance(0.4).limit(10),
                engine,
            ),
            (
                "naive_topk10_d0.4",
                SearchOptions::default().max_distance(0.4).limit(10),
                naive,
            ),
            ("engine_unbounded", SearchOptions::default(), engine),
            ("naive_unbounded", SearchOptions::default(), naive),
        ];
        for (_, options, _) in cases.iter().filter(|(name, ..)| name.starts_with("engine")) {
            for q in &queries {
                assert_eq!(
                    engine(&index, q, options),
                    naive(&index, q, options),
                    "engine diverged from naive on {} under {options:?}",
                    shape.label
                );
            }
        }
        for (name, options, ranker) in cases {
            c.bench_function(&format!("{name}_{}", shape.label), |b| {
                let mut i = 0;
                b.iter(|| {
                    let q = &queries[i % queries.len()];
                    i += 1;
                    black_box(ranker(&index, black_box(q), &options))
                })
            });
        }
    }
}

/// The frozen-phase cases: `admitted` candidates share the query's twelve
/// rare terms, everything (60 000 trajectories) shares its three hot
/// ones. With `limit 5` admission freezes before the hot lists are
/// reached, so they are counted against `admitted` candidates only.
fn bench_frozen_long_lists(c: &mut Criterion) {
    const CROWD: u32 = 60_000;
    let hot = [1u32, 2, 3];
    let rare: Vec<u32> = (10..22).collect();
    for (name, admitted) in [
        ("frozen_long_lists_probed", 8u32),
        ("frozen_long_lists_walked", 6_000),
    ] {
        let mut lists: PostingLists<Vec<u32>> = PostingLists::new();
        for i in 0..CROWD {
            let mut terms = hot.to_vec();
            if i < admitted {
                // The first few match the query exactly, the rest of the
                // admitted share one rare term less each.
                terms.extend(rare.iter().skip((i as usize / 4).min(6)));
            }
            terms.extend([1_000_000 + 2 * i, 1_000_001 + 2 * i]);
            lists.insert(TrajId::new(i), terms, |_| true);
        }
        let query: Vec<u32> = rare.iter().chain(&hot).copied().collect();
        let options = SearchOptions::default().limit(5);
        let (hits, _) = lists.search(query.iter().copied(), &options, |_| true);
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.id.raw() < admitted));
        c.bench_function(name, |b| {
            b.iter(|| {
                black_box(lists.search(black_box(&query).iter().copied(), &options, |_| true))
            })
        });
    }
}

criterion_group! {
    name = query_engine;
    config = crit_config();
    targets = bench_query_engine, bench_frozen_long_lists
}
criterion_main!(query_engine);
