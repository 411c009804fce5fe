//! The seeded inputs of one run — the dense-urban corpus and its 256
//! queries — and the benchmark's own oracle: the expected top-10 of
//! every query, ranked by brute force over sorted term lists rather
//! than by the engine under test.

use geodabs_core::{Fingerprinter, GeodabConfig};
use geodabs_gen::sampler::SamplerConfig;
use geodabs_gen::{Dataset, DatasetConfig};
use geodabs_index::{SearchOptions, SearchResult};
use geodabs_roadnet::generators::{grid_network, GridConfig};
use geodabs_traj::{TrajId, Trajectory};
use std::time::{Duration, Instant};

/// Distinct queries per workload, cycled round-robin by the load
/// generator.
pub const QUERIES: usize = 256;

/// Near-duplicates per route and direction (the paper's dense case:
/// 10 forward + 10 reverse, so about 20 trajectories share each road).
const PER_DIRECTION: usize = 10;

/// The ranking every request asks for.
pub fn search_options() -> SearchOptions {
    SearchOptions::default().limit(PER_DIRECTION)
}

/// Splits `items` in two halves mapped on two scoped threads — the
/// benchmark never uses more than the sandbox's two cores.
fn map_on_two_threads<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let (left, right) = items.split_at(items.len() / 2);
    let f = &f;
    std::thread::scope(|scope| {
        let right = scope.spawn(move || right.iter().map(f).collect::<Vec<U>>());
        let mut out: Vec<U> = left.iter().map(f).collect();
        out.extend(right.join().expect("oracle worker panicked"));
        out
    })
}

pub struct Corpus {
    pub dataset: Dataset,
    /// Ordered fingerprint terms of every record, in record order.
    pub record_terms: Vec<Vec<u32>>,
    /// Ordered fingerprint terms of every query.
    pub query_terms: Vec<Vec<u32>>,
    /// The oracle's ranking of every query.
    pub expected: Vec<Vec<SearchResult>>,
    /// Mean share of the oracle's top-10 that is ground-truth relevant.
    pub precision_at_10: f64,
    /// Time spent in the dataset generator.
    pub generate: Duration,
}

impl Corpus {
    /// Dense-urban preset — default grid network, 10 trajectories per
    /// direction with the reverse path included, 1 Hz, 20 m noise —
    /// with its oracle.
    pub fn generate(trajectories: usize, seed: u64) -> Corpus {
        let started = Instant::now();
        let network = grid_network(&GridConfig::default(), seed);
        let config = DatasetConfig {
            routes: (trajectories / (PER_DIRECTION * 2)).max(1),
            per_direction: PER_DIRECTION,
            include_reverse: true,
            sampler: SamplerConfig {
                period_s: 1.0,
                noise_sigma_m: 20.0,
            },
            min_route_m: 2_000.0,
            queries: QUERIES,
            max_attempts_per_route: 400,
        };
        let dataset =
            Dataset::generate(&network, &config, seed).expect("grid networks are always routable");
        let generate = started.elapsed();
        Corpus::solve(dataset, generate)
    }

    pub fn len(&self) -> usize {
        self.dataset.records().len()
    }

    /// `(id, trajectory)` pairs in record order, the shape bulk builds
    /// take.
    pub fn items(&self) -> Vec<(TrajId, &Trajectory)> {
        self.dataset
            .records()
            .iter()
            .map(|r| (r.id, &r.trajectory))
            .collect()
    }

    pub fn queries(&self) -> Vec<&Trajectory> {
        self.dataset
            .queries()
            .iter()
            .map(|q| &q.trajectory)
            .collect()
    }

    /// Fingerprints corpus and queries, ranks every query by brute
    /// force, and scores the rankings against the generator's ground
    /// truth.
    fn solve(dataset: Dataset, generate: Duration) -> Corpus {
        let fingerprinter = Fingerprinter::new(GeodabConfig::default());
        let terms = |t: &Trajectory| {
            fingerprinter
                .normalize_and_fingerprint(t)
                .ordered()
                .to_vec()
        };
        let record_terms = map_on_two_threads(dataset.records(), |r| terms(&r.trajectory));
        let query_terms: Vec<Vec<u32>> = dataset
            .queries()
            .iter()
            .map(|q| terms(&q.trajectory))
            .collect();
        let ids: Vec<TrajId> = dataset.records().iter().map(|r| r.id).collect();
        let sets: Vec<Vec<u32>> = record_terms.iter().map(|t| distinct(t)).collect();
        let expected = map_on_two_threads(&query_terms, |q| rank(&distinct(q), &ids, &sets));
        let relevant_hits: usize = dataset
            .queries()
            .iter()
            .zip(&expected)
            .map(|(query, hits)| {
                let relevant = dataset.relevant_ids(query);
                hits.iter().filter(|h| relevant.contains(&h.id)).count()
            })
            .sum();
        Corpus {
            precision_at_10: relevant_hits as f64 / (QUERIES * PER_DIRECTION) as f64,
            dataset,
            record_terms,
            query_terms,
            expected,
            generate,
        }
    }
}

/// The sorted distinct terms of an ordered fingerprint sequence.
pub fn distinct(ordered: &[u32]) -> Vec<u32> {
    let mut set = ordered.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

/// Shared terms of two sorted distinct lists.
fn overlap(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut shared) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// Brute-force ranking of one query against every corpus term set:
/// Jaccard distance `1 - |A∩B| / |A∪B|` over distinct terms,
/// zero-overlap sets excluded, `(distance, id)` order, the default
/// `max_distance` of 1.0, top 10.
pub fn rank(query: &[u32], ids: &[TrajId], sets: &[Vec<u32>]) -> Vec<SearchResult> {
    let options = search_options();
    let mut hits: Vec<SearchResult> = Vec::new();
    for (id, set) in ids.iter().zip(sets) {
        let shared = overlap(query, set);
        if shared == 0 {
            continue;
        }
        let union = query.len() as u64 + set.len() as u64 - shared;
        let distance = 1.0 - shared as f64 / union as f64;
        if distance <= options.max_distance {
            hits.push(SearchResult { id: *id, distance });
        }
    }
    hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
    hits.truncate(options.limit.expect("the benchmark always limits"));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_index::{GeodabIndex, TrajectoryIndex};

    #[test]
    fn oracle_agrees_with_the_index_on_a_200_trajectory_corpus() {
        let corpus = Corpus::generate(200, 11);
        assert_eq!(corpus.len(), 200);
        assert_eq!(corpus.expected.len(), QUERIES);
        let mut index = GeodabIndex::new(GeodabConfig::default());
        index.insert_batch_threads(&corpus.items(), 2);
        let options = search_options();
        for (query, expected) in corpus.queries().iter().zip(&corpus.expected) {
            assert_eq!(&index.search(query, &options), expected);
        }
        assert!(corpus.expected.iter().any(|hits| !hits.is_empty()));
        assert!(corpus.precision_at_10 > 0.5 && corpus.precision_at_10 <= 1.0);
    }

    #[test]
    fn rank_orders_by_distance_then_id_and_skips_disjoint_sets() {
        let ids: Vec<TrajId> = (0..4).map(TrajId::new).collect();
        let sets = vec![vec![1, 2, 3, 4], vec![9], vec![1, 2], vec![1, 2, 3, 4]];
        let hits = rank(&[1, 2, 3, 4], &ids, &sets);
        let got: Vec<(u32, f64)> = hits.iter().map(|h| (h.id.raw(), h.distance)).collect();
        assert_eq!(got, vec![(0, 0.0), (3, 0.0), (2, 0.5)]);
    }
}
