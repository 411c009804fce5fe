//! The named, seed-reproducible corpora behind every `--scenario` flag.
//!
//! A scenario combines a dataset *preset* (built from the
//! [`geodabs_gen`] generators) with a corpus size, a query count and a
//! seed, so `snapshot save`, `snapshot load --verify rebuild`, `serve
//! --scenario`, `loadtest` and the CLI's integration tests all regenerate
//! the same trajectories from a name. Measuring the stack is not done
//! here: the repo's one benchmark is the `bench/stack` package.

use geodabs_cluster::{ClusterIndex, ShardNode};
use geodabs_gen::dataset::{Dataset, DatasetConfig};
use geodabs_gen::sampler::SamplerConfig;
use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
use geodabs_roadnet::generators::{grid_network, GridConfig};
use geodabs_serve::{AnyIndex, ServeBackend};

/// A dataset family: how the synthetic world and its trajectories look.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Short overlapping urban routes at 1 Hz with 20 m GPS noise — the
    /// paper's dense-London workload.
    DenseUrban,
    /// A wide-spacing network with long, mostly disjoint routes, noisier
    /// fixes and faster travel — sparse rural traffic.
    SparseRural,
    /// Dense-urban routes with zero positional noise, as if every fix had
    /// been map-matched onto the network (the Section V-B pipeline).
    RoadMatched,
    /// Route lengths spread from a few hundred meters to network-scale,
    /// stressing fingerprint-count variance within one corpus.
    MixedLength,
}

impl Preset {
    /// The preset's stable name (used in scenario names).
    pub fn name(&self) -> &'static str {
        match self {
            Preset::DenseUrban => "dense-urban",
            Preset::SparseRural => "sparse-rural",
            Preset::RoadMatched => "road-matched",
            Preset::MixedLength => "mixed-length",
        }
    }

    /// The road network the preset generates trajectories on.
    pub fn grid(&self) -> GridConfig {
        match self {
            Preset::DenseUrban | Preset::RoadMatched | Preset::MixedLength => GridConfig::default(),
            Preset::SparseRural => GridConfig {
                rows: 24,
                cols: 24,
                spacing_m: 1_500.0,
                jitter_m: 200.0,
                speed_range_mps: (15.0, 30.0),
                ..GridConfig::default()
            },
        }
    }

    /// The dataset configuration producing roughly `corpus` trajectories
    /// (routes × per-direction × 2, reverse paths included) and `queries`
    /// query trajectories.
    pub fn dataset(&self, corpus: usize, queries: usize) -> DatasetConfig {
        let (per_direction, min_route_m, noise_sigma_m) = match self {
            Preset::DenseUrban => (10, 2_000.0, 20.0),
            Preset::SparseRural => (5, 6_000.0, 30.0),
            Preset::RoadMatched => (10, 2_000.0, 0.0),
            Preset::MixedLength => (10, 400.0, 20.0),
        };
        let routes = (corpus / (per_direction * 2)).max(1);
        DatasetConfig {
            routes,
            per_direction,
            include_reverse: true,
            sampler: SamplerConfig {
                period_s: 1.0,
                noise_sigma_m,
            },
            min_route_m,
            queries,
            max_attempts_per_route: 400,
        }
    }
}

/// A named, reproducible workload: preset + corpus size + query count +
/// seed. The same scenario always generates the same trajectories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The scenario's stable name, as `--scenario` spells it.
    pub name: String,
    /// Dataset family.
    pub preset: Preset,
    /// Target corpus size in trajectories.
    pub corpus: usize,
    /// Number of query trajectories.
    pub queries: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Scenario {
    fn new(name: &str, preset: Preset, corpus: usize, queries: usize, seed: u64) -> Scenario {
        Scenario {
            name: name.to_string(),
            preset,
            corpus,
            queries,
            seed,
        }
    }
}

/// The scenario catalog: `micro` (the default, sized for tests and CI
/// smokes) and the `-1k/-10k/-100k` size families of every preset.
pub fn catalog() -> Vec<Scenario> {
    let mut scenarios = vec![Scenario::new("micro", Preset::DenseUrban, 40, 4, 7)];
    for (suffix, corpus, queries) in [
        ("1k", 1_000, 50),
        ("10k", 10_000, 100),
        ("100k", 100_000, 100),
    ] {
        scenarios.push(Scenario::new(
            &format!("dense-urban-{suffix}"),
            Preset::DenseUrban,
            corpus,
            queries,
            42,
        ));
    }
    for preset in [
        Preset::SparseRural,
        Preset::RoadMatched,
        Preset::MixedLength,
    ] {
        for (suffix, corpus, queries) in [("1k", 1_000, 50), ("10k", 10_000, 100)] {
            scenarios.push(Scenario::new(
                &format!("{}-{suffix}", preset.name()),
                preset,
                corpus,
                queries,
                42,
            ));
        }
    }
    scenarios
}

/// Generates a scenario's reproducible dataset (network + corpus +
/// queries).
pub fn generate(scenario: &Scenario) -> Dataset {
    let network = grid_network(&scenario.preset.grid(), scenario.seed);
    let config = scenario.preset.dataset(scenario.corpus, scenario.queries);
    Dataset::generate(&network, &config, scenario.seed).expect("grid networks are always routable")
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    catalog().into_iter().find(|s| s.name == name)
}

/// An empty index of the same backend and shape (configuration,
/// cluster geometry) as `index` — what a verification rebuild
/// re-ingests into.
fn fresh_twin(index: &AnyIndex) -> Result<AnyIndex, String> {
    Ok(match index {
        AnyIndex::Geodab(index) => AnyIndex::Geodab(GeodabIndex::new(*index.config())),
        AnyIndex::Cluster(index) => AnyIndex::Cluster(
            ClusterIndex::new(
                *index.config(),
                index.router().num_shards(),
                index.router().num_nodes(),
            )
            .map_err(|e| e.to_string())?,
        ),
        AnyIndex::Node(index) => AnyIndex::Node(
            ShardNode::new(
                *index.config(),
                index.router().num_shards(),
                index.router().num_nodes(),
                index.node_id(),
            )
            .map_err(|e| e.to_string())?,
        ),
    })
}

/// The result cap every verification replay queries with.
pub(crate) const VERIFY_LIMIT: usize = 10;

/// Verifies a restored (or warm-started) index against a fresh rebuild:
/// re-ingests the scenario's corpus into an empty index of the same
/// backend and shape, demands the same index shape, then replays every
/// scenario query and demands bit-identical rankings. The one
/// query-replay loop behind `geodabs snapshot load --verify rebuild` and
/// `geodabs serve --verify rebuild`.
///
/// Returns the number of queries that were compared.
///
/// # Errors
///
/// A message naming the divergence (shape mismatch or the count of
/// differing queries).
pub(crate) fn verify_against_rebuild(
    restored: &AnyIndex,
    scenario: &Scenario,
) -> Result<usize, String> {
    let dataset = generate(scenario);
    let mut fresh = fresh_twin(restored)?;
    fresh.insert_batch(dataset.records().iter().map(|r| (r.id, &r.trajectory)));
    if TrajectoryIndex::len(&fresh) != TrajectoryIndex::len(restored)
        || fresh.term_count() != restored.term_count()
    {
        return Err(format!(
            "rebuilt {} index shape differs from the loaded one \
             ({} vs {} trajectories, {} vs {} terms)",
            restored.backend_name(),
            TrajectoryIndex::len(&fresh),
            TrajectoryIndex::len(restored),
            fresh.term_count(),
            restored.term_count()
        ));
    }
    let options = SearchOptions::default().limit(VERIFY_LIMIT);
    let mismatches = dataset
        .queries()
        .iter()
        .filter(|q| {
            TrajectoryIndex::search(restored, &q.trajectory, &options)
                != TrajectoryIndex::search(&fresh, &q.trajectory, &options)
        })
        .count();
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} of {} queries answered differently than a fresh rebuild of \
             scenario {}",
            dataset.queries().len(),
            scenario.name
        ));
    }
    Ok(dataset.queries().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_core::GeodabConfig;
    use geodabs_index::store::Persist;
    use geodabs_traj::{TrajId, Trajectory};

    #[test]
    fn catalog_names_are_unique_and_cover_the_presets_and_sizes() {
        let scenarios = catalog();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate scenario names");
        for required in [
            "micro",
            "dense-urban-1k",
            "dense-urban-10k",
            "dense-urban-100k",
            "sparse-rural-1k",
            "road-matched-1k",
            "mixed-length-1k",
        ] {
            assert!(find(required).is_some(), "missing scenario {required}");
        }
        // The retired measurement scenarios stay retired.
        for retired in ["smoke", "serve", "durability", "cold-start"] {
            assert!(find(retired).is_none(), "{retired} is back in the catalog");
        }
    }

    #[test]
    fn presets_hit_their_corpus_targets() {
        for preset in [
            Preset::DenseUrban,
            Preset::SparseRural,
            Preset::RoadMatched,
            Preset::MixedLength,
        ] {
            for corpus in [1_000usize, 10_000] {
                let cfg = preset.dataset(corpus, 10);
                let produced = cfg.routes * cfg.per_direction * 2;
                assert_eq!(produced, corpus, "{} at {corpus}", preset.name());
            }
        }
    }

    // `geodabs loadtest` reports the load client's latency percentiles;
    // pin the nearest-rank definition those figures are computed with.
    #[test]
    fn percentiles_use_nearest_rank() {
        use geodabs_serve::percentile;
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 95.0), 95.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn any_index_roundtrips_snapshots_and_verifies_against_rebuild() {
        let scenario = find("micro").expect("catalog has micro");
        let dataset = generate(&scenario);
        let items: Vec<(TrajId, &Trajectory)> = dataset
            .records()
            .iter()
            .map(|r| (r.id, &r.trajectory))
            .collect();
        for backend in ["geodab", "cluster"] {
            let mut index = AnyIndex::empty(backend, 1_000, 3).expect("known backend");
            index.insert_batch(items.clone());
            assert_eq!(index.backend_name(), backend);
            assert_eq!(TrajectoryIndex::len(&index), 40);
            assert_eq!(TrajectoryIndex::ids(&index).count(), 40);

            // Snapshot → AnyIndex round trip picks the right backend…
            let restored = AnyIndex::from_snapshot(&index.to_snapshot()).expect("roundtrip");
            assert_eq!(restored.backend_name(), backend);
            assert_eq!(restored.term_count(), index.term_count());

            // …and the shared verification replay passes on it.
            let checked = verify_against_rebuild(&restored, &scenario).expect("verify");
            assert_eq!(checked, dataset.queries().len());
        }
        // The node backend ingests the corpus itself, keeping its slice;
        // the verification replay covers its snapshot too.
        let mut node =
            AnyIndex::Node(ShardNode::new(GeodabConfig::default(), 1_000, 2, 0).unwrap());
        node.insert_batch(items);
        let node = AnyIndex::from_snapshot(&node.to_snapshot()).expect("node snapshot loads");
        assert!(
            TrajectoryIndex::len(&node) > 0,
            "node 0 holds part of the corpus"
        );
        verify_against_rebuild(&node, &scenario).expect("verify node");

        assert!(AnyIndex::empty("warp", 1, 1).is_err());
        assert!(AnyIndex::from_snapshot(b"garbage").is_err());
    }

    #[test]
    fn verify_against_rebuild_detects_divergence() {
        let scenario = find("micro").expect("catalog has micro");
        let dataset = generate(&scenario);
        let mut index = AnyIndex::empty("geodab", 0, 0).unwrap();
        let items: Vec<(TrajId, &Trajectory)> = dataset
            .records()
            .iter()
            .map(|r| (r.id, &r.trajectory))
            .collect();
        index.insert_batch(items);
        // Drop one trajectory: the rebuild must notice the shape drift.
        let some_id = TrajectoryIndex::ids(&index).next().unwrap();
        TrajectoryIndex::remove(&mut index, some_id);
        let err = verify_against_rebuild(&index, &scenario).unwrap_err();
        assert!(err.contains("shape differs"), "{err}");
    }
}
