//! Shared workload setup for the figure-regeneration benches.
//!
//! Every table and figure of the paper's evaluation (Section VI) has a
//! bench target in `benches/`; this library holds the common scaffolding:
//! deterministic networks, datasets, index builders and a tiny fixed-width
//! table printer so each bench prints the same series the paper plots.
//!
//! Scale: the paper uses 5 000 routes x 20 trajectories (100 000 total).
//! Regenerating the *shape* of each figure does not need that volume, so
//! benches default to a reduced scale and honor the environment variable
//! `GEODABS_BENCH_SCALE=full` for paper-scale runs.

#![forbid(unsafe_code)]

use geodabs_core::GeodabConfig;
use geodabs_gen::dataset::{Dataset, DatasetConfig};
use geodabs_index::{GeodabIndex, GeohashIndex, TrajectoryIndex};
use geodabs_roadnet::generators::{grid_network, GridConfig};
use geodabs_roadnet::RoadNetwork;

/// Workload sizes for a bench run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Routes in the dense dataset.
    pub routes: usize,
    /// Trajectories per route per direction.
    pub per_direction: usize,
    /// Queries evaluated per configuration.
    pub queries: usize,
}

impl Scale {
    /// The reduced default scale.
    pub fn quick() -> Scale {
        Scale {
            routes: 60,
            per_direction: 5,
            queries: 30,
        }
    }

    /// Paper-like scale (`GEODABS_BENCH_SCALE=full`). Still smaller than
    /// the paper's 5 000 routes to keep a full `cargo bench` tractable,
    /// but dense enough that every effect is visible at the same place.
    pub fn full() -> Scale {
        Scale {
            routes: 500,
            per_direction: 10,
            queries: 100,
        }
    }

    /// Reads the scale from the environment (`quick` unless
    /// `GEODABS_BENCH_SCALE=full`).
    pub fn from_env() -> Scale {
        match std::env::var("GEODABS_BENCH_SCALE").as_deref() {
            Ok("full") => Scale::full(),
            _ => Scale::quick(),
        }
    }
}

/// The evaluation road network: a perturbed grid covering roughly the
/// paper's 300 km² around central London.
pub fn london_network() -> RoadNetwork {
    grid_network(&GridConfig::with_area_km2(100.0), 0xC0FFEE)
}

/// The dense evaluation dataset on the given network.
pub fn dense_dataset(net: &RoadNetwork, scale: Scale, seed: u64) -> Dataset {
    let cfg = DatasetConfig {
        routes: scale.routes,
        per_direction: scale.per_direction,
        queries: scale.queries,
        ..DatasetConfig::default()
    };
    Dataset::generate(net, &cfg, seed).expect("grid networks are always routable")
}

/// Builds a geodab index over every record of the dataset.
pub fn build_geodab_index(ds: &Dataset, config: GeodabConfig) -> GeodabIndex {
    let mut idx = GeodabIndex::new(config);
    for r in ds.records() {
        idx.insert(r.id, &r.trajectory);
    }
    idx
}

/// Builds the geohash baseline index over every record of the dataset.
pub fn build_geohash_index(ds: &Dataset, depth: u8) -> GeohashIndex {
    let mut idx = GeohashIndex::new(depth);
    for r in ds.records() {
        idx.insert(r.id, &r.trajectory);
    }
    idx
}

/// Prints a fixed-width table header.
pub fn print_header(title: &str, columns: &[&str]) {
    println!();
    println!("== {title} ==");
    let row: Vec<String> = columns.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(15 * columns.len()));
}

/// Prints one fixed-width table row.
pub fn print_row(cells: &[String]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// The budget of the `crit_*` micro-benchmarks: full precision by
/// default; `CRIT_QUICK=1` shrinks it to a smoke test (used by the CI
/// kernel and query-engine smoke steps).
pub fn crit_config() -> criterion::Criterion {
    if std::env::var_os("CRIT_QUICK").is_some() {
        criterion::Criterion::default()
            .sample_size(5)
            .measurement_time(std::time::Duration::from_millis(100))
            .warm_up_time(std::time::Duration::from_millis(10))
    } else {
        criterion::Criterion::default()
            .sample_size(20)
            .measurement_time(std::time::Duration::from_secs(2))
            .warm_up_time(std::time::Duration::from_millis(500))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_quick() {
        // The variable is unset in the test environment.
        if std::env::var("GEODABS_BENCH_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::quick());
        }
    }

    #[test]
    fn tiny_dataset_builds_and_indexes() {
        let net = london_network();
        let scale = Scale {
            routes: 2,
            per_direction: 2,
            queries: 2,
        };
        let ds = dense_dataset(&net, scale, 1);
        assert_eq!(ds.records().len(), 8);
        let gi = build_geodab_index(&ds, GeodabConfig::default());
        assert_eq!(gi.len(), 8);
        let hi = build_geohash_index(&ds, 36);
        assert_eq!(hi.len(), 8);
    }
}
