//! Synthetic dense-trajectory dataset generation (Section VI-A1 of the
//! paper).
//!
//! The paper found no public dataset dense enough to evaluate trajectory
//! fingerprinting and built its own: 5 000 routes constrained to the
//! London road network, each generating 10 similar trajectories per
//! direction, sampled at 1 Hz with 20 m of Gaussian noise — 100 000
//! trajectories in total, plus query trajectories with ground truth.
//! This crate reimplements that generator on top of the synthetic road
//! networks of [`geodabs_roadnet`]:
//!
//! * [`sampler`] — walk a route at its free-flow speed, emit one point per
//!   sampling period, perturb with Gaussian noise,
//! * [`dataset`] — routes, trajectory records, queries and ground truth,
//! * [`world`] — the world-scale activity model standing in for the full
//!   OpenStreetMap dump of Section VI-E (Figures 15 and 16).
//!
//! Every output is a pure function of its seed. A dataset is one seeded
//! stream: the routes are drawn from it in order, then every record and
//! query consumes its own slice of it — two words per noisy sample, a
//! count fixed by the route's geometry. [`Dataset::generate`] finds each
//! trajectory's slice in one cheap sequential pass, then samples the
//! trajectories on every available core, and the dataset stays
//! bit-identical on any core count (pinned by `tests/dataset_golden.rs`).
//! Ground truth ([`Dataset::relevant_ids`]) reads the route's contiguous
//! id range rather than scanning the corpus.
//!
//! # Examples
//!
//! ```
//! use geodabs_gen::dataset::{Dataset, DatasetConfig};
//! use geodabs_roadnet::generators::{grid_network, GridConfig};
//!
//! let net = grid_network(&GridConfig::default(), 42);
//! let cfg = DatasetConfig { routes: 5, per_direction: 3, ..DatasetConfig::default() };
//! let ds = Dataset::generate(&net, &cfg, 7).expect("network is routable");
//! assert_eq!(ds.records().len(), 5 * 3 * 2); // forward + reverse
//! assert!(!ds.queries().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod dataset;
mod gauss;
pub mod sampler;
pub mod world;

pub use dataset::{Dataset, DatasetConfig, Query, TrajectoryRecord};
pub use gauss::Gaussian;
