//! Road-network substrate for the geodabs workspace.
//!
//! The paper generates its dense trajectory dataset from 5 000 routes
//! constrained to a road network (OpenStreetMap + GraphHopper) and uses
//! map matching (Newson & Krumm, its ref \[22\]) as a normalization method.
//! This crate provides those substrates from scratch:
//!
//! * [`RoadNetwork`] — a directed graph with geographic nodes and
//!   speed-annotated edges,
//! * [`generators`] — synthetic networks (a perturbed grid),
//! * [`SpatialIndex`] — a uniform grid over nodes for nearest/radius
//!   queries,
//! * [`router`] — Dijkstra shortest paths producing [`Route`]s with
//!   lengths and durations,
//! * [`matching`] — hidden-Markov-model map matching with the Viterbi
//!   algorithm, used by trajectory normalization.
//!
//! # Examples
//!
//! ```
//! use geodabs_roadnet::generators::{grid_network, GridConfig};
//! use geodabs_roadnet::router::shortest_path;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = grid_network(&GridConfig::default(), 42);
//! let from = net.node_ids().next().unwrap();
//! let to = net.node_ids().last().unwrap();
//! let route = shortest_path(&net, from, to)?;
//! assert!(route.length_meters() > 0.0);
//! assert!(route.duration_seconds() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod generators;
mod graph;
pub mod matching;
pub mod router;
mod spatial;

pub use error::RoadNetError;
pub use graph::{Edge, NodeId, RoadNetwork};
pub use router::Route;
pub use spatial::SpatialIndex;
