//! **geodabs** — trajectory fingerprinting, indexing and sharded
//! similarity search at scale, reproducing *Chapuis & Garbinato,
//! "Geodabs: Trajectory Indexing Meets Fingerprinting at Scale", ICDCS
//! 2018*.
//!
//! This umbrella crate is the one-stop façade over the workspace: it
//! re-exports every subsystem under a short module name, surfaces the
//! everyday types through [`prelude`], and unifies the per-crate errors
//! into [`Error`]. Applications depend on this crate; the underlying
//! crates remain usable individually.
//!
//! # Quickstart
//!
//! ```
//! use geodabs::prelude::*;
//!
//! # fn main() -> Result<(), geodabs::Error> {
//! // Fingerprinting parameters, validated by the builder.
//! let config = GeodabConfig::builder().k(6).t(12).prefix_bits(16).build()?;
//!
//! // A straight 3 km path sampled every ~90 m, and a noisy copy of it.
//! let start = Point::new(51.5074, -0.1278)?;
//! let path: Trajectory = (0..40).map(|i| start.destination(90.0, i as f64 * 90.0)).collect();
//! let noisy: Trajectory = path.iter().map(|p| p.destination(45.0, 8.0)).collect();
//!
//! // Index forward and return directions, then run a ranked query.
//! let mut index = GeodabIndex::new(config);
//! index.insert(TrajId::new(0), &path);
//! index.insert(TrajId::new(1), &path.reversed());
//! let hits = index.search(&noisy, &SearchOptions::default().max_distance(0.9).limit(5));
//! assert_eq!(hits[0].id, TrajId::new(0)); // same direction ranks first
//! # Ok(())
//! # }
//! ```
//!
//! # Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `geodabs-core` | geodab fingerprints, winnowing, motifs |
//! | [`geo`] | `geodabs-geo` | points, haversine, geohash, Morton curve |
//! | [`traj`] | `geodabs-traj` | trajectories, normalization |
//! | [`distance`] | `geodabs-distance` | DTW / Fréchet / BTM baselines |
//! | [`index`] | `geodabs-index` | inverted indexes, top-k query engine, evaluation, persistence |
//! | [`cluster`] | `geodabs-cluster` | sharded distributed index simulation |
//! | [`roadnet`] | `geodabs-roadnet` | road networks, routing, map matching |
//! | [`roaring`] | `geodabs-roaring` | roaring bitmaps |
//! | [`gen`] | `geodabs-gen` | synthetic datasets and workloads |
//! | [`serve`] | `geodabs-serve` | network serving: wire protocol, server, load client |
//! | [`wal`] | `geodabs-wal` | write-ahead log: group commit, torn-tail recovery, rotation |
//!
//! Ranked retrieval — single-node or sharded — runs on the exact pruned
//! top-k engine of [`index::engine`]: roaring posting lists over interned
//! trajectory ids, term-at-a-time overlap counting (rarest term first,
//! with upper-bound pruning against the evolving top-k threshold) and
//! bounded result heaps, merged per shard by the cluster. See
//! `docs/ARCHITECTURE.md` for the full query-path walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub use error::Error;

pub use geodabs_cluster as cluster;
pub use geodabs_core as core;
pub use geodabs_distance as distance;
pub use geodabs_gen as gen;
pub use geodabs_geo as geo;
pub use geodabs_index as index;
pub use geodabs_roadnet as roadnet;
pub use geodabs_roaring as roaring;
pub use geodabs_serve as serve;
pub use geodabs_traj as traj;
pub use geodabs_wal as wal;

pub mod prelude {
    //! The everyday types in one import: `use geodabs::prelude::*;`.
    //!
    //! Brings in the fingerprinting pipeline ([`Fingerprinter`],
    //! [`GeodabConfig`]), the geometric and trajectory primitives
    //! ([`Point`], [`Trajectory`], [`TrajId`]), both index families plus
    //! the [`TrajectoryIndex`] trait and its query types, the sharded
    //! [`ClusterIndex`], the [`Persist`] snapshot trait every backend
    //! implements, the bounded [`TopK`] collector, the serving layer
    //! ([`Server`], [`Client`], [`LoadClient`]), the durable
    //! write-ahead log ([`Wal`] and its [`SyncPolicy`]), and the
    //! workspace [`Error`].

    pub use geodabs_cluster::{ClusterIndex, QueryStats, ShardRouter};
    // `ServeBackend` stays out on purpose: only code hosting a custom
    // backend names it, and its `search_fingerprints(&[u32], …)` would
    // sit beside `TrajectoryIndex` in every prelude user's method set.
    pub use geodabs_core::{
        Fingerprinter, Fingerprints, GeodabConfig, GeodabConfigBuilder, GeodabError,
    };
    pub use geodabs_geo::{BoundingBox, GeoError, Geohash, Point};
    pub use geodabs_index::engine::TopK;
    pub use geodabs_index::store::{Persist, SnapshotError};
    pub use geodabs_index::{
        GeodabIndex, GeohashIndex, SearchOptions, SearchResult, TrajectoryIndex,
    };
    pub use geodabs_roaring::RoaringBitmap;
    pub use geodabs_serve::{
        Client, LoadClient, Server, ServerConfig, ServerConfigBuilder, ServerConfigError,
        ShardedIndex,
    };
    pub use geodabs_traj::{TrajId, Trajectory};
    pub use geodabs_wal::{SyncPolicy, Wal, WalOp};

    pub use crate::Error;
}
