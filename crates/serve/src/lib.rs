//! Network serving for the geodabs index family: a binary wire
//! protocol, a concurrent thread-pooled query server, and a
//! load-generation client.
//!
//! The paper's index answers top-k trajectory-similarity queries at
//! interactive latency; this crate turns the in-process engine into an
//! actual service — the ROADMAP's "serving heavy traffic" layer — using
//! nothing but `std::net` and scoped threads:
//!
//! * [`proto`] — length-prefixed, CRC-32-guarded frames carrying typed
//!   requests (`Ping`, `Stats`, `Query`, `QueryBatch`, `Insert`,
//!   `Remove`) and responses; malformed frames surface as typed
//!   [`WireError`]s, never panics.
//! * [`Server`] — hosts any [`ServeBackend`] (a
//!   [`TrajectoryIndex`](geodabs_index::TrajectoryIndex) plus the few
//!   things serving needs on top: the geodab index, the sharded
//!   cluster or one of its shard nodes — typically warm-started
//!   from a `GDAB` v2 snapshot) behind a fixed pool of multiplexing
//!   workers, each sweeping many non-blocking pipelined connections.
//!   With `ServerConfig::builder().shards(n)` the backend is
//!   re-partitioned at bind time into a [`ShardedIndex`] — a cluster
//!   of `n` per-core shard nodes behind the same read-write lock, so a
//!   query fans out over the nodes its terms touch while rankings stay
//!   bit-identical to the monolith. Shutdown is clean on both an
//!   explicit signal and a poisoned write path. With [`Server::with_durability`], every
//!   mutation is appended to a `geodabs-wal` write-ahead log **before**
//!   it is acknowledged, and a background thread compacts the log into
//!   watermark-stamped snapshots without blocking readers.
//! * [`recover`] — the one boot path of a durable server: the log
//!   directory's compacted snapshot (or the caller's base), then the log
//!   suffix beyond its watermark, refusing a log that does not continue
//!   it. [`AnyIndex`] hosts whichever backend a snapshot holds.
//! * [`Frontend`] — the distributed deployment's coordinator: it
//!   fingerprints queries, scatters `ShardQuery` frames to remote
//!   shard servers (each a `Server` hosting a
//!   [`ShardNode`](geodabs_cluster::ShardNode)), and merges the
//!   per-shard heaps exactly; shard loss yields the typed
//!   `Unavailable` response, never silently-partial rankings. It is
//!   the same bind/run/spawn shell and the same request executor as
//!   [`Server`], over a second hosting (remote shards, next to the
//!   locked backend).
//! * [`Client`] / [`LoadClient`] — the blocking protocol client, and a
//!   closed-loop load generator reporting QPS plus p50/p95/p99 latency
//!   per connection count.
//!
//! Responses are **bit-identical** to in-process calls: hits carry the
//! exact IEEE-754 distance bits the engine produced, which the loopback
//! equivalence tests pin with `==` across concurrent pipelined clients.
//!
//! # Examples
//!
//! ```
//! use geodabs_core::GeodabConfig;
//! use geodabs_geo::Point;
//! use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
//! use geodabs_serve::{Client, Server, ServerConfig};
//! use geodabs_traj::{TrajId, Trajectory};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build (or `Persist::load_from` a snapshot of) an index…
//! let start = Point::new(51.5074, -0.1278)?;
//! let path: Trajectory = (0..40).map(|i| start.destination(90.0, i as f64 * 90.0)).collect();
//! let mut index = GeodabIndex::new(GeodabConfig::default());
//! index.insert(TrajId::new(0), &path);
//! let expected = index.search(&path, &SearchOptions::default().limit(3));
//!
//! // …serve it, query it over loopback, and get the same ranking back.
//! let running = Server::bind("127.0.0.1:0", index, ServerConfig::default())?.spawn();
//! let mut client = Client::connect(running.addr())?;
//! let hits = client.query(&path, &SearchOptions::default().limit(3))?;
//! assert_eq!(hits, expected);
//! running.shutdown()?;
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: `poller` carries the crate's one scoped allow,
// around its `poll(2)` call.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod any_index;
mod client;
mod frontend;
mod metrics;
mod mux;
mod poller;
pub mod proto;
mod recover;
mod server;
mod shards;

pub use any_index::AnyIndex;
pub use client::{percentile, Client, LoadClient, LoadRun};
pub use frontend::{Frontend, FrontendConfig, FrontendConfigBuilder};
pub use proto::{
    DurabilityStats, MetricsHistogram, MetricsReport, MetricsSlowQuery, QueryBody, Request,
    Response, StatsBody, WireError,
};
pub use recover::{recover, Recovered};
pub use server::{
    RunningServer, ServeBackend, Server, ServerConfig, ServerConfigBuilder, ServerConfigError,
    ServerHandle, WAL_SNAPSHOT_FILE,
};
pub use shards::ShardedIndex;
