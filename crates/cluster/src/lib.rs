//! Sharded, distributed geodab index (Sections III-A4 and VI-E of the
//! paper, Figure 2 (c)).
//!
//! The geohash prefix of a geodab places it on the Z-order space-filling
//! curve; sharding slices that curve into contiguous ranges so that nearby
//! cells land on the same shard (**locality preserving** — queries touch
//! few shards), while shards map to nodes with a modulo (**locality
//! breaking** — load spreads evenly). The trade-off between the two is
//! exactly what Figure 16 evaluates with 100 vs 10 000 shards on 10 nodes.
//!
//! * [`ShardRouter`] — the two pure mapping functions
//!   `shard = ⌊geohash / 2^depth · s⌋` and `node = shard mod n`,
//! * [`ShardNode`] — one node's store: the query engine's posting store
//!   under the node's placement predicate, holding the posting lists of
//!   the terms routed to it plus the full fingerprint replica of every
//!   trajectory they reference. Every mutation is a broadcast of a
//!   trajectory's full fingerprints that the node filters down to its own
//!   terms; it is the only code that asks where a posting goes. Queries
//!   run the engine's pruned search over the node-local candidates into a
//!   bounded top-k heap, terms of other nodes probed in the replicas
//!   (per-shard heaps merge exactly via [`merge_heaps`]). A remote shard
//!   server hosts one standalone,
//! * [`ClusterIndex`] — a simulated cluster: a coordinator over one
//!   [`ShardNode`] per node plus the indexed id set. Mutations broadcast
//!   to every node (a batch runs one scoped thread per node, each
//!   applying the whole batch in input order); queries fan out to the
//!   nodes owning the query's terms (the first on the calling thread,
//!   further ones on scoped threads) and the coordinator merges the
//!   per-shard heaps into the exact global ranking via [`scatter_gather`],
//! * [`balance`] — balance statistics over shard/node assignments.
//!
//! # Examples
//!
//! ```
//! use geodabs_cluster::ShardRouter;
//!
//! let router = ShardRouter::new(16, 10_000, 10).expect("valid");
//! // A geodab's 16-bit prefix picks a contiguous shard of the Z-curve...
//! let shard = router.shard_of_cell(0x8000);
//! assert_eq!(shard, 5_000);
//! // ...and the shard is assigned to a node round-robin.
//! assert_eq!(router.node_of_shard(shard), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
mod cluster;
mod node;
mod router;
mod snapshot;

pub use cluster::{merge_heaps, scatter_gather, ClusterIndex, QueryStats};
pub use node::ShardNode;
pub use router::{ClusterConfigError, ShardRouter};
