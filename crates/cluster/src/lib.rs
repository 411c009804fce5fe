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
//! * [`ClusterIndex`] — a simulated cluster of per-node posting stores
//!   (roaring bitmaps over node-locally interned ids) with fan-out ranked
//!   queries: every contacted node counts overlaps over its local
//!   postings on the query engine's accumulator and scores its candidates
//!   into a bounded top-k heap (the first on the calling thread, further
//!   ones on scoped threads), and the coordinator merges the per-shard
//!   heaps into the exact global ranking,
//! * [`ShardNode`] — one node's slice of the index hosted standalone,
//!   the state a remote shard server boots from in the distributed
//!   deployment (its per-shard heaps merge exactly via [`merge_heaps`]),
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
