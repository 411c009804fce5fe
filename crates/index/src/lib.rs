//! Inverted trajectory indexes and retrieval evaluation.
//!
//! This crate assembles the paper's retrieval pipeline (Sections III-A and
//! IV-A): trajectories are normalized, fingerprinted and posted into an
//! inverted index whose terms are geodabs; queries are answered by the
//! exact pruned top-k engine of the [`engine`] module — roaring posting
//! lists over interned ids, term-at-a-time overlap counting processed
//! rarest-first, upper-bound pruning against the current top-k threshold,
//! and a bounded result heap.
//!
//! Two index families are provided:
//!
//! * [`GeodabIndex`] — the paper's contribution,
//! * [`GeohashIndex`] — the baseline using plain geohash cells as terms,
//!   which cannot discriminate direction (Figure 12's 0.5-precision
//!   plateau); it runs on the same engine with `u64` cell terms,
//!
//! plus the [`eval`] module computing precision/recall curves, ROC curves
//! and AUC — the measures of Figures 8, 12 and 13.
//!
//! # Examples
//!
//! ```
//! use geodabs_core::GeodabConfig;
//! use geodabs_geo::Point;
//! use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
//! use geodabs_traj::{TrajId, Trajectory};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let start = Point::new(51.5074, -0.1278)?;
//! let path: Trajectory = (0..40).map(|i| start.destination(90.0, i as f64 * 90.0)).collect();
//! let noisy: Trajectory = path.iter().map(|p| p.destination(10.0, 6.0)).collect();
//!
//! let mut index = GeodabIndex::new(GeodabConfig::default());
//! index.insert(TrajId::new(0), &path);
//! index.insert(TrajId::new(1), &path.reversed());
//!
//! let hits = index.search(&noisy, &SearchOptions::default());
//! // The same-direction trajectory ranks first.
//! assert_eq!(hits[0].id, TrajId::new(0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod engine;
pub mod eval;
mod geodab_index;
mod geohash_index;
mod result;
pub mod store;
pub mod tuning;

pub use engine::{telemetry as engine_telemetry, EngineTelemetry};
pub use geodab_index::GeodabIndex;
pub use geohash_index::GeohashIndex;
pub use result::{SearchOptions, SearchResult};

use geodabs_traj::{TrajId, Trajectory};

/// Common interface of the trajectory indexes, so evaluation, cluster
/// fan-out and future backends can be generic over the index family.
pub trait TrajectoryIndex {
    /// Indexes a trajectory under the given id (raw, un-normalized input;
    /// the index applies its own normalization). Re-inserting an existing
    /// id replaces its previous contents.
    fn insert(&mut self, id: TrajId, trajectory: &Trajectory);

    /// Removes a trajectory and all its postings; returns whether the id
    /// was present. A removed id can be re-inserted later.
    fn remove(&mut self, id: TrajId) -> bool;

    /// Ranked retrieval: trajectories similar to `query`, ordered by
    /// ascending distance (ties by id), subject to `options`.
    fn search(&self, query: &Trajectory, options: &SearchOptions) -> Vec<SearchResult>;

    /// Number of indexed trajectories.
    fn len(&self) -> usize;

    /// The ids of every indexed trajectory, in unspecified order.
    fn ids(&self) -> impl Iterator<Item = TrajId> + '_;

    /// Indexes a batch of trajectories. The default implementation inserts
    /// sequentially; every workspace backend overrides it to fingerprint
    /// the batch across scoped worker threads (posting-list insertion
    /// stays single-writer), producing exactly the index a sequential
    /// insert loop would.
    fn insert_batch<'a, I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (TrajId, &'a Trajectory)>,
        Self: Sized,
    {
        for (id, trajectory) in items {
            self.insert(id, trajectory);
        }
    }

    /// Ranked retrieval for a batch of queries, answered in parallel over
    /// the shared read-only engine state with one worker per available
    /// core ([`batch::default_threads`]). Returns exactly
    /// `queries.iter().map(|q| self.search(q, options)).collect()` — the
    /// per-query rankings in query order, each bit-identical to a
    /// standalone [`TrajectoryIndex::search`] call.
    fn search_batch(
        &self,
        queries: &[Trajectory],
        options: &SearchOptions,
    ) -> Vec<Vec<SearchResult>>
    where
        Self: Sized + Sync,
    {
        self.search_batch_threads(queries, options, batch::default_threads())
    }

    /// [`TrajectoryIndex::search_batch`] with an explicit worker-thread
    /// count, for benchmarking thread scaling and for callers managing
    /// their own core budget.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    fn search_batch_threads(
        &self,
        queries: &[Trajectory],
        options: &SearchOptions,
        threads: usize,
    ) -> Vec<Vec<SearchResult>>
    where
        Self: Sized + Sync,
    {
        batch::parallel_map(queries, threads, |query| self.search(query, options))
    }

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
