//! The top-k query engine shared by every index backend.
//!
//! The paper's retrieval loop (Section IV-A) gathers candidates from an
//! inverted index and ranks them by Jaccard distance. This module is the
//! machinery that makes that loop run at traffic scale:
//!
//! * [`IdInterner`] — a `TrajId ↔ u32` interning table assigning *dense*
//!   slot numbers, so posting lists can be [`RoaringBitmap`]s of small
//!   contiguous integers instead of `Vec<TrajId>`,
//! * [`PostingLists`] — the one posting store of every backend: roaring
//!   posting lists over interned ids, plus each slot's `|B|` and full
//!   [`Replica`], with exact **term-at-a-time overlap counting**: instead
//!   of intersecting bitmap pairs per candidate, one pass over the query's
//!   posting lists counts `|A ∩ B|` for every candidate simultaneously, and
//!   `δ = 1 − overlap / (|A| + |B| − overlap)` falls out in O(1) per
//!   candidate,
//! * [`TopK`] — a bounded heap that keeps the best `limit` hits under the
//!   `(distance, id)` total order while honoring `max_distance`.
//!
//! Query terms are processed **rarest-first** (shortest posting list
//! first). A candidate first encountered at term `i` of `m` can reach an
//! overlap of at most `m − i`, hence a Jaccard distance of at least
//! `1 − (m − i) / |A|`; once that bound exceeds the pruning threshold —
//! `Δmax`, tightened to the k-th best *guaranteed* distance when a result
//! limit is set — new candidates can no longer qualify and admission
//! **freezes**: the remaining (longest) lists only raise the counts of
//! slots that are already candidates. The pruned engine is **exact**: it
//! returns precisely the ranking a full scan would (same ids, same
//! distances, ties broken by id), which
//! `crates/index/tests/engine_equivalence.rs` asserts property-based.
//!
//! # The accumulator
//!
//! Overlaps are counted in one flat `u32` array indexed by dense slot —
//! no hashing, no per-query allocation. Each searching thread owns one
//! such array (plus the candidate buffer and the two small work vectors
//! of a search) in a thread-local: a search *takes* it, grows it to the
//! index's slot capacity if needed, bumps counts directly, and *parks* it
//! again all-zero, so the cost of a query tracks the candidates it
//! touches, not the corpus. A search that panics never parks, and the
//! next one starts from a fresh array — the parked array is all-zero on
//! every path. The price is memory: **8 B × the largest slot capacity
//! searched, per searching thread, retained** for the thread's lifetime
//! — the counts plus a candidate buffer of the same length (800 kB at
//! 100 000 trajectories).
//!
//! While admission is open a list is walked with `count += 1` and a
//! **branch-free first touch**: every entry is written to the slot one
//! past the live end of the candidate buffer, and the end advances by
//! `(count == 0)`, so a repeat touch is overwritten by the next entry
//! instead of being skipped by an unpredictable branch. The buffer grows
//! with the count array, one slot past the slot capacity (no search has
//! more candidates than slots), so no search resizes it; its live length
//! is kept apart from its length. Once frozen, a list is
//! walked with the branch-free *counted-only* bump
//! `count += (count != 0)`, which cannot create a candidate — unless the
//! list outnumbers the candidates by `PROBE_RATIO` (16), where testing
//! each candidate against the list (`contains`) is cheaper than walking
//! it. Both forms add exactly one to every candidate on the list and
//! nothing else.
//!
//! Scoring **drains** the candidates in one pass: each count is read
//! and zeroed as it is scored, so parking has nothing left to clean.
//! Only a candidate that can enter the top-k — distance at most
//! [`TopK::threshold`] — has its dense slot resolved to a [`TrajId`]
//! ([`TopK::offer`]); the thousands that cannot never touch the
//! interning table.
//!
//! # Placement and foreign terms
//!
//! A store holds posting lists only for the terms its **placement
//! predicate** accepts, but the full replica of every trajectory it
//! holds. The monolithic indexes place every term (`|_| true`, which
//! compiles the foreign-term branches away); a shard node of
//! `geodabs-cluster` places the terms its router sends to it. A query
//! term with no list here that the predicate does not place is
//! *foreign*: it cannot make a candidate, but a candidate may hold it,
//! so each candidate probes it in its replica when it is drained — the
//! only replica read on the query path. A newcomer can still match every
//! foreign term, so the admission floor becomes
//! `1 − (m − i + foreign)/|A|`, and a node's pruned ranking stays the
//! exact top-k of its own candidates.
//!
//! # Examples
//!
//! ```
//! use geodabs_index::engine::PostingLists;
//! use geodabs_index::SearchOptions;
//! use geodabs_traj::TrajId;
//!
//! // Terms are kept as sorted vectors and every one gets a list.
//! let mut lists: PostingLists<u32, Vec<u32>> = PostingLists::new();
//! lists.insert(TrajId::new(7), vec![1, 2, 3], |_| true);
//! lists.insert(TrajId::new(9), vec![2, 3, 4], |_| true);
//! lists.insert(TrajId::new(4), vec![40, 41, 42], |_| true);
//!
//! // Query {1, 2, 3}: T7 matches exactly, T9 overlaps on {2, 3}.
//! let options = SearchOptions::default().limit(2);
//! let (hits, scanned) = lists.search([1u32, 2, 3], &options, |_| true);
//! assert_eq!((hits.len(), scanned), (2, 2));
//! assert_eq!(hits[0].id, TrajId::new(7));
//! assert_eq!(hits[0].distance, 0.0);
//! assert_eq!(hits[1].id, TrajId::new(9));
//! assert_eq!(hits[1].distance, 0.5); // 1 − 2/4
//! ```

use geodabs_core::Fingerprints;
use geodabs_roaring::RoaringBitmap;
use geodabs_traj::TrajId;
use std::cell::Cell;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{SearchOptions, SearchResult};

// Process-wide scan telemetry: relaxed monotonic counters every search
// bumps, cheap enough to stay unconditional. The serve layer folds them
// into its metrics registry at scrape time; the engine itself has no
// registry dependency.
static SEARCHES: AtomicU64 = AtomicU64::new(0);
static CANDIDATES_SCANNED: AtomicU64 = AtomicU64::new(0);
static CANDIDATES_ADMITTED: AtomicU64 = AtomicU64::new(0);
static PRUNE_CUTOFFS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the engine's process-wide scan counters
/// (see [`telemetry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTelemetry {
    /// Searches run since process start.
    pub searches: u64,
    /// Distinct candidates touched across all searches.
    pub candidates_scanned: u64,
    /// Hits admitted into final rankings across all searches.
    pub candidates_admitted: u64,
    /// Searches whose admission pruning cut off new candidates early.
    pub prune_cutoffs: u64,
}

/// Reads the engine's cumulative scan counters. Process-wide and
/// monotonic: every backend sharing this process accumulates into the
/// same totals. A monolithic query is one search; a sharded one is one
/// search per node leg — an in-process `ClusterIndex` leg or a shard
/// server's — that finds a posting list for the query.
pub fn telemetry() -> EngineTelemetry {
    EngineTelemetry {
        searches: SEARCHES.load(Ordering::Relaxed),
        candidates_scanned: CANDIDATES_SCANNED.load(Ordering::Relaxed),
        candidates_admitted: CANDIDATES_ADMITTED.load(Ordering::Relaxed),
        prune_cutoffs: PRUNE_CUTOFFS.load(Ordering::Relaxed),
    }
}

/// A `TrajId ↔ u32` interning table with slot reuse.
///
/// Posting lists store *dense* slot numbers so that roaring bitmaps stay
/// compact; removing a trajectory frees its slot for the next insertion,
/// keeping the dense space as tight as the live set.
#[derive(Debug, Clone, Default)]
pub struct IdInterner {
    dense_of: HashMap<TrajId, u32>,
    traj_of: Vec<TrajId>,
    free: Vec<u32>,
}

impl IdInterner {
    /// Creates an empty table.
    pub fn new() -> IdInterner {
        IdInterner::default()
    }

    /// Number of interned (live) ids.
    pub fn len(&self) -> usize {
        self.dense_of.len()
    }

    /// Whether no id is interned.
    pub fn is_empty(&self) -> bool {
        self.dense_of.is_empty()
    }

    /// Number of dense slots ever allocated (live + reusable); every dense
    /// id handed out so far is `< capacity()`.
    pub fn capacity(&self) -> usize {
        self.traj_of.len()
    }

    /// The dense slot of `id`, interning it if new. Freed slots are reused
    /// before the table grows.
    pub fn intern(&mut self, id: TrajId) -> u32 {
        if let Some(&dense) = self.dense_of.get(&id) {
            return dense;
        }
        let dense = match self.free.pop() {
            Some(slot) => {
                self.traj_of[slot as usize] = id;
                slot
            }
            None => {
                let slot = self.traj_of.len() as u32;
                self.traj_of.push(id);
                slot
            }
        };
        self.dense_of.insert(id, dense);
        dense
    }

    /// The dense slot of `id`, if interned.
    pub fn dense(&self, id: TrajId) -> Option<u32> {
        self.dense_of.get(&id).copied()
    }

    /// The trajectory id occupying a dense slot.
    ///
    /// # Panics
    ///
    /// Panics if `dense` was never allocated; a freed (vacant) slot
    /// returns its stale id, so only resolve slots known to be live —
    /// e.g. values read from posting bitmaps, which are scrubbed on
    /// release.
    pub fn resolve(&self, dense: u32) -> TrajId {
        self.traj_of[dense as usize]
    }

    /// Frees the slot of `id` for reuse; returns the freed dense slot.
    pub fn release(&mut self, id: TrajId) -> Option<u32> {
        let dense = self.dense_of.remove(&id)?;
        self.free.push(dense);
        Some(dense)
    }

    /// The live `(dense, id)` pairs, ascending by dense slot — the
    /// serializable view of the table the snapshot layer persists.
    pub fn live_slots(&self) -> Vec<(u32, TrajId)> {
        let mut slots: Vec<(u32, TrajId)> = self
            .dense_of
            .iter()
            .map(|(&id, &dense)| (dense, id))
            .collect();
        slots.sort_unstable_by_key(|&(dense, _)| dense);
        slots
    }

    /// Rebuilds a table from its slot capacity and live `(dense, id)`
    /// pairs (as produced by [`IdInterner::live_slots`]): vacant slots
    /// become reusable, live slots resolve exactly as before.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range or non-ascending dense slots and duplicate
    /// trajectory ids — the direct-materialization path must never build
    /// a table [`IdInterner::resolve`] could misbehave on.
    pub fn from_live_slots(
        capacity: u32,
        live: &[(u32, TrajId)],
    ) -> Result<IdInterner, &'static str> {
        if live.len() > capacity as usize {
            return Err("more live slots than capacity");
        }
        let mut traj_of = vec![TrajId::new(0); capacity as usize];
        let mut dense_of = HashMap::with_capacity(live.len());
        let mut last: Option<u32> = None;
        for &(dense, id) in live {
            if dense >= capacity {
                return Err("dense slot out of range");
            }
            if last.is_some_and(|prev| prev >= dense) {
                return Err("dense slots not strictly ascending");
            }
            last = Some(dense);
            traj_of[dense as usize] = id;
            if dense_of.insert(id, dense).is_some() {
                return Err("duplicate trajectory id");
            }
        }
        // Vacant slots are reusable; hand the lowest out first.
        let free: Vec<u32> = (0..capacity)
            .rev()
            .filter(|slot| {
                live.binary_search_by_key(slot, |&(dense, _)| dense)
                    .is_err()
            })
            .collect();
        Ok(IdInterner {
            dense_of,
            traj_of,
            free,
        })
    }
}

/// One entry of a [`TopK`] heap, ordered by `(distance, id)` so the heap's
/// maximum is the worst kept hit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry(SearchResult);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &HeapEntry) -> std::cmp::Ordering {
        self.0
            .distance
            .total_cmp(&other.0.distance)
            .then(self.0.id.cmp(&other.0.id))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &HeapEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded top-k collector with the exact semantics of the collect-all
/// path: keep hits with `distance ≤ max_distance`, order by ascending
/// `(distance, id)`, and retain at most `limit` of them — but in
/// `O(n log k)` with `O(k)` memory instead of sorting every hit.
///
/// ```
/// use geodabs_index::engine::TopK;
/// use geodabs_index::{SearchOptions, SearchResult};
/// use geodabs_traj::TrajId;
///
/// let mut topk = TopK::new(&SearchOptions::default().limit(2));
/// for (id, d) in [(1, 0.9), (2, 0.1), (3, 0.5), (4, 0.2)] {
///     topk.push(SearchResult { id: TrajId::new(id), distance: d });
/// }
/// let best: Vec<u32> = topk.into_sorted().iter().map(|h| h.id.raw()).collect();
/// assert_eq!(best, vec![2, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    limit: Option<usize>,
    max_distance: f64,
    heap: BinaryHeap<HeapEntry>,
    unbounded: Vec<SearchResult>,
}

impl TopK {
    /// A collector honoring the limit and threshold of `options`.
    pub fn new(options: &SearchOptions) -> TopK {
        TopK {
            limit: options.limit,
            max_distance: options.max_distance,
            heap: BinaryHeap::new(),
            unbounded: Vec::new(),
        }
    }

    /// Offers a hit; it is kept only while it ranks among the best `limit`
    /// seen so far and passes the distance threshold.
    pub fn push(&mut self, hit: SearchResult) {
        self.offer(hit.distance, || hit.id);
    }

    /// [`TopK::push`] with the id resolved lazily: `id` runs only when a
    /// hit at `distance` can enter — `distance ≤` [`TopK::threshold`],
    /// ties included, since an equal-distance hit with a smaller id
    /// displaces the worst kept one. A hit that cannot enter costs one
    /// comparison and never resolves its id.
    ///
    /// ```
    /// use geodabs_index::engine::TopK;
    /// use geodabs_index::SearchOptions;
    /// use geodabs_traj::TrajId;
    ///
    /// let mut topk = TopK::new(&SearchOptions::default().limit(1));
    /// topk.offer(0.2, || TrajId::new(5));
    /// topk.offer(0.7, || unreachable!("0.7 cannot beat 0.2"));
    /// topk.offer(0.2, || TrajId::new(3)); // tie: the smaller id wins
    /// assert_eq!(topk.into_sorted()[0].id, TrajId::new(3));
    /// ```
    // The negated comparison is deliberate: an unordered (NaN) threshold
    // must keep nothing, matching `retain(|h| h.distance <= max_distance)`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn offer(&mut self, distance: f64, id: impl FnOnce() -> TrajId) {
        if !(distance <= self.max_distance) {
            return;
        }
        let Some(limit) = self.limit else {
            self.unbounded.push(SearchResult { id: id(), distance });
            return;
        };
        if limit == 0 {
            return;
        }
        if self.heap.len() < limit {
            self.heap
                .push(HeapEntry(SearchResult { id: id(), distance }));
            return;
        }
        let mut worst = self.heap.peek_mut().expect("heap is non-empty at capacity");
        if distance.total_cmp(&worst.0.distance).is_gt() {
            return;
        }
        let entry = HeapEntry(SearchResult { id: id(), distance });
        if entry < *worst {
            // Replacing through `PeekMut` sifts the new entry down once.
            *worst = entry;
        }
    }

    /// The current pruning threshold: a hit can change the result set
    /// only at a distance at most this — strictly below it, or equal to
    /// it with an id smaller than the worst kept hit's. Equal to
    /// `max_distance` until the collector holds `limit` hits, then the
    /// k-th best distance (which only tightens).
    pub fn threshold(&self) -> f64 {
        match self.limit {
            Some(limit) if self.heap.len() >= limit.max(1) => self
                .heap
                .peek()
                .map_or(self.max_distance, |worst| worst.0.distance),
            _ => self.max_distance,
        }
    }

    /// Number of hits currently held.
    pub fn len(&self) -> usize {
        self.heap.len() + self.unbounded.len()
    }

    /// Whether no hit has been kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes the collection: the kept hits, ascending by
    /// `(distance, id)`.
    pub fn into_sorted(self) -> Vec<SearchResult> {
        let mut hits = self.unbounded;
        hits.extend(self.heap.into_iter().map(|e| e.0));
        hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        if let Some(limit) = self.limit {
            hits.truncate(limit);
        }
        hits
    }
}

/// A trajectory's full term set as [`PostingLists`] keeps it per slot:
/// what a removal scrubs by, `|B|` for scoring, and the membership test
/// a *foreign* query term is probed with.
pub trait Replica<T> {
    /// The distinct terms.
    fn terms(&self) -> impl Iterator<Item = T> + '_;

    /// `|B|`, the number of distinct terms.
    fn distinct_len(&self) -> u32;

    /// Whether `term` is one of the terms.
    fn has_term(&self, term: T) -> bool;
}

/// A geodab fingerprint sequence: its terms are its distinct geodabs.
impl Replica<u32> for Fingerprints {
    fn terms(&self) -> impl Iterator<Item = u32> + '_ {
        self.distinct().iter().copied()
    }

    fn distinct_len(&self) -> u32 {
        Fingerprints::distinct_len(self) as u32
    }

    fn has_term(&self, term: u32) -> bool {
        self.distinct().binary_search(&term).is_ok()
    }
}

/// A strictly ascending term vector, such as a geohash cell set.
impl<T: Copy + Ord> Replica<T> for Vec<T> {
    fn terms(&self) -> impl Iterator<Item = T> + '_ {
        self.iter().copied()
    }

    fn distinct_len(&self) -> u32 {
        self.len() as u32
    }

    fn has_term(&self, term: T) -> bool {
        self.binary_search(&term).is_ok()
    }
}

/// The one posting store under every backend: roaring posting lists over
/// interned trajectory slots, plus per slot the trajectory's `|B|` and
/// full replica, with the pruned exact top-k ranking described in the
/// [module docs](self).
///
/// The term type `T` is generic so the same engine serves the geodab index
/// (`u32` fingerprints), the geohash baseline (`u64` cells) and any future
/// vocabulary; `R` is the per-trajectory [`Replica`]. Which terms get a
/// posting list here is a **placement predicate** the caller passes to
/// every insert, search and load: the monolithic indexes place every term
/// (`|_| true`), a shard node only the terms its router sends to it.
#[derive(Debug, Clone)]
pub struct PostingLists<T, R> {
    interner: IdInterner,
    postings: HashMap<T, RoaringBitmap>,
    /// `set_sizes[dense]` is `|B|`, the number of distinct terms of the
    /// trajectory in that slot (stale for vacant slots): a flat column,
    /// so scoring never reads a replica for it.
    set_sizes: Vec<u32>,
    /// `replicas[dense]` is the trajectory in that slot (`None` while the
    /// slot is vacant).
    replicas: Vec<Option<R>>,
}

impl<T: Copy + Eq + Hash + Ord, R: Replica<T>> PostingLists<T, R> {
    /// Creates an empty store.
    pub fn new() -> PostingLists<T, R> {
        PostingLists {
            interner: IdInterner::new(),
            postings: HashMap::new(),
            set_sizes: Vec::new(),
            replicas: Vec::new(),
        }
    }

    /// Number of indexed trajectories.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// Whether nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    /// Number of distinct terms with a posting list.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// The interning table, e.g. to translate dense posting values.
    pub fn interner(&self) -> &IdInterner {
        &self.interner
    }

    /// The posting bitmap of a term, if any trajectory contains it.
    pub fn posting(&self, term: T) -> Option<&RoaringBitmap> {
        self.postings.get(&term)
    }

    /// The replica stored under `id`, if indexed.
    pub fn replica(&self, id: TrajId) -> Option<&R> {
        self.replicas[self.interner.dense(id)? as usize].as_ref()
    }

    /// `(id, replica)` of every indexed trajectory, ascending by dense
    /// slot.
    pub fn replicas(&self) -> impl Iterator<Item = (TrajId, &R)> {
        self.replicas
            .iter()
            .enumerate()
            .filter_map(|(dense, replica)| {
                Some((self.interner.resolve(dense as u32), replica.as_ref()?))
            })
    }

    /// Indexes `replica` under `id`, replacing whatever `id` held: the
    /// slot keeps the full replica and its size, and every term of it
    /// that `places` accepts gets a posting.
    pub fn insert(&mut self, id: TrajId, replica: R, places: impl Fn(T) -> bool) {
        self.remove(id);
        let dense = self.interner.intern(id);
        let slot = dense as usize;
        if self.replicas.len() <= slot {
            self.replicas.resize_with(slot + 1, || None);
            self.set_sizes.resize(slot + 1, 0);
        }
        for term in replica.terms().filter(|&term| places(term)) {
            let newly = self.postings.entry(term).or_default().insert(dense);
            debug_assert!(newly, "terms of one replica must be distinct");
        }
        self.set_sizes[slot] = replica.distinct_len();
        self.replicas[slot] = Some(replica);
    }

    /// Removes `id`, scrubbing its slot from the posting list of every
    /// term of its stored replica (a term that was not placed has no list
    /// here); returns whether the id was indexed.
    pub fn remove(&mut self, id: TrajId) -> bool {
        let Some(dense) = self.interner.release(id) else {
            return false;
        };
        let replica = self.replicas[dense as usize]
            .take()
            .expect("an interned id holds its replica");
        for term in replica.terms() {
            if let Some(list) = self.postings.get_mut(&term) {
                list.remove(dense);
                if list.is_empty() {
                    self.postings.remove(&term);
                }
            }
        }
        self.set_sizes[dense as usize] = 0;
        true
    }

    /// Distinct ids sharing at least one term with the query, ascending —
    /// straight off the posting lists and the interning table, with no
    /// hash-set round-trip.
    pub fn candidate_ids(&self, terms: impl IntoIterator<Item = T>) -> Vec<TrajId> {
        let mut ids = Vec::new();
        for term in terms {
            if let Some(list) = self.postings.get(&term) {
                list.for_each(|dense| ids.push(self.interner.resolve(dense)));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The serializable view of the store's slot state: every live
    /// `(dense, id, set_size)` triple, ascending by dense slot. Together
    /// with [`PostingLists::postings_sorted`], the slot capacity and the
    /// replicas this is the full state the snapshot layer persists.
    pub fn snapshot_slots(&self) -> Vec<(u32, TrajId, u32)> {
        self.interner
            .live_slots()
            .into_iter()
            .map(|(dense, id)| (dense, id, self.set_sizes[dense as usize]))
            .collect()
    }

    /// Every posting list, ascending by term — the deterministic
    /// serialization order of the snapshot layer.
    pub fn postings_sorted(&self) -> Vec<(T, &RoaringBitmap)> {
        let mut postings: Vec<(T, &RoaringBitmap)> = self
            .postings
            .iter()
            .map(|(&term, list)| (term, list))
            .collect();
        postings.sort_unstable_by_key(|&(term, _)| term);
        postings
    }

    /// Materializes a store directly from persisted state — the inverse
    /// of [`PostingLists::snapshot_slots`] +
    /// [`PostingLists::postings_sorted`] — taking each live slot's replica
    /// from `replica_of`, without replaying a single insert.
    ///
    /// # Errors
    ///
    /// Rejects parts no sequence of inserts under `places` produces:
    /// slots out of range or out of order, duplicate ids or terms, a live
    /// slot without a replica or whose size disagrees with it, empty
    /// posting lists, postings referencing vacant slots, and postings of
    /// terms `places` does not place. A successful load never panics or
    /// resolves a stale slot at query time.
    pub fn from_snapshot_parts(
        capacity: u32,
        slots: &[(u32, TrajId, u32)],
        mut replica_of: impl FnMut(TrajId) -> Option<R>,
        posting_lists: Vec<(T, RoaringBitmap)>,
        places: impl Fn(T) -> bool,
    ) -> Result<PostingLists<T, R>, &'static str> {
        let live: Vec<(u32, TrajId)> = slots.iter().map(|&(dense, id, _)| (dense, id)).collect();
        let interner = IdInterner::from_live_slots(capacity, &live)?;
        // Columns reach the last live slot (slots ascend); inserts grow
        // them further.
        let extent = live.last().map_or(0, |&(dense, _)| dense as usize + 1);
        let mut set_sizes = vec![0u32; extent];
        let mut replicas: Vec<Option<R>> = Vec::new();
        replicas.resize_with(extent, || None);
        for &(dense, id, size) in slots {
            let replica = replica_of(id).ok_or("live slot without a replica")?;
            if replica.distinct_len() != size {
                return Err("set size disagrees with the replica");
            }
            set_sizes[dense as usize] = size;
            replicas[dense as usize] = Some(replica);
        }
        let is_live = |dense: u32| matches!(replicas.get(dense as usize), Some(Some(_)));
        let mut postings: HashMap<T, RoaringBitmap> = HashMap::with_capacity(posting_lists.len());
        for (term, list) in posting_lists {
            if list.is_empty() {
                return Err("empty posting list");
            }
            if !list.fold(true, |all_live, dense| all_live && is_live(dense)) {
                return Err("posting references a vacant slot");
            }
            if !places(term) {
                return Err("posting routed to the wrong node");
            }
            if postings.insert(term, list).is_some() {
                return Err("duplicate posting term");
            }
        }
        Ok(PostingLists {
            interner,
            postings,
            set_sizes,
            replicas,
        })
    }

    /// Exact pruned top-k ranking of the candidates of `query_terms`
    /// (which must be distinct; order is irrelevant), with the number of
    /// candidates it scanned.
    ///
    /// Returns precisely what a full scan of this store's candidates
    /// would: hits ordered by ascending `(distance, id)`, cut at
    /// `options.max_distance` and `options.limit`, each distance exact
    /// against the candidate's full replica. Candidates come from the
    /// posting lists held here; a query term without a list that `places`
    /// does not place is *foreign* — its list lives in another store — and
    /// is probed in each candidate's replica instead. See the
    /// [module docs](self) for the algorithm.
    ///
    /// ```
    /// use geodabs_index::engine::PostingLists;
    /// use geodabs_index::SearchOptions;
    /// use geodabs_traj::TrajId;
    ///
    /// let mut lists: PostingLists<u32, Vec<u32>> = PostingLists::new();
    /// lists.insert(TrajId::new(0), vec![10, 11, 12], |_| true);
    /// lists.insert(TrajId::new(1), vec![12, 13, 14], |_| true);
    ///
    /// // Δmax = 0.5 drops the one-term overlap; the exact twin stays, and
    /// // T1, reachable only through the last list, is never even scanned.
    /// let options = SearchOptions::default().max_distance(0.5);
    /// let (hits, scanned) = lists.search([10u32, 11, 12], &options, |_| true);
    /// assert_eq!((hits.len(), scanned), (1, 1));
    /// assert_eq!(hits[0].id, TrajId::new(0));
    ///
    /// // A store that places only terms below 12 holds no list for 12;
    /// // the twin still scores 0, its match on 12 probed in its replica.
    /// let mut low: PostingLists<u32, Vec<u32>> = PostingLists::new();
    /// low.insert(TrajId::new(0), vec![10, 11, 12], |t| t < 12);
    /// let (hits, _) = low.search([10u32, 11, 12], &options, |t| t < 12);
    /// assert_eq!(hits[0].distance, 0.0);
    /// ```
    pub fn search(
        &self,
        query_terms: impl IntoIterator<Item = T>,
        options: &SearchOptions,
        places: impl Fn(T) -> bool,
    ) -> (Vec<SearchResult>, usize) {
        let mut scratch = Scratch::take(self.interner.capacity());
        let found = self.search_on(&mut scratch, query_terms, options, places);
        scratch.park();
        found
    }

    /// [`PostingLists::search`] on a taken accumulator; every return
    /// leaves `scratch` ready to park.
    fn search_on<'a>(
        &'a self,
        scratch: &mut Scratch<'a>,
        query_terms: impl IntoIterator<Item = T>,
        options: &SearchOptions,
        places: impl Fn(T) -> bool,
    ) -> (Vec<SearchResult>, usize) {
        // Partition the query into posting-bearing terms (the only ones
        // that can make a candidate) and foreign ones, while counting |A|
        // over all terms.
        let mut qa = 0u64;
        let mut foreign: Vec<T> = Vec::new();
        for term in query_terms {
            qa += 1;
            match self.postings.get(&term) {
                Some(list) => scratch.lists.push(list),
                None if !places(term) => foreign.push(term),
                None => {}
            }
        }
        if qa == 0 || scratch.lists.is_empty() || options.limit == Some(0) {
            return (Vec::new(), 0);
        }
        // Rarest-first: the cheapest lists both seed the fewest candidates
        // and push the "remaining terms" upper bound down fastest.
        scratch.lists.sort_unstable_by_key(|list| list.len());
        let m = scratch.lists.len();

        let mut admit_new = true;
        let mut threshold = options.max_distance;
        // Tightening the threshold scans every candidate, so do it at
        // exponentially spaced list boundaries: O(candidates · log m)
        // total instead of O(candidates · m). A stale threshold only
        // admits more, never less — exactness is unaffected.
        let mut next_tighten = 1usize;

        for i in 0..m {
            let list = scratch.lists[i];
            if admit_new {
                // A candidate first seen now can still match at most the
                // remaining m − i terms and every foreign one, so its
                // distance is at least 1 − (m − i + foreign)/|A| — prune
                // admission once that floor exceeds the threshold.
                let best_new = 1.0 - (m - i + foreign.len()) as f64 / qa as f64;
                if best_new > threshold {
                    admit_new = false;
                } else if let Some(limit) = options.limit {
                    if i >= next_tighten && scratch.live > limit {
                        next_tighten = i * 2;
                        let kth = self.kth_guaranteed_distance(scratch, qa, limit);
                        if kth < threshold {
                            threshold = kth;
                        }
                        if best_new > threshold {
                            admit_new = false;
                        }
                    }
                }
                // Frozen with no candidates at all: no overlap left to
                // count.
                if !admit_new && scratch.live == 0 {
                    break;
                }
            }
            if admit_new {
                scratch.admit(list);
            } else {
                scratch.count_admitted(list);
            }
        }

        // Exact counts in hand, every score is O(1); the bounded heap
        // keeps the best `limit` under the (distance, id) order, and only
        // a hit that can enter it resolves its id.
        let scanned = scratch.live;
        let mut topk = TopK::new(options);
        let mut offer = |dense: u32, ov: u64| {
            let b = self.set_sizes[dense as usize] as u64;
            let union = qa + b - ov;
            topk.offer(1.0 - ov as f64 / union as f64, || {
                self.interner.resolve(dense)
            });
        };
        if foreign.is_empty() {
            scratch.drain(|dense, ov| offer(dense, ov as u64));
        } else {
            // The one read of a replica on the query path.
            scratch.drain(|dense, ov| {
                let replica = self.replicas[dense as usize]
                    .as_ref()
                    .expect("posting entries reference live slots");
                let probed = foreign.iter().filter(|&&term| replica.has_term(term));
                offer(dense, ov as u64 + probed.count() as u64);
            });
        }
        let hits = topk.into_sorted();
        SEARCHES.fetch_add(1, Ordering::Relaxed);
        CANDIDATES_SCANNED.fetch_add(scanned as u64, Ordering::Relaxed);
        CANDIDATES_ADMITTED.fetch_add(hits.len() as u64, Ordering::Relaxed);
        if !admit_new {
            PRUNE_CUTOFFS.fetch_add(1, Ordering::Relaxed);
        }
        (hits, scanned)
    }

    /// The `k`-th smallest *guaranteed* distance among the current
    /// candidates: each candidate with overlap-so-far `c` will finish at
    /// distance at most `1 − c/(|A| + |B| − c)` (overlap only grows), so
    /// at least `k` candidates are guaranteed to beat the returned value —
    /// a valid, strictly-tightening admission threshold.
    fn kth_guaranteed_distance(&self, scratch: &mut Scratch<'_>, qa: u64, k: usize) -> f64 {
        let Scratch {
            counts,
            touched,
            live,
            guaranteed,
            ..
        } = scratch;
        let candidates = &touched[..*live];
        debug_assert!(k >= 1 && candidates.len() > k);
        guaranteed.clear();
        guaranteed.extend(candidates.iter().map(|&dense| {
            let c = counts[dense as usize] as u64;
            let b = self.set_sizes[dense as usize] as u64;
            1.0 - c as f64 / (qa + b - c) as f64
        }));
        let (_, kth, _) = guaranteed.select_nth_unstable_by(k - 1, f64::total_cmp);
        *kth
    }
}

/// Once admission is frozen, a posting list at least this many times
/// longer than the candidate list is probed (`contains` per candidate)
/// instead of walked. A walked entry costs about one add (~0.8 ns), a
/// probe a binary search or two (~3 ns into a bitmap container, ~15 ns
/// into an array container), so walking wins up to a ratio of ~3 over
/// bitmap and ~16 over array containers; at 16 probing never loses. The
/// `frozen_long_lists` group of `crit_query_engine` holds the case that
/// needs it: three 60 000-entry lists against 8 candidates take 1 µs
/// probed and 139 µs walked.
const PROBE_RATIO: u64 = 16;

thread_local! {
    /// The calling thread's parked accumulator: `None` until its first
    /// search, while one is running, and after one panicked.
    static SCRATCH: Cell<Option<Scratch<'static>>> = const { Cell::new(None) };
}

/// The per-thread working set of one search (see "The accumulator" in
/// the [module docs](self)). Parked, it is empty but for its
/// allocations: `counts` all-zero, no live candidate, the two work
/// vectors cleared.
#[derive(Default)]
struct Scratch<'a> {
    /// `counts[dense]` is the overlap counted so far for that slot.
    counts: Vec<u32>,
    /// The candidate buffer: `touched[..live]` holds every slot with a
    /// non-zero count, in first-touch order; the entries past `live` are
    /// stale. One longer than `counts`, and grown with it.
    touched: Vec<u32>,
    /// The number of candidates.
    live: usize,
    /// The posting lists of the running search.
    lists: Vec<&'a RoaringBitmap>,
    /// Work buffer of `kth_guaranteed_distance`.
    guaranteed: Vec<f64>,
}

impl<'a> Scratch<'a> {
    /// Takes the thread's accumulator (a fresh one if none is parked),
    /// covering at least `capacity` dense slots.
    fn take(capacity: usize) -> Scratch<'a> {
        let mut scratch = SCRATCH.take().unwrap_or_default();
        if scratch.counts.len() < capacity {
            scratch.counts.resize(capacity, 0);
            // No search has more candidates than slots, and `admit`
            // writes one past the last of them.
            scratch.touched.resize(capacity + 1, 0);
        }
        scratch
    }

    /// Walks `list` with admission open: every entry gains one, first
    /// touches become candidates.
    fn admit(&mut self, list: &RoaringBitmap) {
        let counts = &mut self.counts[..];
        let touched = &mut self.touched[..];
        // Non-allocating visitor: bitmap containers batch-decode words
        // straight into the array. Every entry is written past the live
        // end, which only a first touch advances past: no branch. The end
        // is the fold's state, so it stays in a register.
        self.live = list.fold(self.live, |end, dense| {
            let c = &mut counts[dense as usize];
            touched[end] = dense;
            let first = usize::from(*c == 0);
            *c += 1;
            end + first
        });
    }

    /// Counts `list` with admission frozen: every *candidate* on it
    /// gains one, no other slot changes.
    fn count_admitted(&mut self, list: &RoaringBitmap) {
        let Scratch {
            counts,
            touched,
            live,
            ..
        } = self;
        let candidates = &touched[..*live];
        if list.len() >= PROBE_RATIO.saturating_mul(candidates.len() as u64) {
            for &dense in candidates {
                counts[dense as usize] += u32::from(list.contains(dense));
            }
        } else {
            list.for_each(|dense| {
                let c = &mut counts[dense as usize];
                *c += u32::from(*c != 0);
            });
        }
    }

    /// Calls `visit(dense, count)` for every candidate in first-touch
    /// order, zeroing its count first, and leaves no candidate behind:
    /// the one pass that both scores and cleans the accumulator. A
    /// visitor that panics leaves counts dirty, but then the scratch is
    /// dropped, never parked.
    fn drain(&mut self, mut visit: impl FnMut(u32, u32)) {
        let Scratch {
            counts,
            touched,
            live,
            ..
        } = self;
        for &dense in &touched[..*live] {
            visit(dense, std::mem::take(&mut counts[dense as usize]));
        }
        *live = 0;
    }

    /// Hands the accumulator back to the thread. Every path that counted
    /// has drained, so the counts are already all-zero.
    fn park(self) {
        debug_assert!(
            self.live == 0 && self.counts.iter().all(|&c| c == 0),
            "a count outlived its search"
        );
        SCRATCH.set(Some(Scratch {
            lists: recycle(self.lists),
            ..self
        }));
    }
}

/// Empties a vector of borrows and re-types it for the next borrower.
/// `Vec`'s in-place `collect` keeps the allocation; were it ever not to,
/// this would still be correct, just an allocation per search.
fn recycle<'b, T: ?Sized>(mut borrows: Vec<&T>) -> Vec<&'b T> {
    borrows.clear();
    borrows.into_iter().map(|_| unreachable!()).collect()
}

impl<T: Copy + Eq + Hash + Ord, R: Replica<T>> Default for PostingLists<T, R> {
    fn default() -> PostingLists<T, R> {
        PostingLists::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u32) -> TrajId {
        TrajId::new(raw)
    }

    fn hit(raw: u32, distance: f64) -> SearchResult {
        SearchResult {
            id: id(raw),
            distance,
        }
    }

    #[test]
    fn interner_assigns_dense_slots_and_reuses_freed_ones() {
        let mut it = IdInterner::new();
        assert_eq!(it.intern(id(100)), 0);
        assert_eq!(it.intern(id(7)), 1);
        assert_eq!(it.intern(id(100)), 0, "re-interning is idempotent");
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(1), id(7));
        assert_eq!(it.release(id(100)), Some(0));
        assert_eq!(it.release(id(100)), None);
        assert_eq!(it.intern(id(55)), 0, "freed slot is reused");
        assert_eq!(it.capacity(), 2);
        assert_eq!(it.dense(id(7)), Some(1));
        assert_eq!(it.dense(id(100)), None);
    }

    #[test]
    fn topk_keeps_best_under_distance_then_id_order() {
        let mut topk = TopK::new(&SearchOptions::default().limit(2));
        topk.push(hit(5, 0.3));
        topk.push(hit(9, 0.3)); // tie: larger id loses once 2 better exist
        topk.push(hit(1, 0.3));
        topk.push(hit(2, 0.8));
        let out = topk.into_sorted();
        assert_eq!(out, vec![hit(1, 0.3), hit(5, 0.3)]);
    }

    #[test]
    fn topk_honors_max_distance_and_zero_limit() {
        let mut topk = TopK::new(&SearchOptions::default().max_distance(0.5));
        topk.push(hit(1, 0.5)); // boundary kept
        topk.push(hit(2, 0.500001));
        assert_eq!(topk.into_sorted(), vec![hit(1, 0.5)]);

        let mut none = TopK::new(&SearchOptions::default().limit(0));
        none.push(hit(1, 0.0));
        assert!(none.is_empty());
        assert!(none.into_sorted().is_empty());
    }

    #[test]
    fn topk_threshold_tightens_once_full() {
        let mut topk = TopK::new(&SearchOptions::default().limit(2));
        assert_eq!(topk.threshold(), 1.0);
        topk.push(hit(1, 0.2));
        assert_eq!(topk.threshold(), 1.0, "not full yet");
        topk.push(hit(2, 0.4));
        assert_eq!(topk.threshold(), 0.4);
        topk.push(hit(3, 0.1));
        assert_eq!(topk.threshold(), 0.2);
        assert_eq!(topk.len(), 2);
    }

    #[test]
    fn topk_threshold_admits_a_tie_with_a_smaller_id_only() {
        let full = || {
            let mut topk = TopK::new(&SearchOptions::default().limit(2));
            topk.push(hit(4, 0.1));
            topk.push(hit(6, 0.3));
            topk
        };
        // At the threshold, a smaller id displaces the worst kept hit…
        let mut smaller = full();
        assert_eq!(smaller.threshold(), 0.3);
        smaller.offer(0.3, || id(5));
        assert_eq!(smaller.into_sorted(), vec![hit(4, 0.1), hit(5, 0.3)]);
        // …and a larger one does not.
        let mut larger = full();
        larger.offer(0.3, || id(7));
        assert_eq!(larger.into_sorted(), vec![hit(4, 0.1), hit(6, 0.3)]);
    }

    #[test]
    fn topk_offer_resolves_ids_only_for_hits_that_can_enter() {
        let resolved = Cell::new(0u32);
        let counted = |raw: u32| {
            let resolved = &resolved;
            move || {
                resolved.set(resolved.get() + 1);
                id(raw)
            }
        };
        let mut topk = TopK::new(&SearchOptions::default().limit(2).max_distance(0.8));
        topk.offer(0.5, counted(1)); // filling
        topk.offer(0.9, counted(2)); // beyond max_distance
        topk.offer(0.2, counted(3)); // filling
        assert_eq!(resolved.get(), 2);
        topk.offer(0.6, counted(4)); // worse than the worst kept (0.5)
        topk.offer(0.500001, counted(5));
        assert_eq!(resolved.get(), 2, "no hit above the threshold resolves");
        topk.offer(0.5, counted(0)); // tie at the threshold: may enter
        topk.offer(0.4, counted(6)); // better than the worst kept
        assert_eq!(resolved.get(), 4);
        assert_eq!(topk.into_sorted(), vec![hit(3, 0.2), hit(6, 0.4)]);

        // A collector that keeps nothing resolves nothing.
        for options in [
            SearchOptions::default().limit(0),
            SearchOptions::default().max_distance(f64::NAN),
            SearchOptions::default().limit(3).max_distance(f64::NAN),
        ] {
            let mut none = TopK::new(&options);
            for d in [0.0, 0.5, 1.0] {
                none.offer(d, || panic!("resolved an id for {options:?}"));
            }
            assert!(none.into_sorted().is_empty());
        }
    }

    type Lists = PostingLists<u32, Vec<u32>>;

    /// Every term gets a list: the monolithic indexes' placement.
    fn all(_: u32) -> bool {
        true
    }

    fn lists_of<'a>(sets: impl IntoIterator<Item = &'a (u32, Vec<u32>)>) -> Lists {
        let mut lists = PostingLists::new();
        for (raw, terms) in sets {
            lists.insert(id(*raw), terms.clone(), all);
        }
        lists
    }

    fn ranked(lists: &Lists, query: &[u32], options: &SearchOptions) -> Vec<SearchResult> {
        lists.search(query.iter().copied(), options, all).0
    }

    fn sample() -> Lists {
        lists_of(&[
            (0, vec![1, 2, 3, 4]),
            (1, vec![3, 4, 5]),
            (2, vec![100, 101]),
        ])
    }

    #[test]
    fn search_scores_by_overlap_counting() {
        let lists = sample();
        let hits = ranked(&lists, &[1, 2, 3, 4], &SearchOptions::default());
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], hit(0, 0.0));
        // overlap {3,4} of |A|=4, |B|=3 → 1 − 2/5.
        assert_eq!(hits[1], hit(1, 1.0 - 2.0 / 5.0));
    }

    #[test]
    fn search_counts_unknown_query_terms_in_qa() {
        let lists = sample();
        // Terms 8 and 9 are not in the dictionary but still enlarge |A|.
        let hits = ranked(&lists, &[3, 4, 8, 9], &SearchOptions::default());
        // id 1: overlap {3,4}, |A|=4, |B|=3 → 1 − 2/5.
        assert_eq!(hits[0], hit(1, 1.0 - 2.0 / 5.0));
        // id 0: overlap {3,4}, |A|=4, |B|=4 → 1 − 2/6.
        assert_eq!(hits[1], hit(0, 1.0 - 2.0 / 6.0));
    }

    #[test]
    fn search_empty_cases() {
        let lists = sample();
        assert!(ranked(&lists, &[], &SearchOptions::default()).is_empty());
        assert!(ranked(&lists, &[999], &SearchOptions::default()).is_empty());
        assert!(ranked(&Lists::new(), &[1, 2], &SearchOptions::default()).is_empty());
    }

    #[test]
    fn remove_scrubs_postings_and_candidates() {
        let mut lists = sample();
        assert!(lists.remove(id(0)));
        assert!(!lists.remove(id(0)));
        assert_eq!(lists.candidate_ids([1u32, 2, 3, 4]), vec![id(1)]);
        assert_eq!(lists.len(), 2);
        assert!(lists.replica(id(0)).is_none());
        assert_eq!(lists.replica(id(1)), Some(&vec![3, 4, 5]));
        // Terms only id 0 carried are gone from the dictionary.
        assert!(lists.posting(1).is_none());
        assert!(lists.posting(3).is_some());
    }

    #[test]
    fn candidate_ids_are_sorted_by_traj_id_despite_dense_order() {
        // Insert out of TrajId order so dense order ≠ id order.
        let lists = lists_of(&[(50, vec![1, 2]), (3, vec![2, 3]), (20, vec![1, 3])]);
        assert_eq!(
            lists.candidate_ids([1u32, 2, 3]),
            vec![id(3), id(20), id(50)]
        );
        let by_slot: Vec<TrajId> = lists.replicas().map(|(id, _)| id).collect();
        assert_eq!(by_slot, vec![id(50), id(3), id(20)]);
    }

    #[test]
    fn generic_u64_terms_work() {
        let mut lists: PostingLists<u64, Vec<u64>> = PostingLists::new();
        lists.insert(id(1), vec![1 << 40, u64::MAX], |_| true);
        lists.insert(id(2), vec![1 << 40], |_| true);
        let (hits, _) = lists.search([u64::MAX, 1 << 40], &SearchOptions::default(), |_| true);
        assert_eq!(hits[0].id, id(1));
        assert_eq!(hits[0].distance, 0.0);
        assert_eq!(hits[1], hit(2, 0.5));
    }

    #[test]
    fn limit_prunes_but_stays_exact() {
        // Many candidates sharing a common term, one sharing every term:
        // with limit 1, admission must stop early yet the exact best hit
        // still wins.
        let mut sets = vec![(0, (1..=8).collect())];
        sets.extend((1..200u32).map(|i| (i, vec![1, 1000 + i, 2000 + i])));
        let lists = lists_of(&sets);
        let query: Vec<u32> = (1..=8).collect();
        let all_hits = ranked(&lists, &query, &SearchOptions::default());
        let top = ranked(&lists, &query, &SearchOptions::default().limit(1));
        assert_eq!(top.len(), 1);
        assert_eq!(top[0], all_hits[0]);
        assert_eq!(top[0], hit(0, 0.0));
    }

    #[test]
    fn selective_query_on_large_corpus_scores_exactly() {
        // 2 000 indexed trajectories, query touching only 3 of them: the
        // corpus-sized accumulator must come back clean for the repeat.
        let mut sets: Vec<(u32, Vec<u32>)> = (0..2_000u32)
            .map(|i| (i, vec![100_000 + 3 * i, 100_001 + 3 * i, 100_002 + 3 * i]))
            .collect();
        sets.extend([
            (9_000, vec![1, 2, 3]),
            (9_001, vec![2, 3, 4]),
            (9_002, vec![3, 4, 5]),
        ]);
        let lists = lists_of(&sets);
        for _ in 0..2 {
            let hits = ranked(&lists, &[1, 2, 3], &SearchOptions::default().limit(10));
            assert_eq!(hits.len(), 3);
            assert_eq!(hits[0], hit(9_000, 0.0));
            assert_eq!(hits[1], hit(9_001, 0.5));
            assert_eq!(hits[2], hit(9_002, 1.0 - 1.0 / 5.0));
        }
    }

    #[test]
    fn frozen_lists_are_probed_or_walked_with_the_same_counts() {
        // With limit 1, admission freezes once the rivals sharing term 1
        // are in and the exact twin's guaranteed distance beats anything
        // a newcomer could reach; the two hot terms (300+ entries) are
        // then counted frozen — by probing when 2 candidates were
        // admitted, by the counted-only walk when 41 were.
        for rivals in [1u32, 40] {
            let mut sets = vec![(0, (1..=8).collect())];
            sets.extend((1..=rivals).map(|i| (i, vec![1, 7, 8, 1_000 + i])));
            sets.extend((100..400u32).map(|i| (i, vec![7, 8, 2_000 + i, 3_000 + i, 4_000 + i])));
            let lists = lists_of(&sets);
            let query: Vec<u32> = (1..=8).collect();
            let before = telemetry().prune_cutoffs;
            let top = ranked(&lists, &query, &SearchOptions::default().limit(1));
            assert!(telemetry().prune_cutoffs > before, "admission froze");
            // Distance 0 needs all 8 terms: both hot ones were counted.
            assert_eq!(top, vec![hit(0, 0.0)]);
            let all_hits = ranked(&lists, &query, &SearchOptions::default());
            assert_eq!(all_hits.len(), 301 + rivals as usize);
            assert_eq!(all_hits[0], top[0]);
        }
    }

    /// Runs `search` until no other search ran beside it — the counters
    /// are process-wide and tests run in parallel — and checks that the
    /// `candidates_scanned` it added is the count it returned.
    fn scanned_alone(
        search: impl Fn() -> (Vec<SearchResult>, usize),
    ) -> (Vec<SearchResult>, usize) {
        for _ in 0..1_000 {
            let before = telemetry();
            let (hits, scanned) = search();
            let after = telemetry();
            if after.searches == before.searches + 1
                && after.candidates_admitted == before.candidates_admitted + hits.len() as u64
            {
                assert_eq!(
                    after.candidates_scanned - before.candidates_scanned,
                    scanned as u64
                );
                return (hits, scanned);
            }
        }
        panic!("no search ran alone in 1 000 attempts");
    }

    #[test]
    fn every_entry_point_drains_the_accumulator_clean_and_counts_alike() {
        // id 0 holds the whole query {1..=8}; 40 rivals share terms 1, 7
        // and 8; a crowd of 300 shares only 7 and 8.
        let mut sets: Vec<(u32, Vec<u32>)> = vec![(0, (1..=8).collect())];
        sets.extend((1..=40u32).map(|i| (i, vec![1, 7, 8, 1_000 + i])));
        sets.extend((100..400u32).map(|i| (i, vec![7, 8, 2_000 + i, 3_000 + i])));
        let lists = lists_of(&sets);
        // The same corpus in a store that does not place term 8: the
        // query's 8 is foreign there, probed in each candidate's replica.
        let no_eight = |term: u32| term != 8;
        let mut split = Lists::new();
        for (raw, terms) in &sets {
            split.insert(id(*raw), terms.clone(), no_eight);
        }
        assert!(split.posting(8).is_none());
        let query: Vec<u32> = (1..=8).collect();
        let exact = |terms: &[u32]| {
            let ov = terms.iter().filter(|t| query.contains(t)).count() as u64;
            (ov, 1.0 - ov as f64 / (8 + terms.len() as u64 - ov) as f64)
        };

        for _ in 0..2 {
            // Limit 1 freezes admission at term 7 (the twin's guaranteed
            // 0.4 beats a newcomer's best 0.75): only the 41 candidates
            // admitted before it are scanned, and drained.
            let limited = SearchOptions::default().limit(1);
            let (top, scanned) =
                scanned_alone(|| lists.search(query.iter().copied(), &limited, all));
            assert_eq!(top, vec![hit(0, 0.0)]);
            assert_eq!(scanned, 41);

            // The foreign-term search on the same thread's array sees no
            // leftover count: every trajectory is reached through 1 or 7
            // and scored on its exact overlap, 8 included.
            let unlimited = SearchOptions::default();
            let (foreign, scanned) =
                scanned_alone(|| split.search(query.iter().copied(), &unlimited, no_eight));
            assert_eq!(scanned, sets.len());

            // The full ranking scans every trajectory, each scored on its
            // exact overlap — and equals the foreign-term ranking.
            let (all_hits, scanned) =
                scanned_alone(|| lists.search(query.iter().copied(), &unlimited, all));
            assert_eq!(scanned, sets.len());
            assert_eq!(all_hits.len(), sets.len());
            assert_eq!(foreign, all_hits);
            for h in &all_hits {
                let terms = &sets
                    .iter()
                    .find(|(raw, _)| id(*raw) == h.id)
                    .expect("hit")
                    .1;
                assert_eq!(h.distance.to_bits(), exact(terms).1.to_bits(), "{h:?}");
                assert!(exact(terms).0 > 0);
            }
        }
    }

    #[test]
    fn recycled_borrow_vectors_keep_their_allocation() {
        let owner = [1u32, 2, 3];
        let borrows: Vec<&u32> = owner.iter().collect();
        let (ptr, capacity) = (borrows.as_ptr() as usize, borrows.capacity());
        let recycled: Vec<&'static u32> = recycle(borrows);
        assert!(recycled.is_empty());
        // Not a language guarantee — if this ever fails the engine is
        // still correct, it just allocates `lists` per search again.
        assert_eq!(
            (recycled.as_ptr() as usize, recycled.capacity()),
            (ptr, capacity)
        );
    }

    /// A replica whose membership test can be made to fail.
    #[derive(Debug, Clone)]
    struct Fragile(Vec<u32>, bool);

    impl Replica<u32> for Fragile {
        fn terms(&self) -> impl Iterator<Item = u32> + '_ {
            self.0.iter().copied()
        }

        fn distinct_len(&self) -> u32 {
            self.0.len() as u32
        }

        fn has_term(&self, term: u32) -> bool {
            assert!(!self.1, "probe failed");
            self.0.contains(&term)
        }
    }

    #[test]
    fn a_panicking_visitor_leaves_no_dirty_accumulator_behind() {
        // Term 3 is never placed, so querying it probes the replicas.
        let places = |term: u32| term != 3;
        let mut lists: PostingLists<u32, Fragile> = PostingLists::new();
        lists.insert(id(0), Fragile(vec![1, 2], false), places);
        lists.insert(id(1), Fragile(vec![1, 3], true), places);
        let panicked =
            std::panic::catch_unwind(|| lists.search([1u32, 3], &SearchOptions::default(), places));
        assert!(panicked.is_err());
        // The dirty array was dropped with the panic; the next count
        // starts from zero.
        let (hits, scanned) = lists.search([1u32, 2], &SearchOptions::default(), places);
        assert_eq!(scanned, 2);
        assert_eq!(hits, vec![hit(0, 0.0), hit(1, 1.0 - 1.0 / 3.0)]);
    }

    #[test]
    fn interner_live_slots_roundtrip_including_vacancies() {
        let mut it = IdInterner::new();
        it.intern(id(100));
        it.intern(id(7));
        it.intern(id(55));
        it.release(id(7));
        let live = it.live_slots();
        assert_eq!(live, vec![(0, id(100)), (2, id(55))]);
        let mut rebuilt = IdInterner::from_live_slots(it.capacity() as u32, &live).unwrap();
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt.capacity(), 3);
        assert_eq!(rebuilt.dense(id(100)), Some(0));
        assert_eq!(rebuilt.dense(id(55)), Some(2));
        assert_eq!(rebuilt.dense(id(7)), None);
        // The vacant slot is handed out again before the table grows.
        assert_eq!(rebuilt.intern(id(9)), 1);
    }

    #[test]
    fn from_live_slots_rejects_malformed_tables() {
        assert!(IdInterner::from_live_slots(1, &[(0, id(1)), (1, id(2))]).is_err());
        assert!(IdInterner::from_live_slots(4, &[(5, id(1))]).is_err());
        assert!(IdInterner::from_live_slots(4, &[(1, id(1)), (0, id(2))]).is_err());
        assert!(IdInterner::from_live_slots(4, &[(0, id(1)), (1, id(1))]).is_err());
        assert!(IdInterner::from_live_slots(0, &[]).is_ok());
    }

    #[test]
    fn snapshot_parts_roundtrip_the_engine_exactly() {
        let mut lists = sample();
        lists.remove(id(1));
        let capacity = lists.interner().capacity() as u32;
        let slots = lists.snapshot_slots();
        let postings: Vec<(u32, RoaringBitmap)> = lists
            .postings_sorted()
            .into_iter()
            .map(|(term, list)| (term, list.clone()))
            .collect();
        let rebuilt = PostingLists::from_snapshot_parts(
            capacity,
            &slots,
            |id| lists.replica(id).cloned(),
            postings,
            all,
        )
        .unwrap();
        assert_eq!(rebuilt.len(), lists.len());
        assert_eq!(rebuilt.term_count(), lists.term_count());
        assert!(rebuilt.replicas().eq(lists.replicas()));
        for query in [vec![1u32, 2, 3, 4], vec![100, 101], vec![9]] {
            for options in [SearchOptions::default(), SearchOptions::default().limit(1)] {
                assert_eq!(
                    ranked(&rebuilt, &query, &options),
                    ranked(&lists, &query, &options)
                );
            }
        }
    }

    #[test]
    fn snapshot_parts_reject_inconsistent_state() {
        let slots = [(0u32, id(1), 2u32)];
        let replica = |_| Some(vec![5u32, 6]);
        let list = |slot: u32| -> RoaringBitmap { [slot].into_iter().collect() };
        let load = |capacity, replica_of: &dyn Fn(TrajId) -> Option<Vec<u32>>, postings| {
            Lists::from_snapshot_parts(capacity, &slots, replica_of, postings, |t| t != 6)
        };
        assert!(load(1, &replica, vec![(5, list(0))]).is_ok());
        assert_eq!(
            load(1, &|_| None, vec![]).err(),
            Some("live slot without a replica")
        );
        assert_eq!(
            load(1, &|_| Some(vec![5]), vec![]).err(),
            Some("set size disagrees with the replica")
        );
        assert_eq!(
            load(1, &replica, vec![(5, RoaringBitmap::new())]).err(),
            Some("empty posting list")
        );
        assert_eq!(
            load(4, &replica, vec![(5, list(3))]).err(),
            Some("posting references a vacant slot")
        );
        // A hole inside the live extent is vacant too.
        let gapped = [(0u32, id(1), 2u32), (2, id(2), 2)];
        assert_eq!(
            Lists::from_snapshot_parts(3, &gapped, replica, vec![(5, list(1))], all).err(),
            Some("posting references a vacant slot")
        );
        assert_eq!(
            load(1, &replica, vec![(6, list(0))]).err(),
            Some("posting routed to the wrong node")
        );
        assert_eq!(
            load(1, &replica, vec![(5, list(0)), (5, list(0))]).err(),
            Some("duplicate posting term")
        );
    }

    #[test]
    fn max_distance_prunes_but_stays_exact() {
        let lists = lists_of(&[(0, vec![1, 2, 3, 4]), (1, vec![1, 900, 901, 902])]);
        let tight = ranked(
            &lists,
            &[1, 2, 3, 4],
            &SearchOptions::default().max_distance(0.3),
        );
        assert_eq!(tight, vec![hit(0, 0.0)]);
    }
}
