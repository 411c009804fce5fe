//! The binary wire protocol: length-prefixed, CRC-guarded frames
//! carrying typed requests and responses.
//!
//! # Frame layout
//!
//! Every message travels in one frame, all integers little-endian:
//!
//! ```text
//! len      u32   payload byte count (≤ MAX_FRAME_LEN)
//! crc32    u32   IEEE CRC-32 of the payload
//! payload  len bytes
//! ```
//!
//! The length prefix is validated against [`MAX_FRAME_LEN`] **before**
//! any allocation, so a crafted multi-gigabyte length is rejected as
//! [`WireError::FrameTooLarge`] instead of an OOM; the checksum is
//! verified before the payload is decoded, so a flipped bit surfaces as
//! [`WireError::ChecksumMismatch`] instead of a silently wrong answer —
//! the same discipline the `GDAB` snapshot container applies per section.
//! Headers and payloads are compositions of the [`Wire`] impls the
//! snapshots and the write-ahead log are built from too (a trajectory or
//! a hit list has one layout everywhere), so each layout is written once
//! for both directions; only the tag dispatch and the two
//! back-compatible tails below are spelled out here.
//!
//! # Payload layout
//!
//! The first payload byte is a message tag; the body follows. Requests:
//!
//! ```text
//! 1 Ping
//! 2 Stats       [flags u8]   (0x01 = include durability fields)
//! 3 Query       options, query body
//! 4 QueryBatch  options, count u32, count × query body
//! 5 Insert      id u32, points u32, points × (lat f64, lon f64)
//! 6 Remove      id u32
//! 7 ShardQuery  options, terms u32, terms × geodab u32
//!               [flags u8, trace u64]   (0x01 = trace id follows)
//! 8 ShardInsert id u32, terms u32, terms × geodab u32
//! 9 Metrics
//! ```
//!
//! A query body is `1` (raw trajectory: `points u32, points × (lat f64,
//! lon f64)`, fingerprinted server-side) or `2` (pre-computed
//! fingerprints: `terms u32, terms × geodab u32`, the cluster paper's
//! client-side-fingerprinting mode). Options are `max_distance f64,
//! has_limit u8, limit u64`. Responses:
//!
//! ```text
//! 1 Pong
//! 2 Stats       name u32 + utf8, trajectories u64, terms u64, workers u64
//!               [durable seq u64, wal bytes u64, watermark u64]
//! 3 Hits        count u32, count × (id u32, distance f64)
//! 4 HitsBatch   batches u32, batches × Hits body
//! 5 Inserted    indexed trajectories u64
//! 6 Removed     was_present u8
//! 7 Error       message u32 + utf8
//! 8 ShardTopK   count u32, count × (id u32, distance f64)
//! 9 Unavailable node u32, message u32 + utf8
//! 10 Metrics    counters, gauges, histograms, slow queries, text
//! ```
//!
//! # Distributed frames
//!
//! `ShardQuery`/`ShardTopK` carry the scatter/gather leg of the
//! distributed deployment: the frontend ships the query's **full**
//! ordered fingerprints to each contacted shard server, which answers
//! with its node-local top-k heap (same hit encoding as `Hits`, tagged
//! separately so a frontend can never mistake a shard partial for a
//! final ranking). `ShardInsert` broadcasts a trajectory's full
//! fingerprints for node-local filtering. `Unavailable` is the
//! frontend's **typed degraded response**: a shard could not be
//! reached even after retrying, so the client gets the failing node's
//! id and a reason instead of a silently partial ranking. Servers
//! predating these tags reject them with their typed unknown-tag
//! error, never garbage.
//!
//! # Stats compatibility
//!
//! Both bracketed extensions above are **optional and symmetric**: a
//! legacy `Stats` request is the bare tag byte and always earns the
//! legacy response shape, while a request carrying the durability flag
//! asks a durability-aware server to append the three-field tail.
//! Decoders accept both shapes — an old client never sees the tail it
//! cannot parse, and a new client treats an absent tail (old server,
//! or no write-ahead log configured) as [`StatsBody::durability`] `=
//! None`. The compatibility tests pin both directions against frozen
//! v1-era byte strings.
//!
//! # Telemetry frames
//!
//! `Metrics` (request tag 9 / response tag 10) fetches the server's
//! observability state: every registered counter, gauge (with its
//! high-water mark) and histogram (sparse log-buckets, rebuildable
//! into a `geodabs_obs::HistogramSnapshot`), the slow-query log with
//! per-stage timings and trace ids, and the full Prometheus text
//! exposition. The tags are strictly additive — an old server answers
//! them with its typed unknown-tag error.
//!
//! `ShardQuery` grew an **optional trace tail** the same way `Stats`
//! grew its flag byte: a traceless request (`trace == 0`) encodes
//! byte-identically to the legacy shape, so old shard servers keep
//! answering untraced frontends; a nonzero trace id appends
//! `flags 0x01, trace u64`, which an old server's strict decoder
//! rejects typed — the frontend then falls back to untraced requests
//! for that shard.
//!
//! Distances are IEEE-754 bit patterns, so a hit decodes bit-identical
//! to the [`SearchResult`] the engine produced — the loopback
//! equivalence tests pin responses against direct in-process calls with
//! `==`, not a tolerance.

use geodabs_index::store::{crc32, flag, Cursor, ReadError, Wire};
use geodabs_index::{SearchOptions, SearchResult};
use geodabs_traj::{TrajId, Trajectory};
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

/// The largest payload a frame may carry (64 MiB). Frames claiming more
/// are rejected before any allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Errors reading, writing or decoding wire traffic. Every malformed
/// input maps to a typed variant; nothing on this path panics.
#[derive(Debug)]
pub enum WireError {
    /// A socket read or write failed.
    Io(std::io::Error),
    /// The peer closed the connection between frames (clean EOF).
    Closed,
    /// A frame header claimed more than [`MAX_FRAME_LEN`] bytes.
    FrameTooLarge {
        /// The claimed payload length.
        claimed: u32,
    },
    /// The payload does not match the CRC-32 in the frame header.
    ChecksumMismatch,
    /// The input ended in the middle of a frame or record.
    Truncated,
    /// A payload is structurally invalid.
    Corrupt(&'static str),
    /// A message or body tag outside the protocol.
    UnknownTag {
        /// What was being decoded (`"request"`, `"response"`, …).
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The server answered with its error response.
    Remote(String),
    /// A frontend answered with its typed degraded response: a shard
    /// server was unreachable, so no (possibly partial) ranking was
    /// returned.
    Unavailable {
        /// The unreachable shard's node id.
        node: u32,
        /// Why the shard could not be reached.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Closed => write!(f, "connection closed by peer"),
            WireError::FrameTooLarge { claimed } => {
                write!(f, "frame claims {claimed} bytes (max {MAX_FRAME_LEN})")
            }
            WireError::ChecksumMismatch => write!(f, "frame payload fails its checksum"),
            WireError::Truncated => write!(f, "truncated wire data"),
            WireError::Corrupt(what) => write!(f, "corrupt wire data: {what}"),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::Remote(msg) => write!(f, "server error: {msg}"),
            WireError::Unavailable { node, message } => {
                write!(f, "shard node {node} unavailable: {message}")
            }
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<ReadError> for WireError {
    fn from(e: ReadError) -> WireError {
        match e {
            ReadError::Truncated => WireError::Truncated,
            ReadError::Corrupt(what) => WireError::Corrupt(what),
            ReadError::UnknownTag { what, tag } => WireError::UnknownTag { what, tag },
            // No wire payload carries a stored configuration.
            ReadError::InvalidConfig(_) => WireError::Corrupt("invalid configuration"),
        }
    }
}

/// Whether an I/O error is a read timeout (the server's idle-poll tick).
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Bytes of frame header: `len u32, crc32 u32`.
const FRAME_HEADER_LEN: usize = 8;

/// Writes one frame — `len | crc32 | payload` assembled in one buffer and
/// handed to the sink in a single `write`, so a `TCP_NODELAY` socket
/// sends one segment train instead of a bare 8-byte header first.
///
/// # Errors
///
/// [`WireError::Io`] on socket failures; [`WireError::FrameTooLarge`] if
/// the payload exceeds [`MAX_FRAME_LEN`] (nothing is written then).
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(WireError::FrameTooLarge {
            claimed: payload.len().min(u32::MAX as usize) as u32,
        });
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    (payload.len() as u32, crc32(payload)).put(&mut frame);
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// The read buffer a [`FrameReader`] starts with and shrinks back to
/// once drained: a raw-trajectory query of a thousand points fits, so
/// the common frame costs one `read`.
const READ_CHUNK: usize = 16 * 1024;

/// Incremental frame reader over any byte stream.
///
/// Reads go through one reused buffer: whatever the stream has ready —
/// a whole frame, several pipelined frames, or a fragment — arrives in
/// one `read`, and frames are cut out of the buffer. Partial reads
/// (short socket reads, read timeouts used as idle polls) leave the
/// fragment buffered; the next [`FrameReader::read_frame`] call resumes
/// where the last one stopped, so no byte is ever lost to a timeout.
pub struct FrameReader<R> {
    inner: R,
    /// Received, not yet returned bytes live in `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// Borrows the underlying stream, e.g. to write responses back over
    /// the same socket the reader owns.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Reads the next complete frame's payload, verifying its length and
    /// checksum. Returns `Ok(None)` on a clean close (EOF exactly between
    /// frames).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on socket errors — including timeouts, after
    /// which the call can simply be retried; [`WireError::Truncated`] on
    /// EOF mid-frame; [`WireError::FrameTooLarge`] /
    /// [`WireError::ChecksumMismatch`] on malformed frames. Never
    /// panics; the buffer grows only toward a validated length, and only
    /// as fast as bytes actually arrive.
    pub fn read_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        loop {
            let have = self.end - self.start;
            let mut need = FRAME_HEADER_LEN;
            let header = Cursor::new(&self.buf[self.start..self.end]).get::<(u32, u32)>();
            if let Ok((len, crc)) = header {
                if len > MAX_FRAME_LEN {
                    // Skip the poisoned header so a caller that survives
                    // the error does not reparse it.
                    self.consume(FRAME_HEADER_LEN);
                    return Err(WireError::FrameTooLarge { claimed: len });
                }
                need += len as usize;
                if have >= need {
                    let body = &self.buf[self.start + FRAME_HEADER_LEN..self.start + need];
                    let frame = if crc32(body) == crc {
                        Ok(Some(body.to_vec()))
                    } else {
                        Err(WireError::ChecksumMismatch)
                    };
                    self.consume(need);
                    return frame;
                }
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.start = 0;
                self.end = have;
            }
            if self.end == self.buf.len() {
                // Full mid-frame: double toward the validated length, so
                // memory follows the bytes a peer sent, not the bytes it
                // claimed.
                let grown = (self.buf.len() * 2).clamp(READ_CHUNK, need.max(READ_CHUNK));
                self.buf.resize(grown, 0);
            }
            let n = self.inner.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return if have == 0 {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                };
            }
            self.end += n;
        }
    }

    /// Drops `n` buffered bytes; an emptied buffer rewinds and gives back
    /// whatever an oversized frame made it grow by.
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > READ_CHUNK {
                self.buf.truncate(READ_CHUNK);
                self.buf.shrink_to_fit();
            }
        }
    }
}

/// A query, in either of the two forms the paper's serving story needs.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    /// A raw trajectory; the server normalizes and fingerprints it.
    Trajectory(Trajectory),
    /// Pre-computed geodab fingerprints (ordered sequence) — the
    /// client-side-fingerprinting mode; every served backend scores
    /// these.
    Fingerprints(Vec<u32>),
}

/// A request message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Index statistics.
    Stats {
        /// Ask a durability-aware server to include the durability
        /// fields. `false` encodes byte-identically to the legacy
        /// request, so old servers keep answering it.
        durability: bool,
    },
    /// One ranked search.
    Query {
        /// The query, raw or pre-fingerprinted.
        query: QueryBody,
        /// Ranking options.
        options: SearchOptions,
    },
    /// Several ranked searches answered in one response, in order.
    QueryBatch {
        /// The queries, answered independently.
        queries: Vec<QueryBody>,
        /// Ranking options shared by the batch.
        options: SearchOptions,
    },
    /// Index a trajectory (replaces any previous contents of the id).
    Insert {
        /// The trajectory id.
        id: TrajId,
        /// The raw trajectory.
        trajectory: Trajectory,
    },
    /// Remove a trajectory.
    Remove {
        /// The trajectory id.
        id: TrajId,
    },
    /// A frontend's per-shard sub-query: the query's **full** ordered
    /// fingerprints, scored node-locally into a top-k heap.
    ShardQuery {
        /// The query's full ordered fingerprint sequence.
        terms: Vec<u32>,
        /// Ranking options (shared by every shard of one query).
        options: SearchOptions,
        /// The frontend's trace id, propagated so a shard's slow-query
        /// log entries correlate with the frontend's. `0` means "no
        /// trace" and encodes byte-identically to the legacy frame.
        trace: u64,
    },
    /// A frontend's insert broadcast: the trajectory's **full** ordered
    /// fingerprints; the shard server keeps its routed slice.
    ShardInsert {
        /// The trajectory id.
        id: TrajId,
        /// The trajectory's full ordered fingerprint sequence.
        terms: Vec<u32>,
    },
    /// Fetch the server's metrics registry, slow-query log and text
    /// exposition.
    Metrics,
}

/// Index statistics as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsBody {
    /// The backend's stable name (`geodab`, `cluster`, `node`, `sharded`
    /// or `frontend`).
    pub backend: String,
    /// Indexed trajectories.
    pub trajectories: u64,
    /// Distinct terms (active shards for the cluster backend).
    pub terms: u64,
    /// Worker threads in the server's connection multiplexer. Each
    /// worker sweeps many connections, so this is a parallelism figure,
    /// not a concurrent-connection cap; load generators use it to
    /// report mux saturation (connections per worker).
    pub workers: u64,
    /// Durability state, when it was requested **and** the server runs
    /// with a write-ahead log. `None` from old servers and WAL-less
    /// ones — absent on the wire, not zeroed.
    pub durability: Option<DurabilityStats>,
}

/// The durability fields of a [`StatsBody`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Sequence number of the last record known durable per the sync
    /// policy — the acknowledged-write horizon a crash cannot erase.
    pub last_durable_seq: u64,
    /// Bytes of complete records across the log's segments.
    pub wal_bytes: u64,
    /// The latest compacted snapshot's watermark (0 before the first
    /// compaction): replay on boot starts after this sequence number.
    pub snapshot_watermark: u64,
}

/// One histogram as the wire carries it: the name, the sum of all
/// recorded values, and the non-empty log-buckets in sparse form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsHistogram {
    /// The registered metric name (labels included).
    pub name: String,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Non-empty buckets as `(bucket index, count)` pairs.
    pub buckets: Vec<(u16, u64)>,
}

impl MetricsHistogram {
    /// Rebuilds the dense snapshot, ready for quantiles and merging.
    pub fn snapshot(&self) -> geodabs_obs::HistogramSnapshot {
        geodabs_obs::HistogramSnapshot::from_sparse(&self.buckets, self.sum)
    }
}

/// One slow-query log entry as the wire carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSlowQuery {
    /// The request's trace id (0 if it carried none).
    pub trace_id: u64,
    /// The request kind (frame type name).
    pub kind: String,
    /// End-to-end service time, microseconds.
    pub total_us: u64,
    /// Per-stage timings: `(stage name, microseconds)`.
    pub stages: Vec<(String, u64)>,
}

/// Everything [`Request::Metrics`] fetches: typed instrument readings
/// plus the rendered Prometheus text exposition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// Counters as `(name, total)`.
    pub counters: Vec<(String, u64)>,
    /// Gauges as `(name, value, peak)`.
    pub gauges: Vec<(String, u64, u64)>,
    /// Histograms with sparse buckets.
    pub histograms: Vec<MetricsHistogram>,
    /// The slow-query log, slowest first.
    pub slow_queries: Vec<MetricsSlowQuery>,
    /// The Prometheus text exposition of the same registry.
    pub text: String,
}

impl MetricsReport {
    /// Looks up a counter's total by full name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge's `(value, peak)` by full name.
    pub fn gauge(&self, name: &str) -> Option<(u64, u64)> {
        self.gauges
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, p)| (*v, *p))
    }

    /// Looks up a histogram by full name.
    pub fn histogram(&self, name: &str) -> Option<&MetricsHistogram> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// A response message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`].
    Stats(StatsBody),
    /// Answer to [`Request::Query`].
    Hits(Vec<SearchResult>),
    /// Answer to [`Request::QueryBatch`], rankings in query order.
    HitsBatch(Vec<Vec<SearchResult>>),
    /// Answer to [`Request::Insert`]: the post-insert trajectory count.
    Inserted {
        /// Indexed trajectories after the insert.
        len: u64,
    },
    /// Answer to [`Request::Remove`].
    Removed {
        /// Whether the id was indexed.
        was_present: bool,
    },
    /// The request failed server-side; the connection stays usable.
    Error(String),
    /// Answer to [`Request::ShardQuery`]: one shard's top-k heap. A
    /// distinct tag from [`Response::Hits`] so a partial can never be
    /// mistaken for a final ranking.
    ShardTopK(Vec<SearchResult>),
    /// A frontend's typed degraded response: the named shard was
    /// unreachable, so the request was refused rather than answered
    /// partially. The connection stays usable.
    Unavailable {
        /// The unreachable shard's node id.
        node: u32,
        /// Why the shard could not be reached.
        message: String,
    },
    /// Answer to [`Request::Metrics`].
    Metrics(MetricsReport),
}

const REQ_PING: u8 = 1;
const REQ_STATS: u8 = 2;
const REQ_QUERY: u8 = 3;
const REQ_QUERY_BATCH: u8 = 4;
const REQ_INSERT: u8 = 5;
const REQ_REMOVE: u8 = 6;
const REQ_SHARD_QUERY: u8 = 7;
const REQ_SHARD_INSERT: u8 = 8;
const REQ_METRICS: u8 = 9;

/// The only `Stats` request flag so far: append the durability tail.
/// The flags byte is strictly 0 or this, so it decodes as a flag.
const STATS_FLAG_DURABILITY: u8 = 0x01;

/// The only `ShardQuery` flag so far: a `trace u64` follows.
const SHARD_QUERY_FLAG_TRACE: u8 = 0x01;

const BODY_TRAJECTORY: u8 = 1;
const BODY_FINGERPRINTS: u8 = 2;

const RESP_PONG: u8 = 1;
const RESP_STATS: u8 = 2;
const RESP_HITS: u8 = 3;
const RESP_HITS_BATCH: u8 = 4;
const RESP_INSERTED: u8 = 5;
const RESP_REMOVED: u8 = 6;
const RESP_ERROR: u8 = 7;
const RESP_SHARD_TOPK: u8 = 8;
const RESP_UNAVAILABLE: u8 = 9;
const RESP_METRICS: u8 = 10;

/// `1` then a [`Trajectory`], or `2` then the fingerprint terms.
impl Wire for QueryBody {
    const MIN_LEN: usize = u8::MIN_LEN + Vec::<u32>::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            QueryBody::Trajectory(trajectory) => {
                out.push(BODY_TRAJECTORY);
                trajectory.put(out);
            }
            QueryBody::Fingerprints(terms) => {
                out.push(BODY_FINGERPRINTS);
                terms.put(out);
            }
        }
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<QueryBody, ReadError> {
        match cursor.get::<u8>()? {
            BODY_TRAJECTORY => Ok(QueryBody::Trajectory(cursor.get()?)),
            BODY_FINGERPRINTS => Ok(QueryBody::Fingerprints(cursor.get()?)),
            tag => Err(ReadError::UnknownTag {
                what: "query body",
                tag,
            }),
        }
    }
}

/// `name, sum u64, buckets` with each bucket `(index u16, count u64)`.
impl Wire for MetricsHistogram {
    const MIN_LEN: usize = <(String, u64, Vec<(u16, u64)>)>::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        self.name.put(out);
        self.sum.put(out);
        self.buckets.put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<MetricsHistogram, ReadError> {
        let (name, sum, buckets) = cursor.get()?;
        Ok(MetricsHistogram { name, sum, buckets })
    }
}

/// `trace_id u64, kind, total_us u64, stages` with each stage
/// `(name, microseconds u64)`.
impl Wire for MetricsSlowQuery {
    const MIN_LEN: usize = <(u64, String, u64)>::MIN_LEN + Vec::<(String, u64)>::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        self.trace_id.put(out);
        self.kind.put(out);
        self.total_us.put(out);
        self.stages.put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<MetricsSlowQuery, ReadError> {
        let (trace_id, kind, total_us) = cursor.get()?;
        let stages = cursor.get()?;
        Ok(MetricsSlowQuery {
            trace_id,
            kind,
            total_us,
            stages,
        })
    }
}

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Stats { durability } => {
                out.push(REQ_STATS);
                // Without the flag the legacy single-byte shape goes
                // out, so old servers keep understanding new clients.
                if *durability {
                    out.push(STATS_FLAG_DURABILITY);
                }
            }
            Request::Query { query, options } => {
                out.push(REQ_QUERY);
                options.put(&mut out);
                query.put(&mut out);
            }
            Request::QueryBatch { queries, options } => {
                out.push(REQ_QUERY_BATCH);
                options.put(&mut out);
                queries.put(&mut out);
            }
            Request::Insert { id, trajectory } => {
                out.push(REQ_INSERT);
                id.put(&mut out);
                trajectory.put(&mut out);
            }
            Request::Remove { id } => {
                out.push(REQ_REMOVE);
                id.put(&mut out);
            }
            Request::ShardQuery {
                terms,
                options,
                trace,
            } => {
                out.push(REQ_SHARD_QUERY);
                options.put(&mut out);
                terms.put(&mut out);
                // An untraced request stays byte-identical to the
                // legacy shape, so old shard servers keep answering it.
                if *trace != 0 {
                    out.push(SHARD_QUERY_FLAG_TRACE);
                    trace.put(&mut out);
                }
            }
            Request::ShardInsert { id, terms } => {
                out.push(REQ_SHARD_INSERT);
                id.put(&mut out);
                terms.put(&mut out);
            }
            Request::Metrics => out.push(REQ_METRICS),
        }
        out
    }

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] on any malformed payload; never panics on
    /// arbitrary bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut cursor = Cursor::new(payload);
        let request = match cursor.get::<u8>()? {
            REQ_PING => Request::Ping,
            // Legacy clients send the bare tag; flag-aware ones append
            // one flags byte.
            REQ_STATS => Request::Stats {
                durability: cursor.remaining() > 0 && flag(cursor.get()?, "unknown stats flags")?,
            },
            REQ_QUERY => Request::Query {
                options: cursor.get()?,
                query: cursor.get()?,
            },
            REQ_QUERY_BATCH => Request::QueryBatch {
                options: cursor.get()?,
                queries: cursor.get()?,
            },
            REQ_INSERT => Request::Insert {
                id: cursor.get()?,
                trajectory: cursor.get()?,
            },
            REQ_REMOVE => Request::Remove { id: cursor.get()? },
            REQ_SHARD_QUERY => {
                let (options, terms) = cursor.get()?;
                // Legacy frontends end here; trace-aware ones append a
                // flags byte and the trace id.
                let trace = match cursor.remaining() {
                    0 => 0,
                    _ => match cursor.get::<u8>()? {
                        SHARD_QUERY_FLAG_TRACE => cursor.get()?,
                        _ => return Err(WireError::Corrupt("unknown shard query flags")),
                    },
                };
                Request::ShardQuery {
                    terms,
                    options,
                    trace,
                }
            }
            REQ_SHARD_INSERT => Request::ShardInsert {
                id: cursor.get()?,
                terms: cursor.get()?,
            },
            REQ_METRICS => Request::Metrics,
            tag => {
                return Err(WireError::UnknownTag {
                    what: "request",
                    tag,
                })
            }
        };
        cursor.expect_end()?;
        Ok(request)
    }
}

impl Response {
    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(RESP_PONG),
            Response::Stats(stats) => {
                out.push(RESP_STATS);
                stats.backend.put(&mut out);
                (stats.trajectories, stats.terms, stats.workers).put(&mut out);
                // The tail only goes out when the client asked for it,
                // so legacy strict decoders never see trailing bytes.
                if let Some(d) = &stats.durability {
                    (d.last_durable_seq, d.wal_bytes, d.snapshot_watermark).put(&mut out);
                }
            }
            Response::Hits(hits) => {
                out.push(RESP_HITS);
                hits.put(&mut out);
            }
            Response::HitsBatch(batches) => {
                out.push(RESP_HITS_BATCH);
                batches.put(&mut out);
            }
            Response::Inserted { len } => {
                out.push(RESP_INSERTED);
                len.put(&mut out);
            }
            Response::Removed { was_present } => {
                out.push(RESP_REMOVED);
                was_present.put(&mut out);
            }
            Response::Error(message) => {
                out.push(RESP_ERROR);
                message.put(&mut out);
            }
            Response::ShardTopK(hits) => {
                out.push(RESP_SHARD_TOPK);
                hits.put(&mut out);
            }
            Response::Unavailable { node, message } => {
                out.push(RESP_UNAVAILABLE);
                node.put(&mut out);
                message.put(&mut out);
            }
            Response::Metrics(report) => {
                out.push(RESP_METRICS);
                report.counters.put(&mut out);
                report.gauges.put(&mut out);
                report.histograms.put(&mut out);
                report.slow_queries.put(&mut out);
                report.text.put(&mut out);
            }
        }
        out
    }

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] on any malformed payload; never panics on
    /// arbitrary bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut cursor = Cursor::new(payload);
        let response = match cursor.get::<u8>()? {
            RESP_PONG => Response::Pong,
            RESP_STATS => {
                let backend = cursor.get()?;
                let (trajectories, terms, workers) = cursor.get()?;
                // An old server's response ends here; a durability tail
                // is exactly three more words.
                let durability = match cursor.remaining() {
                    0 => None,
                    _ => {
                        let (last_durable_seq, wal_bytes, snapshot_watermark) = cursor.get()?;
                        Some(DurabilityStats {
                            last_durable_seq,
                            wal_bytes,
                            snapshot_watermark,
                        })
                    }
                };
                Response::Stats(StatsBody {
                    backend,
                    trajectories,
                    terms,
                    workers,
                    durability,
                })
            }
            RESP_HITS => Response::Hits(cursor.get()?),
            RESP_HITS_BATCH => Response::HitsBatch(cursor.get()?),
            RESP_INSERTED => Response::Inserted { len: cursor.get()? },
            RESP_REMOVED => Response::Removed {
                was_present: flag(cursor.get()?, "presence flag is not 0 or 1")?,
            },
            RESP_ERROR => Response::Error(cursor.get()?),
            RESP_SHARD_TOPK => Response::ShardTopK(cursor.get()?),
            RESP_UNAVAILABLE => Response::Unavailable {
                node: cursor.get()?,
                message: cursor.get()?,
            },
            RESP_METRICS => Response::Metrics(MetricsReport {
                counters: cursor.get()?,
                gauges: cursor.get()?,
                histograms: cursor.get()?,
                slow_queries: cursor.get()?,
                text: cursor.get()?,
            }),
            tag => {
                return Err(WireError::UnknownTag {
                    what: "response",
                    tag,
                })
            }
        };
        cursor.expect_end()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_geo::Point;

    fn sample_trajectory() -> Trajectory {
        let start = Point::new(51.5074, -0.1278).unwrap();
        (0..5)
            .map(|i| start.destination(90.0, i as f64 * 90.0))
            .collect()
    }

    fn roundtrip_request(request: Request) {
        let decoded = Request::decode(&request.encode()).expect("roundtrip");
        assert_eq!(decoded, request);
    }

    fn roundtrip_response(response: Response) {
        let decoded = Response::decode(&response.encode()).expect("roundtrip");
        assert_eq!(decoded, response);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Stats { durability: false });
        roundtrip_request(Request::Stats { durability: true });
        roundtrip_request(Request::Query {
            query: QueryBody::Trajectory(sample_trajectory()),
            options: SearchOptions::default().max_distance(0.75).limit(10),
        });
        roundtrip_request(Request::Query {
            query: QueryBody::Fingerprints(vec![1, 2, 3, u32::MAX]),
            options: SearchOptions::default(),
        });
        roundtrip_request(Request::QueryBatch {
            queries: vec![
                QueryBody::Trajectory(sample_trajectory()),
                QueryBody::Fingerprints(vec![7]),
                QueryBody::Trajectory(Trajectory::default()),
            ],
            options: SearchOptions::default().limit(0),
        });
        roundtrip_request(Request::Insert {
            id: TrajId::new(42),
            trajectory: sample_trajectory(),
        });
        roundtrip_request(Request::Remove {
            id: TrajId::new(u32::MAX),
        });
        roundtrip_request(Request::ShardQuery {
            terms: vec![1, 1, 2, u32::MAX],
            options: SearchOptions::default().max_distance(0.5).limit(7),
            trace: 0,
        });
        roundtrip_request(Request::ShardQuery {
            terms: vec![],
            options: SearchOptions::default(),
            trace: 0,
        });
        roundtrip_request(Request::ShardQuery {
            terms: vec![9, 9, 9],
            options: SearchOptions::default().limit(3),
            trace: 0xDEAD_BEEF_CAFE_F00D,
        });
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::ShardInsert {
            id: TrajId::new(9),
            terms: vec![3, 3, 3, 8],
        });
        roundtrip_request(Request::ShardInsert {
            id: TrajId::new(0),
            terms: vec![],
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Stats(StatsBody {
            backend: "geodab".into(),
            trajectories: 12,
            terms: 3400,
            workers: 8,
            durability: None,
        }));
        roundtrip_response(Response::Stats(StatsBody {
            backend: "cluster".into(),
            trajectories: 12,
            terms: 3400,
            workers: 8,
            durability: Some(DurabilityStats {
                last_durable_seq: 77,
                wal_bytes: 4096,
                snapshot_watermark: 50,
            }),
        }));
        roundtrip_response(Response::Hits(vec![
            SearchResult {
                id: TrajId::new(3),
                distance: 0.0,
            },
            SearchResult {
                id: TrajId::new(9),
                distance: 0.1234567890123,
            },
        ]));
        roundtrip_response(Response::HitsBatch(vec![
            vec![],
            vec![SearchResult {
                id: TrajId::new(1),
                distance: 1.0,
            }],
        ]));
        roundtrip_response(Response::Inserted { len: 41 });
        roundtrip_response(Response::Removed { was_present: true });
        roundtrip_response(Response::Removed { was_present: false });
        roundtrip_response(Response::Error("boom".into()));
        roundtrip_response(Response::ShardTopK(vec![SearchResult {
            id: TrajId::new(4),
            distance: 0.25,
        }]));
        roundtrip_response(Response::ShardTopK(vec![]));
        roundtrip_response(Response::Unavailable {
            node: 3,
            message: "connection refused".into(),
        });
    }

    /// The shard frames are strictly additive: their tag bytes were
    /// rejected by the pre-distributed protocol and every older tag
    /// still encodes to the same byte. A PR 5-era server answers a
    /// distributed frontend with its typed unknown-tag error, never
    /// garbage.
    #[test]
    fn shard_frames_are_additive() {
        assert_eq!(REQ_SHARD_QUERY, 7);
        assert_eq!(REQ_SHARD_INSERT, 8);
        assert_eq!(RESP_SHARD_TOPK, 8);
        assert_eq!(RESP_UNAVAILABLE, 9);
        let shard_query = Request::ShardQuery {
            terms: vec![1],
            options: SearchOptions::default(),
            trace: 0,
        }
        .encode();
        assert_eq!(shard_query[0], REQ_SHARD_QUERY);
        // A shard partial and a final ranking never share a tag.
        assert_ne!(
            Response::ShardTopK(vec![]).encode()[0],
            Response::Hits(vec![]).encode()[0]
        );
    }

    /// The exact bytes the pre-durability protocol used for `Stats`, as
    /// a frozen reference for both compatibility directions.
    fn frozen_old_stats_request() -> Vec<u8> {
        vec![REQ_STATS]
    }

    fn frozen_old_stats_response(
        backend: &str,
        trajectories: u64,
        terms: u64,
        workers: u64,
    ) -> Vec<u8> {
        let mut out = vec![RESP_STATS];
        out.extend_from_slice(&(backend.len() as u32).to_le_bytes());
        out.extend_from_slice(backend.as_bytes());
        out.extend_from_slice(&trajectories.to_le_bytes());
        out.extend_from_slice(&terms.to_le_bytes());
        out.extend_from_slice(&workers.to_le_bytes());
        out
    }

    /// Old client, new server: the legacy request still decodes, and
    /// the response it earns is byte-identical to what the old strict
    /// decoder (which rejects trailing bytes) expects.
    #[test]
    fn stats_compat_old_client_against_new_server() {
        let decoded = Request::decode(&frozen_old_stats_request()).unwrap();
        assert_eq!(decoded, Request::Stats { durability: false });
        // A legacy-shaped answer (durability absent on the wire)…
        let response = Response::Stats(StatsBody {
            backend: "geodab".into(),
            trajectories: 5,
            terms: 90,
            workers: 4,
            durability: None,
        });
        // …is bit-for-bit the old encoding: nothing an old client's
        // trailing-bytes check could trip over.
        assert_eq!(
            response.encode(),
            frozen_old_stats_response("geodab", 5, 90, 4)
        );
    }

    /// New client, old server: the flagless request is byte-identical
    /// to the old one, and the old response shape decodes with
    /// `durability: None` rather than erroring on the missing tail.
    #[test]
    fn stats_compat_new_client_against_old_server() {
        assert_eq!(
            Request::Stats { durability: false }.encode(),
            frozen_old_stats_request()
        );
        let decoded = Response::decode(&frozen_old_stats_response("cluster", 7, 3, 2)).unwrap();
        assert_eq!(
            decoded,
            Response::Stats(StatsBody {
                backend: "cluster".into(),
                trajectories: 7,
                terms: 3,
                workers: 2,
                durability: None,
            })
        );
    }

    #[test]
    fn stats_malformed_extensions_are_rejected() {
        // Unknown request flag bits are an error, not silently zero.
        assert!(matches!(
            Request::decode(&[REQ_STATS, 0x80]),
            Err(WireError::Corrupt("unknown stats flags"))
        ));
        // A partial durability tail is truncation, not a short read.
        let mut partial = frozen_old_stats_response("geodab", 1, 2, 3);
        partial.extend_from_slice(&9u64.to_le_bytes());
        assert!(matches!(
            Response::decode(&partial),
            Err(WireError::Truncated)
        ));
        // And a tail with trailing garbage still fails the end check.
        let mut overlong = frozen_old_stats_response("geodab", 1, 2, 3);
        for word in [9u64, 10, 11] {
            overlong.extend_from_slice(&word.to_le_bytes());
        }
        overlong.push(0);
        assert!(matches!(
            Response::decode(&overlong),
            Err(WireError::Corrupt(_))
        ));
    }

    /// The exact bytes the pre-telemetry protocol used for a
    /// `ShardQuery`, as a frozen reference for both compatibility
    /// directions of the trace extension.
    fn frozen_old_shard_query(terms: &[u32], limit: u64) -> Vec<u8> {
        let mut out = vec![REQ_SHARD_QUERY];
        out.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        out.push(1);
        out.extend_from_slice(&limit.to_le_bytes());
        out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
        for &term in terms {
            out.extend_from_slice(&term.to_le_bytes());
        }
        out
    }

    /// Old shard server, new frontend: an untraced request is
    /// byte-identical to the legacy frame. New server, old frontend:
    /// the legacy frame decodes with `trace == 0`.
    #[test]
    fn shard_query_trace_compat_both_directions() {
        let frozen = frozen_old_shard_query(&[5, 6, 7], 9);
        assert_eq!(
            Request::ShardQuery {
                terms: vec![5, 6, 7],
                options: SearchOptions::default().limit(9),
                trace: 0,
            }
            .encode(),
            frozen
        );
        assert_eq!(
            Request::decode(&frozen).unwrap(),
            Request::ShardQuery {
                terms: vec![5, 6, 7],
                options: SearchOptions::default().limit(9),
                trace: 0,
            }
        );
        // A traced frame is the frozen bytes plus exactly the flagged
        // tail — an old server's strict decoder rejects it typed.
        let traced = Request::ShardQuery {
            terms: vec![5, 6, 7],
            options: SearchOptions::default().limit(9),
            trace: 0xABCD,
        }
        .encode();
        assert_eq!(&traced[..frozen.len()], &frozen[..]);
        assert_eq!(traced.len(), frozen.len() + 9);
        assert_eq!(traced[frozen.len()], SHARD_QUERY_FLAG_TRACE);
    }

    #[test]
    fn shard_query_malformed_trace_tails_are_rejected() {
        // An unknown flag byte is an error, not silently zero.
        let mut bad_flag = frozen_old_shard_query(&[1], 2);
        bad_flag.push(0x80);
        bad_flag.extend_from_slice(&7u64.to_le_bytes());
        assert!(matches!(
            Request::decode(&bad_flag),
            Err(WireError::Corrupt("unknown shard query flags"))
        ));
        // A flag byte with a short trace is truncation.
        let mut short = frozen_old_shard_query(&[1], 2);
        short.push(SHARD_QUERY_FLAG_TRACE);
        short.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(Request::decode(&short), Err(WireError::Truncated)));
        // A full tail with trailing garbage fails the end check.
        let mut overlong = frozen_old_shard_query(&[1], 2);
        overlong.push(SHARD_QUERY_FLAG_TRACE);
        overlong.extend_from_slice(&7u64.to_le_bytes());
        overlong.push(0);
        assert!(matches!(
            Request::decode(&overlong),
            Err(WireError::Corrupt(_))
        ));
    }

    /// The telemetry frames are strictly additive, like the shard
    /// frames before them: their tags were rejected by every older
    /// decoder, and no older frame's encoding changed.
    #[test]
    fn metrics_frames_are_additive() {
        assert_eq!(REQ_METRICS, 9);
        assert_eq!(RESP_METRICS, 10);
        assert_eq!(Request::Metrics.encode(), vec![REQ_METRICS]);
        // An old server's request decoder calls tag 9 unknown.
        assert!(matches!(
            Request::decode(&[REQ_METRICS + 100]),
            Err(WireError::UnknownTag { .. })
        ));
    }

    fn sample_metrics_report() -> MetricsReport {
        MetricsReport {
            counters: vec![
                ("geodabs_requests_total{kind=\"query\"}".into(), 41),
                ("geodabs_wal_appends_total".into(), 7),
            ],
            gauges: vec![("geodabs_connections".into(), 2, 16)],
            histograms: vec![
                MetricsHistogram {
                    name: "geodabs_request_latency_us{kind=\"query\"}".into(),
                    sum: 12345,
                    buckets: vec![(0, 1), (17, 4), (200, 2)],
                },
                MetricsHistogram::default(),
            ],
            slow_queries: vec![MetricsSlowQuery {
                trace_id: 0x1234_5678_9ABC_DEF0,
                kind: "query".into(),
                total_us: 15_000,
                stages: vec![("engine".into(), 14_000), ("merge".into(), 500)],
            }],
            text: "# TYPE geodabs_requests_total counter\n".into(),
        }
    }

    #[test]
    fn metrics_report_roundtrips() {
        let report = sample_metrics_report();
        roundtrip_response(Response::Metrics(report.clone()));
        roundtrip_response(Response::Metrics(MetricsReport::default()));
        // The lookup helpers find entries by full name.
        assert_eq!(
            report.counter("geodabs_requests_total{kind=\"query\"}"),
            Some(41)
        );
        assert_eq!(report.counter("absent"), None);
        assert_eq!(report.gauge("geodabs_connections"), Some((2, 16)));
        let histogram = report
            .histogram("geodabs_request_latency_us{kind=\"query\"}")
            .unwrap();
        assert_eq!(histogram.snapshot().count(), 7);
    }

    #[test]
    fn truncated_metrics_payloads_are_typed_errors() {
        let payload = Response::Metrics(sample_metrics_report()).encode();
        for cut in 0..payload.len() {
            assert!(
                Response::decode(&payload[..cut]).is_err(),
                "metrics response cut at {cut}"
            );
        }
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let payload = Request::Query {
            query: QueryBody::Trajectory(sample_trajectory()),
            options: SearchOptions::default().limit(3),
        }
        .encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        write_frame(&mut wire, &[]).unwrap();
        let mut reader = FrameReader::new(wire.as_slice());
        assert_eq!(reader.read_frame().unwrap(), Some(payload));
        assert_eq!(reader.read_frame().unwrap(), Some(Vec::new()));
        assert_eq!(reader.read_frame().unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = FrameReader::new(wire.as_slice());
        assert!(matches!(
            reader.read_frame(),
            Err(WireError::FrameTooLarge { claimed }) if claimed == MAX_FRAME_LEN + 1
        ));
        // A payload larger than the cap is refused on the write side too,
        // before anything reaches the sink.
        let mut sink = CountingWriter::default();
        let big = vec![0u8; MAX_FRAME_LEN as usize + 1];
        assert!(matches!(
            write_frame(&mut sink, &big),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert_eq!(sink.writes, 0, "nothing written on FrameTooLarge");
    }

    /// A sink that accepts every buffer whole and counts the `write`
    /// calls it took.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [Vec::new(), vec![7u8; 7_100]] {
            let mut sink = CountingWriter::default();
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.writes, 1, "{}-byte payload", payload.len());
            assert_eq!(sink.bytes.len(), 8 + payload.len());
            let mut reader = FrameReader::new(sink.bytes.as_slice());
            assert_eq!(reader.read_frame().unwrap(), Some(payload));
        }
    }

    /// A stream that hands out its bytes in scripted steps: `Some(n)`
    /// yields at most `n` bytes, `None` is a `WouldBlock`; once the
    /// script runs out, the rest arrives in one read and then EOF.
    struct ScriptedReader {
        bytes: Vec<u8>,
        pos: usize,
        script: std::collections::VecDeque<Option<usize>>,
        reads: usize,
    }

    impl ScriptedReader {
        fn new(bytes: Vec<u8>, script: &[Option<usize>]) -> ScriptedReader {
            ScriptedReader {
                bytes,
                pos: 0,
                script: script.iter().copied().collect(),
                reads: 0,
            }
        }
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let step = match self.script.pop_front() {
                Some(None) => return Err(std::io::ErrorKind::WouldBlock.into()),
                Some(Some(n)) => n,
                None => usize::MAX,
            };
            let n = step.min(buf.len()).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn two_frames() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let first: Vec<u8> = (0..7_100u32).map(|i| (i % 251) as u8).collect();
        let second = vec![0xA5u8; 33];
        let mut wire = Vec::new();
        write_frame(&mut wire, &first).unwrap();
        write_frame(&mut wire, &second).unwrap();
        (wire, first, second)
    }

    #[test]
    fn buffered_reader_resumes_across_would_block() {
        // One byte, a WouldBlock, a split inside the second frame's
        // header, another WouldBlock, then the rest.
        let (wire, first, second) = two_frames();
        let split = 8 + first.len() + 3;
        let script = [Some(1), None, Some(split - 1), None];
        let mut reader = FrameReader::new(ScriptedReader::new(wire, &script));
        let mut frames = Vec::new();
        let mut would_block = 0;
        loop {
            match reader.read_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(WireError::Io(e)) if is_timeout(&e) => would_block += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(frames, vec![first, second]);
        assert_eq!(would_block, 2, "every WouldBlock surfaces and is resumable");
    }

    #[test]
    fn two_frames_in_one_read_cost_one_read() {
        let (wire, first, second) = two_frames();
        let mut reader = FrameReader::new(ScriptedReader::new(wire, &[]));
        assert_eq!(reader.read_frame().unwrap(), Some(first));
        assert_eq!(reader.read_frame().unwrap(), Some(second));
        assert_eq!(reader.inner.reads, 1, "both frames came from one read");
        assert_eq!(reader.read_frame().unwrap(), None, "clean EOF");
    }

    #[test]
    fn frames_larger_than_the_buffer_grow_it_and_give_it_back() {
        let big: Vec<u8> = (0..3 * READ_CHUNK as u32)
            .map(|i| (i % 253) as u8)
            .collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, &[1, 2, 3]).unwrap();
        // Trickle the big frame in so it spans several buffer growths.
        let script = [Some(5), Some(READ_CHUNK), Some(READ_CHUNK)];
        let mut reader = FrameReader::new(ScriptedReader::new(wire, &script));
        assert_eq!(reader.read_frame().unwrap(), Some(big));
        assert_eq!(reader.read_frame().unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(reader.buf.len(), READ_CHUNK, "shrunk back once drained");
        assert_eq!(reader.read_frame().unwrap(), None);
    }

    #[test]
    fn eof_mid_frame_is_truncated() {
        let (wire, first, _) = two_frames();
        // EOF inside the first header, inside the first payload, and
        // inside the second frame after a good first one.
        for cut in [3, 8 + 100, 8 + first.len() + 8 + 5] {
            let mut reader = FrameReader::new(ScriptedReader::new(wire[..cut].to_vec(), &[]));
            let mut good = 0;
            let err = loop {
                match reader.read_frame() {
                    Ok(Some(_)) => good += 1,
                    Ok(None) => panic!("cut {cut}: EOF mid-frame reported as clean"),
                    Err(e) => break e,
                }
            };
            assert!(matches!(err, WireError::Truncated), "cut {cut}: {err}");
            assert_eq!(good, usize::from(cut > 8 + first.len()), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_frame_in_a_pipelined_read_does_not_hide_its_neighbours() {
        let (mut wire, first, _) = two_frames();
        wire[8 + first.len() + 8] ^= 0x01;
        let mut reader = FrameReader::new(ScriptedReader::new(wire, &[]));
        assert_eq!(reader.read_frame().unwrap(), Some(first));
        assert!(matches!(
            reader.read_frame(),
            Err(WireError::ChecksumMismatch)
        ));
        assert_eq!(reader.read_frame().unwrap(), None);
    }

    #[test]
    fn invalid_coordinates_are_rejected() {
        let mut payload = vec![REQ_INSERT];
        payload.extend_from_slice(&7u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        payload.extend_from_slice(&0f64.to_bits().to_le_bytes());
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Corrupt("invalid coordinate"))
        ));
    }

    #[test]
    fn trailing_bytes_and_unknown_tags_are_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            Request::decode(&[200]),
            Err(WireError::UnknownTag {
                what: "request",
                tag: 200
            })
        ));
        assert!(matches!(
            Response::decode(&[200]),
            Err(WireError::UnknownTag {
                what: "response",
                tag: 200
            })
        ));
        assert!(matches!(Request::decode(&[]), Err(WireError::Truncated)));
        // A query body tag outside the protocol is typed as one.
        let mut payload = vec![REQ_QUERY];
        SearchOptions::default().put(&mut payload);
        payload.push(3);
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::UnknownTag {
                what: "query body",
                tag: 3
            })
        ));
        // Flag bytes are strictly 0 or 1: the limit flag, the removal
        // presence flag and the stats flags byte.
        let mut payload = Request::Query {
            query: QueryBody::Fingerprints(vec![1]),
            options: SearchOptions::default().limit(4),
        }
        .encode();
        assert_eq!(payload[9], 1, "the limit flag follows max_distance");
        payload[9] = 2;
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Corrupt("limit flag is not 0 or 1"))
        ));
        assert!(matches!(
            Response::decode(&[RESP_REMOVED, 2]),
            Err(WireError::Corrupt("presence flag is not 0 or 1"))
        ));
        assert!(matches!(
            Request::decode(&[REQ_STATS, 2]),
            Err(WireError::Corrupt("unknown stats flags"))
        ));
        // The end check names no particular format.
        assert!(matches!(
            Request::decode(&[REQ_PING, 0]),
            Err(WireError::Corrupt("trailing bytes after the payload"))
        ));
    }

    #[test]
    fn error_messages_render() {
        for e in [
            WireError::Closed,
            WireError::ChecksumMismatch,
            WireError::Truncated,
            WireError::Corrupt("x"),
            WireError::FrameTooLarge { claimed: 9 },
            WireError::UnknownTag { what: "y", tag: 3 },
            WireError::Remote("z".into()),
            WireError::Unavailable {
                node: 1,
                message: "down".into(),
            },
            WireError::Io(std::io::Error::other("io")),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
