//! Append-only, CRC-32-framed write-ahead log: the durability tier
//! between the in-memory index family and full `GDAB` snapshots.
//!
//! A log is a directory of segment files named `wal-<start-seq>.log`.
//! Each segment holds length-prefixed records, all integers
//! little-endian — the same framing discipline as the wire protocol and
//! the snapshot container:
//!
//! ```text
//! len      u32   body byte count (≤ MAX_RECORD_LEN)
//! crc32    u32   IEEE CRC-32 of the body
//! body:
//!   seq    u64   strictly contiguous, starts at the segment's name
//!   op     u8    1 = insert, 2 = remove, 3 = insert-fingerprints
//!   insert       id u32, points u32, points × (lat f64, lon f64)
//!   remove       id u32
//!   insert-fp    id u32, terms u32, terms × (term u32)
//! ```
//!
//! Headers and bodies are written and read through the
//! [`Wire`] impls of `geodabs_index::store` — [`WalOp`]'s own
//! impl composes the trajectory and term-sequence impls the wire
//! protocol uses — so each layout exists once for both directions.
//!
//! The length prefix is validated against [`MAX_RECORD_LEN`] **before**
//! any allocation, and the checksum before the body is decoded.
//!
//! # Torn tails vs corruption
//!
//! A crash can leave a prefix of the final record on disk. On open,
//! such a **torn tail on the last segment** is silently discarded (the
//! record was never acknowledged — per the ack protocol a record is
//! only acknowledged after it is durable). Anything else — a checksum
//! mismatch, an oversized length, a sequence gap, or a torn record
//! followed by more segments — is a hard [`WalError`]: the log cannot
//! be trusted and the operator must intervene.
//!
//! # Sync policies and group commit
//!
//! [`SyncPolicy`] decides when appends become durable: `always` fsyncs
//! every append (acknowledged ⇒ crash-safe), `interval:<ms>` amortizes
//! the fsync over a time window, `never` leaves syncing to the OS and
//! clean shutdown. [`Wal::append_batch`] writes many records with one
//! write and at most one fsync — the group-commit path.
//!
//! # Examples
//!
//! ```
//! use geodabs_geo::Point;
//! use geodabs_traj::{TrajId, Trajectory};
//! use geodabs_wal::{SyncPolicy, Wal, WalOp};
//!
//! # fn main() -> Result<(), geodabs_wal::WalError> {
//! let dir = std::env::temp_dir().join(format!("geodabs-wal-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut wal = Wal::open(&dir, SyncPolicy::Always)?;
//!
//! let start = Point::new(48.8566, 2.3522).expect("valid coordinate");
//! let path: Trajectory = (0..10).map(|i| start.destination(90.0, i as f64 * 80.0)).collect();
//! let seq = wal.append(&WalOp::Insert { id: TrajId::new(7), trajectory: path })?;
//! assert_eq!(wal.last_durable_seq(), seq, "`always` acks only durable records");
//!
//! // A reopened log replays exactly what was acknowledged.
//! drop(wal);
//! let records = Wal::records(&dir)?;
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].seq, seq);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use geodabs_index::store::{crc32, from_bytes, Cursor, ReadError, Wire};
use geodabs_traj::{TrajId, Trajectory};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The largest record body a segment may carry (64 MiB — matching the
/// wire frame cap, so anything the server accepted can be logged).
/// Records claiming more are rejected before any allocation.
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of record framing preceding every body: `len u32, crc32 u32`.
const RECORD_HEADER: usize = 8;

/// Segment file names: `wal-<start-seq, 20 digits>.log`.
const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_INSERT_FINGERPRINTS: u8 = 3;

/// Errors opening, appending to, or scanning a log. Torn tails on the
/// final segment are **not** errors — they are repaired on open and
/// skipped on read; every variant here means the log needs attention.
#[derive(Debug)]
pub enum WalError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// A record or segment is structurally invalid (sequence gap, torn
    /// record in a non-final segment, undecodable body, bad op tag…).
    Corrupt {
        /// The offending segment's file name.
        segment: String,
        /// Byte offset of the offending record within the segment.
        offset: u64,
        /// What was wrong.
        what: &'static str,
    },
    /// A record header claimed more than [`MAX_RECORD_LEN`] body bytes.
    RecordTooLarge {
        /// The offending segment's file name.
        segment: String,
        /// Byte offset of the offending record within the segment.
        offset: u64,
        /// The claimed body length.
        claimed: u32,
    },
    /// A record body does not match its CRC-32.
    ChecksumMismatch {
        /// The offending segment's file name.
        segment: String,
        /// Byte offset of the offending record within the segment.
        offset: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                what,
            } => write!(
                f,
                "corrupt wal record in {segment} at byte {offset}: {what}"
            ),
            WalError::RecordTooLarge {
                segment,
                offset,
                claimed,
            } => write!(
                f,
                "wal record in {segment} at byte {offset} claims {claimed} bytes \
                 (max {MAX_RECORD_LEN})"
            ),
            WalError::ChecksumMismatch { segment, offset } => {
                write!(
                    f,
                    "wal record in {segment} at byte {offset} fails its checksum"
                )
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// When appended records are fsynced — i.e. when an append may be
/// acknowledged as durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync on every append (and batch): an acknowledged write is
    /// always crash-safe. The slowest and safest policy.
    Always,
    /// Fsync when at least this long has passed since the last sync:
    /// a crash loses at most the final window of acknowledged writes.
    Interval(Duration),
    /// Never fsync on append; durability only at rotation and clean
    /// shutdown. A crash may lose everything the OS had not flushed.
    Never,
}

/// The default window for `interval` when no duration is given.
pub const DEFAULT_SYNC_INTERVAL: Duration = Duration::from_millis(25);

impl SyncPolicy {
    /// Parses `always`, `never`, `interval`, or `interval:<ms>`.
    ///
    /// # Errors
    ///
    /// A human-readable message for anything else.
    pub fn parse(s: &str) -> Result<SyncPolicy, String> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            "interval" => Ok(SyncPolicy::Interval(DEFAULT_SYNC_INTERVAL)),
            other => match other.strip_prefix("interval:") {
                Some(ms) => match ms.parse::<u64>() {
                    Ok(ms) if ms > 0 => Ok(SyncPolicy::Interval(Duration::from_millis(ms))),
                    _ => Err(format!(
                        "invalid sync interval {ms:?}: expected a positive millisecond count"
                    )),
                },
                None => Err(format!(
                    "unknown sync policy {other:?}: expected always, interval[:<ms>] or never"
                )),
            },
        }
    }
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<SyncPolicy, String> {
        SyncPolicy::parse(s)
    }
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            SyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// A logged mutation — the write vocabulary of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Index a trajectory (replace-on-reinsert, so replay is
    /// idempotent: re-applying an already-applied insert is a no-op).
    Insert {
        /// The trajectory id.
        id: TrajId,
        /// The raw trajectory.
        trajectory: Trajectory,
    },
    /// Remove a trajectory (removing an absent id is a no-op).
    Remove {
        /// The trajectory id.
        id: TrajId,
    },
    /// Index a pre-fingerprinted trajectory by its full ordered term
    /// sequence — the write vocabulary of a **shard server**, which
    /// receives fingerprints from the frontend rather than raw
    /// trajectories. Replace-on-reinsert, like [`WalOp::Insert`].
    InsertFingerprints {
        /// The trajectory id.
        id: TrajId,
        /// The full ordered fingerprint term sequence.
        terms: Vec<u32>,
    },
}

/// One decoded log record: a sequence number and its operation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The record's log sequence number (contiguous, starting at 1).
    pub seq: u64,
    /// The logged mutation.
    pub op: WalOp,
}

/// Metadata for one segment file, as reported by [`Wal::segments`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The segment's file name within the log directory.
    pub file_name: String,
    /// Sequence number of the segment's first record.
    pub start_seq: u64,
    /// Complete records in the segment.
    pub records: u64,
    /// Bytes of complete records (a repaired torn tail not included).
    pub bytes: u64,
}

impl SegmentInfo {
    /// Sequence number of the segment's last record, if it has any.
    pub fn last_seq(&self) -> Option<u64> {
        self.records.checked_sub(1).map(|n| self.start_seq + n)
    }
}

fn segment_file_name(start_seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{start_seq:020}{SEGMENT_SUFFIX}")
}

/// Parses a segment file name back to its start sequence.
fn segment_start_seq(file_name: &str) -> Option<u64> {
    let digits = file_name
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// `op u8`, then `id u32` and the op's payload.
impl Wire for WalOp {
    const MIN_LEN: usize = u8::MIN_LEN + TrajId::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WalOp::Insert { id, trajectory } => {
                out.push(OP_INSERT);
                id.put(out);
                trajectory.put(out);
            }
            WalOp::Remove { id } => {
                out.push(OP_REMOVE);
                id.put(out);
            }
            WalOp::InsertFingerprints { id, terms } => {
                out.push(OP_INSERT_FINGERPRINTS);
                id.put(out);
                terms.put(out);
            }
        }
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<WalOp, ReadError> {
        Ok(match cursor.get::<u8>()? {
            OP_INSERT => WalOp::Insert {
                id: cursor.get()?,
                trajectory: cursor.get()?,
            },
            OP_REMOVE => WalOp::Remove { id: cursor.get()? },
            OP_INSERT_FINGERPRINTS => WalOp::InsertFingerprints {
                id: cursor.get()?,
                terms: cursor.get()?,
            },
            _ => return Err(ReadError::Corrupt("unknown wal op tag")),
        })
    }
}

/// Decodes a record body (everything after the 8-byte framing header):
/// `(seq u64, op)`.
fn decode_body(body: &[u8]) -> Result<WalRecord, &'static str> {
    match from_bytes(body) {
        Ok((seq, op)) => Ok(WalRecord { seq, op }),
        Err(ReadError::Truncated) => Err("record body ends early"),
        Err(ReadError::Corrupt(what)) => Err(what),
        // No record field is tagged that way or holds a configuration.
        Err(ReadError::UnknownTag { .. } | ReadError::InvalidConfig(_)) => {
            Err("undecodable record body")
        }
    }
}

/// Frames one record: header then body.
fn encode_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let mut body = Vec::new();
    seq.put(&mut body);
    op.put(&mut body);
    let mut out = Vec::with_capacity(RECORD_HEADER + body.len());
    (body.len() as u32, crc32(&body)).put(&mut out);
    out.extend_from_slice(&body);
    out
}

/// What a segment scan found: complete records (collected on demand),
/// the byte length of the complete prefix, and whether a torn tail
/// follows it.
struct ScanOutcome {
    records: u64,
    valid_len: u64,
    torn: bool,
}

/// Walks a segment's bytes record by record, validating framing,
/// checksums, bodies and sequence contiguity. A clean EOF mid-record is
/// reported as `torn` (the caller decides whether that is tolerable);
/// everything else is a hard error.
fn scan_segment(
    segment: &str,
    bytes: &[u8],
    expect_first: u64,
    mut collect: Option<&mut Vec<WalRecord>>,
) -> Result<ScanOutcome, WalError> {
    let mut offset = 0usize;
    let mut records = 0u64;
    let mut next_seq = expect_first;
    loop {
        let remaining = &bytes[offset..];
        if remaining.is_empty() {
            return Ok(ScanOutcome {
                records,
                valid_len: offset as u64,
                torn: false,
            });
        }
        let Ok((len, crc)) = Cursor::new(remaining).get::<(u32, u32)>() else {
            return Ok(ScanOutcome {
                records,
                valid_len: offset as u64,
                torn: true,
            });
        };
        if len > MAX_RECORD_LEN {
            return Err(WalError::RecordTooLarge {
                segment: segment.to_string(),
                offset: offset as u64,
                claimed: len,
            });
        }
        let body_end = RECORD_HEADER + len as usize;
        if remaining.len() < body_end {
            return Ok(ScanOutcome {
                records,
                valid_len: offset as u64,
                torn: true,
            });
        }
        let body = &remaining[RECORD_HEADER..body_end];
        if crc32(body) != crc {
            return Err(WalError::ChecksumMismatch {
                segment: segment.to_string(),
                offset: offset as u64,
            });
        }
        let record = decode_body(body).map_err(|what| WalError::Corrupt {
            segment: segment.to_string(),
            offset: offset as u64,
            what,
        })?;
        if record.seq != next_seq {
            return Err(WalError::Corrupt {
                segment: segment.to_string(),
                offset: offset as u64,
                what: "sequence number out of order",
            });
        }
        if let Some(out) = collect.as_deref_mut() {
            out.push(record);
        }
        next_seq += 1;
        records += 1;
        offset += body_end;
    }
}

/// Lists `wal-*.log` files in `dir`, sorted by start sequence. Foreign
/// files (snapshots live in the same directory) are ignored.
fn list_segments(dir: &Path) -> Result<Vec<(u64, String)>, WalError> {
    let mut found = Vec::new();
    match fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(start) = segment_start_seq(name) {
                    found.push((start, name.to_string()));
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    found.sort_unstable();
    Ok(found)
}

/// Scans every segment of a log directory in order, enforcing
/// cross-segment sequence contiguity. Torn tails are tolerated only on
/// the final segment; `valid_len` there excludes the torn bytes.
fn scan_dir(
    dir: &Path,
    mut collect: Option<&mut Vec<WalRecord>>,
) -> Result<Vec<SegmentInfo>, WalError> {
    let listed = list_segments(dir)?;
    let mut infos = Vec::with_capacity(listed.len());
    let mut next_seq: Option<u64> = None;
    let last = listed.len().saturating_sub(1);
    for (i, (start, name)) in listed.iter().enumerate() {
        if let Some(expected) = next_seq {
            if *start != expected {
                return Err(WalError::Corrupt {
                    segment: name.clone(),
                    offset: 0,
                    what: "segment start does not continue the previous segment",
                });
            }
        }
        let bytes = fs::read(dir.join(name))?;
        let outcome = scan_segment(name, &bytes, *start, collect.as_deref_mut())?;
        if outcome.torn && i != last {
            return Err(WalError::Corrupt {
                segment: name.clone(),
                offset: outcome.valid_len,
                what: "torn record in a non-final segment",
            });
        }
        next_seq = Some(start + outcome.records);
        infos.push(SegmentInfo {
            file_name: name.clone(),
            start_seq: *start,
            records: outcome.records,
            bytes: outcome.valid_len,
        });
    }
    Ok(infos)
}

/// Best-effort directory fsync, so renames and segment creation survive
/// a crash of the machine, not just the process.
fn sync_dir(dir: &Path) -> Result<(), WalError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// An open write-ahead log: the single writer for a log directory.
///
/// See the [crate docs](crate) for the record format and recovery
/// semantics, and [`Wal::records`] for the read-only replay path.
pub struct Wal {
    dir: PathBuf,
    policy: SyncPolicy,
    file: File,
    /// Closed segments, oldest first; the open segment is `current`.
    closed: Vec<SegmentInfo>,
    current: SegmentInfo,
    next_seq: u64,
    last_synced: u64,
    unsynced: bool,
    last_sync: Instant,
}

impl Wal {
    /// Opens (creating if necessary) the log in `dir` for appending,
    /// scanning and validating every existing segment. A torn final
    /// record — the signature of a crash mid-append — is truncated
    /// away; it was never acknowledged.
    ///
    /// # Errors
    ///
    /// I/O failures, or any corruption other than a torn tail on the
    /// final segment.
    pub fn open(dir: &Path, policy: SyncPolicy) -> Result<Wal, WalError> {
        fs::create_dir_all(dir)?;
        let mut infos = scan_dir(dir, None)?;
        let current = match infos.pop() {
            Some(info) => info,
            None => {
                let info = SegmentInfo {
                    file_name: segment_file_name(1),
                    start_seq: 1,
                    records: 0,
                    bytes: 0,
                };
                File::create(dir.join(&info.file_name))?.sync_all()?;
                sync_dir(dir)?;
                info
            }
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(&current.file_name))?;
        // Discard the torn tail, if any, then append after the last
        // complete record.
        file.set_len(current.bytes)?;
        file.seek(SeekFrom::Start(current.bytes))?;
        let next_seq = current.start_seq + current.records;
        Ok(Wal {
            dir: dir.to_path_buf(),
            policy,
            file,
            closed: infos,
            current,
            // Everything that survived the scan is on disk and will
            // survive a process crash; treat it as durable.
            last_synced: next_seq - 1,
            next_seq,
            unsynced: false,
            last_sync: Instant::now(),
        })
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Sequence number of the last appended record (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Sequence number of the last record known durable (0 if none).
    pub fn last_durable_seq(&self) -> u64 {
        self.last_synced
    }

    /// Total bytes of complete records across all segments.
    pub fn size_bytes(&self) -> u64 {
        self.closed.iter().map(|s| s.bytes).sum::<u64>() + self.current.bytes
    }

    /// Appends one operation; returns its sequence number. The record
    /// is durable on return under [`SyncPolicy::Always`] — under the
    /// other policies, durability lags per the policy's contract.
    ///
    /// # Errors
    ///
    /// I/O failures; the log's in-memory state is not advanced then, so
    /// the operation can be retried or the write refused upstream.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, WalError> {
        let seq = self.next_seq;
        let record = encode_record(seq, op);
        self.file.write_all(&record)?;
        self.next_seq += 1;
        self.current.records += 1;
        self.current.bytes += record.len() as u64;
        self.unsynced = true;
        self.policy_sync()?;
        Ok(seq)
    }

    /// Appends a batch of operations with one write and (per policy) at
    /// most one fsync — the group-commit path. Returns the sequence
    /// numbers of the first and last record, or `None` for an empty
    /// batch.
    ///
    /// # Errors
    ///
    /// I/O failures; on error none of the batch is acknowledged.
    pub fn append_batch(&mut self, ops: &[WalOp]) -> Result<Option<(u64, u64)>, WalError> {
        if ops.is_empty() {
            return Ok(None);
        }
        let first = self.next_seq;
        let mut buf = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            buf.extend_from_slice(&encode_record(first + i as u64, op));
        }
        self.file.write_all(&buf)?;
        let last = first + ops.len() as u64 - 1;
        self.next_seq = last + 1;
        self.current.records += ops.len() as u64;
        self.current.bytes += buf.len() as u64;
        self.unsynced = true;
        self.policy_sync()?;
        Ok(Some((first, last)))
    }

    fn policy_sync(&mut self) -> Result<(), WalError> {
        match self.policy {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::Interval(window) => {
                if self.last_sync.elapsed() >= window {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            SyncPolicy::Never => Ok(()),
        }
    }

    /// Forces all appended records to disk, regardless of policy.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.unsynced {
            self.file.sync_data()?;
            self.unsynced = false;
        }
        self.last_synced = self.next_seq - 1;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Closes the current segment (fsyncing it) and opens a fresh one,
    /// returning the **watermark**: the sequence number of the last
    /// record in the closed segments. A snapshot taken from the same
    /// consistent view covers exactly the records `≤ watermark`, so
    /// after the snapshot lands, [`Wal::prune`] with this watermark
    /// drops the folded-in segments. A no-op (still returning the
    /// watermark) when the current segment is empty.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn rotate(&mut self) -> Result<u64, WalError> {
        let watermark = self.next_seq - 1;
        if self.current.records == 0 {
            return Ok(watermark);
        }
        self.sync()?;
        let fresh = SegmentInfo {
            file_name: segment_file_name(self.next_seq),
            start_seq: self.next_seq,
            records: 0,
            bytes: 0,
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(self.dir.join(&fresh.file_name))?;
        file.sync_all()?;
        sync_dir(&self.dir)?;
        let closed = std::mem::replace(&mut self.current, fresh);
        self.closed.push(closed);
        self.file = file;
        Ok(watermark)
    }

    /// Deletes closed segments whose records are all covered by a
    /// durable snapshot at `watermark`; returns how many were removed.
    /// The open segment is never deleted.
    ///
    /// # Errors
    ///
    /// I/O failures (segments already removed stay removed).
    pub fn prune(&mut self, watermark: u64) -> Result<usize, WalError> {
        let mut removed = 0usize;
        while let Some(first) = self.closed.first() {
            match first.last_seq() {
                Some(last) if last <= watermark => {
                    fs::remove_file(self.dir.join(&first.file_name))?;
                    self.closed.remove(0);
                    removed += 1;
                }
                // An empty closed segment can only be the artifact of a
                // crash between rotation steps; covered iff the next
                // segment starts at or before the watermark boundary.
                None if first.start_seq <= watermark + 1 => {
                    fs::remove_file(self.dir.join(&first.file_name))?;
                    self.closed.remove(0);
                    removed += 1;
                }
                _ => break,
            }
        }
        if removed > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// Reads every complete record of the log in `dir`, in sequence
    /// order — the replay path. Read-only: a torn tail on the final
    /// segment is skipped but **not** repaired (that happens on
    /// [`Wal::open`]). An absent directory reads as an empty log.
    ///
    /// # Errors
    ///
    /// I/O failures, or any corruption other than a final torn tail.
    pub fn records(dir: &Path) -> Result<Vec<WalRecord>, WalError> {
        let mut records = Vec::new();
        scan_dir(dir, Some(&mut records))?;
        Ok(records)
    }

    /// Per-segment metadata for the log in `dir`, in sequence order —
    /// the inspection path. Read-only, like [`Wal::records`].
    ///
    /// # Errors
    ///
    /// I/O failures, or any corruption other than a final torn tail.
    pub fn segments(dir: &Path) -> Result<Vec<SegmentInfo>, WalError> {
        scan_dir(dir, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_geo::Point;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A unique scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "geodabs-wal-test-{}-{}-{name}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            Scratch(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_trajectory(seed: u32) -> Trajectory {
        let start = Point::new(51.5074, -0.1278).unwrap();
        (0..4 + seed % 3)
            .map(|i| start.destination(90.0 + seed as f64, i as f64 * 75.0))
            .collect()
    }

    fn insert(id: u32) -> WalOp {
        WalOp::Insert {
            id: TrajId::new(id),
            trajectory: sample_trajectory(id),
        }
    }

    #[test]
    fn sync_policy_parses_and_renders() {
        assert_eq!(SyncPolicy::parse("always"), Ok(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("never"), Ok(SyncPolicy::Never));
        assert_eq!(
            SyncPolicy::parse("interval"),
            Ok(SyncPolicy::Interval(DEFAULT_SYNC_INTERVAL))
        );
        assert_eq!(
            SyncPolicy::parse("interval:5"),
            Ok(SyncPolicy::Interval(Duration::from_millis(5)))
        );
        assert!(SyncPolicy::parse("interval:0").is_err());
        assert!(SyncPolicy::parse("interval:x").is_err());
        assert!(SyncPolicy::parse("sometimes").is_err());
        for (policy, rendered) in [
            (SyncPolicy::Always, "always"),
            (SyncPolicy::Never, "never"),
            (SyncPolicy::Interval(Duration::from_millis(7)), "interval:7"),
        ] {
            assert_eq!(policy.to_string(), rendered);
            assert_eq!(rendered.parse::<SyncPolicy>().unwrap(), policy);
        }
    }

    #[test]
    fn append_reopen_replay_roundtrip() {
        let scratch = Scratch::new("roundtrip");
        let ops = [insert(1), insert(2), WalOp::Remove { id: TrajId::new(1) }];
        {
            let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
            assert_eq!(wal.last_seq(), 0);
            for (i, op) in ops.iter().enumerate() {
                let seq = wal.append(op).unwrap();
                assert_eq!(seq, i as u64 + 1);
                assert_eq!(wal.last_durable_seq(), seq);
            }
            assert!(wal.size_bytes() > 0);
        }
        let records = Wal::records(scratch.path()).unwrap();
        assert_eq!(records.len(), 3);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.seq, i as u64 + 1);
            assert_eq!(record.op, ops[i]);
        }
        // Reopening continues the sequence.
        let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
        assert_eq!(wal.last_seq(), 3);
        assert_eq!(wal.append(&insert(9)).unwrap(), 4);
    }

    #[test]
    fn fingerprint_ops_roundtrip_alongside_trajectory_ops() {
        let scratch = Scratch::new("fingerprints");
        let ops = [
            insert(1),
            WalOp::InsertFingerprints {
                id: TrajId::new(2),
                terms: vec![7, 7, 42, 1_000_000],
            },
            // An empty term sequence is legal (too-short trajectory).
            WalOp::InsertFingerprints {
                id: TrajId::new(3),
                terms: Vec::new(),
            },
            WalOp::Remove { id: TrajId::new(2) },
        ];
        {
            let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
        }
        let records = Wal::records(scratch.path()).unwrap();
        assert_eq!(records.len(), ops.len());
        for (record, op) in records.iter().zip(&ops) {
            assert_eq!(&record.op, op);
        }
    }

    #[test]
    fn batch_appends_are_contiguous_and_durable() {
        let scratch = Scratch::new("batch");
        let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
        assert_eq!(wal.append_batch(&[]).unwrap(), None);
        let ops = vec![insert(1), insert(2), insert(3)];
        assert_eq!(wal.append_batch(&ops).unwrap(), Some((1, 3)));
        assert_eq!(wal.last_durable_seq(), 3);
        assert_eq!(Wal::records(scratch.path()).unwrap().len(), 3);
    }

    #[test]
    fn never_policy_defers_durability_to_explicit_sync() {
        let scratch = Scratch::new("never");
        let mut wal = Wal::open(scratch.path(), SyncPolicy::Never).unwrap();
        wal.append(&insert(1)).unwrap();
        assert_eq!(wal.last_durable_seq(), 0, "no fsync has happened");
        wal.sync().unwrap();
        assert_eq!(wal.last_durable_seq(), 1);
    }

    #[test]
    fn zero_interval_syncs_every_append() {
        let scratch = Scratch::new("interval");
        let mut wal = Wal::open(scratch.path(), SyncPolicy::Interval(Duration::ZERO)).unwrap();
        wal.append(&insert(1)).unwrap();
        assert_eq!(wal.last_durable_seq(), 1);
    }

    /// Every possible crash point inside the final record — from one
    /// missing byte to a bare header — must recover to the acknowledged
    /// prefix, both on the read-only path and on open (which repairs).
    #[test]
    fn torn_tail_recovers_at_every_truncation_point() {
        let scratch = Scratch::new("torn");
        let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
        wal.append(&insert(1)).unwrap();
        wal.append(&insert(2)).unwrap();
        let boundary = wal.size_bytes();
        wal.append(&insert(3)).unwrap();
        let full = wal.size_bytes();
        drop(wal);
        let segment = scratch.path().join(segment_file_name(1));
        let pristine = fs::read(&segment).unwrap();
        for cut in boundary..full {
            fs::write(&segment, &pristine[..cut as usize]).unwrap();
            let records = Wal::records(scratch.path()).unwrap();
            assert_eq!(records.len(), 2, "cut at byte {cut}");
            let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
            assert_eq!(wal.last_seq(), 2, "cut at byte {cut}");
            // The repaired log appends cleanly over the discarded tail.
            assert_eq!(wal.append(&insert(7)).unwrap(), 3);
            drop(wal);
            fs::write(&segment, &pristine).unwrap();
        }
    }

    #[test]
    fn torn_record_in_non_final_segment_is_corruption() {
        let scratch = Scratch::new("torn-mid");
        let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
        wal.append(&insert(1)).unwrap();
        wal.rotate().unwrap();
        wal.append(&insert(2)).unwrap();
        drop(wal);
        let first = scratch.path().join(segment_file_name(1));
        let bytes = fs::read(&first).unwrap();
        fs::write(&first, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            Wal::records(scratch.path()),
            Err(WalError::Corrupt {
                what: "torn record in a non-final segment",
                ..
            })
        ));
        assert!(Wal::open(scratch.path(), SyncPolicy::Always).is_err());
    }

    #[test]
    fn flipped_bit_is_a_hard_checksum_error() {
        let scratch = Scratch::new("bitflip");
        let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
        wal.append(&insert(1)).unwrap();
        wal.append(&insert(2)).unwrap();
        drop(wal);
        let segment = scratch.path().join(segment_file_name(1));
        let pristine = fs::read(&segment).unwrap();
        // Flip one bit in the first record's body: not a torn tail, so
        // recovery must refuse rather than silently drop data.
        let mut corrupted = pristine.clone();
        corrupted[RECORD_HEADER + 3] ^= 0x40;
        fs::write(&segment, &corrupted).unwrap();
        assert!(matches!(
            Wal::records(scratch.path()),
            Err(WalError::ChecksumMismatch { offset: 0, .. })
        ));
        assert!(Wal::open(scratch.path(), SyncPolicy::Always).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let scratch = Scratch::new("oversized");
        fs::create_dir_all(scratch.path()).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        fs::write(scratch.path().join(segment_file_name(1)), &bytes).unwrap();
        assert!(matches!(
            Wal::records(scratch.path()),
            Err(WalError::RecordTooLarge {
                claimed: u32::MAX,
                ..
            })
        ));
    }

    /// Checksummed records whose bodies are wrong are corruption, named
    /// by what is wrong: a sequence gap, an unknown op, a coordinate no
    /// trajectory can hold.
    #[test]
    fn sequence_gaps_are_corruption() {
        let scratch = Scratch::new("seq-gap");
        fs::create_dir_all(scratch.path()).unwrap();
        // A well-formed record whose seq (3) does not match the
        // segment's start (1).
        let record = encode_record(3, &insert(1));
        fs::write(scratch.path().join(segment_file_name(1)), &record).unwrap();
        assert!(matches!(
            Wal::records(scratch.path()),
            Err(WalError::Corrupt {
                what: "sequence number out of order",
                ..
            })
        ));
        let mut unknown_op = 1u64.to_le_bytes().to_vec();
        unknown_op.extend_from_slice(&[9, 1, 0, 0, 0]);
        let mut bad_point = 1u64.to_le_bytes().to_vec();
        bad_point.push(OP_INSERT);
        for word in [7u32, 1] {
            bad_point.extend_from_slice(&word.to_le_bytes());
        }
        for coordinate in [f64::NAN, 0.0] {
            bad_point.extend_from_slice(&coordinate.to_bits().to_le_bytes());
        }
        for (body, expected) in [
            (unknown_op, "unknown wal op tag"),
            (bad_point, "invalid coordinate"),
        ] {
            let mut record = (body.len() as u32).to_le_bytes().to_vec();
            record.extend_from_slice(&crc32(&body).to_le_bytes());
            record.extend_from_slice(&body);
            fs::write(scratch.path().join(segment_file_name(1)), &record).unwrap();
            match Wal::records(scratch.path()) {
                Err(WalError::Corrupt { what, .. }) => assert_eq!(what, expected),
                other => panic!("expected {expected:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rotation_and_pruning_drop_folded_segments() {
        let scratch = Scratch::new("rotate");
        let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
        for i in 1..=3 {
            wal.append(&insert(i)).unwrap();
        }
        let watermark = wal.rotate().unwrap();
        assert_eq!(watermark, 3);
        // Rotating an empty current segment is a no-op.
        assert_eq!(wal.rotate().unwrap(), 3);
        wal.append(&insert(4)).unwrap();
        wal.append(&insert(5)).unwrap();
        assert_eq!(wal.prune(watermark).unwrap(), 1);
        assert_eq!(wal.prune(watermark).unwrap(), 0, "pruning is idempotent");
        // The suffix beyond the watermark survives, still contiguous.
        let records = Wal::records(scratch.path()).unwrap();
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        drop(wal);
        // And a pruned log reopens cleanly, continuing the sequence.
        let wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
        assert_eq!(wal.last_seq(), 5);
    }

    #[test]
    fn segment_metadata_reflects_layout() {
        let scratch = Scratch::new("segments");
        let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
        wal.append(&insert(1)).unwrap();
        wal.append(&insert(2)).unwrap();
        wal.rotate().unwrap();
        wal.append(&insert(3)).unwrap();
        let total = wal.size_bytes();
        drop(wal);
        let segments = Wal::segments(scratch.path()).unwrap();
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].start_seq, 1);
        assert_eq!(segments[0].records, 2);
        assert_eq!(segments[0].last_seq(), Some(2));
        assert_eq!(segments[1].start_seq, 3);
        assert_eq!(segments[1].records, 1);
        assert_eq!(segments.iter().map(|s| s.bytes).sum::<u64>(), total);
    }

    #[test]
    fn missing_directory_reads_as_empty() {
        let scratch = Scratch::new("missing");
        assert_eq!(Wal::records(scratch.path()).unwrap(), Vec::new());
        assert_eq!(Wal::segments(scratch.path()).unwrap(), Vec::new());
    }

    #[test]
    fn foreign_files_in_the_directory_are_ignored() {
        let scratch = Scratch::new("foreign");
        let mut wal = Wal::open(scratch.path(), SyncPolicy::Always).unwrap();
        wal.append(&insert(1)).unwrap();
        drop(wal);
        fs::write(scratch.path().join("snapshot.gdab"), b"not a segment").unwrap();
        fs::write(scratch.path().join("wal-12.log"), b"bad name shape").unwrap();
        assert_eq!(Wal::records(scratch.path()).unwrap().len(), 1);
    }

    #[test]
    fn errors_render() {
        for e in [
            WalError::Io(std::io::Error::other("io")),
            WalError::Corrupt {
                segment: "wal-x".into(),
                offset: 4,
                what: "bad",
            },
            WalError::RecordTooLarge {
                segment: "wal-x".into(),
                offset: 0,
                claimed: u32::MAX,
            },
            WalError::ChecksumMismatch {
                segment: "wal-x".into(),
                offset: 8,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
