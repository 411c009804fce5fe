//! The workspace-wide snapshot container: a versioned, checksummed,
//! sectioned binary format (`GDAB` v2) shared by every index backend.
//!
//! A snapshot is a sequence of independently checksummed *sections*, each
//! holding one piece of serialized **derived engine state** (posting
//! bitmaps in their [roaring wire form](geodabs_roaring::RoaringBitmap::serialize_into),
//! interner tables, per-set cardinalities), so loading is a direct
//! materialization instead of an O(corpus) rebuild. Layout, all
//! little-endian:
//!
//! ```text
//! magic    b"GDAB"                                  4 bytes
//! version  u16 = 2                                  2 bytes
//! backend  u8   (1 = geodab, 3 = cluster, 4 = node; 2 is retired)
//! count    u32                                      number of sections
//! section* id u32, len u64, crc32 u32, payload
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload; [`SnapshotReader::parse`]
//! verifies every section before any backend code touches a byte, so
//! bit-rot surfaces as [`SnapshotError::ChecksumMismatch`] rather than a
//! quietly wrong index. Version 1 (the original `GeodabIndex`-only codec
//! storing raw fingerprint sequences) remains decodable through
//! [`crate::codec::decode`], which switches on the version field.
//!
//! The module is also the workspace's one byte codec: [`Wire`] gives
//! each value (integers, strings, `Vec`s, tuples, trajectories, search
//! options and results, configurations, bitmaps) one layout for both
//! directions over a bounds-checked [`Cursor`], and the section
//! payloads, the `geodabs-serve` wire frames and the write-ahead log's
//! records are compositions of those impls, failing with one
//! [`ReadError`].
//!
//! The [`Persist`] trait is the one entry point: every persisted
//! backend — [`crate::GeodabIndex`], the cluster index and its shard
//! node — implements `to_snapshot`/`from_snapshot` over this container, and gets
//! file-level `save_to`/`load_from` for free.

use geodabs_core::{Fingerprints, GeodabConfig, GeodabError};
use geodabs_geo::Point;
use geodabs_roaring::RoaringBitmap;
use geodabs_traj::{TrajId, Trajectory};
use std::error::Error;
use std::fmt;
use std::path::Path;

use crate::{SearchOptions, SearchResult};

/// The file magic shared by every snapshot version.
pub const MAGIC: &[u8; 4] = b"GDAB";

/// The sectioned container format this module reads and writes.
pub const VERSION: u16 = 2;

/// The legacy single-blob `GeodabIndex` format (raw fingerprint
/// sequences, engine state rebuilt on load).
pub const VERSION_V1: u16 = 1;

/// Which index backend a snapshot holds, stored in the container header
/// so a load into the wrong type fails with
/// [`SnapshotError::WrongBackend`] instead of a section-soup error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// A [`crate::GeodabIndex`] snapshot.
    Geodab,
    /// A cluster snapshot: router manifest plus per-node segments.
    Cluster,
    /// A single shard node's standalone snapshot: the node-local slice
    /// of a cluster, bootable by a shard server on its own.
    Node,
}

impl BackendKind {
    /// The header tag byte.
    pub fn tag(self) -> u8 {
        match self {
            BackendKind::Geodab => 1,
            BackendKind::Cluster => 3,
            BackendKind::Node => 4,
        }
    }

    /// Parses a header tag byte.
    pub fn from_tag(tag: u8) -> Option<BackendKind> {
        match tag {
            1 => Some(BackendKind::Geodab),
            3 => Some(BackendKind::Cluster),
            4 => Some(BackendKind::Node),
            _ => None,
        }
    }

    /// The backend's stable name (used by the CLI).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Geodab => "geodab",
            BackendKind::Cluster => "cluster",
            BackendKind::Node => "node",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds a section id from a four-character code.
pub const fn section_id(name: &[u8; 4]) -> u32 {
    u32::from_le_bytes(*name)
}

/// Backend configuration (the `GeodabConfig`; a cluster or node adds its
/// router shape).
pub const SEC_CONFIG: u32 = section_id(b"CONF");
/// Interner table: live `(dense, id)` slots plus capacity.
pub const SEC_SLOTS: u32 = section_id(b"SLOT");
/// Posting lists: term dictionary with roaring bitmaps of dense slots.
pub const SEC_POSTINGS: u32 = section_id(b"POST");
/// Ordered fingerprint sequences per trajectory.
pub const SEC_FINGERPRINTS: u32 = section_id(b"FPRS");
/// The coordinator's indexed-id set (cluster backend).
pub const SEC_IDSET: u32 = section_id(b"IDST");
/// The durability watermark: the write-ahead-log sequence number (u64)
/// this snapshot covers. Optional — plain snapshots omit it, and old
/// snapshots without it read as watermark `None`. See [`watermark`].
pub const SEC_WATERMARK: u32 = section_id(b"WMRK");

/// The section id of cluster node `i`'s segment. Node indexes are bounded
/// well below the offset, so these never collide with the ASCII
/// four-character codes above.
pub fn node_section_id(node: usize) -> u32 {
    debug_assert!(node <= MAX_NODE_SECTIONS, "node index out of range");
    section_id(b"NOD\0") + node as u32
}

/// The largest node index [`node_section_id`] accepts.
pub const MAX_NODE_SECTIONS: usize = 0x00FF_FFFF;

/// A printable rendering of a section id: the four-character code when it
/// is one, a node label for node segments, hex otherwise.
pub fn section_name(id: u32) -> String {
    let base = section_id(b"NOD\0");
    if (base..=base + MAX_NODE_SECTIONS as u32).contains(&id) {
        return format!("NODE{}", id - base);
    }
    let bytes = id.to_le_bytes();
    if bytes.iter().all(|b| b.is_ascii_graphic()) {
        String::from_utf8_lossy(&bytes).into_owned()
    } else {
        format!("{id:#010x}")
    }
}

/// The one decode error of every byte format in the workspace: the
/// snapshot sections, the `geodabs-serve` wire payloads and the
/// write-ahead log's records all decode through [`Wire::get`], and each
/// format's outer error converts from this one with `?`
/// ([`SnapshotError`] here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The input ended in the middle of a record.
    Truncated,
    /// A payload is structurally invalid.
    Corrupt(&'static str),
    /// A tag byte names no variant of the value being decoded.
    UnknownTag {
        /// What was being decoded (`"query body"`, …).
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A stored [`GeodabConfig`] fails validation.
    InvalidConfig(GeodabError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated => write!(f, "truncated input"),
            ReadError::Corrupt(what) => write!(f, "corrupt input: {what}"),
            ReadError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            ReadError::InvalidConfig(e) => write!(f, "invalid stored configuration: {e}"),
        }
    }
}

impl Error for ReadError {}

impl From<ReadError> for SnapshotError {
    fn from(e: ReadError) -> SnapshotError {
        match e {
            ReadError::Truncated => SnapshotError::Truncated,
            ReadError::Corrupt(what) => SnapshotError::Corrupt(what),
            // No snapshot section holds a tagged value.
            ReadError::UnknownTag { .. } => SnapshotError::Corrupt("unknown tag"),
            ReadError::InvalidConfig(e) => SnapshotError::InvalidConfig(e),
        }
    }
}

impl From<geodabs_roaring::WireError> for ReadError {
    fn from(e: geodabs_roaring::WireError) -> ReadError {
        match e {
            geodabs_roaring::WireError::Truncated => ReadError::Truncated,
            geodabs_roaring::WireError::Corrupt(what) => ReadError::Corrupt(what),
        }
    }
}

/// Errors reading a snapshot (or writing one to disk).
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The input does not start with the `GDAB` magic.
    BadMagic,
    /// The format version is not one this library understands.
    UnsupportedVersion(u16),
    /// The input ended in the middle of a record.
    Truncated,
    /// A section's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// The corrupted section.
        section: u32,
    },
    /// The snapshot holds a different backend than the one loading it.
    WrongBackend {
        /// The backend of the loading type.
        expected: BackendKind,
        /// The tag byte found in the header.
        found: u8,
    },
    /// The backend tag byte is not one this library knows (loads that
    /// accept *any* backend report this instead of
    /// [`SnapshotError::WrongBackend`]).
    UnknownBackend(u8),
    /// A required section is absent.
    MissingSection(u32),
    /// The same section id appears twice.
    DuplicateSection(u32),
    /// A section payload is structurally invalid.
    Corrupt(&'static str),
    /// The stored configuration fails validation.
    InvalidConfig(GeodabError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "input is not a geodabs snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::Truncated => write!(f, "truncated snapshot data"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {}", section_name(*section))
            }
            SnapshotError::WrongBackend { expected, found } => {
                match BackendKind::from_tag(*found) {
                    Some(found) => write!(f, "snapshot holds a {found} index, expected {expected}"),
                    None => write!(f, "unknown backend tag {found}, expected {expected}"),
                }
            }
            SnapshotError::UnknownBackend(tag) => write!(f, "unknown backend tag {tag}"),
            SnapshotError::MissingSection(id) => {
                write!(f, "snapshot is missing section {}", section_name(*id))
            }
            SnapshotError::DuplicateSection(id) => {
                write!(f, "snapshot repeats section {}", section_name(*id))
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::InvalidConfig(e) => write!(f, "invalid stored configuration: {e}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

/// Slicing-by-8 tables (Kounavis & Berry): `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, `CRC_TABLES[k][b]` is the CRC state after byte
/// `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// The IEEE CRC-32 of `data` (the polynomial zip, PNG and ethernet use),
/// eight bytes per step with a bytewise tail.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = u32::MAX;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &byte in chunks.remainder() {
        c = t[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// A bounds-checked read position in a byte stream: every read either
/// consumes exactly the bytes it needs or fails with
/// [`ReadError::Truncated`], never panics. Values are read with
/// [`Cursor::get`], which runs the type's [`Wire`] decoder.
pub struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if self.data.len() < n {
            return Err(ReadError::Truncated);
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// Reads one `T`.
    ///
    /// # Errors
    ///
    /// Whatever `T`'s decoder reports.
    pub fn get<T: Wire>(&mut self) -> Result<T, ReadError> {
        T::get(self)
    }

    /// Asserts the input was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`ReadError::Corrupt`] when trailing bytes remain.
    pub fn expect_end(&self) -> Result<(), ReadError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(ReadError::Corrupt("trailing bytes after the payload"))
        }
    }
}

/// A value's byte layout, written once and composed: every payload of
/// the workspace — snapshot sections, wire frames, log records — is a
/// tuple, `Vec` or tagged enum of these impls, so its encoder and
/// decoder cannot drift apart. All integers are fixed-width
/// little-endian.
///
/// ```
/// use geodabs_index::store::{from_bytes, to_bytes};
/// use geodabs_traj::TrajId;
///
/// let records = vec![(TrajId::new(7), vec![1u32, 2]), (TrajId::new(9), vec![])];
/// let bytes = to_bytes(&records);
/// assert_eq!(bytes.len(), 4 + (4 + 4 + 8) + (4 + 4));
/// assert_eq!(from_bytes::<Vec<(TrajId, Vec<u32>)>>(&bytes).unwrap(), records);
/// ```
pub trait Wire: Sized {
    /// The fewest bytes any value encodes to. `Vec<Self>`'s decoder
    /// divides the remaining input by it, so an untrusted count never
    /// reserves more entries than the payload could hold.
    const MIN_LEN: usize;

    /// Appends the encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// [`ReadError`] on truncated or invalid input; never panics.
    fn get(cursor: &mut Cursor<'_>) -> Result<Self, ReadError>;
}

/// `value`'s encoding in a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decodes a `T` spanning all of `payload`.
///
/// # Errors
///
/// `T`'s decode errors, or [`ReadError::Corrupt`] on trailing bytes.
pub fn from_bytes<T: Wire>(payload: &[u8]) -> Result<T, ReadError> {
    let mut cursor = Cursor::new(payload);
    let value = cursor.get()?;
    cursor.expect_end()?;
    Ok(value)
}

/// Writes items in `Vec<T>`'s layout — a `u32` count, then each item via
/// `put` — from any exact-size iterator, so an encoder can write
/// borrowed records (a posting bitmap, a fingerprint sequence) without
/// first cloning them into a `Vec`.
pub fn put_seq<I: ExactSizeIterator>(
    out: &mut Vec<u8>,
    items: I,
    mut put: impl FnMut(I::Item, &mut Vec<u8>),
) {
    (items.len() as u32).put(out);
    for item in items {
        put(item, out);
    }
}

/// A one-byte flag that must be exactly 0 or 1.
///
/// # Errors
///
/// [`ReadError::Corrupt`] with `what` for any other byte.
pub fn flag(byte: u8, what: &'static str) -> Result<bool, ReadError> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(ReadError::Corrupt(what)),
    }
}

/// Fails unless the keys of `pairs` are strictly ascending — the order
/// every keyed snapshot record list is written in.
///
/// # Errors
///
/// [`ReadError::Corrupt`] with `what`.
pub fn strictly_ascending<K: Ord, V>(
    pairs: &[(K, V)],
    what: &'static str,
) -> Result<(), ReadError> {
    if pairs.windows(2).all(|w| w[0].0 < w[1].0) {
        Ok(())
    } else {
        Err(ReadError::Corrupt(what))
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(cursor: &mut Cursor<'_>) -> Result<$t, ReadError> {
                let bytes = cursor.take(Self::MIN_LEN)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact width")))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64);

/// IEEE-754 bit patterns, so a value decodes bit-identical.
impl Wire for f64 {
    const MIN_LEN: usize = u64::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<f64, ReadError> {
        Ok(f64::from_bits(cursor.get()?))
    }
}

impl Wire for bool {
    const MIN_LEN: usize = u8::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<bool, ReadError> {
        flag(cursor.get()?, "flag is not 0 or 1")
    }
}

/// A `u32` byte count, then the utf-8 bytes.
impl Wire for String {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<String, ReadError> {
        let len = cursor.get::<u32>()? as usize;
        let bytes = cursor.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ReadError::Corrupt("string is not utf-8"))
    }
}

/// A `u32` count, then the items.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.iter(), T::put);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<Vec<T>, ReadError> {
        let count = cursor.get::<u32>()? as usize;
        let mut items = Vec::with_capacity(count.min(cursor.remaining() / T::MIN_LEN.max(1)));
        for _ in 0..count {
            items.push(cursor.get()?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<(A, B), ReadError> {
        Ok((cursor.get()?, cursor.get()?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN + C::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<(A, B, C), ReadError> {
        Ok((cursor.get()?, cursor.get()?, cursor.get()?))
    }
}

impl Wire for TrajId {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        self.raw().put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<TrajId, ReadError> {
        Ok(TrajId::new(cursor.get()?))
    }
}

/// `lat f64, lon f64`, validated like any other coordinate.
impl Wire for Point {
    const MIN_LEN: usize = <(f64, f64)>::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        (self.lat(), self.lon()).put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<Point, ReadError> {
        let (lat, lon) = cursor.get()?;
        Point::new(lat, lon).map_err(|_| ReadError::Corrupt("invalid coordinate"))
    }
}

/// Its points, as `Vec<Point>`.
impl Wire for Trajectory {
    const MIN_LEN: usize = Vec::<Point>::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.points().iter(), Point::put);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<Trajectory, ReadError> {
        Ok(Trajectory::new(cursor.get()?))
    }
}

/// The ordered geodab sequence, as `Vec<u32>`; the set is rebuilt.
impl Wire for Fingerprints {
    const MIN_LEN: usize = Vec::<u32>::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.ordered().iter(), u32::put);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<Fingerprints, ReadError> {
        Ok(Fingerprints::from_ordered(cursor.get()?))
    }
}

/// `max_distance f64, has_limit u8, limit u64` (`limit` is 0 when
/// unbounded).
impl Wire for SearchOptions {
    const MIN_LEN: usize = <(f64, u8, u64)>::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        let limit = self.limit.unwrap_or(0) as u64;
        (self.max_distance, self.limit.is_some(), limit).put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<SearchOptions, ReadError> {
        let (max_distance, has_limit, limit): (f64, u8, u64) = cursor.get()?;
        let options = SearchOptions::default().max_distance(max_distance);
        if !flag(has_limit, "limit flag is not 0 or 1")? {
            return Ok(options);
        }
        let limit =
            usize::try_from(limit).map_err(|_| ReadError::Corrupt("result limit exceeds usize"))?;
        Ok(options.limit(limit))
    }
}

/// `id u32, distance f64`.
impl Wire for SearchResult {
    const MIN_LEN: usize = <(TrajId, f64)>::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        (self.id, self.distance).put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<SearchResult, ReadError> {
        let (id, distance) = cursor.get()?;
        Ok(SearchResult { id, distance })
    }
}

/// The `CONF` bytes: `depth u8, prefix u8, k u32, t u32`, validated.
impl Wire for GeodabConfig {
    const MIN_LEN: usize = <(u8, u8)>::MIN_LEN + <(u32, u32)>::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        (self.normalization_depth(), self.prefix_bits()).put(out);
        (self.k() as u32, self.t() as u32).put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<GeodabConfig, ReadError> {
        let (depth, prefix): (u8, u8) = cursor.get()?;
        let (k, t): (u32, u32) = cursor.get()?;
        GeodabConfig::new(depth, k as usize, t as usize, prefix).map_err(ReadError::InvalidConfig)
    }
}

/// The roaring wire form; its own decoder validates the containers.
impl Wire for RoaringBitmap {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        self.serialize_into(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> Result<RoaringBitmap, ReadError> {
        let (bitmap, used) = RoaringBitmap::deserialize_from(cursor.data)?;
        cursor.data = &cursor.data[used..];
        Ok(bitmap)
    }
}

/// Accumulates sections and serializes the `GDAB` v2 container.
///
/// ```
/// use geodabs_index::store::{BackendKind, SnapshotReader, SnapshotWriter, SEC_CONFIG};
///
/// let mut writer = SnapshotWriter::new(BackendKind::Geodab);
/// writer.section(SEC_CONFIG, vec![1, 2, 3]);
/// let bytes = writer.finish();
/// let reader = SnapshotReader::parse(&bytes).unwrap();
/// assert_eq!(reader.section(SEC_CONFIG).unwrap(), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    backend: BackendKind,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot for the given backend.
    pub fn new(backend: BackendKind) -> SnapshotWriter {
        SnapshotWriter {
            backend,
            sections: Vec::new(),
        }
    }

    /// Appends a section. Sections are written in insertion order; ids
    /// must be unique (checked on read).
    pub fn section(&mut self, id: u32, payload: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|&(existing, _)| existing != id),
            "duplicate section id"
        );
        self.sections.push((id, payload));
    }

    /// Serializes the container: header, then every section with its
    /// length and CRC-32.
    pub fn finish(self) -> Vec<u8> {
        let total: usize = self.sections.iter().map(|(_, p)| 16 + p.len()).sum();
        let mut out = Vec::with_capacity(11 + total);
        out.extend_from_slice(MAGIC);
        (VERSION, self.backend.tag(), self.sections.len() as u32).put(&mut out);
        for (id, payload) in &self.sections {
            (*id, payload.len() as u64, crc32(payload)).put(&mut out);
            out.extend_from_slice(payload);
        }
        out
    }
}

/// Reads the snapshot version from a byte stream without parsing the
/// body — how [`crate::codec::decode`] switches between the v1 and v2
/// paths.
///
/// # Errors
///
/// [`SnapshotError::BadMagic`] / [`SnapshotError::Truncated`] on inputs
/// too foreign to carry a version at all.
pub fn peek_version(data: &[u8]) -> Result<u16, SnapshotError> {
    if data.len() < 4 {
        return Err(SnapshotError::BadMagic);
    }
    if &data[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    Ok(Cursor::new(&data[4..]).get()?)
}

/// Reads a snapshot's durability watermark: the WAL sequence number the
/// snapshot covers, recorded by the compaction path in an optional
/// [`SEC_WATERMARK`] section. Snapshots without one — every v1
/// snapshot, and any v2 snapshot not produced by compaction — read as
/// `None`: replay then starts from the beginning of the log.
///
/// # Errors
///
/// Malformed containers, or a watermark section that is not exactly
/// eight bytes.
pub fn watermark(data: &[u8]) -> Result<Option<u64>, SnapshotError> {
    if peek_version(data)? == VERSION_V1 {
        return Ok(None);
    }
    let reader = SnapshotReader::parse(data)?;
    match reader.optional_section(SEC_WATERMARK) {
        None => Ok(None),
        Some(payload) => Ok(Some(from_bytes(payload)?)),
    }
}

/// Returns `data` with its durability watermark set to `seq`, replacing
/// any previous [`SEC_WATERMARK`] section. Every other section is
/// carried over byte-for-byte, so the stamped snapshot loads through
/// the same decoders (which ignore sections they do not know).
///
/// # Errors
///
/// Malformed containers (v1 snapshots cannot carry a watermark and are
/// rejected as [`SnapshotError::UnsupportedVersion`]).
pub fn with_watermark(data: &[u8], seq: u64) -> Result<Vec<u8>, SnapshotError> {
    let reader = SnapshotReader::parse(data)?;
    let backend = reader
        .backend()
        .ok_or(SnapshotError::UnknownBackend(reader.backend_tag()))?;
    let mut writer = SnapshotWriter::new(backend);
    for &(id, payload) in reader.sections() {
        if id != SEC_WATERMARK {
            writer.section(id, payload.to_vec());
        }
    }
    writer.section(SEC_WATERMARK, to_bytes(&seq));
    Ok(writer.finish())
}

/// A parsed v2 container: header fields plus the section table, every
/// payload already checksum-verified.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    backend_tag: u8,
    sections: Vec<(u32, &'a [u8])>,
    /// Section id → index into `sections`, so duplicate detection during
    /// parse and every lookup stay O(1) — cluster loads do one lookup
    /// per node, and a crafted section count must not buy quadratic CPU.
    by_id: std::collections::HashMap<u32, usize>,
}

impl<'a> SnapshotReader<'a> {
    /// Parses and verifies a v2 container: magic, version, section table
    /// and every section's CRC-32.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] a malformed container can produce; never
    /// panics on arbitrary input.
    pub fn parse(data: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        let version = peek_version(data)?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let mut cursor = Cursor::new(&data[6..]);
        let (backend_tag, count): (u8, u32) = cursor.get()?;
        let mut sections: Vec<(u32, &[u8])> = Vec::new();
        let mut by_id = std::collections::HashMap::new();
        for _ in 0..count {
            let (id, len, stored_crc): (u32, u64, u32) = cursor.get()?;
            if cursor.remaining() < len as usize {
                return Err(SnapshotError::Truncated);
            }
            let payload = cursor.take(len as usize)?;
            if crc32(payload) != stored_crc {
                return Err(SnapshotError::ChecksumMismatch { section: id });
            }
            if by_id.insert(id, sections.len()).is_some() {
                return Err(SnapshotError::DuplicateSection(id));
            }
            sections.push((id, payload));
        }
        if cursor.remaining() != 0 {
            return Err(SnapshotError::Corrupt("trailing bytes after last section"));
        }
        Ok(SnapshotReader {
            backend_tag,
            sections,
            by_id,
        })
    }

    /// The raw backend tag byte from the header.
    pub fn backend_tag(&self) -> u8 {
        self.backend_tag
    }

    /// The backend, when the tag is a known one.
    pub fn backend(&self) -> Option<BackendKind> {
        BackendKind::from_tag(self.backend_tag)
    }

    /// Fails unless the snapshot holds the given backend.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::WrongBackend`] naming both sides.
    pub fn expect_backend(&self, expected: BackendKind) -> Result<(), SnapshotError> {
        if self.backend_tag == expected.tag() {
            Ok(())
        } else {
            Err(SnapshotError::WrongBackend {
                expected,
                found: self.backend_tag,
            })
        }
    }

    /// The payload of a required section.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] when absent.
    pub fn section(&self, id: u32) -> Result<&'a [u8], SnapshotError> {
        self.optional_section(id)
            .ok_or(SnapshotError::MissingSection(id))
    }

    /// The payload of a section that may be absent.
    pub fn optional_section(&self, id: u32) -> Option<&'a [u8]> {
        self.by_id.get(&id).map(|&index| self.sections[index].1)
    }

    /// Every section in file order, as `(id, payload)`.
    pub fn sections(&self) -> &[(u32, &'a [u8])] {
        &self.sections
    }
}

/// Snapshot persistence, implemented by every index backend.
///
/// `to_snapshot`/`from_snapshot` round-trip the full engine state through
/// the `GDAB` v2 container; `save_to`/`load_from` add the file I/O. The
/// contract every implementation upholds (and the snapshot test-suites
/// pin): `from_snapshot(to_snapshot(index))` answers every query exactly
/// like `index`, and `from_snapshot` never panics on arbitrary bytes.
pub trait Persist: Sized {
    /// Serializes the index into a self-contained snapshot.
    fn to_snapshot(&self) -> Vec<u8>;

    /// Materializes an index from a snapshot.
    ///
    /// # Errors
    ///
    /// A [`SnapshotError`] on malformed input; a successful load is
    /// always internally consistent.
    fn from_snapshot(data: &[u8]) -> Result<Self, SnapshotError>;

    /// Writes the snapshot to a file, returning the byte count.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures.
    fn save_to<P: AsRef<Path>>(&self, path: P) -> Result<u64, SnapshotError> {
        let bytes = self.to_snapshot();
        std::fs::write(path, &bytes).map_err(SnapshotError::Io)?;
        Ok(bytes.len() as u64)
    }

    /// Reads a snapshot file back into an index.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures, any decode error on
    /// malformed contents.
    fn load_from<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        Self::from_snapshot(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut writer = SnapshotWriter::new(BackendKind::Geodab);
        writer.section(SEC_CONFIG, vec![36, 16, 6, 0, 0, 0]);
        writer.section(SEC_POSTINGS, (0u8..200).collect());
        writer.section(node_section_id(3), Vec::new());
        writer.finish()
    }

    #[test]
    fn writer_reader_roundtrip() {
        let bytes = sample();
        let reader = SnapshotReader::parse(&bytes).expect("valid container");
        assert_eq!(reader.backend(), Some(BackendKind::Geodab));
        assert_eq!(reader.section(SEC_CONFIG).unwrap(), &[36, 16, 6, 0, 0, 0]);
        assert_eq!(reader.section(SEC_POSTINGS).unwrap().len(), 200);
        assert_eq!(reader.section(node_section_id(3)).unwrap().len(), 0);
        assert_eq!(reader.sections().len(), 3);
        assert!(reader.optional_section(SEC_FINGERPRINTS).is_none());
        assert!(matches!(
            reader.section(SEC_FINGERPRINTS),
            Err(SnapshotError::MissingSection(_))
        ));
        assert!(reader.expect_backend(BackendKind::Geodab).is_ok());
        assert!(matches!(
            reader.expect_backend(BackendKind::Cluster),
            Err(SnapshotError::WrongBackend { .. })
        ));
    }

    #[test]
    fn watermark_stamping_roundtrips_and_replaces() {
        let bytes = sample();
        assert_eq!(
            watermark(&bytes).unwrap(),
            None,
            "plain snapshots carry none"
        );
        let stamped = with_watermark(&bytes, 42).unwrap();
        assert_eq!(watermark(&stamped).unwrap(), Some(42));
        // Restamping replaces rather than duplicates the section…
        let restamped = with_watermark(&stamped, 99).unwrap();
        assert_eq!(watermark(&restamped).unwrap(), Some(99));
        let reader = SnapshotReader::parse(&restamped).unwrap();
        assert_eq!(reader.sections().len(), 4);
        assert_eq!(section_name(SEC_WATERMARK), "WMRK");
        // …and every original section is carried over byte-for-byte.
        let original = SnapshotReader::parse(&bytes).unwrap();
        for &(id, payload) in original.sections() {
            assert_eq!(reader.section(id).unwrap(), payload);
        }
    }

    #[test]
    fn watermark_tolerates_v1_and_rejects_malformed_sections() {
        let v1 = b"GDAB\x01\x00rest-is-the-legacy-layout".to_vec();
        assert_eq!(watermark(&v1).unwrap(), None, "v1 predates the section");
        assert!(matches!(
            with_watermark(&v1, 1),
            Err(SnapshotError::UnsupportedVersion(1))
        ));
        let mut writer = SnapshotWriter::new(BackendKind::Geodab);
        writer.section(SEC_WATERMARK, vec![1, 2, 3]);
        let bad = writer.finish();
        assert!(
            watermark(&bad).is_err(),
            "watermark must be exactly 8 bytes"
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The IEEE CRC-32 one bit at a time: no table to get wrong.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = u32::MAX;
        for &byte in data {
            c ^= u32::from(byte);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_tail_and_alignment() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=(40 + 15) {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_crc32_matches_bitwise_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4112),
            skip in 0usize..16,
        ) {
            let slice = &data[skip.min(data.len())..];
            proptest::prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
        }
    }

    #[test]
    fn payload_bitflips_are_caught_by_the_checksum() {
        let bytes = sample();
        let reader = SnapshotReader::parse(&bytes).unwrap();
        // Find where the POST payload lives and flip a bit inside it.
        let payload = reader.section(SEC_POSTINGS).unwrap();
        let offset = payload.as_ptr() as usize - bytes.as_ptr() as usize + 100;
        drop(reader);
        let mut corrupted = bytes.clone();
        corrupted[offset] ^= 0x40;
        assert!(matches!(
            SnapshotReader::parse(&corrupted),
            Err(SnapshotError::ChecksumMismatch { section }) if section == SEC_POSTINGS
        ));
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::parse(&bytes[..cut]).expect_err("strict prefix");
            assert!(!err.to_string().is_empty(), "cut at {cut}");
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            SnapshotReader::parse(&padded),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn versions_and_magic_are_enforced() {
        assert!(matches!(peek_version(b""), Err(SnapshotError::BadMagic)));
        assert!(matches!(
            peek_version(b"NOPE\x02\x00"),
            Err(SnapshotError::BadMagic)
        ));
        assert_eq!(peek_version(b"GDAB\x02\x00").unwrap(), 2);
        assert_eq!(peek_version(b"GDAB\x01\x00").unwrap(), 1);
        assert!(matches!(
            SnapshotReader::parse(b"GDAB\x01\x00rest"),
            Err(SnapshotError::UnsupportedVersion(1))
        ));
        assert!(matches!(
            SnapshotReader::parse(b"GDAB\x63\x00rest"),
            Err(SnapshotError::UnsupportedVersion(0x63))
        ));
    }

    #[test]
    fn duplicate_sections_are_rejected() {
        // Hand-assemble a container repeating SEC_CONFIG.
        let mut writer = SnapshotWriter::new(BackendKind::Geodab);
        writer.section(SEC_CONFIG, vec![1]);
        let mut bytes = writer.finish();
        // Append a copy of the one section and bump the count.
        let section_bytes = bytes[11..].to_vec();
        bytes.extend_from_slice(&section_bytes);
        bytes[7..11].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            SnapshotReader::parse(&bytes),
            Err(SnapshotError::DuplicateSection(id)) if id == SEC_CONFIG
        ));
    }

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let mut cursor = Cursor::new(&[1, 2, 3]);
        assert_eq!(cursor.get::<u8>().unwrap(), 1);
        assert_eq!(cursor.get::<u16>().unwrap(), u16::from_le_bytes([2, 3]));
        assert_eq!(cursor.get::<u8>(), Err(ReadError::Truncated));
        assert!(cursor.expect_end().is_ok());
        let mut cursor = Cursor::new(&[0; 20]);
        assert_eq!(cursor.get::<u32>().unwrap(), 0);
        assert_eq!(cursor.get::<u64>().unwrap(), 0);
        assert_eq!(cursor.get::<f64>().unwrap(), 0.0);
        let trailing = Cursor::new(&[0; 2]);
        assert_eq!(
            trailing.expect_end(),
            Err(ReadError::Corrupt("trailing bytes after the payload"))
        );
        // Cursor errors convert into the snapshot error vocabulary.
        assert!(matches!(
            SnapshotError::from(ReadError::Truncated),
            SnapshotError::Truncated
        ));
        assert!(matches!(
            SnapshotError::from(ReadError::Corrupt("x")),
            SnapshotError::Corrupt("x")
        ));
        assert!(!ReadError::Truncated.to_string().is_empty());
        assert!(ReadError::Corrupt("boom").to_string().contains("boom"));
    }

    #[test]
    fn section_names_render() {
        assert_eq!(section_name(SEC_CONFIG), "CONF");
        assert_eq!(section_name(node_section_id(0)), "NODE0");
        assert_eq!(section_name(node_section_id(42)), "NODE42");
        assert_eq!(section_name(1), "0x00000001");
    }

    #[test]
    fn backend_tags_roundtrip() {
        for kind in [BackendKind::Geodab, BackendKind::Cluster, BackendKind::Node] {
            assert_eq!(BackendKind::from_tag(kind.tag()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        for unknown in [0, 2, 99] {
            assert_eq!(BackendKind::from_tag(unknown), None);
        }
    }
}
