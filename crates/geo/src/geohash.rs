use serde::{Deserialize, Serialize};
use std::fmt;

use crate::morton::{deinterleave, interleave};
use crate::{BoundingBox, GeoError, Point};

/// Maximum supported geohash depth, in bits.
pub const MAX_DEPTH: u8 = 64;

/// The canonical geohash base32 alphabet (Niemeyer, 2008).
const BASE32: &[u8; 32] = b"0123456789bcdefghjkmnpqrstuvwxyz";

/// Reverse lookup for [`BASE32`]: maps a byte to its 5-bit digit, with both
/// cases of each letter accepted and `0xFF` marking bytes outside the
/// alphabet — one table index replaces the per-character linear scan.
const BASE32_REV: [u8; 256] = {
    let mut table = [0xFFu8; 256];
    let mut i = 0usize;
    while i < 32 {
        let b = BASE32[i];
        table[b as usize] = i as u8;
        table[b.to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// A geohash: `depth` bits that repeatedly bisect the latitude/longitude
/// space (Section III-C of the paper).
///
/// The first bisection (most significant bit) splits the longitude axis, the
/// second the latitude axis, and so on, exactly as in Figure 2 (a). The bits
/// are stored right-aligned, so the numeric value of [`Geohash::bits`] is the
/// position of the cell on the Z-order space-filling curve of Figure 2 (b) —
/// this is what makes geohashes usable for locality-preserving sharding.
///
/// A depth of `0` is valid and denotes the whole world cell.
///
/// # Examples
///
/// ```
/// use geodabs_geo::{Geohash, Point};
///
/// # fn main() -> Result<(), geodabs_geo::GeoError> {
/// let p = Point::new(57.64911, 10.40744)?;
/// let g = Geohash::encode(p, 55)?;
/// assert_eq!(g.to_base32().unwrap(), "u4pruydqqvj");
/// assert!(g.bounds().contains(p));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Geohash {
    // Order matters for the derived `Ord`: compare by depth first so that
    // hashes of equal depth sort along the Z-curve, which is the only
    // ordering the library relies on (sharding always uses a fixed depth).
    depth: u8,
    bits: u64,
}

impl Geohash {
    /// Encodes a point at the given depth (`0..=64` bits).
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDepth`] if `depth > 64`.
    pub fn encode(p: Point, depth: u8) -> Result<Geohash, GeoError> {
        if depth > MAX_DEPTH {
            return Err(GeoError::InvalidDepth(depth));
        }
        let lat_q = quantize(p.lat(), LAT_LO, -LAT_LO);
        let lon_q = quantize(p.lon(), LON_LO, -LON_LO);
        // Longitude sits at odd Morton positions so that, once the code is
        // read MSB-first, the very first bit subdivides the longitude axis.
        let code = interleave(lat_q, lon_q);
        Ok(Geohash {
            depth,
            bits: if depth == 0 { 0 } else { code >> (64 - depth) },
        })
    }

    /// Builds a geohash from raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDepth`] if `depth > 64` or if `bits` has
    /// set bits above position `depth`.
    pub fn from_bits(bits: u64, depth: u8) -> Result<Geohash, GeoError> {
        if depth > MAX_DEPTH {
            return Err(GeoError::InvalidDepth(depth));
        }
        if depth < 64 && bits >> depth != 0 {
            return Err(GeoError::InvalidDepth(depth));
        }
        Ok(Geohash { depth, bits })
    }

    /// The whole-world geohash (depth 0).
    pub fn world() -> Geohash {
        Geohash { depth: 0, bits: 0 }
    }

    /// The raw right-aligned bits. At a fixed depth this value is the cell's
    /// position on the Z-order space-filling curve.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Number of bits (the precision) of this geohash.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// The rectangular cell this geohash covers.
    pub fn bounds(&self) -> BoundingBox {
        let aligned = if self.depth == 0 {
            0
        } else {
            self.bits << (64 - self.depth)
        };
        let (lat_q, lon_q) = deinterleave(aligned);
        let enc = CellEncoder::new(self.depth).expect("a geohash's depth is valid");
        enc.cell_bounds(
            cell_index(lat_q, enc.lat_bits),
            cell_index(lon_q, enc.lon_bits),
        )
    }

    /// The center of the cell.
    pub fn center(&self) -> Point {
        self.bounds().center()
    }

    /// The geohash truncated to a shallower depth.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDepth`] if `depth` exceeds this geohash's
    /// depth (truncation cannot add precision).
    pub fn truncate(&self, depth: u8) -> Result<Geohash, GeoError> {
        if depth > self.depth {
            return Err(GeoError::InvalidDepth(depth));
        }
        Ok(Geohash {
            depth,
            bits: if depth == 0 {
                0
            } else {
                self.bits >> (self.depth - depth)
            },
        })
    }

    /// Whether `other` is this cell or one of its descendants.
    pub fn contains_hash(&self, other: &Geohash) -> bool {
        other.depth >= self.depth
            && (self.depth == 0 || other.bits >> (other.depth - self.depth) == self.bits)
    }

    /// The deepest geohash that overlaps every point of the iterator — the
    /// `geohash({p1, ..., pn})` function of Section III-C.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::EmptyPointSet`] if the iterator is empty.
    pub fn covering<I: IntoIterator<Item = Point>>(points: I) -> Result<Geohash, GeoError> {
        let mut iter = points.into_iter();
        let first = iter.next().ok_or(GeoError::EmptyPointSet)?;
        let first = Geohash::encode(first, MAX_DEPTH).expect("depth 64 is valid");
        let mut prefix_len = MAX_DEPTH;
        let mut bits = first.bits;
        for p in iter {
            let code = Geohash::encode(p, MAX_DEPTH)
                .expect("depth 64 is valid")
                .bits;
            let common = (bits ^ code).leading_zeros().min(u32::from(prefix_len)) as u8;
            prefix_len = common;
            if prefix_len == 0 {
                return Ok(Geohash::world());
            }
            bits &= !0u64 << (64 - prefix_len);
        }
        Ok(Geohash {
            depth: prefix_len,
            bits: if prefix_len == 0 {
                0
            } else {
                bits >> (64 - prefix_len)
            },
        })
    }

    /// Encodes this geohash in the canonical base32 alphabet.
    ///
    /// Returns `None` unless the depth is a multiple of 5 (base32 encodes
    /// five bits per character).
    pub fn to_base32(&self) -> Option<String> {
        if !self.depth.is_multiple_of(5) {
            return None;
        }
        let chars = self.depth / 5;
        let mut out = String::with_capacity(chars as usize);
        for i in (0..chars).rev() {
            let chunk = (self.bits >> (i * 5)) & 0b11111;
            out.push(BASE32[chunk as usize] as char);
        }
        Some(out)
    }

    /// Parses a base32 geohash string (depth = 5 bits per character).
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidBase32`] on characters outside the
    /// alphabet, and [`GeoError::InvalidDepth`] if the string encodes more
    /// than 64 bits (i.e. more than 12 characters).
    pub fn from_base32(s: &str) -> Result<Geohash, GeoError> {
        if s.len() > 12 {
            return Err(GeoError::InvalidDepth(
                u8::try_from(s.len() * 5).unwrap_or(u8::MAX),
            ));
        }
        let mut bits: u64 = 0;
        for c in s.chars() {
            let idx = if (c as u32) < 256 {
                BASE32_REV[c as usize]
            } else {
                0xFF
            };
            if idx == 0xFF {
                return Err(GeoError::InvalidBase32(c));
            }
            bits = (bits << 5) | idx as u64;
        }
        Ok(Geohash {
            depth: (s.len() * 5) as u8,
            bits,
        })
    }
}

/// A reusable point→cell encoder for a fixed depth.
///
/// [`Geohash::encode`] validates the depth, branches on `depth == 0` and
/// wraps the result on every call; in batched paths (fingerprinting a whole
/// trajectory) that per-point overhead dominates. `CellEncoder` hoists the
/// validation, the truncation shift and the cell spans out of the loop and
/// hands back raw cell bits, or a cell's row (latitude index) and column
/// (longitude index) and its box. It is the one quantizer and dequantizer
/// of the crate: [`Geohash::encode`] performs the same arithmetic (same
/// quantization, same interleave, same shift) and [`Geohash::bounds`] goes
/// through [`CellEncoder::cell_bounds`], so the produced cells and boxes
/// are bit-identical — `cell_encoder_matches_encode` asserts it.
///
/// # Examples
///
/// ```
/// use geodabs_geo::{CellEncoder, Geohash, Point};
///
/// # fn main() -> Result<(), geodabs_geo::GeoError> {
/// let enc = CellEncoder::new(36)?;
/// let p = Point::new(57.64911, 10.40744)?;
/// assert_eq!(enc.encode_bits(p), Geohash::encode(p, 36)?.bits());
/// let (row, col) = enc.row_col(p);
/// assert_eq!(enc.cell_bounds(row, col), Geohash::encode(p, 36)?.bounds());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CellEncoder {
    depth: u8,
    /// `64 - depth`, precomputed; only meaningful when `depth > 0`.
    shift: u32,
    /// Latitude bits (`depth / 2`) and longitude bits (`⌈depth / 2⌉`).
    lat_bits: u32,
    lon_bits: u32,
    /// Degrees spanned by one row and by one column.
    lat_span: f64,
    lon_span: f64,
}

impl CellEncoder {
    /// Creates an encoder for the given depth (`0..=64` bits).
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDepth`] if `depth > 64`.
    pub fn new(depth: u8) -> Result<CellEncoder, GeoError> {
        if depth > MAX_DEPTH {
            return Err(GeoError::InvalidDepth(depth));
        }
        let lat_bits = u32::from(depth) / 2;
        let lon_bits = u32::from(depth).div_ceil(2);
        Ok(CellEncoder {
            depth,
            shift: 64 - u32::from(depth).min(64),
            lat_bits,
            lon_bits,
            // A division by an exact power of two: the span is exact.
            lat_span: 180.0 / (1u64 << lat_bits) as f64,
            lon_span: 360.0 / (1u64 << lon_bits) as f64,
        })
    }

    /// The depth this encoder truncates to.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// The cell bits of `p` at this encoder's depth — what
    /// `Geohash::encode(p, depth).bits()` returns, without the per-call
    /// validation and `Result` wrapping.
    #[inline]
    pub fn encode_bits(&self, p: Point) -> u64 {
        let lat_q = quantize(p.lat(), LAT_LO, -LAT_LO);
        let lon_q = quantize(p.lon(), LON_LO, -LON_LO);
        let code = interleave(lat_q, lon_q);
        if self.depth == 0 {
            0
        } else {
            code >> self.shift
        }
    }

    /// Encodes `p` as a [`Geohash`] at this encoder's depth.
    #[inline]
    pub fn encode(&self, p: Point) -> Geohash {
        Geohash {
            depth: self.depth,
            bits: self.encode_bits(p),
        }
    }

    /// The row (latitude cell index) and column (longitude cell index)
    /// of `p` at this encoder's depth. Two points share a cell exactly
    /// when they share both: the cell bits are the two indices
    /// interleaved, without the interleave.
    #[inline]
    pub fn row_col(&self, p: Point) -> (u32, u32) {
        (
            cell_index(quantize(p.lat(), LAT_LO, -LAT_LO), self.lat_bits),
            cell_index(quantize(p.lon(), LON_LO, -LON_LO), self.lon_bits),
        )
    }

    /// Whether `p` falls in the cell at `row` and `col`, i.e. whether
    /// `self.row_col(p) == (row, col)`, decided by comparing `p` with the
    /// cell's edges instead of quantizing it (no division).
    ///
    /// The comparison is exact. The quantizer takes `x = fl(v − lo)` to
    /// `⌊fl(x / range) · 2³²⌋` (clamped to `u32::MAX`), so a `bits`-bit
    /// index is at least `c` exactly when `fl(x / range) >= t` with
    /// `t = c / 2^bits`. Both `t` and `c · span = range · t` are doubles
    /// (`span` is `45` times a power of two and `c < 2³²`). `range` is
    /// `180` or `360`, so `c · span` lies at least 7 binades above `t`
    /// and, `45` being odd, is no power of two: the gap below it, divided
    /// by `range`, is at least `128 / 180` of an ulp of `t`, more than
    /// the half gap under `t`. An `x` below `c · span` therefore has a
    /// quotient below the rounding midpoint under `t` and cannot round up
    /// to it. Hence `fl(x / range) >= t ⟺ x >= c · span`, and
    /// the cell is the one whose edges `c · span <= x < (c + 1) · span`
    /// bracket `x`, the last row and column also keeping their top edge
    /// (the quantizer's clamp). `in_cell_matches_row_col` checks it at
    /// the edges of every depth.
    ///
    /// `row` and `col` must be indices [`CellEncoder::row_col`] can
    /// return at this depth.
    #[inline]
    pub fn in_cell(&self, p: Point, row: u32, col: u32) -> bool {
        let lat_lo = f64::from(row) * self.lat_span;
        let lon_lo = f64::from(col) * self.lon_span;
        let (x, y) = (p.lat() - LAT_LO, p.lon() - LON_LO);
        let last_row = u64::from(row) + 1 == 1u64 << self.lat_bits;
        let last_col = u64::from(col) + 1 == 1u64 << self.lon_bits;
        (x >= lat_lo)
            & ((x < lat_lo + self.lat_span) | last_row)
            & (y >= lon_lo)
            & ((y < lon_lo + self.lon_span) | last_col)
    }

    /// The box of the cell at `row` and `col`: `lo + index · span` on
    /// each axis, the far edge one span further — what
    /// [`Geohash::bounds`] returns for that cell.
    ///
    /// `row` and `col` must be indices [`CellEncoder::row_col`] can
    /// return at this depth (checked in debug builds).
    #[inline]
    pub fn cell_bounds(&self, row: u32, col: u32) -> BoundingBox {
        debug_assert!(
            u64::from(row) < 1u64 << self.lat_bits,
            "row {row} out of range"
        );
        debug_assert!(
            u64::from(col) < 1u64 << self.lon_bits,
            "col {col} out of range"
        );
        let min_lat = LAT_LO + f64::from(row) * self.lat_span;
        let min_lon = LON_LO + f64::from(col) * self.lon_span;
        BoundingBox::from_cell(
            min_lat,
            min_lat + self.lat_span,
            min_lon,
            min_lon + self.lon_span,
        )
    }

    /// The sorted, deduplicated cell set of a trajectory — every distinct
    /// cell its points fall in, in Z-order. One pass over the points, one
    /// allocation.
    pub fn cell_set(&self, points: &[Point]) -> Vec<u64> {
        let mut cells: Vec<u64> = points.iter().map(|&p| self.encode_bits(p)).collect();
        cells.sort_unstable();
        cells.dedup();
        cells
    }
}

impl std::str::FromStr for Geohash {
    type Err = GeoError;

    /// Parses the base32 form, like [`Geohash::from_base32`].
    fn from_str(s: &str) -> Result<Geohash, GeoError> {
        Geohash::from_base32(s)
    }
}

impl fmt::Display for Geohash {
    /// Displays the base32 form when the depth allows it, and the raw binary
    /// prefix (e.g. `0b1101/4`) otherwise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_base32() {
            Some(s) if !s.is_empty() => write!(f, "{s}"),
            _ => write!(
                f,
                "0b{:0width$b}/{}",
                self.bits,
                self.depth,
                width = self.depth as usize
            ),
        }
    }
}

/// Maps a coordinate in `[lo, hi]` to a 32-bit cell index.
#[inline]
fn quantize(value: f64, lo: f64, hi: f64) -> u32 {
    let scaled = (value - lo) / (hi - lo) * 2f64.powi(32);
    // `value == hi` maps just past the last cell; clamp it back in.
    scaled.min(u32::MAX as f64).max(0.0) as u32
}

/// The low end of the latitude and longitude domains, where cell `0`
/// starts.
const LAT_LO: f64 = -90.0;
const LON_LO: f64 = -180.0;

/// The index of the `bits`-bit cell holding a 32-bit quantized
/// coordinate: its top `bits` bits (`0` when `bits == 0`).
#[inline]
fn cell_index(q: u32, bits: u32) -> u32 {
    (u64::from(q) >> (32 - bits)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new(lat, lon).unwrap()
    }

    #[test]
    fn encode_rejects_deep_hashes() {
        assert_eq!(
            Geohash::encode(p(0.0, 0.0), 65),
            Err(GeoError::InvalidDepth(65))
        );
    }

    #[test]
    fn encode_depth_zero_is_world() {
        let g = Geohash::encode(p(12.0, 34.0), 0).unwrap();
        assert_eq!(g, Geohash::world());
        assert_eq!(g.bounds(), BoundingBox::world());
    }

    #[test]
    fn first_bit_subdivides_longitude() {
        // Western hemisphere -> first bit 0, eastern -> 1.
        let west = Geohash::encode(p(0.0, -90.0), 1).unwrap();
        let east = Geohash::encode(p(0.0, 90.0), 1).unwrap();
        assert_eq!(west.bits(), 0);
        assert_eq!(east.bits(), 1);
        // Latitude does not matter at depth 1.
        let north = Geohash::encode(p(80.0, -90.0), 1).unwrap();
        assert_eq!(north.bits(), 0);
    }

    #[test]
    fn second_bit_subdivides_latitude() {
        let sw = Geohash::encode(p(-45.0, -90.0), 2).unwrap();
        let nw = Geohash::encode(p(45.0, -90.0), 2).unwrap();
        let se = Geohash::encode(p(-45.0, 90.0), 2).unwrap();
        let ne = Geohash::encode(p(45.0, 90.0), 2).unwrap();
        assert_eq!(sw.bits(), 0b00);
        assert_eq!(nw.bits(), 0b01);
        assert_eq!(se.bits(), 0b10);
        assert_eq!(ne.bits(), 0b11);
    }

    #[test]
    fn classic_base32_test_vector() {
        // The canonical example from the geohash literature.
        let g = Geohash::encode(p(57.64911, 10.40744), 55).unwrap();
        assert_eq!(g.to_base32().unwrap(), "u4pruydqqvj");
    }

    #[test]
    fn base32_roundtrip() {
        for s in ["u", "u4", "gbsuv", "u4pruydqqvj", "0", "zzzzz"] {
            let g = Geohash::from_base32(s).unwrap();
            assert_eq!(g.to_base32().unwrap(), s);
            assert_eq!(g.depth() as usize, s.len() * 5);
        }
    }

    #[test]
    fn base32_parse_is_case_insensitive_and_validates() {
        assert_eq!(
            Geohash::from_base32("GBSUV").unwrap(),
            Geohash::from_base32("gbsuv").unwrap()
        );
        assert_eq!(
            Geohash::from_base32("ab"),
            Err(GeoError::InvalidBase32('a'))
        );
        assert!(Geohash::from_base32("0123456789012").is_err());
    }

    #[test]
    fn to_base32_requires_multiple_of_five() {
        let g = Geohash::encode(p(1.0, 2.0), 36).unwrap();
        assert!(g.to_base32().is_none());
        let g = Geohash::encode(p(1.0, 2.0), 35).unwrap();
        assert!(g.to_base32().is_some());
    }

    #[test]
    fn bounds_contains_encoded_point() {
        for depth in [1u8, 2, 7, 16, 36, 55, 64] {
            let q = p(51.5074, -0.1278);
            let g = Geohash::encode(q, depth).unwrap();
            assert!(g.bounds().contains(q), "depth {depth}");
        }
    }

    #[test]
    fn cell_size_in_london_matches_paper() {
        // Paper, Section VI-A2: "In London, a geohash of 36 bits has a width
        // of 95 meters and a height of 76 meters."
        let g = Geohash::encode(p(51.5074, -0.1278), 36).unwrap();
        let b = g.bounds();
        assert!(
            (b.width_meters() - 95.0).abs() < 5.0,
            "width {}",
            b.width_meters()
        );
        assert!(
            (b.height_meters() - 76.0).abs() < 5.0,
            "height {}",
            b.height_meters()
        );
    }

    #[test]
    fn sixteen_bit_cells_are_continental_scale() {
        // Paper, Section VI-E: 16-bit cells are ~156 km wide at the equator.
        let g = Geohash::encode(p(0.0, 0.0), 16).unwrap();
        let b = g.bounds();
        assert!(
            (b.width_meters() - 156_000.0).abs() < 5_000.0,
            "{}",
            b.width_meters()
        );
    }

    #[test]
    fn truncate_and_parent() {
        let g = Geohash::from_bits(0b110101, 6).unwrap();
        assert_eq!(g.truncate(3).unwrap().bits(), 0b110);
        assert_eq!(g.truncate(0).unwrap(), Geohash::world());
        assert!(g.truncate(7).is_err());
    }

    #[test]
    fn contains_hash_prefix_semantics() {
        let parent = Geohash::from_bits(0b1101, 4).unwrap();
        let child = Geohash::from_bits(0b110110, 6).unwrap();
        let other = Geohash::from_bits(0b111000, 6).unwrap();
        assert!(parent.contains_hash(&child));
        assert!(parent.contains_hash(&parent));
        assert!(!parent.contains_hash(&other));
        assert!(!child.contains_hash(&parent));
        assert!(Geohash::world().contains_hash(&child));
    }

    #[test]
    fn from_bits_validates() {
        assert!(Geohash::from_bits(0b1000, 3).is_err());
        assert!(Geohash::from_bits(0b100, 3).is_ok());
        assert!(Geohash::from_bits(u64::MAX, 64).is_ok());
        assert!(Geohash::from_bits(0, 65).is_err());
    }

    #[test]
    fn covering_of_single_point_is_full_depth() {
        let q = p(48.85, 2.35);
        let g = Geohash::covering([q]).unwrap();
        assert_eq!(g.depth(), MAX_DEPTH);
        assert!(g.bounds().contains(q));
    }

    #[test]
    fn covering_empty_errors() {
        assert_eq!(
            Geohash::covering(std::iter::empty()),
            Err(GeoError::EmptyPointSet)
        );
    }

    #[test]
    fn covering_nearby_points_is_deep() {
        // Points ~100 m apart share a deep prefix.
        let a = p(51.5074, -0.1278);
        let b = a.destination(90.0, 100.0);
        let g = Geohash::covering([a, b]).unwrap();
        assert!(g.depth() >= 20, "depth {}", g.depth());
        assert!(g.bounds().contains(a));
        assert!(g.bounds().contains(b));
    }

    #[test]
    fn covering_hemispheres_is_world() {
        let g = Geohash::covering([p(0.0, -90.0), p(0.0, 90.0)]).unwrap();
        assert_eq!(g, Geohash::world());
    }

    #[test]
    fn zorder_orders_west_to_east_within_band() {
        // Two cells in the same latitude band and longitude half: the more
        // western one comes first on the curve when their prefix differs
        // only in the trailing longitude bit.
        let a = Geohash::from_bits(0b00, 2).unwrap();
        let b = Geohash::from_bits(0b10, 2).unwrap();
        assert!(a.bits() < b.bits());
        assert!(a.bounds().min_lon() < b.bounds().min_lon());
    }

    #[test]
    fn from_str_parses_base32() {
        let g: Geohash = "gbsuv".parse().unwrap();
        assert_eq!(g, Geohash::from_base32("gbsuv").unwrap());
        assert!("?!".parse::<Geohash>().is_err());
    }

    #[test]
    fn display_prefers_base32() {
        let g = Geohash::from_base32("gbsuv").unwrap();
        assert_eq!(g.to_string(), "gbsuv");
        let g = Geohash::from_bits(0b1101, 4).unwrap();
        assert_eq!(g.to_string(), "0b1101/4");
    }

    proptest! {
        #[test]
        fn prop_encode_bounds_roundtrip(
            lat in -89.9f64..89.9, lon in -179.9f64..179.9, depth in 1u8..=64,
        ) {
            let q = p(lat, lon);
            let g = Geohash::encode(q, depth).unwrap();
            prop_assert!(g.bounds().contains(q));
            // Center re-encodes to the same cell.
            prop_assert_eq!(Geohash::encode(g.center(), depth).unwrap(), g);
        }

        #[test]
        fn prop_truncate_is_ancestor(
            lat in -89.9f64..89.9, lon in -179.9f64..179.9,
            depth in 2u8..=64, shallower in 1u8..=64,
        ) {
            prop_assume!(shallower < depth);
            let g = Geohash::encode(p(lat, lon), depth).unwrap();
            let t = g.truncate(shallower).unwrap();
            prop_assert!(t.contains_hash(&g));
            prop_assert!(t.bounds().contains(g.center()));
        }

        #[test]
        fn prop_covering_contains_all(
            pts in proptest::collection::vec((-89.0f64..89.0, -179.0f64..179.0), 1..12)
        ) {
            let points: Vec<Point> = pts.iter().map(|&(la, lo)| p(la, lo)).collect();
            let g = Geohash::covering(points.iter().copied()).unwrap();
            for q in &points {
                prop_assert!(
                    Geohash::encode(*q, g.depth()).unwrap() == g || g.depth() == 0,
                    "covering {g:?} must contain {q}"
                );
            }
        }

        #[test]
        fn cell_encoder_matches_encode(
            lat in -90.0f64..=90.0, lon in -180.0f64..=180.0, depth in 0u8..=64,
        ) {
            let q = p(lat, lon);
            let enc = CellEncoder::new(depth).unwrap();
            let reference = Geohash::encode(q, depth).unwrap();
            prop_assert_eq!(enc.encode_bits(q), reference.bits());
            prop_assert_eq!(enc.encode(q), reference);
        }

        #[test]
        fn cell_bounds_match_the_per_call_dequantization(
            lat in -90.0f64..=90.0, lon in -180.0f64..=180.0, depth in 0u8..=64,
        ) {
            // The arithmetic `Geohash::bounds` used before the spans were
            // hoisted into `CellEncoder`: a `powi` per axis per call.
            fn range(q: u32, bits: u32, lo: f64, hi: f64) -> (f64, f64) {
                if bits == 0 {
                    return (lo, hi);
                }
                let cell = (q >> (32 - bits)) as f64;
                let span = (hi - lo) / 2f64.powi(bits as i32);
                let min = lo + cell * span;
                (min, min + span)
            }
            let q = p(lat, lon);
            let (lat_q, lon_q) = (quantize(lat, -90.0, 90.0), quantize(lon, -180.0, 180.0));
            let (min_lat, max_lat) = range(lat_q, u32::from(depth) / 2, -90.0, 90.0);
            let (min_lon, max_lon) = range(lon_q, u32::from(depth).div_ceil(2), -180.0, 180.0);
            let want = [min_lat, max_lat, min_lon, max_lon].map(f64::to_bits);
            let enc = CellEncoder::new(depth).unwrap();
            let (row, col) = enc.row_col(q);
            for b in [enc.cell_bounds(row, col), Geohash::encode(q, depth).unwrap().bounds()] {
                prop_assert_eq!([b.min_lat(), b.max_lat(), b.min_lon(), b.max_lon()].map(f64::to_bits), want);
            }
            // Same cell bits ⇔ same row and column.
            let other = p(-lat * 0.5, lon * 0.999);
            prop_assert_eq!(
                enc.encode_bits(q) == enc.encode_bits(other),
                enc.row_col(q) == enc.row_col(other)
            );
        }

        #[test]
        fn in_cell_matches_row_col(
            lat in -90.0f64..=90.0, lon in -180.0f64..=180.0, depth in 0u8..=64,
            nudge_lat in -3i64..=3, nudge_lon in -3i64..=3,
            dlat in -2i64..=2, dlon in -2i64..=2,
        ) {
            let enc = CellEncoder::new(depth).unwrap();
            let (row, col) = enc.row_col(p(lat, lon));
            // A point a few ulps around a corner of the cell or of one of
            // its neighbours: where rounding could tip the quantizer.
            let b = enc.cell_bounds(row, col);
            let ulps = |v: f64, n: i64| {
                (0..n.abs()).fold(v, |v, _| if n > 0 { v.next_up() } else { v.next_down() })
            };
            let corner_lat = if dlat >= 0 { b.max_lat() } else { b.min_lat() };
            let corner_lon = if dlon >= 0 { b.max_lon() } else { b.min_lon() };
            let edge = Point::clamped(ulps(corner_lat, nudge_lat), ulps(corner_lon, nudge_lon));
            for q in [p(lat, lon), edge, Point::clamped(lat, ulps(corner_lon, nudge_lon))] {
                let (r, c) = enc.row_col(q);
                for (r2, c2) in [
                    (row, col),
                    (r, c),
                    (r.saturating_add_signed(dlat as i32), c.saturating_add_signed(dlon as i32)),
                ] {
                    if u64::from(r2) >> (depth / 2) != 0 || u64::from(c2) >> depth.div_ceil(2) != 0 {
                        continue;
                    }
                    prop_assert_eq!(enc.in_cell(q, r2, c2), (r, c) == (r2, c2));
                }
            }
        }

        #[test]
        fn prop_cell_set_is_sorted_distinct_cells(
            pts in proptest::collection::vec((-89.0f64..89.0, -179.0f64..179.0), 0..20),
            depth in 1u8..=36,
        ) {
            let points: Vec<Point> = pts.iter().map(|&(la, lo)| p(la, lo)).collect();
            let enc = CellEncoder::new(depth).unwrap();
            let cells = enc.cell_set(&points);
            prop_assert!(cells.windows(2).all(|w| w[0] < w[1]));
            let mut reference: Vec<u64> = points
                .iter()
                .map(|&q| Geohash::encode(q, depth).unwrap().bits())
                .collect();
            reference.sort_unstable();
            reference.dedup();
            prop_assert_eq!(cells, reference);
        }

        #[test]
        fn prop_base32_roundtrip(bits: u64, chars in 1usize..=12) {
            let depth = (chars * 5) as u8;
            let bits = if depth == 64 { bits } else { bits & ((1u64 << depth) - 1) };
            let g = Geohash::from_bits(bits, depth).unwrap();
            let s = g.to_base32().unwrap();
            prop_assert_eq!(Geohash::from_base32(&s).unwrap(), g);
        }

        #[test]
        fn prop_nearby_points_share_deep_prefix(
            lat in -60.0f64..60.0, lon in -170.0f64..170.0,
        ) {
            // Two points 10 m apart must share a prefix of at least 10 bits
            // unless they straddle a major cell boundary; covering() handles
            // both cases, we only check consistency here.
            let a = p(lat, lon);
            let b = a.destination(90.0, 10.0);
            let g = Geohash::covering([a, b]).unwrap();
            for q in [a, b] {
                prop_assert!(Geohash::encode(q, g.depth()).unwrap() == g || g.depth() == 0);
            }
        }
    }
}
