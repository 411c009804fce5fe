//! Order-sensitive hashing of point sequences.
//!
//! The suffix half of a geodab must discriminate among `k`-grams "according
//! to their path and their ordering" (Figure 3 (b) of the paper). Any
//! sequential, well-mixed hash works; this module implements FNV-1a over
//! the bit patterns of the coordinates, which is deterministic across
//! platforms for the cell-center points produced by normalization.
//!
//! FNV-1a is one multiply per byte, each waiting on the last, so one
//! sequence at a time leaves the multiplier idle most cycles. The
//! fingerprinter hashes `LANES` consecutive `k`-grams side by side
//! instead (`hash_k_grams`): independent chains that fill the
//! multiplier's pipeline. [`hash_points`] is the same kernel with one lane.

use geodabs_geo::Point;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `k`-grams hashed side by side by [`hash_k_grams`]: four chains cover
/// the multiply's latency.
pub(crate) const LANES: usize = 4;

/// The bit patterns a point is hashed as, latitude first.
pub(crate) fn coordinate_bits(p: &Point) -> [u64; 2] {
    [p.lat().to_bits(), p.lon().to_bits()]
}

/// FNV-1a over the coordinate bits of `len` points in each of `L` lanes:
/// lane `l` hashes `point(l, 0), …, point(l, len - 1)`, each word's
/// bytes little-endian first. The byte loop runs every lane before the
/// next byte, so the `L` multiply chains interleave.
#[inline(always)]
fn hash_lanes<const L: usize>(len: usize, point: impl Fn(usize, usize) -> [u64; 2]) -> [u64; L] {
    let mut h = [FNV_OFFSET; L];
    for j in 0..len {
        let points: [[u64; 2]; L] = std::array::from_fn(|l| point(l, j));
        for c in 0..2 {
            let words = points.map(|bits| bits[c]);
            for shift in (0..64).step_by(8) {
                for (h, word) in h.iter_mut().zip(words) {
                    *h = (*h ^ ((word >> shift) & 0xff)).wrapping_mul(FNV_PRIME);
                }
            }
        }
    }
    h
}

/// Hashes a point sequence, sensitive to both content and order.
///
/// Reversing a sequence of two or more distinct points yields a different
/// hash with overwhelming probability, which is what lets geodabs
/// discriminate trajectory direction where plain geohashes cannot
/// (Figure 12 of the paper).
///
/// ```
/// use geodabs_core::hash::hash_points;
/// use geodabs_geo::Point;
///
/// # fn main() -> Result<(), geodabs_geo::GeoError> {
/// let a = Point::new(51.0, 0.0)?;
/// let b = Point::new(51.1, 0.1)?;
/// assert_ne!(hash_points(&[a, b]), hash_points(&[b, a]));
/// # Ok(())
/// # }
/// ```
pub fn hash_points(points: &[Point]) -> u64 {
    let [h] = hash_lanes::<1>(points.len(), |_, j| coordinate_bits(&points[j]));
    h
}

/// [`hash_points`] of every `k`-gram of the points whose
/// [`coordinate_bits`] are `bits`, passed to `emit` in order: [`LANES`]
/// grams at a time, then the tail one by one. Fewer than `k` points have
/// no `k`-gram.
pub(crate) fn hash_k_grams(bits: &[[u64; 2]], k: usize, mut emit: impl FnMut(u64)) {
    let grams = (bits.len() + 1).saturating_sub(k);
    let mut i = 0;
    while i + LANES <= grams {
        let lanes = &bits[i..i + LANES - 1 + k];
        hash_lanes::<LANES>(k, |l, j| lanes[l + j])
            .into_iter()
            .for_each(&mut emit);
        i += LANES;
    }
    for i in i..grams {
        let gram = &bits[i..i + k];
        let [h] = hash_lanes::<1>(k, |_, j| gram[j]);
        emit(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new(lat, lon).unwrap()
    }

    #[test]
    fn empty_sequence_is_the_offset_basis() {
        assert_eq!(hash_points(&[]), FNV_OFFSET);
    }

    #[test]
    fn deterministic() {
        let pts = [p(1.0, 2.0), p(3.0, 4.0)];
        assert_eq!(hash_points(&pts), hash_points(&pts));
    }

    #[test]
    fn order_sensitive() {
        let a = p(51.0, 0.0);
        let b = p(51.1, 0.1);
        let c = p(51.2, 0.2);
        assert_ne!(hash_points(&[a, b, c]), hash_points(&[c, b, a]));
        assert_ne!(hash_points(&[a, b, c]), hash_points(&[a, c, b]));
    }

    #[test]
    fn content_sensitive() {
        let a = p(51.0, 0.0);
        let b = p(51.1, 0.1);
        assert_ne!(hash_points(&[a]), hash_points(&[b]));
        assert_ne!(hash_points(&[a, a]), hash_points(&[a]));
    }

    #[test]
    fn low_16_bits_are_well_distributed() {
        // The geodab suffix keeps only the low bits; they must not collide
        // pathologically for regular grids of points.
        let mut seen = HashSet::new();
        for i in 0..64 {
            for j in 0..64 {
                let gram = [
                    p(51.0 + i as f64 * 0.001, 0.0 + j as f64 * 0.001),
                    p(51.0 + j as f64 * 0.001, 0.0 + i as f64 * 0.001),
                ];
                seen.insert((hash_points(&gram) & 0xffff) as u16);
            }
        }
        // 4096 grams into 65536 buckets: expect >90% distinct under a good
        // hash (birthday collisions account for the rest).
        assert!(seen.len() > 3_700, "only {} distinct suffixes", seen.len());
    }

    /// The byte-at-a-time FNV-1a this module computed before the lanes:
    /// each coordinate's `to_le_bytes`, one multiply per byte.
    fn hash_points_bytewise(points: &[Point]) -> u64 {
        let mut h = FNV_OFFSET;
        for p in points {
            for b in p
                .lat()
                .to_bits()
                .to_le_bytes()
                .into_iter()
                .chain(p.lon().to_bits().to_le_bytes())
            {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    proptest! {
        #[test]
        fn prop_lanes_hash_every_k_gram_like_hash_points(
            k in 1usize..=8,
            coords in proptest::collection::vec((-90.0f64..=90.0, -180.0f64..=180.0), 0..41),
        ) {
            let points: Vec<Point> = coords.iter().map(|&(la, lo)| p(la, lo)).collect();
            let bits: Vec<[u64; 2]> = points.iter().map(coordinate_bits).collect();
            let mut got = Vec::new();
            hash_k_grams(&bits, k, |h| got.push(h));
            let want: Vec<u64> = points.windows(k).map(hash_points).collect();
            prop_assert_eq!(&got, &want);
            let bytewise: Vec<u64> = points.windows(k).map(hash_points_bytewise).collect();
            prop_assert_eq!(got, bytewise);
        }

        #[test]
        fn prop_swapping_two_points_changes_hash(
            lat1 in -89.0f64..89.0, lon1 in -179.0f64..179.0,
            lat2 in -89.0f64..89.0, lon2 in -179.0f64..179.0,
        ) {
            prop_assume!((lat1, lon1) != (lat2, lon2));
            let a = p(lat1, lon1);
            let b = p(lat2, lon2);
            prop_assert_ne!(hash_points(&[a, b]), hash_points(&[b, a]));
        }

        #[test]
        fn prop_extension_changes_hash(
            lats in proptest::collection::vec(-89.0f64..89.0, 1..8),
        ) {
            let pts: Vec<Point> = lats.iter().map(|&la| p(la, la / 2.0)).collect();
            let shorter = hash_points(&pts[..pts.len() - 1]);
            let full = hash_points(&pts);
            prop_assert_ne!(shorter, full);
        }
    }
}
