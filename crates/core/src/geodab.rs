use geodabs_geo::{CellEncoder, Geohash, Point};

use crate::hash::{coordinate_bits, hash_k_grams, hash_points};

/// Computes the 32-bit geodab of a point sequence (Figure 3 of the paper):
///
/// ```text
/// geodab(points) = geohash(points) << (32 - prefix_bits)
///                | hash(points) & ((1 << (32 - prefix_bits)) - 1)
/// ```
///
/// * The **prefix** places the geodab on the Z-order space-filling curve
///   according to the location of the points, which is what enables
///   locality-preserving sharding. The paper defines it as the covering
///   geohash of the whole sequence truncated to `prefix_bits` bits, with
///   the cell of the first point as the value for sequences that straddle
///   a major cell boundary (covering shallower than `prefix_bits`). Both
///   cases are one value: a covering geohash is the common bit-prefix of
///   every point's code, so whenever it is at least `prefix_bits` deep its
///   truncation *is* the first point's `prefix_bits`-bit cell. The prefix
///   is therefore always `Geohash::encode(points[0], prefix_bits)`, and
///   only the first point is encoded.
/// * The **suffix** is an order-sensitive hash of the sequence, which
///   discriminates among `k`-grams by path and direction.
///
/// # Panics
///
/// Panics if `points` is empty or `prefix_bits` is not in `1..=31`.
///
/// # Examples
///
/// ```
/// use geodabs_core::{geodab, geodab_prefix};
/// use geodabs_geo::{Geohash, Point};
///
/// # fn main() -> Result<(), geodabs_geo::GeoError> {
/// let a = Point::new(51.5074, -0.1278)?;
/// let b = a.destination(90.0, 100.0);
/// let g = geodab(&[a, b], 16);
/// // The prefix is the 16-bit cell of the points.
/// assert_eq!(geodab_prefix(g, 16), Geohash::encode(a, 16)?);
/// // Direction matters: the reverse k-gram fingerprints differently.
/// assert_ne!(g, geodab(&[b, a], 16));
/// # Ok(())
/// # }
/// ```
pub fn geodab(points: &[Point], prefix_bits: u8) -> u32 {
    assert!(!points.is_empty(), "geodab requires at least one point");
    compose(
        prefix_encoder(prefix_bits).encode_bits(points[0]),
        hash_points(points),
        prefix_bits,
    )
}

/// The geodab of every `k`-gram of `points`, in order: what [`geodab`]
/// returns for each of `points.windows(k)`, with each point's bits
/// extracted once, one prefix encoder for the call, and the suffix
/// hashes computed [`LANES`](crate::hash::LANES) grams at a time.
///
/// A prefix cell is far wider than a `k`-gram's step, so consecutive
/// grams nearly always share it: a first point still inside the last
/// prefix's cell ([`CellEncoder::in_cell`], four comparisons) reuses its
/// bits, and only a point that left it is encoded.
pub(crate) fn k_gram_geodabs(points: &[Point], k: usize, prefix_bits: u8) -> Vec<u32> {
    let encoder = prefix_encoder(prefix_bits);
    let bits: Vec<[u64; 2]> = points.iter().map(coordinate_bits).collect();
    let mut out = Vec::with_capacity((points.len() + 1).saturating_sub(k));
    let mut prefix: Option<((u32, u32), u64)> = None;
    hash_k_grams(&bits, k, |hash| {
        let first = points[out.len()];
        let cell_bits = match prefix {
            Some(((row, col), cell_bits)) if encoder.in_cell(first, row, col) => cell_bits,
            _ => {
                let cell_bits = encoder.encode_bits(first);
                prefix = Some((encoder.row_col(first), cell_bits));
                cell_bits
            }
        };
        out.push(compose(cell_bits, hash, prefix_bits));
    });
    out
}

/// The encoder of a geodab prefix `prefix_bits` wide.
///
/// # Panics
///
/// Panics if `prefix_bits` is not in `1..=31`.
fn prefix_encoder(prefix_bits: u8) -> CellEncoder {
    assert!(
        (1..=31).contains(&prefix_bits),
        "prefix must be between 1 and 31 bits"
    );
    CellEncoder::new(prefix_bits).expect("prefix_bits <= 31 is a valid depth")
}

/// The geodab formula: the `prefix_bits`-bit prefix cell over the low
/// `32 - prefix_bits` bits of the sequence hash.
fn compose(prefix: u64, hash: u64, prefix_bits: u8) -> u32 {
    let suffix_bits = 32 - u32::from(prefix_bits);
    let suffix_mask = (1u64 << suffix_bits) - 1;
    ((prefix as u32) << suffix_bits) | (hash & suffix_mask) as u32
}

/// Extracts the geohash prefix of a geodab produced with the same
/// `prefix_bits` — the bitwise operation the sharding layer uses
/// (Section VI-E).
///
/// # Panics
///
/// Panics if `prefix_bits` is not in `1..=31`.
pub fn geodab_prefix(geodab: u32, prefix_bits: u8) -> Geohash {
    assert!(
        (1..=31).contains(&prefix_bits),
        "prefix must be between 1 and 31 bits"
    );
    let bits = u64::from(geodab >> (32 - u32::from(prefix_bits)));
    Geohash::from_bits(bits, prefix_bits).expect("shifted prefix always fits its depth")
}

/// The paper's literal construction, as [`geodab`] computed it before
/// the prefix was reduced to the first point's cell: walk the covering
/// geohash of all the points (one depth-64 encode each), truncate it, and
/// fall back to the first point's cell when the covering is too shallow.
/// The differential oracle for [`geodab`] and the fingerprinter.
#[cfg(test)]
pub(crate) fn geodab_reference(points: &[Point], prefix_bits: u8) -> u32 {
    let covering = Geohash::covering(points.iter().copied()).unwrap();
    let prefix = if covering.depth() >= prefix_bits {
        covering.truncate(prefix_bits).unwrap()
    } else {
        Geohash::encode(points[0], prefix_bits).unwrap()
    };
    let suffix_bits = 32 - u32::from(prefix_bits);
    let suffix = hash_points(points) & ((1u64 << suffix_bits) - 1);
    ((prefix.bits() as u32) << suffix_bits) | suffix as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new(lat, lon).unwrap()
    }

    fn london_gram(offset_m: f64) -> Vec<Point> {
        let start = p(51.5074, -0.1278).destination(90.0, offset_m);
        (0..6)
            .map(|i| start.destination(90.0, i as f64 * 85.0))
            .collect()
    }

    #[test]
    fn prefix_is_covering_cell() {
        let gram = london_gram(0.0);
        let g = geodab(&gram, 16);
        let expected = Geohash::covering(gram.iter().copied())
            .unwrap()
            .truncate(16)
            .unwrap();
        assert_eq!(geodab_prefix(g, 16), expected);
    }

    #[test]
    fn deterministic() {
        let gram = london_gram(100.0);
        assert_eq!(geodab(&gram, 16), geodab(&gram, 16));
    }

    #[test]
    fn direction_sensitive() {
        let gram = london_gram(0.0);
        let mut rev = gram.clone();
        rev.reverse();
        let fwd_dab = geodab(&gram, 16);
        let rev_dab = geodab(&rev, 16);
        assert_ne!(fwd_dab, rev_dab);
        // But both land in the same 16-bit cell: same shard.
        assert_eq!(geodab_prefix(fwd_dab, 16), geodab_prefix(rev_dab, 16));
    }

    #[test]
    fn nearby_grams_share_prefix_distinct_suffix() {
        let a = geodab(&london_gram(0.0), 16);
        let b = geodab(&london_gram(85.0), 16);
        assert_ne!(a, b);
        assert_eq!(geodab_prefix(a, 16), geodab_prefix(b, 16));
    }

    #[test]
    fn distant_grams_get_different_prefixes() {
        let london = geodab(&london_gram(0.0), 16);
        let tokyo_start = p(35.68, 139.76);
        let tokyo: Vec<Point> = (0..6)
            .map(|i| tokyo_start.destination(90.0, i as f64 * 85.0))
            .collect();
        let tokyo_dab = geodab(&tokyo, 16);
        assert_ne!(geodab_prefix(london, 16), geodab_prefix(tokyo_dab, 16));
    }

    #[test]
    fn boundary_straddling_gram_uses_first_point_cell() {
        // Two points in different hemispheres: covering is the world cell,
        // so the prefix anchors at the first point.
        let a = p(10.0, -90.0);
        let b = p(10.0, 90.0);
        let g = geodab(&[a, b], 16);
        assert_eq!(geodab_prefix(g, 16), Geohash::encode(a, 16).unwrap());
        // And swapping makes the *prefix* change too.
        let swapped = geodab(&[b, a], 16);
        assert_eq!(geodab_prefix(swapped, 16), Geohash::encode(b, 16).unwrap());
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_gram_panics() {
        let _ = geodab(&[], 16);
    }

    #[test]
    #[should_panic(expected = "between 1 and 31")]
    fn prefix_zero_panics() {
        let _ = geodab(&[p(0.0, 0.0)], 0);
    }

    #[test]
    #[should_panic(expected = "between 1 and 31")]
    fn prefix_32_panics() {
        let _ = geodab_prefix(0, 32);
    }

    /// `geodab` against the covering-walk reference and against the
    /// first point's cell, at every prefix width.
    fn assert_prefix_is_first_points_cell(gram: &[Point]) {
        for b in 1u8..=31 {
            let g = geodab(gram, b);
            assert_eq!(g, geodab_reference(gram, b), "width {b}");
            assert_eq!(
                geodab_prefix(g, b),
                Geohash::encode(gram[0], b).unwrap(),
                "width {b}"
            );
        }
    }

    #[test]
    fn prefix_is_first_points_cell_across_major_boundaries() {
        // Grams straddling the equator, the prime meridian, the
        // antimeridian and a pole: coverings of depth 0, 1 and 2.
        for gram in [
            [p(-0.0001, 10.0), p(0.0001, 10.0), p(0.0002, 10.0)],
            [p(48.0, -0.0001), p(48.0, 0.0001), p(48.0, 0.0002)],
            [p(10.0, 179.9999), p(10.0, -179.9999), p(10.0, -179.9998)],
            [p(89.9999, 0.0), p(90.0, 90.0), p(89.9999, -180.0)],
            [p(-90.0, -180.0), p(90.0, 180.0), p(0.0, 0.0)],
        ] {
            assert_prefix_is_first_points_cell(&gram);
            let mut rev = gram;
            rev.reverse();
            assert_prefix_is_first_points_cell(&rev);
        }
    }

    proptest! {
        #[test]
        fn prop_prefix_is_first_points_cell_at_every_width(
            lat in -90.0f64..=90.0, lon in -180.0f64..=180.0,
            bearing in 0.0f64..360.0,
            // From sub-cell steps to hops across hemispheres.
            log_step in 0.0f64..7.0, len in 1usize..9,
        ) {
            let start = p(lat, lon);
            let step_m = 10f64.powf(log_step);
            let gram: Vec<Point> = (0..len)
                .map(|i| start.destination(bearing, i as f64 * step_m))
                .collect();
            assert_prefix_is_first_points_cell(&gram);
        }

        #[test]
        fn prop_prefix_extraction_roundtrip(
            lat in -80.0f64..80.0, lon in -170.0f64..170.0,
            bearing in 0.0f64..360.0, prefix_bits in 1u8..=31,
        ) {
            let start = p(lat, lon);
            let gram: Vec<Point> = (0..4)
                .map(|i| start.destination(bearing, i as f64 * 50.0))
                .collect();
            let g = geodab(&gram, prefix_bits);
            let prefix = geodab_prefix(g, prefix_bits);
            prop_assert_eq!(prefix.depth(), prefix_bits);
            // The prefix cell contains the first point (always true for
            // both the covering and the fallback case when the covering is
            // at least as deep as the prefix; the fallback guarantees it).
            let cell_of_first = Geohash::encode(gram[0], prefix_bits).unwrap();
            let covering = Geohash::covering(gram.iter().copied()).unwrap();
            if covering.depth() >= prefix_bits {
                prop_assert_eq!(prefix, covering.truncate(prefix_bits).unwrap());
            } else {
                prop_assert_eq!(prefix, cell_of_first);
            }
        }

        #[test]
        fn prop_wider_prefix_refines_narrower(
            lat in -80.0f64..80.0, lon in -170.0f64..170.0,
        ) {
            // The 16-bit prefix of geodab(…, 16) is an ancestor of the
            // 24-bit prefix of geodab(…, 24) for grams well inside a cell.
            let start = p(lat, lon);
            let gram: Vec<Point> = (0..3)
                .map(|i| start.destination(0.0, i as f64 * 10.0))
                .collect();
            let covering = Geohash::covering(gram.iter().copied()).unwrap();
            prop_assume!(covering.depth() >= 24);
            let p16 = geodab_prefix(geodab(&gram, 16), 16);
            let p24 = geodab_prefix(geodab(&gram, 24), 24);
            prop_assert!(p16.contains_hash(&p24));
        }
    }
}
