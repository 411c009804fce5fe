//! **Geodabs** — trajectory fingerprinting for indexing and similarity
//! search at scale.
//!
//! This crate is the primary contribution of *Chapuis & Garbinato,
//! "Geodabs: Trajectory Indexing Meets Fingerprinting at Scale", ICDCS
//! 2018*. A *geodab* is a 32-bit fingerprint of a `k`-gram of trajectory
//! points that combines:
//!
//! * a **geohash prefix** — the covering geohash of the `k`-gram, which
//!   places the fingerprint on the Z-order space-filling curve and enables
//!   locality-preserving sharding (Figure 3 (a)), and
//! * an **order-sensitive hash suffix** — discriminating among point
//!   sequences by their path *and direction* (Figure 3 (b)).
//!
//! Fingerprints are selected from the stream of `k`-gram geodabs with the
//! **winnowing** algorithm (Schleimer et al.), which guarantees that any
//! shared sub-trajectory of at least `t` moves produces at least one
//! common fingerprint, while shared sub-trajectories shorter than `k`
//! moves are treated as noise (Algorithm 1, Figure 4).
//!
//! # Examples
//!
//! ```
//! use geodabs_core::{Fingerprinter, GeodabConfig};
//! use geodabs_geo::Point;
//! use geodabs_traj::Trajectory;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A straight 3 km path sampled every ~90 m, and a noisy copy of it.
//! let start = Point::new(51.5074, -0.1278)?;
//! let path: Trajectory = (0..34).map(|i| start.destination(90.0, i as f64 * 90.0)).collect();
//! let noisy: Trajectory = path.iter().map(|p| p.destination(45.0, 8.0)).collect();
//!
//! let fp = Fingerprinter::new(GeodabConfig::default());
//! let fa = fp.normalize_and_fingerprint(&path);
//! let fb = fp.normalize_and_fingerprint(&noisy);
//! // The noisy twin is much closer to the original than to its reverse.
//! let reverse = fp.normalize_and_fingerprint(&path.reversed());
//! assert!(fa.jaccard_distance(&fb) < fa.jaccard_distance(&reverse));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod fingerprint;
mod geodab;
pub mod hash;
pub mod motif;
pub mod winnow;

pub use config::{GeodabConfig, GeodabConfigBuilder};
pub use error::GeodabError;
pub use fingerprint::{Fingerprinter, Fingerprints};
pub use geodab::{geodab, geodab_prefix};
pub use motif::{discover_motif, MotifMatch};

#[cfg(test)]
mod tests {
    use super::Fingerprints;

    fn fps(xs: &[u32]) -> Fingerprints {
        Fingerprints::from_ordered(xs.to_vec())
    }

    #[test]
    fn jaccard_known_values() {
        let a = fps(&[1, 2, 3]);
        let b = fps(&[2, 3, 4]);
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        assert!((a.jaccard_distance(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.jaccard(&a), 1.0);
        // Repeats in the ordered selection do not count twice.
        assert_eq!(fps(&[3, 1, 3, 2, 1]).jaccard(&a), 1.0);
        assert_eq!(fps(&[]).jaccard(&fps(&[])), 1.0);
        assert_eq!(a.jaccard(&fps(&[])), 0.0);
    }

    #[test]
    fn triangle_inequality_of_jaccard_distance_spot_check() {
        // Kosub (the paper's ref [17]) proves the Jaccard distance is a
        // metric; verify on a few concrete triples.
        let a = fps(&[1, 2, 3, 4]);
        let b = fps(&[3, 4, 5, 6]);
        let c = fps(&[5, 6, 7, 8]);
        let ab = a.jaccard_distance(&b);
        let bc = b.jaccard_distance(&c);
        let ac = a.jaccard_distance(&c);
        assert!(ac <= ab + bc + 1e-12);
    }

    proptest::proptest! {
        #[test]
        fn prop_jaccard_distance_in_unit_interval(
            xs in proptest::collection::vec(0u32..10_000, 0..200),
            ys in proptest::collection::vec(0u32..10_000, 0..200),
        ) {
            let a = Fingerprints::from_ordered(xs);
            let b = Fingerprints::from_ordered(ys);
            let d = a.jaccard_distance(&b);
            proptest::prop_assert!((0.0..=1.0).contains(&d));
            proptest::prop_assert!((d - b.jaccard_distance(&a)).abs() < 1e-15);
            proptest::prop_assert_eq!(a.jaccard_distance(&a), 0.0);
        }
    }
}
