//! Trajectory model and normalization for the geodabs workspace.
//!
//! A [`Trajectory`] is a sequence of latitude/longitude points `S = ⟨s1,
//! ..., sn⟩` (Section II-A of the paper). Before fingerprinting, similar
//! trajectories must be *normalized* so they converge toward similar point
//! sequences (Section V). Two normalizers are provided, matching the
//! paper's Sections V-A and V-B:
//!
//! * [`GeohashNormalizer`] — snap points to the centers of geohash cells of
//!   a constant depth and drop consecutive duplicates (lightweight),
//! * [`MapMatchNormalizer`] — snap trajectories onto a road network with
//!   HMM/Viterbi map matching (heavier, higher quality).
//!
//! # Examples
//!
//! ```
//! use geodabs_geo::Point;
//! use geodabs_traj::{GeohashNormalizer, Normalizer, Trajectory};
//!
//! # fn main() -> Result<(), geodabs_geo::GeoError> {
//! let raw = Trajectory::new(vec![
//!     Point::new(51.50740, -0.12780)?,
//!     Point::new(51.50741, -0.12781)?, // nearly identical sample
//!     Point::new(51.50900, -0.12500)?,
//! ]);
//! let norm = GeohashNormalizer::new(36)?.normalize(&raw);
//! // The two near-duplicates collapse into a single grid point.
//! assert!(norm.len() < raw.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod normalize;
mod trajectory;

pub use normalize::{
    moving_average, GeohashNormalizer, IdentityNormalizer, MapMatchNormalizer, Normalizer,
};
pub use trajectory::{KGrams, TrajId, Trajectory};
