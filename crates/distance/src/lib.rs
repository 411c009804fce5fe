//! Baseline trajectory distance measures and exact motif discovery.
//!
//! These are the quadratic-time competitors the geodabs paper compares
//! against in Section VI-B and VI-C:
//!
//! * [`dtw`] — Dynamic Time Warping (Equation 3; Yi et al., ref \[28\]),
//! * [`dfd`] — Discrete Fréchet Distance (Equation 4; Eiter & Mannila,
//!   ref \[9\]),
//! * [`btm`] — Bounding-based Trajectory Motif discovery: the exact
//!   motif-discovery baseline (Tang et al., ref \[27\]) that evaluates the
//!   DFD of every pair of same-length sub-trajectories with lower-bound
//!   pruning.
//!
//! Both distances cost `O(n·m)` per pair; motif discovery with DFD costs
//! `O(n²·l²)` per pair — which is exactly why the paper replaces them with
//! Jaccard distances over fingerprint sets.
//!
//! # Examples
//!
//! ```
//! use geodabs_distance::{dfd, dtw};
//! use geodabs_geo::Point;
//! use geodabs_traj::Trajectory;
//!
//! # fn main() -> Result<(), geodabs_geo::GeoError> {
//! let a: Trajectory = (0..10).map(|i| Point::new(0.0, i as f64 * 0.001).unwrap()).collect();
//! let b: Trajectory = (0..10).map(|i| Point::new(0.0005, i as f64 * 0.001).unwrap()).collect();
//! // Two parallel lines ~55 m apart.
//! assert!((dfd(&a, &b) - 55.6).abs() < 1.0);
//! assert!(dtw(&a, &b) >= dfd(&a, &b));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btm;
mod dfd;
mod dtw;

pub use btm::{btm, btm_naive, BtmMatch};
pub use dfd::dfd;
pub use dtw::dtw;
