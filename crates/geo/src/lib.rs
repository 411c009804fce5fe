//! Geographic primitives for the geodabs workspace.
//!
//! This crate implements, from scratch, every spatial building block the
//! geodabs paper (Chapuis & Garbinato, ICDCS 2018) relies on:
//!
//! * [`Point`] — validated latitude/longitude pairs with the haversine
//!   ground distance of the paper's Equation 2,
//! * [`Geohash`] — bit-level geohashes of arbitrary depth (Section III-C);
//!   at a fixed depth, [`Geohash::bits`] is the cell's position on the
//!   Z-order space-filling curve used for sharding,
//! * [`BoundingBox`] — the rectangular cells geohashes decode to,
//! * [`morton`] — the bit-interleaving (Morton encoding) underlying the
//!   space-filling curve of Figure 2.
//!
//! # Examples
//!
//! ```
//! use geodabs_geo::{Geohash, Point};
//!
//! # fn main() -> Result<(), geodabs_geo::GeoError> {
//! // Central London.
//! let p = Point::new(51.5074, -0.1278)?;
//! let g = Geohash::encode(p, 36)?;
//! assert_eq!(g.depth(), 36);
//! assert!(g.bounds().contains(p));
//! // 36 bits in London: cells of roughly 95 m x 76 m, as quoted in the paper.
//! assert!((50.0..150.0).contains(&g.bounds().width_meters()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbox;
mod error;
mod geohash;
pub mod morton;
mod point;

pub use bbox::BoundingBox;
pub use error::GeoError;
pub use geohash::{CellEncoder, Geohash, MAX_DEPTH};
pub use point::{Point, EARTH_RADIUS_METERS};
