use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{GeoError, Point};

/// An axis-aligned latitude/longitude rectangle.
///
/// Geohash cells decode to bounding boxes; the synthetic dataset generator
/// also uses a box to delimit the evaluation region (the paper uses a 300 km²
/// area around the center of London).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    min_lat: f64,
    max_lat: f64,
    min_lon: f64,
    max_lon: f64,
}

impl BoundingBox {
    /// Creates a bounding box from its south-west and north-east corners.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] / [`GeoError::InvalidLongitude`]
    /// if the corners are out of range or inverted (min greater than max).
    pub fn new(
        min_lat: f64,
        max_lat: f64,
        min_lon: f64,
        max_lon: f64,
    ) -> Result<BoundingBox, GeoError> {
        // Validate both corners through Point's own validation.
        Point::new(min_lat, min_lon)?;
        Point::new(max_lat, max_lon)?;
        if min_lat > max_lat {
            return Err(GeoError::InvalidLatitude(min_lat));
        }
        if min_lon > max_lon {
            return Err(GeoError::InvalidLongitude(min_lon));
        }
        Ok(BoundingBox {
            min_lat,
            max_lat,
            min_lon,
            max_lon,
        })
    }

    /// A cell box from edges the caller computed inside the domain,
    /// without re-validating them.
    #[inline]
    pub(crate) fn from_cell(min_lat: f64, max_lat: f64, min_lon: f64, max_lon: f64) -> BoundingBox {
        BoundingBox {
            min_lat,
            max_lat,
            min_lon,
            max_lon,
        }
    }

    /// The whole latitude/longitude domain.
    pub fn world() -> BoundingBox {
        BoundingBox {
            min_lat: -90.0,
            max_lat: 90.0,
            min_lon: -180.0,
            max_lon: 180.0,
        }
    }

    /// Smallest box containing every point of the iterator.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::EmptyPointSet`] if the iterator is empty.
    pub fn enclosing<I: IntoIterator<Item = Point>>(points: I) -> Result<BoundingBox, GeoError> {
        let mut iter = points.into_iter();
        let first = iter.next().ok_or(GeoError::EmptyPointSet)?;
        let mut bb = BoundingBox {
            min_lat: first.lat(),
            max_lat: first.lat(),
            min_lon: first.lon(),
            max_lon: first.lon(),
        };
        for p in iter {
            bb.min_lat = bb.min_lat.min(p.lat());
            bb.max_lat = bb.max_lat.max(p.lat());
            bb.min_lon = bb.min_lon.min(p.lon());
            bb.max_lon = bb.max_lon.max(p.lon());
        }
        Ok(bb)
    }

    /// Southern latitude bound in degrees.
    #[inline]
    pub fn min_lat(&self) -> f64 {
        self.min_lat
    }

    /// Northern latitude bound in degrees.
    #[inline]
    pub fn max_lat(&self) -> f64 {
        self.max_lat
    }

    /// Western longitude bound in degrees.
    #[inline]
    pub fn min_lon(&self) -> f64 {
        self.min_lon
    }

    /// Eastern longitude bound in degrees.
    #[inline]
    pub fn max_lon(&self) -> f64 {
        self.max_lon
    }

    /// Center point of the box.
    #[inline]
    pub fn center(&self) -> Point {
        Point::clamped(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
    }

    /// Whether `p` lies inside the box (inclusive bounds).
    pub fn contains(&self, p: Point) -> bool {
        (self.min_lat..=self.max_lat).contains(&p.lat())
            && (self.min_lon..=self.max_lon).contains(&p.lon())
    }

    /// East-west extent at the center latitude, in meters.
    pub fn width_meters(&self) -> f64 {
        let mid = (self.min_lat + self.max_lat) / 2.0;
        Point::clamped(mid, self.min_lon).haversine_distance(Point::clamped(mid, self.max_lon))
    }

    /// North-south extent, in meters.
    pub fn height_meters(&self) -> f64 {
        Point::clamped(self.min_lat, self.min_lon)
            .haversine_distance(Point::clamped(self.max_lat, self.min_lon))
    }
}

impl fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.6}, {:.6}] x [{:.6}, {:.6}]",
            self.min_lat, self.max_lat, self.min_lon, self.max_lon
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new(lat, lon).unwrap()
    }

    #[test]
    fn new_validates_order() {
        assert!(BoundingBox::new(1.0, 0.0, 0.0, 1.0).is_err());
        assert!(BoundingBox::new(0.0, 1.0, 1.0, 0.0).is_err());
        assert!(BoundingBox::new(0.0, 1.0, 0.0, 1.0).is_ok());
    }

    #[test]
    fn world_contains_everything() {
        let w = BoundingBox::world();
        assert!(w.contains(p(90.0, 180.0)));
        assert!(w.contains(p(-90.0, -180.0)));
        assert!(w.contains(p(0.0, 0.0)));
    }

    #[test]
    fn enclosing_empty_errors() {
        assert_eq!(
            BoundingBox::enclosing(std::iter::empty()),
            Err(GeoError::EmptyPointSet)
        );
    }

    #[test]
    fn enclosing_single_point_is_degenerate() {
        let bb = BoundingBox::enclosing([p(3.0, 4.0)]).unwrap();
        assert_eq!(bb.min_lat(), 3.0);
        assert_eq!(bb.max_lat(), 3.0);
        assert!(bb.contains(p(3.0, 4.0)));
        assert_eq!(bb.width_meters(), 0.0);
    }

    #[test]
    fn enclosing_covers_all_inputs() {
        let pts = [p(1.0, 5.0), p(-2.0, 7.0), p(0.5, 6.0)];
        let bb = BoundingBox::enclosing(pts).unwrap();
        for q in pts {
            assert!(bb.contains(q));
        }
        assert_eq!(bb.min_lat(), -2.0);
        assert_eq!(bb.max_lat(), 1.0);
        assert_eq!(bb.min_lon(), 5.0);
        assert_eq!(bb.max_lon(), 7.0);
    }

    proptest! {
        #[test]
        fn prop_enclosing_contains_inputs(
            pts in proptest::collection::vec((-89.0f64..89.0, -179.0f64..179.0), 1..20)
        ) {
            let points: Vec<Point> = pts.iter().map(|&(la, lo)| p(la, lo)).collect();
            let bb = BoundingBox::enclosing(points.iter().copied()).unwrap();
            for q in points {
                prop_assert!(bb.contains(q));
            }
        }

        #[test]
        fn prop_center_inside(
            min_lat in -89.0f64..0.0, extent_lat in 0.001f64..80.0,
            min_lon in -179.0f64..0.0, extent_lon in 0.001f64..170.0,
        ) {
            let bb = BoundingBox::new(
                min_lat, (min_lat + extent_lat).min(90.0),
                min_lon, (min_lon + extent_lon).min(180.0),
            ).unwrap();
            prop_assert!(bb.contains(bb.center()));
        }
    }
}
