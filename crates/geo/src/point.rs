use serde::{Deserialize, Serialize};
use std::fmt;

use crate::GeoError;

/// Mean earth radius in meters, used by the haversine formula (Equation 2 of
/// the paper).
pub const EARTH_RADIUS_METERS: f64 = 6_371_000.0;

/// A validated latitude/longitude point `p = (φ, λ)` in degrees.
///
/// The paper models every location as such a point (Section II-A). The
/// constructor rejects non-finite values and values outside the valid
/// latitude/longitude ranges, so a `Point` is always a real position on
/// earth.
///
/// # Examples
///
/// ```
/// use geodabs_geo::Point;
///
/// # fn main() -> Result<(), geodabs_geo::GeoError> {
/// let london = Point::new(51.5074, -0.1278)?;
/// let paris = Point::new(48.8566, 2.3522)?;
/// let d = london.haversine_distance(paris);
/// // Roughly 344 km.
/// assert!((330_000.0..360_000.0).contains(&d));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Point {
    lat: f64,
    lon: f64,
}

impl Point {
    /// Creates a point from a latitude and a longitude in degrees.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] if `lat` is not finite or not in
    /// `[-90, 90]`, and [`GeoError::InvalidLongitude`] if `lon` is not finite
    /// or not in `[-180, 180]`.
    pub fn new(lat: f64, lon: f64) -> Result<Point, GeoError> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !lon.is_finite() || !(-180.0..=180.0).contains(&lon) {
            return Err(GeoError::InvalidLongitude(lon));
        }
        Ok(Point { lat, lon })
    }

    /// Creates a point, clamping the coordinates into their valid ranges.
    ///
    /// Useful when adding synthetic noise near the domain boundary.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is `NaN`.
    #[inline]
    pub fn clamped(lat: f64, lon: f64) -> Point {
        assert!(
            !lat.is_nan() && !lon.is_nan(),
            "coordinates must not be NaN"
        );
        Point {
            lat: lat.clamp(-90.0, 90.0),
            lon: lon.clamp(-180.0, 180.0),
        }
    }

    /// Latitude in degrees, in `[-90, 90]`.
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees, in `[-180, 180]`.
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Haversine ground distance in meters (Equation 2 of the paper).
    ///
    /// ```
    /// use geodabs_geo::Point;
    ///
    /// # fn main() -> Result<(), geodabs_geo::GeoError> {
    /// let a = Point::new(0.0, 0.0)?;
    /// let b = Point::new(0.0, 1.0)?;
    /// // One degree of longitude at the equator is about 111.2 km.
    /// assert!((a.haversine_distance(b) - 111_195.0).abs() < 100.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn haversine_distance(&self, other: Point) -> f64 {
        let phi_l = self.lat.to_radians();
        let phi_k = other.lat.to_radians();
        let d_phi = (self.lat - other.lat).to_radians();
        let d_lambda = (self.lon - other.lon).to_radians();
        let a = (d_phi / 2.0).sin().powi(2)
            + phi_k.cos() * phi_l.cos() * (d_lambda / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_METERS * a.sqrt().min(1.0).asin()
    }

    /// Returns the point reached by moving `meters` along the given compass
    /// `bearing_deg` (0° = north, 90° = east) on the great circle.
    ///
    /// The result is clamped into the valid coordinate domain, which only
    /// matters for paths crossing the antimeridian or the poles.
    #[inline]
    pub fn destination(&self, bearing_deg: f64, meters: f64) -> Point {
        let delta = meters / EARTH_RADIUS_METERS;
        let theta = bearing_deg.to_radians();
        let phi1 = self.lat.to_radians();
        let lambda1 = self.lon.to_radians();
        let phi2 = (phi1.sin() * delta.cos() + phi1.cos() * delta.sin() * theta.cos()).asin();
        let lambda2 = lambda1
            + (theta.sin() * delta.sin() * phi1.cos()).atan2(delta.cos() - phi1.sin() * phi2.sin());
        // Normalize the longitude into [-180, 180].
        let mut lon = lambda2.to_degrees();
        if lon > 180.0 {
            lon -= 360.0;
        } else if lon < -180.0 {
            lon += 360.0;
        }
        Point::clamped(phi2.to_degrees(), lon)
    }

    /// Linear interpolation between two points, with `t` in `[0, 1]`.
    ///
    /// For the short segments that make up road edges this is an excellent
    /// approximation of the great-circle path, and it is what the trajectory
    /// sampler uses to walk along routes.
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        let t = t.clamp(0.0, 1.0);
        Point {
            lat: self.lat + (other.lat - self.lat) * t,
            lon: self.lon + (other.lon - self.lon) * t,
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lon)
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
    fn new_accepts_valid_range() {
        assert!(Point::new(90.0, 180.0).is_ok());
        assert!(Point::new(-90.0, -180.0).is_ok());
        assert!(Point::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert_eq!(
            Point::new(90.01, 0.0),
            Err(GeoError::InvalidLatitude(90.01))
        );
        assert_eq!(
            Point::new(0.0, -180.01),
            Err(GeoError::InvalidLongitude(-180.01))
        );
        assert!(Point::new(f64::NAN, 0.0).is_err());
        assert!(Point::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_saturates() {
        let q = Point::clamped(95.0, -200.0);
        assert_eq!(q.lat(), 90.0);
        assert_eq!(q.lon(), -180.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn clamped_panics_on_nan() {
        let _ = Point::clamped(f64::NAN, 0.0);
    }

    #[test]
    fn haversine_is_zero_on_identical_points() {
        let a = p(51.5, -0.12);
        assert_eq!(a.haversine_distance(a), 0.0);
    }

    #[test]
    fn haversine_known_distances() {
        // London -> Paris, roughly 344 km.
        let d = p(51.5074, -0.1278).haversine_distance(p(48.8566, 2.3522));
        assert!((d - 344_000.0).abs() < 4_000.0, "got {d}");
        // Antipodal points: half the earth circumference.
        let d = p(0.0, 0.0).haversine_distance(p(0.0, 180.0));
        let half_circumference = std::f64::consts::PI * EARTH_RADIUS_METERS;
        assert!((d - half_circumference).abs() < 1.0, "got {d}");
    }

    #[test]
    fn haversine_one_degree_latitude() {
        let d = p(10.0, 20.0).haversine_distance(p(11.0, 20.0));
        // One degree of latitude is ~111.2 km everywhere.
        assert!((d - 111_195.0).abs() < 100.0, "got {d}");
    }

    #[test]
    fn destination_roundtrip_distance() {
        let start = p(51.5, -0.12);
        for bearing in [0.0, 45.0, 90.0, 135.0, 180.0, 270.0] {
            let end = start.destination(bearing, 1_000.0);
            let d = start.haversine_distance(end);
            assert!((d - 1_000.0).abs() < 1.0, "bearing {bearing}: {d}");
        }
    }

    #[test]
    fn destination_north_increases_latitude() {
        let start = p(10.0, 10.0);
        let end = start.destination(0.0, 10_000.0);
        assert!(end.lat() > start.lat());
        assert!((end.lon() - start.lon()).abs() < 1e-9);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = p(10.0, 20.0);
        let b = p(12.0, 26.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let m = a.lerp(b, 0.5);
        assert!((m.lat() - 11.0).abs() < 1e-12);
        assert!((m.lon() - 23.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_clamps_t() {
        let a = p(0.0, 0.0);
        let b = p(1.0, 1.0);
        assert_eq!(a.lerp(b, -3.0), a);
        assert_eq!(a.lerp(b, 7.0), b);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(p(1.5, -2.25).to_string(), "(1.500000, -2.250000)");
    }

    proptest! {
        #[test]
        fn prop_haversine_symmetric(
            lat1 in -89.0f64..89.0, lon1 in -179.0f64..179.0,
            lat2 in -89.0f64..89.0, lon2 in -179.0f64..179.0,
        ) {
            let a = p(lat1, lon1);
            let b = p(lat2, lon2);
            let ab = a.haversine_distance(b);
            let ba = b.haversine_distance(a);
            prop_assert!((ab - ba).abs() <= 1e-6 * ab.max(1.0));
            prop_assert!(ab >= 0.0);
        }

        #[test]
        fn prop_haversine_triangle_inequality(
            lat1 in -80.0f64..80.0, lon1 in -170.0f64..170.0,
            lat2 in -80.0f64..80.0, lon2 in -170.0f64..170.0,
            lat3 in -80.0f64..80.0, lon3 in -170.0f64..170.0,
        ) {
            let a = p(lat1, lon1);
            let b = p(lat2, lon2);
            let c = p(lat3, lon3);
            let direct = a.haversine_distance(c);
            let via = a.haversine_distance(b) + b.haversine_distance(c);
            prop_assert!(direct <= via + 1e-6);
        }

        #[test]
        fn prop_destination_distance_matches(
            lat in -60.0f64..60.0, lon in -170.0f64..170.0,
            bearing in 0.0f64..360.0, meters in 1.0f64..50_000.0,
        ) {
            let start = p(lat, lon);
            let end = start.destination(bearing, meters);
            let d = start.haversine_distance(end);
            prop_assert!((d - meters).abs() < meters * 1e-3 + 1.0);
        }
    }
}
