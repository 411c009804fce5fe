use std::error::Error;
use std::fmt;

/// Errors produced by the geographic primitives.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// Latitude outside the `[-90, 90]` range, or not finite.
    InvalidLatitude(f64),
    /// Longitude outside the `[-180, 180]` range, or not finite.
    InvalidLongitude(f64),
    /// Geohash depth outside the supported `1..=64` range.
    InvalidDepth(u8),
    /// An operation that requires at least one point received none.
    EmptyPointSet,
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::InvalidLatitude(lat) => {
                write!(f, "latitude {lat} is not a finite value in [-90, 90]")
            }
            GeoError::InvalidLongitude(lon) => {
                write!(f, "longitude {lon} is not a finite value in [-180, 180]")
            }
            GeoError::InvalidDepth(d) => {
                write!(f, "geohash depth {d} is outside the supported range 1..=64")
            }
            GeoError::EmptyPointSet => write!(f, "operation requires at least one point"),
        }
    }
}

impl Error for GeoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(GeoError, &str)> = vec![
            (GeoError::InvalidLatitude(91.0), "latitude"),
            (GeoError::InvalidLongitude(181.0), "longitude"),
            (GeoError::InvalidDepth(65), "depth"),
            (GeoError::EmptyPointSet, "at least one point"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
            assert!(
                !msg.ends_with('.'),
                "error messages have no trailing period"
            );
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<GeoError>();
    }
}
