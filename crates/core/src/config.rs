use serde::{Deserialize, Serialize};

use crate::GeodabError;

/// Configuration of geodab fingerprinting.
///
/// The defaults are the parameters the paper validates in Section VI-A2:
/// 36-bit geohash normalization, winnowing lower bound `k = 6`, upper
/// bound `t = 12` and a 16-bit geohash prefix inside the 32-bit geodab
/// (Section VI-E). With ~85 m between consecutive normalized points in
/// London, `k` and `t` translate to noise/guarantee thresholds of roughly
/// 510 m and 1 020 m.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeodabConfig {
    normalization_depth: u8,
    k: usize,
    t: usize,
    prefix_bits: u8,
}

impl Default for GeodabConfig {
    fn default() -> GeodabConfig {
        GeodabConfig {
            normalization_depth: 36,
            k: 6,
            t: 12,
            prefix_bits: 16,
        }
    }
}

/// Chainable builder for [`GeodabConfig`], starting from the paper's
/// defaults. All validation happens in [`GeodabConfigBuilder::build`], so
/// setters can be combined in any order:
///
/// ```
/// use geodabs_core::GeodabConfig;
///
/// # fn main() -> Result<(), geodabs_core::GeodabError> {
/// let config = GeodabConfig::builder().k(6).t(12).prefix_bits(16).build()?;
/// assert_eq!(config, GeodabConfig::default());
/// let coarse = GeodabConfig::builder().normalization_depth(30).build()?;
/// assert_eq!(coarse.normalization_depth(), 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeodabConfigBuilder {
    normalization_depth: u8,
    k: usize,
    t: usize,
    prefix_bits: u8,
}

impl Default for GeodabConfigBuilder {
    fn default() -> GeodabConfigBuilder {
        GeodabConfig::default().to_builder()
    }
}

impl GeodabConfigBuilder {
    /// Sets the geohash depth used to normalize trajectories, in bits.
    pub fn normalization_depth(mut self, depth: u8) -> GeodabConfigBuilder {
        self.normalization_depth = depth;
        self
    }

    /// Sets the winnowing lower bound `k` (noise threshold, in moves).
    pub fn k(mut self, k: usize) -> GeodabConfigBuilder {
        self.k = k;
        self
    }

    /// Sets the winnowing upper bound `t` (guarantee threshold, in moves).
    pub fn t(mut self, t: usize) -> GeodabConfigBuilder {
        self.t = t;
        self
    }

    /// Sets the geohash prefix width inside the 32-bit geodab.
    pub fn prefix_bits(mut self, prefix_bits: u8) -> GeodabConfigBuilder {
        self.prefix_bits = prefix_bits;
        self
    }

    /// Validates the accumulated parameters into a [`GeodabConfig`].
    ///
    /// # Errors
    ///
    /// * [`GeodabError::InvalidLowerBound`] if `k < 2`,
    /// * [`GeodabError::InvalidUpperBound`] if `t < k`,
    /// * [`GeodabError::InvalidPrefixBits`] if `prefix_bits` is 0 or ≥ 32,
    /// * [`GeodabError::InvalidNormalizationDepth`] if the depth is 0 or
    ///   above 64.
    pub fn build(self) -> Result<GeodabConfig, GeodabError> {
        GeodabConfig::new(self.normalization_depth, self.k, self.t, self.prefix_bits)
    }
}

impl GeodabConfig {
    /// Starts a builder seeded with the paper's default parameters.
    pub fn builder() -> GeodabConfigBuilder {
        GeodabConfigBuilder::default()
    }

    /// Re-opens this configuration as a builder, e.g. to derive a variant
    /// for a parameter sweep.
    pub fn to_builder(self) -> GeodabConfigBuilder {
        GeodabConfigBuilder {
            normalization_depth: self.normalization_depth,
            k: self.k,
            t: self.t,
            prefix_bits: self.prefix_bits,
        }
    }

    /// Creates a configuration, validating all parameters.
    ///
    /// # Errors
    ///
    /// * [`GeodabError::InvalidLowerBound`] if `k < 2`,
    /// * [`GeodabError::InvalidUpperBound`] if `t < k`,
    /// * [`GeodabError::InvalidPrefixBits`] if `prefix_bits` is 0 or ≥ 32,
    /// * [`GeodabError::InvalidNormalizationDepth`] if the depth is 0 or
    ///   above 64.
    pub fn new(
        normalization_depth: u8,
        k: usize,
        t: usize,
        prefix_bits: u8,
    ) -> Result<GeodabConfig, GeodabError> {
        if k < 2 {
            return Err(GeodabError::InvalidLowerBound(k));
        }
        if t < k {
            return Err(GeodabError::InvalidUpperBound { t, k });
        }
        if prefix_bits == 0 || prefix_bits >= 32 {
            return Err(GeodabError::InvalidPrefixBits(prefix_bits));
        }
        if normalization_depth == 0 || normalization_depth > 64 {
            return Err(GeodabError::InvalidNormalizationDepth(normalization_depth));
        }
        Ok(GeodabConfig {
            normalization_depth,
            k,
            t,
            prefix_bits,
        })
    }

    /// Geohash depth used to normalize trajectories, in bits.
    pub fn normalization_depth(&self) -> u8 {
        self.normalization_depth
    }

    /// Winnowing lower bound `k`: matches shorter than `k` points are
    /// considered noise.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Winnowing upper bound `t`: common sub-trajectories of at least `t`
    /// points are guaranteed to share a fingerprint.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Winnowing window size `w = t − k + 1`.
    pub fn window(&self) -> usize {
        self.t - self.k + 1
    }

    /// Width of the geohash prefix inside the 32-bit geodab.
    pub fn prefix_bits(&self) -> u8 {
        self.prefix_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = GeodabConfig::default();
        assert_eq!(c.normalization_depth(), 36);
        assert_eq!(c.k(), 6);
        assert_eq!(c.t(), 12);
        assert_eq!(c.prefix_bits(), 16);
        assert_eq!(c.window(), 7);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert_eq!(
            GeodabConfig::new(36, 1, 12, 16),
            Err(GeodabError::InvalidLowerBound(1))
        );
        assert_eq!(
            GeodabConfig::new(36, 6, 5, 16),
            Err(GeodabError::InvalidUpperBound { t: 5, k: 6 })
        );
        assert_eq!(
            GeodabConfig::new(36, 6, 12, 0),
            Err(GeodabError::InvalidPrefixBits(0))
        );
        assert_eq!(
            GeodabConfig::new(36, 6, 12, 32),
            Err(GeodabError::InvalidPrefixBits(32))
        );
        assert_eq!(
            GeodabConfig::new(0, 6, 12, 16),
            Err(GeodabError::InvalidNormalizationDepth(0))
        );
        assert_eq!(
            GeodabConfig::new(65, 6, 12, 16),
            Err(GeodabError::InvalidNormalizationDepth(65))
        );
    }

    #[test]
    fn builder_variants_override_one_field() {
        let c = GeodabConfig::default();
        assert_eq!(
            c.to_builder()
                .normalization_depth(40)
                .build()
                .unwrap()
                .normalization_depth(),
            40
        );
        let b = c.to_builder().k(4).t(8).build().unwrap();
        assert_eq!((b.k(), b.t(), b.window()), (4, 8, 5));
        assert_eq!(
            c.to_builder().prefix_bits(8).build().unwrap().prefix_bits(),
            8
        );
        assert!(c.to_builder().prefix_bits(0).build().is_err());
    }

    #[test]
    fn k_equal_t_gives_window_of_one() {
        let c = GeodabConfig::builder().k(6).t(6).build().unwrap();
        assert_eq!(c.window(), 1);
    }

    #[test]
    fn builder_defaults_match_default_config() {
        assert_eq!(GeodabConfig::builder().build(), Ok(GeodabConfig::default()));
    }

    #[test]
    fn builder_sets_every_field() {
        let c = GeodabConfig::builder()
            .normalization_depth(40)
            .k(4)
            .t(9)
            .prefix_bits(20)
            .build()
            .unwrap();
        assert_eq!(
            (c.normalization_depth(), c.k(), c.t(), c.prefix_bits()),
            (40, 4, 9, 20)
        );
    }

    #[test]
    fn builder_validation_matches_new() {
        assert_eq!(
            GeodabConfig::builder().k(1).build(),
            Err(GeodabError::InvalidLowerBound(1))
        );
        assert_eq!(
            GeodabConfig::builder().k(6).t(5).build(),
            Err(GeodabError::InvalidUpperBound { t: 5, k: 6 })
        );
        assert_eq!(
            GeodabConfig::builder().prefix_bits(0).build(),
            Err(GeodabError::InvalidPrefixBits(0))
        );
        assert_eq!(
            GeodabConfig::builder().prefix_bits(32).build(),
            Err(GeodabError::InvalidPrefixBits(32))
        );
        assert_eq!(
            GeodabConfig::builder().normalization_depth(0).build(),
            Err(GeodabError::InvalidNormalizationDepth(0))
        );
        assert_eq!(
            GeodabConfig::builder().normalization_depth(65).build(),
            Err(GeodabError::InvalidNormalizationDepth(65))
        );
    }

    #[test]
    fn to_builder_roundtrips() {
        let c = GeodabConfig::new(40, 4, 9, 20).unwrap();
        assert_eq!(c.to_builder().build(), Ok(c));
        // Deriving a variant only changes the overridden field.
        let v = c.to_builder().prefix_bits(8).build().unwrap();
        assert_eq!(v.prefix_bits(), 8);
        assert_eq!(v.k(), 4);
    }
}
