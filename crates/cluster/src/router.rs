use std::error::Error;
use std::fmt;

use geodabs_core::geodab_prefix;

/// Errors constructing a [`ShardRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterConfigError {
    /// The prefix depth must be in `1..=31` (it addresses geodab bits).
    InvalidPrefixBits(u8),
    /// At least one shard is required.
    NoShards,
    /// At least one node is required.
    NoNodes,
    /// A standalone shard node's id must be less than the node count.
    NodeIdOutOfRange {
        /// The offending node id.
        node_id: usize,
        /// The cluster's node count.
        num_nodes: usize,
    },
}

impl fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterConfigError::InvalidPrefixBits(b) => {
                write!(f, "prefix depth {b} must be between 1 and 31 bits")
            }
            ClusterConfigError::NoShards => write!(f, "cluster needs at least one shard"),
            ClusterConfigError::NoNodes => write!(f, "cluster needs at least one node"),
            ClusterConfigError::NodeIdOutOfRange { node_id, num_nodes } => {
                write!(f, "node id {node_id} out of range for {num_nodes} node(s)")
            }
        }
    }
}

impl Error for ClusterConfigError {}

/// The sharding strategy of Figure 2 (c): contiguous Z-order ranges to
/// shards (locality preserving), shards to nodes by modulo (locality
/// breaking, for balance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    prefix_bits: u8,
    num_shards: u64,
    num_nodes: usize,
}

impl ShardRouter {
    /// Creates a router for geodabs carrying a `prefix_bits`-bit geohash
    /// prefix, `num_shards` shards and `num_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterConfigError`] if any parameter is out of range.
    pub fn new(
        prefix_bits: u8,
        num_shards: u64,
        num_nodes: usize,
    ) -> Result<ShardRouter, ClusterConfigError> {
        if prefix_bits == 0 || prefix_bits >= 32 {
            return Err(ClusterConfigError::InvalidPrefixBits(prefix_bits));
        }
        if num_shards == 0 {
            return Err(ClusterConfigError::NoShards);
        }
        if num_nodes == 0 {
            return Err(ClusterConfigError::NoNodes);
        }
        Ok(ShardRouter {
            prefix_bits,
            num_shards,
            num_nodes,
        })
    }

    /// Geohash prefix depth, in bits.
    pub fn prefix_bits(&self) -> u8 {
        self.prefix_bits
    }

    /// Total number of shards.
    pub fn num_shards(&self) -> u64 {
        self.num_shards
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// `shard = ⌊cell / 2^depth · s⌋` — the locality-preserving range
    /// partition of the Z-order curve. `cell` is the raw bits of a
    /// `prefix_bits`-deep geohash.
    pub fn shard_of_cell(&self, cell: u64) -> u64 {
        debug_assert!(cell < 1u64 << self.prefix_bits, "cell exceeds prefix depth");
        ((cell as u128 * self.num_shards as u128) >> self.prefix_bits) as u64
    }

    /// The shard owning a geodab, extracted from its geohash prefix.
    pub fn shard_of_geodab(&self, geodab: u32) -> u64 {
        self.shard_of_cell(geodab_prefix(geodab, self.prefix_bits).bits())
    }

    /// `node = shard mod n` — the locality-breaking node assignment.
    pub fn node_of_shard(&self, shard: u64) -> usize {
        (shard % self.num_nodes as u64) as usize
    }

    /// The node owning a geodab.
    pub fn node_of_geodab(&self, geodab: u32) -> usize {
        self.node_of_shard(self.shard_of_geodab(geodab))
    }

    /// Distinct shards touched by a term set, sorted.
    pub fn shards_for_terms<I: IntoIterator<Item = u32>>(&self, terms: I) -> Vec<u64> {
        let mut shards: Vec<u64> = terms.into_iter().map(|t| self.shard_of_geodab(t)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// Distinct nodes hosting a shard set, sorted.
    pub fn nodes_of_shards(&self, shards: &[u64]) -> Vec<usize> {
        let mut nodes: Vec<usize> = shards.iter().map(|&s| self.node_of_shard(s)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_core::geodab;
    use geodabs_geo::Point;
    use proptest::prelude::*;

    #[test]
    fn construction_validates() {
        assert!(ShardRouter::new(16, 100, 10).is_ok());
        assert_eq!(
            ShardRouter::new(0, 100, 10),
            Err(ClusterConfigError::InvalidPrefixBits(0))
        );
        assert_eq!(
            ShardRouter::new(32, 100, 10),
            Err(ClusterConfigError::InvalidPrefixBits(32))
        );
        assert_eq!(
            ShardRouter::new(16, 0, 10),
            Err(ClusterConfigError::NoShards)
        );
        assert_eq!(
            ShardRouter::new(16, 100, 0),
            Err(ClusterConfigError::NoNodes)
        );
    }

    #[test]
    fn shard_mapping_is_a_monotone_range_partition() {
        let r = ShardRouter::new(16, 100, 10).unwrap();
        let mut last = 0;
        for cell in 0..(1u64 << 16) {
            let s = r.shard_of_cell(cell);
            assert!(s >= last, "z-order must map monotonically to shards");
            assert!(s < 100);
            last = s;
        }
        // First and last cells map to the extremes.
        assert_eq!(r.shard_of_cell(0), 0);
        assert_eq!(r.shard_of_cell((1 << 16) - 1), 99);
    }

    #[test]
    fn paper_formula_example() {
        // Figure 2 (c): shard = floor(geohash / 2^6 * s) with 2^6 cells.
        let r = ShardRouter::new(6, 4, 2).unwrap();
        assert_eq!(r.shard_of_cell(0), 0);
        assert_eq!(r.shard_of_cell(15), 0);
        assert_eq!(r.shard_of_cell(16), 1);
        assert_eq!(r.shard_of_cell(63), 3);
        // node = shard mod n.
        assert_eq!(r.node_of_shard(0), 0);
        assert_eq!(r.node_of_shard(1), 1);
        assert_eq!(r.node_of_shard(2), 0);
        assert_eq!(r.node_of_shard(3), 1);
    }

    #[test]
    fn nearby_geodabs_share_a_shard() {
        // Locality preservation: geodabs from the same neighborhood carry
        // the same 16-bit prefix, hence the same shard.
        let r = ShardRouter::new(16, 10_000, 10).unwrap();
        let start = Point::new(51.5074, -0.1278).unwrap();
        let g1 = geodab(&[start, start.destination(90.0, 100.0)], 16);
        let g2 = geodab(
            &[
                start.destination(0.0, 500.0),
                start.destination(45.0, 700.0),
            ],
            16,
        );
        assert_eq!(r.shard_of_geodab(g1), r.shard_of_geodab(g2));
    }

    #[test]
    fn distant_geodabs_use_different_shards() {
        let r = ShardRouter::new(16, 10_000, 10).unwrap();
        let london = Point::new(51.5074, -0.1278).unwrap();
        let tokyo = Point::new(35.68, 139.76).unwrap();
        let g1 = geodab(&[london, london.destination(90.0, 100.0)], 16);
        let g2 = geodab(&[tokyo, tokyo.destination(90.0, 100.0)], 16);
        assert_ne!(r.shard_of_geodab(g1), r.shard_of_geodab(g2));
    }

    #[test]
    fn terms_to_shards_and_nodes_dedup() {
        let r = ShardRouter::new(16, 100, 10).unwrap();
        let start = Point::new(51.5074, -0.1278).unwrap();
        let terms: Vec<u32> = (0..20)
            .map(|i| {
                geodab(
                    &[
                        start.destination(90.0, i as f64 * 50.0),
                        start.destination(90.0, i as f64 * 50.0 + 80.0),
                    ],
                    16,
                )
            })
            .collect();
        let shards = r.shards_for_terms(terms.iter().copied());
        assert_eq!(shards.len(), 1, "a local query touches one shard");
        let nodes = r.nodes_of_shards(&shards);
        assert_eq!(nodes.len(), 1, "hence one node");
    }

    proptest! {
        #[test]
        fn prop_shard_and_node_in_range(
            cell in 0u64..(1 << 16), shards in 1u64..20_000, nodes in 1usize..64
        ) {
            let r = ShardRouter::new(16, shards, nodes).unwrap();
            let s = r.shard_of_cell(cell);
            prop_assert!(s < shards);
            prop_assert!(r.node_of_shard(s) < nodes);
        }

        #[test]
        fn prop_equal_shards_form_contiguous_ranges(
            shards in 1u64..512,
        ) {
            // With s shards over 2^16 cells, each shard covers a contiguous
            // range whose size differs by at most one cell-quantum.
            let r = ShardRouter::new(16, shards, 10).unwrap();
            let mut sizes = vec![0u64; shards as usize];
            for cell in 0..(1u64 << 16) {
                sizes[r.shard_of_cell(cell) as usize] += 1;
            }
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1, "shard sizes {min}..{max}");
        }
    }
}
