//! Synthetic road-network generators.
//!
//! The paper evaluates on routes constrained to the real London road
//! network. Since OpenStreetMap extracts are not available here, these
//! generators produce dense, irregular, fully connected networks with the
//! properties the experiments rely on: many partially overlapping paths,
//! realistic edge lengths (hundreds of meters) and heterogeneous speeds.

use geodabs_geo::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::RoadNetwork;

/// Configuration of the perturbed-grid generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// Center of the generated region.
    pub center: Point,
    /// Number of node rows.
    pub rows: usize,
    /// Number of node columns.
    pub cols: usize,
    /// Nominal distance between adjacent nodes, in meters.
    pub spacing_m: f64,
    /// Maximum random displacement applied to each node, in meters.
    pub jitter_m: f64,
    /// Probability of adding a diagonal shortcut in a grid cell.
    pub diagonal_prob: f64,
    /// Edge free-flow speeds are drawn uniformly from this range (m/s).
    pub speed_range_mps: (f64, f64),
}

impl Default for GridConfig {
    /// A ~10 km x 10 km network centered on London, echoing the paper's
    /// "300 square kilometres located around the center of London" at a
    /// size that keeps tests fast. Benches scale `rows`/`cols` up.
    fn default() -> GridConfig {
        GridConfig {
            center: Point::new(51.5074, -0.1278).expect("london is a valid point"),
            rows: 20,
            cols: 20,
            spacing_m: 500.0,
            jitter_m: 80.0,
            diagonal_prob: 0.15,
            speed_range_mps: (8.0, 20.0),
        }
    }
}

impl GridConfig {
    /// A grid sized to cover approximately `area_km2` square kilometers at
    /// the default spacing, as in the paper's evaluation region.
    pub fn with_area_km2(area_km2: f64) -> GridConfig {
        let cfg = GridConfig::default();
        let side_m = (area_km2 * 1e6).sqrt();
        let n = (side_m / cfg.spacing_m).round() as usize + 1;
        GridConfig {
            rows: n.max(2),
            cols: n.max(2),
            ..cfg
        }
    }
}

/// Generates a perturbed grid network. Always strongly connected.
///
/// The same `seed` always produces the same network.
pub fn grid_network(cfg: &GridConfig, seed: u64) -> RoadNetwork {
    assert!(
        cfg.rows >= 2 && cfg.cols >= 2,
        "grid needs at least 2x2 nodes"
    );
    let (lo, hi) = cfg.speed_range_mps;
    assert!(lo > 0.0 && hi >= lo, "invalid speed range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = RoadNetwork::new();
    let height = (cfg.rows - 1) as f64 * cfg.spacing_m;
    let width = (cfg.cols - 1) as f64 * cfg.spacing_m;
    // South-west corner of the grid.
    let origin = cfg
        .center
        .destination(180.0, height / 2.0)
        .destination(270.0, width / 2.0);
    let mut ids = Vec::with_capacity(cfg.rows * cfg.cols);
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            let base = origin
                .destination(0.0, r as f64 * cfg.spacing_m)
                .destination(90.0, c as f64 * cfg.spacing_m);
            let angle = rng.random_range(0.0..360.0);
            let dist = rng.random_range(0.0..=cfg.jitter_m);
            ids.push(net.add_node(base.destination(angle, dist)));
        }
    }
    let at = |r: usize, c: usize| ids[r * cfg.cols + c];
    let speed = |rng: &mut StdRng| rng.random_range(lo..=hi);
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            if c + 1 < cfg.cols {
                let s = speed(&mut rng);
                net.add_edge_bidirectional(at(r, c), at(r, c + 1), s)
                    .expect("grid nodes exist");
            }
            if r + 1 < cfg.rows {
                let s = speed(&mut rng);
                net.add_edge_bidirectional(at(r, c), at(r + 1, c), s)
                    .expect("grid nodes exist");
            }
            if r + 1 < cfg.rows && c + 1 < cfg.cols && rng.random_bool(cfg.diagonal_prob) {
                let s = speed(&mut rng);
                // Randomly pick one of the two diagonals.
                if rng.random_bool(0.5) {
                    net.add_edge_bidirectional(at(r, c), at(r + 1, c + 1), s)
                        .expect("grid nodes exist");
                } else {
                    net.add_edge_bidirectional(at(r, c + 1), at(r + 1, c), s)
                        .expect("grid nodes exist");
                }
            }
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::distances_within;

    #[test]
    fn grid_has_expected_size() {
        let cfg = GridConfig::default();
        let net = grid_network(&cfg, 1);
        assert_eq!(net.node_count(), cfg.rows * cfg.cols);
        // At least the lattice edges, in both directions.
        let lattice = 2 * (cfg.rows * (cfg.cols - 1) + cfg.cols * (cfg.rows - 1));
        assert!(net.edge_count() >= lattice);
    }

    #[test]
    fn grid_is_deterministic_per_seed() {
        let cfg = GridConfig::default();
        let a = grid_network(&cfg, 7);
        let b = grid_network(&cfg, 7);
        let c = grid_network(&cfg, 8);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let pa: Vec<_> = a.node_points().collect();
        let pb: Vec<_> = b.node_points().collect();
        assert_eq!(pa, pb);
        let pc: Vec<_> = c.node_points().collect();
        assert_ne!(pa, pc);
    }

    #[test]
    fn grid_is_strongly_connected() {
        let net = grid_network(&GridConfig::default(), 3);
        let first = net.node_ids().next().unwrap();
        let reached = distances_within(&net, first, f64::INFINITY).unwrap();
        assert_eq!(reached.len(), net.node_count());
    }

    #[test]
    fn grid_covers_roughly_the_requested_area() {
        let cfg = GridConfig::with_area_km2(100.0);
        let net = grid_network(&cfg, 1);
        let bb = net.bounds().unwrap();
        let area_km2 = bb.width_meters() * bb.height_meters() / 1e6;
        assert!((60.0..180.0).contains(&area_km2), "area {area_km2}");
    }

    #[test]
    fn grid_edge_lengths_are_road_scale() {
        let cfg = GridConfig::default();
        let net = grid_network(&cfg, 5);
        for n in net.node_ids() {
            for e in net.edges(n).unwrap() {
                assert!(
                    (100.0..2_000.0).contains(&e.length_meters()),
                    "edge of {} m",
                    e.length_meters()
                );
                assert!(e.speed_mps() >= cfg.speed_range_mps.0);
                assert!(e.speed_mps() <= cfg.speed_range_mps.1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn tiny_grid_panics() {
        let cfg = GridConfig {
            rows: 1,
            ..GridConfig::default()
        };
        let _ = grid_network(&cfg, 0);
    }
}
