//! Load-balance accounting for sharded indexes (Figure 16 of the paper).
//!
//! Given a histogram of trajectories per geohash cell (e.g. the world
//! activity model of `geodabs_gen::world`), these functions apply the
//! two-step sharding strategy — Z-order range partition to shards, modulo
//! to nodes — and report how evenly the load spreads. The paper's finding:
//! 100 shards on 10 nodes leave the load lopsided; 10 000 shards balance
//! it.

use crate::ShardRouter;

/// Sums a per-cell load histogram into per-node loads under the given
/// router. `cells` pairs each `cell` (raw geohash bits at the router's
/// prefix depth) with its load (e.g. trajectory count).
pub fn node_loads(router: &ShardRouter, cells: &[(u64, u64)]) -> Vec<u64> {
    let mut loads = vec![0u64; router.num_nodes()];
    for &(cell, count) in cells {
        loads[router.node_of_shard(router.shard_of_cell(cell))] += count;
    }
    loads
}

/// The imbalance ratio `max / mean` of a load vector; `1.0` is perfectly
/// balanced, larger is worse. Total, for any input — empty and all-zero
/// vectors report `0.0`, and the sum accumulates in `f64` so extreme
/// loads can neither overflow nor produce NaN/∞.
pub fn imbalance(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let total: f64 = loads.iter().map(|&l| l as f64).sum();
    if total == 0.0 {
        return 0.0;
    }
    let mean = total / loads.len() as f64;
    *loads.iter().max().expect("non-empty") as f64 / mean
}

/// Coefficient of variation (σ/μ) of a load vector; `0.0` is perfectly
/// balanced. Total, for any input — empty and all-zero vectors report
/// `0.0`, and all accumulation happens in `f64` so extreme loads can
/// neither overflow nor produce NaN/∞.
pub fn coefficient_of_variation(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let mean = loads.iter().map(|&l| l as f64).sum::<f64>() / loads.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = loads
        .iter()
        .map(|&l| {
            let d = l as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / loads.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_loads_sum_to_total() {
        let r = ShardRouter::new(16, 100, 10).unwrap();
        let cells: Vec<(u64, u64)> = (0..1000u64).map(|c| (c * 7 % (1 << 16), 3)).collect();
        let loads = node_loads(&r, &cells);
        assert_eq!(loads.len(), 10);
        assert_eq!(loads.iter().sum::<u64>(), 3_000);
    }

    #[test]
    fn imbalance_of_uniform_load_is_one() {
        assert_eq!(imbalance(&[5, 5, 5, 5]), 1.0);
        assert_eq!(coefficient_of_variation(&[5, 5, 5, 5]), 0.0);
    }

    #[test]
    fn imbalance_of_skewed_load_is_large() {
        let i = imbalance(&[100, 0, 0, 0]);
        assert_eq!(i, 4.0);
        assert!(coefficient_of_variation(&[100, 0, 0, 0]) > 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0, 0]), 0.0);
        assert_eq!(imbalance(&[0]), 0.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[0, 0]), 0.0);
        assert_eq!(coefficient_of_variation(&[0]), 0.0);
    }

    #[test]
    fn single_element_vectors_are_perfectly_balanced() {
        assert_eq!(imbalance(&[7]), 1.0);
        assert_eq!(coefficient_of_variation(&[7]), 0.0);
    }

    #[test]
    fn extreme_loads_do_not_overflow_or_produce_nan() {
        // A u64 accumulator would overflow (and panic in debug builds) on
        // these; the f64 path must stay finite and sensible.
        let huge = [u64::MAX, u64::MAX, u64::MAX, u64::MAX];
        let i = imbalance(&huge);
        assert!(i.is_finite() && (i - 1.0).abs() < 1e-9, "imbalance {i}");
        let cv = coefficient_of_variation(&huge);
        assert!(cv.is_finite() && cv.abs() < 1e-9, "cv {cv}");

        let skewed = [u64::MAX, 0, 0, 0];
        let i = imbalance(&skewed);
        assert!(i.is_finite() && (i - 4.0).abs() < 1e-9, "imbalance {i}");
        let cv = coefficient_of_variation(&skewed);
        assert!(cv.is_finite() && cv > 1.0, "cv {cv}");
    }

    #[test]
    fn statistics_are_total_and_finite_for_arbitrary_vectors() {
        // A coarse sweep standing in for a property test: no input may
        // panic or return NaN/∞, and the invariants imbalance ≥ 1 (when
        // load exists) and cv ≥ 0 always hold.
        let samples: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![0, u64::MAX],
            vec![1; 1000],
            (0..100).map(|i| i * i).collect(),
            vec![u64::MAX / 2, u64::MAX / 2, u64::MAX],
        ];
        for loads in &samples {
            let i = imbalance(loads);
            let cv = coefficient_of_variation(loads);
            assert!(i.is_finite() && !i.is_nan(), "{loads:?} → imbalance {i}");
            assert!(cv.is_finite() && !cv.is_nan(), "{loads:?} → cv {cv}");
            assert!(cv >= 0.0, "{loads:?} → cv {cv}");
            if loads.iter().any(|&l| l > 0) {
                assert!(i >= 1.0 - 1e-12, "{loads:?} → imbalance {i}");
            } else {
                assert_eq!(i, 0.0);
            }
        }
    }

    #[test]
    fn more_shards_balance_a_hotspot() {
        // One hot region of consecutive cells. With shards == nodes the
        // hotspot lands on few nodes; with many shards the modulo spreads
        // it across all of them — the Figure 16 effect.
        let cells: Vec<(u64, u64)> = (30_000u64..30_200).map(|c| (c, 100)).collect();
        let coarse = ShardRouter::new(16, 10, 10).unwrap();
        let fine = ShardRouter::new(16, 10_000, 10).unwrap();
        let coarse_imb = imbalance(&node_loads(&coarse, &cells));
        let fine_imb = imbalance(&node_loads(&fine, &cells));
        assert!(
            fine_imb < coarse_imb,
            "fine {fine_imb:.2} should beat coarse {coarse_imb:.2}"
        );
        assert!(fine_imb < 1.5, "fine sharding should be near-balanced");
    }
}
