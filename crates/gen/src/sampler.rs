//! Sampling trajectories from routes.
//!
//! "These trajectories are sampled uniformly at a rate of one point every
//! second. The speed of the moving entities is based on the route duration
//! […]. In addition, we add 20 meters of random Gaussian noise to every
//! sampled point" (Section VI-A1 of the paper).

use geodabs_geo::Point;
use geodabs_roadnet::Route;
use geodabs_traj::Trajectory;
use rand::Rng;

use crate::gauss::Gaussian;

/// How a route is turned into a GPS-like trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Seconds between consecutive samples (the paper uses 1 Hz).
    pub period_s: f64,
    /// Standard deviation of the positional noise, in meters (paper: 20).
    pub noise_sigma_m: f64,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            period_s: 1.0,
            noise_sigma_m: 20.0,
        }
    }
}

/// Walks the route at the free-flow speed of each edge and emits one noisy
/// point every `period_s` seconds (plus the exact arrival point).
///
/// Returns an empty trajectory for an empty route and a single point for a
/// single-node route.
///
/// # Panics
///
/// Panics if `period_s` is not strictly positive or the noise is negative.
pub fn sample_route<R: Rng + ?Sized>(
    route: &Route,
    cfg: &SamplerConfig,
    rng: &mut R,
) -> Trajectory {
    check(cfg);
    let mut gauss = Gaussian::new();
    let mut out = Vec::with_capacity((route.duration_seconds() / cfg.period_s) as usize + 2);
    walk(route, cfg.period_s, |stop| {
        let p = stop.point();
        out.push(if cfg.noise_sigma_m == 0.0 {
            p
        } else {
            // Independent N(0, sigma) displacements on each axis: one
            // Box–Muller pair, i.e. `DRAWS_PER_SAMPLE` words of `rng`.
            let dn = gauss.sample(rng, cfg.noise_sigma_m);
            let de = gauss.sample(rng, cfg.noise_sigma_m);
            p.destination(0.0, dn).destination(90.0, de)
        });
    });
    Trajectory::new(out)
}

/// Random `u64` words one noisy sample takes from the generator: the two
/// uniforms of the Box–Muller pair that displaces it north and east.
const DRAWS_PER_SAMPLE: usize = 2;

/// Random `u64` words [`sample_route`] draws from its generator for
/// `route` — without sampling it, so a caller can hand each trajectory
/// its own slice of one stream.
///
/// # Panics
///
/// Panics on the same configurations as [`sample_route`].
pub(crate) fn draws(route: &Route, cfg: &SamplerConfig) -> usize {
    check(cfg);
    if cfg.noise_sigma_m == 0.0 {
        return 0;
    }
    let mut samples = 0;
    walk(route, cfg.period_s, |_| samples += 1);
    samples * DRAWS_PER_SAMPLE
}

fn check(cfg: &SamplerConfig) {
    assert!(cfg.period_s > 0.0, "sampling period must be positive");
    assert!(cfg.noise_sigma_m >= 0.0, "noise must be non-negative");
}

/// Where on a route a sample falls, before noise.
#[derive(Clone, Copy)]
enum Stop {
    /// Exactly on a route point.
    At(Point),
    /// A fraction of the way along a segment.
    Along(Point, Point, f64),
}

impl Stop {
    fn point(self) -> Point {
        match self {
            Stop::At(p) => p,
            Stop::Along(from, to, t) => from.lerp(to, t),
        }
    }
}

/// Hands every sample position of `route` to `emit`, in order: one every
/// `period_s` seconds at the route's average speed, plus the exact arrival
/// point. Nothing for an empty route, the one point of a single-node
/// route. The only walk there is: [`sample_route`] and [`draws`] both run
/// it, so the sample count can never disagree with the trajectory.
fn walk(route: &Route, period_s: f64, mut emit: impl FnMut(Stop)) {
    let pts = route.points();
    match pts.len() {
        0 => return,
        1 => return emit(Stop::At(pts[0])),
        _ => {}
    }
    // Average speed per segment from the route totals; per-edge speeds are
    // already folded into duration_seconds by the router.
    let speed = if route.duration_seconds() > 0.0 {
        route.length_meters() / route.duration_seconds()
    } else {
        1.0
    };
    let step_m = speed * period_s;
    // Distance (meters) left to travel before the next sample.
    let mut until_next = 0.0;
    for w in pts.windows(2) {
        let seg_len = w[0].haversine_distance(w[1]);
        if seg_len == 0.0 {
            continue;
        }
        let mut offset = until_next;
        while offset < seg_len {
            emit(Stop::Along(w[0], w[1], offset / seg_len));
            offset += step_m;
        }
        until_next = offset - seg_len;
    }
    emit(Stop::At(pts[pts.len() - 1]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_roadnet::generators::{grid_network, GridConfig};
    use geodabs_roadnet::router::shortest_path;
    use geodabs_roadnet::RoadNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_route() -> (RoadNetwork, Route) {
        let net = grid_network(&GridConfig::default(), 42);
        let from = net.node_ids().next().unwrap();
        let to = net.node_ids().nth(150).unwrap();
        let route = shortest_path(&net, from, to).unwrap();
        (net, route)
    }

    #[test]
    fn one_hz_sampling_yields_about_duration_points() {
        let (_, route) = test_route();
        let mut rng = StdRng::seed_from_u64(1);
        let t = sample_route(&route, &SamplerConfig::default(), &mut rng);
        let expected = route.duration_seconds();
        assert!(
            (t.len() as f64 - expected).abs() <= expected * 0.05 + 2.0,
            "{} points for {expected} seconds",
            t.len()
        );
    }

    #[test]
    fn noiseless_samples_lie_on_the_route() {
        let (_, route) = test_route();
        let cfg = SamplerConfig {
            noise_sigma_m: 0.0,
            ..SamplerConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let t = sample_route(&route, &cfg, &mut rng);
        // Every sample is within a meter of some route segment (checked
        // against segment endpoints' distance sum).
        for q in t.iter() {
            let on_route = route.points().windows(2).any(|w| {
                let d = w[0].haversine_distance(q) + q.haversine_distance(w[1]);
                (d - w[0].haversine_distance(w[1])).abs() < 1.0
            });
            assert!(on_route, "sample {q} is off-route");
        }
        assert_eq!(t.points().last(), route.points().last());
    }

    #[test]
    fn noise_displaces_points_by_about_sigma() {
        let (_, route) = test_route();
        let cfg = SamplerConfig::default(); // 20 m noise
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = sample_route(&route, &cfg, &mut rng);
        let clean = sample_route(
            &route,
            &SamplerConfig {
                noise_sigma_m: 0.0,
                ..cfg
            },
            &mut StdRng::seed_from_u64(99),
        );
        let n = noisy.len().min(clean.len());
        let mean_disp: f64 = (0..n)
            .map(|i| noisy.points()[i].haversine_distance(clean.points()[i]))
            .sum::<f64>()
            / n as f64;
        // 2D Rayleigh mean = sigma * sqrt(pi/2) ≈ 25 m for sigma = 20.
        assert!(
            (15.0..40.0).contains(&mean_disp),
            "mean displacement {mean_disp}"
        );
    }

    #[test]
    fn slower_sampling_yields_fewer_points() {
        let (_, route) = test_route();
        let mut rng = StdRng::seed_from_u64(4);
        let fast = sample_route(&route, &SamplerConfig::default(), &mut rng);
        let slow = sample_route(
            &route,
            &SamplerConfig {
                period_s: 5.0,
                ..SamplerConfig::default()
            },
            &mut rng,
        );
        assert!(slow.len() * 4 < fast.len());
    }

    #[test]
    fn two_samplings_differ_but_follow_the_same_path() {
        let (_, route) = test_route();
        let t1 = sample_route(
            &route,
            &SamplerConfig::default(),
            &mut StdRng::seed_from_u64(5),
        );
        let t2 = sample_route(
            &route,
            &SamplerConfig::default(),
            &mut StdRng::seed_from_u64(6),
        );
        assert_ne!(t1, t2);
        // But their ground lengths are within noise of each other.
        let l1 = t1.ground_length_meters();
        let l2 = t2.ground_length_meters();
        assert!((l1 - l2).abs() / l1.max(l2) < 0.25, "{l1} vs {l2}");
    }

    #[test]
    fn draws_count_the_words_sample_route_takes() {
        use rand::RngCore;
        let (_, route) = test_route();
        let configs = [
            SamplerConfig::default(),
            SamplerConfig {
                period_s: 5.0,
                ..SamplerConfig::default()
            },
            SamplerConfig {
                noise_sigma_m: 0.0,
                ..SamplerConfig::default()
            },
        ];
        for cfg in &configs {
            for r in [route.clone(), route.reversed()] {
                let mut rng = StdRng::seed_from_u64(8);
                let mut skipped = rng.clone();
                let t = sample_route(&r, cfg, &mut rng);
                let n = draws(&r, cfg);
                for _ in 0..n {
                    skipped.next_u64();
                }
                assert_eq!(rng, skipped, "{cfg:?}");
                let per_sample = if cfg.noise_sigma_m == 0.0 { 0 } else { 2 };
                assert_eq!(n, per_sample * t.len(), "{cfg:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let (_, route) = test_route();
        let _ = sample_route(
            &route,
            &SamplerConfig {
                period_s: 0.0,
                ..SamplerConfig::default()
            },
            &mut StdRng::seed_from_u64(0),
        );
    }
}
