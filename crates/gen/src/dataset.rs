//! The dense synthetic dataset: routes, trajectory records, queries and
//! ground truth (Section VI-A1 of the paper).

use geodabs_roadnet::router::shortest_path;
use geodabs_roadnet::{NodeId, RoadNetError, RoadNetwork, Route};
use geodabs_traj::{TrajId, Trajectory};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;
use std::ops::Range;

use crate::sampler::{self, sample_route, SamplerConfig};

/// Parameters of the dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of unique routes (paper: 5 000).
    pub routes: usize,
    /// Similar trajectories generated per direction (paper: 10).
    pub per_direction: usize,
    /// Also generate the return-path trajectories (paper: yes). This is
    /// what makes plain geohash indexes plateau at 0.5 precision.
    pub include_reverse: bool,
    /// Sampling configuration (1 Hz, 20 m noise by default).
    pub sampler: SamplerConfig,
    /// Routes shorter than this are rejected and re-drawn, in meters.
    pub min_route_m: f64,
    /// Number of query trajectories to generate (each from a distinct
    /// route, fresh noise, not part of the dataset).
    pub queries: usize,
    /// Maximum origin/destination draws per accepted route before giving
    /// up on the network.
    pub max_attempts_per_route: usize,
}

impl Default for DatasetConfig {
    /// A scaled-down default (50 routes) suitable for tests; benches
    /// override `routes` and `per_direction` to reach paper scale.
    fn default() -> DatasetConfig {
        DatasetConfig {
            routes: 50,
            per_direction: 10,
            include_reverse: true,
            sampler: SamplerConfig::default(),
            min_route_m: 2_000.0,
            queries: 10,
            max_attempts_per_route: 200,
        }
    }
}

/// One trajectory of the dataset with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryRecord {
    /// Dense identifier, usable in posting lists.
    pub id: TrajId,
    /// The noisy sampled trajectory.
    pub trajectory: Trajectory,
    /// Index of the route this trajectory was sampled from.
    pub route: usize,
    /// Whether it follows the route forward or on the return path.
    pub forward: bool,
}

/// A query trajectory with its provenance (the ground truth is every
/// dataset record with the same route and direction).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The noisy query trajectory, freshly sampled (not in the dataset).
    pub trajectory: Trajectory,
    /// Index of the route the query follows.
    pub route: usize,
    /// Direction of the query along the route.
    pub forward: bool,
}

/// A dense trajectory dataset with queries and ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    routes: Vec<Route>,
    records: Vec<TrajectoryRecord>,
    queries: Vec<Query>,
    /// Records sampled from each route: route `r` owns the contiguous id
    /// range `[r * records_per_route, (r + 1) * records_per_route)`.
    records_per_route: usize,
}

impl Dataset {
    /// Generates the dataset on the given road network.
    ///
    /// Deterministic for a given `(network, config, seed)` triple, and
    /// independent of how many cores sample it. One seeded stream feeds
    /// everything, in a fixed order: the routes are drawn from it first,
    /// then each record (route by route, forward then return path) and
    /// each query takes the words its samples' noise needs, in turn. A
    /// noisy sample takes exactly two words and a trajectory's sample
    /// count follows from its route alone, so one cheap sequential pass
    /// finds the state every trajectory starts from without sampling
    /// it. The trajectories are then sampled in contiguous chunks, one
    /// per available core, each from its first trajectory's state — and
    /// each checked to end exactly where the next chunk begins.
    ///
    /// A configuration with no routes yields no records and no queries.
    ///
    /// # Errors
    ///
    /// Returns [`RoadNetError::EmptyNetwork`] if the network has fewer
    /// than two nodes, and [`RoadNetError::NoPath`] if it repeatedly fails
    /// to draw a routable origin/destination pair (e.g. a fragmented
    /// network).
    pub fn generate(
        net: &RoadNetwork,
        cfg: &DatasetConfig,
        seed: u64,
    ) -> Result<Dataset, RoadNetError> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Dataset::generate_on(net, cfg, seed, threads)
    }

    /// [`Dataset::generate`], sampling in `threads` chunks.
    fn generate_on(
        net: &RoadNetwork,
        cfg: &DatasetConfig,
        seed: u64,
        threads: usize,
    ) -> Result<Dataset, RoadNetError> {
        if net.node_count() < 2 {
            return Err(RoadNetError::EmptyNetwork);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut routes = Vec::with_capacity(cfg.routes);
        while routes.len() < cfg.routes {
            let route = draw_route(net, cfg, &mut rng)?;
            routes.push(route);
        }
        let reversed: Vec<Route> = if cfg.include_reverse {
            routes.iter().map(Route::reversed).collect()
        } else {
            Vec::new()
        };
        let route_of = |job: &Job| {
            if job.forward {
                &routes[job.route]
            } else {
                &reversed[job.route]
            }
        };

        // Every trajectory in stream order: the records, then the queries.
        let directions: &[bool] = if cfg.include_reverse {
            &[true, false]
        } else {
            &[true]
        };
        let mut jobs = Vec::new();
        for route in 0..routes.len() {
            for &forward in directions {
                jobs.extend((0..cfg.per_direction).map(|_| Job { route, forward }));
            }
        }
        let record_count = jobs.len();
        if !routes.is_empty() {
            jobs.extend((0..cfg.queries).map(|qi| Job {
                route: qi % routes.len(),
                forward: true,
            }));
        }

        // Split the stream: the state each trajectory starts from, with
        // one draw count per route direction.
        let mut draws: Vec<[Option<usize>; 2]> = vec![[None; 2]; routes.len()];
        let starts: Vec<StdRng> = jobs
            .iter()
            .map(|job| {
                let n = *draws[job.route][usize::from(job.forward)]
                    .get_or_insert_with(|| sampler::draws(route_of(job), &cfg.sampler));
                let start = rng.clone();
                for _ in 0..n {
                    rng.next_u64();
                }
                start
            })
            .collect();
        let end = rng;

        let trajectories = chunk_map(jobs.len(), threads, |range| {
            let mut rng = starts[range.start].clone();
            let chunk: Vec<Trajectory> = jobs[range.clone()]
                .iter()
                .map(|job| sample_route(route_of(job), &cfg.sampler, &mut rng))
                .collect();
            assert!(
                rng == *starts.get(range.end).unwrap_or(&end),
                "trajectories {range:?} did not draw the planned number of words"
            );
            chunk
        });

        let mut trajectories = trajectories.into_iter();
        let records = jobs[..record_count]
            .iter()
            .zip(&mut trajectories)
            .enumerate()
            .map(|(id, (job, trajectory))| TrajectoryRecord {
                id: TrajId::new(id as u32),
                trajectory,
                route: job.route,
                forward: job.forward,
            })
            .collect();
        let queries = jobs[record_count..]
            .iter()
            .zip(trajectories)
            .map(|(job, trajectory)| Query {
                trajectory,
                route: job.route,
                forward: job.forward,
            })
            .collect();
        Ok(Dataset {
            routes,
            records,
            queries,
            records_per_route: cfg.per_direction * directions.len(),
        })
    }

    /// The underlying routes.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// All trajectory records, id order.
    pub fn records(&self) -> &[TrajectoryRecord] {
        &self.records
    }

    /// The generated queries.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Ground truth: ids of the records relevant to `query` — same route,
    /// same direction (the "10 similar trajectories" of the paper).
    pub fn relevant_ids(&self, query: &Query) -> HashSet<TrajId> {
        self.route_records(query.route)
            .iter()
            .filter(|r| r.forward == query.forward)
            .map(|r| r.id)
            .collect()
    }

    /// Ids of records sharing the query's route in **either** direction —
    /// what a direction-blind index (plain geohash) retrieves at best.
    pub fn same_route_ids(&self, query: &Query) -> HashSet<TrajId> {
        self.route_records(query.route)
            .iter()
            .map(|r| r.id)
            .collect()
    }

    /// The records sampled from `route` (none for a route not in the
    /// dataset).
    fn route_records(&self, route: usize) -> &[TrajectoryRecord] {
        let first = route.saturating_mul(self.records_per_route);
        self.records
            .get(first..first.saturating_add(self.records_per_route))
            .unwrap_or(&[])
    }

    /// Total number of points in the dataset.
    pub fn total_points(&self) -> usize {
        self.records.iter().map(|r| r.trajectory.len()).sum()
    }
}

/// One trajectory to sample: the direction of a route it follows.
struct Job {
    route: usize,
    forward: bool,
}

/// Runs `f` over `0..len` cut into at most `threads` non-empty contiguous
/// ranges — the first on the calling thread, every other one on a scoped
/// thread of its own — and concatenates the results in range order. A
/// panic on a worker resurfaces, payload intact, on the caller.
fn chunk_map<U: Send>(
    len: usize,
    threads: usize,
    f: impl Fn(Range<usize>) -> Vec<U> + Sync,
) -> Vec<U> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = threads.clamp(1, len);
    let range = move |i: usize| i * len / chunks..(i + 1) * len / chunks;
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..chunks)
            .map(|i| scope.spawn(move || f(range(i))))
            .collect();
        let mut out = f(range(0));
        for worker in workers {
            match worker.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

fn draw_route(
    net: &RoadNetwork,
    cfg: &DatasetConfig,
    rng: &mut StdRng,
) -> Result<Route, RoadNetError> {
    let n = net.node_count() as u32;
    let mut last_err = RoadNetError::EmptyNetwork;
    for _ in 0..cfg.max_attempts_per_route {
        let from = NodeId::new(rng.random_range(0..n));
        let to = NodeId::new(rng.random_range(0..n));
        if from == to {
            continue;
        }
        match shortest_path(net, from, to) {
            Ok(route) if route.length_meters() >= cfg.min_route_m => return Ok(route),
            Ok(_) => continue,
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_roadnet::generators::{grid_network, GridConfig};

    /// The sequential generator `generate` replaced, kept verbatim as the
    /// differential oracle: every trajectory sampled in turn from one
    /// stream.
    fn generate_reference(
        net: &RoadNetwork,
        cfg: &DatasetConfig,
        seed: u64,
    ) -> Result<Dataset, RoadNetError> {
        if net.node_count() < 2 {
            return Err(RoadNetError::EmptyNetwork);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut routes = Vec::with_capacity(cfg.routes);
        while routes.len() < cfg.routes {
            let route = draw_route(net, cfg, &mut rng)?;
            routes.push(route);
        }
        let mut records = Vec::new();
        for (ri, route) in routes.iter().enumerate() {
            let reverse = route.reversed();
            for _ in 0..cfg.per_direction {
                records.push(TrajectoryRecord {
                    id: TrajId::new(records.len() as u32),
                    trajectory: sample_route(route, &cfg.sampler, &mut rng),
                    route: ri,
                    forward: true,
                });
            }
            if cfg.include_reverse {
                for _ in 0..cfg.per_direction {
                    records.push(TrajectoryRecord {
                        id: TrajId::new(records.len() as u32),
                        trajectory: sample_route(&reverse, &cfg.sampler, &mut rng),
                        route: ri,
                        forward: false,
                    });
                }
            }
        }
        let mut queries = Vec::with_capacity(cfg.queries);
        for qi in 0..cfg.queries {
            let route_idx = qi % routes.len();
            let forward = true;
            let route = &routes[route_idx];
            queries.push(Query {
                trajectory: sample_route(route, &cfg.sampler, &mut rng),
                route: route_idx,
                forward,
            });
        }
        Ok(Dataset {
            routes,
            records,
            queries,
            records_per_route: cfg.per_direction * if cfg.include_reverse { 2 } else { 1 },
        })
    }

    /// Bit-level equality of two datasets: routes, then every record's
    /// and query's provenance and coordinate bits, in order.
    fn assert_bit_identical(got: &Dataset, want: &Dataset, what: &str) {
        type Bits = (Option<TrajId>, usize, bool, Vec<(u64, u64)>);
        let bits = |ds: &Dataset| -> Vec<Bits> {
            let points = |t: &Trajectory| {
                t.iter()
                    .map(|p| (p.lat().to_bits(), p.lon().to_bits()))
                    .collect()
            };
            let records = ds
                .records()
                .iter()
                .map(|r| (Some(r.id), r.route, r.forward, points(&r.trajectory)));
            let queries = ds
                .queries()
                .iter()
                .map(|q| (None, q.route, q.forward, points(&q.trajectory)));
            records.chain(queries).collect()
        };
        assert_eq!(got.routes(), want.routes(), "{what}");
        let (got, want) = (bits(got), bits(want));
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!(a == b, "{what}: trajectory {i} differs");
        }
    }

    #[test]
    fn parallel_generation_equals_the_sequential_reference() {
        let net = grid_network(&GridConfig::default(), 42);
        // 8 routes × 4 per direction × 2 directions + 12 queries: 76
        // trajectories, so even 64 chunks are all non-empty, and the
        // queries wrap around the routes.
        let base = DatasetConfig {
            routes: 8,
            per_direction: 4,
            queries: 12,
            ..DatasetConfig::default()
        };
        let configs = [
            ("paper sampler", base.clone()),
            (
                "zero noise",
                DatasetConfig {
                    sampler: SamplerConfig {
                        noise_sigma_m: 0.0,
                        ..SamplerConfig::default()
                    },
                    ..base.clone()
                },
            ),
            (
                "no reverse",
                DatasetConfig {
                    include_reverse: false,
                    ..base.clone()
                },
            ),
            (
                "one per direction",
                DatasetConfig {
                    per_direction: 1,
                    ..base.clone()
                },
            ),
            (
                "5 s period",
                DatasetConfig {
                    sampler: SamplerConfig {
                        period_s: 5.0,
                        ..SamplerConfig::default()
                    },
                    ..base.clone()
                },
            ),
        ];
        for (name, cfg) in &configs {
            let want = generate_reference(&net, cfg, 5).unwrap();
            for threads in [1, 2, 3, 7, 64] {
                let got = Dataset::generate_on(&net, cfg, 5, threads).unwrap();
                assert_bit_identical(&got, &want, &format!("{name}, {threads} threads"));
            }
        }
    }

    #[test]
    fn no_routes_means_no_records_and_no_queries() {
        let net = grid_network(&GridConfig::default(), 42);
        let cfg = DatasetConfig {
            routes: 0,
            queries: 5,
            ..DatasetConfig::default()
        };
        let ds = Dataset::generate(&net, &cfg, 1).unwrap();
        assert!(ds.routes().is_empty());
        assert!(ds.records().is_empty());
        assert!(ds.queries().is_empty());
    }

    #[test]
    fn ground_truth_matches_a_scan_of_every_record() {
        let scan = |ds: &Dataset, q: &Query, both: bool| -> HashSet<TrajId> {
            ds.records()
                .iter()
                .filter(|r| r.route == q.route && (both || r.forward == q.forward))
                .map(|r| r.id)
                .collect()
        };
        let net = grid_network(&GridConfig::default(), 42);
        for (per_direction, include_reverse) in [(3, true), (3, false), (1, true), (0, true)] {
            let cfg = DatasetConfig {
                routes: 5,
                per_direction,
                include_reverse,
                queries: 7,
                ..DatasetConfig::default()
            };
            let ds = Dataset::generate(&net, &cfg, 2).unwrap();
            let template = &ds.queries()[0];
            // Every route in both directions, plus one past the end.
            for route in 0..=cfg.routes {
                for forward in [true, false] {
                    let q = Query {
                        route,
                        forward,
                        ..template.clone()
                    };
                    assert_eq!(ds.relevant_ids(&q), scan(&ds, &q, false), "{cfg:?} {route}");
                    assert_eq!(
                        ds.same_route_ids(&q),
                        scan(&ds, &q, true),
                        "{cfg:?} {route}"
                    );
                }
            }
        }
    }

    fn small_dataset() -> (RoadNetwork, Dataset) {
        let net = grid_network(&GridConfig::default(), 42);
        let cfg = DatasetConfig {
            routes: 4,
            per_direction: 3,
            queries: 4,
            ..DatasetConfig::default()
        };
        let ds = Dataset::generate(&net, &cfg, 7).unwrap();
        (net, ds)
    }

    #[test]
    fn record_counts_match_config() {
        let (_, ds) = small_dataset();
        assert_eq!(ds.routes().len(), 4);
        assert_eq!(ds.records().len(), 4 * 3 * 2);
        assert_eq!(ds.queries().len(), 4);
        // Ids are dense and ordered.
        for (i, r) in ds.records().iter().enumerate() {
            assert_eq!(r.id.raw() as usize, i);
        }
    }

    #[test]
    fn forward_and_reverse_trajectories_per_route() {
        let (_, ds) = small_dataset();
        for route in 0..4 {
            let fwd = ds
                .records()
                .iter()
                .filter(|r| r.route == route && r.forward)
                .count();
            let rev = ds
                .records()
                .iter()
                .filter(|r| r.route == route && !r.forward)
                .count();
            assert_eq!((fwd, rev), (3, 3));
        }
    }

    #[test]
    fn routes_respect_min_length() {
        let (_, ds) = small_dataset();
        for r in ds.routes() {
            assert!(r.length_meters() >= 2_000.0);
        }
    }

    #[test]
    fn ground_truth_is_same_route_same_direction() {
        let (_, ds) = small_dataset();
        let q = &ds.queries()[0];
        let relevant = ds.relevant_ids(q);
        assert_eq!(relevant.len(), 3);
        for id in &relevant {
            let rec = &ds.records()[id.raw() as usize];
            assert_eq!(rec.route, q.route);
            assert!(rec.forward);
        }
        let same_route = ds.same_route_ids(q);
        assert_eq!(same_route.len(), 6);
        assert!(relevant.is_subset(&same_route));
    }

    #[test]
    fn generation_is_deterministic() {
        let net = grid_network(&GridConfig::default(), 42);
        let cfg = DatasetConfig {
            routes: 2,
            per_direction: 2,
            queries: 1,
            ..DatasetConfig::default()
        };
        let a = Dataset::generate(&net, &cfg, 9).unwrap();
        let b = Dataset::generate(&net, &cfg, 9).unwrap();
        assert_eq!(a.records(), b.records());
        assert_eq!(a.queries(), b.queries());
        let c = Dataset::generate(&net, &cfg, 10).unwrap();
        assert_ne!(a.records(), c.records());
    }

    #[test]
    fn trajectories_are_one_hz_length() {
        let (_, ds) = small_dataset();
        for r in ds.records() {
            let route = &ds.routes()[r.route];
            let expected = route.duration_seconds();
            assert!(
                (r.trajectory.len() as f64 - expected).abs() <= expected * 0.05 + 2.0,
                "{} points for a {expected} s route",
                r.trajectory.len()
            );
        }
    }

    #[test]
    fn sibling_trajectories_are_similar_but_not_identical() {
        let (_, ds) = small_dataset();
        let siblings: Vec<_> = ds
            .records()
            .iter()
            .filter(|r| r.route == 0 && r.forward)
            .collect();
        assert!(siblings.len() >= 2);
        assert_ne!(siblings[0].trajectory, siblings[1].trajectory);
        // Similar ground length.
        let l0 = siblings[0].trajectory.ground_length_meters();
        let l1 = siblings[1].trajectory.ground_length_meters();
        assert!((l0 - l1).abs() / l0.max(l1) < 0.3, "{l0} vs {l1}");
    }

    #[test]
    fn queries_are_not_dataset_members() {
        let (_, ds) = small_dataset();
        for q in ds.queries() {
            assert!(ds.records().iter().all(|r| r.trajectory != q.trajectory));
        }
    }

    #[test]
    fn tiny_network_errors() {
        let net = RoadNetwork::new();
        assert_eq!(
            Dataset::generate(&net, &DatasetConfig::default(), 1).err(),
            Some(RoadNetError::EmptyNetwork)
        );
    }

    #[test]
    fn no_reverse_option() {
        let net = grid_network(&GridConfig::default(), 42);
        let cfg = DatasetConfig {
            routes: 2,
            per_direction: 2,
            include_reverse: false,
            queries: 1,
            ..DatasetConfig::default()
        };
        let ds = Dataset::generate(&net, &cfg, 3).unwrap();
        assert_eq!(ds.records().len(), 4);
        assert!(ds.records().iter().all(|r| r.forward));
    }
}
