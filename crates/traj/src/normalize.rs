//! Trajectory normalization (Section V of the paper).
//!
//! Normalization is the analogue of stemming and case-folding in text
//! retrieval: it makes highly similar trajectories converge toward
//! identical point sequences so that their fingerprints overlap. The
//! *extent* of normalization is a precision/recall trade-off — Section V-C
//! and Figure 8 of the paper — which the `fig08_pr_normalization` bench
//! reproduces by sweeping the geohash depth.

use geodabs_geo::{BoundingBox, CellEncoder, GeoError, Point};
use geodabs_roadnet::matching::{map_match, MatchConfig};
use geodabs_roadnet::{RoadNetError, RoadNetwork, SpatialIndex};

use crate::Trajectory;

/// A normalization function `N(S) = S'` over trajectories.
///
/// Implementations must be deterministic: indexing-time and query-time
/// normalization have to agree for retrieval to work.
pub trait Normalizer {
    /// Normalizes a trajectory into a canonical point sequence.
    fn normalize(&self, trajectory: &Trajectory) -> Trajectory;
}

/// The identity normalization (no-op); useful as an experimental control,
/// like Figure 5 (a) of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityNormalizer;

impl Normalizer for IdentityNormalizer {
    fn normalize(&self, trajectory: &Trajectory) -> Trajectory {
        trajectory.clone()
    }
}

/// Smooths a trajectory with a centered moving average: each sample
/// becomes the mean of the samples within `window / 2` positions of it,
/// so the average spans `2⌊window/2⌋ + 1` samples (fewer at the ends)
/// and an even `window` behaves like `window + 1`. `window <= 1` is a
/// no-op. (A standard GPS de-noising step.)
///
/// For the paper's 1 Hz / 20 m-noise data, a window of ~9 samples cuts
/// the noise by a factor of three while barely touching the geometry of
/// road-constrained paths.
pub fn moving_average(trajectory: &Trajectory, window: usize) -> Trajectory {
    let pts = trajectory.points();
    if window <= 1 || pts.len() < 2 {
        return trajectory.clone();
    }
    Trajectory::new(smoothed(pts, window / 2))
}

/// The mean of the samples within `half` positions of every `pts[i]`,
/// in order. Each mean is summed left to right: the summation order is
/// part of the normalizer's contract, since cell decisions downstream
/// depend on the last ulp.
///
/// Every window is its own dependency chain, so the interior runs four
/// windows side by side, each over `(lat, lon)` pairs: the interleaved
/// chains keep the adder busy where one window at a time would wait on
/// each add. The per-window order (from `Iterator::sum`'s `-0.0`) and the
/// division by the count are unchanged, so each mean is bit-identical to
/// summing its window alone.
fn smoothed(pts: &[Point], half: usize) -> Vec<Point> {
    let n = pts.len();
    let mut out = Vec::with_capacity(n);
    let mean = |i: usize| {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let count = (hi - lo) as f64;
        let lat = pts[lo..hi].iter().map(Point::lat).sum::<f64>() / count;
        let lon = pts[lo..hi].iter().map(Point::lon).sum::<f64>() / count;
        Point::clamped(lat, lon)
    };
    // Full windows `[i - half, i + half]` exist for `half <= i < n - half`.
    let head = half.min(n);
    let full_end = n.saturating_sub(half).max(head);
    out.extend((0..head).map(mean));
    let width = 2 * half + 1;
    let count = width as f64;
    let mut i = head;
    while i + 4 <= full_end {
        let mut sums = [[-0.0f64; 2]; 4];
        for quad in pts[i - half..i + half + 4].windows(4) {
            for (sum, q) in sums.iter_mut().zip(quad) {
                sum[0] += q.lat();
                sum[1] += q.lon();
            }
        }
        out.extend(sums.map(|[lat, lon]| Point::clamped(lat / count, lon / count)));
        i += 4;
    }
    out.extend((i..n).map(mean));
    out
}

/// Geohash-grid normalization (Section V-A): snap every point to the
/// center of its geohash cell at a constant depth and remove consecutive
/// duplicates.
///
/// The paper finds a depth of **36 bits** optimal for its London dataset
/// (cells of ~95 m x 76 m there).
///
/// Two optional robustness measures handle noisy high-rate samples,
/// where raw cell sequences flicker across cell boundaries and destroy
/// `k`-gram matches:
///
/// * **smoothing** — a centered moving average over the raw points
///   ([`moving_average`]),
/// * **hysteresis** — a Schmitt trigger on cell transitions: the current
///   cell is kept until a sample moves at least a margin (a fraction of
///   the cell extent) beyond its boundary.
///
/// [`GeohashNormalizer::new`] enables neither (the paper's literal
/// construction); [`GeohashNormalizer::robust`] enables both with
/// defaults tuned for 1 Hz GPS with ~20 m noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeohashNormalizer {
    depth: u8,
    smoothing_window: usize,
    hysteresis_fraction: f64,
}

impl GeohashNormalizer {
    /// Creates a plain normalizer snapping to cells of `depth` bits, with
    /// no smoothing and no hysteresis.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDepth`] if `depth` is zero or above 64
    /// (a zero depth would collapse every trajectory to one point).
    pub fn new(depth: u8) -> Result<GeohashNormalizer, GeoError> {
        if depth == 0 || depth > geodabs_geo::MAX_DEPTH {
            return Err(GeoError::InvalidDepth(depth));
        }
        Ok(GeohashNormalizer {
            depth,
            smoothing_window: 1,
            hysteresis_fraction: 0.0,
        })
    }

    /// Creates a noise-robust normalizer: smoothing window of 9 samples
    /// and a transition hysteresis of 0.4 cell extents.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDepth`] as [`GeohashNormalizer::new`].
    pub fn robust(depth: u8) -> Result<GeohashNormalizer, GeoError> {
        Ok(GeohashNormalizer::new(depth)?
            .with_smoothing_window(9)
            .with_hysteresis(0.4))
    }

    /// Sets the moving-average window (`1` disables smoothing). As in
    /// [`moving_average`], each mean spans the `window / 2` samples on
    /// either side, `2⌊window/2⌋ + 1` in all, so an even `window`
    /// behaves like `window + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_smoothing_window(self, window: usize) -> GeohashNormalizer {
        assert!(window >= 1, "smoothing window must be at least 1");
        GeohashNormalizer {
            smoothing_window: window,
            ..self
        }
    }

    /// Sets the transition hysteresis as a fraction of the cell extent
    /// (`0.0` disables it).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn with_hysteresis(self, fraction: f64) -> GeohashNormalizer {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "hysteresis fraction must be in [0, 1]"
        );
        GeohashNormalizer {
            hysteresis_fraction: fraction,
            ..self
        }
    }

    /// The grid depth in bits.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// The moving-average window in samples (1 = off).
    pub fn smoothing_window(&self) -> usize {
        self.smoothing_window
    }

    /// The transition hysteresis as a fraction of the cell extent.
    pub fn hysteresis_fraction(&self) -> f64 {
        self.hysteresis_fraction
    }
}

impl Normalizer for GeohashNormalizer {
    /// Two passes. The first smooths every sample (`smoothed`), a loop
    /// of independent window sums. The second follows the held cell: a
    /// sample inside it costs four comparisons ([`CellEncoder::in_cell`]),
    /// one outside it is tested against the hysteresis margin, and only
    /// an accepted transition quantizes the sample and decodes its box,
    /// from the encoder's per-call spans, with the margin from a per-call
    /// memo (`Margins`).
    fn normalize(&self, trajectory: &Trajectory) -> Trajectory {
        let pts = trajectory.points();
        let smooth;
        let input = if self.smoothing_window > 1 && pts.len() >= 2 {
            smooth = smoothed(pts, self.smoothing_window / 2);
            &smooth[..]
        } else {
            pts
        };
        let encoder = CellEncoder::new(self.depth).expect("depth validated at construction");
        let mut margins = Margins::new(self.hysteresis_fraction);
        let mut out: Vec<Point> = Vec::with_capacity(input.len());
        let mut held: Option<((u32, u32), BoundingBox, f64)> = None;
        for &p in input {
            if let Some(((row, col), bounds, margin)) = &held {
                if encoder.in_cell(p, *row, *col) || !outside_by_more_than(p, bounds, *margin) {
                    continue;
                }
            }
            let (row, col) = encoder.row_col(p);
            let bounds = encoder.cell_bounds(row, col);
            out.push(bounds.center());
            held = Some(((row, col), bounds, margins.of(row, &bounds)));
        }
        Trajectory::new(out)
    }
}

/// Rows the [`Margins`] memo holds at once.
const MARGIN_ROWS: usize = 64;

/// The hysteresis margin of each cell one [`GeohashNormalizer::normalize`]
/// call holds: the hysteresis fraction of the cell's smaller extent in
/// meters, with each extent computed once per distinct exact input.
///
/// A box's width is a haversine between two points on its mid-latitude
/// whose only other input is the longitude difference, and its height a
/// haversine along one meridian whose only input is the latitude
/// difference (the `cos·cos·sin²(0)` term is `+0` at every latitude).
/// Equal bits of those inputs give equal extents. The height's input is
/// the same for every cell of a grid, so one slot holds it; the width's
/// is a function of the row, so its memo is direct-mapped by row, one
/// slot per row of a 64-row band. A slot answers only when all its key
/// bits match: a trajectory that leaves the band and comes back
/// recomputes a width, never misreads one.
struct Margins {
    fraction: f64,
    /// `(mid-latitude bits, longitude extent bits)` → width.
    widths: [([u64; 2], f64); MARGIN_ROWS],
    /// Latitude extent bits → height.
    height: (u64, f64),
}

impl Margins {
    fn new(fraction: f64) -> Margins {
        // No extent or mid-latitude is a NaN, so all-ones keys match no box.
        Margins {
            fraction,
            widths: [([u64::MAX; 2], 0.0); MARGIN_ROWS],
            height: (u64::MAX, 0.0),
        }
    }

    /// Meters a point must exceed the held cell `b`, at `row`, by before
    /// a transition is accepted.
    fn of(&mut self, row: u32, b: &BoundingBox) -> f64 {
        if self.fraction == 0.0 {
            return 0.0;
        }
        let width_key = [
            ((b.min_lat() + b.max_lat()) / 2.0).to_bits(),
            (b.max_lon() - b.min_lon()).to_bits(),
        ];
        let width = &mut self.widths[row as usize % MARGIN_ROWS];
        if width.0 != width_key {
            *width = (width_key, b.width_meters());
        }
        let height_key = (b.max_lat() - b.min_lat()).to_bits();
        if self.height.0 != height_key {
            self.height = (height_key, b.height_meters());
        }
        self.fraction * width.1.min(self.height.1)
    }
}

/// Resamples a polyline at a fixed step along its segments, always keeping
/// the first and last points. Deterministic given the input.
fn interpolate_path(points: &[Point], step_m: f64) -> Vec<Point> {
    if points.len() < 2 {
        return points.to_vec();
    }
    let mut out = Vec::with_capacity(points.len() * 2);
    let mut until_next = 0.0;
    for w in points.windows(2) {
        let seg = w[0].haversine_distance(w[1]);
        if seg == 0.0 {
            continue;
        }
        let mut offset = until_next;
        while offset < seg {
            out.push(w[0].lerp(w[1], offset / seg));
            offset += step_m;
        }
        until_next = offset - seg;
    }
    out.push(points[points.len() - 1]);
    out
}

/// Meters per degree of latitude in [`distance_outside`].
const METERS_PER_DEG: f64 = 111_195.0;

/// Degrees by which `p` lies outside the box `b` on each axis
/// `(dlat, dlon)`, both `>= 0` (0 inside).
fn degrees_outside(p: Point, b: &BoundingBox) -> (f64, f64) {
    let dlat = if p.lat() < b.min_lat() {
        b.min_lat() - p.lat()
    } else if p.lat() > b.max_lat() {
        p.lat() - b.max_lat()
    } else {
        0.0
    };
    let dlon = if p.lon() < b.min_lon() {
        b.min_lon() - p.lon()
    } else if p.lon() > b.max_lon() {
        p.lon() - b.max_lon()
    } else {
        0.0
    };
    (dlat, dlon)
}

/// Meters by which `p` lies outside the box `b` (0 inside).
fn distance_outside(p: Point, b: &BoundingBox) -> f64 {
    let (dlat, dlon) = degrees_outside(p, b);
    let lat_m = dlat * METERS_PER_DEG;
    let lon_m = dlon * METERS_PER_DEG * p.lat().to_radians().cos();
    (lat_m * lat_m + lon_m * lon_m).sqrt()
}

/// `distance_outside(p, b) > margin`, deciding most samples without the
/// `cos`. Both shortcuts are exact, from two facts about round-to-nearest
/// binary floating point: rounding is monotone, and `√fl(x²) = x` for
/// `x >= 0` when `x²` neither underflows nor overflows.
///
/// * The distance is `√fl(fl(lat_m²) + fl(lon_m²)) >= √fl(lat_m²) = lat_m`,
///   so `lat_m > margin` already decides a transition. The square of any
///   `lat_m >= 1e-150` is normal, which keeps the identity true (below
///   that, `fl(lat_m²)` may underflow to zero).
/// * `lon_m = fl(u · cos φ)` with `u = fl(dlon · METERS_PER_DEG)` and
///   `0 <= cos φ <= 1` (a latitude in radians is inside `[-π/2, π/2]`),
///   so `lon_m <= u`, and the distance is at most the same expression
///   with `u` for `lon_m`. When that bound is within the margin, the
///   sample is held.
fn outside_by_more_than(p: Point, b: &BoundingBox, margin: f64) -> bool {
    let (dlat, dlon) = degrees_outside(p, b);
    let lat_m = dlat * METERS_PER_DEG;
    if lat_m > margin && lat_m >= 1e-150 {
        return true;
    }
    let u = dlon * METERS_PER_DEG;
    if (lat_m * lat_m + u * u).sqrt() <= margin {
        return false;
    }
    distance_outside(p, b) > margin
}

/// Map-matching normalization (Section V-B): snap the trajectory onto the
/// node sequence of a road network using HMM/Viterbi matching, following
/// Newson & Krumm.
///
/// This is computationally costly but, as the paper notes, the price is
/// paid only when building the index (and once per query).
pub struct MapMatchNormalizer<'a> {
    network: &'a RoadNetwork,
    index: &'a SpatialIndex,
    config: MatchConfig,
    interpolation_step_m: Option<f64>,
}

impl<'a> MapMatchNormalizer<'a> {
    /// Creates a normalizer matching onto `network` through its spatial
    /// `index`, emitting one point per matched node.
    pub fn new(
        network: &'a RoadNetwork,
        index: &'a SpatialIndex,
        config: MatchConfig,
    ) -> MapMatchNormalizer<'a> {
        MapMatchNormalizer {
            network,
            index,
            config,
            interpolation_step_m: None,
        }
    }

    /// Additionally interpolates the matched node path at a fixed step
    /// (meters). On networks with long edges this makes the output dense
    /// enough that a single mismatched node only perturbs a local stretch
    /// of the downstream `k`-gram stream instead of most of it; a step
    /// around the fingerprinting cell size (~85 m at 36 bits) works well.
    ///
    /// # Panics
    ///
    /// Panics if `step_m` is not strictly positive.
    pub fn with_interpolation(mut self, step_m: f64) -> MapMatchNormalizer<'a> {
        assert!(step_m > 0.0, "interpolation step must be positive");
        self.interpolation_step_m = Some(step_m);
        self
    }

    /// Matches and converts to the node-center point sequence, reporting
    /// matching failures.
    ///
    /// # Errors
    ///
    /// Propagates [`RoadNetError`] from the matcher (empty trajectory, no
    /// candidates near any point).
    pub fn try_normalize(&self, trajectory: &Trajectory) -> Result<Trajectory, RoadNetError> {
        let nodes = map_match(self.network, self.index, trajectory.points(), &self.config)?;
        let mut out = Vec::with_capacity(nodes.len());
        for n in nodes {
            out.push(self.network.point(n).expect("matcher returns valid nodes"));
        }
        if let Some(step) = self.interpolation_step_m {
            out = interpolate_path(&out, step);
        }
        Ok(Trajectory::new(out))
    }
}

impl Normalizer for MapMatchNormalizer<'_> {
    /// Infallible [`Normalizer`] entry point: trajectories that cannot be
    /// matched at all normalize to the empty trajectory (they will produce
    /// no fingerprints and never match queries, which is the correct
    /// retrieval behavior for off-network noise).
    fn normalize(&self, trajectory: &Trajectory) -> Trajectory {
        self.try_normalize(trajectory).unwrap_or_default()
    }
}

impl std::fmt::Debug for MapMatchNormalizer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapMatchNormalizer")
            .field("nodes", &self.network.node_count())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodabs_geo::Geohash;
    use geodabs_roadnet::generators::{grid_network, GridConfig};
    use geodabs_roadnet::router::shortest_path;
    use proptest::prelude::*;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new(lat, lon).unwrap()
    }

    #[test]
    fn identity_is_a_noop() {
        let t: Trajectory = (0..5).map(|i| p(0.0, i as f64 * 0.01)).collect();
        assert_eq!(IdentityNormalizer.normalize(&t), t);
    }

    #[test]
    fn geohash_normalizer_validates_depth() {
        assert!(GeohashNormalizer::new(0).is_err());
        assert!(GeohashNormalizer::new(65).is_err());
        assert_eq!(GeohashNormalizer::new(36).unwrap().depth(), 36);
    }

    #[test]
    fn geohash_normalization_dedups_consecutive_cells() {
        // Three samples inside one 36-bit cell followed by a distant point.
        let base = p(51.5074, -0.1278);
        let t = Trajectory::new(vec![
            base,
            base.destination(90.0, 1.0),
            base.destination(0.0, 1.0),
            base.destination(90.0, 500.0),
        ]);
        let n = GeohashNormalizer::new(36).unwrap().normalize(&t);
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn geohash_normalization_outputs_cell_centers() {
        let t = Trajectory::new(vec![p(51.5074, -0.1278)]);
        let n = GeohashNormalizer::new(36).unwrap().normalize(&t);
        let cell = Geohash::encode(p(51.5074, -0.1278), 36).unwrap();
        assert_eq!(n.points()[0], cell.center());
    }

    #[test]
    fn geohash_normalization_is_idempotent() {
        let t: Trajectory = (0..30)
            .map(|i| p(51.5 + i as f64 * 0.001, -0.12 + i as f64 * 0.0007))
            .collect();
        let norm = GeohashNormalizer::new(36).unwrap();
        let once = norm.normalize(&t);
        let twice = norm.normalize(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn noisy_twins_converge_under_geohash_normalization() {
        // Two samplings of the same path with sub-cell noise normalize to
        // the same sequence: the core property N is designed for.
        let steps: Vec<Point> = (0..20)
            .map(|i| p(51.5074, -0.1278).destination(90.0, i as f64 * 90.0))
            .collect();
        let a = Trajectory::new(steps.iter().map(|q| q.destination(45.0, 4.0)).collect());
        let b = Trajectory::new(steps.iter().map(|q| q.destination(225.0, 4.0)).collect());
        let norm = GeohashNormalizer::new(30).unwrap();
        assert_eq!(norm.normalize(&a), norm.normalize(&b));
    }

    #[test]
    fn deeper_normalization_preserves_more_points() {
        let t: Trajectory = (0..50)
            .map(|i| p(51.5074, -0.1278).destination(90.0, i as f64 * 30.0))
            .collect();
        let shallow = GeohashNormalizer::new(30).unwrap().normalize(&t).len();
        let deep = GeohashNormalizer::new(40).unwrap().normalize(&t).len();
        assert!(deep >= shallow, "deep {deep} < shallow {shallow}");
    }

    #[test]
    fn moving_average_is_noop_for_window_one() {
        let t: Trajectory = (0..5).map(|i| p(0.0, i as f64 * 0.01)).collect();
        assert_eq!(moving_average(&t, 1), t);
        assert_eq!(moving_average(&t, 0), t);
        assert_eq!(
            moving_average(&Trajectory::default(), 9),
            Trajectory::default()
        );
    }

    #[test]
    fn even_smoothing_windows_average_one_more_sample() {
        // `half = window / 2` on each side: window 8 spans 9 samples, as
        // window 9 does, and window 2 spans 3, as window 3 does.
        let t: Trajectory = (0..40)
            .map(|i| {
                p(51.5074, -0.1278)
                    .destination(90.0, i as f64 * 15.0)
                    .destination((i * 97 % 360) as f64, (i * 31 % 23) as f64)
            })
            .collect();
        for (even, odd) in [(8, 9), (2, 3)] {
            assert_eq!(moving_average(&t, even), moving_average(&t, odd));
            let smoothing = |window| {
                GeohashNormalizer::new(40)
                    .unwrap()
                    .with_hysteresis(0.4)
                    .with_smoothing_window(window)
                    .normalize(&t)
            };
            assert_eq!(smoothing(even), smoothing(odd));
        }
        assert_ne!(moving_average(&t, 7), moving_average(&t, 9));
    }

    #[test]
    fn moving_average_preserves_length_and_reduces_noise() {
        // A straight path with alternating lateral noise.
        let base: Vec<Point> = (0..40)
            .map(|i| p(51.5074, -0.1278).destination(90.0, i as f64 * 15.0))
            .collect();
        let noisy: Trajectory = base
            .iter()
            .enumerate()
            .map(|(i, q)| q.destination(if i % 2 == 0 { 0.0 } else { 180.0 }, 20.0))
            .collect();
        let smoothed = moving_average(&noisy, 9);
        assert_eq!(smoothed.len(), noisy.len());
        // Residual distance to the true path shrinks substantially.
        let err = |t: &Trajectory| -> f64 {
            t.iter()
                .zip(&base)
                .map(|(a, b)| a.haversine_distance(*b))
                .sum::<f64>()
                / t.len() as f64
        };
        assert!(err(&smoothed) < err(&noisy) / 3.0);
    }

    #[test]
    fn hysteresis_suppresses_boundary_flicker() {
        // Alternate samples on either side of a cell boundary: plain
        // normalization flickers, hysteresis keeps one cell.
        let depth = 36;
        let cell = Geohash::encode(p(51.5074, -0.1278), depth).unwrap();
        let b = cell.bounds();
        let inside = Point::new(b.center().lat(), b.max_lon() - 1e-5).unwrap();
        let outside = Point::new(b.center().lat(), b.max_lon() + 1e-5).unwrap();
        let flicker: Trajectory = (0..20)
            .map(|i| if i % 2 == 0 { inside } else { outside })
            .collect();
        let plain = GeohashNormalizer::new(depth).unwrap().normalize(&flicker);
        let hyst = GeohashNormalizer::new(depth)
            .unwrap()
            .with_hysteresis(0.4)
            .normalize(&flicker);
        assert!(plain.len() > 10, "plain flickers: {}", plain.len());
        assert_eq!(hyst.len(), 1, "hysteresis holds the first cell");
    }

    #[test]
    fn hysteresis_still_follows_real_transitions() {
        // A genuine eastward march must still produce multiple cells.
        let t: Trajectory = (0..40)
            .map(|i| p(51.5074, -0.1278).destination(90.0, i as f64 * 50.0))
            .collect();
        let n = GeohashNormalizer::robust(36).unwrap().normalize(&t);
        assert!(n.len() >= 10, "only {} cells", n.len());
    }

    #[test]
    fn robust_normalizer_accessors_and_validation() {
        let n = GeohashNormalizer::robust(36).unwrap();
        assert_eq!(n.depth(), 36);
        assert_eq!(n.smoothing_window(), 9);
        assert!((n.hysteresis_fraction() - 0.4).abs() < 1e-12);
        let plain = GeohashNormalizer::new(36).unwrap();
        assert_eq!(plain.smoothing_window(), 1);
        assert_eq!(plain.hysteresis_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_smoothing_window_panics() {
        let _ = GeohashNormalizer::new(36).unwrap().with_smoothing_window(0);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn hysteresis_out_of_range_panics() {
        let _ = GeohashNormalizer::new(36).unwrap().with_hysteresis(1.5);
    }

    #[test]
    fn noisy_twins_converge_better_with_robust_normalizer() {
        // Heavier noise than the sub-cell case above: the robust pipeline
        // must produce closer sequences than the plain one.
        use std::collections::HashSet;
        let steps: Vec<Point> = (0..120)
            .map(|i| p(51.5074, -0.1278).destination(90.0, i as f64 * 14.0))
            .collect();
        let wobble = |phase: f64| -> Trajectory {
            steps
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    q.destination(
                        if ((i as f64 + phase) as usize).is_multiple_of(2) {
                            0.0
                        } else {
                            180.0
                        },
                        18.0,
                    )
                })
                .collect()
        };
        let a = wobble(0.0);
        let b = wobble(1.0);
        let cells = |t: &Trajectory, n: &GeohashNormalizer| -> HashSet<u64> {
            n.normalize(t)
                .iter()
                .map(|q| Geohash::encode(q, 36).unwrap().bits())
                .collect()
        };
        let plain = GeohashNormalizer::new(36).unwrap();
        let robust = GeohashNormalizer::robust(36).unwrap();
        let jac = |x: &HashSet<u64>, y: &HashSet<u64>| {
            x.intersection(y).count() as f64 / x.union(y).count().max(1) as f64
        };
        let plain_j = jac(&cells(&a, &plain), &cells(&b, &plain));
        let robust_j = jac(&cells(&a, &robust), &cells(&b, &robust));
        assert!(
            robust_j >= plain_j,
            "robust {robust_j:.2} should not lose to plain {plain_j:.2}"
        );
    }

    #[test]
    fn map_match_normalizer_snaps_to_network_nodes() {
        let net = grid_network(&GridConfig::default(), 42);
        let idx = SpatialIndex::build(&net, 300.0);
        let from = net.node_ids().next().unwrap();
        let to = net.node_ids().nth(60).unwrap();
        let route = shortest_path(&net, from, to).unwrap();
        let t = Trajectory::new(route.points().to_vec());
        let norm = MapMatchNormalizer::new(&net, &idx, MatchConfig::default());
        let n = norm.try_normalize(&t).unwrap();
        assert_eq!(n.points(), route.points());
    }

    #[test]
    fn map_match_normalizer_maps_failures_to_empty() {
        let net = grid_network(&GridConfig::default(), 42);
        let idx = SpatialIndex::build(&net, 300.0);
        let norm = MapMatchNormalizer::new(&net, &idx, MatchConfig::default());
        let sahara = Trajectory::new(vec![p(23.0, 13.0)]);
        assert!(norm.try_normalize(&sahara).is_err());
        assert!(norm.normalize(&sahara).is_empty());
        assert!(norm.normalize(&Trajectory::default()).is_empty());
    }

    #[test]
    fn interpolated_map_matching_is_dense_and_deterministic() {
        let net = grid_network(&GridConfig::default(), 42);
        let idx = SpatialIndex::build(&net, 300.0);
        let from = net.node_ids().next().unwrap();
        let to = net.node_ids().nth(60).unwrap();
        let route = shortest_path(&net, from, to).unwrap();
        let t = Trajectory::new(route.points().to_vec());
        let plain = MapMatchNormalizer::new(&net, &idx, MatchConfig::default());
        let dense =
            MapMatchNormalizer::new(&net, &idx, MatchConfig::default()).with_interpolation(85.0);
        let np = plain.try_normalize(&t).unwrap();
        let nd = dense.try_normalize(&t).unwrap();
        assert!(nd.len() > np.len(), "{} vs {}", nd.len(), np.len());
        // Consecutive interpolated points are at most ~step apart.
        for w in nd.points().windows(2) {
            assert!(w[0].haversine_distance(w[1]) <= 86.0);
        }
        // Endpoints preserved.
        assert_eq!(nd.points().first(), np.points().first());
        assert_eq!(nd.points().last(), np.points().last());
        // Deterministic.
        assert_eq!(nd, dense.try_normalize(&t).unwrap());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_interpolation_step_panics() {
        let net = grid_network(&GridConfig::default(), 42);
        let idx = SpatialIndex::build(&net, 300.0);
        let _ = MapMatchNormalizer::new(&net, &idx, MatchConfig::default()).with_interpolation(0.0);
    }

    /// The per-sample normalizer this module shipped before the one-pass
    /// kernel, kept verbatim as the differential oracle: a full
    /// `moving_average` pass, then the held cell's `bounds()` (and, for
    /// the margin, two haversines) re-decoded for every sample tested.
    fn normalize_reference(n: &GeohashNormalizer, trajectory: &Trajectory) -> Trajectory {
        let pts = trajectory.points();
        let input: Vec<Point> = if n.smoothing_window > 1 && pts.len() >= 2 {
            let half = n.smoothing_window / 2;
            (0..pts.len())
                .map(|i| {
                    let lo = i.saturating_sub(half);
                    let hi = (i + half + 1).min(pts.len());
                    let count = (hi - lo) as f64;
                    let lat = pts[lo..hi].iter().map(Point::lat).sum::<f64>() / count;
                    let lon = pts[lo..hi].iter().map(Point::lon).sum::<f64>() / count;
                    Point::clamped(lat, lon)
                })
                .collect()
        } else {
            pts.to_vec()
        };
        let margin_meters = |cell: &Geohash| -> f64 {
            if n.hysteresis_fraction == 0.0 {
                return 0.0;
            }
            let b = cell.bounds();
            n.hysteresis_fraction * b.width_meters().min(b.height_meters())
        };
        let mut out: Vec<Point> = Vec::new();
        let mut current: Option<Geohash> = None;
        for &p in &input {
            let h = Geohash::encode(p, n.depth).unwrap();
            match current {
                Some(c) if c == h => {}
                Some(c) => {
                    if distance_outside(p, &c.bounds()) > margin_meters(&c) {
                        out.push(h.center());
                        current = Some(h);
                    }
                }
                None => {
                    out.push(h.center());
                    current = Some(h);
                }
            }
        }
        Trajectory::new(out)
    }

    /// Every hysteresis × smoothing combination the differential suite
    /// sweeps, at the paper's depth and a coarse and a fine one.
    fn normalizer_grid() -> Vec<GeohashNormalizer> {
        let mut grid = Vec::new();
        for depth in [20u8, 36, 52] {
            for hysteresis in [0.0, 0.4, 1.0] {
                for window in [1usize, 9] {
                    grid.push(
                        GeohashNormalizer::new(depth)
                            .unwrap()
                            .with_hysteresis(hysteresis)
                            .with_smoothing_window(window),
                    );
                }
            }
        }
        grid
    }

    fn assert_matches_reference(t: &Trajectory) {
        for n in normalizer_grid() {
            let got = n.normalize(t);
            let want = normalize_reference(&n, t);
            assert_eq!(got.len(), want.len(), "{n:?}");
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!(
                    (a.lat().to_bits(), a.lon().to_bits()),
                    (b.lat().to_bits(), b.lon().to_bits()),
                    "{n:?}"
                );
            }
        }
    }

    /// A noisy walk of `steps` from `start`: `step_m` per sample along a
    /// slowly turning bearing, with lateral jitter from `noise`.
    fn random_walk(start: Point, step_m: f64, turns: &[f64], noise: &[(f64, f64)]) -> Trajectory {
        let mut at = start;
        let mut bearing = 0.0;
        turns
            .iter()
            .zip(noise)
            .map(|(turn, &(jitter_bearing, jitter_m))| {
                bearing += turn;
                at = at.destination(bearing, step_m);
                at.destination(jitter_bearing, jitter_m)
            })
            .collect()
    }

    #[test]
    fn one_pass_equals_reference_on_degenerate_inputs() {
        assert_matches_reference(&Trajectory::default());
        assert_matches_reference(&Trajectory::new(vec![p(51.5, -0.12)]));
        assert_matches_reference(&Trajectory::new(vec![p(51.5, -0.12); 12]));
        // Poles and both sides of the antimeridian, including the exact
        // domain corners.
        assert_matches_reference(&Trajectory::new(vec![
            p(90.0, 180.0),
            p(89.9999, -180.0),
            p(-90.0, 179.9999),
            p(-89.9999, -179.9999),
            p(0.0, 0.0),
        ]));
    }

    #[test]
    fn one_pass_equals_reference_on_boundary_flicker() {
        // Samples alternating across a cell edge at growing offsets sweep
        // the hysteresis threshold from well inside to well beyond it.
        for depth in [20u8, 36, 52] {
            let b = Geohash::encode(p(51.5074, -0.1278), depth)
                .unwrap()
                .bounds();
            let (w, h) = (b.max_lon() - b.min_lon(), b.max_lat() - b.min_lat());
            let flicker: Trajectory = (0..200)
                .map(|i| {
                    let reach = i as f64 / 100.0;
                    let side = if i % 2 == 0 { -1.0 } else { 1.0 };
                    Point::clamped(
                        b.max_lat() + side * reach * h * ((i % 3) as f64 / 2.0),
                        b.max_lon() + side * reach * w,
                    )
                })
                .collect();
            assert_matches_reference(&flicker);
        }
    }

    #[test]
    fn margin_shortcut_keeps_underflowing_distances() {
        // A sample 1e-300° south of a cell on the equator: `lat_m` is
        // positive but its square underflows, so the distance is 0 and a
        // zero margin holds the cell.
        let enc = CellEncoder::new(36).unwrap();
        let (row, col) = enc.row_col(p(0.0, 10.0));
        let b = enc.cell_bounds(row, col);
        assert_eq!(b.min_lat(), 0.0);
        let q = p(-1e-300, 10.0);
        assert_eq!(distance_outside(q, &b), 0.0);
        assert!(!outside_by_more_than(q, &b, 0.0));
        assert!(outside_by_more_than(p(-1e-100, 10.0), &b, 0.0));
    }

    proptest! {
        #[test]
        fn prop_margin_shortcuts_equal_the_distance_test(
            lat in -90.0f64..=90.0, lon in -180.0f64..=180.0, depth in 1u8..=64,
            off_lat in -3.0f64..3.0, off_lon in -3.0f64..3.0, scale in -12i32..2,
            pick in 0usize..8, fraction in 0.0f64..=1.0,
        ) {
            // A cell, a sample up to a few cell extents away from it, and
            // margins at and next to every value the shortcuts compare.
            let enc = CellEncoder::new(depth).unwrap();
            let (row, col) = enc.row_col(p(lat, lon));
            let b = enc.cell_bounds(row, col);
            let reach = 10f64.powi(scale);
            let q = Point::clamped(
                lat + off_lat * reach * (b.max_lat() - b.min_lat()).max(1e-9),
                lon + off_lon * reach * (b.max_lon() - b.min_lon()).max(1e-9),
            );
            let (dlat, dlon) = degrees_outside(q, &b);
            let lat_m = dlat * METERS_PER_DEG;
            let u = dlon * METERS_PER_DEG;
            let d = distance_outside(q, &b);
            let margin = [
                d,
                d.next_up(),
                d.next_down().max(0.0),
                lat_m,
                lat_m.next_down().max(0.0),
                (lat_m * lat_m + u * u).sqrt(),
                0.0,
                fraction * 200.0,
            ][pick];
            prop_assert_eq!(outside_by_more_than(q, &b, margin), d > margin);
        }

        #[test]
        fn prop_one_pass_equals_reference_on_random_walks(
            lat in -85.0f64..85.0, lon in -179.0f64..179.0,
            step_m in 1.0f64..120.0,
            turns in proptest::collection::vec(-25.0f64..25.0, 0..160),
            noise in proptest::collection::vec((0.0f64..360.0, 0.0f64..40.0), 160..161),
        ) {
            assert_matches_reference(&random_walk(p(lat, lon), step_m, &turns, &noise));
        }

        #[test]
        fn prop_one_pass_equals_reference_near_poles_and_antimeridian(
            pole in 0usize..2, lat_off in 0.0f64..0.02, lon_off in -0.02f64..0.02,
            step_m in 1.0f64..400.0,
            turns in proptest::collection::vec(-40.0f64..40.0, 0..120),
            noise in proptest::collection::vec((0.0f64..360.0, 0.0f64..60.0), 120..121),
        ) {
            // Start within ~2 km of a pole or of the antimeridian; walks
            // cross both (`destination` wraps longitude, clamps latitude).
            let near_pole = p(if pole == 0 { 90.0 - lat_off } else { lat_off - 90.0 }, lon_off * 9_000.0);
            assert_matches_reference(&random_walk(near_pole, step_m, &turns, &noise));
            let near_antimeridian = Point::clamped(lat_off * 4_000.0, if lon_off < 0.0 { -180.0 - lon_off } else { 180.0 - lon_off });
            assert_matches_reference(&random_walk(near_antimeridian, step_m, &turns, &noise));
        }
    }

    #[test]
    fn normalizers_are_object_safe() {
        let t: Trajectory = (0..3).map(|i| p(0.0, i as f64 * 0.01)).collect();
        let norms: Vec<Box<dyn Normalizer>> = vec![
            Box::new(IdentityNormalizer),
            Box::new(GeohashNormalizer::new(36).unwrap()),
        ];
        for n in &norms {
            let _ = n.normalize(&t);
        }
    }
}
