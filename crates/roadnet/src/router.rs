//! Shortest-path routing on a [`RoadNetwork`].
//!
//! This is the substrate that replaces the GraphHopper library (the paper's
//! ref \[16\]): routes between random endpoints become the ground-truth paths
//! from which the synthetic trajectory dataset is sampled, using the route
//! duration for the speed of the moving entity.

use geodabs_geo::Point;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{NodeId, RoadNetError, RoadNetwork};

/// What a shortest path minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Minimize free-flow travel time (the GraphHopper default).
    #[default]
    TravelTime,
    /// Minimize geometric length.
    Distance,
}

/// A path through the road network with its geometry and cost summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    nodes: Vec<NodeId>,
    points: Vec<Point>,
    length_m: f64,
    duration_s: f64,
}

impl Route {
    /// The node sequence, starting at the origin.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The node locations, aligned with [`Route::nodes`].
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Total geometric length in meters.
    pub fn length_meters(&self) -> f64 {
        self.length_m
    }

    /// Total free-flow travel time in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.duration_s
    }

    /// A route in the opposite direction over the same nodes.
    ///
    /// The synthetic dataset generator uses this for the return-path
    /// trajectories that make the geohash baseline collapse to 0.5
    /// precision in Figure 12. Length and duration are kept, which assumes
    /// roughly symmetric roads.
    pub fn reversed(&self) -> Route {
        Route {
            nodes: self.nodes.iter().rev().copied().collect(),
            points: self.points.iter().rev().copied().collect(),
            length_m: self.length_m,
            duration_s: self.duration_s,
        }
    }
}

#[derive(Debug)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.node == other.node
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on cost.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest path by free-flow travel time (Dijkstra).
///
/// # Errors
///
/// Returns [`RoadNetError::UnknownNode`] for foreign ids and
/// [`RoadNetError::NoPath`] if `to` is unreachable from `from`.
pub fn shortest_path(net: &RoadNetwork, from: NodeId, to: NodeId) -> Result<Route, RoadNetError> {
    shortest_path_with(net, from, to, Metric::TravelTime)
}

/// Shortest path under the chosen [`Metric`] (Dijkstra).
///
/// # Errors
///
/// Same as [`shortest_path`].
pub fn shortest_path_with(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    metric: Metric,
) -> Result<Route, RoadNetError> {
    net.point(from)?;
    net.point(to)?;
    let n = net.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[from.index()] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: from,
    });
    while let Some(HeapEntry { node, .. }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        if node == to {
            break;
        }
        let base = dist[node.index()];
        for edge in net.edges(node)? {
            let weight = match metric {
                Metric::TravelTime => edge.duration_seconds(),
                Metric::Distance => edge.length_meters(),
            };
            let next = base + weight;
            let t = edge.to();
            if next < dist[t.index()] {
                dist[t.index()] = next;
                prev[t.index()] = Some(node);
                heap.push(HeapEntry {
                    cost: next,
                    node: t,
                });
            }
        }
    }
    if !settled[to.index()] && from != to {
        return Err(RoadNetError::NoPath(from, to));
    }
    // Reconstruct the node sequence.
    let mut nodes = vec![to];
    let mut cur = to;
    while let Some(p) = prev[cur.index()] {
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    build_route(net, nodes)
}

/// Assembles a [`Route`] from an explicit node sequence, summing the actual
/// edge lengths and durations (each consecutive pair must be connected).
///
/// # Errors
///
/// Returns [`RoadNetError::UnknownNode`] for foreign ids and
/// [`RoadNetError::NoPath`] if a consecutive pair has no connecting edge.
pub fn build_route(net: &RoadNetwork, nodes: Vec<NodeId>) -> Result<Route, RoadNetError> {
    if nodes.is_empty() {
        return Err(RoadNetError::EmptyNetwork);
    }
    let mut points = Vec::with_capacity(nodes.len());
    for &n in &nodes {
        points.push(net.point(n)?);
    }
    let mut length_m = 0.0;
    let mut duration_s = 0.0;
    for w in nodes.windows(2) {
        let edge = net
            .edges(w[0])?
            .iter()
            .find(|e| e.to() == w[1])
            .ok_or(RoadNetError::NoPath(w[0], w[1]))?;
        length_m += edge.length_meters();
        duration_s += edge.duration_seconds();
    }
    Ok(Route {
        nodes,
        points,
        length_m,
        duration_s,
    })
}

/// Bounded single-source Dijkstra by geometric distance.
///
/// Returns, for every node reachable within `cutoff_m` meters, its network
/// distance from `from`. Used by map matching to score transitions between
/// candidate nodes of consecutive trajectory points.
///
/// # Errors
///
/// Returns [`RoadNetError::UnknownNode`] if `from` is foreign.
pub fn distances_within(
    net: &RoadNetwork,
    from: NodeId,
    cutoff_m: f64,
) -> Result<Vec<(NodeId, f64)>, RoadNetError> {
    net.point(from)?;
    let n = net.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    let mut out = Vec::new();
    dist[from.index()] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: from,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        out.push((node, cost));
        for edge in net.edges(node)? {
            let next = cost + edge.length_meters();
            let t = edge.to();
            if next <= cutoff_m && next < dist[t.index()] {
                dist[t.index()] = next;
                heap.push(HeapEntry {
                    cost: next,
                    node: t,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new(lat, lon).unwrap()
    }

    /// A 1D chain a - b - c - d plus a slow shortcut a -> d.
    fn chain() -> (RoadNetwork, Vec<NodeId>) {
        let mut net = RoadNetwork::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| net.add_node(p(0.0, i as f64 * 0.01)))
            .collect();
        for w in ids.windows(2) {
            net.add_edge_bidirectional(w[0], w[1], 20.0).unwrap();
        }
        // Direct but slow edge: same distance, quarter the speed.
        net.add_edge(ids[0], ids[3], 5.0).unwrap();
        (net, ids)
    }

    #[test]
    fn dijkstra_prefers_fast_multi_hop_path() {
        let (net, ids) = chain();
        let r = shortest_path(&net, ids[0], ids[3]).unwrap();
        assert_eq!(r.nodes(), &[ids[0], ids[1], ids[2], ids[3]]);
        assert!((r.length_meters() - 3.0 * 1_112.0).abs() < 20.0);
        assert!((r.duration_seconds() - r.length_meters() / 20.0).abs() < 1e-9);
    }

    #[test]
    fn distance_metric_prefers_direct_edge() {
        let (net, ids) = chain();
        let r = shortest_path_with(&net, ids[0], ids[3], Metric::Distance).unwrap();
        assert_eq!(r.nodes(), &[ids[0], ids[3]]);
    }

    #[test]
    fn route_to_self_is_single_node() {
        let (net, ids) = chain();
        let r = shortest_path(&net, ids[1], ids[1]).unwrap();
        assert_eq!(r.nodes(), &[ids[1]]);
        assert_eq!(r.length_meters(), 0.0);
    }

    #[test]
    fn unreachable_node_errors() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(p(0.0, 0.0));
        let b = net.add_node(p(0.0, 1.0));
        assert_eq!(shortest_path(&net, a, b), Err(RoadNetError::NoPath(a, b)));
    }

    #[test]
    fn directed_edges_are_one_way() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(p(0.0, 0.0));
        let b = net.add_node(p(0.0, 0.01));
        net.add_edge(a, b, 10.0).unwrap();
        assert!(shortest_path(&net, a, b).is_ok());
        assert_eq!(shortest_path(&net, b, a), Err(RoadNetError::NoPath(b, a)));
    }

    #[test]
    fn reversed_route_flips_geometry() {
        let (net, ids) = chain();
        let r = shortest_path(&net, ids[0], ids[3]).unwrap();
        let rev = r.reversed();
        assert_eq!(rev.nodes().first(), r.nodes().last());
        assert_eq!(rev.nodes().last(), r.nodes().first());
        assert_eq!(rev.length_meters(), r.length_meters());
        assert_eq!(rev.points().first(), r.points().last());
    }

    #[test]
    fn build_route_validates_connectivity() {
        let (net, ids) = chain();
        assert!(build_route(&net, vec![ids[0], ids[1]]).is_ok());
        assert_eq!(
            build_route(&net, vec![ids[1], ids[3]]),
            Err(RoadNetError::NoPath(ids[1], ids[3]))
        );
        assert!(build_route(&net, vec![]).is_err());
    }

    #[test]
    fn distances_within_respects_cutoff() {
        let (net, ids) = chain();
        // ~1112 m per hop; cutoff at 1.5 hops reaches only the neighbor.
        let d = distances_within(&net, ids[0], 1_700.0).unwrap();
        let reached: Vec<NodeId> = d.iter().map(|&(n, _)| n).collect();
        assert!(reached.contains(&ids[0]));
        assert!(reached.contains(&ids[1]));
        assert!(!reached.contains(&ids[2]));
        // Distances are sorted by settle order (non-decreasing).
        assert!(d.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn distances_within_covers_whole_component_with_large_cutoff() {
        let (net, ids) = chain();
        let d = distances_within(&net, ids[0], f64::INFINITY).unwrap();
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn foreign_ids_error() {
        let (net, _) = chain();
        let ghost = NodeId::new(1000);
        assert!(shortest_path(&net, ghost, ghost).is_err());
        assert!(distances_within(&net, ghost, 10.0).is_err());
    }
}
