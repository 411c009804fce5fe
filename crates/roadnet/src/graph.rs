use geodabs_geo::{BoundingBox, GeoError, Point};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::RoadNetError;

/// Identifier of a node in a [`RoadNetwork`].
///
/// Node ids are dense indexes assigned by [`RoadNetwork::add_node`] and are
/// only meaningful for the network that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Builds a node id from a raw index.
    ///
    /// Mostly useful in tests; regular code should use the ids returned by
    /// [`RoadNetwork::add_node`] or [`RoadNetwork::node_ids`].
    pub fn new(index: u32) -> NodeId {
        NodeId(index)
    }

    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A directed road segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    to: NodeId,
    length_m: f64,
    speed_mps: f64,
}

impl Edge {
    /// Destination node.
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// Segment length in meters.
    pub fn length_meters(&self) -> f64 {
        self.length_m
    }

    /// Free-flow speed in meters per second.
    pub fn speed_mps(&self) -> f64 {
        self.speed_mps
    }

    /// Traversal time in seconds at free-flow speed.
    pub fn duration_seconds(&self) -> f64 {
        self.length_m / self.speed_mps
    }
}

/// A directed road network with geographic nodes.
///
/// This is the substrate that replaces OpenStreetMap + GraphHopper in the
/// reproduction: routes are generated as shortest paths on this graph and
/// map matching snaps noisy trajectories back onto its nodes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoadNetwork {
    points: Vec<Point>,
    adjacency: Vec<Vec<Edge>>,
}

impl RoadNetwork {
    /// Creates an empty network.
    pub fn new() -> RoadNetwork {
        RoadNetwork::default()
    }

    /// Adds a node at the given point and returns its id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = NodeId(u32::try_from(self.points.len()).expect("more than u32::MAX nodes"));
        self.points.push(point);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds a directed edge with the given free-flow speed; the length is
    /// the haversine distance between the endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`RoadNetError::UnknownNode`] if either endpoint does not
    /// exist.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not strictly positive.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        speed_mps: f64,
    ) -> Result<(), RoadNetError> {
        assert!(speed_mps > 0.0, "edge speed must be positive");
        let (a, b) = (self.point(from)?, self.point(to)?);
        let length_m = a.haversine_distance(b);
        self.adjacency[from.index()].push(Edge {
            to,
            length_m,
            speed_mps,
        });
        Ok(())
    }

    /// Adds edges in both directions between two nodes.
    ///
    /// # Errors
    ///
    /// Returns [`RoadNetError::UnknownNode`] if either endpoint does not
    /// exist.
    pub fn add_edge_bidirectional(
        &mut self,
        a: NodeId,
        b: NodeId,
        speed_mps: f64,
    ) -> Result<(), RoadNetError> {
        self.add_edge(a, b, speed_mps)?;
        self.add_edge(b, a, speed_mps)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// The location of a node.
    ///
    /// # Errors
    ///
    /// Returns [`RoadNetError::UnknownNode`] for ids from another network.
    pub fn point(&self, node: NodeId) -> Result<Point, RoadNetError> {
        self.points
            .get(node.index())
            .copied()
            .ok_or(RoadNetError::UnknownNode(node))
    }

    /// Outgoing edges of a node.
    ///
    /// # Errors
    ///
    /// Returns [`RoadNetError::UnknownNode`] for ids from another network.
    pub fn edges(&self, node: NodeId) -> Result<&[Edge], RoadNetError> {
        self.adjacency
            .get(node.index())
            .map(Vec::as_slice)
            .ok_or(RoadNetError::UnknownNode(node))
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        (0..self.points.len() as u32).map(NodeId)
    }

    /// Iterates over all node locations in id order.
    pub fn node_points(&self) -> impl ExactSizeIterator<Item = Point> + '_ {
        self.points.iter().copied()
    }

    /// The bounding box enclosing every node.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::EmptyPointSet`] for an empty network.
    pub fn bounds(&self) -> Result<BoundingBox, GeoError> {
        BoundingBox::enclosing(self.points.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new(lat, lon).unwrap()
    }

    fn triangle() -> (RoadNetwork, NodeId, NodeId, NodeId) {
        let mut net = RoadNetwork::new();
        let a = net.add_node(p(0.0, 0.0));
        let b = net.add_node(p(0.0, 0.01));
        let c = net.add_node(p(0.01, 0.0));
        net.add_edge_bidirectional(a, b, 10.0).unwrap();
        net.add_edge_bidirectional(b, c, 10.0).unwrap();
        net.add_edge(a, c, 5.0).unwrap();
        (net, a, b, c)
    }

    #[test]
    fn counts_and_ids() {
        let (net, a, b, c) = triangle();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.edge_count(), 5);
        assert_eq!(net.node_ids().collect::<Vec<_>>(), vec![a, b, c]);
    }

    #[test]
    fn edge_lengths_are_haversine() {
        let (net, a, _, _) = triangle();
        let e = &net.edges(a).unwrap()[0];
        // 0.01 degrees of longitude at the equator is ~1112 m.
        assert!(
            (e.length_meters() - 1_112.0).abs() < 5.0,
            "{}",
            e.length_meters()
        );
        assert!((e.duration_seconds() - e.length_meters() / 10.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_node_errors() {
        let (mut net, a, _, _) = triangle();
        let ghost = NodeId::new(99);
        assert_eq!(net.point(ghost), Err(RoadNetError::UnknownNode(ghost)));
        assert_eq!(
            net.edges(ghost).err(),
            Some(RoadNetError::UnknownNode(ghost))
        );
        assert_eq!(
            net.add_edge(a, ghost, 10.0),
            Err(RoadNetError::UnknownNode(ghost))
        );
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_panics() {
        let (mut net, a, b, _) = triangle();
        let _ = net.add_edge(a, b, 0.0);
    }

    #[test]
    fn bounds_cover_all_nodes() {
        let (net, _, _, _) = triangle();
        let bb = net.bounds().unwrap();
        for q in net.node_points() {
            assert!(bb.contains(q));
        }
        assert!(RoadNetwork::new().bounds().is_err());
    }

    #[test]
    fn node_id_display_and_accessors() {
        let id = NodeId::new(7);
        assert_eq!(id.to_string(), "7");
        assert_eq!(id.index(), 7);
    }
}
