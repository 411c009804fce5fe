//! Fixtures shared by the serve integration suites: one corpus, one
//! query set and one way to boot each serving topology, so "the same
//! workload" means the same bytes in every suite.

// Each suite compiles this module separately and uses its own subset.
#![allow(dead_code)]

use geodabs_cluster::{ClusterIndex, ShardNode, ShardRouter};
use geodabs_core::{Fingerprinter, GeodabConfig};
use geodabs_geo::Point;
use geodabs_index::{GeodabIndex, TrajectoryIndex};
use geodabs_serve::{Frontend, FrontendConfig, RunningServer, Server, ServerConfig};
use geodabs_traj::{TrajId, Trajectory};

/// The paper's fine-grained logical shard count, scaled down enough to
/// keep the suites fast while still spreading terms across every node.
pub const NUM_SHARDS: u64 = 1_000;

pub fn eastward(n: usize, offset_m: f64) -> Trajectory {
    let start = Point::new(51.5074, -0.1278).unwrap();
    (0..n)
        .map(|i| start.destination(90.0, offset_m + i as f64 * 90.0))
        .collect()
}

/// A small but non-trivial corpus: forward/reverse pairs at several
/// offsets, so queries see real rankings with distance ties (a
/// merge-order bug cannot hide) spread across shards by the Z-curve
/// prefixes.
pub fn corpus() -> Vec<(TrajId, Trajectory)> {
    let mut items = Vec::new();
    for route in 0..10u32 {
        let path = eastward(40, route as f64 * 400.0);
        items.push((TrajId::new(route * 2), path.clone()));
        items.push((TrajId::new(route * 2 + 1), path.reversed()));
    }
    items
}

/// The monolithic reference index over [`corpus`].
pub fn build_index() -> GeodabIndex {
    let mut index = GeodabIndex::new(GeodabConfig::default());
    for (id, trajectory) in corpus() {
        index.insert(id, &trajectory);
    }
    index
}

pub fn queries() -> Vec<Trajectory> {
    (0..8)
        .map(|i| {
            eastward(40, i as f64 * 400.0)
                .iter()
                .map(|p| p.destination(45.0, 6.0))
                .collect()
        })
        .collect()
}

pub fn server_config(shards: usize, mux_workers: usize) -> ServerConfig {
    ServerConfig::builder()
        .shards(shards)
        .mux_workers(mux_workers)
        .build()
        .unwrap()
}

/// A fresh per-test WAL directory under the system temp root.
pub fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("geodabs-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create wal dir");
    dir
}

/// Boots one shard server per [`ShardNode`] slice plus a frontend over
/// them (`mux_workers` each), all on OS-assigned loopback ports.
pub fn boot(slices: Vec<ShardNode>, mux_workers: usize) -> (Vec<RunningServer>, RunningServer) {
    boot_with(slices, mux_workers, |_, server| server)
}

/// [`boot`], with each bound shard server passed through `prepare`
/// (given its node id) before it starts serving — e.g. to make it
/// durable.
pub fn boot_with(
    slices: Vec<ShardNode>,
    mux_workers: usize,
    mut prepare: impl FnMut(usize, Server<ShardNode>) -> Server<ShardNode>,
) -> (Vec<RunningServer>, RunningServer) {
    let nodes = slices.len();
    let mut servers = Vec::with_capacity(nodes);
    let mut addrs = Vec::with_capacity(nodes);
    for (node, slice) in slices.into_iter().enumerate() {
        let server = Server::bind("127.0.0.1:0", slice, server_config(1, mux_workers))
            .expect("bind shard server");
        addrs.push(server.local_addr().to_string());
        servers.push(prepare(node, server).spawn());
    }
    let config = GeodabConfig::default();
    let router = ShardRouter::new(config.prefix_bits(), NUM_SHARDS, nodes).expect("router");
    let frontend = Frontend::bind(
        "127.0.0.1:0",
        Fingerprinter::new(config),
        router,
        addrs,
        FrontendConfig::builder()
            .mux_workers(mux_workers)
            .build()
            .unwrap(),
    )
    .expect("bind frontend")
    .spawn();
    (servers, frontend)
}

/// Slices `index`'s corpus through one cluster ingest — the state each
/// of `nodes` shard servers would hold after a live ingest.
pub fn slices_of(index: &GeodabIndex, nodes: usize) -> Vec<ShardNode> {
    let mut cluster = ClusterIndex::new(*index.config(), NUM_SHARDS, nodes).expect("cluster");
    for (id, fp) in index.iter_fingerprints() {
        cluster.insert_fingerprints(id, fp.clone());
    }
    (0..nodes)
        .map(|node| cluster.shard_node(node).expect("node in range"))
        .collect()
}

pub fn empty_slices(nodes: usize) -> Vec<ShardNode> {
    (0..nodes)
        .map(|node| {
            ShardNode::new(GeodabConfig::default(), NUM_SHARDS, nodes, node).expect("shard node")
        })
        .collect()
}
