//! The serving topologies the workloads run against, hosted in this
//! process on loopback with pinned worker counts so that numbers do not
//! follow `available_parallelism`.

use geodabs_cluster::{ClusterIndex, ShardNode};
use geodabs_core::{Fingerprinter, GeodabConfig};
use geodabs_index::GeodabIndex;
use geodabs_serve::{Frontend, FrontendConfig, RunningServer, Server, ServerConfig};
use geodabs_wal::{SyncPolicy, Wal};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

/// Logical shards of the scatter topology (the paper's Figure 16 count).
pub const CLUSTER_SHARDS: u64 = 10_000;
/// Shard servers of the scatter topology.
pub const CLUSTER_NODES: usize = 2;

/// Mux workers of a `Server` or `Frontend` clients talk to.
const FRONT_WORKERS: usize = 2;
/// Mux workers of each shard server behind a frontend.
const SHARD_WORKERS: usize = 1;

const LOOPBACK: &str = "127.0.0.1:0";

fn server_config(workers: usize) -> ServerConfig {
    ServerConfig::builder()
        .shards(1)
        .mux_workers(workers)
        .build()
        .expect("non-zero shard and worker counts")
}

/// Running servers; dropping the deployment shuts them down and joins
/// their threads.
pub struct Deployment {
    /// Where clients connect.
    pub addr: SocketAddr,
    /// The shard servers behind a frontend (empty otherwise).
    pub shard_addrs: Vec<SocketAddr>,
    /// Front server first, so it stops scattering before its shards go.
    servers: Vec<RunningServer>,
}

impl Deployment {
    /// One `Server` hosting the monolithic index.
    pub fn monolith(index: GeodabIndex) -> std::io::Result<Deployment> {
        let server = Server::bind(LOOPBACK, index, server_config(FRONT_WORKERS))?;
        Ok(Deployment {
            addr: server.local_addr(),
            shard_addrs: Vec::new(),
            servers: vec![server.spawn()],
        })
    }

    /// One durable `Server`: every write is appended to a fresh log in
    /// `wal_dir` and fsynced before its ack, and the log is folded into
    /// a snapshot every `compact_every`.
    pub fn durable(
        index: GeodabIndex,
        wal_dir: &Path,
        compact_every: Duration,
    ) -> std::io::Result<Deployment> {
        let wal = Wal::open(wal_dir, SyncPolicy::Always)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let server = Server::bind(LOOPBACK, index, server_config(FRONT_WORKERS))?.with_durability(
            wal,
            0,
            Some(compact_every),
        );
        Ok(Deployment {
            addr: server.local_addr(),
            shard_addrs: Vec::new(),
            servers: vec![server.spawn()],
        })
    }

    /// One `Server` per shard node and a `Frontend` scattering to them.
    pub fn scatter(nodes: Vec<ShardNode>) -> std::io::Result<Deployment> {
        let router = *nodes.first().expect("at least one shard node").router();
        let mut shards = Vec::with_capacity(nodes.len());
        for node in nodes {
            shards.push(Server::bind(LOOPBACK, node, server_config(SHARD_WORKERS))?.spawn());
        }
        let shard_addrs: Vec<SocketAddr> = shards.iter().map(RunningServer::addr).collect();
        let config = FrontendConfig::builder()
            .mux_workers(FRONT_WORKERS)
            .build()
            .expect("non-zero worker count");
        let frontend = Frontend::bind(
            LOOPBACK,
            Fingerprinter::new(GeodabConfig::default()),
            router,
            shard_addrs.iter().map(SocketAddr::to_string).collect(),
            config,
        )?;
        let addr = frontend.local_addr();
        let mut servers = vec![frontend.spawn()];
        servers.extend(shards);
        Ok(Deployment {
            addr,
            shard_addrs,
            servers,
        })
    }

    /// Shuts every server down cleanly (a durable server syncs its log)
    /// and waits for its threads.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> std::io::Result<()> {
        let mut result = Ok(());
        for server in self.servers.drain(..) {
            if let Err(e) = server.shutdown() {
                result = Err(e);
            }
        }
        result
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The shard-node slices of a cluster, in node order.
pub fn shard_nodes(cluster: &ClusterIndex) -> Vec<ShardNode> {
    (0..cluster.router().num_nodes())
        .map(|node| cluster.shard_node(node).expect("node in range"))
        .collect()
}

/// An empty cluster in the scatter topology's shape.
pub fn empty_cluster() -> ClusterIndex {
    ClusterIndex::new(GeodabConfig::default(), CLUSTER_SHARDS, CLUSTER_NODES)
        .expect("non-zero shard and node counts")
}
