//! Distributed-serving e2e against the real `geodabs` binary: a
//! frontend process over shard-server processes must answer every
//! scenario query **bit-identical** to an in-process monolithic index;
//! SIGKILLing a shard mid-load must surface the *typed* unavailable
//! error (never a silently partial ranking) and the frontend must
//! recover without a restart; and on a WAL-enabled shard no
//! acknowledged write may be lost across the kill.

#![cfg(unix)]

use geodabs_cli::workload;
use geodabs_cluster::ShardRouter;
use geodabs_core::{Fingerprinter, GeodabConfig};
use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
use geodabs_serve::{Client, WireError};
use geodabs_traj::Trajectory;
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Spawns the binary with `args` and waits for its `listening on` line.
fn spawn_listening(args: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_geodabs"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn geodabs");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        assert!(Instant::now() < deadline, "process never came up");
        let line = lines
            .next()
            .expect("process exited before listening")
            .expect("read stdout");
        if let Some(rest) = line.strip_prefix("listening on") {
            break rest
                .split_whitespace()
                .next()
                .expect("addr token")
                .parse::<SocketAddr>()
                .expect("valid addr");
        }
    };
    // Keep draining so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, addr)
}

fn spawn_shard(addr: &str, shard_id: usize, extra: &[&str]) -> (Child, SocketAddr) {
    let shard_id = shard_id.to_string();
    let mut args = vec![
        "serve",
        "--addr",
        addr,
        "--shard-id",
        &shard_id,
        "--nodes",
        "2",
        "--threads",
        "4",
    ];
    args.extend_from_slice(extra);
    spawn_listening(&args)
}

fn spawn_frontend(shard_addrs: &[SocketAddr]) -> (Child, SocketAddr) {
    let shards = shard_addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    spawn_listening(&[
        "frontend",
        "--addr",
        "127.0.0.1:0",
        "--shards",
        &shards,
        "--threads",
        "4",
    ])
}

fn connect(addr: SocketAddr) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(client) => return client,
            Err(e) => {
                assert!(Instant::now() < deadline, "could not connect: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

fn micro_queries() -> Vec<Trajectory> {
    let scenario = workload::find("micro").expect("catalog has micro");
    workload::generate(&scenario)
        .queries()
        .iter()
        .map(|q| q.trajectory.clone())
        .collect()
}

fn micro_monolith() -> GeodabIndex {
    let scenario = workload::find("micro").expect("catalog has micro");
    let dataset = workload::generate(&scenario);
    let mut index = GeodabIndex::new(GeodabConfig::default());
    index.insert_batch(
        dataset
            .records()
            .iter()
            .map(|r| (r.id, &r.trajectory))
            .collect::<Vec<_>>(),
    );
    index
}

#[test]
fn two_process_cluster_is_bit_identical_and_survives_a_sigkilled_shard() {
    let monolith = micro_monolith();
    let options = SearchOptions::default().limit(10);
    let queries = micro_queries();

    // Two shard processes, each ingesting its slice of the micro
    // corpus at boot, plus the frontend coordinator.
    let (mut shard0, addr0) = spawn_shard("127.0.0.1:0", 0, &["--scenario", "micro"]);
    let (mut shard1, addr1) = spawn_shard("127.0.0.1:0", 1, &["--scenario", "micro"]);
    let (mut frontend, frontend_addr) = spawn_frontend(&[addr0, addr1]);
    let mut client = connect(frontend_addr);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.backend, "frontend");
    assert_eq!(stats.terms, 2, "terms slot = shard-server count");

    for query in &queries {
        assert_eq!(
            client.query(query, &options).expect("query"),
            monolith.search(query, &options),
            "scattered ranking diverged from the monolith"
        );
    }

    // SIGKILL shard 0: the next query *touching node 0* must fail with
    // the typed unavailable error — never a partial ranking. A
    // geographically localized corpus may route every scenario query to
    // one node, so probe at the fingerprint level with a term the
    // frontend's own router sends to node 0. (Queries that skip node 0
    // legitimately keep succeeding.)
    let config = GeodabConfig::default();
    let router = ShardRouter::new(config.prefix_bits(), 10_000, 2).expect("router");
    let probe_term = (0..u32::MAX)
        .find(|&g| router.node_of_geodab(g) == 0)
        .expect("some geodab routes to node 0");
    shard0.kill().expect("SIGKILL shard 0");
    shard0.wait().expect("reap shard 0");
    match client.query_fingerprints(&[probe_term], &options) {
        Err(WireError::Unavailable { node: 0, message }) => {
            assert!(!message.is_empty());
        }
        other => panic!("expected a typed Unavailable for node 0, got {other:?}"),
    }
    // Queries that never touch the dead node still answer exactly.
    for query in &queries {
        let fp = Fingerprinter::new(config).normalize_and_fingerprint(query);
        let shards = router.shards_for_terms(fp.ordered().iter().copied());
        if router.nodes_of_shards(&shards).contains(&0) {
            continue;
        }
        assert_eq!(
            client.query(query, &options).expect("survivor-only query"),
            monolith.search(query, &options)
        );
    }

    // Restart shard 0 on its old port: the frontend redials on the
    // next request and recovers with no restart of its own.
    let (mut reborn, _) = spawn_shard(&addr0.to_string(), 0, &["--scenario", "micro"]);
    let deadline = Instant::now() + Duration::from_secs(10);
    let expected = monolith.search_fingerprints(
        &geodabs_core::Fingerprints::from_ordered(vec![probe_term]),
        &options,
    );
    loop {
        match client.query_fingerprints(&[probe_term], &options) {
            Ok(hits) => {
                assert_eq!(hits, expected, "post-recovery ranking diverged");
                break;
            }
            Err(_) => {
                assert!(Instant::now() < deadline, "frontend never recovered");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    for child in [&mut reborn, &mut shard1, &mut frontend] {
        child.kill().expect("cleanup kill");
        child.wait().expect("reap");
    }
}

#[test]
fn acked_writes_on_wal_shards_survive_a_sigkill() {
    let scenario = workload::find("micro").expect("catalog has micro");
    let dataset = workload::generate(&scenario);
    let options = SearchOptions::default().limit(10);
    let queries = micro_queries();

    let dir = std::env::temp_dir().join(format!("geodabs-distributed-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal0 = dir.join("node0");
    let wal1 = dir.join("node1");
    std::fs::create_dir_all(&wal0).expect("mkdir");
    std::fs::create_dir_all(&wal1).expect("mkdir");

    // Both shards boot empty but durable (every acked mutation is
    // fsynced before the ack); all writes go through the frontend.
    let (mut shard0, addr0) = spawn_shard(
        "127.0.0.1:0",
        0,
        &[
            "--wal-dir",
            wal0.to_str().unwrap(),
            "--sync-policy",
            "always",
        ],
    );
    let (mut shard1, addr1) = spawn_shard(
        "127.0.0.1:0",
        1,
        &[
            "--wal-dir",
            wal1.to_str().unwrap(),
            "--sync-policy",
            "always",
        ],
    );
    let (mut frontend, frontend_addr) = spawn_frontend(&[addr0, addr1]);
    let mut client = connect(frontend_addr);

    let mut monolith = GeodabIndex::new(GeodabConfig::default());
    for record in dataset.records() {
        let len = client
            .insert(record.id, &record.trajectory)
            .expect("insert acked");
        monolith.insert(record.id, &record.trajectory);
        assert_eq!(len, monolith.len() as u64);
    }
    for query in &queries {
        assert_eq!(
            client.query(query, &options).expect("query"),
            monolith.search(query, &options)
        );
    }

    // SIGKILL shard 0 — no flush, no destructor — and bring it back on
    // the same port from its log alone. Every acknowledged write was
    // durable before its ack, so the rankings must be unchanged.
    shard0.kill().expect("SIGKILL shard 0");
    shard0.wait().expect("reap shard 0");
    let (mut reborn, _) = spawn_shard(
        &addr0.to_string(),
        0,
        &[
            "--wal-dir",
            wal0.to_str().unwrap(),
            "--sync-policy",
            "always",
        ],
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.query(&queries[0], &options) {
            Ok(hits) => {
                assert_eq!(
                    hits,
                    monolith.search(&queries[0], &options),
                    "acked write lost in replay"
                );
                break;
            }
            Err(_) => {
                assert!(Instant::now() < deadline, "frontend never recovered");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    for query in &queries {
        assert_eq!(
            client.query(query, &options).expect("query"),
            monolith.search(query, &options),
            "post-recovery ranking diverged from the monolith"
        );
    }

    for child in [&mut reborn, &mut shard1, &mut frontend] {
        child.kill().expect("cleanup kill");
        child.wait().expect("reap");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
