//! Crash-recovery e2e against the real `geodabs` binary: a durable
//! server is SIGKILLed mid-stream and must come back with **zero acked
//! writes lost**; replay must be idempotent across repeated crashes;
//! and SIGTERM must flush even a `--sync-policy never` log through the
//! clean-shutdown path.

#![cfg(unix)]

use geodabs_cli::workload;
use geodabs_index::SearchOptions;
use geodabs_serve::Client;
use geodabs_traj::{TrajId, Trajectory};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "geodabs-crash-recovery-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create wal dir");
    dir
}

/// Spawns `geodabs serve` on an OS-assigned port and waits for the
/// `listening on` line. Returns the child and the resolved address.
fn spawn_serve(dir: &Path, sync_policy: &str) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_geodabs"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scenario",
            "micro",
            "--threads",
            "2",
            "--wal-dir",
            dir.to_str().expect("utf8 dir"),
            "--sync-policy",
            sync_policy,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn geodabs serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        assert!(Instant::now() < deadline, "server never came up");
        let line = lines
            .next()
            .expect("server exited before listening")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("listening on") {
            break rest
                .split_whitespace()
                .next()
                .expect("addr token")
                .parse::<SocketAddr>()
                .expect("valid addr");
        }
    };
    // Keep draining in the background so the child never blocks on a
    // full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, addr)
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

/// The micro scenario's corpus, reused as a source of trajectories to
/// insert under fresh ids the server has never seen.
fn micro_corpus() -> Vec<Trajectory> {
    let scenario = workload::find("micro").expect("catalog has micro");
    workload::generate(&scenario)
        .records()
        .iter()
        .map(|r| r.trajectory.clone())
        .collect()
}

#[test]
fn sigkill_loses_no_acked_writes_and_replay_is_idempotent() {
    let dir = wal_dir("sigkill");
    let corpus = micro_corpus();
    let base = corpus.len() as u64; // 40: the scenario ingest

    // Serve durably and stream acknowledged mutations: 12 fresh
    // inserts, one replace, one remove — every ack fsynced.
    let (mut child, addr) = spawn_serve(&dir, "always");
    let mut client = connect(addr);
    for i in 0..12u32 {
        client
            .insert(TrajId::new(1000 + i), &corpus[i as usize])
            .expect("insert acked");
    }
    client
        .insert(TrajId::new(1001), &corpus[5])
        .expect("replace acked");
    assert!(client.remove(TrajId::new(1000)).expect("remove acked"));
    let stats = client.stats_durable().expect("stats");
    assert_eq!(stats.trajectories, base + 12 - 1);
    assert_eq!(
        stats.durability.expect("durable server").last_durable_seq,
        14
    );

    // SIGKILL: no flush, no destructor, nothing. The acks above were
    // durable *before* they were sent, so nothing may be lost.
    child.kill().expect("SIGKILL the server");
    child.wait().expect("reap");

    for round in 0..2 {
        let (mut child, addr) = spawn_serve(&dir, "always");
        let mut client = connect(addr);
        let stats = client.stats_durable().expect("stats after recovery");
        assert_eq!(
            stats.trajectories,
            base + 12 - 1,
            "round {round}: acked writes lost or duplicated"
        );
        // The replaced id must rank for its *new* trajectory…
        let hits = client
            .query(&corpus[5], &SearchOptions::default().limit(10))
            .expect("query");
        assert!(
            hits.iter().any(|h| h.id == TrajId::new(1001)),
            "round {round}: replaced id lost its new shape: {hits:?}"
        );
        // …and the removed id must stay removed.
        assert!(
            !client.remove(TrajId::new(1000)).expect("re-remove"),
            "round {round}: removed id came back"
        );
        // That re-remove was a no-op server-side mutation of a missing
        // id; put the count beyond doubt before the next crash.
        assert_eq!(
            client.stats_durable().expect("stats").trajectories,
            base + 12 - 1
        );
        // Crash again: the second round replays the same log over a
        // fresh scenario ingest — idempotency, not accumulation.
        child.kill().expect("SIGKILL the server");
        child.wait().expect("reap");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_flushes_a_never_synced_log_through_clean_shutdown() {
    let dir = wal_dir("sigterm");
    let corpus = micro_corpus();
    let base = corpus.len() as u64;

    // `--sync-policy never`: acks do NOT imply durability; only the
    // clean-shutdown flush makes these writes survive.
    let (mut child, addr) = spawn_serve(&dir, "never");
    let mut client = connect(addr);
    for i in 0..5u32 {
        client
            .insert(TrajId::new(2000 + i), &corpus[i as usize])
            .expect("insert acked");
    }
    drop(client);

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "server ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "SIGTERM exit was not clean: {status}");

    // Restart: the flushed log must replay all five inserts.
    let (mut child, addr) = spawn_serve(&dir, "never");
    let mut client = connect(addr);
    let stats = client.stats_durable().expect("stats after restart");
    assert_eq!(stats.trajectories, base + 5, "flushed writes lost");
    assert_eq!(
        stats.durability.expect("durable server").last_durable_seq,
        5
    );
    child.kill().expect("cleanup kill");
    child.wait().expect("reap");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_log_that_does_not_continue_its_snapshot_exits_nonzero() {
    use geodabs_index::store::{self, Persist};
    use geodabs_index::GeodabIndex;
    use geodabs_serve::WAL_SNAPSHOT_FILE;
    use geodabs_wal::{SyncPolicy, Wal, WalOp};

    let corpus = micro_corpus();
    let insert = |i: usize| WalOp::Insert {
        id: TrajId::new(3000 + i as u32),
        trajectory: corpus[i].clone(),
    };
    // Both commands refuse before serving or writing anything, naming
    // the gap on stderr.
    let refuses = |dir: &Path| {
        for args in [
            vec!["wal", "replay", "--dir", dir.to_str().expect("utf8 dir")],
            vec![
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--duration",
                "5",
                "--wal-dir",
                dir.to_str().expect("utf8 dir"),
            ],
        ] {
            let output = Command::new(env!("CARGO_BIN_EXE_geodabs"))
                .args(&args)
                .output()
                .expect("run geodabs");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(!output.status.success(), "{args:?} accepted a gapped log");
            assert!(stderr.contains("log gap"), "{args:?}: {stderr}");
        }
    };

    // Compacted and pruned, then copied without its snapshot: the log
    // starts at seq 3 over an empty index.
    let dir = wal_dir("gap-start");
    let mut wal = Wal::open(&dir, SyncPolicy::Always).expect("open wal");
    wal.append(&insert(0)).expect("append");
    wal.append(&insert(1)).expect("append");
    let watermark = wal.rotate().expect("rotate");
    wal.prune(watermark).expect("prune");
    wal.append(&insert(2)).expect("append");
    drop(wal);
    refuses(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    // A snapshot stamped at seq 5 beside a log restarted at seq 1.
    let dir = wal_dir("gap-end");
    let snapshot = GeodabIndex::new(Default::default()).to_snapshot();
    let stamped = store::with_watermark(&snapshot, 5).expect("stamp");
    std::fs::write(dir.join(WAL_SNAPSHOT_FILE), stamped).expect("write snapshot");
    let mut wal = Wal::open(&dir, SyncPolicy::Always).expect("open wal");
    wal.append(&insert(0)).expect("append");
    drop(wal);
    refuses(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}
