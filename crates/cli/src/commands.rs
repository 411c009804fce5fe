//! The command table and what it drives. Each command path is declared
//! once, in [`TABLE`]: [`Args::parse`] accepts only a table entry and the
//! flags its usage line names, [`run`] calls the entry's function,
//! [`help`] prints every usage line, and [`usage`] prints those of the
//! path a parse error names. The commands themselves live in one module
//! per family.

mod corpus;
mod loadtest;
mod serve;
mod snapshot;
mod wal;

use geodabs_cluster::ShardNode;
use geodabs_core::GeodabConfig;
use geodabs_gen::dataset::Dataset;
use geodabs_serve::AnyIndex;
use std::error::Error;
use std::io::Write;

use crate::workload::{self, Scenario};
use crate::Args;

/// One command path: `geodabs NAME USAGE`.
#[derive(Debug)]
pub struct Command {
    /// The command, followed by its action where it takes one
    /// (`"snapshot save"`).
    pub name: &'static str,
    /// The flags, as `geodabs help` prints them; a newline continues them
    /// on the next help line. This is also the flag spec: every `--flag`
    /// in it is accepted, and a bracketed `[--flag]` alone is a switch
    /// that takes no value.
    pub usage: &'static str,
    run: Run,
}

/// What runs a command path.
type Run = fn(&Args, &mut dyn Write) -> Result<(), Box<dyn Error>>;

/// Entries compare by name, which is unique in the table.
impl PartialEq for Command {
    fn eq(&self, other: &Command) -> bool {
        self.name == other.name
    }
}

impl Command {
    const fn new(name: &'static str, usage: &'static str, run: Run) -> Command {
        Command { name, usage, run }
    }

    /// The first word of the name.
    pub fn command(&self) -> &'static str {
        self.name.split(' ').next().unwrap_or_default()
    }

    /// The action, for the commands that take one.
    pub fn action(&self) -> Option<&'static str> {
        self.name.split_once(' ').map(|(_, action)| action)
    }

    /// Whether the usage accepts `--flag` as a switch (`Some(true)`) or
    /// with a value (`Some(false)`); `None` when it does not name it.
    pub fn switch(&self, flag: &str) -> Option<bool> {
        self.usage.split_whitespace().find_map(|token| {
            let named = token.trim_start_matches(['(', '[']).strip_prefix("--")?;
            (named.trim_end_matches([')', ']']) == flag).then(|| token == format!("[--{flag}]"))
        })
    }
}

/// Every command path the binary understands.
pub const TABLE: &[Command] = &[
    Command::new(
        "build",
        "--out FILE [--routes N] [--per-direction M] [--seed S]",
        corpus::build,
    ),
    Command::new("stats", "--index FILE", corpus::stats),
    Command::new(
        "search",
        "--index FILE [--routes N] [--per-direction M] [--seed S]\n\
                [--query Q] [--limit K]",
        corpus::search,
    ),
    Command::new(
        "tune",
        "[--routes N] [--per-direction M] [--seed S] [--steps T]",
        corpus::tune,
    ),
    Command::new(
        "world",
        "[--trajectories N] [--cities C] [--seed S]",
        corpus::world,
    ),
    Command::new(
        "export",
        "--out FILE.csv [--routes N] [--per-direction M] [--seed S]",
        corpus::export,
    ),
    Command::new(
        "snapshot save",
        "--out FILE [--backend geodab|cluster] [--scenario NAME]\n\
                [--seed S] [--nodes N] [--shards P]",
        snapshot::save,
    ),
    Command::new(
        "snapshot load",
        "--in FILE [--verify rebuild] [--scenario NAME] [--seed S]",
        snapshot::load,
    ),
    Command::new("snapshot inspect", "--in FILE [--json]", snapshot::inspect),
    Command::new(
        "serve",
        "--addr HOST:PORT\n\
                (--snapshot FILE | --scenario NAME | --wal-dir DIR)\n\
                [--backend geodab|cluster] [--seed S] [--threads T]\n\
                [--serve-shards C] [--verify rebuild] [--duration SECS]\n\
                [--nodes N] [--shards P] [--shard-id I]\n\
                [--sync-policy always|never|interval[:MS]]\n\
                [--compact-every SECS]",
        serve::serve,
    ),
    Command::new(
        "frontend",
        "--addr HOST:PORT --shards ADDR,ADDR,...\n\
                [--threads T] [--duration SECS] [--num-shards P]",
        serve::frontend,
    ),
    Command::new(
        "loadtest",
        "--addr HOST:PORT [--connections N] [--duration SECS]\n\
                [--scenario NAME] [--seed S] [--limit K]\n\
                [--verify local|none] [--server-metrics]",
        loadtest::loadtest,
    ),
    Command::new(
        "metrics",
        "--addr HOST:PORT [--top N] [--text] [--out FILE]",
        loadtest::metrics,
    ),
    Command::new("wal inspect", "--dir DIR", wal::inspect),
    Command::new(
        "wal replay",
        "--dir DIR [--out FILE] [--backend geodab|cluster]\n\
                [--nodes N] [--shards P] [--shard-id I]",
        wal::replay,
    ),
    Command::new("help", "", |_, out| Ok(write!(out, "{}", help())?)),
];

/// Runs the command path `args` names, writing human-readable output to
/// `out`.
///
/// # Errors
///
/// Propagates flag, I/O, decoding and generation errors.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    (args.entry().run)(args, out)
}

/// The table entry `argv` names: its command, and its action where the
/// command takes one.
pub fn lookup(argv: &[String]) -> Option<&'static Command> {
    let word = |i: usize| argv.get(i).map(String::as_str);
    TABLE
        .iter()
        .find(|c| word(0) == Some(c.command()) && (c.action().is_none() || word(1) == c.action()))
}

/// The USAGE block: the usage lines of `entry`, or of every [`TABLE`]
/// entry when there is none.
pub fn usage(entry: Option<&Command>) -> String {
    let entries = entry.map_or(TABLE, std::slice::from_ref);
    let width = entries.iter().map(|c| c.name.len()).max().unwrap_or(0);
    let mut text = String::from("USAGE:\n");
    for command in entries {
        let mut lead = format!("  geodabs {:<width$}", command.name);
        for line in command.usage.split('\n') {
            text.push_str(format!("{lead} {line}").trim_end());
            text.push('\n');
            lead = " ".repeat(lead.len());
        }
    }
    text
}

/// The help text: every [`TABLE`] entry's usage, then the notes.
pub fn help() -> String {
    format!(
        "geodabs — trajectory indexing with fingerprints (ICDCS 2018 reproduction)\n\n{}\n{NOTES}",
        usage(None)
    )
}

/// What `geodabs help` says after the usage lines.
const NOTES: &str = "\
Datasets are synthetic and reproducible: the same (routes, per-direction,
seed) triple always generates the same trajectories, so `search` can
regenerate its query workload against a persisted index. --scenario
names a seed-reproducible corpus (`micro` by default; an unknown name
lists the catalog). This tool checks behaviour; the stack is
benchmarked by the separate `bench/stack` package.

`snapshot save` ingests a scenario's corpus (default: micro) into
the chosen backend and writes a GDAB v2 snapshot; `load` restores it
(any backend, v1 blobs included) and with `--verify rebuild` re-ingests
the same corpus and fails unless both answer every scenario query
identically; `inspect` prints the container header and section table
without materializing the index.

`serve` hosts an index over the binary wire protocol: warm-started from
a GDAB v2 snapshot (--snapshot) or freshly ingested from a scenario
(--scenario), behind a connection multiplexer of T workers
(default: all cores) — each worker sweeps many non-blocking
connections, so T sizes parallelism, not the concurrent-connection
capacity. `--serve-shards C` re-partitions the index at boot into a
cluster of C in-process shard nodes behind the same read-write lock:
a query fans out over the nodes its terms touch and rankings stay
bit-identical to the monolith.
`--verify rebuild` (with --snapshot; a scenario ingest is already a
fresh rebuild) replays the scenario queries against a fresh rebuild
before serving; `--duration` shuts down cleanly after that many
seconds (0 = serve until killed). `loadtest` drives N concurrent
connections against a running server with a scenario's queries for
--duration seconds and — with the default `--verify local` — compares
every response bit-identically against an in-process rebuild, exiting
nonzero on any mismatch or connection error.

`serve --wal-dir` makes the server durable: every Insert/Remove is
appended to a CRC-framed write-ahead log (synced per --sync-policy,
default `always`) before it is acknowledged, and on restart the server
warm-starts from the latest compacted snapshot in the log directory and
replays the log suffix beyond its watermark — acknowledged writes
survive a SIGKILL. With --compact-every the server periodically folds
the log into a fresh watermark-stamped snapshot without blocking
readers. SIGTERM/Ctrl-C flush the log and exit through the clean
shutdown path. `wal inspect` prints the segment table; `wal replay`
reconstructs the state offline (snapshot + log suffix) and with --out
writes it as a compacted snapshot.

`serve --shard-id I --nodes N` hosts shard node I of an N-node cluster:
the node backend keeps the full fingerprint replica of every trajectory
that routes at least one posting here, answers per-shard top-k
sub-queries, and composes with --wal-dir/--snapshot like any other
backend. `frontend` coordinates such shard servers: it fingerprints
each query once, scatters sub-queries to the servers named by --shards
(the i-th address hosts router node i), and merges the returned heaps
exactly — every ranking is bit-identical to a monolithic index over the
same corpus. A lost shard yields a typed \"shard node unavailable\"
error, never a silently partial ranking, and the frontend redials on
the next request without a restart; `loadtest` verifies a frontend
exactly like a monolithic server.

`metrics` scrapes a running server's telemetry over the wire: request
counters and latency histograms per frame type, mux gauges
(connections, busy workers, frames in flight), WAL and compaction
figures, engine pruning counters, per-stage server-side timings and the
slow-query log (slowest first, each entry carrying its trace id and
per-stage breakdown). `--text` prints the raw Prometheus exposition
instead; `--out FILE` writes that exposition to a file (the CI smoke
jobs upload it as an artifact). Telemetry is on by default and costs a
clock read per stage; GEODABS_METRICS=off disables it server-side, and
GEODABS_SLOW_US sets the slow-query threshold (default 1000).
`loadtest --server-metrics` scrapes the server before and after the
run and reports the delta: server-clock p50/p95/p99 per stage
(decode, engine, merge, …) next to the client-observed view, plus the
real mux saturation gauges.
";

/// Fails with `why` when `when` holds: a flag combination that cannot
/// mean what it says.
fn refuse(when: bool, why: &str) -> Result<(), Box<dyn Error>> {
    match when {
        true => Err(why.into()),
        false => Ok(()),
    }
}

/// Resolves a scenario by flag (for `snapshot save`/`load --verify` and
/// the serving layer).
fn scenario_from_args(args: &Args) -> Result<Scenario, Box<dyn Error>> {
    let name = args.string_or("scenario", "micro");
    let mut scenario = workload::find(&name).ok_or_else(|| {
        let names: Vec<String> = workload::catalog().into_iter().map(|s| s.name).collect();
        format!("unknown scenario {name:?} (one of {})", names.join(", "))
    })?;
    scenario.seed = args.u64_or("seed", scenario.seed)?;
    Ok(scenario)
}

/// Resolves a scenario and generates its reproducible dataset.
fn scenario_dataset(args: &Args) -> Result<(Scenario, Dataset), Box<dyn Error>> {
    let scenario = scenario_from_args(args)?;
    let dataset = workload::generate(&scenario);
    Ok((scenario, dataset))
}

/// The empty index `snapshot save`, `serve` and `wal replay` start from
/// when no snapshot holds the state: node `--shard-id` of a `--nodes` ×
/// `--shards` cluster, or an empty `--backend` index. A shard server
/// hosts the node backend, so `--backend` beside `--shard-id` is refused.
fn empty_index(args: &Args) -> Result<AnyIndex, Box<dyn Error>> {
    let shards = args.u64_or("shards", 10_000)?;
    let nodes = args.usize_or("nodes", 8)?;
    if !args.has("shard-id") {
        return Ok(AnyIndex::empty(
            &args.string_or("backend", "geodab"),
            shards,
            nodes,
        )?);
    }
    refuse(
        args.has("backend"),
        "--backend conflicts with --shard-id (a shard server hosts the node backend)",
    )?;
    let node_id = args.usize_or("shard-id", 0)?;
    Ok(AnyIndex::Node(ShardNode::new(
        GeodabConfig::default(),
        shards,
        nodes,
        node_id,
    )?))
}

#[cfg(test)]
mod tests {
    use super::corpus::network;
    use super::*;
    use geodabs_gen::dataset::DatasetConfig;
    use geodabs_index::{codec, GeodabIndex, TrajectoryIndex};

    fn run_to_string(argv: &[&str]) -> Result<String, String> {
        let args = Args::parse(argv.iter().copied()).map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        run(&args, &mut buf).map_err(|e| e.to_string())?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("geodabs-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run_to_string(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("geodabs build"));
        assert!(!out.contains("geodabs bench"), "{out}");
    }

    /// Every command path refuses a flag its usage line does not name, at
    /// parse time, so a typo cannot fall back to a default.
    #[test]
    fn every_command_path_refuses_unknown_flags() {
        assert_eq!(TABLE.len(), 16);
        for command in TABLE {
            let mut argv: Vec<&str> = command.name.split(' ').collect();
            argv.extend(["--bogus", "1"]);
            let err = run_to_string(&argv).unwrap_err();
            assert_eq!(err, "unknown flag --bogus", "{}", command.name);
        }
        let err =
            run_to_string(&["build", "--out", &tmp("typo.gdab"), "--rutes", "3"]).unwrap_err();
        assert_eq!(err, "unknown flag --rutes");
    }

    /// `help` prints each entry's usage line, which is the flag spec the
    /// parser reads: the same three switches as ever take no value.
    #[test]
    fn help_prints_the_flag_spec_of_every_command_path() {
        let help = run_to_string(&["help"]).unwrap();
        let mut switches = std::collections::BTreeSet::new();
        for command in TABLE {
            let first = command.usage.split('\n').next().unwrap_or_default();
            let line = format!("geodabs {:<16} {first}", command.name);
            assert!(help.contains(line.trim_end()), "{help}");
            for token in command.usage.split_whitespace() {
                if let Some(flag) = token.strip_prefix("[--").and_then(|t| t.strip_suffix(']')) {
                    assert_eq!(command.switch(flag), Some(true), "{}", command.name);
                    switches.insert(flag);
                }
            }
        }
        assert_eq!(
            switches.into_iter().collect::<Vec<_>>(),
            ["json", "server-metrics", "text"]
        );
        let inspect = Args::parse(["snapshot", "inspect"]).unwrap().entry();
        assert_eq!(inspect.switch("in"), Some(false));
        assert_eq!(inspect.switch("out"), None);
    }

    #[test]
    fn build_stats_search_roundtrip() {
        let path = tmp("roundtrip.gdab");
        let out = run_to_string(&[
            "build",
            "--out",
            &path,
            "--routes",
            "4",
            "--per-direction",
            "2",
            "--seed",
            "9",
        ])
        .unwrap();
        assert!(out.contains("indexed 16 trajectories"), "{out}");

        let out = run_to_string(&["stats", "--index", &path]).unwrap();
        assert!(out.contains("trajectories      16"), "{out}");
        assert!(out.contains("depth=36 k=6 t=12"), "{out}");

        let out = run_to_string(&[
            "search",
            "--index",
            &path,
            "--routes",
            "4",
            "--per-direction",
            "2",
            "--seed",
            "9",
            "--limit",
            "3",
        ])
        .unwrap();
        assert!(out.contains("query 0"), "{out}");
        assert!(out.contains("relevant"), "{out}");
    }

    #[test]
    fn search_rejects_out_of_range_query() {
        let path = tmp("range.gdab");
        run_to_string(&[
            "build",
            "--out",
            &path,
            "--routes",
            "2",
            "--per-direction",
            "2",
            "--seed",
            "3",
        ])
        .unwrap();
        let err = run_to_string(&[
            "search",
            "--index",
            &path,
            "--routes",
            "2",
            "--per-direction",
            "2",
            "--seed",
            "3",
            "--query",
            "99",
        ])
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn stats_rejects_garbage_files() {
        let path = tmp("garbage.gdab");
        std::fs::write(&path, b"not an index").unwrap();
        let err = run_to_string(&["stats", "--index", &path]).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn world_prints_summary() {
        let out = run_to_string(&[
            "world",
            "--trajectories",
            "5000",
            "--cities",
            "50",
            "--seed",
            "2",
        ])
        .unwrap();
        assert!(out.contains("trajectories      5000"), "{out}");
        assert!(out.contains("peak cell"), "{out}");
    }

    #[test]
    fn tune_reports_a_best_config() {
        let out = run_to_string(&[
            "tune",
            "--routes",
            "3",
            "--per-direction",
            "2",
            "--seed",
            "4",
            "--steps",
            "1",
        ])
        .unwrap();
        assert!(out.contains("best: depth="), "{out}");
        assert!(out.contains("evaluated"), "{out}");
    }

    #[test]
    fn missing_required_flags_error_cleanly() {
        assert!(run_to_string(&["build"]).unwrap_err().contains("--out"));
        assert!(run_to_string(&["stats"]).unwrap_err().contains("--index"));
        assert!(run_to_string(&["export"]).unwrap_err().contains("--out"));
    }

    #[test]
    fn snapshot_save_load_inspect_roundtrip_all_backends() {
        for backend in ["geodab", "cluster"] {
            let path = tmp(&format!("snap-{backend}.gdab"));
            let out = run_to_string(&[
                "snapshot",
                "save",
                "--backend",
                backend,
                "--scenario",
                "micro",
                "--out",
                &path,
            ])
            .unwrap();
            assert!(out.contains(&format!("saved {backend} snapshot")), "{out}");
            assert!(out.contains("40 trajectories"), "{out}");

            let out =
                run_to_string(&["snapshot", "load", "--in", &path, "--scenario", "micro"]).unwrap();
            assert!(out.contains(&format!("loaded {backend} snapshot")), "{out}");
            assert!(out.contains("40 trajectories"), "{out}");

            // Full verification: rebuild the corpus and compare answers.
            let out = run_to_string(&[
                "snapshot",
                "load",
                "--in",
                &path,
                "--scenario",
                "micro",
                "--verify",
                "rebuild",
            ])
            .unwrap();
            assert!(out.contains("verify            PASS"), "{out}");

            let out = run_to_string(&["snapshot", "inspect", "--in", &path]).unwrap();
            assert!(out.contains("format version    2"), "{out}");
            assert!(
                out.contains(&format!("backend           {backend}")),
                "{out}"
            );
            assert!(out.contains("checksums OK"), "{out}");
            assert!(out.contains("CONF"), "{out}");
        }
    }

    #[test]
    fn snapshot_load_rejects_corrupted_files() {
        let path = tmp("snap-corrupt.gdab");
        run_to_string(&["snapshot", "save", "--scenario", "micro", "--out", &path]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = bytes.len() - 30;
        bytes[offset] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let err = run_to_string(&["snapshot", "load", "--in", &path]).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        let err = run_to_string(&["snapshot", "inspect", "--in", &path]).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn snapshot_inspect_reports_legacy_v1_blobs() {
        // `build` writes through the codec; craft a v1 blob explicitly.
        let ds = Dataset::generate(
            &network(9),
            &DatasetConfig {
                routes: 2,
                per_direction: 2,
                ..DatasetConfig::default()
            },
            9,
        )
        .unwrap();
        let mut index = GeodabIndex::new(GeodabConfig::default());
        for r in ds.records() {
            index.insert(r.id, &r.trajectory);
        }
        let path = tmp("snap-v1.gdab");
        std::fs::write(&path, codec::encode_v1(&index)).unwrap();
        let out = run_to_string(&["snapshot", "inspect", "--in", &path]).unwrap();
        assert!(out.contains("format version    1"), "{out}");
        assert!(out.contains("legacy v1"), "{out}");
        // And the v1 blob loads through the version switch.
        let out = run_to_string(&["snapshot", "load", "--in", &path]).unwrap();
        assert!(out.contains("loaded geodab snapshot"), "{out}");
    }

    #[test]
    fn snapshot_flags_fail_loudly() {
        let err = run_to_string(&["snapshot", "save", "--scenario", "micro"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        for backend in ["warp", "geohash"] {
            let err = run_to_string(&["snapshot", "save", "--out", "x.gdab", "--backend", backend])
                .unwrap_err();
            let refusal = format!("unknown backend {backend:?} (geodab|cluster)");
            assert!(err.contains(&refusal), "{err}");
        }
        let err = run_to_string(&["snapshot", "frobnicate"]).unwrap_err();
        assert!(err.contains("unknown action"), "{err}");
        // An unknown scenario lists the catalog.
        let err = run_to_string(&["snapshot", "save", "--scenario", "smoke", "--out", "x.gdab"])
            .unwrap_err();
        assert!(
            err.contains("unknown scenario") && err.contains("micro"),
            "{err}"
        );
        let err =
            run_to_string(&["snapshot", "load", "--in", "x", "--verfiy", "rebuild"]).unwrap_err();
        assert!(err.contains("unknown flag --verfiy"), "{err}");
        let path = tmp("snap-verify-flag.gdab");
        run_to_string(&["snapshot", "save", "--scenario", "micro", "--out", &path]).unwrap();
        let err =
            run_to_string(&["snapshot", "load", "--in", &path, "--verify", "yes"]).unwrap_err();
        assert!(err.contains("--verify"), "{err}");
    }

    /// A `Write` target observable from another thread, so the serve
    /// test can learn the OS-assigned port while the server blocks.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8 output")
        }

        /// Polls until a line starting with `prefix` appears, returning
        /// the rest of that line.
        fn wait_for(&self, prefix: &str) -> String {
            for _ in 0..400 {
                if let Some(line) = self
                    .contents()
                    .lines()
                    .find_map(|l| l.strip_prefix(prefix).map(str::to_string))
                {
                    return line.trim().to_string();
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            panic!("server never printed {prefix:?}: {:?}", self.contents());
        }
    }

    #[test]
    fn serve_and_loadtest_roundtrip_on_loopback() {
        // Serializes against the signals tests: they flip the global
        // shutdown flag this server's watcher thread polls.
        let _guard = crate::signals::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Warm-start the server from a real snapshot (the acceptance
        // path), on an OS-assigned port, with a startup verify.
        let snap = tmp("serve-roundtrip.gdab");
        run_to_string(&["snapshot", "save", "--scenario", "micro", "--out", &snap]).unwrap();

        let buf = SharedBuf::default();
        let server_buf = buf.clone();
        let snap_for_server = snap.clone();
        // Detached on purpose: --duration bounds the server's lifetime,
        // and the test must not block on that timer.
        std::thread::spawn(move || {
            let args = Args::parse([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--snapshot",
                &snap_for_server,
                "--scenario",
                "micro",
                "--verify",
                "rebuild",
                "--threads",
                "4",
                "--duration",
                "60",
            ])
            .expect("valid serve args");
            let mut out = server_buf;
            run(&args, &mut out).map_err(|e| e.to_string())
        });
        let verify_line = buf.wait_for("verify            ");
        assert!(verify_line.contains("PASS"), "{verify_line}");

        let addr_line = buf.wait_for("listening on      ");
        let addr = addr_line.split_whitespace().next().expect("addr token");

        // Drive it: 4 connections, a short run, full local verification.
        let out = run_to_string(&[
            "loadtest",
            "--addr",
            addr,
            "--connections",
            "4",
            "--duration",
            "1",
            "--scenario",
            "micro",
        ])
        .unwrap();
        assert!(out.contains("server            geodab"), "{out}");
        assert!(out.contains("verify            PASS"), "{out}");
        assert!(out.contains("load     4 conn(s)"), "{out}");
        assert!(out.contains("0 mismatches"), "{out}");
        // The loadtest checks behaviour; it writes no report.
        assert!(!out.contains("report"), "{out}");

        // The same run with --server-metrics: the server's own per-stage
        // latency and the real mux gauges show up next to the client view.
        let out = run_to_string(&[
            "loadtest",
            "--addr",
            addr,
            "--connections",
            "2",
            "--duration",
            "1",
            "--scenario",
            "micro",
            "--server-metrics",
        ])
        .unwrap();
        assert!(!out.contains("connection(s) per mux worker"), "{out}");
        assert!(out.contains("server  request"), "{out}");
        assert!(out.contains("server  engine"), "{out}");
        assert!(out.contains("mux saturation    peak"), "{out}");

        // The standalone scraper against the same server: counters,
        // gauges, histograms and the raw exposition must all render.
        let scraped = run_to_string(&["metrics", "--addr", addr, "--top", "3"]).unwrap();
        assert!(
            scraped.contains("geodabs_requests_total{kind=\"query\"}"),
            "{scraped}"
        );
        assert!(scraped.contains("geodabs_connections"), "{scraped}");
        assert!(
            scraped.contains("geodabs_request_latency_us{kind=\"query\"}"),
            "{scraped}"
        );
        assert!(scraped.contains("slow queries"), "{scraped}");
        let exposition_path = tmp("serve-roundtrip-metrics.prom");
        let text = run_to_string(&[
            "metrics",
            "--addr",
            addr,
            "--text",
            "--out",
            &exposition_path,
        ])
        .unwrap();
        assert!(text.contains("# TYPE"), "{text}");
        assert!(text.contains("geodabs_requests_total"), "{text}");
        let written = std::fs::read_to_string(&exposition_path).expect("exposition file");
        assert!(written.contains("geodabs_requests_total"), "{written}");

        // A same-size corpus from another seed passes the length probe
        // but every response then diverges from the local expectation —
        // the mismatch detector must fail the run loudly.
        let err = run_to_string(&[
            "loadtest",
            "--addr",
            addr,
            "--connections",
            "1",
            "--scenario",
            "micro",
            "--seed",
            "8",
            "--duration",
            "1",
        ])
        .unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn serve_flags_fail_loudly() {
        let err = run_to_string(&["serve", "--addr", "127.0.0.1:0"]).unwrap_err();
        assert!(
            err.contains("--snapshot") && err.contains("--scenario"),
            "{err}"
        );
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            "x.gdab",
            "--backend",
            "geodab",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts"), "{err}");
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scenario",
            "micro",
            "--verify",
            "yes",
        ])
        .unwrap_err();
        assert!(err.contains("--verify"), "{err}");
        let err = run_to_string(&["serve", "--scenario", "micro"]).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        // Verifying a fresh ingest against a fresh rebuild is vacuous.
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scenario",
            "micro",
            "--verify",
            "rebuild",
        ])
        .unwrap_err();
        assert!(err.contains("vacuous"), "{err}");
        let err =
            run_to_string(&["serve", "--addr", "127.0.0.1:0", "--scenari", "micro"]).unwrap_err();
        assert!(err.contains("unknown flag --scenari"), "{err}");
    }

    #[test]
    fn loadtest_flags_fail_loudly() {
        let err = run_to_string(&["loadtest"]).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err =
            run_to_string(&["loadtest", "--addr", "127.0.0.1:1", "--verify", "maybe"]).unwrap_err();
        assert!(err.contains("--verify"), "{err}");
        let err = run_to_string(&["loadtest", "--addr", "127.0.0.1:1", "--connectoins", "2"])
            .unwrap_err();
        assert!(err.contains("unknown flag --connectoins"), "{err}");
        // The retired report directory is an unknown flag, not a no-op.
        let err = run_to_string(&["loadtest", "--addr", "127.0.0.1:1", "--out", "."]).unwrap_err();
        assert!(err.contains("unknown flag --out"), "{err}");
        // A dead address fails on the probe connection, fast.
        let err =
            run_to_string(&["loadtest", "--addr", "127.0.0.1:1", "--duration", "1"]).unwrap_err();
        assert!(err.contains("connecting to"), "{err}");
        // Zero connections or seconds are refused before the probe, not
        // raised to one.
        for flag in ["--connections", "--duration"] {
            let err = run_to_string(&["loadtest", "--addr", "127.0.0.1:1", flag, "0"]).unwrap_err();
            assert!(err.contains(flag) && err.contains("at least 1"), "{err}");
        }
    }

    #[test]
    fn serve_durability_flags_fail_loudly() {
        let err = run_to_string(&["serve", "--addr", "127.0.0.1:0", "--sync-policy", "always"])
            .unwrap_err();
        assert!(err.contains("--wal-dir"), "{err}");
        let err =
            run_to_string(&["serve", "--addr", "127.0.0.1:0", "--compact-every", "5"]).unwrap_err();
        assert!(err.contains("--wal-dir"), "{err}");
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            "logs",
            "--verify",
            "rebuild",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts with --wal-dir"), "{err}");
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            "logs",
            "--sync-policy",
            "sometimes",
        ])
        .unwrap_err();
        assert!(err.contains("sync policy"), "{err}");
        // A log directory's compacted snapshot wins over --snapshot, and
        // --backend beside --snapshot is refused all the same.
        let dir = tmp("serve-compacted-wal");
        std::fs::create_dir_all(&dir).unwrap();
        let compacted = format!("{dir}/{}", geodabs_serve::WAL_SNAPSHOT_FILE);
        run_to_string(&["wal", "replay", "--dir", &dir, "--out", &compacted]).unwrap();
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            &dir,
            "--snapshot",
            "x.gdab",
            "--backend",
            "geodab",
            "--duration",
            "1",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts with --snapshot"), "{err}");
    }

    #[test]
    fn wal_flags_fail_loudly() {
        let err = run_to_string(&["wal", "inspect"]).unwrap_err();
        assert!(err.contains("--dir"), "{err}");
        let err = run_to_string(&["wal", "replay"]).unwrap_err();
        assert!(err.contains("--dir"), "{err}");
        let err = run_to_string(&["wal", "inspect", "--dri", "logs"]).unwrap_err();
        assert!(err.contains("unknown flag --dri"), "{err}");
        // A shard server's log replays into the node backend, as `serve`
        // insists too.
        let err = run_to_string(&[
            "wal",
            "replay",
            "--dir",
            "logs",
            "--backend",
            "geodab",
            "--shard-id",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts with --shard-id"), "{err}");
    }

    #[test]
    fn snapshot_inspect_json_is_machine_readable() {
        use crate::json::Json;
        let path = tmp("inspect-json.gdab");
        run_to_string(&["snapshot", "save", "--scenario", "micro", "--out", &path]).unwrap();
        let out = run_to_string(&["snapshot", "inspect", "--in", &path, "--json"]).unwrap();
        let parsed = Json::parse(&out).expect("valid JSON");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("snapshot"));
        assert_eq!(parsed.get("backend").and_then(Json::as_str), Some("geodab"));
        assert_eq!(
            parsed.get("format_version").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(parsed.get("watermark"), Some(&Json::Null));
        let sections = parsed
            .get("sections")
            .and_then(Json::as_array)
            .expect("sections array");
        assert!(!sections.is_empty());
        assert!(sections
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("CONF")));
    }

    #[test]
    fn wal_inspect_replay_and_stamped_snapshot_roundtrip() {
        use crate::json::Json;
        use geodabs_wal::{SyncPolicy, Wal, WalOp};
        let dir = std::env::temp_dir().join(format!("geodabs-cli-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Log three inserts and one remove through the real WAL.
        let ds = Dataset::generate(
            &network(5),
            &DatasetConfig {
                routes: 2,
                per_direction: 2,
                ..DatasetConfig::default()
            },
            5,
        )
        .unwrap();
        let mut wal = Wal::open(&dir, SyncPolicy::Always).unwrap();
        for r in &ds.records()[..3] {
            wal.append(&WalOp::Insert {
                id: r.id,
                trajectory: r.trajectory.clone(),
            })
            .unwrap();
        }
        wal.append(&WalOp::Remove {
            id: ds.records()[0].id,
        })
        .unwrap();
        drop(wal);

        let out = run_to_string(&["wal", "inspect", "--dir", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("snapshot          none"), "{out}");
        assert!(out.contains("4 records"), "{out}");
        assert!(out.contains("last seq 4"), "{out}");

        // Offline replay: 3 inserts − 1 remove = 2 live trajectories,
        // persisted as a watermark-stamped compacted snapshot.
        let compacted = dir.join("offline.gdab");
        let out = run_to_string(&[
            "wal",
            "replay",
            "--dir",
            dir.to_str().unwrap(),
            "--out",
            compacted.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("snapshot          none"), "{out}");
        assert!(
            out.contains("replayed          4 record(s) beyond watermark 0: 2 trajectories"),
            "{out}"
        );
        assert!(out.contains("watermark 4"), "{out}");

        // The stamp is visible to both inspect modes…
        let out =
            run_to_string(&["snapshot", "inspect", "--in", compacted.to_str().unwrap()]).unwrap();
        assert!(out.contains("wal watermark     seq 4"), "{out}");
        let out = run_to_string(&[
            "snapshot",
            "inspect",
            "--in",
            compacted.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        let parsed = Json::parse(&out).expect("valid JSON");
        assert_eq!(parsed.get("watermark").and_then(Json::as_f64), Some(4.0));

        // …and the snapshot still loads (the WMRK section is ignored by
        // the backend decoder).
        let out =
            run_to_string(&["snapshot", "load", "--in", compacted.to_str().unwrap()]).unwrap();
        assert!(out.contains("2 trajectories"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_boots_from_a_wal_dir_and_replays_acked_writes() {
        use geodabs_serve::Client;
        use geodabs_wal::{SyncPolicy, Wal, WalOp};
        let _guard = crate::signals::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir =
            std::env::temp_dir().join(format!("geodabs-cli-serve-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Seed the log as a crashed durable server would have left it.
        let ds = Dataset::generate(
            &network(6),
            &DatasetConfig {
                routes: 2,
                per_direction: 2,
                ..DatasetConfig::default()
            },
            6,
        )
        .unwrap();
        let mut wal = Wal::open(&dir, SyncPolicy::Always).unwrap();
        for r in &ds.records()[..3] {
            wal.append(&WalOp::Insert {
                id: r.id,
                trajectory: r.trajectory.clone(),
            })
            .unwrap();
        }
        drop(wal);

        // Boot from the log directory alone: empty index + full replay.
        let buf = SharedBuf::default();
        let server_buf = buf.clone();
        let dir_for_server = dir.to_str().unwrap().to_string();
        std::thread::spawn(move || {
            let args = Args::parse([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--wal-dir",
                &dir_for_server,
                "--threads",
                "2",
                "--duration",
                "60",
            ])
            .expect("valid serve args");
            let mut out = server_buf;
            run(&args, &mut out).map_err(|e| e.to_string())
        });
        let replay_line = buf.wait_for("wal replay        ");
        assert!(
            replay_line.contains("3 record(s) beyond watermark 0"),
            "{replay_line}"
        );
        let addr_line = buf.wait_for("listening on      ");
        let addr = addr_line.split_whitespace().next().expect("addr token");

        // The replayed state serves, and new acked writes extend the log.
        let mut client = Client::connect(addr).expect("connect");
        let stats = client.stats_durable().expect("stats");
        assert_eq!(stats.trajectories, 3);
        let durability = stats.durability.expect("durable server reports wal state");
        assert_eq!(durability.last_durable_seq, 3);
        let next = &ds.records()[3];
        client.insert(next.id, &next.trajectory).expect("insert");
        let stats = client.stats_durable().expect("stats");
        assert_eq!(stats.trajectories, 4);
        assert_eq!(stats.durability.expect("durability").last_durable_seq, 4);
    }

    #[test]
    fn frontend_flags_fail_loudly() {
        let err = run_to_string(&["frontend", "--shards", "127.0.0.1:1"]).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err = run_to_string(&["frontend", "--addr", "127.0.0.1:0"]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err =
            run_to_string(&["frontend", "--addr", "127.0.0.1:0", "--shards", ",,"]).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
        let err = run_to_string(&[
            "frontend",
            "--addr",
            "127.0.0.1:0",
            "--shrads",
            "127.0.0.1:1",
        ])
        .unwrap_err();
        assert!(err.contains("unknown flag --shrads"), "{err}");
    }

    #[test]
    fn zero_shard_and_worker_counts_are_refused_before_any_corpus_is_built() {
        use geodabs_serve::ServerConfigError;

        // The snapshot does not exist: reading it would fail first if the
        // counts were checked after the corpus.
        let serve = |flag: &str| {
            run_to_string(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--snapshot",
                "missing.gdab",
                flag,
                "0",
            ])
            .unwrap_err()
        };
        assert_eq!(
            serve("--serve-shards"),
            ServerConfigError::ZeroShards.to_string()
        );
        assert_eq!(
            serve("--threads"),
            ServerConfigError::ZeroMuxWorkers.to_string()
        );
        let err = run_to_string(&[
            "frontend",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "127.0.0.1:1",
            "--threads",
            "0",
        ])
        .unwrap_err();
        assert_eq!(err, ServerConfigError::ZeroMuxWorkers.to_string());
    }

    #[test]
    fn serve_shard_id_flags_fail_loudly() {
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scenario",
            "micro",
            "--shard-id",
            "0",
            "--backend",
            "geodab",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts with --shard-id"), "{err}");
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            "x.gdab",
            "--shard-id",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("conflicts with --snapshot"), "{err}");
        let err = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scenario",
            "micro",
            "--shard-id",
            "9",
            "--nodes",
            "2",
        ])
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    /// The full distributed loop in one process: two `serve --shard-id`
    /// servers, a `frontend` over them, and `loadtest --verify local`
    /// proving every scattered answer bit-identical to the monolithic
    /// rebuild.
    #[test]
    fn shard_servers_and_frontend_roundtrip_on_loopback() {
        let _guard = crate::signals::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut shard_addrs = Vec::new();
        for shard_id in ["0", "1"] {
            let buf = SharedBuf::default();
            let server_buf = buf.clone();
            std::thread::spawn(move || {
                let args = Args::parse([
                    "serve",
                    "--addr",
                    "127.0.0.1:0",
                    "--scenario",
                    "micro",
                    "--shard-id",
                    shard_id,
                    "--nodes",
                    "2",
                    "--threads",
                    "4",
                    "--duration",
                    "60",
                ])
                .expect("valid serve args");
                let mut out = server_buf;
                run(&args, &mut out).map_err(|e| e.to_string())
            });
            let ingest_line = buf.wait_for("ingested          ");
            assert!(ingest_line.contains("node index"), "{ingest_line}");
            let addr_line = buf.wait_for("listening on      ");
            shard_addrs.push(
                addr_line
                    .split_whitespace()
                    .next()
                    .expect("addr token")
                    .to_string(),
            );
        }

        let buf = SharedBuf::default();
        let frontend_buf = buf.clone();
        let shards_flag = shard_addrs.join(",");
        std::thread::spawn(move || {
            let args = Args::parse([
                "frontend",
                "--addr",
                "127.0.0.1:0",
                "--shards",
                &shards_flag,
                "--threads",
                "4",
                "--duration",
                "60",
            ])
            .expect("valid frontend args");
            let mut out = frontend_buf;
            run(&args, &mut out).map_err(|e| e.to_string())
        });
        let addr_line = buf.wait_for("listening on      ");
        let addr = addr_line.split_whitespace().next().expect("addr token");

        let out = run_to_string(&[
            "loadtest",
            "--addr",
            addr,
            "--connections",
            "2",
            "--duration",
            "1",
            "--scenario",
            "micro",
        ])
        .unwrap();
        assert!(out.contains("server            frontend"), "{out}");
        assert!(
            out.contains("topology          frontend over 2 shard server(s)"),
            "{out}"
        );
        assert!(out.contains("verify            PASS"), "{out}");
    }

    #[test]
    fn export_writes_parseable_csv() {
        let path = tmp("export.csv");
        let out = run_to_string(&[
            "export",
            "--out",
            &path,
            "--routes",
            "2",
            "--per-direction",
            "1",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(out.contains("exported 4 trajectories"), "{out}");
        let file = std::fs::File::open(&path).unwrap();
        let records = geodabs_gen::csv::read_records(std::io::BufReader::new(file)).unwrap();
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.trajectory.len() > 10));
    }
}
