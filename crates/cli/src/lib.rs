//! Implementation of the `geodabs` command-line tool.
//!
//! The binary wraps the workspace crates into these subcommands:
//!
//! ```text
//! geodabs build  --out FILE [--routes N] [--per-direction M] [--seed S]
//! geodabs stats  --index FILE
//! geodabs search --index FILE [--routes N] [--per-direction M] [--seed S]
//!                [--query Q] [--limit K]
//! geodabs tune   [--routes N] [--seed S] [--steps T]
//! geodabs world  [--trajectories N] [--cities C] [--seed S]
//! geodabs serve    --addr HOST:PORT (--snapshot FILE | --scenario NAME | --wal-dir DIR) …
//! geodabs loadtest --addr HOST:PORT [--connections N] [--duration SECS] …
//! geodabs wal      inspect|replay --dir DIR …
//! ```
//!
//! Datasets are synthetic and fully determined by `(routes,
//! per-direction, seed)`, so `search` regenerates the query workload
//! instead of shipping trajectories around; `--scenario` names one of
//! the corpora in [`workload`]. `serve` hosts any backend over the
//! `geodabs-serve` wire protocol (warm-started from a `GDAB` v2 snapshot
//! or ingested from a scenario); `loadtest` drives concurrent
//! connections against it and fails on any response mismatch. With
//! `--wal-dir` the server is durable: mutations are logged before they
//! are acknowledged, boot replays the log suffix beyond the latest
//! compacted snapshot's watermark, and `wal inspect`/`wal replay`
//! examine or reconstruct that state offline.

// `deny` rather than `forbid`: the signals module scopes one audited
// `#[allow(unsafe_code)]` around the POSIX `signal(2)` declaration.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod json;
pub mod signals;
pub mod workload;

pub use args::{Args, ParseError};
