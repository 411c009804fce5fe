//! Implementation of the `geodabs` command-line tool.
//!
//! Every command path (`build`, `snapshot save`, `serve`, `wal replay`,
//! …) is one entry of [`commands::TABLE`]: its name, its usage line and
//! the function that runs it. The usage line is also the flag spec, so
//! `geodabs help` lists every command with exactly the flags it accepts,
//! and a flag it does not list fails to parse (exit 2).
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
