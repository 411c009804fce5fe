//! Boot from a log directory: the **one** recovery path.
//!
//! A durable server's state is its latest compacted snapshot plus the
//! log records beyond that snapshot's watermark (ARIES-style redo from a
//! checkpoint). [`recover`] rebuilds it for `geodabs serve --wal-dir`,
//! `geodabs wal replay`, the bench's recovery phase and the serve test
//! suites alike, and every record goes through the same [`check`] then
//! [`apply`] pair the locked host runs around its log append — so a
//! replayed mutation lands exactly as the live one did.

use geodabs_core::Fingerprints;
use geodabs_index::store;
use geodabs_wal::{Wal, WalOp};
use std::path::Path;

use crate::proto::Response;
use crate::server::{ServeBackend, NOT_A_SHARD_NODE, WAL_SNAPSHOT_FILE};

/// What [`recover`] rebuilt from a log directory.
#[derive(Debug)]
pub struct Recovered<B> {
    /// The index, with every record beyond the watermark applied.
    pub index: B,
    /// The log sequence number the starting state already covered.
    pub watermark: u64,
    /// The last sequence number the log holds (the watermark when the
    /// log holds nothing beyond it).
    pub last_seq: u64,
    /// Records applied on top of the starting state.
    pub replayed: usize,
    /// The compacted snapshot's byte length, when boot started from it
    /// rather than from the caller's base.
    pub compacted: Option<usize>,
}

/// Rebuilds a durable server's state from its log directory `dir`:
///
/// 1. `dir/`[`WAL_SNAPSHOT_FILE`] when present (its `WMRK` stamp is the
///    watermark; none reads as 0), or else the caller's `base` index
///    and its watermark — a `--snapshot`, a scenario ingest, or an empty
///    index at 0. `base` is only called when the directory has no
///    compacted snapshot.
/// 2. Every log record with `seq > watermark`, in order, through the
///    same apply rule the locked host runs. A torn tail on the last
///    segment was never acknowledged and is skipped.
///
/// Before replaying, the log must continue the starting state: a first
/// segment starting after `watermark + 1` lost acknowledged records
/// (say, a directory copied without its snapshot after a prune), and a
/// log ending before the watermark would restart at seq 1 on open, so
/// the next boot would skip the new records as already folded. Both
/// are refused with a message naming the gap.
///
/// # Errors
///
/// `base`'s own error; otherwise a message for an unreadable snapshot
/// or log, a gap between them, or a record this backend cannot apply
/// (an `InsertFingerprints` record on a backend that is not a shard
/// node: the log belongs to a different kind of server).
pub fn recover<B, E>(
    dir: &Path,
    base: impl FnOnce() -> Result<(B, u64), E>,
) -> Result<Recovered<B>, E>
where
    B: ServeBackend,
    E: From<String>,
{
    let snapshot = dir.join(WAL_SNAPSHOT_FILE);
    let (mut index, watermark, compacted) = match std::fs::read(&snapshot) {
        Ok(bytes) => {
            let loaded = store::watermark(&bytes)
                .and_then(|watermark| Ok((B::from_snapshot(&bytes)?, watermark.unwrap_or(0))));
            let (index, watermark) =
                loaded.map_err(|e| format!("loading {}: {e}", snapshot.display()))?;
            (index, watermark, Some(bytes.len()))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let (index, watermark) = base()?;
            (index, watermark, None)
        }
        Err(e) => return Err(format!("reading {}: {e}", snapshot.display()).into()),
    };

    let log_err = |e| format!("reading the log in {}: {e}", dir.display());
    let segments = Wal::segments(dir).map_err(log_err)?;
    if let Some(first) = segments.first().map(|s| s.start_seq) {
        if first > watermark.saturating_add(1) {
            return Err(format!(
                "log gap in {}: the first segment starts at seq {first} but the starting \
                 state covers only seqs up to {watermark}, so records {}..={} are missing",
                dir.display(),
                watermark + 1,
                first - 1
            )
            .into());
        }
    }
    let log_end = segments.last().map_or(0, |s| {
        s.start_seq.saturating_add(s.records).saturating_sub(1)
    });
    if log_end < watermark {
        return Err(format!(
            "log gap in {}: the log ends at seq {log_end}, before the starting state's \
             watermark {watermark}, so records appended after it would be skipped as \
             already folded on the next boot",
            dir.display()
        )
        .into());
    }

    let mut replayed = 0usize;
    for record in Wal::records(dir).map_err(log_err)? {
        if record.seq <= watermark {
            continue;
        }
        check(&index, &record.op).map_err(|e| {
            format!(
                "wal record {} cannot be replayed onto the {} backend: {e}",
                record.seq,
                index.backend_name()
            )
        })?;
        apply(&mut index, record.op);
        replayed += 1;
    }
    Ok(Recovered {
        index,
        watermark,
        last_seq: log_end,
        replayed,
        compacted,
    })
}

/// Whether `index` can apply `op` at all. Being a shard node is a
/// static property of the backend, so an unsupported op is refused
/// whole — before the live path logs it, and before replay applies it.
pub(crate) fn check<B: ServeBackend>(index: &B, op: &WalOp) -> Result<(), &'static str> {
    match op {
        WalOp::InsertFingerprints { .. } if index.as_shard().is_none() => Err(NOT_A_SHARD_NODE),
        _ => Ok(()),
    }
}

/// Applies one mutation [`check`] accepted and answers it — the one
/// rule for a logged op, live and replayed.
pub(crate) fn apply<B: ServeBackend>(index: &mut B, op: WalOp) -> Response {
    match op {
        WalOp::Insert { id, trajectory } => {
            index.insert(id, &trajectory);
            Response::Inserted {
                len: index.len() as u64,
            }
        }
        WalOp::Remove { id } => Response::Removed {
            was_present: index.remove(id),
        },
        WalOp::InsertFingerprints { id, terms } => {
            let node = index.as_shard_mut().expect("checked before applying");
            node.insert_fingerprints(id, Fingerprints::from_ordered(terms));
            Response::Inserted {
                len: index.len() as u64,
            }
        }
    }
}
