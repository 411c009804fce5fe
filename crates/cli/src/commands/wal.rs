//! `wal inspect` and `wal replay`: a durable server's log directory,
//! examined or reconstructed offline.

use geodabs_index::store::{self, Persist};
use geodabs_index::TrajectoryIndex;
use geodabs_serve::{recover, Recovered, ServeBackend, WAL_SNAPSHOT_FILE};
use geodabs_wal::Wal;
use std::error::Error;
use std::io::Write;

use super::empty_index;
use crate::Args;

pub(super) fn inspect(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let dir = args.string_required("dir")?;
    let segments = Wal::segments(std::path::Path::new(&dir))?;
    writeln!(out, "wal directory     {dir}")?;
    let snapshot = std::path::Path::new(&dir).join(WAL_SNAPSHOT_FILE);
    match std::fs::read(&snapshot) {
        Ok(bytes) => {
            let watermark = store::watermark(&bytes)?;
            writeln!(
                out,
                "snapshot          {} bytes, watermark {}",
                bytes.len(),
                watermark.map_or_else(|| "none".to_string(), |seq| format!("seq {seq}")),
            )?;
        }
        Err(_) => writeln!(out, "snapshot          none (no compaction yet)")?,
    }
    let records: u64 = segments.iter().map(|s| s.records).sum();
    let bytes: u64 = segments.iter().map(|s| s.bytes).sum();
    let last_seq = segments.iter().filter_map(|s| s.last_seq()).max();
    writeln!(
        out,
        "segments          {} ({records} records, {bytes} bytes, last seq {})",
        segments.len(),
        last_seq.map_or_else(|| "none".to_string(), |seq| seq.to_string()),
    )?;
    for segment in &segments {
        writeln!(
            out,
            "  {:<26} start {:>8}  {:>8} record(s)  {:>12} bytes",
            segment.file_name, segment.start_seq, segment.records, segment.bytes
        )?;
    }
    Ok(())
}

pub(super) fn replay(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let dir = args.string_required("dir")?;

    // The same recovery `serve --wal-dir` boots through, runnable
    // offline.
    let empty = empty_index(args)?;
    let Recovered {
        index,
        watermark,
        last_seq,
        replayed,
        compacted,
    } = recover(std::path::Path::new(&dir), || {
        writeln!(
            out,
            "snapshot          none; replaying into an empty {} index",
            empty.backend_name()
        )?;
        Ok::<_, Box<dyn Error>>((empty, 0))
    })?;
    if let Some(bytes) = compacted {
        writeln!(
            out,
            "snapshot          {} backend, {bytes} bytes, watermark {watermark}",
            index.backend_name()
        )?;
    }
    writeln!(
        out,
        "replayed          {replayed} record(s) beyond watermark {watermark}: \
         {} trajectories at seq {last_seq}",
        index.len()
    )?;

    // With --out the reconstruction is persisted as a compacted,
    // watermark-stamped snapshot — offline compaction for a server that
    // is not running.
    if let Some(path) = args.get("out") {
        let stamped = store::with_watermark(&index.to_snapshot(), last_seq)?;
        std::fs::write(path, &stamped)?;
        writeln!(
            out,
            "compacted         {} bytes to {path} (watermark {last_seq})",
            stamped.len()
        )?;
    }
    Ok(())
}
