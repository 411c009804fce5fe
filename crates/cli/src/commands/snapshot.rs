//! `snapshot save`, `load` and `inspect`: a scenario's corpus written as a
//! GDAB snapshot, restored (and optionally proven against a rebuild), and
//! read back without materializing the index.

use geodabs_index::store::{self, Persist, SnapshotReader};
use geodabs_index::TrajectoryIndex;
use geodabs_serve::{AnyIndex, ServeBackend};
use std::error::Error;
use std::io::Write;
use std::time::Instant;

use super::{empty_index, scenario_dataset, scenario_from_args};
use crate::json::Json;
use crate::workload;
use crate::Args;

pub(super) fn save(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("out")?;
    // Build the empty backend *before* the (possibly minutes-long) corpus
    // generation, so a typo fails in milliseconds.
    let mut index = empty_index(args)?;
    let (scenario, dataset) = scenario_dataset(args)?;

    let started = Instant::now();
    index.insert_batch(dataset.records().iter().map(|r| (r.id, &r.trajectory)));
    let (len, terms) = (index.len(), index.term_count());
    let written = index.save_to(&path)?;
    let seconds = started.elapsed().as_secs_f64();
    writeln!(
        out,
        "saved {} snapshot of scenario {} ({len} trajectories, {terms} terms/shards) \
         to {path}: {written} bytes in {seconds:.3}s",
        index.backend_name(),
        scenario.name
    )?;
    Ok(())
}

pub(super) fn load(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("in")?;
    let bytes = std::fs::read(&path)?;
    let started = Instant::now();
    let loaded = AnyIndex::from_snapshot(&bytes)?;
    let seconds = started.elapsed().as_secs_f64();
    writeln!(
        out,
        "loaded {} snapshot: {} trajectories from {} bytes in {seconds:.3}s ({:.1} MB/s)",
        loaded.backend_name(),
        loaded.len(),
        bytes.len(),
        bytes.len() as f64 / 1e6 / seconds.max(1e-9)
    )?;

    if args.one_of("verify", &["rebuild"])?.is_some() {
        // The query-replay loop is shared with `geodabs serve --verify
        // rebuild` — one verification routine, two callers.
        let scenario = scenario_from_args(args)?;
        let checked = workload::verify_against_rebuild(&loaded, &scenario)
            .map_err(|e| format!("snapshot verify FAILED: {e}"))?;
        writeln!(
            out,
            "verify            PASS ({checked} queries identical to a fresh rebuild of {})",
            scenario.name
        )?;
    }
    Ok(())
}

/// Prints the container header and section table, as text or `--json`.
/// A v1 blob is a geodab index without a section table.
pub(super) fn inspect(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("in")?;
    let bytes = std::fs::read(&path)?;
    let version = store::peek_version(&bytes)?;
    let legacy = version == store::VERSION_V1;
    // `backend` is the backend's name, or the tag no backend answers to.
    let (backend, watermark, sections) = if legacy {
        (Ok("geodab".to_string()), None, Vec::new())
    } else {
        let reader = SnapshotReader::parse(&bytes)?;
        let backend = reader.backend().map(|kind| kind.to_string());
        let sections = reader
            .sections()
            .iter()
            .map(|&(id, payload)| (store::section_name(id), payload.len()))
            .collect();
        (
            backend.ok_or(reader.backend_tag()),
            store::watermark(&bytes)?,
            sections,
        )
    };

    if args.has("json") {
        let sections = sections.into_iter().map(|(name, len)| {
            Json::obj(vec![
                ("name", Json::Str(name)),
                ("bytes", Json::Num(len as f64)),
            ])
        });
        let report = Json::obj(vec![
            ("schema_version", Json::Num(1.0)),
            ("kind", Json::Str("snapshot".into())),
            ("file", Json::Str(path)),
            ("bytes", Json::Num(bytes.len() as f64)),
            ("format_version", Json::Num(f64::from(version))),
            ("backend", backend.map_or(Json::Null, Json::Str)),
            (
                "watermark",
                watermark.map_or(Json::Null, |seq| Json::Num(seq as f64)),
            ),
            ("sections", Json::Arr(sections.collect())),
        ]);
        writeln!(out, "{}", report.pretty())?;
        return Ok(());
    }
    writeln!(out, "snapshot file     {path}")?;
    writeln!(out, "size              {} bytes", bytes.len())?;
    writeln!(out, "format version    {version}")?;
    if legacy {
        writeln!(
            out,
            "layout            legacy v1 geodab codec (raw fingerprint sequences, \
             engine state rebuilt on load)"
        )?;
        return Ok(());
    }
    match backend {
        Ok(kind) => writeln!(out, "backend           {kind}")?,
        Err(tag) => writeln!(out, "backend           unknown (tag {tag})")?,
    }
    if let Some(seq) = watermark {
        writeln!(out, "wal watermark     seq {seq} folded into this snapshot")?;
    }
    writeln!(
        out,
        "sections          {} (all checksums OK)",
        sections.len()
    )?;
    for (name, len) in &sections {
        writeln!(out, "  {name:<8} {len:>12} bytes")?;
    }
    Ok(())
}
