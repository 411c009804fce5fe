//! The synthetic-corpus commands: `build`, `stats`, `search`, `tune`,
//! `world` and `export`. Each regenerates its dataset from `(routes,
//! per-direction, seed)`, so none ships trajectories around.

use geodabs_core::GeodabConfig;
use geodabs_gen::dataset::{Dataset, DatasetConfig};
use geodabs_gen::world::{WorldActivity, WorldConfig};
use geodabs_index::store::Persist;
use geodabs_index::tuning::{hill_climb, TuningSample};
use geodabs_index::{codec, GeodabIndex, SearchOptions, TrajectoryIndex};
use geodabs_roadnet::generators::{grid_network, GridConfig};
use geodabs_roadnet::RoadNetwork;
use std::collections::HashSet;
use std::error::Error;
use std::io::Write;

use crate::Args;

pub(super) fn network(seed: u64) -> RoadNetwork {
    grid_network(&GridConfig::default(), seed)
}

fn dataset_from_args(args: &Args) -> Result<Dataset, Box<dyn Error>> {
    let routes = args.usize_or("routes", 20)?;
    let per_direction = args.usize_or("per-direction", 5)?;
    let seed = args.u64_or("seed", 42)?;
    let cfg = DatasetConfig {
        routes,
        per_direction,
        queries: routes.min(16),
        ..DatasetConfig::default()
    };
    Ok(Dataset::generate(&network(seed), &cfg, seed)?)
}

pub(super) fn build(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("out")?;
    let ds = dataset_from_args(args)?;
    let mut index = GeodabIndex::new(GeodabConfig::default());
    for r in ds.records() {
        index.insert(r.id, &r.trajectory);
    }
    let bytes = index.to_snapshot();
    std::fs::write(&path, &bytes)?;
    writeln!(
        out,
        "indexed {} trajectories ({} terms) into {} ({} bytes)",
        index.len(),
        index.term_count(),
        path,
        bytes.len()
    )?;
    Ok(())
}

pub(super) fn stats(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("index")?;
    let bytes = std::fs::read(&path)?;
    let index = codec::decode(&bytes)?;
    let cfg = index.config();
    writeln!(out, "index file        {path}")?;
    writeln!(out, "trajectories      {}", index.len())?;
    writeln!(out, "distinct terms    {}", index.term_count())?;
    writeln!(
        out,
        "config            depth={} k={} t={} (w={}) prefix={} bits",
        cfg.normalization_depth(),
        cfg.k(),
        cfg.t(),
        cfg.window(),
        cfg.prefix_bits()
    )?;
    let total_fps: usize = index.iter_fingerprints().map(|(_, fp)| fp.len()).sum();
    writeln!(
        out,
        "fingerprints      {} total, {:.1} per trajectory",
        total_fps,
        total_fps as f64 / index.len().max(1) as f64
    )?;
    Ok(())
}

pub(super) fn search(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("index")?;
    let bytes = std::fs::read(&path)?;
    let index = codec::decode(&bytes)?;
    let ds = dataset_from_args(args)?;
    let qi = args.usize_or("query", 0)?;
    let limit = args.usize_or("limit", 10)?;
    let query = ds.queries().get(qi).ok_or_else(|| {
        format!(
            "query index {qi} out of range (have {})",
            ds.queries().len()
        )
    })?;
    let relevant = ds.relevant_ids(query);
    let hits = index.search(&query.trajectory, &SearchOptions::default().limit(limit));
    writeln!(
        out,
        "query {qi} (route {}, {} points): {} hit(s)",
        query.route,
        query.trajectory.len(),
        hits.len()
    )?;
    for (rank, h) in hits.iter().enumerate() {
        writeln!(
            out,
            "{:>4}  {:>8}  d={:.3}  {}",
            rank + 1,
            h.id.to_string(),
            h.distance,
            if relevant.contains(&h.id) {
                "relevant"
            } else {
                "-"
            }
        )?;
    }
    Ok(())
}

pub(super) fn tune(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let ds = dataset_from_args(args)?;
    let steps = args.usize_or("steps", 5)?;
    let corpus: Vec<_> = ds
        .records()
        .iter()
        .map(|r| (r.id, r.trajectory.clone()))
        .collect();
    let queries: Vec<_> = ds
        .queries()
        .iter()
        .map(|q| {
            let rel: HashSet<_> = ds.relevant_ids(q);
            (q.trajectory.clone(), rel)
        })
        .collect();
    let sample = TuningSample::new(corpus, queries);
    let result = hill_climb(&sample, GeodabConfig::default(), steps);
    writeln!(out, "evaluated {} configurations", result.evaluations)?;
    for (cfg, score) in &result.trace {
        writeln!(
            out,
            "  depth={} k={} t={}  score={score:.3}",
            cfg.normalization_depth(),
            cfg.k(),
            cfg.t()
        )?;
    }
    writeln!(
        out,
        "best: depth={} k={} t={} (mean R-precision {:.3})",
        result.config.normalization_depth(),
        result.config.k(),
        result.config.t(),
        result.score
    )?;
    Ok(())
}

pub(super) fn world(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let trajectories = args.u64_or("trajectories", 200_000)?;
    let cities = args.usize_or("cities", 1_000)?;
    let seed = args.u64_or("seed", 15)?;
    let activity = WorldActivity::generate(
        &WorldConfig {
            cities,
            trajectories,
            ..WorldConfig::default()
        },
        seed,
    );
    writeln!(out, "trajectories      {}", activity.total())?;
    writeln!(out, "non-empty cells   {}", activity.counts().len())?;
    writeln!(out, "occupancy         {:.4}", activity.occupancy())?;
    writeln!(out, "peak cell         {}", activity.peak())?;
    Ok(())
}

pub(super) fn export(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let path = args.string_required("out")?;
    let ds = dataset_from_args(args)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    geodabs_gen::csv::write_records(ds.records(), &mut file)?;
    file.flush()?;
    writeln!(
        out,
        "exported {} trajectories ({} points) to {}",
        ds.records().len(),
        ds.total_points(),
        path
    )?;
    Ok(())
}
