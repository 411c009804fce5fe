//! Snapshots: build the geodab index and a sharded cluster, save each to
//! disk in the sectioned `GDAB` v2 snapshot format, reload them cold, and verify the
//! restored indexes answer exactly like the originals.
//!
//! Run with `cargo run --release --example persistence`.

use geodabs::cluster::ClusterIndex;
use geodabs::gen::dataset::{Dataset, DatasetConfig};
use geodabs::prelude::*;
use geodabs::roadnet::generators::{grid_network, GridConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = grid_network(&GridConfig::default(), 42);
    let dataset = Dataset::generate(
        &network,
        &DatasetConfig {
            routes: 10,
            per_direction: 3,
            queries: 2,
            ..DatasetConfig::default()
        },
        19,
    )?;
    let items: Vec<_> = dataset
        .records()
        .iter()
        .map(|r| (r.id, &r.trajectory))
        .collect();
    let query = &dataset.queries()[0];
    let options = SearchOptions::default().limit(5);
    let dir = std::env::temp_dir();

    // Build, save and reload the paper's geodab index. `Persist` gives
    // every backend `save_to`/`load_from` over the same container format;
    // the snapshot stores the engine's derived state (posting bitmaps,
    // interner table), so loading materializes directly instead of
    // re-ingesting.
    let mut geodab = GeodabIndex::new(GeodabConfig::default());
    geodab.insert_batch(items.clone());
    let path = dir.join("geodabs-example.gdab");
    let bytes = geodab.save_to(&path)?;
    println!(
        "geodab:  saved {} trajectories / {} terms as {} bytes to {}",
        geodab.len(),
        geodab.term_count(),
        bytes,
        path.display()
    );
    let restored = GeodabIndex::load_from(&path)?;
    assert_eq!(
        restored.search(&query.trajectory, &options),
        geodab.search(&query.trajectory, &options)
    );
    println!("         restored index answers identically");

    // A sharded cluster snapshot is a manifest plus per-node segments,
    // written and read concurrently — the cold-start path of a sharded
    // deployment.
    let mut cluster = ClusterIndex::new(GeodabConfig::default(), 10_000, 8)?;
    cluster.insert_batch(items);
    let path = dir.join("geodabs-example-cluster.gdab");
    cluster.save_to(&path)?;
    let restored = ClusterIndex::load_from(&path)?;
    assert_eq!(restored.postings_per_node(), cluster.postings_per_node());
    let (hits, stats) = restored.search_with_stats(&query.trajectory, &options);
    assert_eq!(hits, cluster.search(&query.trajectory, &options));
    println!(
        "cluster: {} nodes restored; query contacted {} node(s) for {} hit(s)",
        restored.router().num_nodes(),
        stats.nodes_contacted,
        hits.len()
    );

    println!("\ntop hits from the restored geodab index:");
    for h in GeodabIndex::load_from(dir.join("geodabs-example.gdab"))?
        .search(&query.trajectory, &options)
    {
        println!("  {} at distance {:.3}", h.id, h.distance);
    }
    Ok(())
}
