//! Persistence, end to end on generated data: an index must survive an
//! encode/decode roundtrip byte for byte, in memory and through disk.

use geodabs::gen::dataset::{Dataset, DatasetConfig};
use geodabs::index::codec;
use geodabs::prelude::*;
use geodabs::roadnet::generators::{grid_network, GridConfig};

fn dataset() -> Dataset {
    let net = grid_network(&GridConfig::default(), 42);
    Dataset::generate(
        &net,
        &DatasetConfig {
            routes: 6,
            per_direction: 3,
            queries: 4,
            ..DatasetConfig::default()
        },
        23,
    )
    .expect("routable network")
}

#[test]
fn persisted_index_answers_every_query_identically() {
    let ds = dataset();
    let mut index = GeodabIndex::new(GeodabConfig::default());
    for r in ds.records() {
        index.insert(r.id, &r.trajectory);
    }
    let bytes = index.to_snapshot();
    let restored = codec::decode(&bytes).expect("roundtrip");
    assert_eq!(restored.len(), index.len());
    for q in ds.queries() {
        assert_eq!(
            index.search(&q.trajectory, &SearchOptions::default()),
            restored.search(&q.trajectory, &SearchOptions::default())
        );
    }
    // And the roundtrip is stable: decoding then re-encoding gives x back.
    assert_eq!(restored.to_snapshot(), bytes);
}

#[test]
fn persisted_index_survives_disk() {
    let ds = dataset();
    let mut index = GeodabIndex::new(GeodabConfig::default());
    for r in ds.records() {
        index.insert(r.id, &r.trajectory);
    }
    let dir = std::env::temp_dir().join("geodabs-int-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("persist.gdab");
    std::fs::write(&path, index.to_snapshot()).expect("write");
    let bytes = std::fs::read(&path).expect("read");
    let restored = codec::decode(&bytes).expect("decode");
    assert_eq!(restored.len(), ds.records().len());
}
