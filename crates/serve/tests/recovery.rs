//! The one recovery path against an independent oracle: `recover`
//! (the compacted snapshot, then the log suffix beyond its watermark)
//! must rebuild exactly the index the logged mutations produce when
//! applied directly — with or without a snapshot, over a torn tail, on
//! a shard node's fingerprint log — and must refuse a log that does not
//! continue its starting state instead of silently dropping writes.

mod common;

use common::{build_index, corpus, eastward, queries, wal_dir, NUM_SHARDS};
use geodabs_cluster::{ClusterIndex, ShardNode};
use geodabs_core::{Fingerprinter, Fingerprints, GeodabConfig};
use geodabs_index::store::{self, Persist};
use geodabs_index::{GeodabIndex, SearchOptions, TrajectoryIndex};
use geodabs_serve::{recover, AnyIndex, ServeBackend, WAL_SNAPSHOT_FILE};
use geodabs_traj::TrajId;
use geodabs_wal::{SyncPolicy, Wal, WalOp};
use proptest::prelude::*;
use std::path::Path;

/// The oracle: `op` applied to `index` directly, not through the log.
fn apply_directly(index: &mut GeodabIndex, op: &WalOp) {
    match op {
        WalOp::Insert { id, trajectory } => index.insert(*id, trajectory),
        WalOp::Remove { id } => {
            index.remove(*id);
        }
        WalOp::InsertFingerprints { .. } => unreachable!("a geodab log holds trajectories"),
    }
}

fn append_all(wal: &mut Wal, ops: &[WalOp]) {
    for op in ops {
        wal.append(op).expect("append");
    }
}

/// Writes `index` as `dir`'s compacted snapshot, stamped `watermark`.
fn write_compacted(dir: &Path, index: &impl Persist, watermark: u64) {
    let stamped = store::with_watermark(&index.to_snapshot(), watermark).expect("stamp");
    std::fs::write(dir.join(WAL_SNAPSHOT_FILE), stamped).expect("write snapshot");
}

/// Cuts the last byte off the final segment: a crash mid-append.
fn tear_last_record(dir: &Path) {
    let last = Wal::segments(dir)
        .expect("segments")
        .pop()
        .expect("a segment");
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(&last.file_name))
        .and_then(|file| file.set_len(last.bytes - 1))
        .expect("truncate");
}

/// The scenario-style base a server without a compacted snapshot boots
/// from: the corpus, at watermark 0.
fn corpus_base() -> Result<(GeodabIndex, u64), String> {
    Ok((build_index(), 0))
}

/// A script of inserts, replaces and removals over a few ids; it always
/// opens by inserting, replacing, removing and re-inserting id 0.
fn script_ops(script: &[(u8, u32, u32)]) -> Vec<WalOp> {
    let path = |offset: u32| eastward(30 + offset as usize % 10, 10_000.0 + offset as f64 * 150.0);
    let id = TrajId::new;
    let mut ops = vec![
        WalOp::Insert {
            id: id(0),
            trajectory: path(1),
        },
        WalOp::Insert {
            id: id(0),
            trajectory: path(2),
        },
        WalOp::Remove { id: id(0) },
        WalOp::Insert {
            id: id(0),
            trajectory: path(3),
        },
    ];
    ops.extend(script.iter().map(|&(kind, raw_id, offset)| match kind {
        // Ids 0..8 overlap the corpus (0..20), so removals and replaces
        // hit ids the base already holds.
        0 | 1 => WalOp::Insert {
            id: id(raw_id),
            trajectory: path(offset),
        },
        _ => WalOp::Remove { id: id(raw_id) },
    }));
    ops
}

fn assert_same_index(restored: &GeodabIndex, reference: &GeodabIndex) {
    assert_eq!(restored.len(), reference.len());
    let sorted = |index: &GeodabIndex| {
        let mut ids: Vec<TrajId> = index.ids().collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(sorted(restored), sorted(reference));
    let options = SearchOptions::default().limit(10);
    let probes = queries().into_iter().chain(
        (0..40)
            .step_by(7)
            .map(|o| eastward(35, 10_000.0 + o as f64 * 150.0)),
    );
    for probe in probes {
        assert_eq!(
            restored.search(&probe, &options),
            reference.search(&probe, &options)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any log, with the first `fold` records compacted into a snapshot
    /// (none when 0; their segment pruned or not) and optionally a torn
    /// final record, recovers to the corpus with the surviving records
    /// applied directly.
    #[test]
    fn recover_equals_the_directly_mutated_index(
        script in proptest::collection::vec((0u8..3, 0u32..8, 0u32..40), 0..24),
        fold in 0usize..32,
        pruned in 0u8..2,
        torn in 0u8..2,
    ) {
        let ops = script_ops(&script);
        let fold = fold.min(ops.len());
        let (folded, suffix) = ops.split_at(fold);
        let torn = torn == 1 && !suffix.is_empty();
        let kept = ops.len() - usize::from(torn);

        let dir = wal_dir("recovery-random");
        let mut wal = Wal::open(&dir, SyncPolicy::Never).expect("open wal");
        append_all(&mut wal, folded);
        if fold > 0 {
            // A compaction: rotate, land the stamped snapshot, then
            // prune — or crash first, leaving the folded records behind.
            let mut compacted = build_index();
            folded.iter().for_each(|op| apply_directly(&mut compacted, op));
            let watermark = wal.rotate().expect("rotate");
            prop_assert_eq!(watermark, fold as u64);
            write_compacted(&dir, &compacted, watermark);
            if pruned == 1 {
                wal.prune(watermark).expect("prune");
            }
        }
        append_all(&mut wal, suffix);
        wal.sync().expect("sync");
        drop(wal);
        if torn {
            tear_last_record(&dir);
        }

        let recovered = recover(&dir, corpus_base).expect("recovers");
        let mut reference = build_index();
        ops[..kept].iter().for_each(|op| apply_directly(&mut reference, op));
        prop_assert_eq!(recovered.compacted.is_some(), fold > 0);
        prop_assert_eq!(recovered.watermark, fold as u64);
        prop_assert_eq!(recovered.last_seq, kept as u64);
        prop_assert_eq!(recovered.replayed, kept - fold);
        assert_same_index(&recovered.index, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn any_index_node_backend_roundtrips_and_replays_shard_ops() {
    let config = GeodabConfig::default();
    let mut cluster = ClusterIndex::new(config, NUM_SHARDS, 2).expect("cluster");
    cluster.insert_batch(corpus().iter().map(|(id, t)| (*id, t)));
    let node = cluster.shard_node(0).expect("node 0");
    let restored = AnyIndex::from_snapshot(&node.to_snapshot()).expect("node snapshot loads");
    assert_eq!(restored.backend_name(), "node");
    assert_eq!(restored.len(), node.len());
    assert_eq!(restored.ids().count(), node.len());

    // A shard server's log beyond its compacted snapshot: a new id, a
    // replace of an id the slice holds, and a removal.
    let fingerprinter = Fingerprinter::new(config);
    let terms = |offset: f64| {
        fingerprinter
            .normalize_and_fingerprint(&eastward(40, offset))
            .ordered()
            .to_vec()
    };
    let held: Vec<TrajId> = node.ids().take(2).collect();
    let ops = [
        WalOp::InsertFingerprints {
            id: TrajId::new(900),
            terms: terms(9_000.0),
        },
        WalOp::InsertFingerprints {
            id: held[0],
            terms: terms(7_500.0),
        },
        WalOp::Remove { id: held[1] },
    ];
    let dir = wal_dir("recovery-node");
    write_compacted(&dir, &node, 0);
    append_all(
        &mut Wal::open(&dir, SyncPolicy::Never).expect("open wal"),
        &ops,
    );

    let mut reference: ShardNode = node;
    for op in ops.clone() {
        match op {
            WalOp::InsertFingerprints { id, terms } => {
                reference.insert_fingerprints(id, Fingerprints::from_ordered(terms))
            }
            WalOp::Remove { id } => {
                reference.remove(id);
            }
            WalOp::Insert { .. } => unreachable!("a shard server logs fingerprints"),
        }
    }
    let recovered = recover(
        &dir,
        || Err("the compacted snapshot is missing".to_string()),
    )
    .expect("a node replays its shard ops");
    assert_eq!(recovered.compacted.map(|_| recovered.watermark), Some(0));
    assert_eq!((recovered.last_seq, recovered.replayed), (3, 3));
    let index: AnyIndex = recovered.index;
    assert_eq!(index.len(), reference.len());
    let options = SearchOptions::default().limit(10);
    for offset in [0.0, 400.0, 7_500.0, 9_000.0] {
        let query = Fingerprints::from_ordered(terms(offset));
        assert_eq!(
            index.search_fingerprints(&query, &options),
            reference.search_fingerprints(&query, &options)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn insert_fingerprints_on_a_geodab_base_is_refused() {
    let dir = wal_dir("recovery-refused");
    let ops = [
        WalOp::Insert {
            id: TrajId::new(50),
            trajectory: eastward(30, 8_000.0),
        },
        WalOp::InsertFingerprints {
            id: TrajId::new(51),
            terms: vec![1, 2, 3],
        },
    ];
    append_all(
        &mut Wal::open(&dir, SyncPolicy::Never).expect("open wal"),
        &ops,
    );

    let err = recover(&dir, corpus_base).expect_err("a geodab base refuses shard ops");
    assert!(err.contains("wal record 2"), "{err}");
    assert!(err.contains("geodab backend"), "{err}");
    assert!(err.contains("not a shard node"), "{err}");
    let err = recover(&dir, || {
        Ok::<_, String>((AnyIndex::empty("geodab", 0, 0)?, 0))
    })
    .expect_err("so does the any-backend value");
    assert!(err.contains("not a shard node"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_log_starting_after_the_watermark_is_refused() {
    // Three records compacted and pruned, one more logged — then the
    // directory is copied without its snapshot.
    let dir = wal_dir("recovery-gap-start");
    let insert = |i: u32| WalOp::Insert {
        id: TrajId::new(60 + i),
        trajectory: eastward(30, 8_000.0 + i as f64 * 200.0),
    };
    let mut wal = Wal::open(&dir, SyncPolicy::Never).expect("open wal");
    append_all(&mut wal, &[insert(0), insert(1), insert(2)]);
    let watermark = wal.rotate().expect("rotate");
    wal.prune(watermark).expect("prune");
    append_all(&mut wal, &[insert(3)]);
    drop(wal);

    let err = recover(&dir, corpus_base).expect_err("records 1..=3 are missing");
    assert!(err.contains("log gap"), "{err}");
    assert!(err.contains("starts at seq 4"), "{err}");
    assert!(err.contains("records 1..=3 are missing"), "{err}");

    // With the snapshot that folded them back in place, the log
    // continues it again.
    let mut compacted = build_index();
    (0..3).for_each(|i| apply_directly(&mut compacted, &insert(i)));
    write_compacted(&dir, &compacted, watermark);
    let recovered = recover(&dir, corpus_base).expect("the log continues the snapshot");
    assert_eq!(
        (recovered.watermark, recovered.last_seq, recovered.replayed),
        (3, 4, 1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_log_ending_before_the_watermark_is_refused() {
    // A snapshot stamped at seq 5 beside a log that restarted at seq 1:
    // the next boot would skip the new records as already folded.
    let dir = wal_dir("recovery-gap-end");
    write_compacted(&dir, &build_index(), 5);
    let mut wal = Wal::open(&dir, SyncPolicy::Never).expect("open wal");
    let err = recover(&dir, corpus_base).expect_err("an empty log cannot continue seq 5");
    assert!(err.contains("ends at seq 0"), "{err}");
    append_all(
        &mut wal,
        &[
            WalOp::Remove { id: TrajId::new(1) },
            WalOp::Remove { id: TrajId::new(2) },
        ],
    );
    drop(wal);

    let err = recover(&dir, corpus_base).expect_err("records 1..=2 sit under the watermark");
    assert!(err.contains("log gap"), "{err}");
    assert!(err.contains("ends at seq 2"), "{err}");
    assert!(err.contains("watermark 5"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
