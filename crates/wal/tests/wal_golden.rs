//! Golden pin of the write-ahead log's on-disk bytes.
//!
//! The log's own tests replay what the same build appended, so a
//! symmetric change to the record encoder and decoder would pass them
//! and still strand every log a previous build left behind — a server
//! booting over it would refuse the log or replay the wrong mutations.
//! This digest pins a segment holding every op kind, written by single
//! appends and by the group-commit path; it must never change without a
//! deliberate format bump.

use geodabs_geo::Point;
use geodabs_traj::{TrajId, Trajectory};
use geodabs_wal::{SyncPolicy, Wal, WalOp};

/// FNV-1a over the bytes, with a length prefix.
fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `n` points on a plain arithmetic grid (no trigonometry, so the
/// coordinates are bit-identical on every platform).
fn grid(n: usize) -> Trajectory {
    (0..n)
        .map(|i| Point::new(48.85 + i as f64 * 0.002, 2.35 - i as f64 * 0.001).unwrap())
        .collect()
}

#[test]
fn segment_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("geodabs-wal-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ops = [
        WalOp::Insert {
            id: TrajId::new(7),
            trajectory: grid(4),
        },
        WalOp::Remove { id: TrajId::new(7) },
        WalOp::InsertFingerprints {
            id: TrajId::new(9),
            terms: vec![3, 3, 42, u32::MAX],
        },
    ];
    {
        let mut wal = Wal::open(&dir, SyncPolicy::Never).unwrap();
        for op in &ops {
            wal.append(op).unwrap();
        }
        let batch = [
            WalOp::Insert {
                id: TrajId::new(1),
                trajectory: Trajectory::default(),
            },
            WalOp::InsertFingerprints {
                id: TrajId::new(2),
                terms: Vec::new(),
            },
            WalOp::Insert {
                id: TrajId::new(3),
                trajectory: grid(2),
            },
        ];
        assert_eq!(wal.append_batch(&batch).unwrap(), Some((4, 6)));
        wal.sync().unwrap();
    }
    let segment = std::fs::read(dir.join("wal-00000000000000000001.log")).unwrap();
    let records = Wal::records(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(records.len(), 6);
    assert_eq!(records[2].op, ops[2]);
    assert_eq!(
        digest(&segment),
        0xa6dd_121f_e94b_9b52,
        "wal segment bytes changed ({} bytes)",
        segment.len()
    );
}
