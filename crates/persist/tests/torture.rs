//! Crash-recovery torture harness over the fault-injecting VFS.
//!
//! The recovery invariant under test, for every fault point a change
//! stream can reach: inject the fault at the Nth I/O call, crash, and
//! reopen — `open` must never panic, and must yield either a typed
//! error or a system whose snapshot encoding is **bit-identical to
//! some prefix of the applied change stream**, with the prefix bounded
//! below by what was durably acknowledged (fsync honored) and above by
//! what was ever applied in memory.
//!
//! Everything runs on [`FaultVfs`] — an in-memory filesystem with
//! separate live/durable buffers — so the enumeration covers hundreds
//! of (fault kind × I/O index × crash-tail policy) cells in seconds
//! and is fully deterministic. Set `TORTURE_QUICK=1` (CI) to stride
//! the enumeration instead of visiting every cell.

#![allow(clippy::disallowed_methods)]

use proptest::prelude::*;
use smartstore::versioning::Change;
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_persist::{
    snapshot, wal, CrashTail, FaultKind, FaultPlan, FaultVfs, SystemPersist as _, WalWriter,
};
use smartstore_trace::{FileMetadata, GeneratorConfig, MetadataPopulation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Virtual directory inside the memfs; never touches the real disk.
const DIR: &str = "/torture";

fn quick() -> bool {
    std::env::var_os("TORTURE_QUICK").is_some()
}

fn build_system(n_files: usize, n_units: usize, seed: u64, sync_every: usize) -> SmartStoreSystem {
    let pop = MetadataPopulation::generate(GeneratorConfig {
        n_files,
        n_clusters: (n_units / 2).max(2),
        seed,
        ..GeneratorConfig::default()
    });
    let mut sys = SmartStoreSystem::build(pop.files, n_units, SmartStoreConfig::default(), seed);
    sys.cfg.persist.wal_sync_every = sync_every;
    // Small enough that a ~30-change stream crosses several
    // compactions, so faults land inside the snapshot install and WAL
    // hand-over paths, not just plain appends.
    sys.cfg.persist.wal_compact_bytes = 1536;
    sys
}

fn churn(files: &[FileMetadata], ops: &[(u8, u64, u64)]) -> Vec<Change> {
    ops.iter()
        .map(|&(kind, pick, salt)| {
            let base = &files[(pick as usize) % files.len()];
            match kind % 3 {
                0 => {
                    let mut f = base.clone();
                    f.file_id = 10_000_000 + salt;
                    f.name = format!("new_{salt}");
                    f.size = 1 + salt;
                    Change::Insert(f)
                }
                1 => Change::Delete(base.file_id),
                _ => {
                    let mut f = base.clone();
                    f.size = f.size.wrapping_mul(3).max(1);
                    f.mtime += 17.0;
                    Change::Modify(f)
                }
            }
        })
        .collect()
}

fn fingerprint(sys: &SmartStoreSystem) -> Vec<u8> {
    snapshot::encode_snapshot(&sys.to_parts()).0
}

/// Shared starting point for an enumeration sweep: a snapshotted base
/// image in a pristine memfs, the change stream, the fingerprint of
/// every prefix of a fault-free journaled run, and how many I/O calls
/// that fault-free stream consumes (the fault-point universe).
struct Baseline {
    vfs: FaultVfs,
    changes: Vec<Change>,
    /// `prints[j]` = snapshot encoding after `j` fault-free applies.
    prints: Vec<Vec<u8>>,
    /// I/O calls a fault-free run of the stream performs (after open).
    stream_ops: u64,
    /// Memfs image after the full stream ran and the store was dropped
    /// cleanly — the substrate for open-time fault enumeration.
    end_vfs: FaultVfs,
}

fn baseline(sync_every: usize) -> Baseline {
    let dir = Path::new(DIR);
    let vfs = FaultVfs::new();
    let sys = build_system(140, 4, 0xC0FFEE, sync_every);
    let (store, _) = sys
        .save_snapshot_with(vfs.handle(), dir)
        .expect("baseline snapshot");
    drop(store);

    let files = sys.current_files();
    let ops: Vec<(u8, u64, u64)> = (0..30u64).map(|i| ((i % 3) as u8, i * 7919, i)).collect();
    let changes = churn(&files, &ops);

    // Fault-free oracle run over a fork: records the per-prefix
    // fingerprints every torture iteration is checked against, and the
    // total op count that bounds the fault-point enumeration.
    let ovfs = vfs.fork();
    let (mut osys, mut ostore, _) =
        SmartStoreSystem::open_from_dir_with(ovfs.handle(), dir).expect("baseline open");
    ovfs.reset_ops();
    let mut prints = vec![fingerprint(&osys)];
    for ch in &changes {
        osys.apply_journaled(&mut ostore, ch.clone())
            .expect("fault-free apply");
        prints.push(fingerprint(&osys));
    }
    let stream_ops = ovfs.ops();
    drop(ostore);

    Baseline {
        vfs,
        changes,
        prints,
        stream_ops,
        end_vfs: ovfs,
    }
}

/// One torture cell: open the base image, arm `kind` at I/O call `at`,
/// run the change stream until the first error, crash with `tail`,
/// reopen, and check the recovery invariant.
fn torture_once(base: &Baseline, kind: FaultKind, at: u64, tail: CrashTail, strict_acked: bool) {
    let dir = Path::new(DIR);
    let vfs = base.vfs.fork();
    let (mut sys, mut store, _) =
        SmartStoreSystem::open_from_dir_with(vfs.handle(), dir).expect("pre-fault open");
    vfs.reset_ops();
    vfs.set_plan(Some(FaultPlan {
        at,
        kind,
        sticky: false,
    }));

    let mut successes = 0usize;
    for ch in &base.changes {
        match sys.apply_journaled(&mut store, ch.clone()) {
            Ok(_) => successes += 1,
            Err(_) => break,
        }
    }

    vfs.crash(tail);
    drop(store); // post-crash: its Drop-sync is a no-op on the image

    let ctx = format!("kind {kind:?} at op {at} tail {tail:?} successes {successes}");
    let reopened = catch_unwind(AssertUnwindSafe(|| {
        SmartStoreSystem::open_from_dir_with(vfs.handle(), dir)
    }))
    .unwrap_or_else(|_| panic!("open panicked after crash ({ctx})"));

    match reopened {
        Ok((rec, _store, _report)) => {
            let fp = fingerprint(&rec);
            // First match bounds the prefix from above, last match from
            // below: no-op changes (e.g. deleting an absent id) can
            // make adjacent prefixes bit-identical.
            let lo = base
                .prints
                .iter()
                .position(|p| p == &fp)
                .unwrap_or_else(|| panic!("recovered state matches no stream prefix ({ctx})"));
            let hi = base.prints.iter().rposition(|p| p == &fp).unwrap();
            assert!(
                lo <= successes + 1,
                "recovered beyond anything applied: prefix {lo} > {} ({ctx})",
                successes + 1
            );
            // With fsync-per-frame and an honest disk, every
            // acknowledged apply must survive the crash.
            if strict_acked && kind != FaultKind::LyingFsync {
                assert!(
                    hi >= successes,
                    "acknowledged change lost: prefix {hi} < {successes} ({ctx})"
                );
            }
        }
        Err(_) => {
            // A typed error is within the invariant, but only a lying
            // fsync can fake out the atomic snapshot/manifest install;
            // every honest-disk fault must leave an openable image.
            assert!(
                kind == FaultKind::LyingFsync,
                "open failed after an honest-disk fault ({ctx})"
            );
        }
    }
}

fn stream_sweep(sync_every: usize, strict_acked: bool) {
    let base = baseline(sync_every);
    assert!(
        base.stream_ops > 40,
        "change stream too small to be interesting: {} ops",
        base.stream_ops
    );
    let stride = if quick() { 7 } else { 1 };
    let tail_stride = if quick() { 21 } else { 5 };
    let mut cells = 0u64;
    for kind in FaultKind::ALL {
        let mut at = 0;
        while at < base.stream_ops {
            torture_once(&base, kind, at, CrashTail::DropUnsynced, strict_acked);
            cells += 1;
            at += stride;
        }
        // Torn and lucky crash tails at strided fault points: these
        // vary how much unsynced data survives, which matters most
        // around short writes and lying fsyncs.
        for tail in [CrashTail::KeepHalf, CrashTail::KeepAll] {
            let mut at = 0;
            while at < base.stream_ops {
                torture_once(&base, kind, at, tail, strict_acked);
                cells += 1;
                at += tail_stride;
            }
        }
    }
    assert!(cells > 0);
}

/// Every I/O call of the change stream, times every fault kind, times
/// every crash-tail policy — with fsync after every frame, so every
/// acknowledged change must survive any honest-disk fault.
#[test]
fn stream_faults_sync_every_frame() {
    stream_sweep(1, true);
}

/// Same sweep with group-commit batching (sync every 4 frames): a
/// crash may drop the unsynced tail of a batch, so only the upper
/// bound (never recover more than was applied) is asserted.
#[test]
fn stream_faults_group_commit() {
    stream_sweep(4, false);
}

/// Open-time faults: arm every fault kind at every I/O call of the
/// recovery path itself (both transient and sticky), over the sealed
/// end-state image. Open must never panic — and after the fault
/// clears, a follow-up open must still succeed: partial recovery
/// actions (truncation, quarantine) never brick the store.
#[test]
fn open_time_faults_never_brick_recovery() {
    let base = baseline(1);
    let dir = Path::new(DIR);

    // How many I/O calls does a clean open of the end image take?
    let probe = base.end_vfs.fork();
    let _ = SmartStoreSystem::open_from_dir_with(probe.handle(), dir).expect("clean reopen");
    let open_ops = probe.ops();
    assert!(open_ops > 5, "open consumed only {open_ops} ops");

    let stride = if quick() { 5 } else { 1 };
    for kind in FaultKind::ALL {
        for sticky in [false, true] {
            let mut at = 0;
            while at < open_ops {
                let ctx = format!("kind {kind:?} at op {at} sticky {sticky}");
                let vfs = base.end_vfs.fork();
                vfs.set_plan(Some(FaultPlan { at, kind, sticky }));
                let first = catch_unwind(AssertUnwindSafe(|| {
                    SmartStoreSystem::open_from_dir_with(vfs.handle(), dir)
                }))
                .unwrap_or_else(|_| panic!("open panicked under fault ({ctx})"));
                if let Ok((rec, _, _)) = &first {
                    let fp = fingerprint(rec);
                    assert!(
                        base.prints.iter().any(|p| p == &fp),
                        "faulted open yielded a non-prefix state ({ctx})"
                    );
                }
                drop(first);

                // Fault gone (one-shots are spent; clear sticky plans):
                // recovery must be repeatable on whatever it left.
                vfs.set_plan(None);
                let (rec, _, _) = catch_unwind(AssertUnwindSafe(|| {
                    SmartStoreSystem::open_from_dir_with(vfs.handle(), dir)
                }))
                .unwrap_or_else(|_| panic!("follow-up open panicked ({ctx})"))
                .unwrap_or_else(|e| panic!("store bricked: follow-up open failed: {e} ({ctx})"));
                let fp = fingerprint(&rec);
                assert!(
                    base.prints.iter().any(|p| p == &fp),
                    "follow-up open yielded a non-prefix state ({ctx})"
                );
                at += stride;
            }
        }
    }
}

// ---------------------------------------------------------------------
// WAL-tail quarantine property
// ---------------------------------------------------------------------

/// Builds a sealed WAL segment in a fresh memfs and returns the vfs,
/// the segment path, and the byte offset after each frame (boundary 0
/// is the header).
fn build_segment(n_frames: usize, seed: u64) -> (FaultVfs, std::path::PathBuf, Vec<u64>) {
    let vfs = FaultVfs::new();
    let path = Path::new(DIR).join("wal-q.log");
    vfs.handle().create_dir_all(Path::new(DIR)).expect("mkdir");
    let sys = build_system(60, 3, seed, 1);
    let files = sys.current_files();
    let ops: Vec<(u8, u64, u64)> = (0..n_frames as u64)
        .map(|i| ((i % 3) as u8, i.wrapping_mul(seed | 1), i))
        .collect();
    let changes = churn(&files, &ops);
    let mut w = WalWriter::create(vfs.handle().as_ref(), &path, 1, 0).expect("create wal");
    let mut bounds = vec![wal::header_len()];
    for (i, ch) in changes.iter().enumerate() {
        w.append(i, ch).expect("append");
        bounds.push(w.bytes());
    }
    w.sync().expect("seal");
    drop(w);
    (vfs, path, bounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For ANY truncation point or bit flip past the header, replay +
    /// `quarantine_tail` salvages exactly the longest valid frame
    /// prefix and quarantines exactly the bytes after it.
    #[test]
    fn quarantine_salvages_longest_valid_prefix(
        n_frames in 3usize..10,
        seed in 0u64..500,
        pos_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
        mode in 0u8..2,
    ) {
        let (vfs, path, bounds) = build_segment(n_frames, seed);
        let handle = vfs.handle();
        let len = handle.file_len(&path).expect("len");
        let header = wal::header_len();
        prop_assume!(len > header);

        // A corruption position in the frame region [header, len).
        let span = len - header;
        let pos = header + ((pos_frac * span as f64) as u64).min(span - 1);

        let (expect_good, corrupted_len) = if mode == 0 {
            // Truncate at `pos`: frames wholly inside survive.
            let mut f = handle.open_rw(&path).expect("open");
            f.set_len(pos).expect("truncate");
            f.sync().expect("sync");
            let good = *bounds.iter().filter(|&&b| b <= pos).max().unwrap();
            (good, pos)
        } else {
            // Flip one bit at `pos`: the frame containing it dies, and
            // the scan stops there (CRC catches any single-bit flip).
            prop_assert!(vfs.corrupt_durable(&path, pos as usize, 1 << flip_bit));
            let good = *bounds.iter().filter(|&&b| b <= pos).max().unwrap();
            (good, len)
        };
        let expect_frames = bounds.iter().position(|&b| b == expect_good).unwrap();
        let expect_dropped = corrupted_len - expect_good;

        let rep = wal::replay(handle.as_ref(), &path).expect("replay");
        prop_assert_eq!(rep.good_bytes, expect_good, "salvage point");
        prop_assert_eq!(rep.frames.len(), expect_frames, "salvaged frames");
        prop_assert_eq!(rep.torn.is_some(), expect_dropped > 0);

        let dropped = wal::quarantine_tail(handle.as_ref(), &path, &rep).expect("quarantine");
        prop_assert_eq!(dropped, expect_dropped, "quarantined byte count");

        let qpath = wal::quarantine_path(&path);
        if expect_dropped > 0 {
            let side = handle.read(&qpath).expect("quarantine side file");
            prop_assert_eq!(side.len() as u64, expect_dropped);
        } else {
            prop_assert!(!handle.exists(&qpath).expect("exists"));
        }

        // The salvaged log is clean and reusable.
        prop_assert_eq!(handle.file_len(&path).expect("len"), expect_good);
        let rep2 = wal::replay(handle.as_ref(), &path).expect("re-replay");
        prop_assert!(rep2.torn.is_none());
        prop_assert_eq!(rep2.frames.len(), expect_frames);
    }
}
