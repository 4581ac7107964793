//! Recovery is byte-identical, not just answer-identical. A reopened
//! store's snapshot encoding, and every unit's row-ordered columns,
//! must equal those of the *reference replay*: the store's base image
//! with each surviving WAL frame applied by [`SmartStoreSystem::apply_change`],
//! one at a time. The open path replays a whole segment at once instead
//! (inserts placed by the frame's group tag, each group's superseded
//! lazy refreshes elided), and this suite is what holds it to the
//! frame-by-frame result.
//!
//! The streams cover several refreshes of one group, no-op deletes and
//! modifies, re-inserts of a held id, renames, versioning off, a
//! compaction mid-stream and a torn tail; an image holding a duplicated
//! file id has its own case.

#![allow(clippy::disallowed_methods)]

use proptest::prelude::*;
use smartstore::versioning::Change;
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_persist::snapshot::encode_snapshot;
use smartstore_persist::{
    load_snapshot, wal, PersistentStore, RealVfs, RecoveryReport, SystemPersist as _,
};
use smartstore_trace::{FileMetadata, GeneratorConfig, MetadataPopulation};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "smartstore_replay_{tag}_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn build_system(n_files: usize, n_units: usize, seed: u64) -> SmartStoreSystem {
    let pop = MetadataPopulation::generate(GeneratorConfig {
        n_files,
        n_clusters: (n_units / 2).max(2),
        seed,
        ..GeneratorConfig::default()
    });
    SmartStoreSystem::build(pop.files, n_units, SmartStoreConfig::default(), seed)
}

/// Id of the `i`-th inserted file; no base file uses this range.
fn fresh_id(i: u64) -> u64 {
    10_000_000 + i
}

/// A change stream over the base `files`. Kinds: 0–1 insert a fresh
/// file, 2 delete a base file (a no-op once it is gone), 3 modify a
/// base file (likewise), 4 rename a base file, 5 delete an earlier
/// insert, 6 delete an id nobody holds, 7 modify an id nobody holds.
fn churn(files: &[FileMetadata], ops: &[(u8, u64)]) -> Vec<Change> {
    let mut inserted = 0u64;
    ops.iter()
        .map(|&(kind, pick)| {
            let base = &files[(pick as usize) % files.len()];
            match kind % 8 {
                0 | 1 => {
                    let mut f = base.clone();
                    f.file_id = fresh_id(inserted);
                    f.name = format!("new_{inserted}");
                    f.size = 1 + pick % 4096;
                    inserted += 1;
                    Change::Insert(f)
                }
                2 => Change::Delete(base.file_id),
                3 => {
                    let mut f = base.clone();
                    f.size = f.size.wrapping_mul(3).max(1);
                    f.mtime += 17.0;
                    Change::Modify(f)
                }
                4 => {
                    let mut f = base.clone();
                    f.name = format!("renamed_{pick}");
                    Change::Modify(f)
                }
                5 => Change::Delete(fresh_id(pick % inserted.max(1))),
                6 => Change::Delete(90_000_000 + pick),
                _ => {
                    let mut f = base.clone();
                    f.file_id = 90_000_000 + pick;
                    Change::Modify(f)
                }
            }
        })
        .collect()
}

/// What a replay decided, as bytes: the snapshot encoding of the
/// system's parts, and each unit's coordinates (as bit patterns) and id
/// column in row order. The derived structures are checked for
/// coherence on the way.
type Fingerprint = (Vec<u8>, Vec<(Vec<u64>, Vec<u64>)>);

fn fingerprint(sys: &SmartStoreSystem) -> Fingerprint {
    for u in sys.units() {
        u.check_columnar_coherence().unwrap();
    }
    sys.check_name_index().unwrap();
    let (bytes, _) = encode_snapshot(&sys.to_parts());
    let columns = sys
        .units()
        .iter()
        .map(|u| {
            let coords = u.coords().iter().map(|x| x.to_bits()).collect();
            (coords, u.file_ids().to_vec())
        })
        .collect();
    (bytes, columns)
}

/// The store files in `dir` whose names start with `prefix`, sorted.
fn store_files(dir: &Path, prefix: &str, ext: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == ext)
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(prefix))
        })
        .collect();
    out.sort();
    out
}

/// The reference replay of a shut-down store: its one base image, then
/// every frame its WAL verifies, applied one by one. Reads the files
/// without changing them, so it runs before the open under test.
fn reference_replay(dir: &Path) -> SmartStoreSystem {
    let vfs = RealVfs::handle();
    let snaps = store_files(dir, "snapshot-", "snap");
    assert_eq!(snaps.len(), 1, "one base image in {}", dir.display());
    let mut sys = SmartStoreSystem::from_parts(load_snapshot(vfs.as_ref(), &snaps[0]).unwrap());
    sys.migrate_bloom_family();
    let wals = store_files(dir, "wal-", "log");
    assert_eq!(wals.len(), 1, "one WAL segment in {}", dir.display());
    for frame in wal::replay(vfs.as_ref(), &wals[0]).unwrap().frames {
        sys.apply_change(frame.change);
    }
    sys
}

/// How a history is journaled and shut down.
struct History {
    versioning: bool,
    /// Compact after this many changes (none when past the end).
    compact_at: usize,
    /// Cut this many bytes off the WAL's tail after shutdown.
    torn_bytes: usize,
}

/// Journals `changes` into a fresh store built from `live`, shuts it
/// down as `history` says, and reopens it. Returns the live system,
/// the reopened one, the reference replay and the recovery report.
fn journal_and_reopen(
    mut live: SmartStoreSystem,
    changes: Vec<Change>,
    history: &History,
    tag: &str,
) -> (
    SmartStoreSystem,
    SmartStoreSystem,
    SmartStoreSystem,
    RecoveryReport,
) {
    let dir = tmpdir(tag);
    live.set_versioning(history.versioning);
    let (mut store, _) = live.save_snapshot(&dir).unwrap();
    for (i, ch) in changes.into_iter().enumerate() {
        if i == history.compact_at {
            store.compact(&live).unwrap();
        }
        live.apply_journaled(&mut store, ch).unwrap();
    }
    store.sync().unwrap();
    drop(store);
    if history.torn_bytes > 0 {
        let wal = &store_files(&dir, "wal-", "log")[0];
        let mut bytes = std::fs::read(wal).unwrap();
        let keep = bytes.len().saturating_sub(history.torn_bytes);
        bytes.truncate(keep.max(wal::header_len() as usize));
        std::fs::write(wal, &bytes).unwrap();
    }
    let reference = reference_replay(&dir);
    let (reopened, _, report) = PersistentStore::open(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (live, reopened, reference, report)
}

/// The gate for an image without a duplicated id: the reopened system
/// matches the reference byte for byte, and, when no tail was torn
/// off, the live system's snapshot encoding too.
fn assert_identical(
    live: &SmartStoreSystem,
    reopened: &SmartStoreSystem,
    reference: &SmartStoreSystem,
    torn: bool,
) {
    let got = fingerprint(reopened);
    let want = fingerprint(reference);
    assert!(got.0 == want.0, "snapshot bytes diverge from the reference");
    for (u, (a, b)) in got.1.iter().zip(&want.1).enumerate() {
        assert!(a == b, "unit {u}'s columns diverge from the reference");
    }
    if !torn {
        let (live_bytes, _) = encode_snapshot(&live.to_parts());
        assert!(got.0 == live_bytes, "snapshot bytes diverge from live");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary histories: the reopened state equals the reference
    /// replay's, byte for byte.
    #[test]
    fn reopened_state_matches_reference_bytes(
        n_files in 150usize..500,
        n_units in 3usize..40,
        ops in prop::collection::vec((0u8..8, any::<u64>()), 40..260),
        versioning in any::<bool>(),
        compact_at in 0usize..400,
        torn in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let live = build_system(n_files, n_units, seed);
        let changes = churn(&live.current_files(), &ops);
        let history = History {
            versioning,
            compact_at,
            torn_bytes: if torn { 5 } else { 0 },
        };
        let (live, reopened, reference, _) =
            journal_and_reopen(live, changes, &history, "prop");
        assert_identical(&live, &reopened, &reference, torn);
    }
}

/// The long deterministic case: 1 500 changes over three groups, with a
/// compaction a third of the way in and re-inserts of held ids after
/// it, with versioning on and off. Many refreshes of each group are
/// superseded, and the open elides them.
#[test]
fn long_history_elides_refreshes_and_matches_reference() {
    for versioning in [true, false] {
        let live = build_system(2_000, 40, 42);
        let base = live.current_files();
        let ops: Vec<(u8, u64)> = (0..1_500u64)
            .map(|i| ((i * 5 % 8) as u8, i.wrapping_mul(7_919)))
            .collect();
        let mut changes = churn(&base, &ops);
        // A held id inserted again lands in a second unit; the newest
        // insert owns it, live and replayed alike.
        for (i, f) in base.iter().step_by(97).enumerate() {
            let mut again = f.clone();
            again.name = format!("again_{i}");
            changes.insert(700 + 40 * i, Change::Insert(again));
        }
        let history = History {
            versioning,
            compact_at: 500,
            torn_bytes: 0,
        };
        let (live, reopened, reference, report) =
            journal_and_reopen(live, changes, &history, "long");
        assert_identical(&live, &reopened, &reference, false);
        assert!(
            report.refreshes_elided > 0,
            "the long history supersedes refreshes: {report:?}"
        );
        assert!(report.refreshes_computed > 0, "{report:?}");
    }
}

/// An image holding one file id in two units: `owner` at open gives the
/// id to the highest unit, the live system to its newest insert, so
/// the open elides nothing. The reopened state is still coherent.
#[test]
fn image_with_duplicated_id_elides_nothing() {
    let mut live = build_system(600, 6, 7);
    let base = live.current_files();
    // Re-insert held ids until one lands in a lower unit than its first
    // copy: the shape where the two owner rules disagree.
    let mut dup = None;
    for f in &base {
        let first = live
            .units()
            .iter()
            .position(|u| u.file_ids().contains(&f.file_id))
            .unwrap();
        let mut again = f.clone();
        again.name = format!("twin_{}", f.file_id);
        live.apply_change(Change::Insert(again));
        let holders: Vec<usize> = live
            .units()
            .iter()
            .filter(|u| u.file_ids().contains(&f.file_id))
            .map(|u| u.id)
            .collect();
        if holders.len() == 2 && holders[0] != first {
            dup = Some(f.file_id);
            break;
        }
    }
    let dup = dup.expect("some re-insert lands below its first copy");
    let ops: Vec<(u8, u64)> = (0..800u64)
        .map(|i| ((i * 3 % 8) as u8, i.wrapping_mul(104_729)))
        .collect();
    let mut changes = churn(&base, &ops);
    changes.insert(100, Change::Delete(dup));
    let history = History {
        versioning: true,
        compact_at: usize::MAX,
        torn_bytes: 0,
    };
    let (_, reopened, _, report) = journal_and_reopen(live, changes, &history, "dup");
    fingerprint(&reopened);
    assert_eq!(report.refreshes_elided, 0, "{report:?}");
    assert!(report.refreshes_computed > 0, "{report:?}");
}
