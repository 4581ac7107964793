//! Legacy delta chains stay readable after the delta writer is gone.
//!
//! `tests/fixtures/v3-chain-store/` is a store written at commit
//! `7c25fb4` — the last build with a delta writer, format v3 — by its
//! real `compact_incremental`: a base snapshot (generation 1), two delta
//! generations (2 and 3; the second re-dirties unit 0, which the first
//! also carries, so fold order matters), a 7-frame WAL tail in segment
//! 3, and `answers.txt`, the [`common::answer_digest`] that build
//! computed over the live state. No later build can write a delta, so
//! the generator is recorded here instead of as a test. It ran as a
//! scratch test in a `git clone` of `7c25fb4`:
//!
//! ```text
//! pop = MetadataPopulation::generate(GeneratorConfig {
//!           n_files: 150, n_clusters: 6, seed: 43, ..default })
//! sys = SmartStoreSystem::build(pop.files, 10, SmartStoreConfig::default(), 43)
//! (store, _) = sys.save_snapshot(dir)                 → snapshot-1, wal-1
//! Modify units[0].files[0], [1]: size += 4096, access_count += 1
//! compact_incremental → delta (dirty units [0])       → delta-2, wal-2
//! Modify units[0].files[2], units[5].files[0]: size += 8192, access_count += 1
//! compact_incremental → delta (dirty units [0, 5])    → delta-3, wal-3
//! extra = units[1].files[0]
//! Insert extra with file_id 910_000+i, name "v3_tail_file_{i}", size += i   (i in 0..5)
//! Delete units[2].files[3]
//! Modify extra renamed "v3_renamed_file", size += 1
//! store.sync(); write answers.txt = answer_digest(&sys)
//! ```

#![allow(clippy::disallowed_methods)] // tests may unwrap

mod common;

use common::{answer_digest, artifact_version, snap_files, stage_fixture};
use smartstore::SmartStoreSystem;
use smartstore_persist::{PersistError, SystemPersist as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

const FIXTURE: &str = "v3-chain-store";

fn committed_answers() -> String {
    common::committed_answers(FIXTURE)
}

/// Every file name in `dir`, sorted.
fn names(dir: &Path) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    out.sort();
    out
}

/// Every file in `dir` with its bytes — the "nothing was touched"
/// witness for a refused open.
fn contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    names(dir)
        .into_iter()
        .map(|n| {
            let bytes = std::fs::read(dir.join(&n)).unwrap();
            (n, bytes)
        })
        .collect()
}

#[test]
fn v3_chain_fixture_folds_both_deltas_and_answers_bit_identically() {
    let dir = stage_fixture(FIXTURE, "open");
    for snap in snap_files(&dir) {
        assert_eq!(artifact_version(&snap), 3, "{snap:?} must be a v3 artifact");
    }
    let (sys, _store, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
    assert_eq!(report.base_generation, 1);
    assert_eq!(report.deltas_folded, 2, "fixture carries two deltas");
    assert_eq!(report.generation, 3);
    assert_eq!(report.replayed_frames, 7, "fixture carries a WAL tail");
    assert_eq!(report.units_migrated, 0, "a v3 image is not migrated");
    assert_eq!(
        answer_digest(&sys),
        committed_answers(),
        "folded chain must reproduce the writing build's answers bit-identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compacting_a_legacy_chain_leaves_one_snapshot_and_one_wal() {
    let dir = stage_fixture(FIXTURE, "compact");
    let (sys, mut store, _) = SmartStoreSystem::open_from_dir(&dir).unwrap();
    store.compact(&sys).unwrap();
    drop(store);
    let files = names(&dir);
    let count = |pre: &str, suf: &str| {
        files
            .iter()
            .filter(|n| n.starts_with(pre) && n.ends_with(suf))
            .count()
    };
    assert_eq!(
        (
            count("snapshot-", ".snap"),
            count("wal-", ".log"),
            count("delta-", "")
        ),
        (1, 1, 0),
        "compaction must rewrite the chain as one full image: {files:?}"
    );
    let (sys2, _store2, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
    assert_eq!(report.deltas_folded, 0);
    assert_eq!(report.replayed_frames, 0);
    assert_eq!(answer_digest(&sys2), committed_answers());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opens `dir`, which must be refused with a typed error — no panic,
/// and no partial fold: not a byte of the directory changes.
fn assert_refused(dir: &Path, what: &str) -> PersistError {
    let before = contents(dir);
    let opened = catch_unwind(AssertUnwindSafe(|| SmartStoreSystem::open_from_dir(dir)))
        .unwrap_or_else(|_| panic!("open panicked on {what}"));
    let Err(err) = opened else {
        panic!("open accepted {what}");
    };
    assert!(
        contents(dir) == before,
        "refused open of {what} touched the store"
    );
    err
}

#[test]
fn damaged_legacy_chain_is_a_typed_error() {
    for delta in ["delta-00000002.snap", "delta-00000003.snap"] {
        let len = std::fs::metadata(common::fixture_dir(FIXTURE).join(delta))
            .unwrap()
            .len() as usize;
        for at in [len / 3, len / 2, len - 2] {
            let dir = stage_fixture(FIXTURE, "flip");
            let path = dir.join(delta);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[at] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let what = format!("{delta} with byte {at} flipped");
            match assert_refused(&dir, &what) {
                PersistError::Corrupt { path: p, .. } => assert_eq!(p, path, "{what}"),
                other => panic!("{what}: expected Corrupt, got {other}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // The manifest names a delta that is not there.
    let dir = stage_fixture(FIXTURE, "missing");
    std::fs::remove_file(dir.join("delta-00000003.snap")).unwrap();
    match assert_refused(&dir, "a manifest naming a missing delta") {
        PersistError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("missing delta: expected NotFound, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
