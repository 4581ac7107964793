//! Backward compatibility with v2-format persisted images.
//!
//! `tests/fixtures/v2-store/` holds a small store directory written by
//! a v2-era build (manifest + base snapshot + one delta generation + a
//! WAL tail awaiting replay) together with `answers.txt`, the canonical
//! query-answer digest the v2 build computed over that state. The tests
//! here prove the hard compatibility promises:
//!
//! * the fixture opens cleanly on the current build,
//! * every recorded answer is reproduced **bit-identically** (ids and
//!   top-k distance bit patterns) after the open migrates the Bloom
//!   filters to the current hash family, and
//! * the next compaction rewrites the chain at the current format
//!   version, which then round-trips through a second open.
//!
//! Provenance: the fixture was written by `regenerate_v2_fixture` on a
//! build whose `FORMAT_VERSION` was 2 (150 files, 10 units, seed 42; two
//! modifies in unit 0 compacted into delta generation 2; then five
//! inserts, a delete and a rename left in the WAL). That generator
//! needed the delta writer and left this file with it in PR 25; see
//! `git show 23a0439:crates/persist/tests/v2_compat.rs`.

#![allow(clippy::disallowed_methods)] // tests may unwrap

mod common;

use common::{answer_digest, artifact_version, snap_files, stage_fixture, tmpdir};
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_persist::SystemPersist as _;
use smartstore_trace::{GeneratorConfig, MetadataPopulation};

const FIXTURE: &str = "v2-store";

fn committed_answers() -> String {
    common::committed_answers(FIXTURE)
}

#[test]
fn v2_fixture_opens_migrates_and_answers_bit_identically() {
    let dir = stage_fixture(FIXTURE, "open");
    for snap in snap_files(&dir) {
        assert_eq!(artifact_version(&snap), 2, "{snap:?} must be a v2 artifact");
    }
    let (sys, _store, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
    assert!(
        report.units_migrated > 0,
        "v2 MD5 filters must migrate to the configured family on open"
    );
    assert_eq!(report.units_migrated, sys.units().len());
    assert_eq!(report.deltas_folded, 1, "fixture carries one delta");
    assert!(report.replayed_frames >= 7, "fixture carries a WAL tail");
    for u in sys.units() {
        assert_eq!(u.bloom().family(), sys.cfg.bloom_family);
    }
    assert_eq!(
        answer_digest(&sys),
        committed_answers(),
        "migrated store must reproduce the v2 answers bit-identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v2_fixture_compacts_to_v3_and_roundtrips() {
    let dir = stage_fixture(FIXTURE, "compact");
    let (sys, mut store, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
    assert!(report.units_migrated > 0);
    // Compaction rewrites the whole migrated corpus in v3.
    store.compact(&sys).unwrap();
    drop(store);
    let snaps = snap_files(&dir);
    assert!(!snaps.is_empty());
    for snap in snaps {
        assert_eq!(
            artifact_version(&snap),
            3,
            "{snap:?} must be rewritten as v3"
        );
    }
    // The v3 image round-trips: no second migration, same answers.
    let (sys2, _store2, report2) = SmartStoreSystem::open_from_dir(&dir).unwrap();
    assert_eq!(report2.units_migrated, 0, "v3 image must not re-migrate");
    assert_eq!(answer_digest(&sys2), committed_answers());
    assert_eq!(answer_digest(&sys2), answer_digest(&sys));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_md5_v3_store_is_not_migrated() {
    let dir = tmpdir("md5_v3");
    std::fs::create_dir_all(&dir).unwrap();
    let pop = MetadataPopulation::generate(GeneratorConfig {
        n_files: 80,
        n_clusters: 4,
        seed: 7,
        ..GeneratorConfig::default()
    });
    let cfg = SmartStoreConfig {
        bloom_family: smartstore::HashFamily::Md5,
        ..SmartStoreConfig::default()
    };
    let sys = SmartStoreSystem::build(pop.files, 6, cfg, 7);
    let digest = answer_digest(&sys);
    let (store, _) = sys.save_snapshot(&dir).unwrap();
    drop(store);
    for snap in snap_files(&dir) {
        assert_eq!(artifact_version(&snap), 3);
    }
    let (sys2, _store2, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
    assert_eq!(
        report.units_migrated, 0,
        "a store that opted into MD5 keeps MD5 filters"
    );
    for u in sys2.units() {
        assert_eq!(u.bloom().family(), smartstore::HashFamily::Md5);
    }
    assert_eq!(answer_digest(&sys2), digest);
    let _ = std::fs::remove_dir_all(&dir);
}
