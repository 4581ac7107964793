//! End-to-end persistence properties: a snapshotted + journaled system
//! reopened from disk must answer point, range and top-k queries
//! *identically* to the live system it mirrors, and a corrupted WAL
//! tail must be dropped cleanly with everything before it recovered.

#![allow(clippy::disallowed_methods)]

use proptest::prelude::*;
use smartstore::versioning::Change;
use smartstore::QueryOptions;
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_persist::{PersistError, SystemPersist as _};
use smartstore_trace::query_gen::QueryGenConfig;
use smartstore_trace::{
    FileMetadata, GeneratorConfig, MetadataPopulation, QueryDistribution, QueryWorkload,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "smartstore_recovery_{tag}_{}_{n}",
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

/// Runs the full query battery against both systems and asserts answer
/// equality (ids only — costs depend on accumulated state like cache
/// effects and are not part of the durability contract... they are
/// actually deterministic too, but ids are the correctness bar).
fn assert_query_equivalence(
    live: &mut SmartStoreSystem,
    reopened: &mut SmartStoreSystem,
    workload: &QueryWorkload,
) {
    for q in &workload.ranges {
        let a = live
            .query()
            .range(&q.lo, &q.hi, &QueryOptions::offline())
            .file_ids;
        let b = reopened
            .query()
            .range(&q.lo, &q.hi, &QueryOptions::offline())
            .file_ids;
        assert_eq!(a, b, "range answers diverged");
    }
    for q in &workload.topks {
        let a = live
            .query()
            .topk(&q.point, &QueryOptions::offline().with_k(q.k))
            .file_ids;
        let b = reopened
            .query()
            .topk(&q.point, &QueryOptions::offline().with_k(q.k))
            .file_ids;
        assert_eq!(a, b, "top-k answers diverged");
    }
    for q in &workload.points {
        let a = live.query().point(&q.name).file_ids;
        let b = reopened.query().point(&q.name).file_ids;
        assert_eq!(a, b, "point answers diverged for {}", q.name);
    }
}

fn workload_for(sys: &SmartStoreSystem, seed: u64) -> QueryWorkload {
    let pop = MetadataPopulation {
        files: sys.current_files(),
        config: GeneratorConfig::default(),
    };
    QueryWorkload::generate(
        &pop,
        &QueryGenConfig {
            n_range: 12,
            n_topk: 12,
            n_point: 12,
            k: 8,
            range_width: 0.08,
            distribution: QueryDistribution::Uniform,
            seed,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: snapshot + journaled churn + reopen ⇒
    /// identical query answers.
    #[test]
    fn reopened_system_answers_identically(
        n_files in 150usize..400,
        n_units in 3usize..9,
        ops in prop::collection::vec((0u8..3, 0u64..100_000, 0u64..100_000), 20..120),
        seed in 0u64..1_000,
    ) {
        let dir = tmpdir("prop");
        let mut live = build_system(n_files, n_units, seed);
        let (mut store, _) = live.save_snapshot(&dir).unwrap();
        let base_files = live.current_files();
        for ch in churn(&base_files, &ops) {
            live.apply_journaled(&mut store, ch).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        let (mut reopened, _, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
        prop_assert_eq!(report.dropped_tail_bytes, 0);
        let workload = workload_for(&live, seed ^ 0xabcd);
        assert_query_equivalence(&mut live, &mut reopened, &workload);

        // Structural statistics must also survive.
        let (a, b) = (live.stats(), reopened.stats());
        prop_assert_eq!(a.n_units, b.n_units);
        prop_assert_eq!(a.n_groups, b.n_groups);
        prop_assert_eq!(a.tree_height, b.tree_height);
        prop_assert_eq!(a.version_bytes, b.version_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// ≥1k journaled changes through snapshot + WAL + compaction, then a
/// full query battery — the deterministic heavyweight version of the
/// property above (the ISSUE's acceptance scenario at test scale; the
/// persistence benchmark runs it at 50k files).
#[test]
fn thousand_changes_then_reopen_matches() {
    let dir = tmpdir("thousand");
    let mut live = build_system(1200, 12, 42);
    let (mut store, _) = live.save_snapshot(&dir).unwrap();
    let base = live.current_files();
    let ops: Vec<(u8, u64, u64)> = (0..1000u64).map(|i| ((i % 3) as u8, i * 7919, i)).collect();
    for ch in churn(&base, &ops) {
        live.apply_journaled(&mut store, ch).unwrap();
    }
    store.sync().unwrap();
    drop(store);

    let (mut reopened, store2, _report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
    // Changes may have been folded into newer snapshot generations by
    // compaction; what matters is the recovered answers.
    assert!(store2.generation() >= 1);
    let workload = workload_for(&live, 4242);
    assert_query_equivalence(&mut live, &mut reopened, &workload);
    let mut a = live.current_files();
    let mut b = reopened.current_files();
    a.sort_by_key(|f| f.file_id);
    b.sort_by_key(|f| f.file_id);
    assert_eq!(a, b, "file sets diverged after 1000 journaled changes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt-tail recovery: the torn final record is dropped; every
/// change before it — and the snapshot base — recovers.
#[test]
fn corrupt_tail_drops_only_last_record() {
    for corruption in ["truncate", "bitflip"] {
        let dir = tmpdir(&format!("tail_{corruption}"));
        let mut live = build_system(300, 5, 7);
        // Sync every frame so the prefix is durable by construction.
        live.cfg.persist.wal_sync_every = 1;
        let (mut store, _) = live.save_snapshot(&dir).unwrap();
        let base = live.current_files();
        let ops: Vec<(u8, u64, u64)> = (0..25u64).map(|i| ((i % 3) as u8, i * 31, i)).collect();
        let changes = churn(&base, &ops);
        for ch in &changes {
            live.apply_journaled(&mut store, ch.clone()).unwrap();
        }
        store.sync().unwrap();
        let wal_file = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "log"))
            .expect("wal file exists");
        drop(store);

        // Corrupt the tail.
        let mut bytes = std::fs::read(&wal_file).unwrap();
        match corruption {
            "truncate" => {
                let n = bytes.len();
                bytes.truncate(n - 7);
            }
            _ => {
                let n = bytes.len();
                bytes[n - 2] ^= 0x20;
            }
        }
        std::fs::write(&wal_file, &bytes).unwrap();

        let (mut reopened, store2, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
        assert_eq!(report.replayed_frames, 24, "exactly the torn frame dropped");
        assert!(report.dropped_tail_bytes > 0);
        assert_eq!(
            store2.wal_frames(),
            24,
            "append resumes after the verified prefix"
        );

        // Expected state: snapshot + first 24 changes, replayed in
        // memory against an identically built system.
        let mut expected = build_system(300, 5, 7);
        expected.cfg.persist.wal_sync_every = 1;
        for ch in changes.iter().take(24) {
            expected.apply_change(ch.clone());
        }
        let workload = workload_for(&expected, 99);
        assert_query_equivalence(&mut expected, &mut reopened, &workload);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A corrupted snapshot must refuse to load loudly, not half-load.
#[test]
fn corrupt_snapshot_refuses_to_load() {
    let dir = tmpdir("badsnap");
    let live = build_system(200, 4, 3);
    let (store, _) = live.save_snapshot(&dir).unwrap();
    drop(store);
    let snap = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "snap"))
        .unwrap();
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&snap, &bytes).unwrap();
    assert!(matches!(
        SmartStoreSystem::open_from_dir(&dir),
        Err(PersistError::Corrupt { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
