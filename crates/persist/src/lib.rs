//! `smartstore-persist`: durable snapshots + write-ahead log for the
//! SmartStore reproduction.
//!
//! The SC '09 paper's consistency story (§4.4) aggregates metadata
//! changes into versions; this crate extends that design to *crash
//! durability* so a deployment can restart without regrouping millions
//! of files through the LSI pipeline:
//!
//! * [`codec`] — hand-rolled, versioned binary codec with
//!   length-prefixed, CRC-32-checksummed records for every domain type
//!   ([`smartstore_trace::FileMetadata`], storage units, the semantic
//!   R-tree arena, index mappings, version chains, configuration);
//! * [`snapshot`] — all-or-nothing point-in-time images of a whole
//!   [`SmartStoreSystem`], written atomically (temp file + `fsync` +
//!   rename);
//! * [`wal`] — the append-only change log with group-tagged frames, a
//!   self-describing header (format version + predecessor frame count,
//!   the cross-segment gap detector), batched `fsync` (group commit),
//!   and torn-tail-tolerant replay (scan to the first bad checksum,
//!   salvage the verified prefix, quarantine the rest to a side file);
//! * [`vfs`] — the filesystem abstraction everything above runs on:
//!   [`vfs::RealVfs`] in production, the deterministic fault-injecting
//!   [`vfs::FaultVfs`] under the crash-recovery torture harness;
//! * [`store`] — [`PersistentStore`]: manifest + snapshot + active
//!   WAL; **crash recovery** is `open` = load the base snapshot, fold
//!   any legacy delta chain (written by builds before PR 25; read-only),
//!   replay surviving WAL frames through the system's own deterministic
//!   [`SmartStoreSystem::apply_change`] (returning a [`RecoveryReport`]
//!   of generations folded, frames replayed, and bytes quarantined),
//!   and **compaction** is one operation: a full-image rewrite once the
//!   WAL outgrows `persist.wal_compact_bytes`.
//!
//! The recovery invariant the torture harness
//! (`crates/persist/tests/torture.rs`) enforces at every injectable
//! fault point: `open` never panics, and yields either a system
//! bit-identical to some prefix of the acknowledged change stream or a
//! typed [`PersistError`].
//!
//! The [`SystemPersist`] extension trait stitches it onto
//! [`SmartStoreSystem`]:
//!
//! ```no_run
//! use smartstore::versioning::Change;
//! use smartstore_persist::SystemPersist as _;
//! # fn demo(mut sys: smartstore::SmartStoreSystem, change: Change) -> smartstore_persist::Result<()> {
//! let dir = std::path::Path::new("/var/lib/smartstore");
//! let (mut store, _stats) = sys.save_snapshot(dir)?;       // initial image
//! sys.apply_journaled(&mut store, change)?;                 // WAL-then-apply
//! drop((sys, store));                                       // ...crash...
//! let (sys2, _store2, report) = smartstore::SmartStoreSystem::open_from_dir(dir)?;
//! assert_eq!(report.generation, 1);
//! # Ok(()) }
//! ```

pub mod codec;
pub mod error;
pub mod snapshot;
pub mod store;
pub mod vfs;
pub mod wal;

pub use error::{PersistError, Result};
pub use snapshot::{load_snapshot, write_snapshot, SnapshotStats};
pub use store::{CompactionOutcome, PersistentStore, RecoveryReport};
pub use vfs::{CrashTail, FaultKind, FaultPlan, FaultVfs, RealVfs, Vfs, VfsFile};
pub use wal::{WalFrame, WalProbe, WalReplay, WalWriter};

use smartstore::tree::NodeId;
use smartstore::versioning::Change;
use smartstore::SmartStoreSystem;
use std::path::Path;
use std::sync::Arc;

/// Durable-persistence methods grafted onto [`SmartStoreSystem`].
///
/// (The trait lives here rather than in the core crate so the in-memory
/// system stays storage-agnostic; import it to get the methods.)
pub trait SystemPersist: Sized {
    /// Snapshots the full system state into `dir` and returns the store
    /// handle whose WAL will journal subsequent changes.
    fn save_snapshot(&self, dir: &Path) -> Result<(PersistentStore, SnapshotStats)>;

    /// [`Self::save_snapshot`] over an explicit [`Vfs`] — the
    /// injectable entry point the torture harness drives.
    fn save_snapshot_with(
        &self,
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<(PersistentStore, SnapshotStats)>;

    /// Crash recovery: reassembles the system from `dir`'s snapshot
    /// (plus any legacy delta chain) and its write-ahead log (a torn or
    /// corrupt tail is salvaged prefix-first, with the unverifiable
    /// bytes quarantined to a side file).
    fn open_from_dir(dir: &Path) -> Result<(Self, PersistentStore, RecoveryReport)>;

    /// [`Self::open_from_dir`] over an explicit [`Vfs`].
    fn open_from_dir_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<(Self, PersistentStore, RecoveryReport)>;

    /// Applies one change with write-ahead durability: the frame is
    /// appended (and group-tagged) *before* the in-memory mutation, and
    /// the WAL is compacted into the next full snapshot generation once
    /// it outgrows `cfg.persist.wal_compact_bytes`. Returns the group
    /// the change landed in.
    fn apply_journaled(
        &mut self,
        store: &mut PersistentStore,
        change: Change,
    ) -> Result<Option<NodeId>>;
}

impl SystemPersist for SmartStoreSystem {
    fn save_snapshot(&self, dir: &Path) -> Result<(PersistentStore, SnapshotStats)> {
        PersistentStore::create(dir, self)
    }

    fn save_snapshot_with(
        &self,
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<(PersistentStore, SnapshotStats)> {
        PersistentStore::create_with(vfs, dir, self)
    }

    fn open_from_dir(dir: &Path) -> Result<(Self, PersistentStore, RecoveryReport)> {
        PersistentStore::open(dir)
    }

    fn open_from_dir_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<(Self, PersistentStore, RecoveryReport)> {
        PersistentStore::open_with(vfs, dir)
    }

    fn apply_journaled(
        &mut self,
        store: &mut PersistentStore,
        change: Change,
    ) -> Result<Option<NodeId>> {
        // Placement is computed once (inside the system) and shared by
        // the frame tag and the application; an append failure leaves
        // the in-memory state untouched.
        let landed = self
            .try_apply_change_journaled(change, |group, ch| store.append(group, ch).map(|_| ()))?;
        if store.should_compact() {
            store.compact(self)?;
        }
        Ok(landed)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use smartstore::SmartStoreConfig;
    use smartstore_trace::{GeneratorConfig, MetadataPopulation};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("smartstore_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small_system(n_files: usize, n_units: usize, seed: u64) -> SmartStoreSystem {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files,
            n_clusters: n_units.max(2),
            seed,
            ..GeneratorConfig::default()
        });
        SmartStoreSystem::build(pop.files, n_units, SmartStoreConfig::default(), seed)
    }

    #[test]
    fn snapshot_roundtrip_preserves_state() {
        let sys = small_system(400, 8, 11);
        let parts = sys.to_parts();
        let (bytes, stats) = snapshot::encode_snapshot(&parts);
        assert_eq!(stats.n_units, 8);
        assert_eq!(stats.n_files, 400);
        let back = snapshot::decode_snapshot(&bytes, Path::new("mem")).unwrap();
        assert_eq!(back.units.len(), parts.units.len());
        for (a, b) in back.units.iter().zip(&parts.units) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.files(), b.files());
            assert_eq!(a.bloom(), b.bloom());
            assert_eq!(a.centroid(), b.centroid());
            assert_eq!(a.mbr(), b.mbr());
        }
        assert_eq!(back.tree.nodes.len(), parts.tree.nodes.len());
        assert_eq!(back.tree.root, parts.tree.root);
        assert_eq!(back.mapping.assignment, parts.mapping.assignment);
        assert_eq!(back.mapping.root_replicas, parts.mapping.root_replicas);
        assert_eq!(back.versions.len(), parts.versions.len());
        assert_eq!(back.pending, parts.pending);
    }

    #[test]
    fn snapshot_rejects_any_corruption() {
        let sys = small_system(120, 4, 3);
        let (bytes, _) = snapshot::encode_snapshot(&sys.to_parts());
        // Truncation.
        assert!(snapshot::decode_snapshot(&bytes[..bytes.len() - 1], Path::new("m")).is_err());
        // Bit flips across the file.
        for frac in [3, 5, 7] {
            let mut bad = bytes.clone();
            let at = bad.len() / frac;
            bad[at] ^= 0x01;
            assert!(
                snapshot::decode_snapshot(&bad, Path::new("m")).is_err(),
                "flip at {at} undetected"
            );
        }
        // Future format version.
        let mut newer = bytes.clone();
        newer[8] = 0xFF;
        assert!(matches!(
            snapshot::decode_snapshot(&newer, Path::new("m")),
            Err(PersistError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn store_create_open_equivalence() {
        let dir = tmpdir("create_open");
        let mut sys = small_system(300, 6, 21);
        let (mut store, stats) = sys.save_snapshot(&dir).unwrap();
        assert!(stats.bytes > 0);
        // Journal some churn.
        let files = sys.current_files();
        for i in 0..40u64 {
            let mut f = files[i as usize % files.len()].clone();
            f.file_id = 1_000_000 + i;
            f.name = format!("journaled_{i}");
            sys.apply_journaled(&mut store, Change::Insert(f)).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        let (sys2, store2, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
        assert_eq!(report.replayed_frames, 40);
        assert_eq!(report.dropped_tail_bytes, 0);
        assert_eq!(store2.wal_frames(), 40);
        let mut a = sys.current_files();
        let mut b = sys2.current_files();
        a.sort_by_key(|f| f.file_id);
        b.sort_by_key(|f| f.file_id);
        assert_eq!(a, b);
        assert_eq!(sys.stats().version_bytes, sys2.stats().version_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rolls_generation_and_drops_old_files() {
        let dir = tmpdir("compaction");
        let mut sys = small_system(200, 4, 5);
        // Tiny threshold: compact after every few frames.
        sys.cfg.persist.wal_compact_bytes = 256;
        let (mut store, _) = sys.save_snapshot(&dir).unwrap();
        assert_eq!(store.generation(), 1);
        let files = sys.current_files();
        for i in 0..30u64 {
            let mut f = files[i as usize % files.len()].clone();
            f.file_id = 2_000_000 + i;
            f.name = format!("compacted_{i}");
            sys.apply_journaled(&mut store, Change::Insert(f)).unwrap();
        }
        assert!(store.generation() > 1, "compaction must have fired");
        // Exactly the manifest chain plus one active WAL remains.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let fulls = names
            .iter()
            .filter(|n| n.starts_with("snapshot-") && n.ends_with(".snap"))
            .count();
        let deltas = names.iter().filter(|n| n.starts_with("delta-")).count();
        let wals = names.iter().filter(|n| n.ends_with(".log")).count();
        assert_eq!(
            (fulls, deltas, wals),
            (1, 0, 1),
            "stale generations left behind: {names:?}"
        );
        // Reopen and verify equivalence.
        drop(store);
        let (sys2, _, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
        assert_eq!(report.deltas_folded, 0);
        let mut a = sys.current_files();
        let mut b = sys2.current_files();
        a.sort_by_key(|f| f.file_id);
        b.sort_by_key(|f| f.file_id);
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_missing_dir_is_not_found() {
        let dir = tmpdir("missing");
        assert!(matches!(
            SmartStoreSystem::open_from_dir(&dir),
            Err(PersistError::NotFound(_))
        ));
    }

    #[test]
    fn journal_trait_routes_through_store() {
        let dir = tmpdir("journal_trait");
        let mut sys = small_system(150, 3, 9);
        let (mut store, _) = sys.save_snapshot(&dir).unwrap();
        let f = sys.current_files()[0].clone();
        sys.apply_change_journaled(Change::Delete(f.file_id), &mut store);
        assert_eq!(store.wal_frames(), 1);
        assert!(store.take_journal_error().is_none());
        assert!(!store.is_poisoned());
        store.sync().unwrap();
        drop(store);
        let (sys2, _, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
        assert_eq!(report.replayed_frames, 1);
        assert!(sys2.current_files().iter().all(|x| x.file_id != f.file_id));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_wal_recovers_to_snapshot_state() {
        // A crash between compaction's manifest flip and the new WAL's
        // directory entry reaching disk leaves a manifest pointing at a
        // generation with no log. The snapshot alone is consistent —
        // open must recreate the log empty, not fail.
        let dir = tmpdir("missing_wal");
        let sys = small_system(200, 4, 13);
        let (store, _) = sys.save_snapshot(&dir).unwrap();
        drop(store);
        let wal = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "log"))
            .unwrap();
        std::fs::remove_file(&wal).unwrap();
        let (mut sys2, mut store2, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
        assert_eq!(report.replayed_frames, 0);
        assert_eq!(sys2.current_files().len(), sys.current_files().len());
        // And the recreated log journals normally.
        let id = sys2.current_files()[0].file_id;
        sys2.apply_journaled(&mut store2, Change::Delete(id))
            .unwrap();
        assert_eq!(store2.wal_frames(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_orphaned_compaction_artifacts() {
        let dir = tmpdir("sweep");
        let sys = small_system(150, 3, 17);
        let (store, _) = sys.save_snapshot(&dir).unwrap();
        drop(store);
        // A crashed compaction can leave temp files and an unreferenced
        // next generation behind. The garbage *WAL* successor is the
        // one artifact that is preserved rather than deleted: it is not
        // a truncated creation, so it may hold acknowledged frames, and
        // recovery moves it to quarantine instead of destroying it.
        std::fs::write(dir.join("snapshot-00000099.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("MANIFEST.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("snapshot-00000002.snap"), b"junk").unwrap();
        std::fs::write(dir.join("wal-00000002.log"), b"junk").unwrap();
        let (_sys2, _store2, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
        assert_eq!(report.generation, 1, "manifest still points at gen 1");
        assert_eq!(report.quarantined_bytes, 4, "the junk WAL moved aside");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            !names.iter().any(|n| {
                n.ends_with(".tmp") || n.contains("snapshot-00000002") || n == "wal-00000002.log"
            }),
            "orphans not swept: {names:?}"
        );
        assert!(
            names.iter().any(|n| n == "wal-00000002.log.quarantine"),
            "garbage segment should be quarantined, not deleted: {names:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_compaction_flip_is_not_damage() {
        // `compact` creates generation 2's header-only WAL
        // (`prev_frames = 0`) before it flips the manifest. A crash in
        // between leaves a successor whose `prev_frames` disagrees with
        // its predecessor's 12 frames — the lying-fsync signature — yet
        // it holds no frame, so recovery removes it as a creation
        // artifact instead of reporting damage.
        let dir = tmpdir("preflip_crash");
        let mut sys = small_system(200, 4, 19);
        let (mut store, _) = sys.save_snapshot(&dir).unwrap();
        let files = sys.current_files();
        for (i, f) in files.iter().take(12).enumerate() {
            let mut f = f.clone();
            f.size += 1 + i as u64;
            sys.apply_journaled(&mut store, Change::Modify(f)).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        // Compaction's first two steps, then the crash.
        snapshot::write_snapshot(
            &RealVfs,
            &sys.to_parts(),
            &dir.join("snapshot-00000002.snap"),
        )
        .unwrap();
        WalWriter::create(&RealVfs, &dir.join("wal-00000002.log"), 1, 0).unwrap();

        let (rec, _store, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
        assert_eq!(
            report.quarantined_bytes, 0,
            "no acknowledged frame was at risk"
        );
        assert_eq!(report.replayed_frames, 12);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            !names.iter().any(|n| n.ends_with(".quarantine")),
            "a frameless successor is not damage: {names:?}"
        );
        assert_eq!(
            snapshot::encode_snapshot(&rec.to_parts()).0,
            snapshot::encode_snapshot(&sys.to_parts()).0,
            "recovered state diverged from the live system"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
