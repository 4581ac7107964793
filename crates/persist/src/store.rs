//! The durable store: one full snapshot plus the active write-ahead
//! log, tied together by a manifest.
//!
//! Layout of a store directory:
//!
//! ```text
//! MANIFEST              — checksummed: base generation (+ a legacy delta
//!                         chain, always written empty)
//! snapshot-<gen>.snap   — full point-in-time system image
//! delta-<gen>.snap      — read-only legacy: a differential generation
//!                         written by builds before PR 25, folded on open
//! wal-<gen>.log         — changes applied since generation <gen>
//! wal-<gen>.log.quarantine — salvaged bytes of a corrupt segment/tail
//! ```
//!
//! *Crash recovery* (`PersistentStore::open`) = read the manifest, load
//! the base snapshot, fold any legacy delta chain it names, then replay
//! the WAL segments from the chain end onward through
//! [`SmartStoreSystem::apply_change`] — the same deterministic code path
//! the live system took, so the recovered state matches the pre-crash
//! state exactly up to the last durable frame. Recovery never destroys
//! bytes it cannot verify: a torn or corrupt tail is *salvaged
//! prefix-first* — the verified frames replay, the unverifiable
//! remainder moves to a `.quarantine` side file (reported in
//! [`RecoveryReport::quarantined_bytes`]) — and a successor segment
//! whose header's `prev_frames` disagrees with what its predecessor
//! actually replayed (the signature of an `fsync` that lied) is
//! quarantined whole rather than replayed into a non-prefix state,
//! unless it holds no frame at all (then it is a creation artifact and
//! is removed). Transient read corruption is distinguished from damage
//! on the platter by re-reading once before anything destructive
//! happens.
//!
//! *Compaction* ([`PersistentStore::compact`]) is one operation: seal
//! the WAL, write the full image as generation `g+1`, create its empty
//! WAL, flip the manifest, delete the old generation. A crash at *any*
//! step boundary leaves a recoverable directory: the manifest always
//! names a complete image, and un-flipped snapshots / superseded WAL
//! segments are swept as orphans on the next open.
//!
//! All I/O goes through a [`Vfs`] handle; production entry points use
//! [`RealVfs`](crate::vfs::RealVfs), the torture harness substitutes
//! [`FaultVfs`](crate::vfs::FaultVfs).

use crate::codec::{self, Dec, Enc, FrameError};
use crate::error::{PersistError, Result};
use crate::snapshot::{self, SnapshotStats};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{self, WalWriter};
use smartstore::config::PersistConfig;
use smartstore::system::Journal;
use smartstore::tree::NodeId;
use smartstore::versioning::Change;
use smartstore::SmartStoreSystem;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of the manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"SSMANI\x00\x00";

const MANIFEST: &str = "MANIFEST";

/// What recovery found while opening a store.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Chain-end generation loaded (base snapshot + folded deltas).
    pub generation: u64,
    /// Base (full-image) generation of the chain.
    pub base_generation: u64,
    /// Legacy delta generations folded on top of the base.
    pub deltas_folded: usize,
    /// Snapshot (+ legacy delta) bytes read.
    pub snapshot_bytes: u64,
    /// WAL frames replayed on top of the folded chain.
    pub replayed_frames: usize,
    /// WAL segments replayed (more than one only after a legacy delta
    /// cut crashed before its install).
    pub wal_segments: usize,
    /// Bytes of torn WAL tail dropped from the live log (0 for a clean
    /// shutdown).
    pub dropped_tail_bytes: u64,
    /// Bytes preserved in `.quarantine` side files: torn tails plus
    /// whole segments that could not be applied (corrupt header, or a
    /// predecessor that lost frames to a lying fsync).
    pub quarantined_bytes: u64,
    /// Storage units whose Bloom filters were rebuilt in memory because
    /// the on-disk family differs from the configured one (e.g. a v2
    /// image's MD5 filters under the fast-family default). The next
    /// compaction persists them in the configured family.
    pub units_migrated: usize,
}

/// What one [`PersistentStore::compact_incremental`] call did.
///
/// Kept only because the frozen `benchmark/` trace bin reads it; every
/// compaction is a full rewrite, so [`Self::is_delta`] is always false.
#[derive(Clone, Copy, Debug)]
pub struct CompactionOutcome(pub SnapshotStats);

impl CompactionOutcome {
    /// Bytes written to the new generation.
    pub fn bytes_written(&self) -> u64 {
        self.0.bytes
    }

    /// Always false: no build since PR 25 writes delta generations.
    pub fn is_delta(&self) -> bool {
        false
    }
}

/// Handle to an open store directory: owns the active WAL and knows how
/// to snapshot/compact. Implements [`Journal`] so it can be passed
/// straight to [`SmartStoreSystem::apply_change_journaled`].
#[derive(Debug)]
pub struct PersistentStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    /// Base (full-image) generation.
    base_generation: u64,
    /// Legacy delta generations the manifest names on top of the base,
    /// ascending; empty once this build has compacted.
    deltas: Vec<u64>,
    /// Active WAL generation. Equals the chain end right after a
    /// compaction; runs ahead of it after a crash recovery that
    /// replayed extra segments (a legacy cut that never installed).
    generation: u64,
    wal: WalWriter,
    cfg: PersistConfig,
    /// First durability error hit inside the infallible [`Journal`]
    /// hook; surfaced by [`Self::take_journal_error`] / [`Self::sync`].
    journal_error: Option<PersistError>,
    /// Set when an append has failed: the WAL now has a *gap* relative
    /// to the in-memory system (memory kept mutating while frames were
    /// dropped), so further appends are refused — replaying a gapped
    /// log would silently reconstruct an inconsistent state. The only
    /// way forward is a compaction, whose snapshot of the full
    /// in-memory state makes the gapped log irrelevant.
    poisoned: bool,
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:08}.snap"))
}

fn delta_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("delta-{generation:08}.snap"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:08}.log"))
}

/// Writes a manifest naming `base` with an empty legacy delta chain.
fn write_manifest(vfs: &dyn Vfs, dir: &Path, base: u64) -> Result<()> {
    let mut payload = Enc::new();
    payload.u16(codec::FORMAT_VERSION);
    payload.u64(base);
    payload.u32(0); // legacy delta chain length
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MANIFEST_MAGIC);
    codec::put_record(&mut bytes, &payload.into_bytes());
    let tmp = dir.join("MANIFEST.tmp");
    {
        let mut f = vfs.create(&tmp)?;
        f.write_all_at(0, &bytes)?;
        f.sync()?;
    }
    vfs.rename(&tmp, &dir.join(MANIFEST))?;
    vfs.sync_dir(dir)?;
    Ok(())
}

/// Reads the manifest: `(base generation, legacy delta chain)`. v1
/// manifests (pre-differential) carry a single generation and no chain
/// field.
fn read_manifest(vfs: &dyn Vfs, dir: &Path) -> Result<(u64, Vec<u64>)> {
    let path = dir.join(MANIFEST);
    let bytes = match vfs.read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(PersistError::NotFound(dir.to_path_buf()));
        }
        Err(e) => return Err(e.into()),
    };
    let corrupt = |offset: usize, reason: String| PersistError::Corrupt {
        path: path.clone(),
        offset: offset as u64,
        reason,
    };
    if bytes.len() < MANIFEST_MAGIC.len() || &bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
        return Err(corrupt(0, "bad manifest magic".into()));
    }
    let (payload, _) = match codec::get_record(&bytes, MANIFEST_MAGIC.len()) {
        Ok(r) => r,
        Err(FrameError::Eof) => return Err(corrupt(bytes.len(), "empty manifest".into())),
        Err(FrameError::Torn { offset, reason }) => return Err(corrupt(offset, reason)),
    };
    let mut d = Dec::new(payload);
    let version = d.u16().map_err(|e| corrupt(e.offset, e.reason))?;
    if version > codec::FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: codec::FORMAT_VERSION,
        });
    }
    let base = d.u64().map_err(|e| corrupt(e.offset, e.reason))?;
    if version < 2 {
        return Ok((base, Vec::new()));
    }
    let n = d.u32().map_err(|e| corrupt(e.offset, e.reason))? as usize;
    let mut deltas = Vec::with_capacity(n.min(1 << 16));
    let mut prev = base;
    for _ in 0..n {
        let g = d.u64().map_err(|e| corrupt(e.offset, e.reason))?;
        if g <= prev {
            return Err(corrupt(0, format!("delta chain not ascending at {g}")));
        }
        deltas.push(g);
        prev = g;
    }
    Ok((base, deltas))
}

/// Runs a fallible read-side step, retrying once on [`PersistError::Corrupt`].
/// Corruption seen on a read can be transient (a bit flipped on the
/// wire, not on the platter); re-reading distinguishes the two, and
/// recovery must not take destructive action — truncation, quarantine —
/// on evidence a second read contradicts.
fn retry_corrupt<T>(mut f: impl FnMut() -> Result<T>) -> Result<T> {
    match f() {
        Err(PersistError::Corrupt { .. }) => f(),
        other => other,
    }
}

/// [`wal::replay`] with the transient-corruption retry: a scan that
/// errored or stopped early is re-run once, and the second scan is
/// believed.
fn replay_settled(vfs: &dyn Vfs, path: &Path) -> Result<wal::WalReplay> {
    match wal::replay(vfs, path) {
        Ok(r) if r.torn.is_none() => Ok(r),
        _ => wal::replay(vfs, path),
    }
}

/// [`wal::probe`] with the transient-corruption retry.
fn probe_settled(vfs: &dyn Vfs, path: &Path) -> Result<wal::WalProbe> {
    match wal::probe(vfs, path) {
        Ok(wal::WalProbe::Garbage) | Err(PersistError::Corrupt { .. }) => wal::probe(vfs, path),
        other => other,
    }
}

/// Moves every WAL segment from generation `from` upward into
/// quarantine: their frames were journaled after a hole in the history
/// (a torn predecessor, or one that lost frames to a lying fsync), so
/// replaying them would reconstruct a state matching no prefix of the
/// change stream. Segments that hold no frame carry no acknowledged
/// change and are simply removed. Best-effort; returns the bytes
/// preserved.
fn quarantine_successors(vfs: &dyn Vfs, dir: &Path, from: u64) -> u64 {
    let mut total = 0u64;
    let mut g = from;
    loop {
        let p = wal_path(dir, g);
        if !matches!(vfs.exists(&p), Ok(true)) {
            break;
        }
        if holds_no_frames(vfs, &p) {
            let _ = vfs.remove_file(&p);
        } else {
            match wal::quarantine_file(vfs, &p) {
                Ok(n) => total += n,
                Err(_) => break,
            }
        }
        g += 1;
    }
    total
}

/// True for a WAL segment that carries no frame: one that never
/// finished creation, or a bare header. `compact` creates generation
/// `g+1`'s header-only log (`prev_frames = 0`) before it flips the
/// manifest, so a crash between the two leaves exactly that — not the
/// lying-fsync signature its `prev_frames` mismatch would suggest, and
/// nothing an acknowledgement ever covered.
fn holds_no_frames(vfs: &dyn Vfs, path: &Path) -> bool {
    match wal::probe(vfs, path) {
        Ok(wal::WalProbe::CreationArtifact) => true,
        Ok(wal::WalProbe::Valid { .. }) => {
            matches!(vfs.file_len(path), Ok(n) if n == wal::header_len())
        }
        _ => false,
    }
}

impl PersistentStore {
    /// Creates a new store at `dir` (made if missing) holding a full
    /// snapshot of `system` as generation 1 with an empty WAL.
    /// Durability options come from `system.cfg.persist`.
    pub fn create(dir: &Path, system: &SmartStoreSystem) -> Result<(Self, SnapshotStats)> {
        Self::create_with(RealVfs::handle(), dir, system)
    }

    /// [`Self::create`] over an explicit [`Vfs`].
    pub fn create_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        system: &SmartStoreSystem,
    ) -> Result<(Self, SnapshotStats)> {
        vfs.create_dir_all(dir)?;
        let cfg = system.cfg.persist;
        let generation = 1;
        let stats = snapshot::write_snapshot(
            vfs.as_ref(),
            &system.to_parts(),
            &snapshot_path(dir, generation),
        )?;
        let wal = WalWriter::create(
            vfs.as_ref(),
            &wal_path(dir, generation),
            cfg.wal_sync_every,
            0,
        )?;
        write_manifest(vfs.as_ref(), dir, generation)?;
        Ok((
            Self {
                vfs,
                dir: dir.to_path_buf(),
                base_generation: generation,
                deltas: Vec::new(),
                generation,
                wal,
                cfg,
                journal_error: None,
                poisoned: false,
            },
            stats,
        ))
    }

    /// Opens an existing store: loads the manifest's base snapshot,
    /// folds any legacy delta chain, replays the WAL segments from the
    /// chain end onward (salvaging and quarantining anything
    /// unverifiable), and returns the recovered system together with
    /// the store handle positioned to keep appending.
    pub fn open(dir: &Path) -> Result<(SmartStoreSystem, Self, RecoveryReport)> {
        Self::open_with(RealVfs::handle(), dir)
    }

    /// [`Self::open`] over an explicit [`Vfs`].
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<(SmartStoreSystem, Self, RecoveryReport)> {
        let v = vfs.as_ref();
        let (base, deltas) = retry_corrupt(|| read_manifest(v, dir))?;
        let snap_path = snapshot_path(dir, base);
        let mut parts = retry_corrupt(|| snapshot::load_snapshot(v, &snap_path))?;
        let mut snapshot_bytes = v.file_len(&snap_path)?;
        for &g in &deltas {
            let dpath = delta_path(dir, g);
            let delta = retry_corrupt(|| snapshot::decode_delta(&v.read(&dpath)?, &dpath))?;
            snapshot_bytes += v.file_len(&dpath)?;
            snapshot::fold_delta(&mut parts, delta, &dpath)?;
        }
        let chain_end = deltas.last().copied().unwrap_or(base);
        let mut system = SmartStoreSystem::from_parts(parts);
        // Hash-family migration happens before WAL replay so the
        // replayed changes land in already-migrated filters. Rebuilding
        // a Bloom filter from its unit's file names never loses an
        // answer: filters only route probes, and exact name matching
        // sits behind them.
        let units_migrated = system.migrate_bloom_family();
        let cfg = system.cfg.persist;

        let mut quarantined_bytes = 0u64;
        // The chain-end segment. The folded chain alone is a consistent
        // state, so a segment that never finished creation (missing
        // file, header truncated by a crash during `create`) is
        // recreated empty — no frame of it was ever acknowledged. A
        // segment whose header is *damaged* rather than truncated has
        // no replayable prefix at all: the whole file moves to
        // quarantine (with any successors, which cannot be applied past
        // the hole) before a fresh segment takes its place.
        let first = wal_path(dir, chain_end);
        match probe_settled(v, &first)? {
            wal::WalProbe::Valid { .. } => {}
            wal::WalProbe::CreationArtifact => {
                WalWriter::create(v, &first, cfg.wal_sync_every, 0)?;
            }
            wal::WalProbe::Garbage => {
                quarantined_bytes += wal::quarantine_file(v, &first)?;
                quarantined_bytes += quarantine_successors(v, dir, chain_end + 1);
                WalWriter::create(v, &first, cfg.wal_sync_every, 0)?;
            }
        }

        let mut active = chain_end;
        let mut active_replay = replay_settled(v, &first)?;
        let mut active_frames;
        let mut replayed_frames = 0usize;
        let mut wal_segments = 1usize;
        let mut dropped_tail_bytes = 0u64;
        loop {
            // Frames are applied by value; only their count outlives
            // the replay (the successor's header check, the writer's
            // next sequence number).
            let frames = std::mem::take(&mut active_replay.frames);
            active_frames = frames.len() as u64;
            replayed_frames += frames.len();
            for frame in frames {
                system.apply_change(frame.change);
            }
            let wpath = wal_path(dir, active);
            if active_replay.torn.is_some() {
                // Salvage prefix-first: the verified frames just
                // replayed, the unverifiable tail moves aside. A torn
                // segment ends the history — anything journaled in a
                // later segment came after frames this one lost.
                dropped_tail_bytes += v.file_len(&wpath)?.saturating_sub(active_replay.good_bytes);
                quarantined_bytes += wal::quarantine_tail(v, &wpath, &active_replay)?;
                quarantined_bytes += quarantine_successors(v, dir, active + 1);
                break;
            }
            // A legacy delta cut that crashed before its install left
            // the sealed old segment *and* the fresh one live; walk the
            // contiguous run. The successor's header records how many
            // frames its predecessor held at the seal — a mismatch
            // means the predecessor lost durable frames afterwards (an
            // fsync that lied), and replaying the successor on top
            // would fabricate a state matching no prefix. A successor
            // with no frame (`compact`'s fresh log, crash before the
            // manifest flip) is removed there, not reported as damage.
            let next_path = wal_path(dir, active + 1);
            match probe_settled(v, &next_path)? {
                wal::WalProbe::CreationArtifact => break,
                wal::WalProbe::Garbage => {
                    quarantined_bytes += quarantine_successors(v, dir, active + 1);
                    break;
                }
                wal::WalProbe::Valid { prev_frames } if prev_frames != active_frames => {
                    quarantined_bytes += quarantine_successors(v, dir, active + 1);
                    break;
                }
                wal::WalProbe::Valid { .. } => {
                    active_replay = replay_settled(v, &next_path)?;
                    active += 1;
                    wal_segments += 1;
                }
            }
        }
        let report = RecoveryReport {
            generation: chain_end,
            base_generation: base,
            deltas_folded: deltas.len(),
            snapshot_bytes,
            replayed_frames,
            wal_segments,
            dropped_tail_bytes,
            quarantined_bytes,
            units_migrated,
        };
        let wal = WalWriter::open_end(
            v,
            &wal_path(dir, active),
            cfg.wal_sync_every,
            active_frames,
            active_replay.good_bytes,
        )?;
        sweep_orphans(v, dir, base, &deltas, chain_end, active);
        Ok((
            system,
            Self {
                vfs,
                dir: dir.to_path_buf(),
                base_generation: base,
                deltas,
                generation: active,
                wal,
                cfg,
                journal_error: None,
                poisoned: false,
            },
            report,
        ))
    }

    /// Appends one change frame to the WAL (write-ahead: call *before*
    /// mutating the in-memory system; [`SmartStoreSystem::apply_change_journaled`]
    /// does exactly that). Refused once the store is poisoned by an
    /// earlier failed append — see [`Self::is_poisoned`].
    pub fn append(&mut self, group: NodeId, change: &Change) -> Result<u64> {
        if self.poisoned {
            return Err(PersistError::Io(std::io::Error::other(
                "journal poisoned by an earlier failed append (the log has a gap); \
                 compact to re-establish a consistent snapshot",
            )));
        }
        match self.wal.append(group, change) {
            Ok(seq) => Ok(seq),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Forces all appended frames to stable storage and surfaces any
    /// error the infallible [`Journal`] hook swallowed.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(e) = self.journal_error.take() {
            return Err(e);
        }
        self.wal.sync()
    }

    /// True when an append has failed and the WAL can no longer be
    /// trusted to be gap-free; only a compaction clears this.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// True once the WAL has outgrown the compaction threshold.
    pub fn should_compact(&self) -> bool {
        self.wal.bytes() > self.cfg.wal_compact_bytes
    }

    /// [`Self::compact`], reported as a [`CompactionOutcome`]. Holds no
    /// logic of its own: it survives only for the frozen `benchmark/`
    /// trace bin, which calls it by this name. Use [`Self::compact`].
    pub fn compact_incremental(&mut self, system: &SmartStoreSystem) -> Result<CompactionOutcome> {
        self.compact(system).map(CompactionOutcome)
    }

    /// Folds everything into a fresh full snapshot of `system` (which
    /// must be the state that *includes* every journaled change):
    /// writes generation `g+1`, flips the manifest to it, and deletes
    /// the old generation — base, any legacy deltas, and WAL segments.
    /// Because the new snapshot captures the full in-memory state, this
    /// also recovers a poisoned store — the gapped old log becomes
    /// irrelevant.
    pub fn compact(&mut self, system: &SmartStoreSystem) -> Result<SnapshotStats> {
        if !self.poisoned {
            // A gapped WAL cannot be synced meaningfully; skip straight
            // to the snapshot that supersedes it.
            self.wal.sync()?;
        }
        let next = self.generation + 1;
        let prev_end = self.chain_end();
        let stats = snapshot::write_snapshot(
            self.vfs.as_ref(),
            &system.to_parts(),
            &snapshot_path(&self.dir, next),
        )?;
        let new_wal = WalWriter::create(
            self.vfs.as_ref(),
            &wal_path(&self.dir, next),
            self.cfg.wal_sync_every,
            0,
        )?;
        write_manifest(self.vfs.as_ref(), &self.dir, next)?;
        let old_base = self.base_generation;
        let old_deltas = std::mem::take(&mut self.deltas);
        self.wal = new_wal;
        self.base_generation = next;
        self.generation = next;
        self.poisoned = false;
        self.journal_error = None;
        // Old generations are unreachable now; removal is best-effort.
        let _ = self.vfs.remove_file(&snapshot_path(&self.dir, old_base));
        for g in old_deltas {
            let _ = self.vfs.remove_file(&delta_path(&self.dir, g));
        }
        for g in prev_end..next {
            let _ = self.vfs.remove_file(&wal_path(&self.dir, g));
        }
        Ok(stats)
    }

    /// The chain-end generation: last delta, or the base.
    fn chain_end(&self) -> u64 {
        self.deltas.last().copied().unwrap_or(self.base_generation)
    }

    /// Active WAL generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current WAL size in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// Frames appended to the current WAL.
    pub fn wal_frames(&self) -> u64 {
        self.wal.next_seq()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filesystem this store runs on.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// The first error (if any) swallowed by the infallible [`Journal`]
    /// hook since the last call.
    pub fn take_journal_error(&mut self) -> Option<PersistError> {
        self.journal_error.take()
    }
}

impl Journal for PersistentStore {
    fn record(&mut self, group: NodeId, change: &Change) {
        match self.append(group, change) {
            Ok(_) => {}
            // Keep only the first cause; the poison flag set by
            // `append` guarantees no later frame can paper over the gap.
            Err(e) if self.journal_error.is_none() => self.journal_error = Some(e),
            Err(_) => {}
        }
    }
}

/// Best-effort cleanup of artifacts a crashed compaction can leave
/// behind: `*.tmp` files, snapshot/legacy delta files outside the
/// manifest chain, and WAL segments outside the live `chain end ..= active`
/// run. Never touches the manifest or `.quarantine` side files.
fn sweep_orphans(
    vfs: &dyn Vfs,
    dir: &Path,
    base: u64,
    deltas: &[u64],
    chain_end: u64,
    active: u64,
) {
    let Ok(names) = vfs.list_dir(dir) else {
        return;
    };
    let keep: std::collections::HashSet<PathBuf> = std::iter::once(snapshot_path(dir, base))
        .chain(deltas.iter().map(|&g| delta_path(dir, g)))
        .chain((chain_end..=active).map(|g| wal_path(dir, g)))
        .collect();
    for name in names {
        let p = dir.join(&name);
        let managed = (name.starts_with("snapshot-") && name.ends_with(".snap"))
            || (name.starts_with("delta-") && name.ends_with(".snap"))
            || (name.starts_with("wal-") && name.ends_with(".log"));
        if name.ends_with(".tmp") || (managed && !keep.contains(&p)) {
            let _ = vfs.remove_file(&p);
        }
    }
}
