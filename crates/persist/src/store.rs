//! The durable store: a chain of snapshot generations plus the active
//! write-ahead log, tied together by a manifest.
//!
//! Layout of a store directory:
//!
//! ```text
//! MANIFEST              — checksummed chain: base generation + deltas
//! snapshot-<gen>.snap   — full point-in-time system image (chain base)
//! delta-<gen>.snap      — differential generation: only the units
//!                         dirtied since the previous generation
//! wal-<gen>.log         — changes applied since generation <gen>
//! wal-<gen>.log.quarantine — salvaged bytes of a corrupt segment/tail
//! ```
//!
//! *Crash recovery* (`PersistentStore::open`) = read the manifest, load
//! the base snapshot, fold the delta chain in order
//! ([`snapshot::fold_delta`]), then replay the WAL segments from the
//! chain end onward through [`SmartStoreSystem::apply_change`] — the
//! same deterministic code path the live system took, so the recovered
//! state matches the pre-crash state exactly up to the last durable
//! frame. Recovery never destroys bytes it cannot verify: a torn or
//! corrupt tail is *salvaged prefix-first* — the verified frames
//! replay, the unverifiable remainder moves to a `.quarantine` side
//! file (reported in [`RecoveryReport::quarantined_bytes`]) — and a
//! successor segment whose header's `prev_frames` disagrees with what
//! its predecessor actually replayed (the signature of an `fsync` that
//! lied) is quarantined whole rather than replayed into a
//! non-prefix state. Transient read corruption is distinguished from
//! damage on the platter by re-reading once before anything
//! destructive happens.
//!
//! *Compaction* is **incremental and off the write path**: a cut
//! ([`PersistentStore::begin_delta_compaction`]) seals the current WAL,
//! switches journaling to a fresh segment, and captures a copy-on-write
//! view of just the dirty units — O(churn footprint). The expensive
//! encode ([`DeltaCompaction::encode`], parallel per-unit on the shared
//! pool) borrows neither the system nor the store, so the writer keeps
//! journaling while it runs; [`PersistentStore::install_delta`] then
//! writes the delta atomically and flips the manifest. (The automatic
//! policy in [`PersistentStore::compact_incremental`] — what
//! `apply_journaled` uses — runs the three phases back-to-back on the
//! caller, so it blocks for the encode but still pays only O(churn)
//! bytes; hand the cut to a worker thread yourself for a truly
//! non-blocking writer, as the concurrency test does.) Once the delta
//! chain outgrows `max_delta_chain` (or most units are dirty anyway), a
//! full rewrite ([`PersistentStore::compact`]) resets the chain. A
//! crash at *any* step boundary leaves a recoverable directory: the
//! manifest always points at a complete chain, and un-flipped deltas /
//! superseded WAL segments are swept as orphans on the next open.
//!
//! All I/O goes through a [`Vfs`] handle; production entry points use
//! [`RealVfs`](crate::vfs::RealVfs), the torture harness substitutes
//! [`FaultVfs`](crate::vfs::FaultVfs).

use crate::codec::{self, Dec, Enc, FrameError};
use crate::error::{PersistError, Result};
use crate::snapshot::{self, DeltaStats, SnapshotStats};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{self, WalWriter};
use smartstore::system::{DeltaParts, Journal};
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
    /// Delta generations folded on top of the base.
    pub deltas_folded: usize,
    /// Snapshot + delta bytes read.
    pub snapshot_bytes: u64,
    /// WAL frames replayed on top of the folded chain.
    pub replayed_frames: usize,
    /// WAL segments replayed (more than one after a crash mid-cut).
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
    /// image's MD5 filters under the fast-family default). The rebuilt
    /// units are marked dirty, so the next compaction persists them in
    /// the configured family.
    pub units_migrated: usize,
}

/// Durability/compaction tunables, normally taken from
/// [`smartstore::config::PersistConfig`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// `fsync` the WAL every N appends.
    pub wal_sync_every: usize,
    /// Compact once the WAL exceeds this many bytes.
    pub wal_compact_bytes: u64,
    /// Delta generations to accumulate before a full rewrite; 0
    /// disables differential snapshots.
    pub max_delta_chain: usize,
}

impl From<&smartstore::config::PersistConfig> for StoreOptions {
    fn from(c: &smartstore::config::PersistConfig) -> Self {
        Self {
            wal_sync_every: c.wal_sync_every,
            wal_compact_bytes: c.wal_compact_bytes,
            max_delta_chain: c.max_delta_chain,
        }
    }
}

/// What one [`PersistentStore::compact_incremental`] call did.
#[derive(Clone, Copy, Debug)]
pub enum CompactionOutcome {
    /// Full-image rewrite: chain reset to a fresh base.
    Full(SnapshotStats),
    /// Differential generation appended to the chain.
    Delta(DeltaStats),
}

impl CompactionOutcome {
    /// Bytes written to the new generation.
    pub fn bytes_written(&self) -> u64 {
        match self {
            CompactionOutcome::Full(s) => s.bytes,
            CompactionOutcome::Delta(s) => s.bytes,
        }
    }

    /// True for a delta generation.
    pub fn is_delta(&self) -> bool {
        matches!(self, CompactionOutcome::Delta(_))
    }
}

/// The writer-side cut of an in-flight delta compaction: a
/// copy-on-write view of the dirty units plus the index-side sections,
/// captured in O(churn footprint) while the store switched journaling
/// to a fresh WAL segment. Owns no borrow of the system or the store —
/// ship it to a worker thread and [`Self::encode`] there while the
/// writer keeps appending.
#[derive(Debug)]
pub struct DeltaCompaction {
    next_gen: u64,
    view: DeltaParts,
}

impl DeltaCompaction {
    /// Units this delta will re-encode.
    pub fn n_dirty(&self) -> usize {
        self.view.units.len()
    }

    /// Total units in the system at the cut.
    pub fn n_units_total(&self) -> usize {
        self.view.n_units_total
    }

    /// The expensive half: parallel per-unit encode + CRC on the shared
    /// pool ([`snapshot::encode_delta`]). Pure — runs entirely off the
    /// write path.
    pub fn encode(self) -> EncodedDelta {
        let (bytes, stats) = snapshot::encode_delta(&self.view);
        EncodedDelta {
            next_gen: self.next_gen,
            bytes,
            stats,
        }
    }
}

/// An encoded delta generation awaiting
/// [`PersistentStore::install_delta`].
#[derive(Debug)]
pub struct EncodedDelta {
    next_gen: u64,
    bytes: Vec<u8>,
    stats: DeltaStats,
}

impl EncodedDelta {
    /// Encoded size in bytes.
    pub fn bytes_len(&self) -> usize {
        self.bytes.len()
    }

    /// Shape statistics of the encoded delta.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }
}

/// Handle to an open store directory: owns the active WAL and knows how
/// to snapshot/compact. Implements [`Journal`] so it can be passed
/// straight to [`SmartStoreSystem::apply_change_journaled`].
#[derive(Debug)]
pub struct PersistentStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    /// Base (full-image) generation of the chain.
    base_generation: u64,
    /// Delta generations folded on top of the base, ascending.
    deltas: Vec<u64>,
    /// Active WAL generation. Equals the chain end right after a
    /// compaction; runs ahead of it between a cut and its install, and
    /// after a crash recovery that replayed extra segments.
    generation: u64,
    wal: WalWriter,
    opts: StoreOptions,
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
    /// A cut is in flight (begin without install). A second concurrent
    /// cut would double-clear dirty tracking, so it is refused.
    cut_pending: bool,
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

fn write_manifest(vfs: &dyn Vfs, dir: &Path, base: u64, deltas: &[u64]) -> Result<()> {
    let mut payload = Enc::new();
    payload.u16(codec::FORMAT_VERSION);
    payload.u64(base);
    payload.u32(deltas.len() as u32);
    for &g in deltas {
        payload.u64(g);
    }
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

/// Reads the manifest: `(base generation, delta chain)`. v1 manifests
/// (pre-differential) carry a single generation and an empty chain.
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
/// change stream. Segments that never finished creation hold no
/// acknowledged frames and are simply removed. Best-effort; returns the
/// bytes preserved.
fn quarantine_successors(vfs: &dyn Vfs, dir: &Path, from: u64) -> u64 {
    let mut total = 0u64;
    let mut g = from;
    loop {
        let p = wal_path(dir, g);
        if !matches!(vfs.exists(&p), Ok(true)) {
            break;
        }
        if matches!(wal::probe(vfs, &p), Ok(wal::WalProbe::CreationArtifact)) {
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

impl PersistentStore {
    /// Creates a new store at `dir` (made if missing) holding a full
    /// snapshot of `system` as generation 1 with an empty WAL, and
    /// resets the system's dirty tracking — disk and memory now agree.
    /// Durability options come from `system.cfg.persist`.
    pub fn create(dir: &Path, system: &mut SmartStoreSystem) -> Result<(Self, SnapshotStats)> {
        Self::create_with(RealVfs::handle(), dir, system)
    }

    /// [`Self::create`] over an explicit [`Vfs`].
    pub fn create_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        system: &mut SmartStoreSystem,
    ) -> Result<(Self, SnapshotStats)> {
        vfs.create_dir_all(dir)?;
        let opts = StoreOptions::from(&system.cfg.persist);
        let generation = 1;
        let stats = snapshot::write_snapshot(
            vfs.as_ref(),
            &system.to_parts(),
            &snapshot_path(dir, generation),
        )?;
        let wal = WalWriter::create(
            vfs.as_ref(),
            &wal_path(dir, generation),
            opts.wal_sync_every,
            0,
        )?;
        write_manifest(vfs.as_ref(), dir, generation, &[])?;
        system.clear_dirty();
        Ok((
            Self {
                vfs,
                dir: dir.to_path_buf(),
                base_generation: generation,
                deltas: Vec::new(),
                generation,
                wal,
                opts,
                journal_error: None,
                poisoned: false,
                cut_pending: false,
            },
            stats,
        ))
    }

    /// Opens an existing store: loads the manifest's base snapshot,
    /// folds the delta chain, replays the WAL segments from the chain
    /// end onward (salvaging and quarantining anything unverifiable),
    /// and returns the recovered system together with the store handle
    /// positioned to keep appending. The recovered system's dirty set
    /// is exactly the replayed footprint — the units the next delta
    /// must re-encode.
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
            let delta = retry_corrupt(|| snapshot::load_delta(v, &dpath))?;
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
        let opts = StoreOptions::from(&system.cfg.persist);

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
                WalWriter::create(v, &first, opts.wal_sync_every, 0)?;
            }
            wal::WalProbe::Garbage => {
                quarantined_bytes += wal::quarantine_file(v, &first)?;
                quarantined_bytes += quarantine_successors(v, dir, chain_end + 1);
                WalWriter::create(v, &first, opts.wal_sync_every, 0)?;
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
            // A crash between a compaction cut and its install leaves
            // the sealed old segment *and* the fresh one live; walk the
            // contiguous run. The successor's header records how many
            // frames its predecessor held at the seal — a mismatch
            // means the predecessor lost durable frames afterwards (an
            // fsync that lied), and replaying the successor on top
            // would fabricate a state matching no prefix.
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
            opts.wal_sync_every,
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
                opts,
                journal_error: None,
                poisoned: false,
                cut_pending: false,
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
        self.wal.bytes() > self.opts.wal_compact_bytes
    }

    /// Compacts the WAL into the next snapshot generation, choosing the
    /// cheap path: a *delta* generation (re-encoding only the dirty
    /// units) while the chain is short and the churn footprint is a
    /// minority of the corpus, a full-image rewrite otherwise. This is
    /// the policy entry point [`crate::SystemPersist::apply_journaled`]
    /// uses.
    pub fn compact_incremental(
        &mut self,
        system: &mut SmartStoreSystem,
    ) -> Result<CompactionOutcome> {
        let n_units = system.units().len();
        let dirty = system.dirty_count();
        // Two states force the full path regardless of policy: an
        // abandoned in-flight cut (begin without install — e.g. an
        // encode worker died) and a poisoned store (a failed install
        // may have discarded dirty tracking, so a delta could silently
        // omit acknowledged churn). The full rewrite below captures
        // everything and resets both.
        let use_delta = !self.cut_pending
            && !self.poisoned
            && self.opts.max_delta_chain > 0
            && self.deltas.len() < self.opts.max_delta_chain
            && dirty * 2 < n_units;
        if use_delta {
            let cut = self.begin_delta_compaction(system)?;
            let encoded = cut.encode();
            Ok(CompactionOutcome::Delta(self.install_delta(encoded)?))
        } else {
            Ok(CompactionOutcome::Full(self.compact(system)?))
        }
    }

    /// The writer-side cut of a delta compaction, O(churn footprint):
    /// seals the current WAL segment, switches journaling to a fresh
    /// one, captures the copy-on-write view of the dirty units, and
    /// resets the system's dirty tracking (changes landing after the
    /// cut re-mark their units for the *next* delta). The expensive
    /// encode happens on the returned [`DeltaCompaction`] — on a worker
    /// thread if you like — while this store keeps accepting appends;
    /// finish with [`Self::install_delta`].
    pub fn begin_delta_compaction(
        &mut self,
        system: &mut SmartStoreSystem,
    ) -> Result<DeltaCompaction> {
        if self.cut_pending {
            return Err(PersistError::Io(std::io::Error::other(
                "a delta compaction cut is already in flight; install it first",
            )));
        }
        if self.poisoned {
            // A poisoned store may have lost dirty tracking to a failed
            // install — a delta cut here could silently omit
            // acknowledged churn. Only the full rewrite is sound.
            return Err(PersistError::Io(std::io::Error::other(
                "store is poisoned; only a full compact() re-establishes a consistent snapshot",
            )));
        }
        // Seal the old segment: every pre-cut frame durable before the
        // manifest can ever supersede them.
        self.wal.sync()?;
        let next = self.generation + 1;
        let new_wal = WalWriter::create(
            self.vfs.as_ref(),
            &wal_path(&self.dir, next),
            self.opts.wal_sync_every,
            // The successor records the sealed segment's frame count so
            // recovery can detect the sealed log shrinking afterwards
            // (a lying fsync) instead of replaying across the gap.
            self.wal.next_seq(),
        )?;
        let view = system.to_delta_parts();
        system.clear_dirty();
        self.wal = new_wal;
        self.generation = next;
        self.cut_pending = true;
        Ok(DeltaCompaction {
            next_gen: next,
            view,
        })
    }

    /// Installs an encoded delta generation: writes the delta file
    /// atomically, flips the manifest to the extended chain, and
    /// retires the superseded WAL segments. On failure the store is
    /// poisoned — the cut already cleared dirty tracking, so only a
    /// full compaction (which re-encodes everything) can guarantee a
    /// complete next generation — and the half-written artifacts are
    /// removed immediately rather than stranded until the next open's
    /// orphan sweep. (The next `open()` also heals this state on its
    /// own: the manifest still names the old chain, and the sealed +
    /// active segments replay every acknowledged change.)
    pub fn install_delta(&mut self, encoded: EncodedDelta) -> Result<DeltaStats> {
        if !self.cut_pending || encoded.next_gen != self.generation {
            return Err(PersistError::Io(std::io::Error::other(format!(
                "install_delta: generation {} does not match the in-flight cut",
                encoded.next_gen
            ))));
        }
        self.cut_pending = false;
        let next = encoded.next_gen;
        let prev_end = self.chain_end();
        let install = (|| -> Result<()> {
            snapshot::write_encoded(
                self.vfs.as_ref(),
                &encoded.bytes,
                &delta_path(&self.dir, next),
            )?;
            let mut chain = self.deltas.clone();
            chain.push(next);
            write_manifest(self.vfs.as_ref(), &self.dir, self.base_generation, &chain)?;
            self.deltas = chain;
            Ok(())
        })();
        if let Err(e) = install {
            self.poisoned = true;
            // Nothing references these: the manifest was never flipped
            // (or its tmp never renamed). Removing them now keeps the
            // directory clean for however long this process lives.
            let dpath = delta_path(&self.dir, next);
            let _ = self.vfs.remove_file(&dpath.with_extension("tmp"));
            let _ = self.vfs.remove_file(&dpath);
            let _ = self.vfs.remove_file(&self.dir.join("MANIFEST.tmp"));
            return Err(e);
        }
        // A poison present here necessarily arose *after* the cut
        // (begin refuses poisoned stores): the gap lives in the
        // still-active post-cut segment, which this install does not
        // supersede — it must survive. Only a full compaction heals it.
        if !self.poisoned {
            self.journal_error = None;
        }
        // Superseded segments are unreachable now; removal is
        // best-effort (the orphan sweep catches leftovers).
        for g in prev_end..next {
            let _ = self.vfs.remove_file(&wal_path(&self.dir, g));
        }
        Ok(encoded.stats)
    }

    /// Folds everything into a fresh *full* snapshot of `system` (which
    /// must be the state that *includes* every journaled change):
    /// writes generation `g+1`, flips the manifest to a single-element
    /// chain, deletes the old chain and WAL segments, and resets the
    /// system's dirty tracking. Because the new snapshot captures the
    /// full in-memory state, this also recovers a poisoned store — the
    /// gapped old log becomes irrelevant.
    pub fn compact(&mut self, system: &mut SmartStoreSystem) -> Result<SnapshotStats> {
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
            self.opts.wal_sync_every,
            0,
        )?;
        write_manifest(self.vfs.as_ref(), &self.dir, next, &[])?;
        let old_base = self.base_generation;
        let old_deltas = std::mem::take(&mut self.deltas);
        self.wal = new_wal;
        self.base_generation = next;
        self.generation = next;
        self.poisoned = false;
        self.cut_pending = false;
        self.journal_error = None;
        system.clear_dirty();
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

    /// Base (full-image) generation of the snapshot chain.
    pub fn base_generation(&self) -> u64 {
        self.base_generation
    }

    /// Delta generations currently folded on top of the base.
    pub fn delta_chain(&self) -> &[u64] {
        &self.deltas
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
/// behind: `*.tmp` files, snapshot/delta files outside the manifest
/// chain, and WAL segments outside the live `chain end ..= active`
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
