//! The sharded metadata-server facade.
//!
//! The paper's deployment is N metadata servers, each owning the
//! storage units of a few semantic groups (§2.2–2.3). [`MetadataServer`]
//! reproduces that shape in one process: files are partitioned into
//! `n_shards` coarse semantic shards with the *same* LSI sort-tile
//! placement the single system uses for units, and every shard hosts
//! its own [`SmartStoreSystem`] — its own semantic R-tree, version
//! chains, and (optionally) its own store directory with snapshot +
//! write-ahead log, so each server journals only its own groups.
//!
//! Reads visit every shard through the `&self`
//! [`smartstore::query::QueryEngine`] — point lookups inline on the
//! calling thread, range/top-k/stats fanned out on the thread pool (see
//! [`MetadataServer::serve_read`]) — and gather through the
//! deterministic merges in [`crate::protocol`]; the merged answer is
//! bit-identical to a single unsharded system's (the parity suite in
//! `tests/parity.rs` asserts this across shard counts, query kinds and
//! route modes). Writes route to exactly one shard: inserts to the
//! shard whose root semantic vector is most correlated (the off-line
//! placement rule of §3.4 lifted to shard granularity), deletes and
//! modifies to the owning shard.

use crate::codec::WireError;
use crate::protocol::{
    AppliedReply, DegradedReply, QueryReply, Request, Response, StatsReply, TopKReply,
};
use rayon::prelude::*;
use smartstore::grouping::partition_tiled_flat;
use smartstore::tree::NodeId;
use smartstore::versioning::Change;
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_linalg::cosine_similarity;
use smartstore_persist::{PersistentStore, RealVfs, SystemPersist as _, Vfs};
use smartstore_trace::{FileMetadata, ATTR_DIMS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Service-layer failure.
#[derive(Debug)]
pub enum ServiceError {
    /// Invalid deployment configuration.
    Config(String),
    /// Durable-store failure on a shard.
    Persist(smartstore_persist::PersistError),
    /// Wire encode/decode failure.
    Wire(WireError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Config(msg) => write!(f, "service configuration error: {msg}"),
            ServiceError::Persist(e) => write!(f, "shard store error: {e}"),
            ServiceError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<smartstore_persist::PersistError> for ServiceError {
    fn from(e: smartstore_persist::PersistError) -> Self {
        ServiceError::Persist(e)
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

/// Service result alias.
pub type Result<T> = std::result::Result<T, ServiceError>;

/// Deployment shape of a [`MetadataServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Number of shards (simulated metadata servers).
    pub n_shards: usize,
    /// Storage units hosted per shard.
    pub units_per_shard: usize,
    /// Per-shard SmartStore configuration.
    pub cfg: SmartStoreConfig,
    /// Build seed (shard `i` derives its own stream from it).
    pub seed: u64,
    /// When set, every shard persists under
    /// `<store_dir>/shard-<i>/` with its own snapshot + WAL; `None`
    /// runs in memory only.
    pub store_dir: Option<PathBuf>,
    /// Filesystem the shard stores run on; `None` means the real disk.
    /// Injecting a [`smartstore_persist::FaultVfs`] here is how the
    /// degraded-mode suite drives shard failures deterministically.
    pub store_vfs: Option<Arc<dyn Vfs>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            n_shards: 4,
            units_per_shard: 15,
            cfg: SmartStoreConfig::default(),
            seed: 0x5e7f_face,
            store_dir: None,
            store_vfs: None,
        }
    }
}

/// Serving state of one shard slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving reads and writes.
    Healthy,
    /// Fenced off after a persistence failure its store could not heal
    /// (or a failed recovery at cold start): excluded from the read
    /// fan-out, its mutations answered [`Response::Unavailable`]. The
    /// reason records the error that tripped the fence.
    Quarantined(String),
}

impl ShardHealth {
    /// True when the shard serves.
    pub fn is_healthy(&self) -> bool {
        matches!(self, ShardHealth::Healthy)
    }
}

/// One shard: a full SmartStore system plus its optional durable store.
struct Shard {
    sys: SmartStoreSystem,
    store: Option<PersistentStore>,
    dir: Option<PathBuf>,
}

/// A shard slot: a live shard, or the fenced-off remains of one. A
/// failed shard keeps its slot (and id) so the rest of the fleet keeps
/// serving — the paper's deployment loses one metadata server, not the
/// namespace.
enum ShardSlot {
    // Boxed: a full SmartStore system dwarfs the Down variant, and the
    // slot vector should not pay Up's footprint for fenced entries.
    Up(Box<Shard>),
    Down {
        dir: Option<PathBuf>,
        reason: String,
    },
}

impl ShardSlot {
    fn up(&self) -> Option<&Shard> {
        match self {
            ShardSlot::Up(s) => Some(s.as_ref()),
            ShardSlot::Down { .. } => None,
        }
    }

    fn health(&self) -> ShardHealth {
        match self {
            ShardSlot::Up(_) => ShardHealth::Healthy,
            ShardSlot::Down { reason, .. } => ShardHealth::Quarantined(reason.clone()),
        }
    }
}

/// Descriptive snapshot of one shard's layout (for reports and docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Shard id.
    pub id: usize,
    /// Storage units hosted.
    pub n_units: usize,
    /// Files currently stored.
    pub n_files: usize,
    /// First-level semantic groups on this shard.
    pub n_groups: usize,
    /// On-disk store directory, when durable.
    pub dir: Option<PathBuf>,
    /// Serving state (quarantined shards report zero units/files).
    pub health: ShardHealth,
}

/// A sharded metadata service facade over N per-group
/// [`SmartStoreSystem`] shards.
pub struct MetadataServer {
    shards: Vec<ShardSlot>,
    /// file id → owning shard.
    owner: HashMap<u64, usize>,
    /// Filesystem the shard stores live on (real disk by default).
    vfs: Arc<dyn Vfs>,
}

impl MetadataServer {
    /// Builds a sharded deployment: `files` are split into
    /// `cfg.n_shards` semantic shards (same LSI sort-tile placement the
    /// single system uses for units) and each shard builds its own
    /// system of `cfg.units_per_shard` units. With `store_dir` set,
    /// every shard snapshots into its own directory and journals
    /// subsequent changes to its own WAL.
    pub fn build(files: Vec<FileMetadata>, cfg: &ServerConfig) -> Result<Self> {
        if cfg.n_shards == 0 {
            return Err(ServiceError::Config("n_shards must be positive".into()));
        }
        if cfg.units_per_shard == 0 {
            return Err(ServiceError::Config(
                "units_per_shard must be positive".into(),
            ));
        }
        let buckets = Self::partition(files, cfg);
        for (i, b) in buckets.iter().enumerate() {
            if b.len() < cfg.units_per_shard {
                return Err(ServiceError::Config(format!(
                    "shard {i} received {} files for {} units; \
                     use fewer shards or fewer units per shard",
                    b.len(),
                    cfg.units_per_shard
                )));
            }
        }
        let vfs = cfg.store_vfs.clone().unwrap_or_else(RealVfs::handle);
        let mut shards = Vec::with_capacity(cfg.n_shards);
        let mut owner = HashMap::new();
        for (i, bucket) in buckets.into_iter().enumerate() {
            for f in &bucket {
                owner.insert(f.file_id, i);
            }
            let sys = SmartStoreSystem::build(
                bucket,
                cfg.units_per_shard,
                cfg.cfg.clone(),
                cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let (store, dir) = match &cfg.store_dir {
                Some(base) => {
                    let dir = shard_dir(base, i);
                    let (store, _stats) = sys.save_snapshot_with(vfs.clone(), &dir)?;
                    (Some(store), Some(dir))
                }
                None => (None, None),
            };
            shards.push(ShardSlot::Up(Box::new(Shard { sys, store, dir })));
        }
        if let Some(base) = &cfg.store_dir {
            write_fleet_manifest(vfs.as_ref(), base, cfg.n_shards)?;
        }
        Ok(Self { shards, owner, vfs })
    }

    /// Cold-starts a durable deployment from `base`: the fleet manifest
    /// says how many shards the deployment has, and every `shard-<i>/`
    /// directory is recovered through its own snapshot + WAL replay.
    ///
    /// A *missing* shard directory is an error, not a silently smaller
    /// fleet — partial recovery would present data loss as clean empty
    /// query results. A directory that is present but fails recovery,
    /// however, comes up [`ShardHealth::Quarantined`] instead of
    /// failing the fleet: reads carry a [`Response::Degraded`] marker
    /// naming the missing shard, and [`Self::try_reopen_shard`] can
    /// bring it back once repaired. Only if *every* shard fails does
    /// the open itself fail.
    pub fn open(base: &Path) -> Result<Self> {
        Self::open_with(RealVfs::handle(), base)
    }

    /// [`Self::open`] over an explicit [`Vfs`].
    pub fn open_with(vfs: Arc<dyn Vfs>, base: &Path) -> Result<Self> {
        let n_shards = read_fleet_manifest(vfs.as_ref(), base)?;
        let mut shards = Vec::with_capacity(n_shards);
        let mut owner = HashMap::new();
        let mut first_err = None;
        for i in 0..n_shards {
            let dir = shard_dir(base, i);
            if !vfs.exists(&dir).unwrap_or(false) {
                return Err(ServiceError::Config(format!(
                    "shard directory {} is missing; refusing a partial fleet",
                    dir.display()
                )));
            }
            match SmartStoreSystem::open_from_dir_with(vfs.clone(), &dir) {
                Ok((sys, store, _report)) => {
                    register_owner(&mut owner, &sys, i);
                    shards.push(ShardSlot::Up(Box::new(Shard {
                        sys,
                        store: Some(store),
                        dir: Some(dir),
                    })));
                }
                Err(e) => {
                    let reason = format!("recovery failed: {e}");
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    shards.push(ShardSlot::Down {
                        dir: Some(dir),
                        reason,
                    });
                }
            }
        }
        if shards.iter().all(|s| s.up().is_none()) {
            // No shard recovered: there is nothing to serve degraded
            // answers *from*, so surface the failure.
            return Err(first_err
                .map(ServiceError::Persist)
                .unwrap_or_else(|| ServiceError::Config("fleet has no shards".into())));
        }
        Ok(Self { shards, owner, vfs })
    }

    /// Splits files into per-shard buckets along the grouping predicate
    /// — shard placement is the unit-placement rule at coarser
    /// granularity, so semantically correlated files co-locate on one
    /// simulated server.
    fn partition(files: Vec<FileMetadata>, cfg: &ServerConfig) -> Vec<Vec<FileMetadata>> {
        if cfg.n_shards == 1 {
            return vec![files];
        }
        // One flat n×d projection table (no per-record Vec) feeds the
        // LSI sort-tile placement directly.
        let table = smartstore_trace::attr_subset_table(&files, &cfg.cfg.grouping_dims);
        let assignment = partition_tiled_flat(
            &table,
            cfg.cfg.grouping_dims.len(),
            cfg.n_shards,
            cfg.cfg.lsi_rank,
        );
        let mut buckets: Vec<Vec<FileMetadata>> = vec![Vec::new(); cfg.n_shards];
        for (f, &a) in files.into_iter().zip(assignment.iter()) {
            buckets[a].push(f);
        }
        buckets
    }

    /// Number of shard slots (healthy or quarantined).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's system (tests, reports). Panics on a
    /// quarantined shard — check [`Self::shard_health`] first.
    pub fn shard(&self, i: usize) -> &SmartStoreSystem {
        match &self.shards[i] {
            ShardSlot::Up(s) => &s.sys,
            ShardSlot::Down { reason, .. } => {
                // lint:allow(P003) -- documented panicking test accessor; check shard_health() first
                panic!("shard {i} is quarantined ({reason})")
            }
        }
    }

    /// Read access to one shard's durable store, when the deployment
    /// persists (tests, compaction telemetry); `None` when in-memory
    /// or quarantined.
    pub fn shard_store(&self, i: usize) -> Option<&PersistentStore> {
        self.shards[i].up().and_then(|s| s.store.as_ref())
    }

    /// Serving state of shard `i`.
    pub fn shard_health(&self, i: usize) -> ShardHealth {
        self.shards[i].health()
    }

    /// Shard ids currently serving, ascending.
    pub fn healthy_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.shards[i].up().is_some())
            .collect()
    }

    /// Shard ids currently fenced off, ascending.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.shards[i].up().is_none())
            .collect()
    }

    /// Fences shard `i` off by hand — the operator's kill switch (the
    /// server itself quarantines a shard when its store fails beyond
    /// [`PersistentStore::compact`]'s ability to heal). The shard's
    /// store is dropped (closing its WAL); a durable shard can come
    /// back through [`Self::try_reopen_shard`].
    pub fn quarantine_shard(&mut self, i: usize, reason: impl Into<String>) {
        if let ShardSlot::Up(s) = &self.shards[i] {
            // Ownership entries stay: a delete/modify of a fenced
            // shard's file must answer `Unavailable`, not pass for a
            // no-op on an unknown file.
            let dir = s.dir.clone();
            self.shards[i] = ShardSlot::Down {
                dir,
                reason: reason.into(),
            };
        }
    }

    /// Attempts to bring a quarantined durable shard back by running
    /// full crash recovery on its directory. On success the shard
    /// serves again (and re-registers its file ownership); on failure
    /// it stays quarantined and the error is returned.
    pub fn try_reopen_shard(&mut self, i: usize) -> Result<()> {
        let ShardSlot::Down { dir, reason } = &self.shards[i] else {
            return Ok(()); // already serving
        };
        let Some(dir) = dir.clone() else {
            return Err(ServiceError::Config(format!(
                "shard {i} has no store directory to recover from ({reason})"
            )));
        };
        let (sys, store, _report) = SmartStoreSystem::open_from_dir_with(self.vfs.clone(), &dir)?;
        register_owner(&mut self.owner, &sys, i);
        self.shards[i] = ShardSlot::Up(Box::new(Shard {
            sys,
            store: Some(store),
            dir: Some(dir),
        }));
        Ok(())
    }

    /// The group→server mapping: every first-level semantic group in
    /// the deployment, tagged with the shard that owns it. Shard-major,
    /// group-ascending — the routing table a directory service would
    /// publish.
    pub fn group_map(&self) -> Vec<(usize, NodeId)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.up().map(|s| (i, s)))
            .flat_map(|(i, s)| {
                s.sys
                    .tree()
                    .first_level_index_units()
                    .into_iter()
                    .map(move |g| (i, g))
            })
            .collect()
    }

    /// Per-shard layout description (quarantined shards report zero
    /// units/files and carry their fence reason in `health`).
    pub fn layout(&self) -> Vec<ShardInfo> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                ShardSlot::Up(s) => ShardInfo {
                    id: i,
                    n_units: s.sys.units().len(),
                    n_files: s.sys.units().iter().map(|u| u.len()).sum(),
                    n_groups: s.sys.tree().first_level_index_units().len(),
                    dir: s.dir.clone(),
                    health: ShardHealth::Healthy,
                },
                ShardSlot::Down { dir, reason } => ShardInfo {
                    id: i,
                    n_units: 0,
                    n_files: 0,
                    n_groups: 0,
                    dir: dir.clone(),
                    health: ShardHealth::Quarantined(reason.clone()),
                },
            })
            .collect()
    }

    /// The shards a request must visit. Queries scatter to every shard
    /// (each shard's own index prunes locally); mutations route to
    /// exactly one — inserts to the most semantically correlated shard,
    /// deletes/modifies to the owner. An empty vector means the request
    /// is a no-op (mutation of an unknown file).
    pub fn route(&self, req: &Request) -> Vec<usize> {
        match req {
            Request::Point { .. }
            | Request::Range { .. }
            | Request::TopK { .. }
            | Request::Stats => (0..self.shards.len()).collect(),
            Request::ApplyChange { change } => self.mutation_target(change).into_iter().collect(),
        }
    }

    /// The single mutation-placement rule, shared by [`Self::route`]
    /// (what a directory service would report) and [`Self::apply`]
    /// (what actually happens) so the two can never diverge: inserts go
    /// to the most semantically correlated shard, deletes/modifies to
    /// the owner; `None` for mutations of unknown files.
    fn mutation_target(&self, change: &Change) -> Option<usize> {
        match change {
            Change::Insert(f) => self.most_correlated_shard(&f.attr_vector()),
            Change::Delete(id) => self.owner.get(id).copied(),
            Change::Modify(f) => self.owner.get(&f.file_id).copied(),
        }
    }

    /// The *healthy* shard whose root semantic vector is most
    /// correlated with `v` (ties break to the lowest shard id) — a
    /// quarantined shard takes no new files, so inserts reroute to the
    /// best healthy alternative. `None` when every shard is down.
    fn most_correlated_shard(&self, v: &[f64]) -> Option<usize> {
        let mut best = None;
        let mut best_corr = f64::NEG_INFINITY;
        for (i, slot) in self.shards.iter().enumerate() {
            let Some(s) = slot.up() else { continue };
            let root = s.sys.tree().root();
            let corr = cosine_similarity(&s.sys.tree().node(root).centroid, v);
            if corr > best_corr {
                best_corr = corr;
                best = Some(i);
            }
        }
        best
    }

    /// Evaluates a *read* request on one shard through the shared
    /// `&self` query engine. Mutations are rejected here — they go
    /// through [`Self::apply`].
    pub fn query_shard(&self, shard: usize, req: &Request) -> Response {
        let Some(slot) = self.shards.get(shard) else {
            return Response::Error(format!("unknown shard {shard}"));
        };
        let Some(s) = slot.up() else {
            return Response::Unavailable(format!("shard {shard} is quarantined"));
        };
        let engine = s.sys.query();
        match req {
            Request::Point { name } => {
                let out = engine.point(name);
                Response::Query(QueryReply {
                    file_ids: out.file_ids,
                })
            }
            Request::Range { lo, hi, opts } => {
                // Wire input is untrusted: any f64 bit pattern decodes,
                // but NaN or inverted bounds would panic the evaluator.
                if lo.len() != ATTR_DIMS || hi.len() != ATTR_DIMS {
                    return Response::Error(format!(
                        "range dims {}x{} != {ATTR_DIMS}",
                        lo.len(),
                        hi.len()
                    ));
                }
                if let Some(i) = (0..ATTR_DIMS)
                    .find(|&i| !lo[i].is_finite() || !hi[i].is_finite() || lo[i] > hi[i])
                {
                    return Response::Error(format!(
                        "range bounds invalid in dim {i}: [{}, {}]",
                        lo[i], hi[i]
                    ));
                }
                let out = engine.range(lo, hi, opts);
                Response::Query(QueryReply {
                    file_ids: out.file_ids,
                })
            }
            Request::TopK { point, opts } => {
                if point.len() != ATTR_DIMS {
                    return Response::Error(format!("topk dims {} != {ATTR_DIMS}", point.len()));
                }
                if let Some(i) = (0..ATTR_DIMS).find(|&i| !point[i].is_finite()) {
                    return Response::Error(format!(
                        "topk point non-finite in dim {i}: {}",
                        point[i]
                    ));
                }
                let (hits, _) = engine.topk_scored(point, opts);
                Response::TopK(TopKReply { hits })
            }
            Request::Stats => Response::Stats(StatsReply {
                per_shard: vec![s.sys.stats()],
            }),
            Request::ApplyChange { .. } => {
                Response::Error("mutations must go through the write path".into())
            }
        }
    }

    /// Applies one mutation: routes it to its shard, journals it to
    /// that shard's WAL *before* the in-memory mutation (when durable),
    /// and updates the file→shard ownership.
    ///
    /// A persistence failure does not fail the fleet: a poisoned store
    /// is healed in place with a full [`PersistentStore::compact`] and
    /// the append retried once; only if the heal itself fails is the
    /// shard quarantined and the mutation answered
    /// [`Response::Unavailable`] — at which point a client retry
    /// reroutes an insert to a healthy shard.
    pub fn apply(&mut self, change: Change) -> Response {
        // Untrusted wire input: a non-finite attribute vector would
        // poison every later distance computation on the shard.
        if let Change::Insert(f) | Change::Modify(f) = &change {
            if f.attr_vector().iter().any(|x| !x.is_finite()) {
                return Response::Error(format!(
                    "change for file {} has a non-finite attribute",
                    f.file_id
                ));
            }
        }
        let Some(si) = self.mutation_target(&change) else {
            if self.shards.iter().any(|s| s.up().is_none()) {
                // With part of the fleet fenced off, "never seen" is
                // unprovable: the file may live on a quarantined shard
                // whose ownership was never registered.
                return Response::Unavailable(
                    "file ownership indeterminate while shards are quarantined".into(),
                );
            }
            // No-op: mutation of a file this deployment has never seen.
            return Response::Applied(AppliedReply {
                shard: None,
                group: None,
            });
        };
        let shard = match &mut self.shards[si] {
            ShardSlot::Up(s) => s,
            ShardSlot::Down { reason, .. } => {
                return Response::Unavailable(format!("shard {si} is quarantined ({reason})"));
            }
        };
        let landed = match shard.store.as_mut() {
            Some(store) => {
                match Self::apply_durable(&mut shard.sys, store, &change) {
                    Ok(g) => g,
                    Err(e) => {
                        // The shard's store is beyond in-place healing:
                        // fence it off rather than failing the fleet.
                        self.quarantine_shard(si, format!("journal error: {e}"));
                        return Response::Unavailable(format!(
                            "shard {si} quarantined after journal error: {e}"
                        ));
                    }
                }
            }
            None => shard.sys.apply_change(change.clone()),
        };
        match &change {
            Change::Insert(f) => {
                self.owner.insert(f.file_id, si);
            }
            Change::Delete(id) => {
                self.owner.remove(id);
            }
            Change::Modify(_) => {}
        }
        Response::Applied(AppliedReply {
            shard: Some(si),
            group: landed,
        })
    }

    /// The durable write path with in-place healing. The change is
    /// acknowledged iff it was journaled *and* applied; compaction runs
    /// best-effort after the ack point. A failed append poisons the
    /// store, which the full-rewrite compaction heals (it re-snapshots
    /// the complete in-memory state and clears the poison). An error
    /// means the change did not land and the store could not be healed.
    fn apply_durable(
        sys: &mut SmartStoreSystem,
        store: &mut PersistentStore,
        change: &Change,
    ) -> smartstore_persist::Result<Option<NodeId>> {
        let journal = |sys: &mut SmartStoreSystem, store: &mut PersistentStore| {
            sys.try_apply_change_journaled(change.clone(), |group, ch| {
                store.append(group, ch).map(|_| ())
            })
        };
        let landed = match journal(sys, store) {
            Ok(g) => g,
            Err(_) => {
                // The append failed and poisoned the journal (the log
                // may have a gap); nothing was applied. Heal with a
                // full compaction — a fresh snapshot of the complete
                // in-memory state needs no WAL at all — then retry the
                // append exactly once.
                store.compact(sys)?;
                journal(sys, store)?
            }
        };
        if store.should_compact() {
            // Strictly best-effort: the change is already durable in
            // the WAL, so a compaction failure must NOT become an
            // error — the caller would answer `Unavailable` and a
            // retry would apply the change twice. A failed compaction
            // leaves the old generation in force, and the next mutation
            // (the WAL still over its threshold) tries again.
            let _ = store.compact(sys);
        }
        Ok(landed)
    }

    /// Serves one request end to end: route, per-shard evaluation, and
    /// the deterministic merge of [`crate::protocol::merge_responses`].
    pub fn handle(&mut self, req: &Request) -> Response {
        match req {
            Request::ApplyChange { change } => self.apply(change.clone()),
            _ => self.serve_read(req),
        }
    }

    /// Read-only counterpart of [`Self::handle`] for concurrent
    /// readers; mutations come back as [`Response::Error`].
    ///
    /// Every healthy shard evaluates the request through its `&self`
    /// query engine and the replies reach the merge in shard order.
    /// *Where* they evaluate depends on the request kind alone:
    ///
    /// * a point lookup runs shard after shard on the calling thread —
    ///   a shard's share is a few microseconds (one key hash, a Bloom
    ///   descent, the routed units' probes), less than it costs to wake
    ///   a pool worker for it;
    /// * range, top-k and stats fan out on the shared thread pool,
    ///   whose order-preserving `collect` keeps shard order.
    ///
    /// Either way the merged answer is bit-identical to the sequential
    /// dispatch at every thread count (the serving bench gates on
    /// exactly that before timing).
    ///
    /// With part of the fleet quarantined, the fan-out covers only the
    /// healthy shards and the merged answer is wrapped in
    /// [`Response::Degraded`] naming the missing shards — bit-identical
    /// answers to a deployment built from only those shards, never a
    /// silent partial result. With *no* healthy shard the request is
    /// [`Response::Unavailable`].
    pub fn serve_read(&self, req: &Request) -> Response {
        if !req.is_read() {
            return Response::Error("serve_read: mutation requires the write path".into());
        }
        let healthy = self.healthy_shards();
        if healthy.is_empty() {
            return Response::Unavailable("every shard is quarantined".into());
        }
        let replies: Vec<Response> = match req {
            Request::Point { .. } => healthy.iter().map(|&s| self.query_shard(s, req)).collect(),
            _ => healthy
                .par_iter()
                .map(|&s| self.query_shard(s, req))
                .collect(),
        };
        let merged = crate::protocol::merge_responses(req, replies);
        let missing_shards = self.quarantined_shards();
        if missing_shards.is_empty() {
            return merged;
        }
        match merged {
            // Failures stay failures; only real answers carry the
            // partial-result marker.
            err @ (Response::Error(_) | Response::Unavailable(_) | Response::Overloaded(_)) => err,
            partial => Response::Degraded(DegradedReply {
                partial: Box::new(partial),
                missing_shards,
            }),
        }
    }

    /// Forces every healthy shard's WAL to disk (group commit
    /// boundary).
    pub fn sync(&mut self) -> Result<()> {
        for slot in &mut self.shards {
            if let ShardSlot::Up(s) = slot {
                if let Some(store) = s.store.as_mut() {
                    store.sync()?;
                }
            }
        }
        Ok(())
    }
}

/// Records `shard` as the owner of every file `sys` holds, reading the
/// units' dense id columns — the ids are all this needs of the records.
fn register_owner(owner: &mut HashMap<u64, usize>, sys: &SmartStoreSystem, shard: usize) {
    for unit in sys.units() {
        owner.extend(unit.file_ids().iter().map(|&id| (id, shard)));
    }
}

fn shard_dir(base: &Path, i: usize) -> PathBuf {
    base.join(format!("shard-{i:04}"))
}

/// Name of the fleet manifest at the deployment root: a single decimal
/// shard count, so `open` can tell a complete fleet from a partial one.
const FLEET_MANIFEST: &str = "FLEET";

fn write_fleet_manifest(vfs: &dyn Vfs, base: &Path, n_shards: usize) -> Result<()> {
    let path = base.join(FLEET_MANIFEST);
    let write = || -> std::io::Result<()> {
        vfs.create_dir_all(base)?;
        let mut f = vfs.create(&path)?;
        f.write_all_at(0, format!("{n_shards}\n").as_bytes())?;
        f.sync()
    };
    write().map_err(|e| {
        ServiceError::Config(format!(
            "cannot write fleet manifest {}: {e}",
            path.display()
        ))
    })
}

fn read_fleet_manifest(vfs: &dyn Vfs, base: &Path) -> Result<usize> {
    let path = base.join(FLEET_MANIFEST);
    let raw = vfs
        .read(&path)
        .map_err(|e| {
            ServiceError::Config(format!(
                "cannot read fleet manifest {}: {e}",
                path.display()
            ))
        })
        .map(|bytes| String::from_utf8_lossy(&bytes).into_owned())?;
    let n: usize = raw.trim().parse().map_err(|e| {
        ServiceError::Config(format!(
            "fleet manifest {} is corrupt ({e}): {raw:?}",
            path.display()
        ))
    })?;
    if n == 0 {
        return Err(ServiceError::Config(format!(
            "fleet manifest {} declares zero shards",
            path.display()
        )));
    }
    Ok(n)
}
