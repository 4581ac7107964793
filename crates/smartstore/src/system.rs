//! The assembled SmartStore system (§5's unit of evaluation).
//!
//! Gluing it together: a population of file metadata is partitioned into
//! `N` storage units by balanced semantic clustering; the semantic
//! R-tree aggregates units into groups; index units are mapped onto
//! storage units; queries route through the tree (on-line or off-line)
//! and are evaluated by the target units; metadata changes flow through
//! version chains; lazy updates re-synchronize stale index replicas.
//!
//! Every query returns a [`QueryOutcome`]: the answer plus a
//! [`RouteTrace`] of what it touched, as raw counts. The paper's
//! simulated latencies and message counts (§5) are computed from those
//! counts by `smartstore-bench`, never here.

use crate::config::SmartStoreConfig;
use crate::grouping::partition_tiled_flat;
use crate::mapping::{map_index_units, IndexMapping};
use crate::routing::RouteTrace;
use crate::tree::{NodeId, SemanticRTree};
use crate::unit::StorageUnit;
use crate::versioning::{Change, VersionStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartstore_trace::{FileMetadata, ATTR_DIMS};
use std::collections::HashMap;

/// The answer of one query and what evaluating it touched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Matching file ids (for point queries, at most one per hit unit).
    pub file_ids: Vec<u64>,
    /// Raw structural counts of the evaluation.
    pub trace: RouteTrace,
}

/// System-level structure statistics (Fig. 7 inputs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Number of storage units.
    pub n_units: usize,
    /// First-level semantic groups.
    pub n_groups: usize,
    /// Semantic R-tree height.
    pub tree_height: usize,
    /// Index bytes of the distributed semantic R-tree.
    pub tree_index_bytes: usize,
    /// Per-unit local index bytes (Bloom + summaries), averaged.
    pub per_unit_index_bytes: usize,
    /// Version-chain bytes across all groups.
    pub version_bytes: usize,
}

/// A sink for the durable change log: every mutation routed through
/// [`SmartStoreSystem::apply_change_journaled`] is recorded here
/// *before* the in-memory state mutates (write-ahead ordering). The
/// `smartstore-persist` crate provides the durable implementation; the
/// trait lives in the core so the core does not depend on the storage
/// backend.
pub trait Journal {
    /// Records one change, tagged with the first-level group it lands
    /// in. Implementations buffer durability errors and surface them on
    /// their own sync/flush API — this hook itself is infallible so the
    /// in-memory system never stalls on I/O error handling mid-update.
    fn record(&mut self, group: NodeId, change: &Change);
}

/// The complete mutable state of a [`SmartStoreSystem`], exported for
/// serialization. The `owner` map is intentionally absent: it is always
/// exactly "file → unit that stores it" and is rebuilt from the units.
#[derive(Clone, Debug)]
pub struct SystemParts {
    /// Configuration in force.
    pub cfg: SmartStoreConfig,
    /// Storage units with their (possibly stale) summaries.
    pub units: Vec<StorageUnit>,
    /// Semantic R-tree structural state.
    pub tree: crate::tree::TreeParts,
    /// Index-unit → storage-unit mapping.
    pub mapping: IndexMapping,
    /// Per-group version chains, sorted by group id.
    pub versions: Vec<(NodeId, VersionStore)>,
    /// Per-group pending-change counters, sorted by group id.
    pub pending: Vec<(NodeId, usize)>,
    /// Whether versioning is enabled.
    pub versioning_enabled: bool,
    /// Accumulated replica-maintenance message count.
    pub maintenance_messages: u64,
    /// Seed for re-deriving the post-restore RNG stream (entry-point
    /// selection and remapping only — never query answers).
    pub reseed: u64,
}

/// A complete SmartStore deployment over simulated storage units.
#[derive(Clone, Debug)]
pub struct SmartStoreSystem {
    /// Configuration in force.
    pub cfg: SmartStoreConfig,
    units: Vec<StorageUnit>,
    tree: SemanticRTree,
    mapping: IndexMapping,
    /// file id → owning unit.
    owner: HashMap<u64, usize>,
    /// Per-group version chains (keyed by first-level index node id).
    versions: HashMap<NodeId, VersionStore>,
    /// Changes since the last lazy replica update, per group.
    pending: HashMap<NodeId, usize>,
    versioning_enabled: bool,
    /// Messages spent on replica maintenance (lazy updates, version
    /// multicasts) — background traffic, reported separately.
    pub maintenance_messages: u64,
    rng: StdRng,
}

impl SmartStoreSystem {
    /// Builds a system of `n_units` storage units from a set of file
    /// metadata, using balanced semantic partitioning for placement.
    pub fn build(
        files: Vec<FileMetadata>,
        n_units: usize,
        cfg: SmartStoreConfig,
        seed: u64,
    ) -> Self {
        assert!(n_units > 0, "build: need at least one unit");
        assert!(
            files.len() >= n_units,
            "build: fewer files ({}) than units ({n_units})",
            files.len()
        );
        // Placement clusters on the grouping predicate (the attribute
        // subset of Statement 1), not the full D-dim space — the noisy
        // dimensions would otherwise swamp the semantic correlation.
        // The projection is built as one flat n×d table (no per-record
        // Vec), the shape the LSI fit consumes directly.
        let table = smartstore_trace::attr_subset_table(&files, &cfg.grouping_dims);
        let assignment =
            partition_tiled_flat(&table, cfg.grouping_dims.len(), n_units, cfg.lsi_rank);
        Self::build_with_assignment(files, &assignment, n_units, cfg, seed)
    }

    /// Builds with an explicit file→unit placement (used by the grouping
    /// ablation to compare LSI placement against K-means-on-raw and
    /// random placement).
    pub fn build_with_assignment(
        files: Vec<FileMetadata>,
        assignment: &[usize],
        n_units: usize,
        cfg: SmartStoreConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(files.len(), assignment.len(), "placement length mismatch");
        let mut buckets: Vec<Vec<FileMetadata>> = vec![Vec::new(); n_units];
        let mut owner = HashMap::with_capacity(files.len());
        for (f, &a) in files.into_iter().zip(assignment.iter()) {
            owner.insert(f.file_id, a);
            buckets[a].push(f);
        }
        let units: Vec<StorageUnit> = buckets
            .into_iter()
            .enumerate()
            .map(|(i, fs)| {
                StorageUnit::with_family(i, cfg.bloom_bits, cfg.bloom_hashes, cfg.bloom_family, fs)
            })
            .collect();
        let tree = SemanticRTree::build(&units, &cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5afe);
        let mapping = map_index_units(&tree, &mut rng);
        let mut versions = HashMap::new();
        for g in tree.first_level_index_units() {
            versions.insert(g, VersionStore::new(cfg.version_ratio));
        }
        Self {
            cfg,
            units,
            tree,
            mapping,
            owner,
            versions,
            pending: HashMap::new(),
            versioning_enabled: true,
            maintenance_messages: 0,
            rng,
        }
    }

    /// Enables or disables versioning (Tables 5–6 compare both).
    pub fn set_versioning(&mut self, enabled: bool) {
        self.versioning_enabled = enabled;
    }

    /// The storage units.
    pub fn units(&self) -> &[StorageUnit] {
        &self.units
    }

    /// The semantic R-tree.
    pub fn tree(&self) -> &SemanticRTree {
        &self.tree
    }

    /// The index-unit mapping.
    pub fn mapping(&self) -> &IndexMapping {
        &self.mapping
    }

    /// Exports the system's complete mutable state for serialization.
    pub fn to_parts(&self) -> SystemParts {
        let mut versions: Vec<(NodeId, VersionStore)> = self
            .versions // lint:allow(D002) -- collected then sorted below; map order never escapes
            .iter()
            .map(|(&g, vs)| (g, vs.clone()))
            .collect();
        versions.sort_by_key(|&(g, _)| g);
        let mut pending: Vec<(NodeId, usize)> =
            // lint:allow(D002) -- collected then sorted below
            self.pending.iter().map(|(&g, &n)| (g, n)).collect();
        pending.sort_unstable();
        SystemParts {
            cfg: self.cfg.clone(),
            units: self.units.clone(),
            tree: self.tree.to_parts(),
            mapping: self.mapping.clone(),
            versions,
            pending,
            versioning_enabled: self.versioning_enabled,
            maintenance_messages: self.maintenance_messages,
            reseed: 0x5afe_5eed,
        }
    }

    /// Reassembles a system from exported parts — the inverse of
    /// [`Self::to_parts`]. Query answers of the reassembled system are
    /// identical to the exported one's (units, tree summaries, Bloom
    /// filters and version chains come back byte-for-byte); only the
    /// RNG stream (query entry points, future remappings) restarts.
    pub fn from_parts(parts: SystemParts) -> Self {
        let mut owner = HashMap::new();
        for u in &parts.units {
            for &id in u.file_ids() {
                owner.insert(id, u.id);
            }
        }
        let tree = SemanticRTree::from_parts(parts.tree, &parts.cfg);
        Self {
            cfg: parts.cfg,
            units: parts.units,
            tree,
            mapping: parts.mapping,
            owner,
            versions: parts.versions.into_iter().collect(), // lint:allow(D002) -- parts.versions/pending are Vecs, not the maps of the same name
            pending: parts.pending.into_iter().collect(),
            versioning_enabled: parts.versioning_enabled,
            maintenance_messages: parts.maintenance_messages,
            rng: StdRng::seed_from_u64(parts.reseed),
        }
    }

    /// Every file currently stored, in unit order (ground truth for
    /// recall measurements).
    pub fn current_files(&self) -> Vec<FileMetadata> {
        self.units
            .iter()
            .flat_map(|u| u.files().iter().cloned())
            .collect()
    }

    /// Structure statistics.
    pub fn stats(&self) -> SystemStats {
        let per_unit: usize = self
            .units
            .iter()
            .map(|u| u.index_size_bytes())
            .sum::<usize>()
            / self.units.len();
        SystemStats {
            n_units: self.units.len(),
            n_groups: self.tree.first_level_index_units().len(),
            tree_height: self.tree.height(),
            tree_index_bytes: self.tree.index_size_bytes(),
            per_unit_index_bytes: per_unit,
            // lint:allow(D002) -- additive sum; order-insensitive
            version_bytes: self.versions.values().map(|v| v.size_bytes()).sum(),
        }
    }

    /// Version-chain space per group (Fig. 14(a)); empty when versioning
    /// is off.
    pub fn version_space_per_group(&self) -> f64 {
        if self.versions.is_empty() {
            return 0.0;
        }
        self.versions // lint:allow(D002) -- additive sum; order-insensitive
            .values()
            .map(|v| v.size_bytes())
            .sum::<usize>() as f64
            / self.versions.len() as f64
    }

    // ------------------------------------------------------------------
    // Queries
    //
    // Evaluation is pure: storage units are the source of truth, index
    // staleness arises only through the write path, and the lazy
    // replica refresh (§3.4) is an explicit write-side step inside
    // `apply_change`. Everything below therefore takes `&self`, so any
    // number of readers can evaluate concurrently; the public surface
    // is the [`crate::query::QueryEngine`] view.
    // ------------------------------------------------------------------

    /// A shared read-only query view over this system (the `&self`
    /// read path; see [`crate::query`]).
    pub fn query(&self) -> crate::query::QueryEngine<'_> {
        crate::query::QueryEngine::new(self)
    }

    /// Range-query evaluation (see [`crate::query::QueryEngine::range`]).
    pub(crate) fn eval_range(&self, lo: &[f64], hi: &[f64]) -> QueryOutcome {
        assert_eq!(lo.len(), ATTR_DIMS, "range_query: lo dims");
        assert_eq!(hi.len(), ATTR_DIMS, "range_query: hi dims");
        let route = self.tree.route_range(lo, hi);
        let mut trace = RouteTrace::routed(&route);
        let mut results = Vec::new();
        let mut bearing_units = Vec::new();
        for &u in &route.target_units {
            let (ids, w) = self.units[u].range_query(lo, hi);
            if !ids.is_empty() {
                bearing_units.push(u);
            }
            results.extend(ids);
            trace.add_unit(w);
        }
        // Fig. 8's routing distance counts the groups where results were
        // *obtained* — MBR pre-checks at index-unit hosts are not group
        // visits.
        trace.bearing_group_hops = self.tree.group_hops(bearing_units);
        if self.versioning_enabled {
            trace.version_chains = self.versions.len();
            trace.version_records = self.apply_versions_to_range(lo, hi, &mut results);
        }
        results.sort_unstable();
        results.dedup();
        QueryOutcome {
            file_ids: results,
            trace,
        }
    }

    /// Top-k query with the paper's MaxD pruning (§3.3.2): units are
    /// probed in best-first MBR order; probing stops once the next
    /// unit's lower bound exceeds the current k-th best distance (MaxD).
    /// Returns the `(file_id, squared distance)` pairs alongside the
    /// outcome so distributed callers can merge shard answers exactly.
    pub(crate) fn eval_topk_scored(
        &self,
        point: &[f64],
        k: usize,
    ) -> (Vec<(u64, f64)>, QueryOutcome) {
        assert_eq!(point.len(), ATTR_DIMS, "topk_query: point dims");
        let (order, nodes_visited) = self.tree.route_topk(point);
        let mut trace = RouteTrace {
            nodes_visited,
            units_routed: order.len(),
            ..RouteTrace::default()
        };
        // Cross-unit merge through the same bounded heap the units use:
        // O(log k) per candidate instead of re-sorting the merged list
        // after every unit, with the heap's k-th best doubling as the
        // MaxD bound. total_cmp ordering — identical order for the
        // non-negative squared distances that arise here, and no panic
        // path on a NaN.
        let mut top = crate::unit::TopK::new(k);
        for &(u, lower_bound) in &order {
            if lower_bound > top.max_d() {
                break; // MaxD pruning: no better result can exist here.
            }
            let (unit_top, w) = self.units[u].topk_query(point, k);
            trace.add_unit(w);
            for (id, d) in unit_top {
                top.push(id, d);
            }
        }
        let mut best = top.into_sorted();
        let probed = &order[..trace.units_probed];
        trace.group_hops = self.tree.group_hops(probed.iter().map(|&(u, _)| u));
        if self.versioning_enabled {
            trace.version_chains = self.versions.len();
            trace.version_records = self.apply_versions_to_topk(point, k, &mut best);
        }
        // Fig. 8 semantics: hops over the units that contributed to the
        // final answer, not every unit the MaxD walk grazed.
        trace.bearing_group_hops = self.tree.group_hops(
            best.iter()
                .filter_map(|&(id, _)| self.owner.get(&id).copied())
                .filter(|&u| probed.iter().any(|&(v, _)| v == u)),
        );
        let outcome = QueryOutcome {
            file_ids: best.iter().map(|&(id, _)| id).collect(),
            trace,
        };
        (best, outcome)
    }

    /// Point-query evaluation (see [`crate::query::QueryEngine::point`]).
    pub(crate) fn eval_point(&self, name: &str) -> QueryOutcome {
        // The name is hashed here, once; the descent and every unit it
        // reaches probe with the same prepared key.
        let key = self.tree.prepare_point(name);
        let mut trace = RouteTrace::default();
        let mut results = Vec::new();
        let descent = self.tree.descend_point(&key, |u| {
            trace.units_routed += 1;
            let (hit, w) = self.units[u].point_query_prepared(name, &key);
            if let Some(f) = hit {
                results.push(f.file_id);
            }
            trace.add_unit(w);
        });
        trace.nodes_visited = descent.nodes_visited;
        trace.filters_probed = descent.filters_probed;
        trace.group_hops = descent.group_hops;
        // Every Bloom-positive unit is where a point answer is looked
        // for, so all routed groups count as bearing.
        trace.bearing_group_hops = descent.group_hops;
        if self.versioning_enabled && results.is_empty() {
            // Staleness recovery: a file created after the last replica
            // refresh is found in the version chains.
            trace.version_chains = self.versions.len();
            // lint:allow(D002) -- results are sorted and deduped below
            for vs in self.versions.values() {
                let (effective, scanned) = vs.effective_changes();
                trace.version_records += scanned;
                for ch in effective {
                    match ch {
                        Change::Insert(f) | Change::Modify(f) if f.name == name => {
                            results.push(f.file_id);
                        }
                        _ => {}
                    }
                }
            }
        }
        results.sort_unstable();
        results.dedup();
        QueryOutcome {
            file_ids: results,
            trace,
        }
    }

    /// Versions held across all chains, sealed and open. Rolling the
    /// chains back crosses every one of their headers, which is why the
    /// simulated cost of a versioned query (Fig. 14(b)) reads this.
    pub fn version_count(&self) -> usize {
        // lint:allow(D002) -- additive sum; order-insensitive
        self.versions.values().map(|v| v.version_count()).sum()
    }

    // ------------------------------------------------------------------
    // Change stream & consistency (§4.4)
    // ------------------------------------------------------------------

    /// The single placement rule: the storage unit a change targets.
    /// Inserts go to the least-loaded unit of the most correlated group
    /// (§3.2.1); deletes/modifies go to the owner. `None` when the
    /// change is a no-op (delete/modify of an unknown file).
    ///
    /// Both [`Self::group_of_change`] and [`Self::apply_change`] go
    /// through here, so the group a write-ahead journal tags a frame
    /// with can never diverge from where the change actually lands.
    fn unit_of_change(&self, change: &Change) -> Option<usize> {
        match change {
            Change::Insert(f) => {
                let g = self.tree.most_correlated_group(&f.attr_vector());
                let members = self.tree.descendant_units(g);
                members.into_iter().min_by_key(|&u| self.units[u].len())
            }
            Change::Delete(id) => self.owner.get(id).copied(),
            Change::Modify(f) => self.owner.get(&f.file_id).copied(),
        }
    }

    /// The first-level group above a storage unit.
    fn group_of_unit(&self, unit: usize) -> NodeId {
        self.tree
            .leaf_of_unit(unit)
            .map(|l| self.tree.group_of_leaf(l))
            .unwrap_or_else(|| self.tree.root())
    }

    /// The first-level group a change will land in, computed *without*
    /// mutating anything. `None` when the change is a no-op
    /// (delete/modify of an unknown file).
    pub fn group_of_change(&self, change: &Change) -> Option<NodeId> {
        Some(self.group_of_unit(self.unit_of_change(change)?))
    }

    /// Applies a change, recording it in `journal` *first* (write-ahead
    /// ordering: once the journal accepts the frame, a crash before the
    /// in-memory mutation is recovered by replay). Placement is computed
    /// once and shared between the journal tag and the application.
    /// Returns the group the change landed in, like
    /// [`Self::apply_change`].
    pub fn apply_change_journaled(
        &mut self,
        change: Change,
        journal: &mut dyn Journal,
    ) -> Option<NodeId> {
        self.try_apply_change_journaled::<core::convert::Infallible>(change, |group, ch| {
            journal.record(group, ch);
            Ok(())
        })
        .unwrap_or_else(|never| match never {})
    }

    /// Fallible variant of [`Self::apply_change_journaled`]: `journal`
    /// may refuse the frame, in which case the in-memory state is left
    /// *untouched* (write-ahead discipline — a change that never reached
    /// the log must not exist in memory either).
    pub fn try_apply_change_journaled<E>(
        &mut self,
        change: Change,
        mut journal: impl FnMut(NodeId, &Change) -> std::result::Result<(), E>,
    ) -> std::result::Result<Option<NodeId>, E> {
        match self.unit_of_change(&change) {
            Some(unit) => {
                let group = self.group_of_unit(unit);
                journal(group, &change)?;
                Ok(self.apply_change_at(change, unit))
            }
            None => {
                // No-op change: still journaled (replay applies it as
                // the same no-op) so live and recovered histories match.
                journal(self.tree.root(), &change)?;
                Ok(None)
            }
        }
    }

    /// Applies a metadata change to the system. Storage units mutate
    /// immediately (they are the source of truth); the *index* — tree
    /// summaries and replicated vectors — stays stale until a lazy
    /// update fires, and version chains record the change for query-time
    /// recovery when versioning is enabled.
    ///
    /// Returns the first-level group the change landed in (`None` for
    /// no-op deletes/modifies of unknown files).
    pub fn apply_change(&mut self, change: Change) -> Option<NodeId> {
        let unit = self.unit_of_change(&change)?;
        self.apply_change_at(change, unit)
    }

    /// Applies a change whose target `unit` has already been resolved by
    /// [`Self::unit_of_change`].
    fn apply_change_at(&mut self, change: Change, unit: usize) -> Option<NodeId> {
        match &change {
            Change::Insert(f) => {
                self.owner.insert(f.file_id, unit);
                self.units[unit].insert_file_raw(f.clone());
            }
            Change::Delete(id) => {
                self.owner.remove(id);
                self.units[unit].remove_file_raw(*id);
            }
            Change::Modify(f) => {
                self.units[unit].modify_file_raw(f.clone());
            }
        }
        let group = self.group_of_unit(unit);
        if self.versioning_enabled {
            self.versions
                .entry(group)
                .or_insert_with(|| VersionStore::new(self.cfg.version_ratio))
                .record(change);
        }
        // Lazy update accounting (§3.4): once a group accumulates more
        // than `lazy_update_threshold` × its file count of changes, its
        // units re-publish summaries and the index refreshes.
        let counter = self.pending.entry(group).or_insert(0);
        *counter += 1;
        let group_files: usize = self
            .tree
            .descendant_units(group)
            .iter()
            .map(|&u| self.units[u].len())
            .sum();
        if (*counter as f64) > self.cfg.lazy_update_threshold * group_files.max(1) as f64 {
            self.pending.insert(group, 0);
            self.lazy_refresh_group(group);
        }
        Some(group)
    }

    /// Re-synchronizes all leaf summaries of a group and multicasts the
    /// fresh replica (counted as maintenance traffic).
    fn lazy_refresh_group(&mut self, group: NodeId) {
        for u in self.tree.descendant_units(group) {
            self.units[u].recompute_summaries();
            self.tree.update_leaf_summary(&self.units[u]);
        }
        // Replica multicast to every storage unit (§3.4).
        self.maintenance_messages += self.units.len() as u64;
        // Version chains covered by the refreshed index are folded in.
        if let Some(vs) = self.versions.get_mut(&group) {
            let mut scratch = Vec::new();
            let bytes = vs.flush_into(&mut scratch);
            let _ = bytes;
            // Multicast of the flushed versions to remote replicas.
            self.maintenance_messages += self.units.len() as u64;
        }
    }

    /// Bulk deletion for admin/GC sweeps (retention policies, dedup
    /// purges): groups `ids` by owning unit and removes each unit's
    /// batch with **one** compaction + summary recompute
    /// ([`StorageUnit::remove_files`]) instead of the change stream's
    /// per-file removal, then republishes the fresh leaf summaries to
    /// the index — the deleting units come out *consistent*, not stale,
    /// so no lazy-update debt accrues. Version chains record the
    /// deletes (off-line replicas may still hold the ids) and ownership
    /// updates as usual. Unknown ids are ignored; returns the number of
    /// records removed.
    ///
    /// This is the in-memory admin path, deliberately not journaled —
    /// route individual deletes through
    /// [`Self::apply_change_journaled`] when a WAL must see them, or
    /// snapshot after the sweep.
    pub fn remove_files_bulk(&mut self, ids: &[u64]) -> usize {
        let mut per_unit: HashMap<usize, Vec<u64>> = HashMap::new();
        for &id in ids {
            if let Some(&u) = self.owner.get(&id) {
                per_unit.entry(u).or_default().push(id);
            }
        }
        // lint:allow(D002) -- collected then sorted below
        let mut units: Vec<usize> = per_unit.keys().copied().collect();
        units.sort_unstable();
        let mut removed_total = 0;
        for u in units {
            let removed = self.units[u].remove_files(&per_unit[&u]);
            let group = self.group_of_unit(u);
            for f in &removed {
                self.owner.remove(&f.file_id);
                if self.versioning_enabled {
                    self.versions
                        .entry(group)
                        .or_insert_with(|| VersionStore::new(self.cfg.version_ratio))
                        .record(Change::Delete(f.file_id));
                }
            }
            removed_total += removed.len();
            self.tree.update_leaf_summary(&self.units[u]);
        }
        removed_total
    }

    /// Migrates every Bloom filter to `cfg.bloom_family`, rebuilding
    /// unit filters from their file names and tree filters bottom-up
    /// from the units. Returns the number of unit filters rebuilt
    /// (0 = nothing to do, filters already match the config).
    ///
    /// This is the open-path hook for persisted images written under a
    /// different hash family (v2 images are always MD5). Only Bloom
    /// state changes: centroids and MBRs keep whatever (possibly stale)
    /// values were persisted, because staleness is answer-relevant
    /// (§3.4). Rebuilt filters are *fresh* — names journaled since the
    /// last summary refresh become visible to point routing, which is
    /// exactly the effect of a lazy update (§3.4) arriving early, never
    /// a lost answer. The next compaction persists the rebuilt filters,
    /// since every compaction rewrites the full image.
    pub fn migrate_bloom_family(&mut self) -> usize {
        let family = self.cfg.bloom_family;
        let mut migrated = 0usize;
        for u in &mut self.units {
            if u.bloom().family() != family {
                u.rebuild_bloom(family);
                migrated += 1;
            }
        }
        if migrated > 0 {
            self.tree.rebuild_blooms(&self.units);
        }
        migrated
    }

    /// Forces a full index rebuild (reconfiguration): recomputes unit
    /// summaries, rebuilds the tree and mapping, clears version chains.
    pub fn reconfigure(&mut self) {
        for u in &mut self.units {
            u.recompute_summaries();
        }
        self.tree = SemanticRTree::build(&self.units, &self.cfg);
        self.mapping = map_index_units(&self.tree, &mut self.rng);
        self.versions.clear();
        for g in self.tree.first_level_index_units() {
            self.versions
                .insert(g, VersionStore::new(self.cfg.version_ratio));
        }
        self.pending.clear();
    }

    fn apply_versions_to_range(&self, lo: &[f64], hi: &[f64], results: &mut Vec<u64>) -> usize {
        let mut scanned = 0;
        // Push/retain below is order-sensitive across version chains, so
        // walk the groups in id order.
        let mut group_ids: Vec<NodeId> = self.versions.keys().copied().collect(); // lint:allow(D002) -- sorted next line
        group_ids.sort_unstable();
        for g in group_ids {
            let Some(vs) = self.versions.get(&g) else {
                continue;
            };
            let (effective, s) = vs.effective_changes();
            scanned += s;
            for ch in effective {
                match ch {
                    Change::Insert(f) | Change::Modify(f) => {
                        let v = f.attr_vector();
                        let inside = v
                            .iter()
                            .zip(lo.iter().zip(hi))
                            .all(|(&x, (&l, &h))| l <= x && x <= h);
                        if inside {
                            results.push(f.file_id);
                        } else {
                            results.retain(|&id| id != f.file_id);
                        }
                    }
                    Change::Delete(id) => results.retain(|&x| x != *id),
                }
            }
        }
        scanned
    }

    fn apply_versions_to_topk(&self, point: &[f64], k: usize, best: &mut Vec<(u64, f64)>) -> usize {
        let mut scanned = 0;
        // Retain/push below is order-sensitive across version chains, so
        // walk the groups in id order.
        let mut group_ids: Vec<NodeId> = self.versions.keys().copied().collect(); // lint:allow(D002) -- sorted next line
        group_ids.sort_unstable();
        for g in group_ids {
            let Some(vs) = self.versions.get(&g) else {
                continue;
            };
            let (effective, s) = vs.effective_changes();
            scanned += s;
            for ch in effective {
                match ch {
                    Change::Insert(f) | Change::Modify(f) => {
                        let d = f
                            .attr_vector()
                            .iter()
                            .zip(point)
                            .map(|(&a, &q)| (a - q) * (a - q))
                            .sum::<f64>();
                        best.retain(|&(id, _)| id != f.file_id);
                        best.push((f.file_id, d));
                    }
                    Change::Delete(id) => best.retain(|&(x, _)| x != *id),
                }
            }
        }
        best.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        best.truncate(k);
        scanned
    }

    /// Inserts a whole storage unit into the running system (§3.2.1).
    pub fn add_unit(&mut self, files: Vec<FileMetadata>) -> usize {
        let id = self.units.len();
        for f in &files {
            self.owner.insert(f.file_id, id);
        }
        let unit = StorageUnit::with_family(
            id,
            self.cfg.bloom_bits,
            self.cfg.bloom_hashes,
            self.cfg.bloom_family,
            files,
        );
        self.tree.insert_unit(&unit);
        self.units.push(unit);
        // Group membership may have changed: make sure every group has a
        // version chain.
        for g in self.tree.first_level_index_units() {
            self.versions
                .entry(g)
                .or_insert_with(|| VersionStore::new(self.cfg.version_ratio));
        }
        id
    }

    /// Random home unit for a query (the paper's entry point, §2.2).
    pub fn random_home(&mut self) -> usize {
        self.rng.gen_range(0..self.units.len())
    }
}
