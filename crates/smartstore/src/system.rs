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
//! simulated latencies, message counts and group hops (§5) are rebuilt
//! and priced by `smartstore-bench` from the system's public state,
//! never here.

use crate::config::SmartStoreConfig;
use crate::grouping::partition_tiled_flat;
use crate::mapping::{map_index_units, IndexMapping};
use crate::names::{first_in_store_order, NameIndex};
use crate::routing::RouteTrace;
use crate::tree::{NodeId, SemanticRTree};
use crate::unit::StorageUnit;
use crate::versioning::{Change, VersionStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
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
/// serialization. The `owner` map and the name index are intentionally
/// absent: they are always exactly "file → unit that stores it" and
/// "name → the units and ids holding it", and are rebuilt from the
/// units.
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
    /// Seed for re-deriving the post-restore RNG stream (index-unit
    /// remapping only — never query answers).
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
    /// filename → the `(unit, file id)` pairs holding it; answers point
    /// lookups. Maintained beside `owner`.
    names: NameIndex,
    /// Per-group version chains (keyed by first-level index node id).
    versions: HashMap<NodeId, VersionStore>,
    /// Changes since the last lazy replica update, per group.
    pending: HashMap<NodeId, usize>,
    versioning_enabled: bool,
    /// Messages spent on replica maintenance (lazy updates, version
    /// multicasts) — background traffic, reported separately.
    pub maintenance_messages: u64,
    rng: StdRng,
    /// The image this system was reassembled from held one file id in
    /// two units. `owner` gives such an id to the highest unit, where
    /// the live system gave it to its newest insert, so a replay onto
    /// this image is not known to retrace the live history and
    /// [`Self::replay_journal`] elides no refresh.
    image_duplicates: bool,
}

/// What [`SmartStoreSystem::replay_journal`] did with the lazy refreshes
/// (§3.4) its changes triggered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Refreshes that recomputed their group's summaries: the last one
    /// of each group in the batch.
    pub refreshes_computed: usize,
    /// Refreshes that did only their bookkeeping, because a later
    /// refresh of the same group in the batch overwrites their work.
    pub refreshes_elided: usize,
}

/// A journaled change whose group tag this system cannot honour: the
/// tag names no first-level group of the tree, or it places an insert
/// in a group with no units. The root, which tags a no-op, passes on a
/// delete or modify.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadTag {
    /// Position of the change in the replayed batch.
    pub index: usize,
    /// The tag it carried.
    pub group: NodeId,
    /// What is wrong with the tag.
    pub reason: &'static str,
}

/// Per group, the batch position of the last change of a replayed
/// batch that triggers the group's lazy refresh.
type LastRefreshes = HashMap<NodeId, usize>;

/// What one applied change did about its group's lazy refresh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Refresh {
    /// The group's pending changes stayed under the threshold.
    NotDue,
    /// The refresh recomputed the group's summaries.
    Computed,
    /// The refresh did only its bookkeeping.
    Elided,
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
        let names = NameIndex::build(&units);
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
            names,
            versions,
            pending: HashMap::new(),
            versioning_enabled: true,
            maintenance_messages: 0,
            rng,
            image_duplicates: false,
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
    /// RNG stream (future remappings) restarts.
    pub fn from_parts(parts: SystemParts) -> Self {
        let mut owner = HashMap::with_capacity(parts.units.iter().map(StorageUnit::len).sum());
        let mut image_duplicates = false;
        for u in &parts.units {
            for &id in u.file_ids() {
                image_duplicates |= owner.insert(id, u.id).is_some();
            }
        }
        let names = NameIndex::build(&parts.units);
        let tree = SemanticRTree::from_parts(parts.tree, &parts.cfg);
        Self {
            cfg: parts.cfg,
            units: parts.units,
            tree,
            mapping: parts.mapping,
            owner,
            names,
            versions: parts.versions.into_iter().collect(), // lint:allow(D002) -- parts.versions/pending are Vecs, not the maps of the same name
            pending: parts.pending.into_iter().collect(),
            versioning_enabled: parts.versioning_enabled,
            maintenance_messages: parts.maintenance_messages,
            rng: StdRng::seed_from_u64(parts.reseed),
            image_duplicates,
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
        let mut trace = RouteTrace {
            units_routed: route.target_units.len(),
            ..RouteTrace::default()
        };
        let mut results = Vec::new();
        for &u in &route.target_units {
            trace.add_unit(self.units[u].range_into(lo, hi, &mut results));
        }
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
        let (order, _) = self.tree.route_topk(point);
        let mut trace = RouteTrace {
            units_routed: order.len(),
            ..RouteTrace::default()
        };
        // One bounded heap for the whole query, lent to every unit,
        // which offers its rows straight to it; its k-th best is the
        // MaxD bound both between units and inside each one. total_cmp
        // ordering — identical order for the non-negative squared
        // distances that arise here, and no panic path on a NaN.
        let mut top = crate::unit::TopK::new(k);
        for &(u, lower_bound) in &order {
            if lower_bound > top.max_d() {
                break; // MaxD pruning: no better result can exist here.
            }
            trace.add_unit(self.units[u].topk_into(point, &mut top));
        }
        let mut best = top.into_sorted();
        if self.versioning_enabled {
            trace.version_chains = self.versions.len();
            trace.version_records = self.apply_versions_to_topk(point, k, &mut best);
        }
        let outcome = QueryOutcome {
            file_ids: best.iter().map(|&(id, _)| id).collect(),
            trace,
        };
        (best, outcome)
    }

    /// Point-query evaluation (see [`crate::query::QueryEngine::point`]).
    ///
    /// The name index says which units hold the name, and only those
    /// are asked. A holding unit answers exactly when the paper's Bloom
    /// descent (§3.3.3, [`SemanticRTree::route_point`]) would reach it
    /// and its own filter would pass: every filter from its leaf to the
    /// root holds the name ([`SemanticRTree::reaches`]), and so does the
    /// unit's. Stale summaries (§3.4) therefore hide a fresh name just
    /// as they hide it from the descent, and the version chains find it.
    /// The trace counts what this path touched: the filters on the
    /// holders' paths and the holding units reached.
    pub(crate) fn eval_point(&self, name: &str) -> QueryOutcome {
        let mut trace = RouteTrace::default();
        let mut results = Vec::new();
        let holders = self.names.holders(name);
        if !holders.is_empty() {
            // The name is hashed here, once; every filter on the
            // holders' paths probes with the same prepared key.
            let key = self.tree.prepare_point(name);
            for run in holders.chunk_by(|a, b| a.unit == b.unit) {
                let u = run[0].unit;
                let (reached, probed) = self.tree.reaches(u, &key);
                trace.filters_probed += probed;
                if !reached {
                    continue;
                }
                trace.units_routed += 1;
                trace.units_probed += 1;
                let unit = &self.units[u];
                if unit.bloom().contains_prepared(&key) {
                    results.extend(first_in_store_order(unit, name, run));
                }
            }
        }
        if self.versioning_enabled && results.is_empty() {
            // Staleness recovery: a file created after the last replica
            // refresh is found in the version chains. Each chain's
            // effective walk is read in place, nothing collected; the
            // trace charges every record the walk crosses.
            trace.version_chains = self.versions.len();
            // lint:allow(D002) -- results are sorted and deduped below
            for vs in self.versions.values() {
                trace.version_records += vs.change_count();
                for (ch, _) in vs.effective() {
                    if let Change::Insert(f) | Change::Modify(f) = ch {
                        if f.name == name {
                            results.push(f.file_id);
                        }
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

    /// The units holding a file named `name`, ascending — whether or not
    /// their (possibly stale) filters know it yet.
    pub fn units_holding(&self, name: &str) -> Vec<usize> {
        self.names
            .holders(name)
            .chunk_by(|a, b| a.unit == b.unit)
            .map(|run| run[0].unit)
            .collect()
    }

    /// Verifies the name index against a rebuild from the units
    /// (test/diagnostic hook, beside
    /// [`StorageUnit::check_columnar_coherence`]).
    pub fn check_name_index(&self) -> Result<(), String> {
        self.names.check(&self.units)
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
                self.least_loaded_unit(self.tree.most_correlated_group(&f.attr_vector()))
            }
            Change::Delete(id) => self.owner.get(id).copied(),
            Change::Modify(f) => self.owner.get(&f.file_id).copied(),
        }
    }

    /// The unit of `group` an insert lands in: its least-loaded one
    /// (the lowest id among equals). `None` for a group with no units.
    fn least_loaded_unit(&self, group: NodeId) -> Option<usize> {
        self.tree
            .descendant_units(group)
            .into_iter()
            .min_by_key(|&u| self.units[u].len())
    }

    /// Files held by the units below `group`.
    fn group_files(&self, group: NodeId) -> usize {
        self.tree
            .descendant_units(group)
            .iter()
            .map(|&u| self.units[u].len())
            .sum()
    }

    /// The lazy-update rule (§3.4): a group whose `pending` changes
    /// exceed `lazy_update_threshold` × its file count refreshes.
    fn refresh_due(&self, pending: usize, group_files: usize) -> bool {
        (pending as f64) > self.cfg.lazy_update_threshold * group_files.max(1) as f64
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
                Ok(Some(self.apply_change_at(change, unit, false).0))
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
        Some(self.apply_change_at(change, unit, false).0)
    }

    /// Replays a batch of journaled changes, each with the group tag
    /// [`Self::try_apply_change_journaled`] gave it, onto the state they
    /// were journaled against: the recovery path of a write-ahead log.
    ///
    /// The result is the state the live system reached, byte for byte,
    /// at less cost than applying the changes one by one:
    /// * an insert lands in the least-loaded unit of its *tagged* group,
    ///   the unit live placement chose, so placement never reads the
    ///   (possibly stale) centroids the live system read;
    /// * a delete or modify goes to the file's owner, as live;
    /// * each group's lazy refresh runs in full only at the last change
    ///   of the batch that triggers it. An earlier trigger does only its
    ///   bookkeeping (the pending counter, the maintenance messages, the
    ///   chain clear), and a change whose record a later clear drops is
    ///   never recorded.
    ///
    /// Eliding is exact because, past a refresh, a unit's zone order,
    /// zone boxes, Bloom filter, centroid and MBR are functions of its
    /// records alone, a tree node's summaries are functions of its
    /// children's, and a chain clear empties the whole chain; with
    /// placement fixed by the tag, nothing reads what an elided refresh
    /// would have left different. When the image held a duplicated file
    /// id, `owner` may not match the live one and no refresh is elided.
    ///
    /// Every tag is checked before anything mutates; a bad one fails
    /// the whole batch with the state untouched.
    pub fn replay_journal(&mut self, batch: Vec<(NodeId, Change)>) -> Result<ReplayStats, BadTag> {
        let mut last = self.last_refreshes(&batch)?;
        if self.image_duplicates {
            last.clear();
        }
        let mut stats = ReplayStats::default();
        for (i, (tag, change)) in batch.into_iter().enumerate() {
            let Some(unit) = self.unit_of_tagged(tag, &change) else {
                continue;
            };
            let group = self.group_of_unit(unit);
            let later = last.get(&group).is_some_and(|&j| j > i);
            match self.apply_change_at(change, unit, later).1 {
                Refresh::NotDue => {}
                Refresh::Computed => stats.refreshes_computed += 1,
                Refresh::Elided => stats.refreshes_elided += 1,
            }
        }
        debug_assert!(
            self.image_duplicates || stats.refreshes_computed == last.len(),
            "the lookahead mispredicted a group's last refresh"
        );
        Ok(stats)
    }

    /// The unit a replayed change lands in: for an insert, the
    /// least-loaded unit of its tagged group; for a delete or modify,
    /// the owner. `None` for a no-op.
    fn unit_of_tagged(&self, tag: NodeId, change: &Change) -> Option<usize> {
        match change {
            Change::Insert(_) => self.least_loaded_unit(tag),
            Change::Delete(_) | Change::Modify(_) => self.unit_of_change(change),
        }
    }

    /// The lookahead of [`Self::replay_journal`]: checks every tag and
    /// returns, per group, the batch position of the last change that
    /// triggers its lazy refresh. It follows the file counts and
    /// pending counters the batch will produce, and which ids it will
    /// hold (an overlay over `owner`), without mutating anything.
    fn last_refreshes(&self, batch: &[(NodeId, Change)]) -> Result<LastRefreshes, BadTag> {
        let groups = self.tree.first_level_index_units();
        let unitless: Vec<NodeId> = groups
            .iter()
            .copied()
            .filter(|&g| self.tree.descendant_units(g).is_empty())
            .collect();
        let mut group_sizes: HashMap<NodeId, usize> =
            groups.iter().map(|&g| (g, self.group_files(g))).collect();
        let mut pending = self.pending.clone();
        // File id → the group holding it, `None` once deleted; ids the
        // batch has not touched fall through to `owner`.
        let mut held: HashMap<u64, Option<NodeId>> = HashMap::new();
        let mut last = HashMap::new();
        for (i, (tag, change)) in batch.iter().enumerate() {
            let bad = |reason| BadTag {
                index: i,
                group: *tag,
                reason,
            };
            // The root tags a change the live system found to be a
            // no-op, which an insert never is unless a group has no unit.
            let first_level = groups.binary_search(tag).is_ok();
            let noop_tag = *tag == self.tree.root() && !matches!(change, Change::Insert(_));
            if !first_level && !noop_tag {
                return Err(bad("names no first-level group"));
            }
            let holder = |id: u64| match held.get(&id) {
                Some(&g) => g,
                None => self.owner.get(&id).map(|&u| self.group_of_unit(u)),
            };
            let group = match change {
                Change::Insert(_) if unitless.contains(tag) => {
                    return Err(bad("places an insert in a group with no units"));
                }
                Change::Insert(f) => {
                    *group_sizes.entry(*tag).or_insert(0) += 1;
                    held.insert(f.file_id, Some(*tag));
                    Some(*tag)
                }
                Change::Delete(id) => {
                    let g = holder(*id);
                    if let Some(g) = g {
                        held.insert(*id, None);
                        let count = group_sizes.entry(g).or_insert_with(|| self.group_files(g));
                        *count = count.saturating_sub(1);
                    }
                    g
                }
                Change::Modify(f) => holder(f.file_id),
            };
            let Some(group) = group else {
                continue;
            };
            let count = *group_sizes
                .entry(group)
                .or_insert_with(|| self.group_files(group));
            let p = pending.entry(group).or_insert(0);
            *p += 1;
            if self.refresh_due(*p, count) {
                *p = 0;
                last.insert(group, i);
            }
        }
        Ok(last)
    }

    /// Applies a change whose target `unit` has already been resolved,
    /// and runs its group's lazy refresh when the change makes one due.
    /// `later` says that a later change of a replayed batch refreshes
    /// the same group (see [`Self::replay_journal`]): the change is then
    /// not recorded in the chain that refresh clears, and a refresh due
    /// here is elided. Live writes pass `false`.
    fn apply_change_at(&mut self, change: Change, unit: usize, later: bool) -> (NodeId, Refresh) {
        match &change {
            Change::Insert(f) => {
                self.owner.insert(f.file_id, unit);
                self.names.insert(&f.name, unit, f.file_id);
                self.units[unit].insert_file_raw(f.clone());
            }
            Change::Delete(id) => {
                self.owner.remove(id);
                if let Some(old) = self.units[unit].remove_file_raw(*id) {
                    self.names.remove(&old.name, unit, *id);
                }
            }
            Change::Modify(f) => match self.units[unit].modify_file_raw(f.clone()) {
                Some(old) if old.name == f.name => {}
                Some(old) => {
                    self.names.remove(&old.name, unit, f.file_id);
                    self.names.insert(&f.name, unit, f.file_id);
                }
                None => self.names.insert(&f.name, unit, f.file_id),
            },
        }
        let group = self.group_of_unit(unit);
        // Lazy update accounting (§3.4): once a group accumulates more
        // than `lazy_update_threshold` × its file count of changes, its
        // units re-publish summaries and the index refreshes.
        let counter = self.pending.entry(group).or_insert(0);
        *counter += 1;
        let counted = *counter;
        let due = self.refresh_due(counted, self.group_files(group));
        if self.versioning_enabled {
            let chain = self
                .versions
                .entry(group)
                .or_insert_with(|| VersionStore::new(self.cfg.version_ratio));
            // A refresh due here or later clears the chain, dropping
            // the record unread.
            if !(due || later) {
                chain.record(change);
            }
        }
        if !due {
            return (group, Refresh::NotDue);
        }
        self.pending.insert(group, 0);
        self.lazy_refresh_group(group, !later);
        let refresh = if later {
            Refresh::Elided
        } else {
            Refresh::Computed
        };
        (group, refresh)
    }

    /// A group's lazy refresh: re-synchronizes all its leaf summaries
    /// when `recompute` is set, multicasts the fresh replica and folds
    /// its version chain (counted as maintenance traffic). Without
    /// `recompute` only that bookkeeping runs: the replay of a batch in
    /// which a later refresh of the group overwrites the summaries.
    fn lazy_refresh_group(&mut self, group: NodeId, recompute: bool) {
        if recompute {
            for u in self.tree.descendant_units(group) {
                self.units[u].recompute_summaries();
                self.tree.update_leaf_summary(&self.units[u]);
            }
        }
        // Replica multicast to every storage unit (§3.4).
        self.maintenance_messages += self.units.len() as u64;
        // Version chains covered by the refreshed index are folded in:
        // the units already hold every change, so the chain is dropped,
        // not replayed.
        if let Some(vs) = self.versions.get_mut(&group) {
            vs.clear();
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
                self.names.remove(&f.name, u, f.file_id);
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

    /// The version chains in ascending group id. Each overlay applies
    /// one chain as one batch, which is exact because a chain's
    /// effective records have distinct file ids (its drops and adds
    /// commute); across chains the order still matters, since the last
    /// chain to touch an id decides it.
    fn chains_in_group_order(&self) -> Vec<&VersionStore> {
        let mut group_ids: Vec<NodeId> = self.versions.keys().copied().collect(); // lint:allow(D002) -- sorted next line
        group_ids.sort_unstable();
        group_ids
            .iter()
            .filter_map(|g| self.versions.get(g))
            .collect()
    }

    /// Range overlay (§4.4): per chain, one `retain` of `results`
    /// against the sorted ids the chain deletes or moves out of the box,
    /// then the ids it upserts inside the box. `results` is left
    /// unsorted with possible duplicates; the caller sorts and dedups.
    /// Returns the chain records crossed.
    fn apply_versions_to_range(&self, lo: &[f64], hi: &[f64], results: &mut Vec<u64>) -> usize {
        let mut scanned = 0;
        let (mut drop, mut add) = (Vec::new(), Vec::new());
        for vs in self.chains_in_group_order() {
            scanned += vs.change_count();
            drop.clear();
            add.clear();
            for (ch, row) in vs.effective() {
                match ch {
                    Change::Insert(f) | Change::Modify(f) => {
                        let inside = row
                            .iter()
                            .zip(lo.iter().zip(hi))
                            .all(|(&x, (&l, &h))| l <= x && x <= h);
                        if inside {
                            add.push(f.file_id);
                        } else {
                            drop.push(f.file_id);
                        }
                    }
                    Change::Delete(id) => drop.push(*id),
                }
            }
            if !drop.is_empty() {
                drop.sort_unstable();
                results.retain(|id| drop.binary_search(id).is_err());
            }
            results.extend_from_slice(&add);
        }
        scanned
    }

    /// Top-k overlay (§4.4): per chain, drop every id the chain touches,
    /// then push its upserts with their squared distances; finally keep
    /// the `k` smallest by `(distance, id)`, sorted. Returns the chain
    /// records crossed.
    fn apply_versions_to_topk(&self, point: &[f64], k: usize, best: &mut Vec<(u64, f64)>) -> usize {
        let mut scanned = 0;
        let (mut touched, mut add) = (Vec::new(), Vec::new());
        for vs in self.chains_in_group_order() {
            scanned += vs.change_count();
            touched.clear();
            add.clear();
            for (ch, row) in vs.effective() {
                touched.push(ch.file_id());
                if let Change::Insert(f) | Change::Modify(f) = ch {
                    let d = row
                        .iter()
                        .zip(point)
                        .map(|(&a, &q)| (a - q) * (a - q))
                        .sum::<f64>();
                    add.push((f.file_id, d));
                }
            }
            if !touched.is_empty() {
                touched.sort_unstable();
                best.retain(|(id, _)| touched.binary_search(id).is_err());
            }
            best.extend_from_slice(&add);
        }
        // Entries that compare equal by `(distance, id)` under
        // `total_cmp` are bit-identical, so selecting the k smallest
        // before sorting leaves the same k in the same order as sorting
        // everything, without sorting every upsert.
        let order = |a: &(u64, f64), b: &(u64, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
        if best.len() > k {
            best.select_nth_unstable_by(k, order);
            best.truncate(k);
        }
        best.sort_by(order);
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
        self.names.add_unit(&unit);
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
}
