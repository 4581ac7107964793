//! The semantic R-tree (§2.1, §3.1.2, §3.2, §4.1).
//!
//! "A semantic R-tree … consists of index units (i.e., non-leaf nodes)
//! containing location and mapping information and storage units (i.e.,
//! leaf nodes) containing file metadata." Every node carries:
//!
//! * an **MBR** over the attribute space of all metadata below it,
//! * a **semantic centroid** (the geometric centroid of §3.1.1) used by
//!   LSI correlation routing,
//! * a **Bloom filter** that is the union of its children's filters
//!   (§3.3.3, Fig. 4).
//!
//! Construction is bottom-up from the grouping hierarchy; reconfiguration
//! (unit insertion §3.2.1, deletion §3.2.2, node split/merge §4.1)
//! follows the classical R-tree algorithms adapted to semantic
//! correlation.

use crate::config::SmartStoreConfig;
use crate::grouping::{build_hierarchy, GroupingHierarchy};
use crate::unit::StorageUnit;
use smartstore_bloom::{BloomFilter, PreparedKey};
use smartstore_linalg::cosine_similarity;
use smartstore_rtree::Rect;

/// Index of a node in the tree arena.
pub type NodeId = usize;

/// The summarized state of one storage unit, sufficient to build a
/// semantic R-tree over it (possibly in a projected attribute subspace).
#[derive(Clone, Debug)]
pub struct UnitSummary {
    /// Storage-unit id.
    pub id: usize,
    /// Semantic centroid (full or subset-projected).
    pub centroid: Vec<f64>,
    /// MBR in the same space as `centroid`.
    pub mbr: Option<Rect>,
    /// Filename Bloom filter.
    pub bloom: BloomFilter,
}

/// One semantic R-tree node.
#[derive(Clone, Debug)]
pub struct SemanticNode {
    /// Arena id.
    pub id: NodeId,
    /// 0 for leaves (storage units); parents of leaves — the paper's
    /// "first-level index units" — are level 1.
    pub level: u32,
    /// MBR over all metadata below this node (`None` only for an empty
    /// leaf).
    pub mbr: Option<Rect>,
    /// Semantic centroid (weighted mean of descendant unit centroids).
    pub centroid: Vec<f64>,
    /// Union Bloom filter over descendant filenames.
    pub bloom: BloomFilter,
    /// Children node ids (empty for leaves).
    pub children: Vec<NodeId>,
    /// Parent node id (`None` for the root).
    pub parent: Option<NodeId>,
    /// Storage-unit id when this is a leaf.
    pub unit: Option<usize>,
    /// Number of storage units below this node (1 for leaves).
    pub leaf_count: usize,
}

/// Structural statistics for the space-overhead experiment (Fig. 7).
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeStats {
    /// All nodes (leaves + index units).
    pub node_count: usize,
    /// Non-leaf nodes ("index units").
    pub index_units: usize,
    /// Tree height (1 = single leaf).
    pub height: usize,
}

/// Result of routing a query through the tree.
#[derive(Clone, Debug, Default)]
pub struct Route {
    /// Storage-unit ids that must evaluate the query, in visit order.
    pub target_units: Vec<usize>,
    /// Tree nodes examined while routing.
    pub nodes_visited: usize,
    /// Bloom filters probed (point queries).
    pub filters_probed: usize,
}

/// The semantic R-tree over a set of storage units.
#[derive(Clone, Debug)]
pub struct SemanticRTree {
    nodes: Vec<SemanticNode>,
    root: NodeId,
    cfg: SmartStoreConfig,
    free: Vec<NodeId>,
    /// Storage-unit id → the live leaf hosting it. Derived from `nodes`
    /// and `free` (rebuilt by [`Self::from_parts`], never persisted);
    /// only [`Self::insert_unit`] and [`Self::remove_unit`] move a unit
    /// in or out of a leaf — split and merge re-parent leaves without
    /// re-housing units. Indexed by unit id: ids are small and dense,
    /// they index `SmartStoreSystem::units`.
    leaf_of: Vec<Option<NodeId>>,
}

/// A `Vec<NodeId>` that lives on the stack up to `N` entries and moves
/// to the heap beyond: the descent stack of a point query stays
/// allocation-free at any realistic fan-out × height, and a deeper tree
/// costs an allocation, never a panic.
enum SpillVec<const N: usize> {
    Inline { buf: [NodeId; N], len: usize },
    Heap(Vec<NodeId>),
}

impl<const N: usize> SpillVec<N> {
    fn new() -> Self {
        SpillVec::Inline {
            buf: [0; N],
            len: 0,
        }
    }

    fn push(&mut self, id: NodeId) {
        match self {
            SpillVec::Inline { buf, len } if *len < N => {
                buf[*len] = id;
                *len += 1;
            }
            SpillVec::Inline { buf, .. } => {
                let mut spilled = Vec::with_capacity(2 * N);
                spilled.extend_from_slice(buf);
                spilled.push(id);
                *self = SpillVec::Heap(spilled);
            }
            SpillVec::Heap(v) => v.push(id),
        }
    }

    fn pop(&mut self) -> Option<NodeId> {
        match self {
            SpillVec::Inline { len: 0, .. } => None,
            SpillVec::Inline { buf, len } => {
                *len -= 1;
                Some(buf[*len])
            }
            SpillVec::Heap(v) => v.pop(),
        }
    }
}

/// Builds the unit → leaf table from an arena: the lowest-numbered live
/// leaf of each unit.
fn index_leaves(nodes: &[SemanticNode], free: &[NodeId]) -> Vec<Option<NodeId>> {
    let mut live = vec![true; nodes.len()];
    for &f in free {
        if let Some(slot) = live.get_mut(f) {
            *slot = false;
        }
    }
    let mut leaf_of = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        let Some(unit) = node.unit.filter(|_| live[id]) else {
            continue;
        };
        if leaf_of.len() <= unit {
            leaf_of.resize(unit + 1, None);
        }
        leaf_of[unit].get_or_insert(id);
    }
    leaf_of
}

/// The raw structural state of a [`SemanticRTree`] — everything needed
/// to reassemble it byte-for-byte (the configuration travels
/// separately). Used by the persistence layer.
#[derive(Clone, Debug)]
pub struct TreeParts {
    /// The node arena, including freed slots.
    pub nodes: Vec<SemanticNode>,
    /// Root node id.
    pub root: NodeId,
    /// Free-list of recycled arena slots.
    pub free: Vec<NodeId>,
}

impl SemanticRTree {
    /// Builds the tree bottom-up from storage units using LSI grouping
    /// (§3.1.2): units whose correlation exceeds ε₁ aggregate into
    /// first-level index units, recursively until a single root.
    pub fn build(units: &[StorageUnit], cfg: &SmartStoreConfig) -> Self {
        assert!(!units.is_empty(), "SemanticRTree::build: no storage units");
        let summaries: Vec<UnitSummary> = units
            .iter()
            .map(|u| UnitSummary {
                id: u.id,
                centroid: u.centroid().to_vec(),
                mbr: u.mbr().cloned(),
                bloom: u.bloom().clone(),
            })
            .collect();
        Self::build_from_summaries(&summaries, cfg)
    }

    /// Builds from bare unit summaries — used by the automatic
    /// configuration (§2.4) to construct trees over attribute *subsets*
    /// where each unit's centroid/MBR is a projection.
    pub fn build_from_summaries(units: &[UnitSummary], cfg: &SmartStoreConfig) -> Self {
        assert!(!units.is_empty(), "SemanticRTree: no unit summaries");
        let vectors: Vec<Vec<f64>> = units.iter().map(|u| u.centroid.clone()).collect();
        let hierarchy = build_hierarchy(
            &vectors,
            |lvl| cfg.threshold_for_level(lvl),
            cfg.lsi_rank,
            cfg.rtree.max_entries,
        );
        Self::from_hierarchy(units, &hierarchy, cfg)
    }

    /// Assembles the node arena from a precomputed grouping hierarchy.
    fn from_hierarchy(
        units: &[UnitSummary],
        hierarchy: &GroupingHierarchy,
        cfg: &SmartStoreConfig,
    ) -> Self {
        let mut nodes: Vec<SemanticNode> = Vec::new();
        // Leaves first.
        let mut prev_level_ids: Vec<NodeId> = units
            .iter()
            .map(|u| {
                let id = nodes.len();
                nodes.push(SemanticNode {
                    id,
                    level: 0,
                    mbr: u.mbr.clone(),
                    centroid: u.centroid.clone(),
                    bloom: u.bloom.clone(),
                    children: Vec::new(),
                    parent: None,
                    unit: Some(u.id),
                    leaf_count: 1,
                });
                id
            })
            .collect();

        // A single unit is its own root: no level is stacked on it.
        let levels = if units.len() == 1 {
            &[][..]
        } else {
            &hierarchy.levels[..]
        };
        for (lvl_idx, level) in levels.iter().enumerate() {
            let level_no = lvl_idx as u32 + 1;
            let mut this_level_ids = Vec::with_capacity(level.groups.len());
            for group in &level.groups {
                let child_ids: Vec<NodeId> = group.iter().map(|&g| prev_level_ids[g]).collect();
                let id = nodes.len();
                let (mbr, centroid, bloom, leaf_count) =
                    summarize_children(&nodes, &child_ids, cfg);
                for &c in &child_ids {
                    nodes[c].parent = Some(id);
                }
                nodes.push(SemanticNode {
                    id,
                    level: level_no,
                    mbr,
                    centroid,
                    bloom,
                    children: child_ids,
                    parent: None,
                    unit: None,
                    leaf_count,
                });
                this_level_ids.push(id);
            }
            prev_level_ids = this_level_ids;
        }
        debug_assert_eq!(prev_level_ids.len(), 1, "hierarchy must end in one root");
        Self::from_parts(
            TreeParts {
                nodes,
                root: prev_level_ids[0],
                free: Vec::new(),
            },
            cfg,
        )
    }

    /// Exports the tree's structural state for serialization.
    pub fn to_parts(&self) -> TreeParts {
        TreeParts {
            nodes: self.nodes.clone(),
            root: self.root,
            free: self.free.clone(),
        }
    }

    /// Reassembles a tree from exported parts and a configuration —
    /// the exact inverse of [`Self::to_parts`].
    ///
    /// # Panics
    /// If `parts.root` is out of range.
    pub fn from_parts(parts: TreeParts, cfg: &SmartStoreConfig) -> Self {
        assert!(
            parts.root < parts.nodes.len(),
            "from_parts: root out of range"
        );
        Self {
            leaf_of: index_leaves(&parts.nodes, &parts.free),
            nodes: parts.nodes,
            root: parts.root,
            cfg: cfg.clone(),
            free: parts.free,
        }
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &SemanticNode {
        &self.nodes[id]
    }

    /// The leaf node hosting storage unit `unit_id`, if present.
    pub fn leaf_of_unit(&self, unit_id: usize) -> Option<NodeId> {
        self.leaf_of.get(unit_id).copied().flatten()
    }

    /// Ids of the first-level index units (parents of leaves) — the
    /// granularity of "groups" in Figs. 8 & 13 and of version replicas.
    pub fn first_level_index_units(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .live_node_ids()
            .filter(|&id| self.nodes[id].level == 1)
            .collect();
        // Degenerate case: the root itself is a leaf.
        if out.is_empty() && self.nodes[self.root].level == 0 {
            out.push(self.root);
        }
        out.sort_unstable();
        out
    }

    /// The first-level index unit above a leaf (or the leaf itself in a
    /// single-node tree).
    pub fn group_of_leaf(&self, leaf: NodeId) -> NodeId {
        let mut n = leaf;
        while let Some(p) = self.nodes[n].parent {
            if self.nodes[n].level == 1 {
                break;
            }
            if self.nodes[p].level == 1 {
                return p;
            }
            n = p;
        }
        n
    }

    /// Iterates over live (non-freed) node ids.
    fn live_node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).filter(move |id| !self.free.contains(id))
    }

    /// Storage-unit ids of all leaves below `node` (inclusive for leaf
    /// nodes).
    pub fn descendant_units(&self, node: NodeId) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            let nd = &self.nodes[n];
            if nd.level == 0 {
                if let Some(u) = nd.unit {
                    out.push(u);
                }
            } else {
                stack.extend(nd.children.iter().copied());
            }
        }
        out.sort_unstable();
        out
    }

    /// All live index-unit node ids at a given level (level ≥ 1).
    pub fn index_units_at_level(&self, level: u32) -> Vec<NodeId> {
        assert!(level >= 1, "index units start at level 1");
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let nd = &self.nodes[n];
            if nd.level == level {
                out.push(n);
            } else if nd.level > level {
                stack.extend(nd.children.iter().copied());
            }
        }
        out.sort_unstable();
        out
    }

    /// Height of the tree (root level + 1).
    pub fn height(&self) -> usize {
        self.nodes[self.root].level as usize + 1
    }

    /// Tree statistics.
    pub fn stats(&self) -> TreeStats {
        let mut node_count = 0;
        let mut index_units = 0;
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            node_count += 1;
            if self.nodes[n].level > 0 {
                index_units += 1;
                stack.extend(self.nodes[n].children.iter().copied());
            }
        }
        TreeStats {
            node_count,
            index_units,
            height: self.nodes[self.root].level as usize + 1,
        }
    }

    /// Per-node index bytes (MBR + centroid + Bloom filter) summed over
    /// index units — the decentralized structure charged in Fig. 7.
    pub fn index_size_bytes(&self) -> usize {
        let d = self.nodes.get(self.root).map_or(0, |n| n.centroid.len());
        let per_node = d * 8 * 3 + self.cfg.bloom_bits / 8;
        self.stats().index_units * per_node
    }

    // ------------------------------------------------------------------
    // Query routing
    // ------------------------------------------------------------------

    /// Routes a range query: descend from the root, following children
    /// whose MBR intersects the query box (§3.3.1). Returns every
    /// qualifying storage unit.
    pub fn route_range(&self, lo: &[f64], hi: &[f64]) -> Route {
        let q = Rect::new(lo.to_vec(), hi.to_vec());
        let mut route = Route::default();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            route.nodes_visited += 1;
            let node = &self.nodes[n];
            let intersects = node.mbr.as_ref().is_some_and(|m| m.intersects(&q));
            if !intersects {
                continue;
            }
            if node.level == 0 {
                if let Some(unit) = node.unit {
                    route.target_units.push(unit);
                }
            } else {
                stack.extend(node.children.iter().copied());
            }
        }
        route
    }

    /// Routes a top-k query with the paper's MaxD pruning (§3.3.2):
    /// best-first over MBR min-distances; a node is expanded only while
    /// it could still beat the current k-th best distance, which callers
    /// update via the returned candidate order. Routing alone cannot
    /// know file distances, so this returns units in best-first order
    /// with their MBR lower bounds; the system layer evaluates units in
    /// that order and stops when the next lower bound exceeds MaxD.
    pub fn route_topk(&self, point: &[f64]) -> (Vec<(usize, f64)>, usize) {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;
        struct Cand {
            dist: f64,
            node: NodeId,
        }
        impl PartialEq for Cand {
            fn eq(&self, o: &Self) -> bool {
                self.dist == o.dist
            }
        }
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, o: &Self) -> Ordering {
                o.dist.total_cmp(&self.dist)
            }
        }
        let mut visited = 0;
        let mut order: Vec<(usize, f64)> = Vec::new();
        let mut heap = BinaryHeap::new();
        heap.push(Cand {
            dist: 0.0,
            node: self.root,
        });
        while let Some(Cand { dist, node }) = heap.pop() {
            visited += 1;
            let n = &self.nodes[node];
            if n.level == 0 {
                if let Some(u) = n.unit {
                    order.push((u, dist));
                }
                continue;
            }
            for &c in &n.children {
                let d = match &self.nodes[c].mbr {
                    Some(m) => m.min_sq_dist(point),
                    None => f64::INFINITY,
                };
                heap.push(Cand { dist: d, node: c });
            }
        }
        (order, visited)
    }

    /// Routes a filename point query down Bloom-filter positive paths
    /// (§3.3.3): depth-first from the root, probing each node's filter
    /// with the name hashed once and following only the positive ones;
    /// every positive leaf's unit is a target, in visit order. This is
    /// the paper's route, which `smartstore-bench` prices; serving asks
    /// `reaches` of the units that hold the name instead.
    pub fn route_point(&self, name: &str) -> Route {
        let key = self.prepare_point(name);
        let mut route = Route::default();
        let mut stack = SpillVec::<64>::new();
        stack.push(self.root);
        while let Some(n) = stack.pop() {
            route.nodes_visited += 1;
            route.filters_probed += 1;
            let node = &self.nodes[n];
            if !node.bloom.contains_prepared(&key) {
                continue;
            }
            if node.level == 0 {
                if let Some(unit) = node.unit {
                    route.target_units.push(unit);
                }
            } else {
                for &c in &node.children {
                    stack.push(c);
                }
            }
        }
        route
    }

    /// Hashes a filename once, in the hash family and hash count of
    /// this tree's filters.
    pub(crate) fn prepare_point<'k>(&self, name: &'k str) -> PreparedKey<'k> {
        self.nodes[self.root].bloom.prepare(name.as_bytes())
    }

    /// Whether [`Self::route_point`]'s descent reaches storage unit
    /// `unit` with `key`: every filter on the path from the unit's leaf
    /// up to the root holds the key. Walks that path leaf first and
    /// stops at the first negative filter; also returns the filters it
    /// probed. A unit with no leaf, or a leaf that does not hang under
    /// the root, is not reached — the descent would not find it either.
    pub(crate) fn reaches(&self, unit: usize, key: &PreparedKey<'_>) -> (bool, usize) {
        let mut probed = 0;
        let mut cur = self.leaf_of_unit(unit);
        while let Some(n) = cur {
            probed += 1;
            let node = &self.nodes[n];
            if !node.bloom.contains_prepared(key) {
                return (false, probed);
            }
            if node.parent.is_none() {
                return (n == self.root, probed);
            }
            cur = node.parent;
        }
        (false, probed)
    }

    /// The first-level index unit whose semantic centroid is most
    /// correlated with `vector` (the off-line pre-processing target
    /// choice, §3.4).
    pub fn most_correlated_group(&self, vector: &[f64]) -> NodeId {
        let groups = self.first_level_index_units();
        groups
            .iter()
            .max_by(|&&a, &&b| {
                let ca = cosine_similarity(&self.nodes[a].centroid, vector);
                let cb = cosine_similarity(&self.nodes[b].centroid, vector);
                ca.total_cmp(&cb)
            })
            .copied()
            .unwrap_or_else(|| self.root())
    }

    // ------------------------------------------------------------------
    // Reconfiguration (§3.2, §4.1)
    // ------------------------------------------------------------------

    /// Inserts a new storage unit (§3.2.1): starting from the most
    /// correlated group, admission is checked against the level-1
    /// threshold; on rejection the unit is forwarded to adjacent groups;
    /// if no group admits it, the most correlated group takes it anyway
    /// (threshold adjustment). Splits propagate when fan-out exceeds M.
    pub fn insert_unit(&mut self, unit: &StorageUnit) {
        let leaf = self.alloc(SemanticNode {
            id: 0, // fixed by alloc
            level: 0,
            mbr: unit.mbr().cloned(),
            centroid: unit.centroid().to_vec(),
            bloom: unit.bloom().clone(),
            children: Vec::new(),
            parent: None,
            unit: Some(unit.id),
            leaf_count: 1,
        });
        if self.leaf_of.len() <= unit.id {
            self.leaf_of.resize(unit.id + 1, None);
        }
        self.leaf_of[unit.id] = Some(leaf);

        // Degenerate tree (root is a leaf): grow a level-1 root.
        if self.nodes[self.root].level == 0 {
            let old = self.root;
            let new_root = self.alloc(SemanticNode {
                id: 0,
                level: 1,
                mbr: None,
                centroid: vec![0.0; self.nodes[old].centroid.len()],
                bloom: BloomFilter::with_family(
                    self.cfg.bloom_bits,
                    self.cfg.bloom_hashes,
                    self.cfg.bloom_family,
                ),
                children: vec![old, leaf],
                parent: None,
                unit: None,
                leaf_count: 2,
            });
            self.nodes[old].parent = Some(new_root);
            self.nodes[leaf].parent = Some(new_root);
            self.root = new_root;
            self.refresh_upward(new_root);
            return;
        }

        let groups = self.first_level_index_units();
        let eps = self.cfg.threshold_for_level(1);
        // Order groups by correlation (most correlated first = the
        // "randomly chosen then forwarded to adjacent groups" walk,
        // collapsed to its fixed point).
        let mut ranked: Vec<(NodeId, f64)> = groups
            .iter()
            .map(|&g| {
                (
                    g,
                    cosine_similarity(&self.nodes[g].centroid, &self.nodes[leaf].centroid),
                )
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let Some(admitted) = ranked
            .iter()
            .find(|&&(_, corr)| corr > eps)
            .or_else(|| ranked.first())
            .map(|&(g, _)| g)
        else {
            // No first-level groups: the leaf hangs directly off the root.
            let root = self.root;
            self.nodes[leaf].parent = Some(root);
            self.nodes[root].children.push(leaf);
            self.refresh_upward(root);
            return;
        };

        self.nodes[leaf].parent = Some(admitted);
        self.nodes[admitted].children.push(leaf);
        self.refresh_upward(admitted);
        self.split_if_needed(admitted);
    }

    /// Removes a storage unit (§3.2.2): the leaf is deleted; "if a group
    /// contains too few storage units, the remaining units of this group
    /// are merged into its sibling group", and single-child chains are
    /// collapsed with upward height adjustment.
    ///
    /// Returns `false` if the unit is not in the tree.
    pub fn remove_unit(&mut self, unit_id: usize) -> bool {
        let Some(leaf) = self.leaf_of_unit(unit_id) else {
            return false;
        };
        self.leaf_of[unit_id] = None;
        let Some(parent) = self.nodes[leaf].parent else {
            // Removing the only unit: leave an empty leaf root.
            self.nodes[leaf].mbr = None;
            self.nodes[leaf].unit = None;
            self.nodes[leaf].leaf_count = 0;
            return true;
        };
        self.nodes[parent].children.retain(|&c| c != leaf);
        self.free.push(leaf);
        self.merge_if_needed(parent);
        true
    }

    /// Splits `node` (and ancestors) while fan-out exceeds M (§4.1).
    fn split_if_needed(&mut self, node: NodeId) {
        if self.nodes[node].children.len() <= self.cfg.rtree.max_entries {
            return;
        }
        // Partition children into two sets seeded by the least
        // correlated pair (the semantic analogue of Guttman PickSeeds).
        let children = self.nodes[node].children.clone();
        let (mut sa, mut sb) = (0, 1);
        let mut worst = f64::INFINITY;
        for i in 0..children.len() {
            for j in (i + 1)..children.len() {
                let c = cosine_similarity(
                    &self.nodes[children[i]].centroid,
                    &self.nodes[children[j]].centroid,
                );
                if c < worst {
                    worst = c;
                    sa = i;
                    sb = j;
                }
            }
        }
        let mut group_a = vec![children[sa]];
        let mut group_b = vec![children[sb]];
        for (i, &c) in children.iter().enumerate() {
            if i == sa || i == sb {
                continue;
            }
            let ca = cosine_similarity(&self.nodes[c].centroid, &self.nodes[group_a[0]].centroid);
            let cb = cosine_similarity(&self.nodes[c].centroid, &self.nodes[group_b[0]].centroid);
            // Keep sizes within bounds while preferring correlation.
            let min = self.cfg.rtree.min_entries;
            let remaining = children.len() - i - 1;
            if group_a.len() + remaining < min || (ca >= cb && group_b.len() + remaining >= min) {
                group_a.push(c);
            } else {
                group_b.push(c);
            }
        }

        let level = self.nodes[node].level;
        let dim = self.nodes[node].centroid.len();
        self.nodes[node].children = group_a;
        let sibling = self.alloc(SemanticNode {
            id: 0,
            level,
            mbr: None,
            centroid: vec![0.0; dim],
            bloom: BloomFilter::with_family(
                self.cfg.bloom_bits,
                self.cfg.bloom_hashes,
                self.cfg.bloom_family,
            ),
            children: group_b,
            parent: self.nodes[node].parent,
            unit: None,
            leaf_count: 0,
        });
        for &c in self.nodes[sibling].children.clone().iter() {
            self.nodes[c].parent = Some(sibling);
        }
        self.refresh_node(node);
        self.refresh_node(sibling);

        match self.nodes[node].parent {
            Some(p) => {
                self.nodes[p].children.push(sibling);
                self.refresh_upward(p);
                self.split_if_needed(p);
            }
            None => {
                // Root split: grow the tree.
                let new_root = self.alloc(SemanticNode {
                    id: 0,
                    level: level + 1,
                    mbr: None,
                    centroid: vec![0.0; dim],
                    bloom: BloomFilter::with_family(
                        self.cfg.bloom_bits,
                        self.cfg.bloom_hashes,
                        self.cfg.bloom_family,
                    ),
                    children: vec![node, sibling],
                    parent: None,
                    unit: None,
                    leaf_count: 0,
                });
                self.nodes[node].parent = Some(new_root);
                self.nodes[sibling].parent = Some(new_root);
                self.root = new_root;
                self.refresh_node(new_root);
            }
        }
    }

    /// Merges `node` into a sibling when underflowing (§3.2.2, §4.1) and
    /// collapses single-child chains.
    fn merge_if_needed(&mut self, node: NodeId) {
        // An internal node with no children left is dissolved outright
        // (it can arise when the last leaf of a group is removed).
        if self.nodes[node].level > 0 && self.nodes[node].children.is_empty() {
            match self.nodes[node].parent {
                Some(parent) => {
                    self.nodes[parent].children.retain(|&c| c != node);
                    self.free.push(node);
                    self.merge_if_needed(parent);
                }
                None => {
                    // Empty root degenerates to an empty leaf.
                    let n = &mut self.nodes[node];
                    n.level = 0;
                    n.mbr = None;
                    n.unit = None;
                    n.leaf_count = 0;
                }
            }
            return;
        }
        let m = self.cfg.rtree.min_entries;
        let under = self.nodes[node].children.len() < m;
        if under {
            if let Some(parent) = self.nodes[node].parent {
                // Find the sibling with the most correlated centroid.
                let siblings: Vec<NodeId> = self.nodes[parent]
                    .children
                    .iter()
                    .copied()
                    .filter(|&s| s != node)
                    .collect();
                if let Some(&best) = siblings.iter().max_by(|&&a, &&b| {
                    let ca = cosine_similarity(&self.nodes[a].centroid, &self.nodes[node].centroid);
                    let cb = cosine_similarity(&self.nodes[b].centroid, &self.nodes[node].centroid);
                    ca.total_cmp(&cb)
                }) {
                    let orphans = std::mem::take(&mut self.nodes[node].children);
                    for &o in &orphans {
                        self.nodes[o].parent = Some(best);
                    }
                    self.nodes[best].children.extend(orphans);
                    self.nodes[parent].children.retain(|&c| c != node);
                    self.free.push(node);
                    self.refresh_node(best);
                    self.split_if_needed(best);
                    self.merge_if_needed(parent);
                    return;
                }
            }
        }
        // Height adjustment: "when a group becomes a child node of its
        // former grandparent … as a result of becoming the only child"
        // (§3.2.2) — collapse single-child roots.
        while self.nodes[self.root].level > 0 && self.nodes[self.root].children.len() == 1 {
            let old = self.root;
            let only = self.nodes[old].children[0];
            self.nodes[only].parent = None;
            self.root = only;
            self.free.push(old);
        }
        self.refresh_upward(node);
    }

    fn alloc(&mut self, mut node: SemanticNode) -> NodeId {
        if let Some(id) = self.free.pop() {
            node.id = id;
            self.nodes[id] = node;
            id
        } else {
            let id = self.nodes.len();
            node.id = id;
            self.nodes.push(node);
            id
        }
    }

    /// Recomputes one node's MBR, centroid, Bloom filter and leaf count
    /// from its children.
    fn refresh_node(&mut self, node: NodeId) {
        if self.nodes[node].level == 0 {
            return;
        }
        let children = self.nodes[node].children.clone();
        let (mbr, centroid, bloom, leaf_count) =
            summarize_children(&self.nodes, &children, &self.cfg);
        let n = &mut self.nodes[node];
        n.mbr = mbr;
        n.centroid = centroid;
        n.bloom = bloom;
        n.leaf_count = leaf_count;
    }

    /// Rebuilds every node's Bloom filter — and nothing else — from the
    /// storage units' current filters: leaves clone their unit's
    /// filter, internal nodes union their children bottom-up. This is
    /// the hash-family migration path for reopened persisted images;
    /// MBRs and centroids are deliberately left alone because their
    /// (possible) staleness is answer-relevant (§3.4) and migration
    /// must not act as a full index refresh.
    pub fn rebuild_blooms(&mut self, units: &[StorageUnit]) {
        let mut order: Vec<NodeId> = self.live_node_ids().collect();
        // Children before parents: leaves are level 0.
        order.sort_by_key(|&id| self.nodes[id].level);
        for id in order {
            let bloom = match self.nodes[id].unit {
                Some(u) => {
                    debug_assert_eq!(units[u].id, u, "unit ids must be dense");
                    units[u].bloom().clone()
                }
                // Degenerate empty node (e.g. a unit-less root): fresh
                // filter in the configured family.
                None if self.nodes[id].children.is_empty() => BloomFilter::with_family(
                    self.cfg.bloom_bits,
                    self.cfg.bloom_hashes,
                    self.cfg.bloom_family,
                ),
                None => BloomFilter::union_all(
                    self.nodes[id]
                        .children
                        .iter()
                        .map(|&c| &self.nodes[c].bloom),
                ),
            };
            self.nodes[id].bloom = bloom;
        }
    }

    /// Refreshes a node and all its ancestors.
    fn refresh_upward(&mut self, from: NodeId) {
        let mut cur = Some(from);
        while let Some(n) = cur {
            self.refresh_node(n);
            cur = self.nodes[n].parent;
        }
    }

    /// Re-synchronizes a leaf's summaries (MBR, centroid, Bloom filter)
    /// from its storage unit's current state and propagates the change
    /// upward — the index-side effect of a lazy replica update (§3.4:
    /// "When the number of changes is larger than some threshold, the
    /// index unit multicasts its latest replicas").
    pub fn update_leaf_summary(&mut self, unit: &StorageUnit) -> bool {
        let Some(leaf) = self.leaf_of_unit(unit.id) else {
            return false;
        };
        {
            let n = &mut self.nodes[leaf];
            n.mbr = unit.mbr().cloned();
            n.centroid = unit.centroid().to_vec();
            n.bloom = unit.bloom().clone();
        }
        if let Some(p) = self.nodes[leaf].parent {
            self.refresh_upward(p);
        }
        true
    }

    /// Validates structure: parent/child symmetry, MBR containment,
    /// level consistency, fan-out bounds (root exempt from the minimum),
    /// and that the unit → leaf table lists exactly the leaves reachable
    /// from the root.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut housed = 0;
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if let Some(unit) = node.unit {
                if self.leaf_of_unit(unit) != Some(n) {
                    return Err(format!(
                        "leaf {n} hosts unit {unit} but the table says {:?}",
                        self.leaf_of_unit(unit)
                    ));
                }
                housed += 1;
            }
            if node.level > 0 {
                if node.children.is_empty() {
                    return Err(format!("index node {n} has no children"));
                }
                if node.children.len() > self.cfg.rtree.max_entries {
                    return Err(format!(
                        "node {n} overflows: {} > M={}",
                        node.children.len(),
                        self.cfg.rtree.max_entries
                    ));
                }
                let mut leaves = 0;
                for &c in &node.children {
                    let child = &self.nodes[c];
                    if child.parent != Some(n) {
                        return Err(format!("child {c} of {n} has wrong parent"));
                    }
                    if child.level >= node.level {
                        return Err(format!("child {c} level >= parent {n} level"));
                    }
                    if let (Some(pm), Some(cm)) = (&node.mbr, &child.mbr) {
                        if !pm.contains_rect(cm) {
                            return Err(format!("node {n} MBR does not contain child {c}"));
                        }
                    }
                    leaves += child.leaf_count;
                    stack.push(c);
                }
                if leaves != node.leaf_count {
                    return Err(format!(
                        "node {n} leaf_count {} != sum of children {leaves}",
                        node.leaf_count
                    ));
                }
            }
        }
        let listed = self.leaf_of.iter().flatten().count();
        if listed != housed {
            return Err(format!(
                "unit table lists {listed} leaves, the tree houses {housed}"
            ));
        }
        Ok(())
    }
}

/// Computes (MBR, centroid, Bloom union, leaf count) over children.
fn summarize_children(
    nodes: &[SemanticNode],
    children: &[NodeId],
    cfg: &SmartStoreConfig,
) -> (Option<Rect>, Vec<f64>, BloomFilter, usize) {
    assert!(!children.is_empty(), "summarize_children: empty child set");
    let dim = nodes[children[0]].centroid.len();
    let mut mbr: Option<Rect> = None;
    let mut centroid = vec![0.0; dim];
    let mut bloom = BloomFilter::with_family(cfg.bloom_bits, cfg.bloom_hashes, cfg.bloom_family);
    let mut leaf_count = 0usize;
    for &c in children {
        let child = &nodes[c];
        if let Some(cm) = &child.mbr {
            mbr = Some(match mbr.take() {
                Some(m) => m.union(cm),
                None => cm.clone(),
            });
        }
        let w = child.leaf_count.max(1) as f64;
        for (acc, &x) in centroid.iter_mut().zip(&child.centroid) {
            *acc += w * x;
        }
        bloom.union_in_place(&child.bloom);
        leaf_count += child.leaf_count;
    }
    let total = leaf_count.max(1) as f64;
    for acc in &mut centroid {
        *acc /= total;
    }
    (mbr, centroid, bloom, leaf_count)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use smartstore_trace::{GeneratorConfig, MetadataPopulation};

    /// Builds `n_units` storage units over a clustered population.
    fn units(n_units: usize, n_files: usize, seed: u64) -> Vec<StorageUnit> {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files,
            n_clusters: n_units,
            seed,
            ..GeneratorConfig::default()
        });
        let vectors: Vec<Vec<f64>> = pop.files.iter().map(|f| f.attr_vector().to_vec()).collect();
        let assignment = crate::grouping::partition_balanced(&vectors, n_units, 3, seed);
        let mut buckets: Vec<Vec<smartstore_trace::FileMetadata>> = vec![Vec::new(); n_units];
        for (f, &a) in pop.files.into_iter().zip(assignment.iter()) {
            buckets[a].push(f);
        }
        buckets
            .into_iter()
            .enumerate()
            .map(|(i, files)| StorageUnit::new(i, 1024, 7, files))
            .collect()
    }

    fn tree_with(n_units: usize) -> (SemanticRTree, Vec<StorageUnit>) {
        let us = units(n_units, n_units * 50, 17);
        let t = SemanticRTree::build(&us, &SmartStoreConfig::default());
        (t, us)
    }

    #[test]
    fn build_produces_valid_tree() {
        let (t, us) = tree_with(20);
        t.check_invariants().unwrap();
        let s = t.stats();
        assert!(s.height >= 2);
        assert_eq!(t.node(t.root()).leaf_count, us.len());
    }

    #[test]
    fn all_units_reachable() {
        let (t, us) = tree_with(16);
        for u in &us {
            assert!(t.leaf_of_unit(u.id).is_some(), "unit {} lost", u.id);
        }
    }

    #[test]
    fn root_mbr_covers_every_unit() {
        let (t, us) = tree_with(12);
        let root_mbr = t.node(t.root()).mbr.clone().unwrap();
        for u in &us {
            assert!(root_mbr.contains_rect(u.mbr().unwrap()));
        }
    }

    #[test]
    fn range_route_finds_covering_units() {
        let (t, us) = tree_with(15);
        // Query box = exactly one unit's MBR: that unit must be routed.
        let target = &us[3];
        let m = target.mbr().unwrap();
        let route = t.route_range(m.lo(), m.hi());
        assert!(route.target_units.contains(&3));
        assert!(route.nodes_visited >= 2);
    }

    #[test]
    fn point_route_reaches_owner() {
        let (t, us) = tree_with(10);
        let name = us[7].files()[0].name.clone();
        let route = t.route_point(&name);
        assert!(route.target_units.contains(&7));
        assert!(route.filters_probed > 0);
    }

    #[test]
    fn point_route_prunes_missing_names() {
        let (t, _) = tree_with(10);
        let route = t.route_point("ghost_file_xyz");
        // Index-unit union filters saturate (hundreds of names in 1024
        // bits) so internal pruning is weak, but the per-leaf filters
        // are sparse: a missing name must reach (almost) no storage
        // units. The paper reports the same effect as an ~88% hit rate
        // rather than perfect pruning (§5.4.1).
        assert!(
            route.target_units.len() <= 2,
            "missing name claimed by {} units",
            route.target_units.len()
        );
    }

    #[test]
    fn topk_route_orders_by_mbr_distance() {
        let (t, us) = tree_with(12);
        let q = us[5].centroid().to_vec();
        let (order, visited) = t.route_topk(&q);
        assert_eq!(order.len(), 12, "every unit eventually ranked");
        assert!(visited >= 12);
        for w in order.windows(2) {
            assert!(w[0].1 <= w[1].1, "best-first order violated");
        }
    }

    #[test]
    fn most_correlated_group_prefers_own_group() {
        let (t, us) = tree_with(18);
        for u in us.iter().take(6) {
            let leaf = t.leaf_of_unit(u.id).unwrap();
            let own = t.group_of_leaf(leaf);
            let picked = t.most_correlated_group(u.centroid());
            // The unit's own group should usually win; at minimum the
            // pick must be a live level-1 node.
            assert!(t.first_level_index_units().contains(&picked));
            let _ = own;
        }
    }

    #[test]
    fn insert_unit_grows_tree() {
        let (mut t, us) = tree_with(10);
        let mut extra = units(1, 40, 999).remove(0);
        extra.id = 100;
        t.insert_unit(&extra);
        t.check_invariants().unwrap();
        assert!(t.leaf_of_unit(100).is_some());
        assert_eq!(t.node(t.root()).leaf_count, us.len() + 1);
    }

    #[test]
    fn insert_many_units_keeps_invariants() {
        let (mut t, _) = tree_with(8);
        let extras = units(20, 600, 321);
        for (i, mut u) in extras.into_iter().enumerate() {
            u.id = 200 + i;
            t.insert_unit(&u);
            t.check_invariants().unwrap();
        }
        assert_eq!(t.node(t.root()).leaf_count, 28);
    }

    #[test]
    fn remove_unit_shrinks_tree() {
        let (mut t, us) = tree_with(12);
        assert!(t.remove_unit(4));
        t.check_invariants().unwrap();
        assert!(t.leaf_of_unit(4).is_none());
        assert_eq!(t.node(t.root()).leaf_count, us.len() - 1);
        assert!(!t.remove_unit(4), "double remove returns false");
    }

    #[test]
    fn remove_down_to_one_unit() {
        let (mut t, us) = tree_with(8);
        for u in us.iter().skip(1) {
            assert!(t.remove_unit(u.id));
            t.check_invariants().unwrap();
        }
        assert!(t.leaf_of_unit(us[0].id).is_some());
        assert_eq!(t.node(t.root()).leaf_count, 1);
    }

    #[test]
    fn first_level_groups_partition_leaves() {
        let (t, us) = tree_with(24);
        let groups = t.first_level_index_units();
        let total: usize = groups.iter().map(|&g| t.node(g).leaf_count).sum();
        assert_eq!(total, us.len());
    }

    #[test]
    fn single_unit_tree() {
        let us = units(1, 30, 5);
        let t = SemanticRTree::build(&us, &SmartStoreConfig::default());
        t.check_invariants().unwrap();
        assert_eq!(t.stats().height, 1);
        let route = t.route_point(&us[0].files()[0].name);
        assert_eq!(route.target_units, vec![0]);
    }

    #[test]
    fn semantic_grouping_beats_random_on_cluster_span() {
        // Files from one planted cluster should concentrate in few
        // first-level groups when units are semantically built.
        let us = units(20, 1000, 77);
        let t = SemanticRTree::build(&us, &SmartStoreConfig::default());
        // Pick the planted cluster with the most files.
        let mut counts: std::collections::HashMap<u32, usize> = Default::default();
        for u in &us {
            for f in u.files() {
                if let Some(c) = f.truth_cluster {
                    *counts.entry(c).or_default() += 1;
                }
            }
        }
        let (&big, _) = counts.iter().max_by_key(|&(_, &c)| c).unwrap();
        let mut groups_hit: Vec<NodeId> = us
            .iter()
            .filter(|u| u.files().iter().any(|f| f.truth_cluster == Some(big)))
            .map(|u| t.group_of_leaf(t.leaf_of_unit(u.id).unwrap()))
            .collect();
        groups_hit.sort_unstable();
        groups_hit.dedup();
        let n_groups = t.first_level_index_units().len();
        assert!(
            groups_hit.len() <= n_groups,
            "sanity: {} groups hit of {n_groups}",
            groups_hit.len()
        );
    }
}
