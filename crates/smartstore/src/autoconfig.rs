//! Automatic configuration of per-attribute-subset semantic R-trees
//! (§2.4).
//!
//! A single R-tree over all D attributes serves queries on any subset,
//! but poorly when the queried subset's geometry diverges from the full
//! space. The paper's remedy: build a semantic R-tree per candidate
//! attribute subset, *keep* it only when its index-unit count differs
//! from the D-dimensional tree's by more than a threshold
//! (`|NO(I_D) − NO(I_d)|` > 10% of `NO(I_D)` in the evaluation —
//! sufficiently different structure to be worth the space), and answer
//! each query from the kept tree whose attributes best match the
//! query's. Queries beyond all kept subsets fall back to the full tree,
//! whose answer is a superset needing refinement.

use crate::config::SmartStoreConfig;
use crate::tree::{SemanticRTree, UnitSummary};
use crate::unit::StorageUnit;
use smartstore_rtree::Rect;
use smartstore_trace::AttributeKind;

/// One retained tree: the subset it indexes and the tree itself.
#[derive(Clone, Debug)]
pub struct ConfiguredTree {
    /// The attribute dimensions this tree indexes (full-order subset of
    /// [`AttributeKind::ALL`]).
    pub dims: Vec<AttributeKind>,
    /// The semantic R-tree over those dimensions.
    pub tree: SemanticRTree,
}

/// The set of semantic R-trees retained by automatic configuration.
#[derive(Clone, Debug)]
pub struct AutoConfig {
    /// The always-present full-dimension tree.
    pub full: ConfiguredTree,
    /// Additional subset trees that passed the difference test.
    pub subsets: Vec<ConfiguredTree>,
    /// Candidate subsets evaluated and rejected (for reporting).
    pub rejected: usize,
}

/// Projects a unit's summary onto a subset of attribute dimensions.
fn project_summary(unit: &StorageUnit, dims: &[AttributeKind]) -> UnitSummary {
    let centroid: Vec<f64> = dims.iter().map(|&k| unit.centroid()[k.index()]).collect();
    let mbr = unit.mbr().map(|m| {
        let lo: Vec<f64> = dims.iter().map(|&k| m.lo()[k.index()]).collect();
        let hi: Vec<f64> = dims.iter().map(|&k| m.hi()[k.index()]).collect();
        Rect::new(lo, hi)
    });
    UnitSummary {
        id: unit.id,
        centroid,
        mbr,
        bloom: unit.bloom().clone(),
    }
}

impl AutoConfig {
    /// Runs the automatic configuration over the given candidate
    /// subsets. The full-dimension tree is always built; a candidate
    /// survives when its index-unit count differs from the full tree's
    /// by more than `cfg.autoconfig_threshold` (fractionally).
    pub fn configure(
        units: &[StorageUnit],
        candidates: &[Vec<AttributeKind>],
        cfg: &SmartStoreConfig,
    ) -> Self {
        let full_tree = SemanticRTree::build(units, cfg);
        let no_full = full_tree.stats().index_units as f64;
        let mut subsets = Vec::new();
        let mut rejected = 0;
        for dims in candidates {
            assert!(
                !dims.is_empty() && dims.len() < AttributeKind::ALL.len(),
                "configure: candidate must be a proper non-empty subset"
            );
            let summaries: Vec<UnitSummary> =
                units.iter().map(|u| project_summary(u, dims)).collect();
            let tree = SemanticRTree::build_from_summaries(&summaries, cfg);
            let no_d = tree.stats().index_units as f64;
            if (no_full - no_d).abs() > cfg.autoconfig_threshold * no_full {
                subsets.push(ConfiguredTree {
                    dims: dims.clone(),
                    tree,
                });
            } else {
                // "Some subsets of available attributes may produce the
                // same or approximate … semantic R-trees and redundant
                // R-trees can be deleted."
                rejected += 1;
            }
        }
        Self {
            full: ConfiguredTree {
                dims: AttributeKind::ALL.to_vec(),
                tree: full_tree,
            },
            subsets,
            rejected,
        }
    }

    /// Selects the tree for a query over `query_dims`: the kept subset
    /// tree with the same or most-overlapping attributes; the full tree
    /// when nothing fits better.
    ///
    /// Returns `(tree, exact_match)` — `exact_match == false` means the
    /// answer may be a superset needing refinement (§2.4's penalty
    /// case).
    pub fn select(&self, query_dims: &[AttributeKind]) -> (&ConfiguredTree, bool) {
        // Exact subset match first.
        for t in &self.subsets {
            if t.dims == query_dims {
                return (t, true);
            }
        }
        // Best overlap among kept trees whose dims cover the query dims.
        let covering = self
            .subsets
            .iter()
            .filter(|t| query_dims.iter().all(|d| t.dims.contains(d)))
            .min_by_key(|t| t.dims.len());
        match covering {
            Some(t) => (t, false),
            None => (&self.full, query_dims.len() == AttributeKind::ALL.len()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::grouping::partition_balanced_flat;
    use smartstore_trace::{GeneratorConfig, MetadataPopulation};

    fn units(n_units: usize) -> Vec<StorageUnit> {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files: n_units * 30,
            n_clusters: n_units,
            seed: 41,
            ..GeneratorConfig::default()
        });
        let table = smartstore_trace::attr_table(&pop.files);
        let assignment =
            partition_balanced_flat(&table, smartstore_trace::ATTR_DIMS, n_units, 3, 41);
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

    fn some_candidates() -> Vec<Vec<AttributeKind>> {
        vec![
            vec![AttributeKind::Size],
            vec![AttributeKind::Size, AttributeKind::CreationTime],
            vec![
                AttributeKind::ModificationTime,
                AttributeKind::ReadBytes,
                AttributeKind::WriteBytes,
            ],
        ]
    }

    #[test]
    fn full_tree_always_present() {
        let us = units(20);
        let ac = AutoConfig::configure(&us, &some_candidates(), &SmartStoreConfig::default());
        assert_eq!(ac.full.dims.len(), AttributeKind::ALL.len());
        ac.full.tree.check_invariants().unwrap();
        assert_eq!(ac.subsets.len() + ac.rejected, 3);
    }

    #[test]
    fn kept_subset_trees_are_valid() {
        let us = units(20);
        let ac = AutoConfig::configure(&us, &some_candidates(), &SmartStoreConfig::default());
        for t in &ac.subsets {
            t.tree.check_invariants().unwrap();
            assert_eq!(
                t.tree.node(t.tree.root()).centroid.len(),
                t.dims.len(),
                "subset tree dimensionality"
            );
        }
    }

    #[test]
    fn select_prefers_exact_match() {
        let us = units(16);
        // Force all candidates to be kept so selection is deterministic.
        let cfg = SmartStoreConfig {
            autoconfig_threshold: -1.0,
            ..Default::default()
        };
        let ac = AutoConfig::configure(&us, &some_candidates(), &cfg);
        assert_eq!(ac.subsets.len(), 3);
        let q = vec![AttributeKind::Size, AttributeKind::CreationTime];
        let (t, exact) = ac.select(&q);
        assert!(exact);
        assert_eq!(t.dims, q);
    }

    #[test]
    fn select_falls_back_to_full_tree() {
        let us = units(16);
        let ac = AutoConfig::configure(&us, &[], &SmartStoreConfig::default());
        let q = vec![AttributeKind::ProcessId];
        let (t, exact) = ac.select(&q);
        assert_eq!(t.dims.len(), AttributeKind::ALL.len());
        assert!(!exact, "full tree over a 1-dim query is a superset answer");
    }

    #[test]
    fn select_uses_covering_subset() {
        let us = units(16);
        let cfg = SmartStoreConfig {
            autoconfig_threshold: -1.0,
            ..Default::default()
        };
        let ac = AutoConfig::configure(&us, &some_candidates(), &cfg);
        // Query on (Size) alone: candidate [Size] covers it exactly.
        let (t, exact) = ac.select(&[AttributeKind::Size]);
        assert!(exact);
        assert_eq!(t.dims, vec![AttributeKind::Size]);
        // Query on (ModificationTime, ReadBytes): covered by the 3-dim candidate.
        let (t2, exact2) = ac.select(&[AttributeKind::ModificationTime, AttributeKind::ReadBytes]);
        assert!(!exact2);
        assert_eq!(t2.dims.len(), 3);
    }

    #[test]
    fn threshold_controls_retention() {
        let us = units(20);
        let keep_all = SmartStoreConfig {
            autoconfig_threshold: -1.0,
            ..Default::default()
        };
        let keep_none = SmartStoreConfig {
            autoconfig_threshold: 1e9,
            ..Default::default()
        };
        let all = AutoConfig::configure(&us, &some_candidates(), &keep_all);
        let none = AutoConfig::configure(&us, &some_candidates(), &keep_none);
        assert_eq!(all.subsets.len(), 3);
        assert_eq!(none.subsets.len(), 0);
    }

    #[test]
    #[should_panic]
    fn full_set_candidate_rejected() {
        let us = units(8);
        AutoConfig::configure(
            &us,
            &[AttributeKind::ALL.to_vec()],
            &SmartStoreConfig::default(),
        );
    }
}
