//! Mapping index units onto storage units (§4.2) and multi-mapping the
//! root (§4.3).
//!
//! "Our mapping is based on a simple bottom-up approach that iteratively
//! applies random selection and labeling operations … An index unit in
//! the first level can be first randomly mapped to one of its child
//! nodes in the R-tree (i.e., a storage unit from the covered semantic
//! group). Each storage unit that has been mapped by an index node is
//! labeled to avoid being mapped by another index node." The root is
//! additionally replicated into every top-level subtree so it "can be
//! found within each of the subtrees", removing the single point of
//! failure.

use crate::tree::{NodeId, SemanticRTree};
use rand::Rng;
use std::collections::HashMap;

/// The computed placement of index units on storage units.
#[derive(Clone, Debug)]
pub struct IndexMapping {
    /// `assignment[index_node] = storage unit hosting it`.
    pub assignment: HashMap<NodeId, usize>,
    /// Storage units hosting a replica of the root (one per top-level
    /// subtree).
    pub root_replicas: Vec<usize>,
}

/// Runs the bottom-up random label-and-assign mapping.
///
/// Levels are processed from 1 upward; each index unit draws a random
/// *unlabeled* storage unit from its own subtree, falling back to any
/// unlabeled unit and finally to the least-loaded unit when all are
/// labeled ("In practice, the number of storage units is generally much
/// larger than that of index units … each index unit can be mapped to a
/// different storage unit").
pub fn map_index_units<R: Rng>(tree: &SemanticRTree, rng: &mut R) -> IndexMapping {
    let mut assignment: HashMap<NodeId, usize> = HashMap::new();
    let mut labeled: Vec<usize> = Vec::new();
    let mut load: HashMap<usize, usize> = HashMap::new();

    let height = tree.height() as u32;
    for level in 1..height.max(2) {
        for node in tree.index_units_at_level(level) {
            let candidates: Vec<usize> = tree
                .descendant_units(node)
                .into_iter()
                .filter(|u| !labeled.contains(u))
                .collect();
            let chosen = if !candidates.is_empty() {
                candidates[rng.gen_range(0..candidates.len())]
            } else {
                // All subtree units labeled: any unlabeled unit system-wide.
                let all = tree.descendant_units(tree.root());
                let free: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|u| !labeled.contains(u))
                    .collect();
                if !free.is_empty() {
                    free[rng.gen_range(0..free.len())]
                } else {
                    // Fully labeled: least-loaded unit.
                    all.iter()
                        .min_by_key(|u| load.get(u).copied().unwrap_or(0))
                        .copied()
                        .unwrap_or(0)
                }
            };
            assignment.insert(node, chosen);
            labeled.push(chosen);
            *load.entry(chosen).or_insert(0) += 1;
        }
    }

    // Root multi-mapping: one replica per top-level subtree (§4.3).
    let root = tree.root();
    let mut root_replicas = Vec::new();
    if tree.node(root).level == 0 {
        // Single-leaf tree: the only unit hosts the root.
        root_replicas.extend(tree.node(root).unit);
    } else {
        for &child in &tree.node(root).children {
            let subtree = tree.descendant_units(child);
            if subtree.is_empty() {
                continue;
            }
            let pick = subtree[rng.gen_range(0..subtree.len())];
            root_replicas.push(pick);
        }
    }
    if let Some(&first) = root_replicas.first() {
        assignment.insert(root, first);
    }

    IndexMapping {
        assignment,
        root_replicas,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::config::SmartStoreConfig;
    use crate::grouping::partition_balanced;
    use crate::unit::StorageUnit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smartstore_trace::{GeneratorConfig, MetadataPopulation};

    fn tree(n_units: usize) -> SemanticRTree {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files: n_units * 40,
            n_clusters: n_units,
            seed: 23,
            ..GeneratorConfig::default()
        });
        let vectors: Vec<Vec<f64>> = pop.files.iter().map(|f| f.attr_vector().to_vec()).collect();
        let assignment = partition_balanced(&vectors, n_units, 3, 23);
        let mut buckets: Vec<Vec<smartstore_trace::FileMetadata>> = vec![Vec::new(); n_units];
        for (f, &a) in pop.files.into_iter().zip(assignment.iter()) {
            buckets[a].push(f);
        }
        let units: Vec<StorageUnit> = buckets
            .into_iter()
            .enumerate()
            .map(|(i, files)| StorageUnit::new(i, 1024, 7, files))
            .collect();
        SemanticRTree::build(&units, &SmartStoreConfig::default())
    }

    #[test]
    fn every_index_unit_mapped() {
        let t = tree(30);
        let mut rng = StdRng::seed_from_u64(1);
        let m = map_index_units(&t, &mut rng);
        let expected = t.stats().index_units;
        assert_eq!(m.assignment.len(), expected);
    }

    #[test]
    fn hosts_are_valid_units() {
        let t = tree(20);
        let mut rng = StdRng::seed_from_u64(2);
        let m = map_index_units(&t, &mut rng);
        for &unit in m.assignment.values() {
            assert!(unit < 20, "host {unit} out of range");
        }
    }

    #[test]
    fn first_level_maps_inside_own_subtree() {
        let t = tree(40);
        let mut rng = StdRng::seed_from_u64(3);
        let m = map_index_units(&t, &mut rng);
        for g in t.first_level_index_units() {
            let host = m.assignment[&g];
            let subtree = t.descendant_units(g);
            assert!(
                subtree.contains(&host),
                "group {g} hosted outside its subtree (host {host}, subtree {subtree:?})"
            );
        }
    }

    #[test]
    fn units_mostly_distinct_when_plentiful() {
        // 40 units, far fewer index units ⇒ low collision.
        let t = tree(40);
        let mut rng = StdRng::seed_from_u64(4);
        let m = map_index_units(&t, &mut rng);
        let mut load: HashMap<usize, usize> = HashMap::new();
        for &unit in m.assignment.values() {
            *load.entry(unit).or_insert(0) += 1;
        }
        let max_load = load.values().copied().max().unwrap_or(0);
        assert!(max_load <= 2, "max load {max_load} too high with 40 units");
    }

    #[test]
    fn root_replicated_per_subtree() {
        let t = tree(30);
        let mut rng = StdRng::seed_from_u64(5);
        let m = map_index_units(&t, &mut rng);
        let n_subtrees = t.node(t.root()).children.len();
        assert_eq!(m.root_replicas.len(), n_subtrees);
        // Each replica lives inside its own top-level subtree.
        for (child, replica) in t.node(t.root()).children.iter().zip(&m.root_replicas) {
            assert!(t.descendant_units(*child).contains(replica));
        }
    }

    #[test]
    fn mapping_deterministic_under_seed() {
        let t = tree(25);
        let a = map_index_units(&t, &mut StdRng::seed_from_u64(9));
        let b = map_index_units(&t, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.root_replicas, b.root_replicas);
    }
}
