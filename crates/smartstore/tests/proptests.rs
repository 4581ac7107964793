//! Property tests for the SmartStore core: grouping partitions,
//! placement balance, semantic R-tree invariants under random
//! reconfiguration, versioning replay equivalence.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use proptest::prelude::*;
use smartstore::config::SmartStoreConfig;
use smartstore::grouping::{group_level, partition_tiled, wcss};
use smartstore::tree::{NodeId, SemanticRTree};
use smartstore::unit::StorageUnit;
use smartstore::versioning::{Change, VersionStore};
use smartstore_trace::{FileMetadata, GeneratorConfig, MetadataPopulation};

fn meta(id: u64, size: u64, t: f64) -> FileMetadata {
    FileMetadata {
        file_id: id,
        name: format!("f{id}"),
        dir: "/d".into(),
        owner: 0,
        size,
        ctime: t,
        mtime: t,
        atime: t,
        read_bytes: size,
        write_bytes: 0,
        access_count: 1,
        proc_id: (id % 16) as u32,
        truth_cluster: None,
    }
}

/// Checks `leaf_of_unit` against a walk of the tree from its root: the
/// walk finds exactly the `live` units, each in the leaf the table
/// names, and no removed unit is still listed.
fn assert_unit_table_matches_walk(tree: &SemanticRTree, live: &[usize], removed: &[usize]) {
    let mut walked: Vec<(usize, NodeId)> = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(n) = stack.pop() {
        let node = tree.node(n);
        if let Some(unit) = node.unit {
            walked.push((unit, n));
        }
        stack.extend(node.children.iter().copied());
    }
    walked.sort_unstable();
    let mut expected = live.to_vec();
    expected.sort_unstable();
    assert_eq!(
        walked.iter().map(|&(u, _)| u).collect::<Vec<_>>(),
        expected,
        "units reachable from the root"
    );
    for (unit, leaf) in walked {
        assert_eq!(tree.leaf_of_unit(unit), Some(leaf), "unit {unit}");
    }
    for &unit in removed {
        assert_eq!(tree.leaf_of_unit(unit), None, "removed unit {unit}");
    }
}

fn vec_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((-50i32..50).prop_map(|v| v as f64 / 5.0), 4),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn group_level_is_partition(vectors in vec_strategy(1..40), eps in 0.0f64..1.0) {
        let g = group_level(&vectors, eps, 2, 8);
        let mut seen = vec![false; vectors.len()];
        for grp in &g.groups {
            prop_assert!(!grp.is_empty());
            prop_assert!(grp.len() <= 8, "cap respected");
            for &m in grp {
                prop_assert!(!seen[m], "item {m} assigned twice");
                seen[m] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every item grouped");
        prop_assert_eq!(g.centroids.len(), g.groups.len());
    }

    #[test]
    fn wcss_nonnegative_and_zero_for_singletons(vectors in vec_strategy(1..25)) {
        let singles: Vec<Vec<usize>> = (0..vectors.len()).map(|i| vec![i]).collect();
        prop_assert!(wcss(&vectors, &singles).abs() < 1e-9);
        let all: Vec<usize> = (0..vectors.len()).collect();
        prop_assert!(wcss(&vectors, &[all]) >= 0.0);
    }

    #[test]
    fn partition_tiled_covers_and_bounds(
        vectors in vec_strategy(8..120),
        n_parts in 2usize..8,
    ) {
        prop_assume!(vectors.len() >= n_parts);
        let assignment = partition_tiled(&vectors, n_parts, 2);
        prop_assert_eq!(assignment.len(), vectors.len());
        let mut counts = vec![0usize; n_parts];
        for &a in &assignment {
            prop_assert!(a < n_parts);
            counts[a] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c > 0), "no part may be empty: {:?}", counts);
    }

    #[test]
    fn semantic_tree_survives_random_unit_churn(
        sizes in prop::collection::vec(5usize..25, 4..12),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        // Build units with deterministic metadata derived from sizes.
        let cfg = SmartStoreConfig::default();
        let mut id = 0u64;
        let units: Vec<StorageUnit> = sizes.iter().enumerate().map(|(u, &n)| {
            let files: Vec<FileMetadata> = (0..n).map(|_| {
                id += 1;
                meta(id, 1000 + id * 7 % 5000, (u as f64) * 1000.0 + id as f64)
            }).collect();
            // Units must share the tree's Bloom geometry (union filters).
            StorageUnit::new(u, cfg.bloom_bits, cfg.bloom_hashes, files)
        }).collect();
        let mut tree = SemanticRTree::build(&units, &cfg);
        tree.check_invariants().unwrap();

        // Random removals (by index into the unit list).
        let mut live: Vec<usize> = units.iter().map(|u| u.id).collect();
        for idx in removals {
            if live.len() <= 1 { break; }
            let victim = live.remove(idx.index(live.len()));
            prop_assert!(tree.remove_unit(victim));
            tree.check_invariants().unwrap();
        }
        // Survivors all reachable.
        for &u in &live {
            prop_assert!(tree.leaf_of_unit(u).is_some(), "unit {u} lost");
        }
        prop_assert_eq!(tree.node(tree.root()).leaf_count, live.len());

        // Re-insert a fresh unit; invariants must still hold.
        let extra_files: Vec<FileMetadata> =
            (0..8).map(|i| meta(90_000 + i, 2048, 123.0 + i as f64)).collect();
        let extra = StorageUnit::new(777, cfg.bloom_bits, cfg.bloom_hashes, extra_files);
        tree.insert_unit(&extra);
        tree.check_invariants().unwrap();
        prop_assert!(tree.leaf_of_unit(777).is_some());
    }

    #[test]
    fn unit_table_follows_inserts_removes_splits_and_merges(
        ops in prop::collection::vec((0u32..3, any::<prop::sample::Index>(), 1usize..4), 10..70),
    ) {
        // A fan-out of 4 makes a handful of inserts split a group and a
        // handful of removals merge one, so a short sequence crosses
        // both reconfigurations (and arena-slot reuse) many times.
        let cfg = SmartStoreConfig {
            rtree: smartstore_rtree::RTreeConfig::new(4, 2),
            ..SmartStoreConfig::default()
        };
        let unit = |id: usize| {
            let files: Vec<FileMetadata> = (0..6u64)
                .map(|i| {
                    let fid = id as u64 * 100 + i;
                    meta(fid, 500 + fid * 13 % 7000, id as f64 * 37.0 + i as f64)
                })
                .collect();
            StorageUnit::new(id, cfg.bloom_bits, cfg.bloom_hashes, files)
        };
        let seed_units: Vec<StorageUnit> = (0..3).map(unit).collect();
        let mut tree = SemanticRTree::build(&seed_units, &cfg);
        let mut live: Vec<usize> = vec![0, 1, 2];
        let mut removed: Vec<usize> = Vec::new();
        let mut next_id = 3usize;
        for (kind, pick, gap) in ops {
            // Two inserts for every removal, so the tree grows through
            // splits and still shrinks through merges; ids leave gaps.
            if kind > 0 || live.len() <= 1 {
                next_id += gap;
                tree.insert_unit(&unit(next_id));
                live.push(next_id);
            } else {
                let victim = live.remove(pick.index(live.len()));
                prop_assert!(tree.remove_unit(victim));
                removed.push(victim);
            }
            tree.check_invariants().unwrap();
            assert_unit_table_matches_walk(&tree, &live, &removed);
        }
        // The table is derived state: a tree reassembled from its parts
        // has the same one.
        let back = SemanticRTree::from_parts(tree.to_parts(), &cfg);
        back.check_invariants().unwrap();
        assert_unit_table_matches_walk(&back, &live, &removed);
        // And shrinking to one unit leaves that unit listed.
        while live.len() > 1 {
            let victim = live.remove(0);
            prop_assert!(tree.remove_unit(victim));
            removed.push(victim);
            tree.check_invariants().unwrap();
            assert_unit_table_matches_walk(&tree, &live, &removed);
        }
    }

    #[test]
    fn version_replay_equals_eager_application(
        ops in prop::collection::vec((0u64..20, 0u64..3, 1u64..1000), 0..60),
        ratio in 1u32..10,
    ) {
        // Model: eager application to a plain vec.
        let mut eager: Vec<FileMetadata> = (0..5).map(|i| meta(i, 100, i as f64)).collect();
        let mut vs = VersionStore::new(ratio);
        let mut base = eager.clone();
        for (id, kind, size) in ops {
            // Inserting an id that already exists is not a well-formed
            // change stream (a file system never re-creates a live
            // inode); normalize it to Modify so both application orders
            // are comparing the same stream.
            let exists = eager.iter().any(|x| x.file_id == id);
            let change = match kind {
                0 if !exists => Change::Insert(meta(id, size, size as f64)),
                1 => Change::Delete(id),
                _ => Change::Modify(meta(id, size, size as f64)),
            };
            // Eager model: every change applied as it arrives.
            match &change {
                Change::Insert(f) => {
                    if !eager.iter().any(|x| x.file_id == f.file_id) {
                        eager.push(f.clone());
                    }
                }
                Change::Delete(id) => eager.retain(|x| x.file_id != *id),
                Change::Modify(f) => {
                    if let Some(slot) = eager.iter_mut().find(|x| x.file_id == f.file_id) {
                        *slot = f.clone();
                    } else {
                        eager.push(f.clone());
                    }
                }
            }
            vs.record(change);
        }
        // Deferred: the chain's effective walk applied to the base.
        for (ch, _) in vs.effective() {
            match ch {
                Change::Insert(f) | Change::Modify(f) => {
                    if let Some(slot) = base.iter_mut().find(|x| x.file_id == f.file_id) {
                        *slot = f.clone();
                    } else {
                        base.push(f.clone());
                    }
                }
                Change::Delete(id) => base.retain(|x| x.file_id != *id),
            }
        }
        let key = |v: &Vec<FileMetadata>| {
            let mut ids: Vec<(u64, u64)> = v.iter().map(|f| (f.file_id, f.size)).collect();
            ids.sort_unstable();
            ids
        };
        // Deferred (versioned) application must agree with eager
        // application up to insert-vs-modify shadowing: the version
        // chain collapses multiple changes per file into the newest one,
        // which is exactly the eager end state per file id.
        prop_assert_eq!(key(&base), key(&eager));
    }
}

#[test]
fn placement_preserves_planted_clusters_reasonably() {
    // Deterministic sanity floor: a clustered population partitioned by
    // the default pipeline keeps each cluster inside a small number of
    // units (the structural property behind Fig. 8).
    let pop = MetadataPopulation::generate(GeneratorConfig {
        n_files: 3000,
        n_clusters: 30,
        clustered_fraction: 0.95,
        seed: 404,
        ..GeneratorConfig::default()
    });
    let vectors: Vec<Vec<f64>> = pop.files.iter().map(|f| f.attr_vector().to_vec()).collect();
    let assignment = partition_tiled(&vectors, 30, 3);
    let mut spread: std::collections::HashMap<u32, std::collections::HashSet<usize>> =
        Default::default();
    for (f, &a) in pop.files.iter().zip(&assignment) {
        if let Some(c) = f.truth_cluster {
            spread.entry(c).or_default().insert(a);
        }
    }
    let mut spans: Vec<usize> = spread.values().map(|s| s.len()).collect();
    spans.sort_unstable();
    let median = spans[spans.len() / 2];
    assert!(
        median <= 6,
        "median cluster spread {median} units is too scattered for semantic placement"
    );
}
