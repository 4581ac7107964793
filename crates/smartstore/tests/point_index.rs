//! Differential test of the point path.
//!
//! A point lookup is served from the system's name index: only the units
//! that hold the name are asked, each behind the Bloom filters on its
//! own leaf-to-root path. This file keeps the evaluation that index
//! replaced as the reference, written out from the public tree and unit
//! state: the paper's Bloom descent from the root (§3.3.3), a Bloom
//! probe at every unit the descent reaches, then that unit's first file
//! of the name in store order, and the version-chain fallback when no
//! unit answered.
//!
//! The streams exercise what the index must track: duplicate names
//! within one unit and across units, duplicate file ids, renames by
//! `Modify`, deletes and modifies of unknown ids, bulk removal, a unit
//! added at run time, raw inserts that the (stale) filters do not know
//! yet, lazy refreshes at varying intervals, versioning on and off, and
//! one `to_parts`/`from_parts` round trip. The filters are small
//! (64 bits, two hashes) so that negative filters actually gate.
//!
//! The system keeps every index unit's filter a superset of its
//! children's, so along a live path the unit's own filter decides. The
//! round trip may therefore hand back an image whose filters lag: an
//! index unit that knows only its first child's names, or a leaf that
//! knows none of its unit's. The answer must still be the descent's.
//!
//! After every step: the name index equals a rebuild from the units;
//! the live answer equals the reference answer; `paper_point`'s outcome
//! equals the reference outcome, the paper's trace included; and the
//! live trace reached exactly the routed units that hold the name.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use smartstore::tree::NodeId;
use smartstore::versioning::{Change, VersionStore};
use smartstore::{SmartStoreConfig, SmartStoreSystem, SystemParts};
use smartstore_bench::cost::{paper_point, PaperOutcome, PaperTrace};
use smartstore_trace::{FileMetadata, GeneratorConfig, MetadataPopulation};
use std::collections::HashSet;

type Chains = Vec<(NodeId, VersionStore)>;

/// Names shared by many files, so duplicates are routine.
const POOL: u64 = 24;

fn pooled(i: u64) -> String {
    format!("n{}", i % POOL)
}

/// Newest change first, the first record of each file id wins; also
/// the number of records scanned.
fn effective_changes(vs: &VersionStore) -> (Vec<&Change>, usize) {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut out = Vec::new();
    let mut scanned = 0;
    let newest_first = std::iter::once(vs.open_version())
        .chain(vs.sealed_versions().iter().rev())
        .flat_map(|v| v.changes.iter().rev());
    for ch in newest_first {
        scanned += 1;
        if seen.insert(ch.file_id()) {
            out.push(ch);
        }
    }
    (out, scanned)
}

/// The reference evaluation: the Bloom descent, the unit probe and the
/// first-slot lookup, then the version fallback (`chains` is `None`
/// when versioning is off), with the paper's counts of it. Also returns
/// the units the descent routed to, in visit order.
fn reference_point(
    sys: &SmartStoreSystem,
    chains: Option<&Chains>,
    name: &str,
) -> (PaperOutcome, Vec<usize>) {
    let tree = sys.tree();
    let mut trace = PaperTrace::default();
    let mut results = Vec::new();
    let mut routed = Vec::new();
    let mut groups = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(n) = stack.pop() {
        trace.nodes_visited += 1;
        trace.filters_probed += 1;
        let node = tree.node(n);
        if !node.bloom.contains(name.as_bytes()) {
            continue;
        }
        if node.level > 0 {
            stack.extend(node.children.iter().copied());
            continue;
        }
        let Some(u) = node.unit else { continue };
        groups.push(tree.group_of_leaf(n));
        routed.push(u);
        trace.units_probed += 1;
        let unit = &sys.units()[u];
        if unit.bloom().contains(name.as_bytes()) {
            if let Some(f) = unit.files().iter().find(|f| f.name == name) {
                trace.max_unit_records = 1;
                results.push(f.file_id);
            }
        }
    }
    trace.units_routed = routed.len();
    groups.sort_unstable();
    groups.dedup();
    trace.group_hops = groups.len().saturating_sub(1);
    trace.bearing_group_hops = trace.group_hops;
    if let Some(chains) = chains.filter(|_| results.is_empty()) {
        trace.version_chains = chains.len();
        for (_, vs) in chains {
            let (effective, scanned) = effective_changes(vs);
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
    let outcome = PaperOutcome {
        file_ids: results,
        trace,
    };
    (outcome, routed)
}

/// Every check, for every name in `names`.
fn check(sys: &SmartStoreSystem, names: &[String]) -> Result<(), TestCaseError> {
    prop_assert_eq!(sys.check_name_index(), Ok(()));
    let parts = sys.to_parts();
    let chains = parts.versioning_enabled.then_some(&parts.versions);
    for name in names {
        let (want, routed) = reference_point(sys, chains, name);
        let got = sys.query().point(name);
        prop_assert_eq!(&got.file_ids, &want.file_ids, "answer of {:?}", name);
        prop_assert_eq!(&paper_point(sys, name), &want, "paper route of {:?}", name);
        // The live path reaches the routed units that hold the name.
        let holding = sys.units_holding(name);
        let reached = routed
            .iter()
            .filter(|u| holding.binary_search(u).is_ok())
            .count();
        prop_assert_eq!(got.trace.units_routed, reached, "reached for {:?}", name);
        prop_assert_eq!(got.trace.units_probed, reached);
        prop_assert_eq!(got.trace.rows_read, 0);
        prop_assert_eq!(got.trace.version_chains, want.trace.version_chains);
        prop_assert_eq!(got.trace.version_records, want.trace.version_records);
    }
    Ok(())
}

/// A fresh file modelled on `template`.
fn fresh(template: &FileMetadata, id: u64, name: String, val: u64) -> FileMetadata {
    let mut f = template.clone();
    f.file_id = id;
    f.name = name;
    f.size = val;
    f.ctime += (val % 1000) as f64;
    f
}

/// Applies one drawn step to the system.
fn step(sys: &mut SmartStoreSystem, kind: u8, pick: u64, val: u64) {
    let live = sys.current_files();
    let some = &live[pick as usize % live.len()];
    match kind {
        // A pooled name under a small id: names and ids both repeat, and
        // a smaller id can land after a larger one in store order.
        0 => sys.apply_change(Change::Insert(fresh(some, pick % 400, pooled(val), val))),
        // A live file's exact copy: one id held twice under one name.
        1 => sys.apply_change(Change::Insert(some.clone())),
        // A live file's name under a new id.
        2 => sys.apply_change(Change::Insert(fresh(
            some,
            10_000 + pick,
            some.name.clone(),
            val,
        ))),
        // Rename by modify.
        3 => {
            let mut f = some.clone();
            f.name = pooled(val);
            sys.apply_change(Change::Modify(f))
        }
        // Modify that keeps the name.
        4 => {
            let mut f = some.clone();
            f.size = val;
            sys.apply_change(Change::Modify(f))
        }
        5 => sys.apply_change(Change::Delete(some.file_id)),
        // Deletes and modifies of ids no unit holds.
        6 => sys.apply_change(Change::Delete(9_000_000 + pick)),
        7 => sys.apply_change(Change::Modify(fresh(
            some,
            9_500_000 + pick,
            pooled(val),
            val,
        ))),
        8 => {
            let ids: Vec<u64> = live
                .iter()
                .skip(pick as usize % 7)
                .step_by(9)
                .map(|f| f.file_id)
                .chain([9_000_000 + val])
                .collect();
            sys.remove_files_bulk(&ids);
            None
        }
        // A unit added at run time, holding pooled and fresh names.
        _ => {
            let files = (0..5)
                .map(|i| {
                    let name = if i % 2 == 0 {
                        pooled(val + i)
                    } else {
                        format!("added_{pick}_{i}")
                    };
                    fresh(some, 20_000 + pick * 8 + i, name, val + i)
                })
                .collect();
            sys.add_unit(files);
            None
        }
    };
}

/// Makes one filter of the image lag, picked by `pick` among the live
/// nodes: with `tamper` 1 an index unit's filter becomes its first
/// child's alone, with 2 a leaf's filter forgets every name.
fn lag_a_filter(parts: &mut SystemParts, tamper: u8, pick: usize) {
    let nodes = &mut parts.tree.nodes;
    let live: Vec<usize> = (0..nodes.len())
        .filter(|id| !parts.tree.free.contains(id))
        .filter(|&id| (nodes[id].level > 0) == (tamper == 1))
        .collect();
    let Some(&n) = live.get(pick % live.len().max(1)) else {
        return;
    };
    match (tamper, nodes[n].children.first()) {
        (1, Some(&first)) => nodes[n].bloom = nodes[first].bloom.clone(),
        (2, _) => nodes[n].bloom.clear(),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn point_index_matches_the_bloom_descent(
        ops in prop::collection::vec((0u8..10, 0u64..1000, 1u64..1_000_000), 1..40),
        refresh in 0usize..3,
        versioning in 0u8..2,
        tamper in 0u8..3,
        seed in 0u64..1000,
    ) {
        let mut files = MetadataPopulation::generate(GeneratorConfig {
            n_files: 120,
            n_clusters: 4,
            seed,
            ..GeneratorConfig::default()
        })
        .files;
        // Every third file takes a pooled name: duplicates from the
        // start, within units and across them.
        for (i, f) in files.iter_mut().enumerate() {
            if i % 3 == 0 {
                f.name = pooled(i as u64 * 7 + seed);
            }
        }
        let cfg = SmartStoreConfig {
            bloom_bits: 64,
            bloom_hashes: 2,
            // Refresh often, now and then, or never during the stream.
            lazy_update_threshold: [0.02, 0.1, 100.0][refresh],
            ..SmartStoreConfig::default()
        };
        let mut sys = SmartStoreSystem::build(files.clone(), 6, cfg, seed);
        sys.set_versioning(versioning == 1);
        let mut names: Vec<String> = (0..POOL).map(pooled).collect();
        names.extend(files.iter().step_by(5).map(|f| f.name.clone()));
        names.extend((0..4).map(|i| format!("ghost_{i}")));
        names.extend((0..3).map(|i| format!("added_{i}_1")));
        check(&sys, &names)?;
        let half = ops.len() / 2;
        for (i, &(kind, pick, val)) in ops.iter().enumerate() {
            if i == half {
                let mut parts = sys.to_parts();
                lag_a_filter(&mut parts, tamper, seed as usize);
                sys = SmartStoreSystem::from_parts(parts);
                check(&sys, &names)?;
            }
            step(&mut sys, kind, pick, val);
            if kind == 9 {
                names.extend((0..5).map(|i| format!("added_{pick}_{i}")));
            }
            check(&sys, &names)?;
        }
    }
}
