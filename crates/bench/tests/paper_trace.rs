//! The paper's traces, rebuilt from public state (`cost::paper_point`,
//! `paper_range`, `paper_topk`), against the queries as served.
//!
//! A served query counts only what a running server can use; the §5
//! simulation's counts (tree nodes, group hops, the slowest unit's
//! records) are rebuilt here. So the paper's walk must reach the units
//! the served query reached: the same units routed and, for top-k, the
//! same MaxD prefix probed, although the paper's walk gives every unit
//! a heap of its own and the served query lends one heap to all. The
//! streams put version chains right at the k-th best (inserted ties,
//! modifies and deletes of the file holding it) and ask for `k` of 0,
//! 1, 3 and more than any unit holds.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use smartstore::versioning::Change;
use smartstore::{QueryOptions, SmartStoreConfig, SmartStoreSystem};
use smartstore_bench::cost::{paper_point, paper_range, paper_topk, PaperTrace};
use smartstore_trace::query_gen::QueryGenConfig;
use smartstore_trace::{
    FileMetadata, GeneratorConfig, MetadataPopulation, QueryDistribution, QueryWorkload,
};
use std::collections::BTreeSet;

fn population(n: usize, seed: u64) -> MetadataPopulation {
    MetadataPopulation::generate(GeneratorConfig {
        n_files: n,
        n_clusters: 24,
        seed,
        ..GeneratorConfig::default()
    })
}

fn system(n_files: usize, n_units: usize, seed: u64) -> (SmartStoreSystem, MetadataPopulation) {
    let pop = population(n_files, seed);
    let sys = SmartStoreSystem::build(
        pop.files.clone(),
        n_units,
        SmartStoreConfig::default(),
        seed,
    );
    (sys, pop)
}

#[test]
fn point_trace_is_the_public_route_plus_the_routed_units_probes() {
    // Serving answers a point lookup from the name index; the paper's
    // route survives as `paper_point`, which `repro` prices. Its trace
    // must be what the public pieces report when called one after
    // another: `route_point`, then `point_query` at every routed unit.
    // Its answer, and the live one, must be theirs too.
    let (mut sys, pop) = system(6000, 40, 23);
    // Version chains answer only after the units have; off, the trace
    // is the tree's and the units' alone.
    sys.set_versioning(false);
    // A stale index too: files the units hold that no filter knows.
    for f in pop.files.iter().take(40) {
        let mut moved = f.clone();
        moved.file_id += 1_000_000;
        moved.name = format!("late_{}", f.name);
        sys.apply_change(Change::Insert(moved));
    }
    let names = (pop.files.iter().step_by(8).map(|f| f.name.clone()))
        .chain((0..40).map(|i| format!("late_{}", pop.files[i].name)))
        .chain((0..210).map(|i| format!("ghost_{i:05}.dat")));
    let tree = sys.tree();
    let mut checked = 0;
    for name in names {
        let route = tree.route_point(&name);
        let groups: BTreeSet<_> = (route.target_units.iter())
            .map(|&u| tree.group_of_leaf(tree.leaf_of_unit(u).unwrap()))
            .collect();
        let hops = groups.len().saturating_sub(1);
        let mut want = PaperTrace {
            nodes_visited: route.nodes_visited,
            filters_probed: route.filters_probed,
            units_routed: route.target_units.len(),
            group_hops: hops,
            bearing_group_hops: hops,
            ..PaperTrace::default()
        };
        let mut ids = Vec::new();
        for &u in &route.target_units {
            let (hit, work) = sys.units()[u].point_query(&name);
            ids.extend(hit.map(|f| f.file_id));
            want.units_probed += 1;
            want.max_unit_records = want.max_unit_records.max(work.records);
        }
        ids.sort_unstable();
        ids.dedup();
        let paper = paper_point(&sys, &name);
        assert_eq!(paper.trace, want, "trace of {name:?}");
        assert_eq!(paper.file_ids, ids, "answer of {name:?}");
        assert_eq!(
            sys.query().point(&name).file_ids,
            ids,
            "live answer of {name:?}"
        );
        checked += 1;
    }
    assert_eq!(checked, 1000);
}

#[test]
fn most_queries_are_zero_hop() {
    // The headline grouping-efficiency claim (Fig. 8): most complex
    // queries are served inside a single semantic group.
    let (sys, pop) = system(3000, 30, 20);
    let w = QueryWorkload::generate(
        &pop,
        &QueryGenConfig {
            n_range: 50,
            n_topk: 50,
            n_point: 0,
            distribution: QueryDistribution::Zipf,
            seed: 7,
            ..Default::default()
        },
    );
    let ranges = w.ranges.iter().map(|q| paper_range(&sys, &q.lo, &q.hi));
    let topks = w.topks.iter().map(|q| paper_topk(&sys, &q.point, q.k));
    let (mut zero, mut total) = (0, 0);
    for out in ranges.chain(topks) {
        zero += usize::from(out.trace.bearing_group_hops == 0);
        total += 1;
    }
    let frac = zero as f64 / total as f64;
    assert!(
        frac > 0.5,
        "majority of Zipf queries should be 0-hop, got {frac} ({zero}/{total})"
    );
}

/// What holds of any paper trace of `sys`.
fn shape(sys: &SmartStoreSystem, t: &PaperTrace) -> Result<(), TestCaseError> {
    let n_groups = sys.tree().first_level_index_units().len();
    let biggest = sys.units().iter().map(|u| u.len()).max().unwrap_or(0);
    prop_assert!(t.bearing_group_hops <= t.group_hops, "{:?}", t);
    prop_assert!(t.group_hops < n_groups.max(1), "{:?}", t);
    prop_assert!(t.units_probed <= t.units_routed, "{:?}", t);
    prop_assert!(t.units_routed <= t.nodes_visited, "{:?}", t);
    prop_assert!(t.max_unit_records <= biggest, "{:?}", t);
    Ok(())
}

/// Top-k at `point` for every `k` of interest, and range boxes around
/// it: the paper's outcome against the served one.
fn check(sys: &SmartStoreSystem, point: &[f64]) -> Result<(), TestCaseError> {
    let biggest = sys.units().iter().map(|u| u.len()).max().unwrap_or(0);
    for k in [0, 1, 3, biggest + 5] {
        let live = sys.query().topk(point, &QueryOptions::default().with_k(k));
        let paper = paper_topk(sys, point, k);
        prop_assert_eq!(&paper.file_ids, &live.file_ids, "top-{} answer", k);
        prop_assert_eq!(paper.trace.units_routed, live.trace.units_routed);
        prop_assert_eq!(
            paper.trace.units_probed,
            live.trace.units_probed,
            "top-{}",
            k
        );
        prop_assert_eq!(paper.trace.version_chains, live.trace.version_chains);
        prop_assert_eq!(paper.trace.version_records, live.trace.version_records);
        if k == 0 {
            prop_assert_eq!(paper.trace.units_probed, paper.trace.units_routed);
        }
        shape(sys, &paper.trace)?;
    }
    for half in [0.0, 0.5, 2.0] {
        let lo: Vec<f64> = point.iter().map(|x| x - half).collect();
        let hi: Vec<f64> = point.iter().map(|x| x + half).collect();
        let live = sys.query().range(&lo, &hi, &QueryOptions::default());
        let paper = paper_range(sys, &lo, &hi);
        prop_assert_eq!(&paper.file_ids, &live.file_ids, "range ±{}", half);
        prop_assert_eq!(paper.trace.units_routed, live.trace.units_routed);
        prop_assert_eq!(paper.trace.units_probed, live.trace.units_probed);
        prop_assert_eq!(paper.trace.version_chains, live.trace.version_chains);
        prop_assert_eq!(paper.trace.version_records, live.trace.version_records);
        shape(sys, &paper.trace)?;
    }
    Ok(())
}

/// Applies one drawn change, most of them at the file holding the
/// `k`-th best distance from `point` for a drawn `k` of 1 to 4.
fn step(sys: &mut SmartStoreSystem, point: &[f64], op: (u8, u64, u64), next_id: &mut u64) {
    let (kind, pick, val) = op;
    let files = sys.current_files();
    let some = files[pick as usize % files.len()].clone();
    let k = 1 + (pick % 4) as usize;
    let best = sys.query().topk(point, &QueryOptions::default().with_k(k));
    let kth: FileMetadata = (best.file_ids.last())
        .and_then(|id| files.iter().find(|f| f.file_id == *id))
        .cloned()
        .unwrap_or_else(|| some.clone());
    let mut fresh = |mut f: FileMetadata| {
        f.file_id = *next_id;
        *next_id += 1;
        f
    };
    let change = match kind {
        // A copy under a new id: a tie at exactly the k-th best distance.
        0 => Change::Insert(fresh(kth)),
        // The k-th best nudged: in or out of the top k.
        1 => {
            let mut f = kth;
            f.mtime += (val % 5) as f64 * 360.0 - 720.0;
            f.access_count += (val % 3) as u32;
            Change::Modify(f)
        }
        2 => Change::Delete(kth.file_id),
        // A new file modelled on any stored one.
        3 => {
            let mut f = fresh(some);
            f.size = val;
            Change::Insert(f)
        }
        4 => Change::Delete(some.file_id),
        _ => {
            let mut f = some;
            f.size = val;
            Change::Modify(f)
        }
    };
    sys.apply_change(change);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn paper_walks_reach_the_units_served_queries_reach(
        ops in prop::collection::vec((0u8..6, 0u64..1000, 1u64..1_000_000), 1..30),
        refresh in 0usize..3,
        seed in 0u64..1000,
    ) {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files: 150,
            n_clusters: 4,
            seed,
            ..GeneratorConfig::default()
        });
        let cfg = SmartStoreConfig {
            // Refresh often, now and then, or never during the stream.
            lazy_update_threshold: [0.02, 0.1, 100.0][refresh],
            ..SmartStoreConfig::default()
        };
        let mut sys = SmartStoreSystem::build(pop.files.clone(), 6, cfg, seed);
        let point = pop.files[seed as usize % pop.files.len()].attr_vector();
        check(&sys, &point)?;
        let mut next_id = 1_000_000;
        for &op in &ops {
            step(&mut sys, &point, op, &mut next_id);
            check(&sys, &point)?;
        }
    }
}
