//! End-to-end tests of the assembled SmartStore system: build, query
//! correctness/recall, change streams, versioning, reconfiguration.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use smartstore::versioning::Change;
use smartstore::QueryOptions;
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_trace::query_gen::{recall, QueryGenConfig};
use smartstore_trace::{GeneratorConfig, MetadataPopulation, QueryDistribution, QueryWorkload};

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
fn build_preserves_every_file() {
    let (sys, pop) = system(2000, 20, 7);
    let mut stored: Vec<u64> = sys.current_files().iter().map(|f| f.file_id).collect();
    stored.sort_unstable();
    let mut expected: Vec<u64> = pop.files.iter().map(|f| f.file_id).collect();
    expected.sort_unstable();
    assert_eq!(stored, expected);
    sys.tree().check_invariants().unwrap();
}

#[test]
fn units_are_balanced() {
    // Gap-aware tiling trades exact balance for cluster integrity:
    // "group sizes are approximately equal" (Statement 1) — every unit
    // non-empty and within ±50% of the even share.
    let (sys, _) = system(2000, 20, 8);
    let even = 2000 / 20;
    let min = sys.units().iter().map(|u| u.len()).min().unwrap();
    let max = sys.units().iter().map(|u| u.len()).max().unwrap();
    assert!(min > 0, "no unit may be empty");
    assert!(
        min * 2 >= even && max <= even * 2,
        "approximately balanced: min {min}, max {max}, even {even}"
    );
}

#[test]
fn range_query_has_perfect_recall_on_fresh_index() {
    let (sys, pop) = system(2000, 20, 9);
    let w = QueryWorkload::generate(
        &pop,
        &QueryGenConfig {
            n_range: 40,
            n_topk: 0,
            n_point: 0,
            distribution: QueryDistribution::Zipf,
            seed: 1,
            ..Default::default()
        },
    );
    for q in &w.ranges {
        let out = sys.query().range(&q.lo, &q.hi, &QueryOptions::offline());
        let r = recall(&q.ideal, &out.file_ids);
        assert!(
            r > 0.999,
            "fresh index must answer ranges exactly, recall {r}"
        );
        // And no spurious results either.
        for id in &out.file_ids {
            assert!(q.ideal.contains(id), "spurious id {id}");
        }
    }
}

#[test]
fn topk_query_recall_on_fresh_index() {
    let (sys, pop) = system(2000, 20, 10);
    let w = QueryWorkload::generate(
        &pop,
        &QueryGenConfig {
            n_range: 0,
            n_topk: 40,
            n_point: 0,
            k: 8,
            distribution: QueryDistribution::Zipf,
            seed: 2,
            ..Default::default()
        },
    );
    let mut total = 0.0;
    for q in &w.topks {
        let out = sys
            .query()
            .topk(&q.point, &QueryOptions::offline().with_k(q.k));
        assert_eq!(out.file_ids.len(), 8);
        total += recall(&q.ideal, &out.file_ids);
    }
    let avg = total / 40.0;
    assert!(
        avg > 0.999,
        "MaxD-pruned top-k must equal exhaustive, got {avg}"
    );
}

#[test]
fn point_query_finds_files_and_rejects_ghosts() {
    let (sys, pop) = system(1500, 15, 11);
    let mut hits = 0;
    for f in pop.files.iter().step_by(37) {
        let out = sys.query().point(&f.name);
        if out.file_ids.contains(&f.file_id) {
            hits += 1;
        }
    }
    let probed = pop.files.iter().step_by(37).count();
    assert!(
        hits as f64 / probed as f64 > 0.88,
        "paper's point-query hit rate floor: {hits}/{probed}"
    );
    let ghost = sys.query().point("ghost_file_does_not_exist");
    assert!(ghost.file_ids.is_empty());
}

#[test]
fn point_trace_is_the_public_route_plus_the_routed_units_probes() {
    // `eval_point` walks the tree and probes the units in one pass over
    // one prepared key. What it reports must be what the public pieces
    // report when called one after another, each hashing for itself:
    // `route_point`, then `point_query` at every routed unit.
    use smartstore::routing::RouteTrace;
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
    let mut checked = 0;
    for name in names {
        let route = sys.tree().route_point(&name);
        let mut want = RouteTrace::routed(&route);
        want.bearing_group_hops = route.group_hops;
        let mut ids = Vec::new();
        for &u in &route.target_units {
            let (hit, work) = sys.units()[u].point_query(&name);
            ids.extend(hit.map(|f| f.file_id));
            want.add_unit(work);
        }
        ids.sort_unstable();
        ids.dedup();
        let got = sys.query().point(&name);
        assert_eq!(got.trace, want, "trace of {name:?}");
        assert_eq!(got.file_ids, ids, "answer of {name:?}");
        checked += 1;
    }
    assert_eq!(checked, 1000);
}

#[test]
fn topk_visits_few_units_thanks_to_maxd() {
    let (sys, pop) = system(3000, 30, 12);
    let w = QueryWorkload::generate(
        &pop,
        &QueryGenConfig {
            n_topk: 30,
            n_range: 0,
            n_point: 0,
            distribution: QueryDistribution::Zipf,
            seed: 3,
            ..Default::default()
        },
    );
    let mut total_units = 0;
    for q in &w.topks {
        let out = sys
            .query()
            .topk(&q.point, &QueryOptions::offline().with_k(q.k));
        total_units += out.trace.units_probed;
    }
    let avg = total_units as f64 / 30.0;
    assert!(
        avg < 30.0 * 0.8,
        "MaxD pruning should avoid probing most of the 30 units (avg {avg})"
    );
}

#[test]
fn versioning_recovers_recall_after_changes() {
    let (mut sys_v, pop) = system(2000, 20, 13);
    let (mut sys_nv, _) = system(2000, 20, 13);
    sys_v.set_versioning(true);
    sys_nv.set_versioning(false);

    // Mutate 10% of files: push them to a far corner of attribute space
    // so stale MBRs miss them.
    let mut current = pop.files.clone();
    for f in current.iter_mut().step_by(10) {
        f.size = f.size.saturating_mul(1000).max(1 << 30);
        f.mtime = (f.mtime * 2.0).max(1.0);
        let ch = Change::Modify(f.clone());
        sys_v.apply_change(ch.clone());
        sys_nv.apply_change(ch);
    }

    // Re-derive ideal answers on the mutated state.
    let scratch = MetadataPopulation {
        files: current.clone(),
        config: pop.config.clone(),
    };
    let w = QueryWorkload::generate(
        &scratch,
        &QueryGenConfig {
            n_range: 40,
            n_topk: 0,
            n_point: 0,
            distribution: QueryDistribution::Zipf,
            seed: 4,
            ..Default::default()
        },
    );
    let (mut rec_v, mut rec_nv) = (0.0, 0.0);
    for q in &w.ranges {
        rec_v += recall(
            &q.ideal,
            &sys_v
                .query()
                .range(&q.lo, &q.hi, &QueryOptions::offline())
                .file_ids,
        );
        rec_nv += recall(
            &q.ideal,
            &sys_nv
                .query()
                .range(&q.lo, &q.hi, &QueryOptions::offline())
                .file_ids,
        );
    }
    rec_v /= 40.0;
    rec_nv /= 40.0;
    assert!(
        rec_v >= rec_nv,
        "versioning must not hurt recall: {rec_v} vs {rec_nv}"
    );
    assert!(rec_v > 0.95, "versioned recall should be high, got {rec_v}");
}

#[test]
fn versioning_costs_extra_latency_and_space() {
    let (mut sys, pop) = system(1000, 10, 14);
    sys.set_versioning(true);
    // Record a batch of modifications.
    for f in pop.files.iter().step_by(5) {
        let mut g = f.clone();
        g.access_count += 1;
        sys.apply_change(Change::Modify(g));
    }
    assert!(sys.version_space_per_group() > 0.0, "versions occupy space");
    let stats = sys.stats();
    assert!(stats.version_bytes > 0);
}

#[test]
fn insert_change_places_semantically() {
    let (mut sys, pop) = system(1000, 10, 15);
    let mut newf = pop.files[0].clone();
    newf.file_id = 1_000_000;
    newf.name = "fresh_file".into();
    sys.apply_change(Change::Insert(newf.clone()));
    let total: usize = sys.units().iter().map(|u| u.len()).sum();
    assert_eq!(total, 1001);
    // Point query finds it via version recovery even though the tree's
    // Bloom replicas predate it.
    let out = sys.query().point("fresh_file");
    assert!(out.file_ids.contains(&1_000_000));
}

#[test]
fn delete_change_removes_file() {
    let (mut sys, pop) = system(1000, 10, 16);
    let victim = pop.files[123].file_id;
    sys.apply_change(Change::Delete(victim));
    assert!(sys.current_files().iter().all(|f| f.file_id != victim));
    // Range covering everything must not return the deleted id.
    let files = sys.current_files();
    let pop2 = MetadataPopulation {
        files,
        config: pop.config.clone(),
    };
    let (lo, hi) = pop2.attr_bounds();
    let out = sys.query().range(&lo, &hi, &QueryOptions::offline());
    assert!(!out.file_ids.contains(&victim));
}

#[test]
fn reconfigure_clears_versions_and_restores_recall() {
    let (mut sys, pop) = system(1500, 15, 17);
    for f in pop.files.iter().step_by(7) {
        let mut g = f.clone();
        g.size *= 3;
        sys.apply_change(Change::Modify(g));
    }
    sys.reconfigure();
    assert_eq!(sys.stats().version_bytes, 0, "reconfigure clears chains");
    sys.tree().check_invariants().unwrap();
    // Fresh index answers exactly again — even with versioning off.
    sys.set_versioning(false);
    let files = sys.current_files();
    let scratch = MetadataPopulation {
        files,
        config: pop.config.clone(),
    };
    let w = QueryWorkload::generate(
        &scratch,
        &QueryGenConfig {
            n_range: 20,
            n_topk: 0,
            n_point: 0,
            seed: 5,
            ..Default::default()
        },
    );
    for q in &w.ranges {
        let out = sys.query().range(&q.lo, &q.hi, &QueryOptions::offline());
        assert!(recall(&q.ideal, &out.file_ids) > 0.999);
    }
}

#[test]
fn add_unit_integrates_into_tree() {
    let (mut sys, _) = system(1000, 10, 18);
    let extra = population(80, 999);
    let mut files = extra.files;
    for (i, f) in files.iter_mut().enumerate() {
        f.file_id = 2_000_000 + i as u64;
    }
    let id = sys.add_unit(files);
    assert_eq!(id, 10);
    sys.tree().check_invariants().unwrap();
    assert_eq!(sys.units().len(), 11);
    let name = sys.units()[10].files()[0].name.clone();
    let expect = sys.units()[10].files()[0].file_id;
    let out = sys.query().point(&name);
    assert!(out.file_ids.contains(&expect));
}

#[test]
fn route_mode_changes_neither_answer_nor_trace() {
    // On-line and off-line routing reach the same units; what differs
    // is what the paper's simulation charges for the trip (priced from
    // the trace in `smartstore-bench`, Fig. 13).
    let (sys, pop) = system(2000, 24, 19);
    let w = QueryWorkload::generate(
        &pop,
        &QueryGenConfig {
            n_range: 25,
            n_topk: 25,
            n_point: 0,
            distribution: QueryDistribution::Zipf,
            seed: 6,
            ..Default::default()
        },
    );
    for q in &w.ranges {
        let on = sys.query().range(&q.lo, &q.hi, &QueryOptions::online());
        let off = sys.query().range(&q.lo, &q.hi, &QueryOptions::offline());
        assert_eq!(on, off);
        assert_eq!(on.trace.units_probed, on.trace.units_routed);
    }
    for q in &w.topks {
        let on = sys
            .query()
            .topk(&q.point, &QueryOptions::online().with_k(q.k));
        let off = sys
            .query()
            .topk(&q.point, &QueryOptions::offline().with_k(q.k));
        assert_eq!(on, off);
        assert!(on.trace.units_probed <= on.trace.units_routed);
    }
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
    let mut zero = 0;
    let mut total = 0;
    for q in &w.ranges {
        let out = sys.query().range(&q.lo, &q.hi, &QueryOptions::offline());
        if out.trace.bearing_group_hops == 0 {
            zero += 1;
        }
        total += 1;
    }
    for q in &w.topks {
        let out = sys
            .query()
            .topk(&q.point, &QueryOptions::offline().with_k(q.k));
        if out.trace.bearing_group_hops == 0 {
            zero += 1;
        }
        total += 1;
    }
    let frac = zero as f64 / total as f64;
    assert!(
        frac > 0.5,
        "majority of Zipf queries should be 0-hop, got {frac} ({zero}/{total})"
    );
}

#[test]
fn lazy_refresh_fires_after_threshold_and_counts_maintenance() {
    let (mut sys, pop) = system(1000, 10, 21);
    assert_eq!(sys.maintenance_messages, 0);
    // Push well past the 5% lazy-update threshold with modifications.
    for f in pop.files.iter().take(200) {
        let mut g = f.clone();
        g.access_count += 1;
        sys.apply_change(Change::Modify(g));
    }
    assert!(
        sys.maintenance_messages > 0,
        "20% churn must trigger lazy replica multicasts"
    );
    // Lazy refresh folds version chains back into the index, so the
    // retained version space stays bounded.
    let retained = sys.stats().version_bytes;
    let frozen = SmartStoreConfig {
        lazy_update_threshold: f64::INFINITY,
        ..SmartStoreConfig::default()
    };
    let mut sys_frozen = SmartStoreSystem::build(pop.files.clone(), 10, frozen, 21);
    for f in pop.files.iter().take(200) {
        let mut g = f.clone();
        g.access_count += 1;
        sys_frozen.apply_change(Change::Modify(g));
    }
    assert!(
        retained < sys_frozen.stats().version_bytes,
        "lazy refresh must flush version chains ({retained} vs {})",
        sys_frozen.stats().version_bytes
    );
}

#[test]
fn random_home_is_in_range_and_seed_deterministic() {
    let (mut a, _) = system(500, 5, 30);
    let (mut b, _) = system(500, 5, 30);
    let ha: Vec<usize> = (0..20).map(|_| a.random_home()).collect();
    let hb: Vec<usize> = (0..20).map(|_| b.random_home()).collect();
    assert_eq!(ha, hb, "same seed, same home sequence");
    assert!(ha.iter().all(|&h| h < 5));
}

#[test]
fn stats_are_internally_consistent() {
    let (sys, _) = system(1500, 15, 31);
    let s = sys.stats();
    assert_eq!(s.n_units, 15);
    assert!(s.n_groups >= 1 && s.n_groups <= 15);
    assert!(s.tree_height >= 2);
    assert!(s.tree_index_bytes > 0);
    assert!(s.per_unit_index_bytes >= sys.cfg.bloom_bits / 8);
}

#[test]
fn two_threads_query_one_engine_concurrently() {
    // The acceptance shape of the &self read path: many readers share
    // one system (queries never mutate), and every concurrent answer is
    // identical to the sequential one.
    let (mut sys, pop) = system(2000, 20, 40);
    // Churn first so version-chain recovery is part of what the
    // concurrent readers exercise.
    for f in pop.files.iter().step_by(17) {
        let mut g = f.clone();
        g.size = g.size.saturating_mul(7);
        sys.apply_change(Change::Modify(g));
    }
    let w = QueryWorkload::generate(
        &pop,
        &QueryGenConfig {
            n_range: 10,
            n_topk: 10,
            n_point: 10,
            distribution: QueryDistribution::Zipf,
            seed: 8,
            ..Default::default()
        },
    );
    let engine = sys.query();
    let expected_ranges: Vec<_> = w
        .ranges
        .iter()
        .map(|q| engine.range(&q.lo, &q.hi, &QueryOptions::offline()))
        .collect();
    let expected_topks: Vec<_> = w
        .topks
        .iter()
        .map(|q| engine.topk(&q.point, &QueryOptions::online().with_k(q.k)))
        .collect();
    let expected_points: Vec<_> = w.points.iter().map(|q| engine.point(&q.name)).collect();

    std::thread::scope(|s| {
        let ranges = s.spawn(|| {
            w.ranges
                .iter()
                .map(|q| engine.range(&q.lo, &q.hi, &QueryOptions::offline()))
                .collect::<Vec<_>>()
        });
        let topks = s.spawn(|| {
            w.topks
                .iter()
                .map(|q| engine.topk(&q.point, &QueryOptions::online().with_k(q.k)))
                .collect::<Vec<_>>()
        });
        let points = s.spawn(|| {
            w.points
                .iter()
                .map(|q| engine.point(&q.name))
                .collect::<Vec<_>>()
        });
        assert_eq!(ranges.join().unwrap(), expected_ranges);
        assert_eq!(topks.join().unwrap(), expected_topks);
        assert_eq!(points.join().unwrap(), expected_points);
    });
}

#[test]
fn bulk_removal_matches_change_stream_answers() {
    // remove_files_bulk refreshes summaries eagerly while the change
    // stream leaves them stale, but storage units are the source of
    // truth either way: every query answer must agree.
    let (mut bulk, pop) = system(1500, 15, 31);
    let mut seq = SmartStoreSystem::from_parts(bulk.to_parts());
    let ids: Vec<u64> = pop
        .files
        .iter()
        .step_by(7)
        .map(|f| f.file_id)
        .chain([u64::MAX])
        .collect();
    let removed = bulk.remove_files_bulk(&ids);
    assert_eq!(removed, ids.len() - 1, "unknown ids are ignored");
    for id in &ids {
        seq.apply_change(Change::Delete(*id));
    }
    for u in bulk.units() {
        u.check_columnar_coherence().unwrap();
    }
    assert_eq!(
        bulk.current_files().len(),
        pop.files.len() - removed,
        "ownership and stores agree on the survivor count"
    );

    let opts = QueryOptions::offline().with_k(8);
    for f in pop.files.iter().step_by(97) {
        let v = f.attr_vector();
        let lo: Vec<f64> = v.iter().map(|x| x - 0.5).collect();
        let hi: Vec<f64> = v.iter().map(|x| x + 0.5).collect();
        assert_eq!(
            bulk.query().range(&lo, &hi, &opts).file_ids,
            seq.query().range(&lo, &hi, &opts).file_ids
        );
        assert_eq!(
            bulk.query().topk(&v, &opts).file_ids,
            seq.query().topk(&v, &opts).file_ids
        );
        assert_eq!(
            bulk.query().point(&f.name).file_ids,
            seq.query().point(&f.name).file_ids
        );
    }
}
