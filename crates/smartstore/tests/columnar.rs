//! Columnar-projection coherence and bit-identity tests.
//!
//! The storage unit keeps a derived SoA projection (flat coords table,
//! id column, zone map) next to the record vec, and the system keeps a
//! derived name index over all its units. These properties pin the two
//! invariants the columnar read path rests on:
//!
//! 1. **Coherence** — after *any* interleaving of raw and non-raw
//!    mutations (inserts, removals, bulk removal, in-place modifies,
//!    summary recomputes), the projection equals a from-scratch rebuild
//!    from the record vec, and the name index a rebuild from the units.
//! 2. **Bit-identity** — the columnar query path answers exactly like
//!    the pre-columnar record walk, kept here as a reference
//!    implementation: per-record `attr_vector()` scans, a full
//!    sort-then-truncate top-k, and a prefix name scan for point
//!    lookups. System-level `QueryOutcome`s (range/top-k/point, both
//!    route modes) must also be bit-identical between a live mutated
//!    system and its `from_parts(to_parts())` reopen, which rebuilds
//!    every unit's projection from serialized records.
//!
//! Coherence includes the unit's zone map (every slot once in the
//! clustered order, every row inside its zone's box), so the streams
//! below also drive the zone-skipping range and top-k scans, NaN rows
//! included, and the cross-unit bound the top-k walk passes down.

use proptest::prelude::*;
use smartstore::config::SmartStoreConfig;
use smartstore::grouping::{
    partition_balanced, partition_balanced_flat, partition_tiled, partition_tiled_flat,
};
use smartstore::query::QueryOptions;
use smartstore::routing::RouteMode;
use smartstore::system::SmartStoreSystem;
use smartstore::unit::StorageUnit;
use smartstore::versioning::Change;
use smartstore_rtree::Rect;
use smartstore_trace::{FileMetadata, ATTR_DIMS};

// ---------------------------------------------------------------------
// Reference implementation: the pre-columnar record walk.
// ---------------------------------------------------------------------

/// Pre-columnar point lookup: Bloom probe, then prefix scan in store
/// order. Returns the hit and the number of records the scan examined.
fn ref_point<'a>(u: &'a StorageUnit, name: &str) -> (Option<&'a FileMetadata>, usize) {
    if !u.bloom().contains(name.as_bytes()) {
        return (None, 0);
    }
    let mut records = 0;
    for f in u.files() {
        records += 1;
        if f.name == name {
            return (Some(f), records);
        }
    }
    (None, records)
}

/// Pre-columnar range scan: MBR pre-check, then a per-record
/// `attr_vector()` walk.
fn ref_range(u: &StorageUnit, lo: &[f64], hi: &[f64]) -> (Vec<u64>, usize) {
    if let Some(m) = u.mbr() {
        let q = Rect::new(lo.to_vec(), hi.to_vec());
        if !m.intersects(&q) {
            return (Vec::new(), 0);
        }
    }
    let mut out = Vec::new();
    for f in u.files() {
        let v = f.attr_vector();
        if v.iter()
            .zip(lo.iter().zip(hi))
            .all(|(&x, (&l, &h))| l <= x && x <= h)
        {
            out.push(f.file_id);
        }
    }
    (out, u.files().len())
}

/// Pre-columnar top-k: score every record, full sort by
/// `(distance, id)`, truncate.
fn ref_topk(u: &StorageUnit, point: &[f64], k: usize) -> Vec<(u64, f64)> {
    let mut scored: Vec<(u64, f64)> = u
        .files()
        .iter()
        .map(|f| {
            let d = f
                .attr_vector()
                .iter()
                .zip(point)
                .map(|(&a, &q)| (a - q) * (a - q))
                .sum::<f64>();
            (f.file_id, d)
        })
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

// ---------------------------------------------------------------------
// Mutation-stream machinery.
// ---------------------------------------------------------------------

/// Deterministic synthetic record. Names repeat (`id % 7`) so duplicate
/// filenames within one unit are a routine occurrence, not a corner
/// case.
fn make_file(id: u64, salt: u64) -> FileMetadata {
    FileMetadata {
        file_id: id,
        name: format!("f{}", id % 7),
        dir: "/d".into(),
        owner: (salt % 5) as u32,
        size: 100 + (id * 37 + salt * 13) % 100_000,
        ctime: (id as f64 * 11.0 + salt as f64) % 5000.0,
        mtime: (id as f64 * 17.0 + salt as f64 * 3.0) % 5000.0,
        atime: (id as f64 * 23.0 + salt as f64 * 7.0) % 5000.0,
        read_bytes: (id * 101 + salt) % 1_000_000,
        write_bytes: (id * 53) % 500_000,
        access_count: ((id + salt) % 300) as u32,
        proc_id: ((id * 3 + salt) % 16) as u32,
        truth_cluster: None,
    }
}

/// One step of an arbitrary interleaved mutation stream; `a`/`b` are
/// free parameters the op interprets against the unit's current state.
#[derive(Clone, Copy, Debug)]
struct Op {
    kind: u8,
    a: u16,
    b: u16,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..7, any::<u16>(), any::<u16>()).prop_map(|(kind, a, b)| Op { kind, a, b })
}

fn apply_op(u: &mut StorageUnit, op: Op, next_id: &mut u64) {
    let pick = |n: usize, x: u16| x as usize % n.max(1);
    match op.kind {
        // Summary-refreshing insert.
        0 => {
            *next_id += 1;
            u.insert_file(make_file(*next_id, op.b as u64));
        }
        // Raw insert (summaries stay stale).
        1 => {
            *next_id += 1;
            u.insert_file_raw(make_file(*next_id, op.b as u64));
        }
        // Summary-refreshing removal of an existing file.
        2 => {
            if !u.is_empty() {
                let id = u.files()[pick(u.len(), op.a)].file_id;
                u.remove_file(id);
            }
        }
        // Raw removal.
        3 => {
            if !u.is_empty() {
                let id = u.files()[pick(u.len(), op.a)].file_id;
                u.remove_file_raw(id);
            }
        }
        // In-place modify, sometimes renaming the record.
        4 => {
            if !u.is_empty() {
                let mut f = u.files()[pick(u.len(), op.a)].clone();
                f.size = f.size.wrapping_add(op.b as u64) % 1_000_000;
                f.atime = (f.atime + 1.0) % 5000.0;
                if op.b.is_multiple_of(3) {
                    f.name = format!("f{}", op.b % 11);
                }
                u.modify_file_raw(f);
            }
        }
        // Lazy-update refresh.
        5 => u.recompute_summaries(),
        // Bulk removal: every (b%4 + 2)-th file in one compaction.
        _ => {
            let stride = (op.b as usize % 4) + 2;
            let ids: Vec<u64> = u
                .files()
                .iter()
                .step_by(stride)
                .map(|f| f.file_id)
                .collect();
            u.remove_files(&ids);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Coherence + unit-level bit-identity under arbitrary interleaved
    /// raw/non-raw mutation streams.
    #[test]
    fn columnar_projection_stays_coherent(
        n_seed in 0usize..130,
        ops in prop::collection::vec(op_strategy(), 0..60),
        probe in any::<u16>(),
    ) {
        let seed_files: Vec<FileMetadata> =
            (0..n_seed as u64).map(|i| make_file(i, 1)).collect();
        let mut u = StorageUnit::new(0, 512, 5, seed_files);
        let mut next_id = n_seed as u64;
        for op in ops {
            apply_op(&mut u, op, &mut next_id);
            prop_assert!(u.check_columnar_coherence().is_ok(),
                "incoherent after {op:?}: {:?}", u.check_columnar_coherence());
        }

        // Point: every live name plus a ghost answers identically to
        // the prefix scan (the *first* file in store order, even with
        // duplicate names), charged by the indexed rule.
        for name in ["f0", "f3", "f6", "ghost_name"] {
            let (got, work) = u.point_query(name);
            let (want, _) = ref_point(&u, name);
            prop_assert_eq!(got.map(|f| f.file_id), want.map(|f| f.file_id));
            if got.is_some() {
                prop_assert_eq!(work.records, 1, "a hit is charged one record");
            }
        }

        // Range and top-k around a probe file (or a fixed box when the
        // unit drained): flat-table scan ≡ record walk, bit for bit.
        let v = if u.is_empty() {
            [0.5; ATTR_DIMS]
        } else {
            u.files()[probe as usize % u.len()].attr_vector()
        };
        // A wide box and a tight one: zones get covered, cut and
        // skipped.
        for half in [0.7, 0.2] {
            let lo: Vec<f64> = v.iter().map(|x| x - half).collect();
            let hi: Vec<f64> = v.iter().map(|x| x + half).collect();
            let (ids, work) = u.range_query(&lo, &hi);
            let (want_ids, want_records) = ref_range(&u, &lo, &hi);
            prop_assert_eq!(ids, want_ids);
            prop_assert_eq!(work.records, want_records);
        }

        for k in [0usize, 1, 4, 1000] {
            let (top, work) = u.topk_query(&v, k);
            let want = ref_topk(&u, &v, k);
            prop_assert_eq!(top.len(), want.len());
            for (a, b) in top.iter().zip(&want) {
                prop_assert_eq!(a.0, b.0);
                prop_assert!(a.1.to_bits() == b.1.to_bits(),
                    "distance bits diverged: {} vs {}", a.1, b.1);
            }
            prop_assert_eq!(work.records, u.len());
        }
    }

    /// System-level `QueryOutcome` bit-identity: a live system mutated
    /// through the change stream answers exactly like its
    /// `from_parts(to_parts())` reopen, whose units rebuilt their
    /// columnar projection from serialized records.
    #[test]
    fn query_outcomes_survive_projection_rebuild(
        stream in prop::collection::vec((0u8..3, any::<u16>(), any::<u16>()), 0..40),
        probe in any::<u16>(),
    ) {
        let base: Vec<FileMetadata> = (0..120u64).map(|i| make_file(i, 2)).collect();
        let mut sys = SmartStoreSystem::build(base, 6, SmartStoreConfig::default(), 9);
        let mut next_id = 200u64;
        for (kind, a, b) in stream {
            let change = match kind {
                0 => {
                    next_id += 1;
                    Change::Insert(make_file(next_id, b as u64))
                }
                1 => {
                    let files = sys.current_files();
                    if files.is_empty() { continue; }
                    Change::Delete(files[a as usize % files.len()].file_id)
                }
                _ => {
                    let files = sys.current_files();
                    if files.is_empty() { continue; }
                    let mut f = files[a as usize % files.len()].clone();
                    f.size = f.size.wrapping_add(b as u64) % 1_000_000;
                    Change::Modify(f)
                }
            };
            sys.apply_change(change);
            prop_assert_eq!(sys.check_name_index(), Ok(()));
        }
        let reopened = SmartStoreSystem::from_parts(sys.to_parts());
        for u in reopened.units() {
            prop_assert!(u.check_columnar_coherence().is_ok());
        }
        prop_assert_eq!(reopened.check_name_index(), Ok(()));

        let files = sys.current_files();
        prop_assume!(!files.is_empty());
        let f = &files[probe as usize % files.len()];
        let v = f.attr_vector();
        let lo: Vec<f64> = v.iter().map(|x| x - 0.4).collect();
        let hi: Vec<f64> = v.iter().map(|x| x + 0.4).collect();
        for mode in RouteMode::ALL {
            let opts = QueryOptions::with_mode(mode).with_k(5);
            prop_assert_eq!(
                sys.query().range(&lo, &hi, &opts),
                reopened.query().range(&lo, &hi, &opts)
            );
            prop_assert_eq!(
                sys.query().topk(&v, &opts),
                reopened.query().topk(&v, &opts)
            );
            let (s1, o1) = sys.query().topk_scored(&v, &opts);
            let (s2, o2) = reopened.query().topk_scored(&v, &opts);
            prop_assert_eq!(o1, o2);
            prop_assert_eq!(s1.len(), s2.len());
            for (a, b) in s1.iter().zip(&s2) {
                prop_assert_eq!(a.0, b.0);
                prop_assert!(a.1.to_bits() == b.1.to_bits());
            }
        }
        prop_assert_eq!(sys.query().point(&f.name), reopened.query().point(&f.name));
        prop_assert_eq!(sys.query().point("ghost"), reopened.query().point("ghost"));
    }

    /// The flat (SoA) partition entry points are bit-identical to the
    /// slice-of-vectors forms over the same values.
    #[test]
    fn flat_partitions_match_vec_partitions(
        n in 8usize..60,
        n_parts in 2usize..6,
        seed in any::<u64>(),
    ) {
        prop_assume!(n >= n_parts);
        let files: Vec<FileMetadata> = (0..n as u64).map(|i| make_file(i, seed % 97)).collect();
        let vectors: Vec<Vec<f64>> =
            files.iter().map(|f| f.attr_vector().to_vec()).collect();
        let table = smartstore_trace::attr_table(&files);
        prop_assert_eq!(
            partition_tiled(&vectors, n_parts, 3),
            partition_tiled_flat(&table, ATTR_DIMS, n_parts, 3)
        );
        prop_assert_eq!(
            partition_balanced(&vectors, n_parts, 3, seed),
            partition_balanced_flat(&table, ATTR_DIMS, n_parts, 3, seed)
        );
    }
}

/// NaN query points must not panic the top-k path (the pre-columnar
/// sort's `partial_cmp().unwrap()` did) — `total_cmp` gives them a
/// deterministic order instead.
#[test]
fn topk_with_nan_point_does_not_panic() {
    let files: Vec<FileMetadata> = (0..20u64).map(|i| make_file(i, 3)).collect();
    let u = StorageUnit::new(0, 512, 5, files);
    let mut q = [0.0; ATTR_DIMS];
    q[2] = f64::NAN;
    let (top, work) = u.topk_query(&q, 5);
    assert_eq!(top.len(), 5);
    assert_eq!(work.records, 20);
}

/// Asserts a unit's range and top-k answers equal the record walk's,
/// distance bits included.
fn assert_matches_reference(u: &StorageUnit, lo: &[f64], hi: &[f64], point: &[f64]) {
    assert_eq!(u.range_query(lo, hi).0, ref_range(u, lo, hi).0);
    for k in [1usize, 5, 40] {
        let got = u.topk_query(point, k).0;
        let want = ref_topk(u, point, k);
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "distance bits of id {}", a.0);
        }
    }
}

/// Non-finite coordinates poison their zone's box, so no zone holding
/// one is ever skipped or wholly emitted: every answer matches the
/// record walk. NaN rows reach a unit only through the raw mutation
/// paths and a reopen (an MBR cannot hold NaN), and with no MBR yet a
/// NaN query bound reaches the zone scan too.
#[test]
fn zone_scans_with_nan_rows_match_reference() {
    let mut raw = StorageUnit::new(0, 512, 5, Vec::new());
    for i in 0..150u64 {
        let mut f = make_file(i, 4);
        match i % 17 {
            0 => f.ctime = f64::NAN,
            5 => f.atime = f64::INFINITY,
            _ => {}
        }
        raw.insert_file_raw(f);
    }
    // Reopened: the zone map is clustered with the NaN rows in it.
    let mut reopened = StorageUnit::from_parts(
        0,
        raw.files().to_vec(),
        raw.bloom().clone(),
        raw.centroid().to_vec(),
        None,
    );
    let probe = raw.files()[3].attr_vector();
    let mut boxes: Vec<(Vec<f64>, Vec<f64>)> = [0.3, 1.0, 1e9]
        .iter()
        .map(|&half| {
            (
                probe.iter().map(|x| x - half).collect(),
                probe.iter().map(|x| x + half).collect(),
            )
        })
        .collect();
    let mut nan_lo = boxes[1].0.clone();
    nan_lo[0] = f64::NAN;
    boxes.push((nan_lo, boxes[1].1.clone()));
    let mut nan_point = probe;
    nan_point[1] = f64::NAN;
    let mut inf_point = probe;
    inf_point[3] = f64::INFINITY;
    let check = |u: &StorageUnit| {
        assert_eq!(u.check_columnar_coherence(), Ok(()));
        for (lo, hi) in &boxes {
            for point in [&probe, &nan_point, &inf_point] {
                assert_matches_reference(u, lo, hi, point);
            }
        }
    };
    check(&raw);
    check(&reopened);
    // In place: a clean zone turns NaN, and a NaN row lands in the tail.
    let mut f = reopened.files()[4].clone();
    f.mtime = f64::NAN;
    reopened.modify_file_raw(f);
    let mut g = make_file(9_000, 4);
    g.ctime = f64::NAN;
    reopened.insert_file_raw(g);
    check(&reopened);
}

/// Records whose attributes take few distinct values, so squared
/// distances tie often — across units and at the k-th place.
fn tie_file(id: u64, salt: u64) -> FileMetadata {
    let mut f = make_file(id, salt);
    f.size = [100, 1_000][(id % 2) as usize];
    f.ctime = 3600.0 * ((id / 2) % 3) as f64;
    f.mtime = f.ctime;
    f.atime = 3600.0 * (salt % 2) as f64;
    f.read_bytes = 0;
    f.write_bytes = 0;
    f.access_count = 0;
    f.proc_id = ((id + salt) % 4) as u32;
    f
}

/// The system's top-k walk passes its running cross-unit k-th best into
/// every unit scan. Its `(id, distance)` pairs must equal, bit for bit,
/// the same MaxD walk over unbounded unit scans, on a system taken
/// through a mutation stream, including queries where the distance at
/// the k-th place is tied.
#[test]
fn bounded_topk_walk_matches_unbounded_walk() {
    let base: Vec<FileMetadata> = (0..600u64).map(|i| tie_file(i, i % 5)).collect();
    let mut sys = SmartStoreSystem::build(base, 8, SmartStoreConfig::default(), 3);
    for i in 0..300u64 {
        let files = sys.current_files();
        let change = match i % 3 {
            0 => Change::Insert(tie_file(1_000 + i, i % 7)),
            1 => Change::Delete(files[(i as usize * 31) % files.len()].file_id),
            _ => {
                let mut f = files[(i as usize * 17) % files.len()].clone();
                f.proc_id = (f.proc_id + 1) % 4;
                Change::Modify(f)
            }
        };
        sys.apply_change(change);
    }
    // Compare the merged unit answers themselves, not the version
    // overlay applied after them.
    sys.set_versioning(false);
    let files = sys.current_files();
    let mut ties_at_k = 0;
    for (qi, f) in files.iter().step_by(37).enumerate() {
        let point = f.attr_vector();
        for k in [1usize, 3, 10, 50] {
            let opts = QueryOptions::default().with_k(k);
            let (got, _) = sys.query().topk_scored(&point, &opts);
            let want = unbounded_walk(&sys, &point, k);
            assert_eq!(got.len(), want.len(), "query {qi}, k={k}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.0, b.0, "query {qi}, k={k}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {qi}, k={k}");
            }
            let mut all: Vec<f64> = sys
                .units()
                .iter()
                .flat_map(|u| u.topk_query(&point, k + 1).0)
                .map(|(_, d)| d)
                .collect();
            all.sort_by(f64::total_cmp);
            if all.len() > k && all[k - 1] == all[k] {
                ties_at_k += 1;
            }
        }
    }
    assert!(ties_at_k > 0, "no query tied at the k-th place");
}

/// `eval_topk_scored`'s MaxD walk with every unit scanned unbounded.
fn unbounded_walk(sys: &SmartStoreSystem, point: &[f64], k: usize) -> Vec<(u64, f64)> {
    let by_distance = |a: &(u64, f64), b: &(u64, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
    let mut best: Vec<(u64, f64)> = Vec::new();
    for (u, lower_bound) in sys.tree().route_topk(point).0 {
        let max_d = if best.len() == k {
            best[k - 1].1
        } else {
            f64::INFINITY
        };
        if lower_bound > max_d {
            break;
        }
        best.extend(sys.units()[u].topk_query(point, k).0);
        best.sort_by(by_distance);
        best.truncate(k);
    }
    best
}
