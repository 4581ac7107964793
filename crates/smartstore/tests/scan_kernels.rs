//! Differential tests of the scan kernels.
//!
//! A system evaluates top-k with one heap per query, lent to every unit
//! it probes, and range by appending each unit's hits straight to the
//! query's result; each unit stores its rows in zone order. The
//! evaluation this replaced — a heap per unit merged after the unit,
//! slot-ordered unit answers, a record walk inside each unit — is kept
//! in `scan_reference/`. Over seeded mutation streams both must give
//! the same answers, distance bits included, and the same `RouteTrace`
//! except `rows_read`, which the reference does not prune (it must be
//! no lower than the system's on finite data).
//!
//! The streams cover ties at exactly the k-th best distance, NaN and
//! ±inf coordinates (poisoned zones, NaN distances of both signs), `k`
//! of 0, 1 and more than a unit holds, duplicate ids, raw inserts,
//! modifies and removes between refreshes, `remove_files_bulk`, and a
//! `to_parts`/`from_parts` round trip that rebuilds every unit's
//! columns from its records. After every summary refresh a unit's
//! centroid and MBR must equal the fold of its records in store order.

mod scan_reference;

use proptest::prelude::*;
use scan_reference::{Shadow, PER_UNIT, RECORD_WALK};
use smartstore::config::SmartStoreConfig;
use smartstore::system::SmartStoreSystem;
use smartstore::unit::StorageUnit;
use smartstore::versioning::Change;
use smartstore_trace::{FileMetadata, ATTR_DIMS};

/// A record whose attributes take few distinct values, so squared
/// distances tie often — within a unit, across units and at the k-th
/// place.
fn tie_file(id: u64, salt: u64) -> FileMetadata {
    FileMetadata {
        file_id: id,
        name: format!("f{}", id % 13),
        dir: "/d".into(),
        owner: (salt % 3) as u32,
        size: [100, 1_000, 10_000][(id % 3) as usize],
        ctime: 3600.0 * ((id / 3) % 3) as f64,
        mtime: 3600.0 * (salt % 2) as f64,
        atime: 3600.0 * ((id + salt) % 2) as f64,
        read_bytes: 0,
        write_bytes: (salt % 3) * 1_000,
        access_count: 0,
        proc_id: ((id + salt) % 4) as u32,
        truth_cluster: None,
    }
}

/// A copy of `f` with one attribute made non-finite: `kind` 0 gives a
/// NaN coordinate, 1 a `+inf`, 2 a `-inf`.
fn poisoned(mut f: FileMetadata, kind: u8) -> FileMetadata {
    match kind % 3 {
        0 => f.ctime = f64::NAN,
        1 => f.atime = f64::INFINITY,
        _ => f.mtime = f64::NEG_INFINITY,
    }
    f
}

/// Query points around `v`: on it, off it, and with a `+inf`, a `-inf`
/// and a NaN coordinate. Against a `±inf` row a `±inf` coordinate gives
/// `inf − inf`, a NaN whose sign the hardware picks (negative on x86),
/// and a NaN row gives a positive one.
fn probe_points(v: [f64; ATTR_DIMS]) -> Vec<[f64; ATTR_DIMS]> {
    let mut off = v;
    off[0] += 0.37;
    off[4] -= 1.1;
    let mut pos_inf = v;
    pos_inf[3] = f64::INFINITY;
    let mut neg_inf = v;
    neg_inf[2] = f64::NEG_INFINITY;
    let mut nan = v;
    nan[1] = f64::NAN;
    vec![v, off, pos_inf, neg_inf, nan]
}

/// Range boxes around `v`: a point box (ties on every face), a narrow
/// and a wide one, and one unbounded in two dimensions.
fn probe_boxes(v: [f64; ATTR_DIMS]) -> Vec<(Vec<f64>, Vec<f64>)> {
    let around = |half: f64| -> (Vec<f64>, Vec<f64>) {
        (
            v.iter().map(|x| x - half).collect(),
            v.iter().map(|x| x + half).collect(),
        )
    };
    let (mut lo, mut hi) = around(0.6);
    lo[1] = f64::NEG_INFINITY;
    hi[3] = f64::INFINITY;
    vec![around(0.0), around(0.6), around(3.0), (lo, hi)]
}

fn finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Checks every range and top-k probe around `v` on `sys` against the
/// record-walk reference (answers and trace) and the per-unit reference
/// (answers, and `rows_read` no lower on finite data).
fn assert_matches_reference(sys: &SmartStoreSystem, v: [f64; ATTR_DIMS], clean: bool) {
    let shadow = Shadow::of(sys);
    let biggest = sys.units().iter().map(|u| u.len()).max().unwrap_or(0);
    let opts = smartstore::QueryOptions::default();
    for (lo, hi) in probe_boxes(v) {
        let got = sys.query().range(&lo, &hi, &opts);
        let want = scan_reference::range(sys, &shadow, &RECORD_WALK, &lo, &hi);
        let per_unit = scan_reference::range(sys, &shadow, &PER_UNIT, &lo, &hi);
        assert_eq!(
            got.file_ids, want.file_ids,
            "range answer, box {lo:?}..{hi:?}"
        );
        assert_eq!(
            RouteTraceSansRows(got.trace),
            RouteTraceSansRows(want.trace),
            "range trace, box {lo:?}..{hi:?}"
        );
        assert_eq!(got, per_unit, "range against the per-unit scans");
    }
    for point in probe_points(v) {
        for k in [0, 1, 3, biggest + 5] {
            let opts = opts.with_k(k);
            let (got, out) = sys.query().topk_scored(&point, &opts);
            let (want, want_out) = scan_reference::topk(sys, &shadow, &RECORD_WALK, &point, k);
            let ctx = format!("top-{k} at {point:?}");
            assert_eq!(got.len(), want.len(), "{ctx}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.0, b.0, "{ctx}: ids");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{ctx}: distance bits");
            }
            assert_eq!(out.file_ids, want_out.file_ids, "{ctx}");
            assert_eq!(
                RouteTraceSansRows(out.trace),
                RouteTraceSansRows(want_out.trace),
                "{ctx}: trace"
            );
            let (_, per_unit_out) = scan_reference::topk(sys, &shadow, &PER_UNIT, &point, k);
            assert_eq!(
                per_unit_out.file_ids, out.file_ids,
                "{ctx}: per-unit answer"
            );
            if clean && finite(&point) {
                assert!(
                    out.trace.rows_read <= per_unit_out.trace.rows_read,
                    "{ctx}: one heap read {} rows, a heap per unit {}",
                    out.trace.rows_read,
                    per_unit_out.trace.rows_read
                );
            }
        }
    }
}

/// A `RouteTrace` compared on everything but `rows_read`, which is the
/// kernels' own measure and differs by design.
#[derive(Debug)]
struct RouteTraceSansRows(smartstore::routing::RouteTrace);

impl PartialEq for RouteTraceSansRows {
    fn eq(&self, other: &Self) -> bool {
        let (mut a, mut b) = (self.0, other.0);
        a.rows_read = 0;
        b.rows_read = 0;
        a == b
    }
}

/// Asserts a freshly refreshed unit's centroid and MBR are bit-equal to
/// the store-order fold of its records.
fn assert_store_order_summaries(u: &StorageUnit) {
    let (centroid, mbr) = scan_reference::store_order_summaries(u);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(u.centroid()),
        bits(&centroid),
        "centroid of unit {}",
        u.id
    );
    assert_eq!(u.mbr(), mbr.as_ref(), "MBR of unit {}", u.id);
}

/// Every unit rebuilt from its records and (stale) summaries, the way
/// a snapshot load rebuilds it.
fn reloaded(sys: &SmartStoreSystem) -> SmartStoreSystem {
    let mut parts = sys.to_parts();
    parts.units = parts
        .units
        .into_iter()
        .map(|u| {
            StorageUnit::from_parts(
                u.id,
                u.files().to_vec(),
                u.bloom().clone(),
                u.centroid().to_vec(),
                u.mbr().cloned(),
            )
        })
        .collect();
    SmartStoreSystem::from_parts(parts)
}

/// One raw step on a unit between refreshes; `a`/`b` pick what it
/// touches. Returns true when it refreshed the unit's summaries.
fn raw_step(u: &mut StorageUnit, kind: u8, a: u16, b: u16, next_id: &mut u64) -> bool {
    let pick = |n: usize| a as usize % n.max(1);
    match kind % 8 {
        // Fresh id, sometimes with a non-finite coordinate.
        0 | 1 => {
            *next_id += 1;
            let f = tie_file(*next_id, u64::from(b));
            u.insert_file_raw(if kind == 1 { poisoned(f, b as u8) } else { f });
        }
        // A second record under an existing id.
        2 if !u.is_empty() => {
            let mut f = u.files()[pick(u.len())].clone();
            f.size += u64::from(b % 7) * 1_000;
            u.insert_file_raw(f);
        }
        3 if !u.is_empty() => {
            let mut f = u.files()[pick(u.len())].clone();
            f.proc_id = u32::from(b % 5);
            f.mtime = 3600.0 * f64::from(b % 3);
            u.modify_file_raw(f);
        }
        4 if !u.is_empty() => {
            let id = u.files()[pick(u.len())].file_id;
            u.remove_file_raw(id);
        }
        // A refresh, unless a non-finite row would reach the MBR.
        5 if u.files().iter().all(|f| finite(&f.attr_vector())) => {
            u.recompute_summaries();
            return true;
        }
        // Bulk removal of every (b%3 + 2)-th record, one id listed twice.
        6 if !u.is_empty() && u.files().iter().all(|f| finite(&f.attr_vector())) => {
            let mut ids: Vec<u64> = u
                .files()
                .iter()
                .step_by(usize::from(b % 3) + 2)
                .map(|f| f.file_id)
                .collect();
            ids.push(ids[0]);
            u.remove_files(&ids);
            return true;
        }
        _ => {}
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A system driven through the change stream, then raw unit
    /// mutations, then a reload: every stage answers like the
    /// reference.
    #[test]
    fn system_scans_match_the_reference(
        n_files in 80usize..240,
        changes in prop::collection::vec((0u8..4, any::<u16>(), any::<u16>()), 0..60),
        raw in prop::collection::vec((0u8..8, any::<u16>(), any::<u16>(), 0usize..6), 0..40),
        probe in any::<u16>(),
    ) {
        let base: Vec<FileMetadata> =
            (0..n_files as u64).map(|i| tie_file(i, i % 5)).collect();
        let mut sys = SmartStoreSystem::build(base, 6, SmartStoreConfig::default(), 7);
        let mut next_id = 10_000u64;
        for (kind, a, b) in changes {
            let files = sys.current_files();
            if files.is_empty() && kind != 0 {
                continue;
            }
            let pick = |x: u16| files[x as usize % files.len()].clone();
            match kind {
                0 => {
                    next_id += 1;
                    sys.apply_change(Change::Insert(tie_file(next_id, u64::from(b))));
                }
                1 => {
                    sys.apply_change(Change::Delete(pick(a).file_id));
                }
                2 => {
                    let mut f = pick(a);
                    f.size = [100, 1_000, 10_000][b as usize % 3];
                    f.proc_id = u32::from(b % 4);
                    sys.apply_change(Change::Modify(f));
                }
                _ => {
                    let ids: Vec<u64> = (0..3u16)
                        .map(|i| pick(a.wrapping_add(i.wrapping_mul(b))).file_id)
                        .collect();
                    sys.remove_files_bulk(&ids);
                }
            }
        }
        let files = sys.current_files();
        let v = files
            .get(probe as usize % files.len().max(1))
            .map_or([0.5; ATTR_DIMS], |f| f.attr_vector());
        assert_matches_reference(&sys, v, true);

        // Raw unit mutations between refreshes, below the index.
        let mut parts = sys.to_parts();
        for (kind, a, b, unit) in raw {
            let u = &mut parts.units[unit];
            if raw_step(u, kind, a, b, &mut next_id) {
                assert_store_order_summaries(u);
            }
            prop_assert_eq!(u.check_columnar_coherence(), Ok(()));
        }
        let clean = parts
            .units
            .iter()
            .all(|u| u.files().iter().all(|f| finite(&f.attr_vector())));
        let raw_sys = SmartStoreSystem::from_parts(parts);
        assert_matches_reference(&raw_sys, v, clean);

        let again = reloaded(&raw_sys);
        for u in again.units() {
            prop_assert_eq!(u.check_columnar_coherence(), Ok(()));
        }
        assert_matches_reference(&again, v, clean);
    }

    /// One unit through a raw mutation stream: its own range and top-k
    /// answers equal the record walk's after every step, and every
    /// refresh leaves store-order summaries.
    #[test]
    fn unit_scans_match_the_record_walk(
        n_seed in 0usize..100,
        ops in prop::collection::vec((0u8..8, any::<u16>(), any::<u16>()), 0..50),
        probe in any::<u16>(),
    ) {
        let files: Vec<FileMetadata> = (0..n_seed as u64).map(|i| tie_file(i, i % 3)).collect();
        let mut u = StorageUnit::new(0, 512, 5, files);
        let mut next_id = 1_000u64;
        for (kind, a, b) in ops {
            if raw_step(&mut u, kind, a, b, &mut next_id) {
                assert_store_order_summaries(&u);
            }
            prop_assert_eq!(u.check_columnar_coherence(), Ok(()));
            let v = if u.is_empty() {
                [0.5; ATTR_DIMS]
            } else {
                u.files()[probe as usize % u.len()].attr_vector()
            };
            let v = if finite(&v) { v } else { tie_file(0, 0).attr_vector() };
            for (lo, hi) in probe_boxes(v) {
                let (ids, work) = u.range_query(&lo, &hi);
                let (want, want_work) = (RECORD_WALK.range)(&u, &lo, &hi);
                prop_assert_eq!(ids, want);
                prop_assert_eq!(work.records, want_work.records);
            }
            for point in probe_points(v) {
                for k in [0, 1, 4, u.len() + 3] {
                    let (got, work) = u.topk_query(&point, k);
                    let (want, _) = (RECORD_WALK.topk)(&u, &point, k);
                    prop_assert_eq!(work.records, u.len());
                    prop_assert!(work.rows_read <= u.len());
                    prop_assert_eq!(got.len(), want.len());
                    for (x, y) in got.iter().zip(&want) {
                        prop_assert_eq!(x.0, y.0);
                        prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
                    }
                }
            }
        }
    }
}

/// Three zones of identical rows, ids falling with store slot. Equal
/// Z-order keys keep store order, so the first zone read holds the
/// largest ids, and every later zone lies at exactly the full heap's
/// k-th best distance, 0: the walk must read on past a tie (stop only
/// on a box *strictly* farther), or the smaller ids are lost.
#[test]
fn ties_at_the_kth_best_are_read_across_zones() {
    let base = tie_file(1, 1);
    let files: Vec<FileMetadata> = (0..96u64)
        .map(|i| FileMetadata {
            file_id: 1_000 - i,
            name: format!("t{i}"),
            ..base.clone()
        })
        .collect();
    let u = StorageUnit::new(0, 512, 5, files);
    let q = base.attr_vector();
    for k in [1, 5, 32, 40] {
        let (got, _) = u.topk_query(&q, k);
        let (want, _) = (RECORD_WALK.topk)(&u, &q, k);
        assert_eq!(got, want, "top-{k}");
        assert_eq!(got[0].0, 905);
    }
    // Across units too: the heap a system lends arrives full at
    // distance 0 from the units probed before.
    let mut sys = SmartStoreSystem::build(
        (0..200u64).map(|i| tie_file(i, i % 2)).collect(),
        4,
        SmartStoreConfig::default(),
        3,
    );
    sys.set_versioning(false);
    assert_matches_reference(&sys, tie_file(7, 1).attr_vector(), true);
}

/// A NaN distance is offered to the heap like any other: `total_cmp`
/// ranks a negative NaN (`inf − inf` on x86) before every number, so a
/// row at `+inf` queried with `+inf` can be the nearest, and a positive
/// NaN row still fills a heap that has room.
#[test]
fn nan_distances_are_offered_to_the_heap() {
    let mut files: Vec<FileMetadata> = (0..40u64).map(|i| tie_file(i, i % 3)).collect();
    files[17] = poisoned(files[17].clone(), 1);
    let mut u = StorageUnit::new(0, 512, 5, Vec::new());
    for f in files {
        u.insert_file_raw(f);
    }
    u.insert_file_raw(poisoned(tie_file(99, 0), 0));
    let mut q = tie_file(3, 0).attr_vector();
    q[3] = f64::INFINITY;
    for k in [1, 3, u.len(), u.len() + 1] {
        let (got, _) = u.topk_query(&q, k);
        let (want, _) = (RECORD_WALK.topk)(&u, &q, k);
        assert_eq!(got.len(), want.len(), "top-{k}");
        for (a, b) in got.iter().zip(&want) {
            assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()), "top-{k}");
        }
    }
    let (all, _) = u.topk_query(&q, u.len());
    assert!(all.iter().any(|&(_, d)| d.is_nan() && d.is_sign_positive()));
}

/// A refresh folds the rows in store order, not in the zone order the
/// columns are stored in.
#[test]
fn refreshed_summaries_fold_in_store_order() {
    let files: Vec<FileMetadata> = (0..300u64)
        .map(|i| FileMetadata {
            size: 100 + i * 7_919 % 100_000,
            read_bytes: i * 104_729 % 1_000_000,
            ..tie_file(i, i % 5)
        })
        .collect();
    let mut u = StorageUnit::new(0, 512, 5, files);
    u.remove_file_raw(5);
    u.recompute_summaries();
    assert_store_order_summaries(&u);
}
