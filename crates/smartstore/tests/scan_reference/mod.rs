//! The system's range and top-k evaluation as it stood before each
//! query lent one top-k heap to all its units and range hits went
//! straight into the query's result: the reference that
//! `tests/scan_kernels.rs` checks the serving path against, and that
//! the `scan_family` micro-bench times it against.
//!
//! Top-k: every probed unit fills a heap of its own, which is merged
//! into the query's k best after the unit; the query's k-th best is the
//! MaxD bound that stops the best-first walk over units (§3.3.2).
//! Range: every routed unit returns its hits in store slot order, the
//! query concatenates them and sorts and dedups once at the end. The
//! version overlay (§4.4) is the system's own, copied. What a unit
//! does inside is a parameter ([`UnitScans`]): the record walk
//! ([`RECORD_WALK`]) shares no code with the zone-map kernels and is
//! the oracle; [`PER_UNIT`] runs the units' public one-unit scans.

#![allow(dead_code)] // each includer uses its own part

use smartstore::routing::RouteTrace;
use smartstore::system::{QueryOutcome, SmartStoreSystem};
use smartstore::unit::{LocalWork, StorageUnit};
use smartstore::versioning::{Change, VersionStore};
use smartstore_rtree::Rect;
use smartstore_trace::ATTR_DIMS;

/// A unit's range hits in ascending store slot order.
pub type RangeScan = fn(&StorageUnit, &[f64], &[f64]) -> (Vec<u64>, LocalWork);

/// A unit's k nearest `(id, squared distance)` pairs, ascending by
/// `(distance, id)` under `total_cmp`.
pub type TopkScan = fn(&StorageUnit, &[f64], usize) -> (Vec<(u64, f64)>, LocalWork);

/// What one unit does for one range or top-k query.
pub struct UnitScans {
    pub range: RangeScan,
    pub topk: TopkScan,
}

/// Per-record scans over `files()`: every row projected and read.
pub const RECORD_WALK: UnitScans = UnitScans {
    range: walk_range,
    topk: walk_topk,
};

/// The units' own one-unit scans, each with a fresh heap.
pub const PER_UNIT: UnitScans = UnitScans {
    range: StorageUnit::range_query,
    topk: StorageUnit::topk_query,
};

/// MBR pre-check through a query `Rect`, then every record's
/// `attr_vector()` tested against the box, in store order.
fn walk_range(u: &StorageUnit, lo: &[f64], hi: &[f64]) -> (Vec<u64>, LocalWork) {
    if let Some(m) = u.mbr() {
        if !m.intersects(&Rect::new(lo.to_vec(), hi.to_vec())) {
            return (Vec::new(), LocalWork::default());
        }
    }
    let ids = u
        .files()
        .iter()
        .filter(|f| {
            f.attr_vector()
                .iter()
                .zip(lo.iter().zip(hi))
                .all(|(&x, (&l, &h))| l <= x && x <= h)
        })
        .map(|f| f.file_id)
        .collect();
    (ids, full_scan(u))
}

/// Every record scored, sorted by `(distance, id)`, truncated to `k`.
fn walk_topk(u: &StorageUnit, point: &[f64], k: usize) -> (Vec<(u64, f64)>, LocalWork) {
    let mut scored: Vec<(u64, f64)> = u
        .files()
        .iter()
        .map(|f| (f.file_id, squared_distance(&f.attr_vector(), point)))
        .collect();
    scored.sort_by(by_distance);
    scored.truncate(k);
    let work = if k == 0 {
        LocalWork {
            records: u.len(),
            ..LocalWork::default()
        }
    } else {
        full_scan(u)
    };
    (scored, work)
}

fn full_scan(u: &StorageUnit) -> LocalWork {
    LocalWork {
        records: u.len(),
        rows_read: u.len(),
    }
}

/// The squared distance, summed in dimension order from `0.0` exactly
/// as every scan of the system does.
fn squared_distance(row: &[f64], point: &[f64]) -> f64 {
    let mut d = 0.0;
    for (&a, &q) in row.iter().zip(point) {
        d += (a - q) * (a - q);
    }
    d
}

/// `(distance, id)` order under `total_cmp`.
fn by_distance(a: &(u64, f64), b: &(u64, f64)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// What the evaluation reads of a system beyond its public accessors,
/// taken once from `to_parts()`.
pub struct Shadow {
    versioning: bool,
    /// The version chains in group order.
    chains: Vec<VersionStore>,
}

impl Shadow {
    pub fn of(sys: &SmartStoreSystem) -> Self {
        let parts = sys.to_parts();
        Self {
            versioning: parts.versioning_enabled,
            chains: parts.versions.into_iter().map(|(_, vs)| vs).collect(),
        }
    }
}

/// Range evaluation: the routed units' slot-ordered hits concatenated,
/// the overlay applied, then one sort and dedup.
pub fn range(
    sys: &SmartStoreSystem,
    shadow: &Shadow,
    scans: &UnitScans,
    lo: &[f64],
    hi: &[f64],
) -> QueryOutcome {
    let route = sys.tree().route_range(lo, hi);
    let mut trace = RouteTrace {
        units_routed: route.target_units.len(),
        ..RouteTrace::default()
    };
    let mut results = Vec::new();
    for &u in &route.target_units {
        let (ids, w) = (scans.range)(&sys.units()[u], lo, hi);
        results.extend(ids);
        trace.add_unit(w);
    }
    if shadow.versioning {
        trace.version_chains = shadow.chains.len();
        trace.version_records = versions_to_range(&shadow.chains, lo, hi, &mut results);
    }
    results.sort_unstable();
    results.dedup();
    QueryOutcome {
        file_ids: results,
        trace,
    }
}

/// Top-k evaluation: units in best-first order, each scanned into a
/// heap of its own and merged into the query's k best, until the next
/// unit's lower bound exceeds the k-th best distance.
pub fn topk(
    sys: &SmartStoreSystem,
    shadow: &Shadow,
    scans: &UnitScans,
    point: &[f64],
    k: usize,
) -> (Vec<(u64, f64)>, QueryOutcome) {
    let (order, _) = sys.tree().route_topk(point);
    let mut trace = RouteTrace {
        units_routed: order.len(),
        ..RouteTrace::default()
    };
    let mut best: Vec<(u64, f64)> = Vec::new();
    for &(u, lower_bound) in &order {
        let max_d = if k > 0 && best.len() == k {
            best[k - 1].1
        } else {
            f64::INFINITY
        };
        if lower_bound > max_d {
            break;
        }
        let (unit_top, w) = (scans.topk)(&sys.units()[u], point, k);
        trace.add_unit(w);
        best.extend(unit_top);
        best.sort_by(by_distance);
        best.truncate(k);
    }
    if shadow.versioning {
        trace.version_chains = shadow.chains.len();
        trace.version_records = versions_to_topk(&shadow.chains, point, k, &mut best);
    }
    let outcome = QueryOutcome {
        file_ids: best.iter().map(|&(id, _)| id).collect(),
        trace,
    };
    (best, outcome)
}

/// The system's range overlay: per chain, drop the ids it deletes or
/// moves out of the box, then add the ids it upserts inside it.
fn versions_to_range(
    chains: &[VersionStore],
    lo: &[f64],
    hi: &[f64],
    results: &mut Vec<u64>,
) -> usize {
    let mut scanned = 0;
    for vs in chains {
        scanned += vs.change_count();
        let (mut drop, mut add) = (Vec::new(), Vec::new());
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
        results.retain(|id| !drop.contains(id));
        results.extend_from_slice(&add);
    }
    scanned
}

/// The system's top-k overlay: per chain, drop every id it touches and
/// push its upserts with their distances; then the k best, sorted.
fn versions_to_topk(
    chains: &[VersionStore],
    point: &[f64],
    k: usize,
    best: &mut Vec<(u64, f64)>,
) -> usize {
    let mut scanned = 0;
    for vs in chains {
        scanned += vs.change_count();
        let mut touched = Vec::new();
        let mut add = Vec::new();
        for (ch, row) in vs.effective() {
            touched.push(ch.file_id());
            if let Change::Insert(f) | Change::Modify(f) = ch {
                add.push((f.file_id, squared_distance(row, point)));
            }
        }
        best.retain(|(id, _)| !touched.contains(id));
        best.extend_from_slice(&add);
    }
    best.sort_by(by_distance);
    best.truncate(k);
    scanned
}

/// The unit's centroid and MBR as a summary refresh must leave them:
/// the attribute vectors folded in store order.
pub fn store_order_summaries(u: &StorageUnit) -> (Vec<f64>, Option<Rect>) {
    let mut centroid = vec![0.0; ATTR_DIMS];
    let Some(first) = u.files().first() else {
        return (centroid, None);
    };
    let (mut lo, mut hi) = (first.attr_vector().to_vec(), first.attr_vector().to_vec());
    for f in u.files() {
        let v = f.attr_vector();
        for (c, &x) in centroid.iter_mut().zip(&v) {
            *c += x;
        }
        for ((l, h), &x) in lo.iter_mut().zip(&mut hi).zip(&v) {
            *l = l.min(x);
            *h = h.max(x);
        }
    }
    for c in &mut centroid {
        *c /= u.len() as f64;
    }
    (centroid, Some(Rect::new(lo, hi)))
}
