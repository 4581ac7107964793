//! Differential test of the version-chain overlays (§4.4).
//!
//! Each query kind reads the version chains through one effective walk
//! that `VersionStore::record` maintains at write time, and applies a
//! chain as one batch. This file keeps the per-change overlay those
//! batches replaced, verbatim, as the reference: a `HashSet` walk over
//! every record, one `retain`/`push` per effective change and an
//! `attr_vector` recomputed per read. The reference starts from the raw
//! unit answer along the same route (a clone of the system with
//! versioning off) and reads the chains from `to_parts().versions`.
//! Answers, top-k distance bits and the whole `RouteTrace` must agree.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use smartstore::tree::NodeId;
use smartstore::versioning::{Change, VersionStore};
use smartstore::{QueryOptions, QueryOutcome, SmartStoreConfig, SmartStoreSystem};
use smartstore_trace::{FileMetadata, GeneratorConfig, MetadataPopulation, ATTR_DIMS};
use std::collections::HashSet;

type Chains = Vec<(NodeId, VersionStore)>;

/// The reference walk: newest change first, the first record of each
/// file id wins; also the number of records scanned.
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

/// The system with versioning off: the raw unit answers along the same
/// routes, and the chains the versioned system would overlay.
fn reference_inputs(sys: &SmartStoreSystem) -> (SmartStoreSystem, Chains) {
    let mut raw = sys.clone();
    raw.set_versioning(false);
    (raw, sys.to_parts().versions)
}

fn reference_point(raw: &SmartStoreSystem, chains: &Chains, name: &str) -> QueryOutcome {
    let mut out = raw.query().point(name);
    let results = &mut out.file_ids;
    let trace = &mut out.trace;
    if results.is_empty() {
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
    out
}

fn reference_range(
    raw: &SmartStoreSystem,
    chains: &Chains,
    lo: &[f64],
    hi: &[f64],
) -> QueryOutcome {
    let mut out = raw.query().range(lo, hi, &QueryOptions::offline());
    let results = &mut out.file_ids;
    let mut scanned = 0;
    for (_, vs) in chains {
        let (effective, s) = effective_changes(vs);
        scanned += s;
        for ch in effective {
            match ch {
                Change::Insert(f) | Change::Modify(f) => {
                    let v = f.attr_vector();
                    let inside = v
                        .iter()
                        .zip(lo.iter().zip(hi))
                        .all(|(&x, (&l, &h))| l <= x && x <= h);
                    if inside {
                        results.push(f.file_id);
                    } else {
                        results.retain(|&id| id != f.file_id);
                    }
                }
                Change::Delete(id) => results.retain(|&x| x != *id),
            }
        }
    }
    results.sort_unstable();
    results.dedup();
    out.trace.version_chains = chains.len();
    out.trace.version_records = scanned;
    out
}

fn reference_topk(
    raw: &SmartStoreSystem,
    chains: &Chains,
    point: &[f64],
    k: usize,
) -> (Vec<(u64, f64)>, QueryOutcome) {
    let opts = QueryOptions::offline().with_k(k);
    let (mut best, mut out) = raw.query().topk_scored(point, &opts);
    let mut scanned = 0;
    for (_, vs) in chains {
        let (effective, s) = effective_changes(vs);
        scanned += s;
        for ch in effective {
            match ch {
                Change::Insert(f) | Change::Modify(f) => {
                    let d = f
                        .attr_vector()
                        .iter()
                        .zip(point)
                        .map(|(&a, &q)| (a - q) * (a - q))
                        .sum::<f64>();
                    best.retain(|&(id, _)| id != f.file_id);
                    best.push((f.file_id, d));
                }
                Change::Delete(id) => best.retain(|&(x, _)| x != *id),
            }
        }
    }
    best.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    best.truncate(k);
    out.trace.version_chains = chains.len();
    out.trace.version_records = scanned;
    out.file_ids = best.iter().map(|&(id, _)| id).collect();
    (best, out)
}

fn bits(scored: &[(u64, f64)]) -> Vec<(u64, u64)> {
    scored.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}

/// A box around `center`, `half` wide in every dimension.
fn around(center: &[f64; ATTR_DIMS], half: f64) -> (Vec<f64>, Vec<f64>) {
    (
        center.iter().map(|x| x - half).collect(),
        center.iter().map(|x| x + half).collect(),
    )
}

/// The change stream's state: live files by id, deleted files that may
/// come back under the same id, and every upserted row and name.
struct Stream {
    live: Vec<FileMetadata>,
    dead: Vec<FileMetadata>,
    rows: Vec<[f64; ATTR_DIMS]>,
    names: Vec<String>,
    next_id: u64,
}

impl Stream {
    /// Turns one drawn op into a change, updating the model. Inserts
    /// never reuse a live id: a file system never re-creates a live
    /// inode.
    fn next(&mut self, kind: u8, pick: usize, val: u64) -> Change {
        let change = match kind {
            // Repeated modifies of the same few files.
            0 => {
                let slot = pick % self.live.len().min(3);
                let f = &mut self.live[slot];
                f.size = val;
                f.mtime += (val % 977) as f64 * 3600.0;
                f.access_count += 1;
                Change::Modify(f.clone())
            }
            // Delete of a live file, kept for a later re-insert.
            1 if self.live.len() > 4 => {
                let f = self.live.swap_remove(pick % self.live.len());
                let id = f.file_id;
                self.dead.push(f);
                Change::Delete(id)
            }
            // Re-insert of a deleted id, with new contents.
            2 if !self.dead.is_empty() => {
                let mut f = self.dead.swap_remove(pick % self.dead.len());
                f.size = val;
                f.write_bytes += val;
                self.live.push(f.clone());
                Change::Insert(f)
            }
            // Rename by modify.
            3 => {
                let n = self.live.len();
                let f = &mut self.live[pick % n];
                f.name = format!("renamed_{}_{val}", f.file_id);
                Change::Modify(f.clone())
            }
            // Deletes and modifies of ids no unit holds.
            4 => Change::Delete(9_000_000 + pick as u64),
            5 => {
                let mut f = self.live[pick % self.live.len()].clone();
                f.file_id = 9_500_000 + pick as u64;
                Change::Modify(f)
            }
            // An insert with the same attributes as a live file: a tie
            // at distance 0 for a top-k query at that row.
            6 => {
                let mut f = self.live[pick % self.live.len()].clone();
                f.file_id = self.next_id;
                f.name = format!("twin_{}", self.next_id);
                self.next_id += 1;
                self.live.push(f.clone());
                Change::Insert(f)
            }
            // A fresh insert, moved away from its template.
            _ => {
                let mut f = self.live[pick % self.live.len()].clone();
                f.file_id = self.next_id;
                f.name = format!("new_{}", self.next_id);
                f.size = val;
                f.ctime += val as f64;
                self.next_id += 1;
                self.live.push(f.clone());
                Change::Insert(f)
            }
        };
        if let Change::Insert(f) | Change::Modify(f) = &change {
            self.rows.push(f.attr_vector());
            self.names.push(f.name.clone());
        }
        change
    }
}

/// Runs every query kind against the versioned system and the
/// reference, and fails on the first difference.
fn check_queries(
    sys: &SmartStoreSystem,
    stream: &Stream,
    pick: usize,
    k: usize,
) -> Result<(), TestCaseError> {
    let (raw, chains) = reference_inputs(sys);
    let engine = sys.query();
    let mut names: Vec<&str> = stream
        .names
        .iter()
        .rev()
        .take(3)
        .map(String::as_str)
        .collect();
    names.push(&stream.live[pick % stream.live.len()].name);
    names.push("no_such_file");
    for name in names {
        prop_assert_eq!(engine.point(name), reference_point(&raw, &chains, name));
    }
    // Rows of the latest upserts and of one older one: boxes around an
    // older row catch a file's past state but miss its newest.
    let mut centers: Vec<[f64; ATTR_DIMS]> = stream.rows.iter().rev().take(2).copied().collect();
    if let Some(old) = stream.rows.get(pick % stream.rows.len().max(1)) {
        centers.push(*old);
    }
    centers.push(stream.live[pick % stream.live.len()].attr_vector());
    for c in &centers {
        for half in [0.0, 0.05, 0.6, 4.0] {
            let (lo, hi) = around(c, half);
            let got = engine.range(&lo, &hi, &QueryOptions::offline());
            prop_assert_eq!(got, reference_range(&raw, &chains, &lo, &hi));
        }
        for k in [1, k] {
            let (got_best, got) = engine.topk_scored(c, &QueryOptions::offline().with_k(k));
            let (want_best, want) = reference_topk(&raw, &chains, c, k);
            prop_assert_eq!(bits(&got_best), bits(&want_best));
            prop_assert_eq!(got, want);
        }
    }
    // A box far from every row.
    let (lo, hi) = around(&[1e6; ATTR_DIMS], 1.0);
    let got = engine.range(&lo, &hi, &QueryOptions::offline());
    prop_assert_eq!(got, reference_range(&raw, &chains, &lo, &hi));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn overlays_match_the_per_change_reference(
        ops in prop::collection::vec((0u8..8, 0usize..1000, 1u64..1_000_000), 1..50),
        ratio in 1u32..17,
        eager_refresh in 0u8..2,
        k in 2usize..10,
        seed in 0u64..1000,
    ) {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files: 240,
            n_clusters: 6,
            seed,
            ..GeneratorConfig::default()
        });
        let cfg = SmartStoreConfig {
            version_ratio: ratio,
            // The default refresh folds a chain in after ≈ 5 % of its
            // group; the larger threshold keeps every change on the
            // chains for the whole stream.
            lazy_update_threshold: if eager_refresh == 1 { 0.05 } else { 10.0 },
            ..SmartStoreConfig::default()
        };
        let mut sys = SmartStoreSystem::build(pop.files.clone(), 6, cfg, seed);
        let mut stream = Stream {
            live: pop.files.clone(),
            dead: Vec::new(),
            rows: Vec::new(),
            names: Vec::new(),
            next_id: 1_000_000,
        };
        let half = ops.len() / 2;
        for (step, &(kind, pick, val)) in ops.iter().enumerate() {
            if step == half {
                // A reopen: every chain comes back from the three parts a
                // snapshot stores, which rebuild the derived walk state.
                let mut parts = sys.to_parts();
                for (_, vs) in &mut parts.versions {
                    *vs = VersionStore::from_parts(
                        vs.ratio(),
                        vs.sealed_versions().to_vec(),
                        vs.open_version().clone(),
                    );
                }
                sys = SmartStoreSystem::from_parts(parts);
            }
            let change = stream.next(kind, pick, val);
            sys.apply_change(change);
            check_queries(&sys, &stream, pick, k)?;
        }
    }
}
