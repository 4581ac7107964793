//! Micro-benchmarks for the rows nothing else measures: the point path
//! by Bloom hash family and by route, the parallel hot path by thread
//! count, the version-chain overlay, and the scan paths inside one
//! shard. Serving numbers come from the repository benchmark
//! (`benchmark/`), paper artifacts from `repro`.
//!
//! 1. `point_family` — the same corpus indexed under the paper's MD5
//!    hash family and under the fast family the system defaults to, the
//!    live point path (name index, then the filters on the holders'
//!    paths) timed on both; and, in the fast family, the paper's route
//!    (`cost::paper_point`: the live answer plus the Bloom descent from
//!    the root and a probe at every unit it reaches). Answers are
//!    checked **identical** across all three before timing (routing
//!    false positives never change answers — exact name matching sits
//!    behind the filters), and the family speedup is gated at 50k
//!    files.
//! 2. `scaling` — the shim-rayon pool at 1/2/4/8 threads over the four
//!    parallel kernels: `partition_tiled` (LSI fit + sort-tile
//!    placement), `partition_balanced` (LSI fit + K-means),
//!    `group_level` (the O(n²) kernel-similarity grouping, on a
//!    subsample sized so the quadratic term dominates) and
//!    `encode_snapshot` (per-unit record encode + CRC). Every run is
//!    checked **bit-identical** against the 1-thread reference before
//!    its time is reported.
//! 3. `versioned_reads` — the version-chain overlay (§4.4) by itself.
//!    One system is driven through the serving benchmark's mutation mix
//!    until its chains hold hundreds of records; a twin built from the
//!    same parts with every chain emptied answers the same reads with
//!    no overlay. Point hits, point misses (the fallback every shard
//!    that lacks a name runs), range and top-k reads are timed on both,
//!    and so is the per-chain effective walk.
//! 4. `scan_family` — range and top-k evaluated by one system, in
//!    units of about the serving benchmark's size (≈ 830 files): the
//!    serving path (one top-k heap per query lent to every unit, range
//!    hits appended straight to the query's result, rows in zone order)
//!    against the per-unit composition it replaced, kept as the
//!    reference of `crates/smartstore/tests/scan_kernels.rs` (a heap per
//!    unit merged after it, slot-ordered unit answers sorted back
//!    together) over the same units. Answers and traces are checked
//!    **identical** before timing; µs per query and the rows whose
//!    coordinates the unit scans read per query are printed for both.
//!
//! The tables are printed; nothing is written to disk.
//!
//! Run with `cargo bench -p smartstore-bench --bench micro`: 4k and 50k
//! files for `point_family`, 10k files at 1/2/4/8 threads for `scaling`,
//! one serving-benchmark shard (12.5k files in 15 units) and 6k
//! mutations for `versioned_reads`, 50k files in 60 units for
//! `scan_family`. `-- --quick` is the CI smoke: 4k files only, 2k files
//! at 1 and 2 threads, 6k files in 8 units with 1.5k mutations, and 4k
//! files in 5 units.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPoolBuilder;
use smartstore::grouping::{group_level, partition_balanced, partition_tiled, LevelGrouping};
use smartstore::system::SystemParts;
use smartstore::tree::NodeId;
use smartstore::versioning::{Change, VersionStore};
use smartstore::{HashFamily, QueryOptions, SmartStoreConfig, SmartStoreSystem};
use smartstore_bench::cost::paper_point;
use smartstore_bench::fixture::{population, system, system_with_family, workload};
use smartstore_bench::Report;
use smartstore_persist::snapshot::encode_snapshot;
use smartstore_trace::{MetadataPopulation, QueryDistribution, TraceKind};
use std::time::Instant;

#[path = "../../smartstore/tests/scan_reference/mod.rs"]
mod scan_reference;

/// The live point-query speedup of the fast hash family over the MD5
/// family at the 50k-file scale must exceed this. The property it
/// protects is that the default family is not slower than the paper's.
/// A live lookup asks the name index first and hashes the key only when
/// the system holds the name, then probes just the filters on the
/// holders' paths with that one hash: the family decides one prepare
/// per lookup, next to one index probe and a handful of filter probes.
/// The bound stays at 1.0 so host noise cannot trip it.
const FAMILY_GATE: f64 = 1.0;

const LSI_RANK: usize = 3;
const UNITS: usize = 60;

/// Best-round ns/query of `f` over `rounds` passes of a
/// `queries`-query workload. Min-over-rounds filters scheduler
/// preemptions — on a shared 1-core host a single 10 ms tick landing
/// inside a ~ms timing loop would otherwise swamp the mean.
fn time_ns(rounds: usize, queries: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64 / queries as f64);
    }
    best
}

/// Times one `point_family` row and returns the fast family's speedup
/// on the live path.
fn point_family(n_files: usize, rounds: usize, report: &mut Report) -> f64 {
    let n_units = (n_files / 100).max(4);
    println!("== point_family: {n_files} files, {n_units} units, {rounds} rounds ==");
    let pop = population(TraceKind::Msn, n_files, 1);
    // Version chains are empty here; disable the overlay so the rows
    // time routing plus unit lookups and nothing else.
    let mut fast_sys = system(&pop, n_units, 1);
    fast_sys.set_versioning(false);
    let mut md5_sys = system_with_family(&pop, n_units, 1, HashFamily::Md5);
    md5_sys.set_versioning(false);
    let (fast, md5) = (fast_sys.query(), md5_sys.query());
    let w = workload(&pop, QueryDistribution::Zipf, 48, 2);
    for q in &w.points {
        let live = fast.point(&q.name).file_ids;
        assert_eq!(
            md5.point(&q.name).file_ids,
            live,
            "point answers diverged between hash families"
        );
        assert_eq!(
            paper_point(&fast_sys, &q.name).file_ids,
            live,
            "point answers diverged between the live and the paper route"
        );
    }
    let before = time_ns(rounds, w.points.len(), || {
        for q in &w.points {
            std::hint::black_box(md5.point(&q.name));
        }
    });
    let after = time_ns(rounds, w.points.len(), || {
        for q in &w.points {
            std::hint::black_box(fast.point(&q.name));
        }
    });
    let paper = time_ns(rounds, w.points.len(), || {
        for q in &w.points {
            std::hint::black_box(paper_point(&fast_sys, &q.name));
        }
    });

    let speedup = before / after.max(1e-9);
    report.row(&[
        n_files.to_string(),
        format!("{before:.0}"),
        format!("{after:.0}"),
        format!("{speedup:.2}"),
        format!("{paper:.0}"),
        format!("{:.1}", paper / after.max(1e-9)),
    ]);
    speedup
}

struct Run {
    tiled: Vec<usize>,
    balanced: Vec<usize>,
    grouping: LevelGrouping,
    snapshot: Vec<u8>,
    /// Milliseconds per phase: tiled, balanced, kernel, encode.
    ms: [f64; 4],
}

fn run_kernels(vectors: &[Vec<f64>], kernel_sub: &[Vec<f64>], parts: &SystemParts) -> Run {
    let mut ms = [0.0; 4];
    let mut timed = |phase: usize, t: Instant| ms[phase] = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let tiled = partition_tiled(vectors, UNITS, LSI_RANK);
    timed(0, t);
    let t = Instant::now();
    let balanced = partition_balanced(vectors, UNITS, LSI_RANK, 7);
    timed(1, t);
    let t = Instant::now();
    let grouping = group_level(kernel_sub, 0.9, LSI_RANK, 10);
    timed(2, t);
    let t = Instant::now();
    let (snapshot, _) = encode_snapshot(parts);
    timed(3, t);
    Run {
        tiled,
        balanced,
        grouping,
        snapshot,
        ms,
    }
}

fn assert_bit_identical(reference: &Run, run: &Run, threads: usize) {
    assert_eq!(
        reference.tiled, run.tiled,
        "partition_tiled diverged at {threads} threads"
    );
    assert_eq!(
        reference.balanced, run.balanced,
        "partition_balanced diverged at {threads} threads"
    );
    assert_eq!(
        reference.grouping.groups, run.grouping.groups,
        "group_level groups diverged at {threads} threads"
    );
    let bits = |g: &LevelGrouping| -> Vec<u64> {
        g.centroids.iter().flatten().map(|x| x.to_bits()).collect()
    };
    assert_eq!(
        bits(&reference.grouping),
        bits(&run.grouping),
        "group_level centroid bits diverged at {threads} threads"
    );
    assert_eq!(
        reference.snapshot, run.snapshot,
        "snapshot bytes diverged at {threads} threads"
    );
}

fn scaling(n_files: usize, thread_counts: &[usize]) -> Report {
    println!("== scaling: {n_files} files, threads {thread_counts:?} ==");
    let pop = population(TraceKind::Msn, n_files, 7);
    let vectors: Vec<Vec<f64>> = pop.files.iter().map(|f| f.attr_vector().to_vec()).collect();
    // Subsample for the O(n²) kernel so its cost stays comparable to
    // the linear phases.
    let kernel_n = (n_files / 10).clamp(100, 1_500);
    let kernel_sub = &vectors[..kernel_n];
    let parts = SmartStoreSystem::build(pop.files.clone(), UNITS, SmartStoreConfig::default(), 7)
        .to_parts();

    let mut report = Report::new(
        "scaling",
        &format!("Thread scaling of the grouping/LSI/persist hot path, {n_files} files"),
        &[
            "threads",
            "tiled_ms",
            "kmeans_ms",
            "kernel_ms",
            "encode_ms",
            "total_ms",
            "speedup_vs_1t",
        ],
    );
    let mut reference: Option<Run> = None;
    for &threads in thread_counts {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        let run = pool.install(|| run_kernels(&vectors, kernel_sub, &parts));
        let total: f64 = run.ms.iter().sum();
        let one_thread: f64 = reference.as_ref().map_or(total, |r| r.ms.iter().sum());
        let mut row: Vec<String> = vec![threads.to_string()];
        row.extend(run.ms.iter().chain([&total]).map(|ms| format!("{ms:.1}")));
        row.push(format!("{:.2}", one_thread / total.max(1e-9)));
        report.row(&row);
        match &reference {
            None => reference = Some(run),
            Some(r) => assert_bit_identical(r, &run, threads),
        }
    }

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.note(format!(
        "host has {host} hardware thread(s); speedups are bounded by physical cores, \
         not pool size"
    ));
    report.note(format!(
        "kernel phase runs group_level on a {kernel_n}-item subsample (O(n²) term)"
    ));
    report.note("all multi-thread runs verified bit-identical to the 1-thread reference");
    report
}

/// Applies `n` changes of the serving benchmark's mix to `sys`: half
/// modifies of a hot file, a quarter inserts, a quarter deletes of an
/// earlier insert (an insert while none is live).
fn mutate(sys: &mut SmartStoreSystem, pop: &MetadataPopulation, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hot: Vec<_> = pop.files.iter().take(2_000).cloned().collect();
    let mut inserted: Vec<u64> = Vec::new();
    let mut next_id = 1u64 << 40;
    for _ in 0..n {
        let slot = rng.gen_range(0..hot.len());
        let change = match rng.gen_range(0..4) {
            0 if !inserted.is_empty() => {
                Change::Delete(inserted.swap_remove(rng.gen_range(0..inserted.len())))
            }
            0 | 1 => {
                let mut f = hot[slot].clone();
                f.file_id = next_id;
                f.name = format!("mb_ins_{next_id}");
                inserted.push(next_id);
                next_id += 1;
                Change::Insert(f)
            }
            _ => {
                let f = &mut hot[slot];
                f.mtime += 1.0;
                f.write_bytes += 4096;
                f.access_count += 1;
                Change::Modify(f.clone())
            }
        };
        sys.apply_change(change);
    }
}

/// Times reads against live version chains and against the same system
/// with every chain emptied.
fn versioned_reads(n_files: usize, n_units: usize, mutations: usize, rounds: usize) -> Report {
    println!("== versioned_reads: {n_files} files, {n_units} units, {mutations} mutations ==");
    let pop = population(TraceKind::Msn, n_files, 5);
    let mut live = system(&pop, n_units, 5);
    mutate(&mut live, &pop, mutations, 5);
    let mut parts = live.to_parts();
    let live_chains = parts.versions.clone();
    for (_, vs) in &mut parts.versions {
        *vs = VersionStore::new(vs.ratio());
    }
    let empty_chains = parts.versions.clone();
    let empty = SmartStoreSystem::from_parts(parts);
    let w = workload(&pop, QueryDistribution::Zipf, 48, 6);
    let misses: Vec<String> = (0..48).map(|i| format!("mb_ghost_{i}")).collect();
    let opts = QueryOptions::offline();

    let mut report = Report::new(
        "versioned_reads",
        &format!(
            "Reads on live version chains vs the same system with empty chains, \
             {n_files} files, ns/op, best of {rounds} rounds"
        ),
        &["read", "live_ns", "empty_ns", "overlay_ns"],
    );
    let mut row = |name: &str, on_live: f64, on_empty: f64| {
        report.row(&[
            name.to_string(),
            format!("{on_live:.0}"),
            format!("{on_empty:.0}"),
            format!("{:.0}", on_live - on_empty),
        ]);
    };
    let reads = |ops: usize, f: &dyn Fn(&SmartStoreSystem)| {
        (
            time_ns(rounds, ops, || f(&live)),
            time_ns(rounds, ops, || f(&empty)),
        )
    };
    let (on_live, on_empty) = reads(w.points.len(), &|sys| {
        for q in &w.points {
            std::hint::black_box(sys.query().point(&q.name));
        }
    });
    row("point_hit", on_live, on_empty);
    let (on_live, on_empty) = reads(misses.len(), &|sys| {
        for name in &misses {
            std::hint::black_box(sys.query().point(name));
        }
    });
    row("point_miss", on_live, on_empty);
    let (on_live, on_empty) = reads(w.ranges.len(), &|sys| {
        for q in &w.ranges {
            std::hint::black_box(sys.query().range(&q.lo, &q.hi, &opts));
        }
    });
    row("range", on_live, on_empty);
    let (on_live, on_empty) = reads(w.topks.len(), &|sys| {
        for q in &w.topks {
            std::hint::black_box(sys.query().topk(&q.point, &opts.with_k(q.k)));
        }
    });
    row("topk", on_live, on_empty);
    let walk = |chains: &[(NodeId, VersionStore)]| {
        time_ns(rounds, chains.len().max(1), || {
            for (_, vs) in chains {
                std::hint::black_box(vs.effective().count());
            }
        })
    };
    row("walk_per_chain", walk(&live_chains), walk(&empty_chains));

    let records: Vec<usize> = live_chains
        .iter()
        .map(|(_, vs)| vs.change_count())
        .collect();
    let total: usize = records.iter().sum();
    let max = records.iter().copied().max().unwrap_or(0);
    report.note(format!(
        "{} chains hold {total} records after {mutations} mutations: {} per chain on \
         average, {max} at most",
        records.len(),
        total / records.len().max(1)
    ));
    report.note(
        "point_miss names no file, so every query walks every chain: the fallback each \
         shard that lacks a name runs",
    );
    report
}

/// Times the serving path's range and top-k against the per-unit
/// reference on one system of `n_files` files.
fn scan_family(n_files: usize, rounds: usize) -> Report {
    let n_units = (n_files / 830).max(4);
    println!("== scan_family: {n_files} files, {n_units} units, {rounds} rounds ==");
    let pop = population(TraceKind::Msn, n_files, 7);
    let mut sys = system(&pop, n_units, 7);
    // Empty chains: time the unit scans, merge included, and no overlay.
    sys.set_versioning(false);
    let shadow = scan_reference::Shadow::of(&sys);
    let reference = &scan_reference::PER_UNIT;
    let w = workload(&pop, QueryDistribution::Zipf, 64, 8);
    let opts = QueryOptions::offline();
    let engine = sys.query();

    let (mut rows, mut rows_ref) = ([0usize; 2], [0usize; 2]);
    for q in &w.ranges {
        let got = engine.range(&q.lo, &q.hi, &opts);
        let want = scan_reference::range(&sys, &shadow, reference, &q.lo, &q.hi);
        assert_eq!(got, want, "range answers or traces diverged");
        rows[0] += got.trace.rows_read;
        rows_ref[0] += want.trace.rows_read;
    }
    for q in &w.topks {
        let (got, out) = engine.topk_scored(&q.point, &opts.with_k(q.k));
        let (want, want_out) = scan_reference::topk(&sys, &shadow, reference, &q.point, q.k);
        assert_eq!(got, want, "top-k answers diverged");
        let mut trace = want_out.trace;
        trace.rows_read = out.trace.rows_read;
        assert_eq!(out.trace, trace, "top-k traces diverged beyond rows_read");
        rows[1] += out.trace.rows_read;
        rows_ref[1] += want_out.trace.rows_read;
    }
    let range_ref = time_ns(rounds, w.ranges.len(), || {
        for q in &w.ranges {
            std::hint::black_box(scan_reference::range(
                &sys, &shadow, reference, &q.lo, &q.hi,
            ));
        }
    });
    let range = time_ns(rounds, w.ranges.len(), || {
        for q in &w.ranges {
            std::hint::black_box(engine.range(&q.lo, &q.hi, &opts));
        }
    });
    let topk_ref = time_ns(rounds, w.topks.len(), || {
        for q in &w.topks {
            std::hint::black_box(scan_reference::topk(
                &sys, &shadow, reference, &q.point, q.k,
            ));
        }
    });
    let topk = time_ns(rounds, w.topks.len(), || {
        for q in &w.topks {
            std::hint::black_box(engine.topk_scored(&q.point, &opts.with_k(q.k)));
        }
    });

    let mut report = Report::new(
        "scan_family",
        &format!(
            "Range and top-k in one system of {n_files} files: per-unit reference vs serving \
             path. us/query, best of {rounds} rounds; rows read per query"
        ),
        &[
            "query",
            "reference_us",
            "serving_us",
            "speedup",
            "reference_rows",
            "serving_rows",
        ],
    );
    let lines = [
        ("range", range_ref, range, w.ranges.len()),
        ("topk", topk_ref, topk, w.topks.len()),
    ];
    for (i, (name, before, after, n)) in lines.into_iter().enumerate() {
        report.row(&[
            name.to_string(),
            format!("{:.1}", before / 1e3),
            format!("{:.1}", after / 1e3),
            format!("{:.2}", before / after.max(1e-9)),
            format!("{:.0}", rows_ref[i] as f64 / n as f64),
            format!("{:.0}", rows[i] as f64 / n as f64),
        ]);
    }
    report.note(
        "answers and traces checked identical before timing (rows_read aside for top-k, \
         where the reference's per-unit heaps prune less)",
    );
    report
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let mut family = Report::new(
        "point_family",
        "Point path by Bloom hash family, live: MD5 (before) vs fast (after); and the paper's \
         descent route in the fast family (paper). ns/query, best of R rounds",
        &[
            "files",
            "before_ns",
            "after_ns",
            "speedup",
            "paper_ns",
            "paper_over_live",
        ],
    );
    point_family(4_000, if quick { 5 } else { 12 }, &mut family);
    let gated = (!quick).then(|| point_family(50_000, 4, &mut family));
    family.note(format!(
        "answers checked identical across families and routes before timing; the speedup \
         is gated at >{FAMILY_GATE:.1}x at 50k files. Single-thread, valid on a 1-core host"
    ));
    print!("{}", family.render());
    if let Some(speedup) = gated {
        assert!(
            speedup > FAMILY_GATE,
            "point_family at 50000 files: speedup {speedup:.2}x not above the {FAMILY_GATE:.1}x gate"
        );
    }

    let report = if quick {
        scaling(2_000, &[1, 2])
    } else {
        scaling(10_000, &[1, 2, 4, 8])
    };
    print!("{}", report.render());

    let versioned = if quick {
        versioned_reads(6_000, 8, 1_500, 5)
    } else {
        versioned_reads(12_500, 15, 6_000, 10)
    };
    print!("{}", versioned.render());

    let scans = if quick {
        scan_family(4_000, 5)
    } else {
        scan_family(50_000, 10)
    };
    print!("{}", scans.render());
}
