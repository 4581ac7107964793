//! Query-latency benchmark: the full point path under the paper's MD5
//! Bloom hash family vs the fast family the system defaults to, with a
//! JSON trajectory report.
//!
//! The point path is Bloom-probe-bound, so the hash family is what its
//! latency hangs on. One row per scale, `point_family`: the same corpus
//! indexed under each family, the full point path timed on both.
//! Answers are checked **identical** between the families before timing
//! (routing false positives never change answers — exact name matching
//! sits behind the filters — but a latency number for a wrong answer is
//! worthless).
//!
//! The columnar-vs-record-walk and `hierarchy_probe` rows this bench
//! used to carry are history in `results/query_latency.json`; the
//! record-walk reference itself lives where references belong, in
//! `crates/smartstore/tests/columnar.rs`, and the probe the system runs
//! is timed per request by the repository benchmark's `bloom.probe_ns`.
//!
//! The table is printed and written as JSON (`query_latency.json`)
//! under `target/bench-reports` (override with `BENCH_REPORT_DIR`); CI
//! copies it into `results/` so the perf trajectory accumulates per PR.
//!
//! Run with `cargo bench -p smartstore-bench --bench query_latency`
//! (`-- --quick` for the CI smoke: 4k files only; the default runs
//! 4k and 50k).

use smartstore::HashFamily;
use smartstore_bench::fixture::{population, system, system_with_family, workload};
use smartstore_bench::Report;
use smartstore_trace::{QueryDistribution, TraceKind};
use std::time::Instant;

/// Minimum full-path point-query speedup the fast hash family must
/// show over the MD5 family at the 50k-file scale. The point path is
/// Bloom-probe-bound, so swapping ~2 MD5 compressions per probe for
/// one multiply-xor pass must show up end to end.
const FAMILY_GATE: f64 = 5.0;

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

fn bench_scale(n_files: usize, rounds: usize, report: &mut Report) {
    let n_units = (n_files / 100).max(4);
    println!("== query latency: {n_files} files, {n_units} units, {rounds} rounds ==");
    let pop = population(TraceKind::Msn, n_files, 1);
    let mut sys = system(&pop, n_units, 1);
    // Version chains are empty here; disable the overlay so the rows
    // time routing plus unit lookups and nothing else.
    sys.set_versioning(false);
    let w = workload(&pop, QueryDistribution::Zipf, 48, 2);
    let engine = sys.query();

    // Hash-family rows: the same corpus indexed under the MD5 family
    // (the paper's derivation) vs the fast family the system now
    // defaults to. Routing false positives never change answers (exact
    // name matching sits behind the filters), but the gate below proves
    // it per workload before any timing.
    let md5_sys = {
        let mut s = system_with_family(&pop, n_units, 1, HashFamily::Md5);
        s.set_versioning(false);
        s
    };
    let md5_engine = md5_sys.query();
    for q in &w.points {
        assert_eq!(
            md5_engine.point(&q.name).file_ids,
            engine.point(&q.name).file_ids,
            "point answers diverged between hash families"
        );
    }
    let before = time_ns(rounds, w.points.len(), || {
        for q in &w.points {
            std::hint::black_box(md5_engine.point(&q.name));
        }
    });
    let after = time_ns(rounds, w.points.len(), || {
        for q in &w.points {
            std::hint::black_box(engine.point(&q.name));
        }
    });

    let speedup = before / after.max(1e-9);
    report.row(&[
        n_files.to_string(),
        "point_family".to_string(),
        format!("{before:.0}"),
        format!("{after:.0}"),
        format!("{speedup:.2}"),
    ]);
    println!("  point_family     {before:>10.0} ns -> {after:>8.0} ns  ({speedup:.2}x)");
    if n_files >= 50_000 {
        assert!(
            speedup >= FAMILY_GATE,
            "point_family at {n_files} files: speedup {speedup:.2}x below the {FAMILY_GATE}x gate"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");

    let mut report = Report::new(
        "query_latency",
        "Point path by Bloom hash family: MD5 (before) vs fast (after), ns/query, best of R rounds",
        &["files", "kind", "before_ns", "after_ns", "speedup"],
    );

    bench_scale(4_000, if quick { 5 } else { 12 }, &mut report);
    if !quick {
        bench_scale(50_000, 4, &mut report);
    }

    report.note(format!(
        "point_family re-indexes the same corpus under the paper's MD5 hash \
         family (before) vs the fast Kirsch–Mitzenmacher family (after) and runs \
         the full point path on each; answers are checked identical between \
         families before timing, and the speedup is gated at ≥{FAMILY_GATE}x at \
         50k files. Results are single-thread (no thread-count dependence), valid on a 1-core host"
    ));
    print!("{}", report.render());
    let dir = smartstore_bench::report::default_report_dir();
    if let Err(e) = report.write_json(&dir) {
        eprintln!("warning: could not write JSON report: {e}");
    } else {
        println!("json report: {}", dir.join("query_latency.json").display());
    }
}
