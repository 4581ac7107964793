//! Persistence benchmark: snapshot write/load throughput, WAL append
//! rate, the group-commit (`wal_sync_every`) durability/latency knob
//! sweep, and the headline comparison — cold-starting a ≥50k-file
//! system from disk versus regrouping it from scratch with the full
//! LSI pipeline (the ISSUE's acceptance scenario).
//!
//! Run with `cargo bench -p smartstore-bench --bench persistence`.

use criterion::{criterion_group, criterion_main, Criterion};
use smartstore::versioning::Change;
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_bench::fixture::population;
use smartstore_bench::Report;
use smartstore_persist::{snapshot, PersistentStore, SystemPersist as _};
use smartstore_trace::{FileMetadata, TraceKind};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Acceptance scale: ≥50k files; trimmed under `--quick`/`--test` so
/// smoke runs stay fast.
fn scale() -> (usize, usize, u64) {
    let quick = std::env::args().any(|a| a == "--test" || a == "--quick");
    if quick {
        (2_000, 10, 100)
    } else {
        (50_000, 60, 1_000)
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "smartstore_persist_bench_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One synthetic change against `base`, the file population captured
/// once before the churn loop (capturing per change would clone the
/// whole population into the timed region).
fn churn_change(base: &[FileMetadata], i: u64) -> Change {
    match i % 3 {
        0 => {
            let mut f = base[(i as usize * 37) % base.len()].clone();
            f.file_id = 50_000_000 + i;
            f.name = format!("churn_{i}");
            Change::Insert(f)
        }
        1 => Change::Delete(base[(i as usize * 11) % base.len()].file_id),
        _ => {
            let mut f = base[(i as usize * 13) % base.len()].clone();
            f.size = f.size.wrapping_mul(2).max(1);
            Change::Modify(f)
        }
    }
}

fn journaled_churn(sys: &mut SmartStoreSystem, store: &mut PersistentStore, n: u64) {
    let base = sys.current_files();
    for i in 0..n {
        let change = churn_change(&base, i);
        sys.apply_journaled(store, change).unwrap();
    }
    store.sync().unwrap();
}

/// The group-commit knob sweep (ROADMAP persistence follow-up): how
/// does `wal_sync_every` — fsync every append vs. every 64 vs. every
/// 1024 — trade journaling throughput against per-append latency?
fn wal_knob_sweep(n_files: usize, n_changes: u64, report_dir: &Path) {
    let pop = population(TraceKind::Msn, n_files, 11);
    let sys = SmartStoreSystem::build(pop.files, 10, SmartStoreConfig::default(), 11);

    let mut report = Report::new(
        "wal_knob_sweep",
        "WAL group-commit knob sweep (wal_sync_every)",
        &[
            "sync_every",
            "changes",
            "total_ms",
            "changes_per_s",
            "mean_append_us",
            "p99_append_us",
        ],
    );
    for sync_every in [1usize, 64, 1024] {
        let mut parts = sys.to_parts();
        parts.cfg.persist.wal_sync_every = sync_every;
        let mut sys2 = SmartStoreSystem::from_parts(parts);
        let dir = bench_dir(&format!("knob{sync_every}"));
        let (mut store, _) = sys2.save_snapshot(&dir).unwrap();

        let base = sys2.current_files();
        let mut latencies_us: Vec<f64> = Vec::with_capacity(n_changes as usize);
        let t0 = Instant::now();
        for i in 0..n_changes {
            let change = churn_change(&base, i);
            let t = Instant::now();
            sys2.apply_journaled(&mut store, change).unwrap();
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        store.sync().unwrap();
        let total = t0.elapsed();

        latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = latencies_us.iter().sum::<f64>() / latencies_us.len() as f64;
        let p99 = latencies_us[(latencies_us.len() * 99 / 100).min(latencies_us.len() - 1)];
        report.row(&[
            sync_every.to_string(),
            n_changes.to_string(),
            format!("{:.1}", total.as_secs_f64() * 1e3),
            format!("{:.0}", n_changes as f64 / total.as_secs_f64()),
            format!("{mean:.1}"),
            format!("{p99:.1}"),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }
    report.note(format!(
        "{n_files}-file system, 10 units; each append journals the change before the \
         in-memory mutation, fsync batched every sync_every frames"
    ));
    print!("{}", report.render());
    if let Err(e) = report.write_json(report_dir) {
        eprintln!("warning: could not write JSON report: {e}");
    }
}

fn bench_persistence(c: &mut Criterion) {
    let (n_files, n_units, n_changes) = scale();
    println!("== persistence benchmark: {n_files} files, {n_units} units, {n_changes} journaled changes ==");

    // Group-commit knob sweep on a smaller population (the knob only
    // affects WAL fsync cadence, not grouping scale).
    let report_dir = smartstore_bench::report::default_report_dir();
    let (knob_files, knob_changes) = if n_files <= 5_000 {
        (1_000, 300)
    } else {
        (5_000, 2_000)
    };
    wal_knob_sweep(knob_files, knob_changes, &report_dir);

    // Build once (expensive at 50k) and time it — this is the "full
    // regroup" cost a restart would pay without persistence.
    let pop = population(TraceKind::Msn, n_files, 7);
    let t0 = Instant::now();
    let mut sys =
        SmartStoreSystem::build(pop.files.clone(), n_units, SmartStoreConfig::default(), 7);
    let rebuild_time = t0.elapsed();
    println!("full regroup (LSI build): {rebuild_time:?}");

    // Seed the store and journal the churn.
    let dir = bench_dir("main");
    let (mut store, stats) = sys.save_snapshot(&dir).unwrap();
    println!(
        "snapshot: {} units / {} files / {} tree nodes / {:.1} MiB",
        stats.n_units,
        stats.n_files,
        stats.n_nodes,
        stats.bytes as f64 / (1024.0 * 1024.0)
    );
    let t0 = Instant::now();
    journaled_churn(&mut sys, &mut store, n_changes);
    let churn_time = t0.elapsed();
    let rate = n_changes as f64 / churn_time.as_secs_f64();
    println!(
        "WAL append: {n_changes} journaled changes in {churn_time:?} ({rate:.0} changes/s, {} bytes)",
        store.wal_bytes()
    );

    // Headline: cold start from disk vs. regroup from scratch.
    let t0 = Instant::now();
    let (reopened, _, report) = SmartStoreSystem::open_from_dir(&dir).unwrap();
    let cold_start = t0.elapsed();
    println!(
        "cold start (snapshot + {} WAL frames): {cold_start:?}  —  {:.1}× faster than regroup",
        report.replayed_frames,
        rebuild_time.as_secs_f64() / cold_start.as_secs_f64().max(1e-9)
    );
    assert_eq!(reopened.units().len(), sys.units().len());
    drop(reopened);
    drop(store);

    // Criterion micro-benchmarks on the same state.
    let parts = sys.to_parts();
    let mut g = c.benchmark_group("persistence");
    g.sample_size(10);
    g.bench_function("snapshot_encode", |b| {
        b.iter(|| {
            std::hint::black_box(snapshot::encode_snapshot(&parts))
                .1
                .bytes
        })
    });
    let (bytes, _) = snapshot::encode_snapshot(&parts);
    g.bench_function("snapshot_decode", |b| {
        b.iter(|| {
            std::hint::black_box(
                snapshot::decode_snapshot(&bytes, std::path::Path::new("mem")).unwrap(),
            )
            .units
            .len()
        })
    });
    g.bench_function("snapshot_write_fsync", |b| {
        let d = bench_dir("write");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            smartstore_persist::write_snapshot(
                &smartstore_persist::RealVfs,
                &parts,
                &d.join(format!("s{i}.snap")),
            )
            .unwrap()
        })
    });
    g.bench_function("open_from_dir_cold_start", |b| {
        b.iter(|| {
            std::hint::black_box(SmartStoreSystem::open_from_dir(&dir).unwrap())
                .0
                .units()
                .len()
        })
    });
    g.bench_function("wal_append_sync_batch64", |b| {
        let d = bench_dir("wal");
        let (mut s2, _) = sys.save_snapshot(&d).unwrap();
        let change = Change::Delete(123_456_789);
        b.iter(|| s2.append(0, &change).unwrap())
    });
    g.finish();

    // Rebuild comparison as a criterion entry too (quick scale only —
    // at 50k a single build already ran above).
    if n_files <= 5_000 {
        let mut g = c.benchmark_group("rebuild");
        g.sample_size(10);
        g.bench_function("full_regroup", |b| {
            b.iter(|| {
                SmartStoreSystem::build(pop.files.clone(), n_units, SmartStoreConfig::default(), 7)
                    .units()
                    .len()
            })
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_persistence
}
criterion_main!(benches);
