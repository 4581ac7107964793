//! Crash-recovery benchmark: how long does a cold start take as the
//! WAL grows, and what does salvaging a torn tail cost?
//!
//! Two sweeps feed `target/bench-reports/recovery.json` (the CI
//! perf-trajectory artifact):
//!
//! * **churn sweep** — snapshot a system, journal N changes, drop the
//!   store, and time `open_from_dir`. Recovery time should be the
//!   snapshot-decode floor plus a per-frame replay cost, so the sweep
//!   exposes the slope the `wal_compact_bytes` knob trades against
//!   write-path latency. Every recovery is gated bit-identical to the
//!   live system before its row is reported.
//! * **torn-tail salvage** — truncate the live WAL segment mid-frame
//!   (the bytes an honest disk loses in a crash between `write` and
//!   `fsync`) and time the salvage path: recovery must keep every
//!   complete frame, quarantine the torn bytes to a side file, and
//!   still open to a valid prefix state.
//!
//! Run with `cargo bench -p smartstore-bench --bench recovery`
//! (`--quick` for the CI smoke scale).

use criterion::{criterion_group, criterion_main, Criterion};
use smartstore::versioning::Change;
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_bench::fixture::population;
use smartstore_bench::Report;
use smartstore_persist::{snapshot, SystemPersist as _};
use smartstore_trace::{FileMetadata, TraceKind};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn quick() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

fn scale() -> (usize, usize, Vec<u64>) {
    if quick() {
        (2_000, 10, vec![0, 100, 400])
    } else {
        (20_000, 40, vec![0, 500, 2_000, 8_000])
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "smartstore_recovery_bench_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn churn_change(base: &[FileMetadata], i: u64) -> Change {
    match i % 3 {
        0 => {
            let mut f = base[(i as usize * 37) % base.len()].clone();
            f.file_id = 60_000_000 + i;
            f.name = format!("churn_{i}");
            Change::Insert(f)
        }
        1 => Change::Delete(base[(i as usize * 11) % base.len()].file_id),
        _ => {
            let mut f = base[(i as usize * 13) % base.len()].clone();
            f.size = f.size.wrapping_mul(2).max(1);
            f.mtime += 1.0;
            Change::Modify(f)
        }
    }
}

/// The live WAL segment of a store directory (largest generation — the
/// zero-padded names sort lexicographically).
fn live_wal(dir: &Path) -> PathBuf {
    let mut wals: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("wal-") && n.ends_with(".log"))
        .collect();
    wals.sort();
    dir.join(wals.last().expect("store has a WAL segment"))
}

/// Recovery time as a function of WAL length, bit-identity gated.
fn churn_sweep(n_files: usize, n_units: usize, levels: &[u64], report_dir: &Path) {
    let pop = population(TraceKind::Msn, n_files, 41);
    let base_sys = SmartStoreSystem::build(pop.files, n_units, SmartStoreConfig::default(), 41);
    let fingerprint = |sys: &SmartStoreSystem| snapshot::encode_snapshot(&sys.to_parts()).0;

    let mut report = Report::new(
        "recovery",
        "Cold-start recovery time vs. WAL churn level",
        &[
            "wal_changes",
            "replayed_frames",
            "wal_segments",
            "snapshot_mib",
            "recovery_ms",
            "frames_per_s",
            "torn_tail",
            "dropped_bytes",
            "quarantined_bytes",
        ],
    );

    for &n_changes in levels {
        // A fresh twin per level with compaction disabled, so
        // `n_changes` really is the replay length being measured.
        let mut parts = base_sys.to_parts();
        parts.cfg.persist.wal_compact_bytes = u64::MAX;
        let mut sys = SmartStoreSystem::from_parts(parts);
        let dir = bench_dir(&format!("churn{n_changes}"));
        let (mut store, _) = sys.save_snapshot(&dir).unwrap();
        let base = sys.current_files();
        for i in 0..n_changes {
            sys.apply_journaled(&mut store, churn_change(&base, i))
                .unwrap();
        }
        store.sync().unwrap();
        drop(store);

        let t0 = Instant::now();
        let (recovered, _, rep) = SmartStoreSystem::open_from_dir(&dir).unwrap();
        let recovery = t0.elapsed();

        assert_eq!(
            fingerprint(&recovered),
            fingerprint(&sys),
            "recovery diverged from the live system at churn level {n_changes}"
        );
        assert_eq!(rep.replayed_frames as u64, n_changes);
        assert_eq!(rep.dropped_tail_bytes, 0, "clean shutdown drops nothing");

        report.row(&[
            n_changes.to_string(),
            rep.replayed_frames.to_string(),
            rep.wal_segments.to_string(),
            format!("{:.1}", rep.snapshot_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", recovery.as_secs_f64() * 1e3),
            format!(
                "{:.0}",
                rep.replayed_frames as f64 / recovery.as_secs_f64().max(1e-9)
            ),
            "no".to_string(),
            "0".to_string(),
            "0".to_string(),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Torn-tail salvage at the highest churn level: chop the live WAL
    // mid-frame and time the prefix-first salvage.
    let n_changes = *levels.iter().max().unwrap();
    if n_changes > 0 {
        let mut parts = base_sys.to_parts();
        parts.cfg.persist.wal_compact_bytes = u64::MAX;
        let mut sys = SmartStoreSystem::from_parts(parts);
        let dir = bench_dir("torn");
        let (mut store, _) = sys.save_snapshot(&dir).unwrap();
        let base = sys.current_files();
        for i in 0..n_changes {
            sys.apply_journaled(&mut store, churn_change(&base, i))
                .unwrap();
        }
        store.sync().unwrap();
        drop(store);

        let wal = live_wal(&dir);
        let len = std::fs::metadata(&wal).unwrap().len();
        let torn_len = len - 7; // mid-frame: no frame is 7 bytes
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(torn_len).unwrap();
        drop(f);

        let t0 = Instant::now();
        let (recovered, _, rep) = SmartStoreSystem::open_from_dir(&dir).unwrap();
        let recovery = t0.elapsed();
        assert!(
            rep.dropped_tail_bytes > 0,
            "a mid-frame truncation must report dropped bytes"
        );
        assert_eq!(
            rep.replayed_frames as u64,
            n_changes - 1,
            "salvage keeps every complete frame"
        );
        assert!(!recovered.current_files().is_empty());

        report.row(&[
            n_changes.to_string(),
            rep.replayed_frames.to_string(),
            rep.wal_segments.to_string(),
            format!("{:.1}", rep.snapshot_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", recovery.as_secs_f64() * 1e3),
            format!(
                "{:.0}",
                rep.replayed_frames as f64 / recovery.as_secs_f64().max(1e-9)
            ),
            "yes".to_string(),
            rep.dropped_tail_bytes.to_string(),
            rep.quarantined_bytes.to_string(),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    report.note(format!(
        "{n_files}-file / {n_units}-unit system; every recovery gated bit-identical to the live \
         state (torn-tail row: to the longest valid prefix) before its row is reported; torn \
         bytes are preserved in a .quarantine side file, never silently discarded"
    ));
    print!("{}", report.render());
    if let Err(e) = report.write_json(report_dir) {
        eprintln!("warning: could not write JSON report: {e}");
    }
}

fn bench_recovery(c: &mut Criterion) {
    let (n_files, n_units, levels) = scale();
    println!("== recovery benchmark: {n_files} files, {n_units} units, churn levels {levels:?} ==");
    let report_dir = smartstore_bench::report::default_report_dir();
    churn_sweep(n_files, n_units, &levels, &report_dir);

    // Criterion entry: steady-state reopen at the mid churn level.
    let pop = population(TraceKind::Msn, n_files.min(4_000), 41);
    let mut sys = SmartStoreSystem::build(pop.files, 10, SmartStoreConfig::default(), 41);
    let dir = bench_dir("criterion");
    let (mut store, _) = sys.save_snapshot(&dir).unwrap();
    let base = sys.current_files();
    for i in 0..200 {
        sys.apply_journaled(&mut store, churn_change(&base, i))
            .unwrap();
    }
    store.sync().unwrap();
    drop(store);
    let mut g = c.benchmark_group("recovery");
    g.sample_size(10);
    g.bench_function("open_from_dir_200_frames", |b| {
        b.iter(|| {
            std::hint::black_box(SmartStoreSystem::open_from_dir(&dir).unwrap())
                .0
                .units()
                .len()
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_recovery
}
criterion_main!(benches);
