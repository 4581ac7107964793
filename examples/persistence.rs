//! Persistence walkthrough: build a system, snapshot it, journal live
//! churn through the write-ahead log — compacting into a fresh full
//! snapshot each time the log outgrows its threshold — "crash" (drop
//! everything), then reopen from disk and show the recovered system
//! (snapshot + WAL replay) answers queries identically — without
//! re-running the LSI grouping pipeline.
//!
//! ```sh
//! cargo run --release --example persistence
//! ```

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use smartstore_repro::smartstore::versioning::Change;
use smartstore_repro::smartstore::QueryOptions;
use smartstore_repro::smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_repro::trace::query_gen::QueryGenConfig;
use smartstore_repro::trace::{
    MetadataPopulation, QueryDistribution, QueryWorkload, TraceKind, WorkloadModel,
};
use smartstore_repro::SystemPersist as _;
use std::time::Instant;

fn main() {
    let dir = std::env::temp_dir().join(format!("smartstore_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Build a system the expensive way: generate a trace and group it
    //    semantically with the full LSI pipeline.
    let pop = WorkloadModel::new(TraceKind::Msn).generate(8_000, 42);
    let t0 = Instant::now();
    let mut sys = SmartStoreSystem::build(pop.files.clone(), 40, SmartStoreConfig::default(), 42);
    let build_time = t0.elapsed();
    println!("built system from scratch in {build_time:?} (LSI grouping of 8k files)");
    // Compact aggressively so the walkthrough shows several snapshot
    // generations (production keeps the default 16 MiB threshold).
    sys.cfg.persist.wal_compact_bytes = 24 * 1024;

    // 2. Make it durable: snapshot + an empty write-ahead log.
    let (mut store, stats) = sys.save_snapshot(&dir).expect("snapshot");
    println!(
        "snapshot generation {}: {:.1} KiB ({} units, {} files, {} tree nodes)",
        store.generation(),
        stats.bytes as f64 / 1024.0,
        stats.n_units,
        stats.n_files,
        stats.n_nodes,
    );

    // 3. Live churn, journaled write-ahead: each change hits the WAL
    //    (group-tagged, checksummed) before the in-memory structures;
    //    past the threshold the log compacts into the next full
    //    snapshot generation.
    let base = sys.current_files();
    for i in 0..500u64 {
        let change = match i % 3 {
            0 => {
                let mut f = base[(i as usize * 17) % base.len()].clone();
                f.file_id = 1_000_000 + i;
                f.name = format!("fresh_{i}.dat");
                Change::Insert(f)
            }
            1 => Change::Delete(base[(i as usize * 29) % base.len()].file_id),
            _ => {
                let mut f = base[(i as usize * 41) % base.len()].clone();
                f.size *= 2;
                Change::Modify(f)
            }
        };
        sys.apply_journaled(&mut store, change).expect("journal");
    }
    store.sync().expect("sync");
    println!(
        "journaled 500 changes: compacted into snapshot generation {}, WAL now at {} frames / {} bytes",
        store.generation(),
        store.wal_frames(),
        store.wal_bytes(),
    );

    // 4. "Crash": drop the live system and the store handle.
    let live = sys; // keep one copy only to verify equivalence below
    drop(store);

    // 5. Recover: snapshot + WAL replay, no regrouping.
    let t0 = Instant::now();
    let (reopened, _store, report) = SmartStoreSystem::open_from_dir(&dir).expect("recovery");
    let open_time = t0.elapsed();
    println!(
        "reopened from disk in {open_time:?} (snapshot gen {}, {} WAL frames replayed, \
         {} torn bytes dropped)",
        report.generation, report.replayed_frames, report.dropped_tail_bytes,
    );
    println!(
        "cold start vs rebuild: {:.1}× faster",
        build_time.as_secs_f64() / open_time.as_secs_f64().max(1e-9)
    );

    // 6. Prove equivalence: the recovered system answers exactly like
    //    the live one across all three query types.
    let current = MetadataPopulation {
        files: live.current_files(),
        config: pop.config.clone(),
    };
    let w = QueryWorkload::generate(
        &current,
        &QueryGenConfig {
            n_range: 30,
            n_topk: 30,
            n_point: 30,
            k: 8,
            distribution: QueryDistribution::Zipf,
            seed: 7,
            ..Default::default()
        },
    );
    let mut checked = 0;
    for q in &w.ranges {
        assert_eq!(
            live.query()
                .range(&q.lo, &q.hi, &QueryOptions::offline())
                .file_ids,
            reopened
                .query()
                .range(&q.lo, &q.hi, &QueryOptions::offline())
                .file_ids,
        );
        checked += 1;
    }
    for q in &w.topks {
        assert_eq!(
            live.query()
                .topk(&q.point, &QueryOptions::offline().with_k(q.k))
                .file_ids,
            reopened
                .query()
                .topk(&q.point, &QueryOptions::offline().with_k(q.k))
                .file_ids,
        );
        checked += 1;
    }
    for q in &w.points {
        assert_eq!(
            live.query().point(&q.name).file_ids,
            reopened.query().point(&q.name).file_ids,
        );
        checked += 1;
    }
    println!("{checked}/90 queries answered identically by the recovered system ✓");

    let _ = std::fs::remove_dir_all(&dir);
}
