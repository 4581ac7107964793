//! Administrator audit — the paper's motivating scenario (§1):
//!
//! "after installing or updating software, a system administrator may
//! hope to track and find the changed files, which exist in both system
//! and user directories, to ward off malicious operations."
//!
//! A software update touches a batch of files scattered across the
//! *namespace* but correlated in *attribute space* (same modification
//! window, same process, similar write volumes). A directory walk would
//! have to scan everything; SmartStore answers it with one range query
//! over (mtime, write-volume) that lands on a couple of semantic groups.
//!
//! ```sh
//! cargo run --release --example admin_audit
//! ```

use smartstore_repro::smartstore::versioning::Change;
use smartstore_repro::smartstore::QueryOptions;
use smartstore_repro::smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_repro::trace::{TraceKind, WorkloadModel, ATTR_DIMS};

fn main() {
    let pop = WorkloadModel::new(TraceKind::Hp).generate(6_000, 7);
    let duration = pop.config.duration;
    let mut sys = SmartStoreSystem::build(pop.files.clone(), 60, SmartStoreConfig::default(), 7);
    println!(
        "system: {} units, {} groups over the HP workload model",
        sys.stats().n_units,
        sys.stats().n_groups
    );

    // --- The software update ---------------------------------------
    // An updater process rewrites 120 files spread over many owners and
    // directories during a 10-minute window near the end of the trace.
    let update_start = duration - 600.0;
    let updater_proc = 9999u32 % 128;
    let mut touched = Vec::new();
    for (i, f) in pop
        .files
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 50 == 3)
        .take(120)
    {
        let mut g = f.clone();
        g.mtime = update_start + (i % 600) as f64;
        g.atime = g.mtime;
        g.write_bytes += 4 << 20; // the update wrote ~4 MB into each
        g.proc_id = updater_proc;
        touched.push(g.file_id);
        sys.apply_change(Change::Modify(g));
    }
    println!(
        "software update rewrote {} files via proc {updater_proc}",
        touched.len()
    );

    // --- The audit query --------------------------------------------
    // "Everything modified in the update window with non-trivial write
    // volume" — a 2-constraint range query in the projected attribute
    // space; other dimensions unconstrained.
    let probe = sys.current_files();
    let (mut lo, mut hi) = ([f64::INFINITY; ATTR_DIMS], [f64::NEG_INFINITY; ATTR_DIMS]);
    for f in &probe {
        for (d, v) in f.attr_vector().into_iter().enumerate() {
            lo[d] = lo[d].min(v);
            hi[d] = hi[d].max(v);
        }
    }
    // Dim 2 = mtime (hours), dim 5 = ln(write_bytes).
    let mut qlo = lo.to_vec();
    let mut qhi = hi.to_vec();
    qlo[2] = update_start / 3600.0;
    qhi[2] = duration / 3600.0;
    qlo[5] = (4.0 * 1024.0 * 1024.0f64).ln(); // ≥ 4 MB written
    let out = sys.query().range(&qlo, &qhi, &QueryOptions::offline());

    let found = touched
        .iter()
        .filter(|id| out.file_ids.contains(id))
        .count();
    println!(
        "audit range query: {} results, {}/{} updated files found, \
         {} rows read, {} units probed, {} routed of {}",
        out.file_ids.len(),
        found,
        touched.len(),
        out.trace.rows_read,
        out.trace.units_probed,
        out.trace.units_routed,
        sys.stats().n_units,
    );
    assert!(
        found * 10 >= touched.len() * 9,
        "the audit should recover at least 90% of the update set"
    );

    // Contrast: a namespace walk would visit every unit.
    println!(
        "a directory-tree walk would have scanned all {} units ({} files)",
        sys.stats().n_units,
        probe.len()
    );
}
