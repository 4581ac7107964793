//! De-duplication candidate discovery (§1.2 of the paper):
//!
//! "SmartStore can help identify the duplicate copies that often exhibit
//! similar or approximate multi-dimensional attributes, such as file
//! size and created time … organizes them into the same or adjacent
//! groups where duplicate copies can be placed together with high
//! probability to narrow the search space."
//!
//! We plant duplicate copies of a set of master files (same size,
//! near-identical timestamps), then use top-k queries at each master to
//! shortlist candidates — touching a few semantic groups instead of
//! brute-forcing the whole system.
//!
//! ```sh
//! cargo run --release --example dedup_candidates
//! ```

use smartstore_repro::smartstore::QueryOptions;
use smartstore_repro::smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_repro::trace::{TraceKind, WorkloadModel};

fn main() {
    let mut pop = WorkloadModel::new(TraceKind::Eecs).generate(5_000, 21);

    // Plant duplicates: 40 masters, 3 copies each, written moments after
    // the master with the same content (⇒ same size, similar I/O).
    let n = pop.files.len();
    let mut masters = Vec::new();
    let mut copies_of: Vec<(u64, Vec<u64>)> = Vec::new();
    for m in 0..40usize {
        let master = pop.files[m * 97 % n].clone();
        let mut copies = Vec::new();
        for c in 0..3u64 {
            let mut dup = master.clone();
            dup.file_id = 1_000_000 + (m as u64) * 10 + c;
            dup.name = format!("copy{c}_{}", master.name);
            dup.dir = format!("/backup{c}{}", master.dir);
            dup.ctime = (master.ctime + 1.0 + c as f64).min(pop.config.duration);
            dup.mtime = (master.mtime + 1.0 + c as f64).min(pop.config.duration);
            dup.atime = dup.atime.max(dup.mtime);
            copies.push(dup.file_id);
            pop.files.push(dup);
        }
        masters.push(master.file_id);
        copies_of.push((master.file_id, copies));
    }
    println!(
        "population: {} files incl. {} planted duplicates",
        pop.files.len(),
        40 * 3
    );

    let mut sys = SmartStoreSystem::build(pop.files.clone(), 50, SmartStoreConfig::default(), 21);

    // For each master, shortlist its k nearest files — duplicates have
    // near-identical attributes, so they should dominate the shortlist.
    let by_id: std::collections::HashMap<u64, _> =
        pop.files.iter().map(|f| (f.file_id, f)).collect();
    let mut recovered = 0usize;
    let mut total_units = 0usize;
    for (master, copies) in &copies_of {
        let point = by_id[master].attr_vector();
        let out = sys.query().topk(&point, &QueryOptions::offline().with_k(8));
        recovered += copies.iter().filter(|c| out.file_ids.contains(c)).count();
        total_units += out.trace.units_probed;
    }
    let total_copies = copies_of.iter().map(|(_, c)| c.len()).sum::<usize>();
    println!(
        "dedup shortlists recovered {recovered}/{total_copies} copies; \
         mean units probed per master: {:.1} of {}",
        total_units as f64 / copies_of.len() as f64,
        sys.stats().n_units,
    );
    assert!(
        recovered * 10 >= total_copies * 8,
        "at least 80% of planted duplicates should appear in top-8 shortlists"
    );
    println!(
        "brute force would compare each master against all {} files",
        pop.files.len()
    );

    // Purge every confirmed duplicate in one admin sweep: the bulk path
    // compacts each affected unit once and republishes fresh summaries,
    // instead of paying a per-file removal + recompute 120 times.
    let all_copies: Vec<u64> = copies_of.iter().flat_map(|(_, c)| c.clone()).collect();
    let purged = sys.remove_files_bulk(&all_copies);
    println!("purged {purged} duplicate copies in one bulk sweep");
    assert_eq!(purged, total_copies);
    for (_, copies) in &copies_of {
        for c in copies {
            let name = &by_id[c].name;
            assert!(
                sys.query().point(name).file_ids.is_empty(),
                "purged copy {name} must be gone"
            );
        }
    }
    for master in &masters {
        let name = &by_id[master].name;
        assert_eq!(
            sys.query().point(name).file_ids,
            vec![*master],
            "masters must survive the purge"
        );
    }
    println!("masters intact, copies gone — dedup sweep complete");
}
