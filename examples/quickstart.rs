//! Quickstart: build a SmartStore deployment over a synthetic trace and
//! run the three query types. Each query returns its answer and a
//! `RouteTrace` of what it touched (raw counts); the paper's simulated
//! latencies come from pricing such traces in `smartstore-bench`
//! (`cargo run --release -p smartstore-bench --bin repro -- table4`).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use smartstore_repro::smartstore::QueryOptions;
use smartstore_repro::smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_repro::trace::query_gen::QueryGenConfig;
use smartstore_repro::trace::{QueryDistribution, QueryWorkload, TraceKind, WorkloadModel};

fn main() {
    // 1. A workload model stands in for a real file-system trace: here
    //    the MSN production-server model, 5 000 files.
    let pop = WorkloadModel::new(TraceKind::Msn).generate(5_000, 42);
    println!(
        "generated {} file-metadata records (MSN model)",
        pop.files.len()
    );

    // 2. Build the system: files are partitioned into 50 storage units
    //    by semantic correlation; the units aggregate into a semantic
    //    R-tree; index units are mapped onto storage units.
    let sys = SmartStoreSystem::build(pop.files.clone(), 50, SmartStoreConfig::default(), 42);
    let stats = sys.stats();
    println!(
        "built system: {} units in {} semantic groups, R-tree height {}, index {} KB",
        stats.n_units,
        stats.n_groups,
        stats.tree_height,
        stats.tree_index_bytes / 1024,
    );

    // 3. A filename point query (the classic FS lookup).
    let name = &pop.files[1234].name;
    let out = sys.query().point(name);
    println!(
        "point query  '{name}': found={:?}  filters probed={}  units probed={}",
        out.file_ids, out.trace.filters_probed, out.trace.units_probed,
    );

    // 4. Complex queries. The paper's example: "Which experiments did I
    //    run yesterday that took less than 30 minutes and generated
    //    files larger than 2.6 GB?" — a multi-attribute range query.
    let w = QueryWorkload::generate(
        &pop,
        &QueryGenConfig {
            n_range: 1,
            n_topk: 1,
            n_point: 0,
            distribution: QueryDistribution::Zipf,
            seed: 7,
            ..Default::default()
        },
    );
    let rq = &w.ranges[0];
    let out = sys.query().range(&rq.lo, &rq.hi, &QueryOptions::offline());
    println!(
        "range query : {} results ({} ideal)  records examined={}  group hops={}",
        out.file_ids.len(),
        rq.ideal.len(),
        out.trace.records_examined,
        out.trace.bearing_group_hops,
    );

    // 5. A top-k query: "file size around X, last visited around T —
    //    show me the 8 closest files".
    let tq = &w.topks[0];
    let out = sys
        .query()
        .topk(&tq.point, &QueryOptions::offline().with_k(tq.k));
    let hits = tq
        .ideal
        .iter()
        .filter(|id| out.file_ids.contains(id))
        .count();
    println!(
        "top-{} query: recall {}/{}  units probed={} of {} (MaxD pruning)",
        tq.k, hits, tq.k, out.trace.units_probed, out.trace.units_routed,
    );
}
