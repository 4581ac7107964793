//! One function per paper artifact (Tables 1–6, Figures 7–14) plus the
//! DESIGN.md ablations. Each returns a [`Report`] whose rows mirror the
//! paper's rows/series.
//!
//! Scale note: populations are simulation-sized (thousands of files, not
//! billions); every experiment prints the workload parameters it used so
//! EXPERIMENTS.md can record paper-vs-measured comparisons of *shape*.

use crate::baselines::{DbmsBaseline, RTreeBaseline};
use crate::cost::{complex_query_cost, point_query_cost, QueryCost};
use crate::fixture::{population, system, workload};
use crate::replay::replay_complex_queries;
use crate::report::{ms, pct, Report};
use crate::sched::{run_batch, Job};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartstore::autoconfig::AutoConfig;
use smartstore::grouping::{optimal_threshold, partition_balanced_raw};
use smartstore::routing::{RouteMode, RouteTrace};
use smartstore::versioning::Change;
use smartstore::QueryOptions;
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_simnet::CostModel;
use smartstore_trace::query_gen::{recall, QueryGenConfig};
use smartstore_trace::scaleup::scale_nominal;
use smartstore_trace::{
    AttributeKind, MetadataPopulation, QueryDistribution, QueryWorkload, TraceKind, WorkloadModel,
};

/// Tables 1–3: the trace scale-up statistics (pure TIF arithmetic on the
/// published originals).
pub fn tables123() -> Vec<Report> {
    let specs = [
        ("table1", TraceKind::Hp),
        ("table2", TraceKind::Msn),
        ("table3", TraceKind::Eecs),
    ];
    specs
        .iter()
        .map(|&(id, kind)| {
            let model = WorkloadModel::new(kind);
            let tif = kind.paper_tif();
            let s = scale_nominal(&model, tif);
            let mut r = Report::new(
                id,
                &format!("Scaled-up {} (TIF={tif})", kind.name()),
                &["metric", "Original", &format!("TIF={tif}")],
            );
            let fmt = |x: f64| {
                if (x - x.round()).abs() < 1e-6 {
                    format!("{}", x.round() as i64)
                } else {
                    let s = format!("{x:.4}");
                    s.trim_end_matches('0').trim_end_matches('.').to_string()
                }
            };
            let mut push = |name: &str, o: Option<f64>, v: Option<f64>| {
                if let (Some(o), Some(v)) = (o, v) {
                    r.row(&[name.to_string(), fmt(o), fmt(v)]);
                }
            };
            push(
                "requests (million)",
                s.original.requests_m,
                s.scaled.requests_m,
            );
            push(
                "active users",
                s.original.active_users.map(|x| x as f64),
                s.scaled.active_users.map(|x| x as f64),
            );
            push(
                "user accounts",
                s.original.user_accounts.map(|x| x as f64),
                s.scaled.user_accounts.map(|x| x as f64),
            );
            push(
                "active files (million)",
                s.original.active_files_m,
                s.scaled.active_files_m,
            );
            push(
                "total files (million)",
                s.original.total_files_m,
                s.scaled.total_files_m,
            );
            push("total READ (million)", s.original.reads_m, s.scaled.reads_m);
            push(
                "total WRITE (million)",
                s.original.writes_m,
                s.scaled.writes_m,
            );
            push("READ size (GB)", s.original.read_gb, s.scaled.read_gb);
            push("WRITE size (GB)", s.original.write_gb, s.scaled.write_gb);
            push(
                "duration (hours)",
                s.original.duration_hours,
                s.scaled.duration_hours,
            );
            push(
                "total ops/IO (million)",
                s.original.total_ops_m,
                s.scaled.total_ops_m,
            );
            r
        })
        .collect()
}

/// Table 4: query latency of SmartStore vs R-tree vs DBMS on MSN and
/// EECS at TIF 120/160, for point / range / top-k batches.
///
/// Each batch of `Q` queries arrives at t = 0; DBMS and R-tree serialize
/// on one server while SmartStore spreads over 60 storage units — the
/// structural source of the paper's 1000× gap.
pub fn table4() -> Report {
    const N_UNITS: usize = 60;
    const Q: usize = 240;
    let cost = CostModel::default();
    let mut r = Report::new(
        "table4",
        "Query latency (ms) — SmartStore vs R-tree vs DBMS",
        &["query", "trace", "TIF", "DBMS", "R-tree", "SmartStore"],
    );
    for kind in [TraceKind::Msn, TraceKind::Eecs] {
        for tif in [120u32, 160] {
            // Population size scales with TIF (constant per-TIF factor
            // keeps runtime sane while preserving relative growth).
            let n_files = 40 * tif as usize;
            let pop = population(kind, n_files, 1000 + tif as u64);
            let db = DbmsBaseline::build(&pop.files);
            let rt = RTreeBaseline::build(&pop.files);
            let sys = system(&pop, N_UNITS, 42);
            let w = workload(&pop, QueryDistribution::Zipf, Q, 7 + tif as u64);

            let (d, t, s) = batch_point(&db, &rt, &sys, &w, &cost, N_UNITS);
            r.row(&[
                "point".into(),
                kind.name().to_string(),
                tif.to_string(),
                ms(d),
                ms(t),
                ms(s),
            ]);
            let (d, t, s) = batch_range(&db, &rt, &sys, &w, &cost, N_UNITS);
            r.row(&[
                "range".into(),
                kind.name().to_string(),
                tif.to_string(),
                ms(d),
                ms(t),
                ms(s),
            ]);
            let (d, t, s) = batch_topk(&db, &rt, &sys, &w, &cost, N_UNITS);
            r.row(&[
                "top-k".into(),
                kind.name().to_string(),
                tif.to_string(),
                ms(d),
                ms(t),
                ms(s),
            ]);
        }
    }
    r.note(format!(
        "batch of {Q} concurrent queries, mean completion latency; \
         centralized baselines queue on one server, SmartStore on {N_UNITS} units"
    ));
    r.note("paper shape: SmartStore << R-tree << DBMS, gap growing with TIF");
    r
}

fn baseline_jobs(costs: &[crate::baselines::BaselineCost]) -> Vec<Job> {
    costs
        .iter()
        .map(|c| Job {
            server: 0,
            service_ns: c.service_ns,
            wire_ns: c.latency_ns - c.service_ns,
        })
        .collect()
}

fn smartstore_jobs(outcomes: &[(usize, QueryCost)], cost: &CostModel) -> Vec<Job> {
    let wire = 2 * cost.wire_ns(256);
    outcomes
        .iter()
        .map(|&(server, qc)| Job {
            server,
            service_ns: qc.latency_ns.saturating_sub(wire),
            wire_ns: wire,
        })
        .collect()
}

fn batch_point(
    db: &DbmsBaseline,
    rt: &RTreeBaseline,
    sys: &SmartStoreSystem,
    w: &QueryWorkload,
    cost: &CostModel,
    n_units: usize,
) -> (f64, f64, f64) {
    let dc: Vec<_> = w.points.iter().map(|q| db.point(&q.name).1).collect();
    let tc: Vec<_> = w.points.iter().map(|q| rt.point(&q.name).1).collect();
    let mut rng = StdRng::seed_from_u64(98);
    let sc: Vec<_> = w
        .points
        .iter()
        .map(|q| {
            let out = sys.query().point(&q.name);
            (
                rng.gen_range(0..n_units),
                point_query_cost(&out.trace, sys, cost),
            )
        })
        .collect();
    (
        run_batch(&baseline_jobs(&dc), n_units).mean_latency_ns,
        run_batch(&baseline_jobs(&tc), n_units).mean_latency_ns,
        run_batch(&smartstore_jobs(&sc, cost), n_units).mean_latency_ns,
    )
}

fn batch_range(
    db: &DbmsBaseline,
    rt: &RTreeBaseline,
    sys: &SmartStoreSystem,
    w: &QueryWorkload,
    cost: &CostModel,
    n_units: usize,
) -> (f64, f64, f64) {
    let dc: Vec<_> = w.ranges.iter().map(|q| db.range(&q.lo, &q.hi).1).collect();
    let tc: Vec<_> = w.ranges.iter().map(|q| rt.range(&q.lo, &q.hi).1).collect();
    let mut rng = StdRng::seed_from_u64(99);
    let sc: Vec<_> = w
        .ranges
        .iter()
        .map(|q| {
            let out = sys.query().range(&q.lo, &q.hi, &QueryOptions::offline());
            (
                rng.gen_range(0..n_units),
                complex_query_cost(&out.trace, RouteMode::Offline, sys, cost),
            )
        })
        .collect();
    (
        run_batch(&baseline_jobs(&dc), n_units).mean_latency_ns,
        run_batch(&baseline_jobs(&tc), n_units).mean_latency_ns,
        run_batch(&smartstore_jobs(&sc, cost), n_units).mean_latency_ns,
    )
}

fn batch_topk(
    db: &DbmsBaseline,
    rt: &RTreeBaseline,
    sys: &SmartStoreSystem,
    w: &QueryWorkload,
    cost: &CostModel,
    n_units: usize,
) -> (f64, f64, f64) {
    let dc: Vec<_> = w.topks.iter().map(|q| db.topk(&q.point, q.k).1).collect();
    let tc: Vec<_> = w.topks.iter().map(|q| rt.topk(&q.point, q.k).1).collect();
    let mut rng = StdRng::seed_from_u64(100);
    let sc: Vec<_> = w
        .topks
        .iter()
        .map(|q| {
            let out = sys
                .query()
                .topk(&q.point, &QueryOptions::offline().with_k(q.k));
            (
                rng.gen_range(0..n_units),
                complex_query_cost(&out.trace, RouteMode::Offline, sys, cost),
            )
        })
        .collect();
    (
        run_batch(&baseline_jobs(&dc), n_units).mean_latency_ns,
        run_batch(&baseline_jobs(&tc), n_units).mean_latency_ns,
        run_batch(&smartstore_jobs(&sc, cost), n_units).mean_latency_ns,
    )
}

/// Fig. 7: per-node space overhead of the three systems.
pub fn fig7() -> Report {
    const N_UNITS: usize = 60;
    let mut r = Report::new(
        "fig7",
        "Space overhead per node (KB)",
        &["trace", "DBMS", "R-tree", "SmartStore"],
    );
    for kind in TraceKind::ALL {
        let pop = population(kind, 6000, 3);
        let db = DbmsBaseline::build(&pop.files);
        let rt = RTreeBaseline::build(&pop.files);
        let sys = system(&pop, N_UNITS, 3);
        let st = sys.stats();
        // Centralized structures sit on one node; SmartStore spreads.
        let smart = (st.tree_index_bytes + st.per_unit_index_bytes * N_UNITS) / N_UNITS;
        r.row(&[
            kind.name().to_string(),
            format!("{:.1}", db.index_bytes() as f64 / 1024.0),
            format!("{:.1}", rt.index_bytes() as f64 / 1024.0),
            format!("{:.1}", smart as f64 / 1024.0),
        ]);
    }
    r.note("paper shape: DBMS >> R-tree >> SmartStore (about 20x smaller than DBMS)");
    r
}

/// Evaluates the workload's range queries, then its top-k queries, and
/// yields what each touched. The route mode is irrelevant here: it
/// prices a trace, it does not shape one.
fn complex_traces<'a>(
    sys: &'a SmartStoreSystem,
    w: &'a QueryWorkload,
) -> impl Iterator<Item = RouteTrace> + 'a {
    let opts = QueryOptions::offline();
    let ranges = w
        .ranges
        .iter()
        .map(move |q| sys.query().range(&q.lo, &q.hi, &opts));
    let topks = w
        .topks
        .iter()
        .map(move |q| sys.query().topk(&q.point, &opts.with_k(q.k)));
    ranges.chain(topks).map(|out| out.trace)
}

/// Fig. 8: routing-distance hops for complex queries under three
/// distributions.
pub fn fig8() -> Report {
    const N_UNITS: usize = 60;
    let pop = population(TraceKind::Msn, 6000, 4);
    let mut r = Report::new(
        "fig8",
        "Routing distance (fraction of queries at each hop count, %)",
        &["distribution", "0 hop", "1 hop", "2 hops", ">=3 hops"],
    );
    for dist in QueryDistribution::ALL {
        let sys = system(&pop, N_UNITS, 4);
        let w = workload(&pop, dist, 150, 5);
        let mut hist = [0usize; 4];
        let mut total = 0usize;
        for trace in complex_traces(&sys, &w) {
            hist[trace.bearing_group_hops.min(3)] += 1;
            total += 1;
        }
        r.row(&[
            dist.name().to_string(),
            pct(hist[0] as f64 / total as f64),
            pct(hist[1] as f64 / total as f64),
            pct(hist[2] as f64 / total as f64),
            pct(hist[3] as f64 / total as f64),
        ]);
    }
    r.note("paper: 87.3%-90.6% of operations served by one group (0 hops)");
    r
}

/// Fig. 9: average hit rate for filename point queries.
pub fn fig9() -> Report {
    const N_UNITS: usize = 60;
    let mut r = Report::new("fig9", "Point-query hit rate (%)", &["trace", "hit rate"]);
    for kind in TraceKind::ALL {
        let pop = population(kind, 3000, 5);
        let mut sys = system(&pop, N_UNITS, 5);
        // Staleness pressure: insert 5% new files after the index is
        // built (their names are missing from the tree's Bloom replicas).
        let mut rng = StdRng::seed_from_u64(6);
        let mut fresh_names = Vec::new();
        for i in 0..(pop.files.len() / 20) {
            let mut f = pop.files[rng.gen_range(0..pop.files.len())].clone();
            f.file_id = 5_000_000 + i as u64;
            f.name = format!("fresh_{}_{i}", kind.name());
            fresh_names.push((f.name.clone(), f.file_id));
            sys.apply_change(Change::Insert(f));
        }
        // A query is "served accurately by the Bloom filters" when the
        // Bloom-guided descent lands on exactly the owning unit — no
        // false-positive detours, no staleness fallback (§5.4.1).
        let mut hits = 0usize;
        let mut total = 0usize;
        for f in pop.files.iter().step_by(9) {
            total += 1;
            let out = sys.query().point(&f.name);
            if out.file_ids.contains(&f.file_id) && out.trace.units_probed <= 1 {
                hits += 1;
            }
        }
        for (name, id) in &fresh_names {
            total += 1;
            let out = sys.query().point(name);
            if out.file_ids.contains(id) && out.trace.units_probed <= 1 {
                hits += 1;
            }
        }
        r.row(&[kind.name().to_string(), pct(hits as f64 / total as f64)]);
    }
    r.note("paper: over 88.2% of point queries served accurately by Bloom filters");
    r
}

/// Shared recall runner: mutate a fraction of files, then measure mean
/// recall of range and top-8 queries against fresh exhaustive ideals.
fn recall_run(
    pop: &MetadataPopulation,
    n_units: usize,
    dist: QueryDistribution,
    n_queries: usize,
    mutate_fraction: f64,
    versioning: bool,
    seed: u64,
) -> (f64, f64) {
    // Lazy replica refresh is disabled here so the experiment isolates
    // index staleness: the contrast under study (Tables 5-6, Fig. 10)
    // is "stale replicas + versioning" vs "stale replicas alone".
    let cfg = SmartStoreConfig {
        lazy_update_threshold: f64::INFINITY,
        ..Default::default()
    };
    let mut sys = SmartStoreSystem::build(pop.files.clone(), n_units, cfg, seed);
    sys.set_versioning(versioning);
    // Mutation stream: every (1/f)-th file is rewritten to a fresh
    // in-domain attribute position (as a software update or migration
    // would). The file stays on its original unit but now "belongs"
    // semantically elsewhere: queries aimed at its new position are
    // routed — via stale index replicas — to other units and miss it
    // unless versioning recovers the change.
    let mut current = pop.files.clone();
    if mutate_fraction > 0.0 {
        let mut mrng = StdRng::seed_from_u64(seed ^ 0x77aa);
        let step = (1.0 / mutate_fraction).round() as usize;
        let horizon = pop.config.duration;
        let n = pop.files.len();
        let mut idx = 0usize;
        while idx < n {
            // Adopt the attribute neighbourhood of a random other file
            // (the mutated file semantically "joins another campaign").
            let donor = &pop.files[mrng.gen_range(0..n)];
            let f = &mut current[idx];
            let jitter = 0.9 + mrng.gen::<f64>() * 0.2;
            f.ctime = (donor.ctime * jitter).min(horizon);
            f.mtime = (donor.mtime * jitter).min(horizon);
            f.atime = (donor.atime * jitter).min(horizon);
            f.size = ((donor.size as f64) * jitter).max(1.0) as u64;
            f.read_bytes = (donor.read_bytes as f64 * jitter) as u64;
            f.write_bytes = (donor.write_bytes as f64 * jitter) as u64;
            f.access_count = ((donor.access_count as f64) * jitter).max(1.0) as u32;
            sys.apply_change(Change::Modify(f.clone()));
            idx += step.max(1);
        }
    }
    let scratch = MetadataPopulation {
        files: current,
        config: pop.config.clone(),
    };
    let w = QueryWorkload::generate(
        &scratch,
        &QueryGenConfig {
            // Ranges over-sampled: sparse-region centers often have
            // empty ideals (skipped), so the effective sample shrinks.
            n_range: n_queries * 3,
            n_topk: n_queries,
            n_point: 0,
            k: 8,
            distribution: dist,
            seed: seed ^ 0xabc,
            ..Default::default()
        },
    );
    let mut range_recall = 0.0;
    let mut range_n = 0usize;
    for q in &w.ranges {
        if q.ideal.is_empty() {
            continue;
        }
        let out = sys.query().range(&q.lo, &q.hi, &QueryOptions::offline());
        range_recall += recall(&q.ideal, &out.file_ids);
        range_n += 1;
    }
    let mut topk_recall = 0.0;
    for q in &w.topks {
        let out = sys
            .query()
            .topk(&q.point, &QueryOptions::offline().with_k(q.k));
        topk_recall += recall(&q.ideal, &out.file_ids);
    }
    (
        range_recall / range_n.max(1) as f64,
        topk_recall / w.topks.len().max(1) as f64,
    )
}

/// Fig. 10: recall of top-8 and range queries on the HP trace under the
/// three distributions.
pub fn fig10() -> Report {
    let pop = population(TraceKind::Hp, 4000, 8);
    let mut r = Report::new(
        "fig10",
        "Recall of complex queries, HP trace (%)",
        &["distribution", "range query", "top-8 query"],
    );
    for dist in QueryDistribution::ALL {
        let (rr, tr) = recall_run(&pop, 40, dist, 150, 0.10, false, 8);
        r.row(&[dist.name().to_string(), pct(rr), pct(tr)]);
    }
    r.note("paper shape: top-k >= range; Zipf/Gauss >= Uniform");
    r
}

/// Fig. 11: optimal admission threshold vs system scale and vs tree
/// level (60 units).
pub fn fig11() -> Report {
    let mut r = Report::new(
        "fig11",
        "Optimal thresholds",
        &["x", "optimal threshold", "series"],
    );
    // (a) vs number of storage units.
    for n_units in [20usize, 40, 60, 80, 100] {
        let pop = population(TraceKind::Msn, n_units * 60, 9);
        let sys = system(&pop, n_units, 9);
        let vectors: Vec<Vec<f64>> = sys.units().iter().map(|u| u.centroid().to_vec()).collect();
        let (eps, _) = optimal_threshold(&vectors, 3, 10, 0.5);
        r.row(&[
            n_units.to_string(),
            format!("{eps:.2}"),
            "system scale".into(),
        ]);
    }
    // (b) per tree level at 60 units.
    let pop = population(TraceKind::Msn, 3600, 9);
    let sys = system(&pop, 60, 9);
    let tree = sys.tree();
    for level in 1..tree.height() as u32 {
        let nodes = tree.index_units_at_level(level);
        if nodes.len() < 2 {
            continue;
        }
        let vectors: Vec<Vec<f64>> = nodes
            .iter()
            .map(|&n| tree.node(n).centroid.clone())
            .collect();
        let (eps, _) = optimal_threshold(&vectors, 3, 10, 0.5);
        r.row(&[
            format!("level {level}"),
            format!("{eps:.2}"),
            "tree level (60 nodes)".into(),
        ]);
    }
    r.note(
        "paper shape: threshold varies smoothly with scale; deeper levels need lower thresholds",
    );
    r
}

/// Fig. 12: recall as a function of system scale (Gauss and Zipf);
/// the paper runs 1000 range + 1000 top-k queries, sampled
/// proportionally here.
pub fn fig12() -> Report {
    let mut r = Report::new(
        "fig12",
        "Recall vs system scale (%)",
        &[
            "units",
            "range (Gauss)",
            "top-8 (Gauss)",
            "range (Zipf)",
            "top-8 (Zipf)",
        ],
    );
    for n_units in [20usize, 40, 60, 80, 100] {
        let pop = population(TraceKind::Msn, n_units * 50, 10);
        let (rg, tg) = recall_run(&pop, n_units, QueryDistribution::Gauss, 60, 0.10, false, 10);
        let (rz, tz) = recall_run(&pop, n_units, QueryDistribution::Zipf, 60, 0.10, false, 10);
        r.row(&[n_units.to_string(), pct(rg), pct(tg), pct(rz), pct(tz)]);
    }
    r.note("paper: high recall maintained as the number of storage units grows");
    r
}

/// Fig. 13: on-line vs off-line query latency and message count vs
/// system scale (Zipf queries).
pub fn fig13() -> Report {
    let mut r = Report::new(
        "fig13",
        "On-line vs off-line (Zipf complex queries)",
        &[
            "units",
            "on-line ms",
            "off-line ms",
            "on-line msgs",
            "off-line msgs",
        ],
    );
    for n_units in [20usize, 40, 60, 80, 100] {
        let pop = population(TraceKind::Msn, n_units * 50, 11);
        let sys = system(&pop, n_units, 11);
        let w = workload(&pop, QueryDistribution::Zipf, 80, 11);
        let cost = CostModel::default();
        let (mut on_lat, mut off_lat, mut on_m, mut off_m) = (0u64, 0u64, 0u64, 0u64);
        let mut n = 0u64;
        // One evaluation, two prices.
        for trace in complex_traces(&sys, &w) {
            let on = complex_query_cost(&trace, RouteMode::Online, &sys, &cost);
            let off = complex_query_cost(&trace, RouteMode::Offline, &sys, &cost);
            on_lat += on.latency_ns;
            off_lat += off.latency_ns;
            on_m += on.messages;
            off_m += off.messages;
            n += 1;
        }
        r.row(&[
            n_units.to_string(),
            ms(on_lat as f64 / n as f64),
            ms(off_lat as f64 / n as f64),
            format!("{:.1}", on_m as f64 / n as f64),
            format!("{:.1}", off_m as f64 / n as f64),
        ]);
    }
    r.note(
        "paper shape: off-line cuts messages sharply and latency moderately; gap widens with scale",
    );
    r
}

/// Fig. 14: versioning overhead — space per index unit and extra query
/// latency vs the version ratio.
pub fn fig14() -> Report {
    let mut r = Report::new(
        "fig14",
        "Versioning overhead vs version ratio",
        &["trace", "ratio", "space/group (KB)", "extra latency (%)"],
    );
    for kind in [TraceKind::Msn, TraceKind::Eecs] {
        let pop = population(kind, 3000, 12);
        for ratio in [1u32, 2, 4, 8, 16, 32] {
            let mut cfg = SmartStoreConfig {
                version_ratio: ratio,
                ..Default::default()
            };
            // Disable lazy refresh so all changes stay in chains (pure
            // versioning overhead measurement).
            cfg.lazy_update_threshold = f64::INFINITY;
            let mut sys = SmartStoreSystem::build(pop.files.clone(), 30, cfg.clone(), 12);
            sys.set_versioning(true);
            let mut sys_nv = SmartStoreSystem::build(pop.files.clone(), 30, cfg, 12);
            sys_nv.set_versioning(false);
            for f in pop.files.iter().step_by(16) {
                let mut g = f.clone();
                g.access_count += 7;
                g.read_bytes += 1 << 20;
                sys.apply_change(Change::Modify(g.clone()));
                sys_nv.apply_change(Change::Modify(g));
            }
            let w = workload(&pop, QueryDistribution::Zipf, 40, 12);
            let cost = CostModel::default();
            let range_ns = |sys: &SmartStoreSystem| -> u64 {
                w.ranges
                    .iter()
                    .map(|q| {
                        let out = sys.query().range(&q.lo, &q.hi, &QueryOptions::offline());
                        complex_query_cost(&out.trace, RouteMode::Offline, sys, &cost).latency_ns
                    })
                    .sum()
            };
            let (with_v, without_v) = (range_ns(&sys), range_ns(&sys_nv));
            let extra = (with_v as f64 - without_v as f64) / without_v as f64;
            r.row(&[
                kind.name().to_string(),
                ratio.to_string(),
                format!("{:.2}", sys.version_space_per_group() / 1024.0),
                format!("{:.1}", extra * 100.0),
            ]);
        }
    }
    r.note("paper shape: space falls as ratio grows; extra latency stays under ~10%");
    r
}

/// Tables 5–6: recall of range and top-8 queries with and without
/// versioning as the query count grows, for the MSN or EECS trace.
pub fn table56(kind: TraceKind) -> Report {
    let id = if kind == TraceKind::Msn {
        "table5"
    } else {
        "table6"
    };
    let mut r = Report::new(
        id,
        &format!("Recall +/- versioning, {} trace (%)", kind.name()),
        &[
            "distribution",
            "kind",
            "1000",
            "2000",
            "3000",
            "4000",
            "5000",
        ],
    );
    let pop = population(kind, 3000, 13);
    for dist in QueryDistribution::ALL {
        let mut rows: [Vec<String>; 4] = [
            vec![dist.name().to_string(), "Range Query".into()],
            vec![dist.name().to_string(), "Range + Versioning".into()],
            vec![dist.name().to_string(), "K=8".into()],
            vec![dist.name().to_string(), "K=8 + Versioning".into()],
        ];
        for (qi, _n_queries) in [1000usize, 2000, 3000, 4000, 5000].iter().enumerate() {
            // More queries = a longer horizon = more accumulated changes
            // before the average query runs: the mutation fraction grows
            // with the query count; recall is estimated on a fixed
            // query sample.
            let mutate = 0.04 + 0.04 * qi as f64;
            let (r_nv, t_nv) = recall_run(&pop, 30, dist, 150, mutate, false, 14 + qi as u64);
            let (r_v, t_v) = recall_run(&pop, 30, dist, 150, mutate, true, 14 + qi as u64);
            rows[0].push(pct(r_nv));
            rows[1].push(pct(r_v));
            rows[2].push(pct(t_nv));
            rows[3].push(pct(t_v));
        }
        for row in rows {
            r.row(&row);
        }
    }
    r.note("paper shape: recall decays with query count; versioning restores it to ~95-100%");
    r
}

/// Ablation: LSI placement vs K-means-on-raw vs random placement.
pub fn ablation_grouping() -> Report {
    const N_UNITS: usize = 40;
    let pop = population(TraceKind::Msn, 4000, 15);
    let mut r = Report::new(
        "ablation-grouping",
        "Grouping quality: 0-hop %, units probed/query",
        &[
            "placement",
            "0-hop %",
            "mean units probed",
            "mean latency ms",
        ],
    );
    let vectors: Vec<Vec<f64>> = pop.files.iter().map(|f| f.attr_vector().to_vec()).collect();
    let mut rng = StdRng::seed_from_u64(15);
    let random: Vec<usize> = (0..pop.files.len())
        .map(|_| rng.gen_range(0..N_UNITS))
        .collect();
    let raw = partition_balanced_raw(&vectors, N_UNITS, 15);
    let placements: Vec<(&str, Option<Vec<usize>>)> = vec![
        ("LSI (SmartStore)", None),
        ("K-means raw attrs", Some(raw)),
        ("random", Some(random)),
    ];
    for (name, assignment) in placements {
        let sys = match assignment {
            None => {
                SmartStoreSystem::build(pop.files.clone(), N_UNITS, SmartStoreConfig::default(), 15)
            }
            Some(a) => SmartStoreSystem::build_with_assignment(
                pop.files.clone(),
                &a,
                N_UNITS,
                SmartStoreConfig::default(),
                15,
            ),
        };
        let w = workload(&pop, QueryDistribution::Zipf, 100, 16);
        let cost = CostModel::default();
        let (mut zero, mut probed, mut lat, mut n) = (0usize, 0usize, 0u64, 0usize);
        for trace in complex_traces(&sys, &w) {
            zero += usize::from(trace.bearing_group_hops == 0);
            probed += trace.units_probed;
            lat += complex_query_cost(&trace, RouteMode::Offline, &sys, &cost).latency_ns;
            n += 1;
        }
        r.row(&[
            name.to_string(),
            pct(zero as f64 / n as f64),
            format!("{:.2}", probed as f64 / n as f64),
            ms(lat as f64 / n as f64),
        ]);
    }
    r.note("expected: LSI >= K-means-raw >> random on 0-hop and units probed");
    r
}

/// Ablation: automatic configuration on/off for attribute-subset
/// queries.
pub fn ablation_autoconfig() -> Report {
    const N_UNITS: usize = 30;
    let pop = population(TraceKind::Msn, 3000, 17);
    let sys = system(&pop, N_UNITS, 17);
    let candidates = vec![
        vec![AttributeKind::Size],
        vec![AttributeKind::Size, AttributeKind::CreationTime],
        vec![
            AttributeKind::ModificationTime,
            AttributeKind::ReadBytes,
            AttributeKind::WriteBytes,
        ],
    ];
    // Keep all candidates for the ablation.
    let cfg = SmartStoreConfig {
        autoconfig_threshold: -1.0,
        ..Default::default()
    };
    let ac = AutoConfig::configure(sys.units(), &candidates, &cfg);
    let (lo_b, hi_b) = pop.attr_bounds();

    let mut r = Report::new(
        "ablation-autoconfig",
        "Subset queries: dedicated subset tree vs full-D tree",
        &[
            "query dims",
            "subset-tree nodes",
            "full-tree nodes",
            "subset units",
            "full units",
        ],
    );
    let mut rng = StdRng::seed_from_u64(18);
    for dims in &candidates {
        let (mut sn, mut fnodes, mut su, mut fu) = (0usize, 0usize, 0usize, 0usize);
        for _ in 0..60 {
            // A range on the subset dims around a random file.
            let f = &pop.files[rng.gen_range(0..pop.files.len())];
            let v = f.attr_vector();
            let sub_lo: Vec<f64> = dims
                .iter()
                .map(|&k| v[k.index()] - 0.05 * (hi_b[k.index()] - lo_b[k.index()]))
                .collect();
            let sub_hi: Vec<f64> = dims
                .iter()
                .map(|&k| v[k.index()] + 0.05 * (hi_b[k.index()] - lo_b[k.index()]))
                .collect();
            // Subset tree: query its own dimensionality directly.
            let (tree, _) = ac.select(dims);
            let route = tree.tree.route_range(&sub_lo, &sub_hi);
            sn += route.nodes_visited;
            su += route.target_units.len();
            // Full tree: unconstrained in the other dimensions.
            let mut full_lo = lo_b.clone();
            let mut full_hi = hi_b.clone();
            for (i, &k) in dims.iter().enumerate() {
                full_lo[k.index()] = sub_lo[i];
                full_hi[k.index()] = sub_hi[i];
            }
            let full_route = ac.full.tree.route_range(&full_lo, &full_hi);
            fnodes += full_route.nodes_visited;
            fu += full_route.target_units.len();
        }
        r.row(&[
            dims.iter().map(|d| d.name()).collect::<Vec<_>>().join("+"),
            format!("{:.1}", sn as f64 / 60.0),
            format!("{:.1}", fnodes as f64 / 60.0),
            format!("{:.1}", su as f64 / 60.0),
            format!("{:.1}", fu as f64 / 60.0),
        ]);
    }
    r.note("finding: with placement already driven by full-D correlation, projected unit MBRs retain most pruning power, so dedicated subset trees give only modest routing gains — the autoconfig threshold (\u{a7}2.4) exists precisely to discard such redundant trees");
    r
}

/// Ablation: Bloom filter geometry sweep (bits at fixed k = 7).
pub fn ablation_bloom() -> Report {
    const N_UNITS: usize = 30;
    let pop = population(TraceKind::Msn, 3000, 19);
    let mut r = Report::new(
        "ablation-bloom",
        "Bloom geometry: ghost-query pruning vs memory",
        &[
            "bits",
            "mean units probed (ghost)",
            "hit rate %",
            "bloom KB/unit",
        ],
    );
    for bits in [256usize, 512, 1024, 2048, 4096] {
        let cfg = SmartStoreConfig {
            bloom_bits: bits,
            ..Default::default()
        };
        let sys = SmartStoreSystem::build(pop.files.clone(), N_UNITS, cfg, 19);
        // Ghost probes: absent names.
        let mut probed = 0usize;
        for i in 0..100 {
            let out = sys.query().point(&format!("ghost_{i}"));
            probed += out.trace.units_probed;
        }
        // Real probes: existing names.
        let mut hits = 0usize;
        let mut total = 0usize;
        for f in pop.files.iter().step_by(17) {
            total += 1;
            if sys.query().point(&f.name).file_ids.contains(&f.file_id) {
                hits += 1;
            }
        }
        r.row(&[
            bits.to_string(),
            format!("{:.2}", probed as f64 / 100.0),
            pct(hits as f64 / total as f64),
            format!("{:.2}", bits as f64 / 8.0 / 1024.0),
        ]);
    }
    r.note(
        "expected: larger filters prune ghosts harder at linear memory cost; hit rate stays high",
    );
    r
}

/// Ablation: replica placement for off-line routing — local first-level
/// replicas vs fetching index vectors from a directory node vs pure
/// on-line multicast.
pub fn ablation_replica() -> Report {
    const N_UNITS: usize = 40;
    let pop = population(TraceKind::Msn, 4000, 20);
    let sys = system(&pop, N_UNITS, 20);
    let w = workload(&pop, QueryDistribution::Zipf, 100, 21);
    let cost = CostModel::default();
    let extra_hop = cost.wire_ns(128);
    let (mut off_lat, mut off_m, mut on_lat, mut on_m) = (0u64, 0u64, 0u64, 0u64);
    let mut n = 0u64;
    for q in &w.ranges {
        let trace = sys
            .query()
            .range(&q.lo, &q.hi, &QueryOptions::offline())
            .trace;
        let off = complex_query_cost(&trace, RouteMode::Offline, &sys, &cost);
        let on = complex_query_cost(&trace, RouteMode::Online, &sys, &cost);
        off_lat += off.latency_ns;
        off_m += off.messages;
        on_lat += on.latency_ns;
        on_m += on.messages;
        n += 1;
    }
    let mut r = Report::new(
        "ablation-replica",
        "Replica placement for off-line routing (means per query)",
        &["scheme", "latency ms", "messages"],
    );
    r.row(&[
        "level-1 replicas at every unit (paper)".to_string(),
        ms(off_lat as f64 / n as f64),
        format!("{:.1}", off_m as f64 / n as f64),
    ]);
    // No local replica: the home unit must round-trip to a directory
    // node before routing (two extra wire legs + one extra message).
    r.row(&[
        "no replica (directory round-trip)".to_string(),
        ms((off_lat + 2 * extra_hop * n) as f64 / n as f64),
        format!("{:.1}", (off_m + 2 * n) as f64 / n as f64),
    ]);
    r.row(&[
        "no pre-processing (on-line multicast)".to_string(),
        ms(on_lat as f64 / n as f64),
        format!("{:.1}", on_m as f64 / n as f64),
    ]);
    r.note("replicating first-level vectors is the sweet spot: one targeted hop, no flood");
    r
}

/// Extension experiment (not in the paper): latency vs offered load,
/// measured on the event-driven cluster simulator with per-unit
/// queueing ([`crate::replay`]). Shows where the decentralized design
/// saturates.
pub fn ext_load_sweep() -> Report {
    const N_UNITS: usize = 40;
    let pop = population(TraceKind::Msn, 4000, 23);
    let sys = system(&pop, N_UNITS, 23);
    let w = workload(&pop, QueryDistribution::Zipf, 150, 23);
    let cost = CostModel::default();
    let mut r = Report::new(
        "ext-load",
        "Latency vs offered load (event-driven replay, extension)",
        &["inter-arrival us", "mean ms", "p99 ms", "makespan ms"],
    );
    for inter_us in [0u64, 50, 200, 1000, 5000] {
        let stats = replay_complex_queries(&sys, &w, inter_us * 1000, 23, &cost);
        r.row(&[
            inter_us.to_string(),
            ms(stats.mean_latency_ns),
            ms(stats.p99_latency_ns as f64),
            ms(stats.makespan_ns as f64),
        ]);
    }
    r.note("closed burst (0) queues hardest; latency falls toward the idle cost as arrivals relax");
    r
}

/// Runs every experiment in order.
pub fn all() -> Vec<Report> {
    let mut out = tables123();
    out.push(table4());
    out.push(fig7());
    out.push(fig8());
    out.push(fig9());
    out.push(fig10());
    out.push(fig11());
    out.push(fig12());
    out.push(fig13());
    out.push(fig14());
    out.push(table56(TraceKind::Msn));
    out.push(table56(TraceKind::Eecs));
    out.push(ablation_grouping());
    out.push(ablation_autoconfig());
    out.push(ablation_bloom());
    out.push(ablation_replica());
    out.push(ext_load_sweep());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables123_reproduce_paper_arithmetic() {
        let reports = tables123();
        assert_eq!(reports.len(), 3);
        let t1 = &reports[0];
        // HP requests: 94.7 → 7576.
        let row = t1.rows.iter().find(|r| r[0].contains("requests")).unwrap();
        assert_eq!(row[1], "94.7");
        assert_eq!(row[2], "7576");
    }

    #[test]
    fn fig7_ordering_holds() {
        let r = fig7();
        for row in &r.rows {
            let dbms: f64 = row[1].parse().unwrap();
            let rtree: f64 = row[2].parse().unwrap();
            let smart: f64 = row[3].parse().unwrap();
            assert!(dbms > rtree, "{row:?}");
            assert!(rtree > smart, "{row:?}");
        }
    }

    #[test]
    fn ablation_bloom_memory_column_linear() {
        let r = ablation_bloom();
        let kb: Vec<f64> = r.rows.iter().map(|row| row[3].parse().unwrap()).collect();
        for w in kb.windows(2) {
            // Rendered with 2 decimals, so allow rounding slack.
            assert!((w[1] / w[0] - 2.0).abs() < 0.15, "{} vs {}", w[0], w[1]);
        }
    }
}
