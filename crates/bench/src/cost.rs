//! The paper's §5 simulated cost of one routed query.
//!
//! Evaluation in `smartstore` returns an answer and a [`RouteTrace`] of
//! raw counts; the functions here price such a trace — message counts
//! and a critical-path latency under a [`CostModel`] — for Table 4 and
//! Figs. 8, 13 and 14. Parallel branches (multicast fan-out) overlap,
//! serial steps add. This is the only place the formulas live: the
//! serving crates link no simulator.
//!
//! Three inputs are properties of the *system*, not of a query, and are
//! read from the system the caller hands in (which must be in the state
//! the query ran against): the number of first-level groups, the
//! root's unit count, and the version headers a roll-back crosses.

use smartstore::routing::{RouteMode, RouteTrace};
use smartstore::SmartStoreSystem;
use smartstore_simnet::CostModel;

/// Cost of one routed query.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryCost {
    /// Critical-path latency in nanoseconds.
    pub latency_ns: u64,
    /// Total network messages.
    pub messages: u64,
    /// Storage units that evaluated the query.
    pub units_probed: usize,
    /// First-level group hops beyond the first (Fig. 8 metric).
    pub group_hops: usize,
}

/// Size assumptions for query/response payloads (bytes).
const QUERY_BYTES: usize = 128;
const RESULT_BYTES: usize = 512;

/// Latency of rolling the version chains backwards: each change record
/// costs a record probe and each version crossed costs a header probe —
/// comprehensive versioning (ratio 1) therefore pays the most
/// (Fig. 14(b)). Zero for a query that walked no chain.
fn version_scan_ns(trace: &RouteTrace, sys: &SmartStoreSystem, cost: &CostModel) -> u64 {
    if trace.version_chains == 0 {
        return 0;
    }
    cost.per_record_ns * trace.version_records as u64
        + cost.per_record_ns * sys.version_count() as u64
}

/// Record and filter work of the slowest probed unit; `None` when no
/// unit was probed. Units probe in parallel, so this is the unit term
/// of the critical path: `max_u(a·records_u + b·filters_u)`, which
/// equals `a·max_u(records_u) + b·filters` because `filters` is uniform
/// within a query — the invariant [`RouteTrace::add_unit`] asserts.
fn max_unit_scan_ns(trace: &RouteTrace, cost: &CostModel) -> Option<u64> {
    (trace.units_probed > 0).then(|| {
        cost.per_record_ns * trace.max_unit_records as u64
            + cost.per_filter_ns * trace.unit_filters as u64
    })
}

/// Cost of a complex (range/top-k) query under `mode`.
pub fn complex_query_cost(
    trace: &RouteTrace,
    mode: RouteMode,
    sys: &SmartStoreSystem,
    cost: &CostModel,
) -> QueryCost {
    let tree = sys.tree();
    let n_groups = tree.first_level_index_units().len();
    let hop = cost.wire_ns(QUERY_BYTES);
    let reply = cost.wire_ns(RESULT_BYTES);
    let index_probe = cost.per_index_node_ns * trace.nodes_visited as u64
        + cost.per_filter_ns * trace.filters_probed as u64;
    // Max over parallel unit probes (units work concurrently), plus
    // dispatch at each.
    let max_unit_work = max_unit_scan_ns(trace, cost).map_or(0, |ns| ns + cost.per_msg_cpu_ns);
    let n_targets = trace.units_probed as u64;
    let target_groups = trace.group_hops as u64 + 1;

    let (messages, latency) = match mode {
        RouteMode::Online => {
            // client→home, home→father, father multicasts to its own
            // sibling *units* and to all other first-level groups
            // ("multicasts query messages to its father and sibling
            // nodes", §3.3.1), matching groups→member units,
            // units→home, home→client.
            let avg_group = (tree.node(tree.root()).leaf_count / n_groups.max(1)).max(1) as u64;
            let messages = 1 // client → home
                + 1 // home → its father index unit
                + avg_group // father → sibling units of the home leaf
                + (n_groups.saturating_sub(1)) as u64 // multicast to sibling groups
                + n_targets // group hosts → target units
                + n_targets // target units → home (results)
                + 1; // home → client

            // Critical path: the multicast branches run in parallel.
            let latency = hop // client → home
                + hop // home → father
                + hop // father → farthest sibling group (parallel)
                + index_probe // index-unit MBR/filter checks
                + hop // group host → target unit (parallel)
                + max_unit_work
                + reply // unit → home
                + reply; // home → client
            (messages, latency)
        }
        RouteMode::Offline => {
            // Home performs a local LSI match over the replicated
            // first-level vectors (no network), then messages only the
            // target groups.
            let local_match = cost.per_index_node_ns * n_groups as u64;
            let messages = 1 // client → home
                + target_groups // home → target group hosts
                + n_targets // hosts → member units
                + n_targets // units → home
                + 1; // home → client
            let latency = hop // client → home
                + local_match
                + hop // home → target group host (parallel over groups)
                + index_probe.min(cost.per_index_node_ns * 4) // local subtree checks only
                + hop // host → unit
                + max_unit_work
                + reply
                + reply;
            (messages, latency)
        }
    };
    QueryCost {
        latency_ns: latency + version_scan_ns(trace, sys, cost),
        messages,
        units_probed: trace.units_probed,
        group_hops: trace.bearing_group_hops,
    }
}

/// Cost of a filename point query: Bloom-guided descent, then exact
/// lookup at the positive units. Routing is identical in both modes.
///
/// Record accounting follows the *indexed-lookup* rule (see
/// [`smartstore::unit::LocalWork`]): each positive unit resolves the
/// name through its name→slot map, so `records` is 1 at a unit that
/// holds the file and 0 at a Bloom-false-positive unit — not the
/// prefix-scan length the pre-columnar store paid. Simulated point
/// latencies are accordingly lower than pre-columnar reports for the
/// same trace.
pub fn point_query_cost(trace: &RouteTrace, sys: &SmartStoreSystem, cost: &CostModel) -> QueryCost {
    let hop = cost.wire_ns(QUERY_BYTES);
    let reply = cost.wire_ns(RESULT_BYTES);
    let filter_probes = cost.per_filter_ns * trace.filters_probed as u64;
    let max_unit_work = max_unit_scan_ns(trace, cost).unwrap_or(0);
    let messages = 1 + trace.units_probed as u64 * 2 + 1;
    let latency = hop + filter_probes + hop + max_unit_work + reply + reply;
    QueryCost {
        latency_ns: latency + version_scan_ns(trace, sys, cost),
        messages,
        units_probed: trace.units_probed,
        group_hops: trace.bearing_group_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{population, system, workload};
    use smartstore::versioning::Change;
    use smartstore::QueryOptions;
    use smartstore_trace::{MetadataPopulation, QueryDistribution, TraceKind, ATTR_DIMS};

    fn fixture(n_units: usize) -> (SmartStoreSystem, MetadataPopulation) {
        let pop = population(TraceKind::Msn, n_units * 40, 31);
        (system(&pop, n_units, 31), pop)
    }

    /// The trace of a narrow box around a single file, so the route
    /// targets a small subset of groups (offline beats online strictly
    /// only then; a query spanning every group costs the same either
    /// way).
    fn narrow_range_trace(sys: &SmartStoreSystem) -> RouteTrace {
        let v = sys.units()[0].files()[0].attr_vector();
        let lo: Vec<f64> = v.iter().map(|x| x - 1e-6).collect();
        let hi: Vec<f64> = v.iter().map(|x| x + 1e-6).collect();
        sys.query().range(&lo, &hi, &QueryOptions::offline()).trace
    }

    fn both_modes(trace: &RouteTrace, sys: &SmartStoreSystem) -> (QueryCost, QueryCost) {
        let cost = CostModel::default();
        (
            complex_query_cost(trace, RouteMode::Online, sys, &cost),
            complex_query_cost(trace, RouteMode::Offline, sys, &cost),
        )
    }

    #[test]
    fn offline_sends_fewer_messages_than_online() {
        let (sys, _) = fixture(24);
        let (online, offline) = both_modes(&narrow_range_trace(&sys), &sys);
        assert!(
            online.messages > offline.messages,
            "online {} must exceed offline {}",
            online.messages,
            offline.messages
        );
    }

    #[test]
    fn offline_latency_not_worse() {
        let (sys, _) = fixture(24);
        let (online, offline) = both_modes(&narrow_range_trace(&sys), &sys);
        assert!(offline.latency_ns <= online.latency_ns);
    }

    #[test]
    fn online_messages_scale_with_group_count() {
        let (small, _) = fixture(12);
        let (large, _) = fixture(48);
        let (ms, _) = both_modes(&narrow_range_trace(&small), &small);
        let (ml, _) = both_modes(&narrow_range_trace(&large), &large);
        assert!(
            ml.messages > ms.messages,
            "{} vs {}",
            ml.messages,
            ms.messages
        );
    }

    #[test]
    fn point_query_cost_counts_filters() {
        let (sys, _) = fixture(10);
        let name = sys.units()[2].files()[0].name.clone();
        let trace = sys.query().point(&name).trace;
        let qc = point_query_cost(&trace, &sys, &CostModel::default());
        assert!(qc.latency_ns > 0);
        assert!(qc.messages >= 2);
        assert!(qc.units_probed >= 1);
    }

    #[test]
    fn empty_target_set_still_has_routing_cost() {
        let (sys, _) = fixture(10);
        // Far-away query box: routed nowhere.
        let lo = vec![1e9; ATTR_DIMS];
        let hi = vec![1e9 + 1.0; ATTR_DIMS];
        let trace = sys.query().range(&lo, &hi, &QueryOptions::offline()).trace;
        assert_eq!(trace.units_routed, 0);
        let (_, qc) = both_modes(&trace, &sys);
        assert!(qc.latency_ns > 0, "root check alone costs something");
        assert_eq!(qc.units_probed, 0);
    }

    #[test]
    fn online_vs_offline_cost_shape() {
        // Fig. 13 over a batch: same traces, two prices.
        let pop = population(TraceKind::Msn, 2000, 19);
        let sys = system(&pop, 24, 19);
        let w = workload(&pop, QueryDistribution::Zipf, 25, 6);
        let (mut on_msgs, mut off_msgs, mut on_lat, mut off_lat) = (0u64, 0u64, 0u64, 0u64);
        for q in &w.ranges {
            let trace = sys
                .query()
                .range(&q.lo, &q.hi, &QueryOptions::offline())
                .trace;
            let (on, off) = both_modes(&trace, &sys);
            on_msgs += on.messages;
            off_msgs += off.messages;
            on_lat += on.latency_ns;
            off_lat += off.latency_ns;
        }
        assert!(
            on_msgs > off_msgs,
            "Fig. 13(b): online messages {on_msgs} > offline {off_msgs}"
        );
        assert!(on_lat >= off_lat, "Fig. 13(a): online latency >= offline");
    }

    #[test]
    fn critical_path_is_recovered_from_the_per_unit_maximum() {
        // A hand-made trace prices to hand-computed numbers: the max
        // over units comes from `max_unit_records`, not the sum.
        let (sys, _) = fixture(10);
        let c = CostModel::default();
        let trace = RouteTrace {
            filters_probed: 5,
            units_routed: 3,
            units_probed: 3,
            records_examined: 2,
            max_unit_records: 1,
            unit_filters: 1,
            ..RouteTrace::default()
        };
        let qc = point_query_cost(&trace, &sys, &c);
        let unit = c.per_record_ns + c.per_filter_ns;
        assert_eq!(
            qc.latency_ns,
            2 * c.wire_ns(128) + 5 * c.per_filter_ns + unit + 2 * c.wire_ns(512)
        );
        assert_eq!(qc.messages, 1 + 3 * 2 + 1);
    }

    #[test]
    fn a_version_walk_pays_for_records_and_headers() {
        let (mut sys, pop) = fixture(10);
        let mut f = pop.files[0].clone();
        f.access_count += 1;
        sys.apply_change(Change::Modify(f));
        let c = CostModel::default();
        let walked = RouteTrace {
            version_chains: 1,
            version_records: 7,
            ..RouteTrace::default()
        };
        let extra = point_query_cost(&walked, &sys, &c).latency_ns
            - point_query_cost(&RouteTrace::default(), &sys, &c).latency_ns;
        assert_eq!(
            extra,
            c.per_record_ns * (7 + sys.version_count() as u64),
            "one modify ⇒ one open version header"
        );
        assert_eq!(sys.version_count(), 1);
    }
}
