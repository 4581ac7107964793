//! The paper's §5 simulated cost of one routed query.
//!
//! A served query returns its answer and a `RouteTrace` of what a
//! running server can use; the paper's counts are not among them. This
//! module rebuilds them as a [`PaperTrace`] — tree nodes visited, the
//! slowest unit's records, group hops — from the system's public state
//! ([`paper_point`], [`paper_range`], [`paper_topk`]) and prices it:
//! message counts and a critical-path latency under a [`CostModel`], for
//! Table 4 and Figs. 8, 13 and 14. Parallel branches (multicast
//! fan-out) overlap, serial steps add. This is the only place the
//! paper's counts and formulas live: the serving crates link no
//! simulator.
//!
//! Three inputs are properties of the *system*, not of a query, and are
//! read from the system the caller hands in (which must be in the state
//! the query ran against): the number of first-level groups, the
//! root's unit count, and the version headers a roll-back crosses.

use smartstore::routing::RouteMode;
use smartstore::tree::SemanticRTree;
use smartstore::{QueryOptions, SmartStoreSystem};
use smartstore_simnet::CostModel;

/// The paper's counts of one routed query: what the §5 simulation
/// prices. Built by [`paper_point`], [`paper_range`] and
/// [`paper_topk`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PaperTrace {
    /// Tree nodes examined while routing.
    pub nodes_visited: usize,
    /// Tree-level Bloom filters probed (point queries).
    pub filters_probed: usize,
    /// Storage units the tree routed the query to.
    pub units_routed: usize,
    /// Storage units that evaluated the query (for top-k, the prefix
    /// of the best-first order MaxD pruning did not cut).
    pub units_probed: usize,
    /// The most records any one probed unit examined — units work in
    /// parallel, so this is the count on the critical path.
    pub max_unit_records: usize,
    /// First-level groups the probed units span beyond the first.
    pub group_hops: usize,
    /// First-level groups the *answer* came from beyond the first —
    /// Fig. 8's routing distance; an MBR pre-check at a unit that
    /// contributed nothing is not a group visit.
    pub bearing_group_hops: usize,
    /// Version chains rolled back for this query.
    pub version_chains: usize,
    /// Change records scanned in those chains.
    pub version_records: usize,
}

impl PaperTrace {
    /// Accounts one probed unit charged `records` records.
    fn probe(&mut self, records: usize) {
        self.units_probed += 1;
        self.max_unit_records = self.max_unit_records.max(records);
    }
}

/// A query's live answer beside the paper's trace of it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PaperOutcome {
    /// The answer, as served.
    pub file_ids: Vec<u64>,
    /// What the paper's route counts for it.
    pub trace: PaperTrace,
}

/// Number of *extra* first-level groups a set of units spans (0 when
/// all of them share one group, or there are none — the paper's 0-hop
/// case). Repeated unit ids are fine.
fn group_hops(tree: &SemanticRTree, units: impl IntoIterator<Item = usize>) -> usize {
    let mut groups: Vec<_> = units
        .into_iter()
        .filter_map(|u| tree.leaf_of_unit(u))
        .map(|leaf| tree.group_of_leaf(leaf))
        .collect();
    groups.sort_unstable();
    groups.dedup();
    groups.len().saturating_sub(1)
}

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
fn version_scan_ns(trace: &PaperTrace, sys: &SmartStoreSystem, cost: &CostModel) -> u64 {
    if trace.version_chains == 0 {
        return 0;
    }
    cost.per_record_ns * trace.version_records as u64
        + cost.per_record_ns * sys.version_count() as u64
}

/// Record and filter work of the slowest probed unit; `None` when no
/// unit was probed. Units probe in parallel, so this is the unit term
/// of the critical path: `max_u(a·records_u + b·filters)`, which equals
/// `a·max_u(records_u) + b·filters` because every unit of one query
/// probes the same `filters` of its own (1 for a point query, 0 for
/// range and top-k).
fn max_unit_scan_ns(trace: &PaperTrace, filters: u64, cost: &CostModel) -> Option<u64> {
    (trace.units_probed > 0)
        .then(|| cost.per_record_ns * trace.max_unit_records as u64 + cost.per_filter_ns * filters)
}

/// Cost of a complex (range/top-k) query under `mode`.
pub fn complex_query_cost(
    trace: &PaperTrace,
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
    let max_unit_work = max_unit_scan_ns(trace, 0, cost).map_or(0, |ns| ns + cost.per_msg_cpu_ns);
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

/// A point query along the paper's route (§3.3.3): the live answer,
/// with the trace of the Bloom descent the §5 simulation prices. The
/// live path asks only the units that hold the name and gives the same
/// answer; this rebuilds what the descent counts:
///
/// * the counts and target units of `SemanticRTree::route_point` — every
///   Bloom-positive path, walked from the root;
/// * per routed unit, one record examined only when the unit's own
///   filter holds the name and the unit holds a file of that name — a
///   Bloom false positive examines none;
/// * group hops over the routed units: every Bloom-positive unit is
///   where a point answer is looked for, so all routed groups count as
///   bearing;
/// * the live outcome's version-chain counts.
pub fn paper_point(sys: &SmartStoreSystem, name: &str) -> PaperOutcome {
    let live = sys.query().point(name);
    let tree = sys.tree();
    let route = tree.route_point(name);
    let holding = sys.units_holding(name);
    let hops = group_hops(tree, route.target_units.iter().copied());
    let mut trace = PaperTrace {
        nodes_visited: route.nodes_visited,
        filters_probed: route.filters_probed,
        units_routed: route.target_units.len(),
        group_hops: hops,
        bearing_group_hops: hops,
        version_chains: live.trace.version_chains,
        version_records: live.trace.version_records,
        ..PaperTrace::default()
    };
    for &u in &route.target_units {
        let hit =
            holding.binary_search(&u).is_ok() && sys.units()[u].bloom().contains(name.as_bytes());
        trace.probe(usize::from(hit));
    }
    PaperOutcome {
        file_ids: live.file_ids,
        trace,
    }
}

/// A range query along the paper's route (§3.3.1): the live answer,
/// with the trace the §5 simulation prices:
///
/// * the nodes and target units of `SemanticRTree::route_range` — every
///   unit whose MBR meets the box;
/// * per routed unit, the records its scan is charged
///   (`StorageUnit::range_query`: all of them, or none when its MBR
///   misses the box), and whether it contributed a hit;
/// * group hops over the routed units and, for Fig. 8, over the units
///   that contributed a hit;
/// * the live outcome's version-chain counts.
pub fn paper_range(sys: &SmartStoreSystem, lo: &[f64], hi: &[f64]) -> PaperOutcome {
    let live = sys.query().range(lo, hi, &QueryOptions::offline());
    let tree = sys.tree();
    let route = tree.route_range(lo, hi);
    let mut trace = PaperTrace {
        nodes_visited: route.nodes_visited,
        filters_probed: route.filters_probed,
        units_routed: route.target_units.len(),
        group_hops: group_hops(tree, route.target_units.iter().copied()),
        version_chains: live.trace.version_chains,
        version_records: live.trace.version_records,
        ..PaperTrace::default()
    };
    let mut bearing = Vec::new();
    for &u in &route.target_units {
        let (ids, work) = sys.units()[u].range_query(lo, hi);
        trace.probe(work.records);
        if !ids.is_empty() {
            bearing.push(u);
        }
    }
    trace.bearing_group_hops = group_hops(tree, bearing);
    PaperOutcome {
        file_ids: live.file_ids,
        trace,
    }
}

/// A top-`k` query along the paper's route (§3.3.2): the live answer,
/// with the trace the §5 simulation prices:
///
/// * the nodes and best-first unit order of `SemanticRTree::route_topk`;
/// * the MaxD walk over that order: each unit's own k best
///   (`StorageUnit::topk_query`, charged all its records) merged into
///   the query's k best, until the next unit's lower bound exceeds the
///   k-th best distance — the units the live heap probes;
/// * group hops over the probed units and, for Fig. 8, over the probed
///   units holding a file of the final answer;
/// * the live outcome's version-chain counts.
pub fn paper_topk(sys: &SmartStoreSystem, point: &[f64], k: usize) -> PaperOutcome {
    let live = sys.query().topk(point, &QueryOptions::offline().with_k(k));
    let tree = sys.tree();
    let (order, nodes_visited) = tree.route_topk(point);
    let mut trace = PaperTrace {
        nodes_visited,
        units_routed: order.len(),
        version_chains: live.trace.version_chains,
        version_records: live.trace.version_records,
        ..PaperTrace::default()
    };
    let mut best: Vec<(u64, f64)> = Vec::new();
    for &(u, lower_bound) in &order {
        // The k-th best distance: infinite until k are held, and always
        // for k = 0.
        let max_d = k
            .checked_sub(1)
            .and_then(|i| best.get(i))
            .map_or(f64::INFINITY, |&(_, d)| d);
        if lower_bound > max_d {
            break;
        }
        let (unit_best, work) = sys.units()[u].topk_query(point, k);
        trace.probe(work.records);
        best.extend(unit_best);
        best.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        best.truncate(k);
    }
    let probed = || order[..trace.units_probed].iter().map(|&(u, _)| u);
    trace.group_hops = group_hops(tree, probed());
    trace.bearing_group_hops = group_hops(
        tree,
        probed().filter(|&u| {
            sys.units()[u]
                .file_ids()
                .iter()
                .any(|id| live.file_ids.contains(id))
        }),
    );
    PaperOutcome {
        file_ids: live.file_ids,
        trace,
    }
}

/// Cost of a filename point query: Bloom-guided descent, then exact
/// lookup at the positive units — the trace of [`paper_point`].
/// Routing is identical in both modes.
///
/// Record accounting follows the *indexed-lookup* rule (see
/// [`smartstore::unit::LocalWork`]): each positive unit resolves the
/// name through a name index, so `records` is 1 at a unit that holds
/// the file and 0 at a Bloom-false-positive unit — not the prefix-scan
/// length the pre-columnar store paid. Simulated point latencies are
/// accordingly lower than pre-columnar reports for the same trace.
pub fn point_query_cost(trace: &PaperTrace, sys: &SmartStoreSystem, cost: &CostModel) -> QueryCost {
    let hop = cost.wire_ns(QUERY_BYTES);
    let reply = cost.wire_ns(RESULT_BYTES);
    let filter_probes = cost.per_filter_ns * trace.filters_probed as u64;
    let max_unit_work = max_unit_scan_ns(trace, 1, cost).unwrap_or(0);
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
    use smartstore_trace::{MetadataPopulation, QueryDistribution, TraceKind, ATTR_DIMS};

    fn fixture(n_units: usize) -> (SmartStoreSystem, MetadataPopulation) {
        let pop = population(TraceKind::Msn, n_units * 40, 31);
        (system(&pop, n_units, 31), pop)
    }

    /// The trace of a narrow box around a single file, so the route
    /// targets a small subset of groups (offline beats online strictly
    /// only then; a query spanning every group costs the same either
    /// way).
    fn narrow_range_trace(sys: &SmartStoreSystem) -> PaperTrace {
        let v = sys.units()[0].files()[0].attr_vector();
        let lo: Vec<f64> = v.iter().map(|x| x - 1e-6).collect();
        let hi: Vec<f64> = v.iter().map(|x| x + 1e-6).collect();
        paper_range(sys, &lo, &hi).trace
    }

    fn both_modes(trace: &PaperTrace, sys: &SmartStoreSystem) -> (QueryCost, QueryCost) {
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
        let trace = paper_point(&sys, &name).trace;
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
        let trace = paper_range(&sys, &lo, &hi).trace;
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
            let trace = paper_range(&sys, &q.lo, &q.hi).trace;
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
        let trace = PaperTrace {
            filters_probed: 5,
            units_routed: 3,
            units_probed: 3,
            max_unit_records: 1,
            ..PaperTrace::default()
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
        let walked = PaperTrace {
            version_chains: 1,
            version_records: 7,
            ..PaperTrace::default()
        };
        let extra = point_query_cost(&walked, &sys, &c).latency_ns
            - point_query_cost(&PaperTrace::default(), &sys, &c).latency_ns;
        assert_eq!(
            extra,
            c.per_record_ns * (7 + sys.version_count() as u64),
            "one modify ⇒ one open version header"
        );
        assert_eq!(sys.version_count(), 1);
    }
}
