//! Event-driven query replay on the cluster simulator.
//!
//! The analytic [`crate::cost`] functions price a single query on an idle
//! system. Under load, queries contend for storage units — the paper's
//! Table 4 numbers are batch latencies on a loaded cluster. This module
//! replays a query batch through the [`smartstore_simnet::Simulator`]:
//! every query becomes a message cascade (client → home unit → target
//! units → home → client) and every storage unit is a serial server, so
//! queueing, fan-out overlap and hot-unit hotspots all show up in the
//! measured completion times.

use crate::cost::paper_topk;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartstore::SmartStoreSystem;
use smartstore_simnet::{CostModel, SimTime, Simulator};
use smartstore_trace::QueryWorkload;

/// One replayable query's precomputed execution plan.
#[derive(Clone, Debug)]
struct Plan {
    /// Query id (index into the batch).
    id: usize,
    /// Units that must evaluate the query, with their local work in ns.
    targets: Vec<(usize, u64)>,
    /// Home unit the client contacts.
    home: usize,
    /// Index-probe work performed at the home/index side.
    index_ns: u64,
}

/// Messages exchanged during replay.
#[derive(Clone, Debug)]
enum Msg {
    /// Client request arriving at the home unit.
    Request(Plan),
    /// Home unit's probe landing on a target unit.
    Probe {
        id: usize,
        work_ns: u64,
        home: usize,
        expected: usize,
    },
    /// A target unit's reply arriving back at the home unit.
    Reply { id: usize, expected: usize },
}

/// Result of replaying a batch.
#[derive(Clone, Debug, Default)]
pub struct ReplayStats {
    /// Per-query completion latency (ns), indexed by query id.
    pub latencies: Vec<SimTime>,
    /// Mean completion latency (ns).
    pub mean_latency_ns: f64,
    /// 99th-percentile completion latency (ns).
    pub p99_latency_ns: SimTime,
    /// Total network messages.
    pub messages: u64,
    /// Simulated makespan (ns).
    pub makespan_ns: SimTime,
}

/// Replays the workload's range and top-k queries as an open-arrival
/// stream with `inter_arrival_ns` between queries (0 = all at once).
///
/// Returns per-query completion latencies measured on the event
/// simulator under `cost`. Deterministic given `seed`.
pub fn replay_complex_queries(
    sys: &SmartStoreSystem,
    workload: &QueryWorkload,
    inter_arrival_ns: u64,
    seed: u64,
    cost: &CostModel,
) -> ReplayStats {
    let n_units = sys.units().len();
    let mut rng = StdRng::seed_from_u64(seed);

    // Phase 1: plan every query against the current (quiescent) system
    // state — routing and per-unit work are load-independent.
    let mut plans: Vec<Plan> = Vec::new();
    for q in &workload.ranges {
        let route = sys.tree().route_range(&q.lo, &q.hi);
        let targets: Vec<(usize, u64)> = route
            .target_units
            .iter()
            .map(|&u| {
                let (_, w) = sys.units()[u].range_query(&q.lo, &q.hi);
                (u, cost.per_record_ns * w.records as u64)
            })
            .collect();
        plans.push(Plan {
            id: plans.len(),
            targets,
            home: rng.gen_range(0..n_units),
            index_ns: cost.per_index_node_ns * route.nodes_visited as u64,
        });
    }
    for q in &workload.topks {
        let (order, visited) = sys.tree().route_topk(&q.point);
        // Probe the best-first prefix the MaxD walk touches: the units
        // before the first whose lower bound exceeds the k-th best
        // distance found so far, as `cost::paper_topk` rebuilds it.
        let probed = paper_topk(sys, &q.point, q.k).trace.units_probed;
        let targets: Vec<(usize, u64)> = order[..probed]
            .iter()
            .map(|&(u, _)| {
                let (_, w) = sys.units()[u].topk_query(&q.point, q.k);
                (u, cost.per_record_ns * w.records as u64)
            })
            .collect();
        plans.push(Plan {
            id: plans.len(),
            targets,
            home: rng.gen_range(0..n_units),
            index_ns: cost.per_index_node_ns * visited as u64,
        });
    }

    // Phase 2: drive the event simulator.
    let n_queries = plans.len();
    let mut sim: Simulator<Msg> = Simulator::new(n_units.max(1), *cost);
    for (i, plan) in plans.into_iter().enumerate() {
        let depart = i as u64 * inter_arrival_ns;
        let home = plan.home;
        sim.send_at(depart, home, home, Msg::Request(plan), 128);
        // Client → home is one real message; self-send models the local
        // enqueue, so charge the wire leg by sending from a distinct
        // "client" — approximated as one extra message in stats below.
    }

    let mut outstanding: Vec<usize> = vec![0; n_queries];
    let mut start_time: Vec<SimTime> = vec![0; n_queries];
    let mut done_time: Vec<SimTime> = vec![0; n_queries];
    sim.run(|s, d| match d.msg {
        Msg::Request(plan) => {
            start_time[plan.id] = d.at;
            outstanding[plan.id] = plan.targets.len();
            if plan.targets.is_empty() {
                done_time[plan.id] = d.at + plan.index_ns;
                return plan.index_ns;
            }
            for &(unit, work_ns) in &plan.targets {
                s.send_processed(
                    d.to,
                    unit,
                    Msg::Probe {
                        id: plan.id,
                        work_ns,
                        home: plan.home,
                        expected: plan.targets.len(),
                    },
                    128,
                    plan.index_ns,
                );
            }
            plan.index_ns
        }
        Msg::Probe {
            id,
            work_ns,
            home,
            expected,
        } => {
            s.send_processed(d.to, home, Msg::Reply { id, expected }, 512, work_ns);
            work_ns
        }
        Msg::Reply { id, expected } => {
            outstanding[id] -= 1;
            if outstanding[id] == 0 {
                done_time[id] = d.at;
                let _ = expected;
            }
            0
        }
    });

    let mut latencies: Vec<SimTime> = (0..n_queries)
        .map(|i| done_time[i].saturating_sub(start_time[i].min(done_time[i])))
        .collect();
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let p99 = sorted
        .get(sorted.len().saturating_sub(1).min(sorted.len() * 99 / 100))
        .copied()
        .unwrap_or(0);
    // Keep per-query order stable for callers.
    latencies.shrink_to_fit();
    ReplayStats {
        mean_latency_ns: mean,
        p99_latency_ns: p99,
        messages: sim.stats().messages,
        makespan_ns: sim.now(),
        latencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartstore::SmartStoreConfig;
    use smartstore_trace::query_gen::QueryGenConfig;
    use smartstore_trace::{GeneratorConfig, MetadataPopulation, QueryDistribution};

    fn fixture() -> (SmartStoreSystem, QueryWorkload) {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files: 1200,
            n_clusters: 12,
            seed: 66,
            ..GeneratorConfig::default()
        });
        let sys = SmartStoreSystem::build(pop.files.clone(), 12, SmartStoreConfig::default(), 66);
        let w = QueryWorkload::generate(
            &pop,
            &QueryGenConfig {
                n_range: 30,
                n_topk: 30,
                n_point: 0,
                distribution: QueryDistribution::Zipf,
                seed: 66,
                ..Default::default()
            },
        );
        (sys, w)
    }

    #[test]
    fn replay_completes_every_query() {
        let (sys, w) = fixture();
        let stats = replay_complex_queries(&sys, &w, 0, 1, &CostModel::default());
        assert_eq!(stats.latencies.len(), 60);
        assert!(stats.mean_latency_ns > 0.0);
        assert!(stats.makespan_ns > 0);
        assert!(stats.messages > 0);
    }

    #[test]
    fn contention_raises_latency() {
        let (sys, w) = fixture();
        // Closed burst (all at t=0) vs relaxed open arrivals.
        let burst = replay_complex_queries(&sys, &w, 0, 1, &CostModel::default());
        let relaxed = replay_complex_queries(&sys, &w, 5_000_000, 1, &CostModel::default());
        assert!(
            burst.mean_latency_ns > relaxed.mean_latency_ns,
            "burst {} must queue worse than relaxed {}",
            burst.mean_latency_ns,
            relaxed.mean_latency_ns
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let (sys, w) = fixture();
        let a = replay_complex_queries(&sys, &w, 1_000, 9, &CostModel::default());
        let b = replay_complex_queries(&sys, &w, 1_000, 9, &CostModel::default());
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn p99_at_least_mean() {
        let (sys, w) = fixture();
        let stats = replay_complex_queries(&sys, &w, 0, 2, &CostModel::default());
        assert!(stats.p99_latency_ns as f64 >= stats.mean_latency_ns * 0.99);
    }
}
