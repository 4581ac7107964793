//! Query routing: on-line multicast vs off-line pre-processing
//! (§3.3–3.4, Fig. 13), and the raw counts one routed query leaves
//! behind.
//!
//! Both modes start at a random *home unit* ("a user sends a query
//! randomly to a storage unit", §2.2):
//!
//! * **On-line** — the home unit has no routing knowledge: it forwards
//!   to its father index unit, which "multicasts query messages to its
//!   father and sibling nodes" so every first-level group is consulted;
//!   target groups then probe their member units. Message-heavy.
//! * **Off-line** — "each storage unit locally maintains a replica of
//!   the semantic vectors of all index units": the home unit runs LSI
//!   over the request vector against the replicated first-level vectors
//!   and forwards the query straight to the most correlated index
//!   unit(s). One targeted hop instead of a flood.
//!
//! The two modes reach the same units and give the same answer; they
//! differ only in the messages and latency the paper's §5 simulation
//! charges for getting there. That simulation lives in
//! `smartstore-bench` (`cost.rs`): it prices a [`RouteTrace`] — the
//! fixed-size record of structural counts every evaluation returns —
//! under a [`RouteMode`] and a cost model. Nothing in this crate
//! computes a simulated nanosecond.

use crate::tree::Route;
use crate::unit::LocalWork;

/// Which query path is in force.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RouteMode {
    /// Multicast discovery (§3.3).
    Online,
    /// Replicated-index direct routing (§3.4).
    Offline,
}

impl RouteMode {
    /// Both modes.
    pub const ALL: [RouteMode; 2] = [RouteMode::Online, RouteMode::Offline];
}

impl std::fmt::Display for RouteMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RouteMode::Online => "on-line",
            RouteMode::Offline => "off-line",
        })
    }
}

/// What one query touched, as raw structural counts: no nanoseconds,
/// no cost model. Every evaluation returns one next to its answer
/// ([`crate::system::QueryOutcome`]); the §5 simulation in
/// `smartstore-bench` turns it into messages and latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteTrace {
    /// Tree nodes examined while routing.
    pub nodes_visited: usize,
    /// Tree-level Bloom filters probed (point queries).
    pub filters_probed: usize,
    /// Storage units the tree routed the query to.
    pub units_routed: usize,
    /// Storage units that evaluated the query (for top-k, the prefix
    /// of the best-first order MaxD pruning did not cut).
    pub units_probed: usize,
    /// Metadata records examined, summed over the probed units.
    pub records_examined: usize,
    /// The most records any one probed unit examined — units work in
    /// parallel, so this is the count on the critical path.
    pub max_unit_records: usize,
    /// Bloom filters each probed unit consulted locally. Uniform per
    /// query kind (1 for point, 0 for range and top-k), which
    /// [`Self::add_unit`] asserts.
    pub unit_filters: usize,
    /// First-level groups the probed units span beyond the first.
    pub group_hops: usize,
    /// First-level groups the *answer* came from beyond the first —
    /// Fig. 8's routing distance; an MBR pre-check at a unit that
    /// contributed nothing is not a group visit.
    pub bearing_group_hops: usize,
    /// Version chains rolled back for this query (0 when versioning is
    /// off, or a point query was answered by the units).
    pub version_chains: usize,
    /// Change records scanned in those chains.
    pub version_records: usize,
}

impl RouteTrace {
    /// The routing half of a trace, from the tree's answer.
    pub fn routed(route: &Route) -> Self {
        Self {
            nodes_visited: route.nodes_visited,
            filters_probed: route.filters_probed,
            units_routed: route.target_units.len(),
            group_hops: route.group_hops,
            ..Self::default()
        }
    }

    /// Accounts one unit's local work.
    ///
    /// The simulated critical path is `max` over units of a linear
    /// function of `(records, filters)`; it is recoverable from
    /// `max_unit_records` alone only while `filters` is the same at
    /// every unit of one query, so a unit that breaks that is a bug in
    /// the unit, caught here.
    pub fn add_unit(&mut self, work: LocalWork) {
        if self.units_probed == 0 {
            self.unit_filters = work.filters;
        }
        assert_eq!(
            work.filters, self.unit_filters,
            "per-unit filter probes must be uniform within one query"
        );
        self.units_probed += 1;
        self.records_examined += work.records;
        self.max_unit_records = self.max_unit_records.max(work.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_unit_sums_and_tracks_the_maximum() {
        let mut t = RouteTrace::default();
        for records in [3, 9, 4] {
            t.add_unit(LocalWork {
                records,
                filters: 1,
            });
        }
        assert_eq!(t.units_probed, 3);
        assert_eq!(t.records_examined, 16);
        assert_eq!(t.max_unit_records, 9);
        assert_eq!(t.unit_filters, 1);
    }

    #[test]
    #[should_panic(expected = "uniform")]
    fn add_unit_rejects_non_uniform_filters() {
        let mut t = RouteTrace::default();
        t.add_unit(LocalWork {
            records: 1,
            filters: 0,
        });
        t.add_unit(LocalWork {
            records: 1,
            filters: 1,
        });
    }
}
