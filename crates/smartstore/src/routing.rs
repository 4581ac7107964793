//! Query routing: on-line multicast vs off-line pre-processing
//! (§3.3–3.4, Fig. 13), and the raw counts one served query leaves
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
//! `smartstore-bench` (`cost.rs`): it rebuilds the paper's counts of a
//! query (tree nodes, group hops, the slowest unit's records) from the
//! system's public state and prices them under a [`RouteMode`] and a
//! cost model. No query evaluation here computes a simulated nanosecond
//! or a group hop. What a served query returns is a [`RouteTrace`]: the
//! units, filters, rows and version records it touched.

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

/// What one query touched, as raw counts a running server can read:
/// no nanoseconds, no cost model, nothing of the paper's simulation.
/// Every evaluation returns one next to its answer
/// ([`crate::system::QueryOutcome`]). The §5 simulation rebuilds its
/// own trace in `smartstore-bench`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteTrace {
    /// Storage units the query was routed to.
    pub units_routed: usize,
    /// Storage units that evaluated the query (for top-k, the prefix
    /// of the best-first order MaxD pruning did not cut).
    pub units_probed: usize,
    /// Tree-level Bloom filters probed (point queries).
    pub filters_probed: usize,
    /// Rows whose coordinates the unit scans read, summed over the
    /// probed units ([`LocalWork::rows_read`]).
    pub rows_read: usize,
    /// Version chains rolled back for this query (0 when versioning is
    /// off, or a point query was answered by the units).
    pub version_chains: usize,
    /// Change records scanned in those chains.
    pub version_records: usize,
}

impl RouteTrace {
    /// Accounts one probed unit's local work.
    pub fn add_unit(&mut self, work: LocalWork) {
        self.units_probed += 1;
        self.rows_read += work.rows_read;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_unit_counts_units_and_sums_rows() {
        let mut t = RouteTrace::default();
        for records in [3, 9, 4] {
            t.add_unit(LocalWork {
                records,
                rows_read: records / 2,
            });
        }
        assert_eq!(t.units_probed, 3);
        assert_eq!(t.rows_read, 1 + 4 + 2);
    }
}
