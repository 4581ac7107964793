//! The shared-read query path: [`QueryOptions`] + [`QueryEngine`].
//!
//! The paper's deployment is a *service*: many clients issue point,
//! range and top-k queries concurrently against metadata servers while
//! a change stream trickles in (§2.2, §5.4). The original entry points
//! (`SmartStoreSystem::{point,range,topk}_query`) took `&mut self`,
//! which serialized every reader behind one exclusive borrow even
//! though query evaluation never mutates: storage units are the source
//! of truth, index summaries go stale *only* through the write path,
//! and the lazy replica refresh (§3.4) is an explicit write-side step
//! ([`SmartStoreSystem::apply_change`]), not a read-side cache fill.
//!
//! [`QueryEngine`] makes that sharing explicit: it is a cheap `&self`
//! view over a system, so any number of readers can evaluate queries
//! concurrently (one writer journals changes between query epochs —
//! the swissarmyhammer-style leader-writes/concurrent-reads shape).
//! [`QueryOptions`] replaces the loose `RouteMode` + `k` argument
//! soup with one wire-encodable options struct shared by the in-process
//! API and the `smartstore-service` request protocol.
//!
//! Every entry point returns a [`QueryOutcome`]: the answer and a
//! [`crate::routing::RouteTrace`] of the units, filters, rows and
//! version records it touched. `opts.mode` changes neither — on-line
//! and off-line routing reach the same units — so evaluation does not
//! read it. It names the routing mode under which `smartstore-bench`
//! prices the paper's trace of a query, which it rebuilds itself
//! (`cost::paper_range`, `cost::paper_topk`), for Fig. 13.
//!
//! Evaluation itself runs on the storage units' *columnar* read path
//! (flat SoA coordinate scans, bounded-heap top-k — see
//! [`crate::unit`]) and, for point lookups, on the system's name index;
//! the engine and the service layer's shard fan-out inherit both
//! through these entry points.

use crate::routing::RouteMode;
use crate::system::{QueryOutcome, SmartStoreSystem};

/// Per-query knobs, shared by every query kind.
///
/// Replaces the loose `RouteMode` + `k` arguments of the original
/// query methods; travels inside `smartstore-service` requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryOptions {
    /// Routing mode: on-line multicast or off-line replicated-index
    /// direct routing (§3.3–3.4). Advisory: it selects how the paper's
    /// trace of a query is priced, not how a query is evaluated.
    pub mode: RouteMode,
    /// Result-set size for top-k queries (the paper evaluates k = 8);
    /// ignored by point and range queries.
    pub k: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            mode: RouteMode::Offline,
            k: 8,
        }
    }
}

impl QueryOptions {
    /// Off-line (replicated-index direct) routing with the default k.
    pub fn offline() -> Self {
        Self::default()
    }

    /// On-line (multicast discovery) routing with the default k.
    pub fn online() -> Self {
        Self {
            mode: RouteMode::Online,
            ..Self::default()
        }
    }

    /// Options for an explicit routing mode.
    pub fn with_mode(mode: RouteMode) -> Self {
        Self {
            mode,
            ..Self::default()
        }
    }

    /// Sets the top-k result-set size.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }
}

/// A shared read-only view over a [`SmartStoreSystem`] that evaluates
/// queries through `&self`.
///
/// Obtain one with [`SmartStoreSystem::query`]. The view is `Copy`;
/// hand clones to as many threads as you like:
///
/// ```
/// # use smartstore::{SmartStoreConfig, SmartStoreSystem};
/// # use smartstore::query::QueryOptions;
/// # use smartstore_trace::{GeneratorConfig, MetadataPopulation};
/// # let pop = MetadataPopulation::generate(GeneratorConfig {
/// #     n_files: 200, n_clusters: 4, seed: 1, ..GeneratorConfig::default() });
/// # let name = pop.files[0].name.clone();
/// let sys = SmartStoreSystem::build(pop.files, 4, SmartStoreConfig::default(), 1);
/// let engine = sys.query();
/// std::thread::scope(|s| {
///     s.spawn(|| engine.point(&name));
///     s.spawn(|| engine.point(&name));
/// });
/// ```
#[derive(Clone, Copy, Debug)]
pub struct QueryEngine<'a> {
    sys: &'a SmartStoreSystem,
}

impl<'a> QueryEngine<'a> {
    pub(crate) fn new(sys: &'a SmartStoreSystem) -> Self {
        Self { sys }
    }

    /// The system under the view.
    pub fn system(&self) -> &'a SmartStoreSystem {
        self.sys
    }

    /// Filename point query. The system's name index names the units
    /// holding the file, and each answers when the Bloom filters on its
    /// path and its own filter hold the name — the units the paper's
    /// Bloom-guided descent (§3.3.3) would reach, found without walking
    /// the tree's false-positive branches. The answer is the descent's;
    /// the trace counts the filters and units this path touched (the
    /// descent's own counts are `smartstore-bench`'s `paper_point`).
    /// Identical in both modes, so point queries take no options.
    pub fn point(&self, name: &str) -> QueryOutcome {
        self.sys.eval_point(name)
    }

    /// Multi-dimensional range query over the projected attribute
    /// space (§3.3.1). The options travel with the request but neither
    /// field bears on a range answer.
    pub fn range(&self, lo: &[f64], hi: &[f64], _opts: &QueryOptions) -> QueryOutcome {
        self.sys.eval_range(lo, hi)
    }

    /// Top-`opts.k` nearest-neighbour query with MaxD pruning (§3.3.2).
    pub fn topk(&self, point: &[f64], opts: &QueryOptions) -> QueryOutcome {
        self.sys.eval_topk_scored(point, opts.k).1
    }

    /// Top-k returning `(file_id, squared distance)` pairs in ascending
    /// `(distance, id)` order — the form a distributed merge needs:
    /// per-shard scored lists re-merge deterministically into exactly
    /// the answer a single system would give.
    pub fn topk_scored(
        &self,
        point: &[f64],
        opts: &QueryOptions,
    ) -> (Vec<(u64, f64)>, QueryOutcome) {
        self.sys.eval_topk_scored(point, opts.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmartStoreConfig;
    use smartstore_trace::{GeneratorConfig, MetadataPopulation};

    fn fixture() -> (SmartStoreSystem, MetadataPopulation) {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files: 800,
            n_clusters: 8,
            seed: 42,
            ..GeneratorConfig::default()
        });
        let sys = SmartStoreSystem::build(pop.files.clone(), 8, SmartStoreConfig::default(), 42);
        (sys, pop)
    }

    #[test]
    fn options_builder_composes() {
        let o = QueryOptions::online().with_k(3);
        assert_eq!(o.mode, RouteMode::Online);
        assert_eq!(o.k, 3);
        assert_eq!(QueryOptions::offline(), QueryOptions::default());
    }

    #[test]
    fn engine_matches_direct_eval() {
        let (sys, pop) = fixture();
        let e = sys.query();
        let name = &pop.files[17].name;
        assert_eq!(e.point(name), sys.eval_point(name));
        let v = pop.files[17].attr_vector();
        let lo: Vec<f64> = v.iter().map(|x| x - 0.5).collect();
        let hi: Vec<f64> = v.iter().map(|x| x + 0.5).collect();
        assert_eq!(
            e.range(&lo, &hi, &QueryOptions::offline()),
            sys.eval_range(&lo, &hi)
        );
        assert_eq!(
            e.topk(&v, &QueryOptions::online().with_k(5)),
            sys.eval_topk_scored(&v, 5).1
        );
    }

    #[test]
    fn scored_topk_agrees_with_plain_topk() {
        let (sys, pop) = fixture();
        let e = sys.query();
        let v = pop.files[3].attr_vector();
        let opts = QueryOptions::offline().with_k(6);
        let plain = e.topk(&v, &opts);
        let (scored, out) = e.topk_scored(&v, &opts);
        let ids: Vec<u64> = scored.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, plain.file_ids);
        assert_eq!(out.trace, plain.trace);
        for w in scored.windows(2) {
            assert!(w[0].1 <= w[1].1, "scored order must be ascending");
        }
    }
}
