//! The typed query/mutation protocol.
//!
//! A [`Request`] is everything a client can ask a metadata service:
//! the paper's three query kinds (point §3.3.3, range §3.3.1, top-k
//! §3.3.2), a metadata mutation (§4.4's change stream), and a
//! structure-statistics probe (Fig. 7). A [`Response`] is the typed
//! answer. Both are plain data — `Clone`/`Debug`/`PartialEq` — and
//! wire-encodable through [`crate::codec`], so they can cross a
//! network, be logged, or be replayed. A reply carries the answer only:
//! what a query touched stays server-side in its
//! [`smartstore::routing::RouteTrace`].
//!
//! Responses from several shards merge deterministically
//! ([`merge_responses`]): id sets union-sort-dedup exactly like a
//! single [`smartstore::SmartStoreSystem`] sorts its own answers, and
//! top-k hits carry their squared distances so the cross-shard merge
//! reproduces the single system's `(distance, id)` order bit for bit.

use smartstore::query::QueryOptions;
use smartstore::system::SystemStats;
use smartstore::tree::NodeId;
use smartstore::versioning::Change;

/// One request to the metadata service.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Filename lookup through the Bloom-filter hierarchy. Routing is
    /// Bloom-guided and mode-independent, so it takes no options.
    Point {
        /// Queried filename.
        name: String,
    },
    /// Multi-dimensional range query over the attribute space.
    Range {
        /// Inclusive lower corner (`ATTR_DIMS` wide).
        lo: Vec<f64>,
        /// Inclusive upper corner (`ATTR_DIMS` wide).
        hi: Vec<f64>,
        /// Routing options.
        opts: QueryOptions,
    },
    /// Top-`opts.k` nearest-neighbour query.
    TopK {
        /// Query point (`ATTR_DIMS` wide).
        point: Vec<f64>,
        /// Routing options (`opts.k` is the result-set size).
        opts: QueryOptions,
    },
    /// One metadata mutation (insert / delete / modify).
    ApplyChange {
        /// The change to apply.
        change: Change,
    },
    /// Structure statistics of every shard.
    Stats,
}

impl Request {
    /// True for requests that never mutate server state.
    pub fn is_read(&self) -> bool {
        !matches!(self, Request::ApplyChange { .. })
    }

    /// Short label for logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Point { .. } => "point",
            Request::Range { .. } => "range",
            Request::TopK { .. } => "topk",
            Request::ApplyChange { .. } => "apply",
            Request::Stats => "stats",
        }
    }
}

/// Answer to a point or range query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryReply {
    /// Matching file ids, ascending and deduplicated.
    pub file_ids: Vec<u64>,
}

/// Answer to a top-k query: scored hits so a distributed merge can
/// reproduce the single-system order exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopKReply {
    /// `(file_id, squared distance)` pairs in ascending
    /// `(distance, id)` order.
    pub hits: Vec<(u64, f64)>,
}

impl TopKReply {
    /// The hit ids in rank order.
    pub fn file_ids(&self) -> Vec<u64> {
        self.hits.iter().map(|&(id, _)| id).collect()
    }
}

/// Acknowledgement of an applied change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppliedReply {
    /// The shard that absorbed the change; `None` for a no-op
    /// (delete/modify of an unknown file).
    pub shard: Option<usize>,
    /// The first-level semantic group it landed in on that shard.
    pub group: Option<NodeId>,
}

/// Structure statistics, one entry per shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Per-shard statistics, shard id order.
    pub per_shard: Vec<SystemStats>,
}

impl StatsReply {
    /// Units summed over shards.
    pub fn total_units(&self) -> usize {
        self.per_shard.iter().map(|s| s.n_units).sum()
    }

    /// First-level semantic groups summed over shards.
    pub fn total_groups(&self) -> usize {
        self.per_shard.iter().map(|s| s.n_groups).sum()
    }
}

/// A partial answer served while part of the fleet is quarantined.
///
/// The inner response is the deterministic merge over the shards that
/// *did* answer — bit-identical to what a deployment built from only
/// those shards would return — and `missing_shards` names the
/// quarantined shards whose files are absent, so a caller can tell a
/// complete answer from a degraded one instead of mistaking data loss
/// for a clean empty result.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradedReply {
    /// The merged answer over the healthy shards.
    pub partial: Box<Response>,
    /// Quarantined shard ids excluded from the answer, ascending.
    pub missing_shards: Vec<usize>,
}

/// One response from the metadata service.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Point/range answer.
    Query(QueryReply),
    /// Top-k answer.
    TopK(TopKReply),
    /// Mutation acknowledgement.
    Applied(AppliedReply),
    /// Statistics.
    Stats(StatsReply),
    /// A partial answer: some shards are quarantined, the rest served.
    Degraded(DegradedReply),
    /// Transient failure (shard quarantined mid-request, no healthy
    /// shard available, …) — the request may succeed on retry, which
    /// [`crate::client::Client::call_with_retry`] automates.
    Unavailable(String),
    /// Load-shed by admission control: the server's bounded in-flight
    /// budget (global or per-connection) was exhausted, so the request
    /// was answered immediately instead of queueing unboundedly. The
    /// request itself is fine — retry after backing off (the client
    /// adds jitter so shed herds do not re-arrive in lockstep).
    Overloaded(String),
    /// The request could not be served (dimension mismatch, unknown
    /// shard, decode failure surfaced server-side, …). Not retryable.
    Error(String),
}

impl Response {
    /// The answer ids of a query-shaped response, in rank/ascending
    /// order; `None` for non-query responses. A degraded response
    /// yields the ids of its partial answer.
    pub fn file_ids(&self) -> Option<Vec<u64>> {
        match self {
            Response::Query(q) => Some(q.file_ids.clone()),
            Response::TopK(t) => Some(t.file_ids()),
            Response::Degraded(d) => d.partial.file_ids(),
            _ => None,
        }
    }

    /// True for responses a client may retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Response::Unavailable(_) | Response::Overloaded(_))
    }
}

/// Merges per-shard point/range replies: union of id sets, ascending
/// and deduplicated — exactly how a single system normalizes its own
/// answer, so the merged reply is bit-identical to the unsharded one.
pub fn merge_query_replies(replies: &[QueryReply]) -> QueryReply {
    let mut file_ids: Vec<u64> = replies.iter().flat_map(|r| r.file_ids.clone()).collect();
    file_ids.sort_unstable();
    file_ids.dedup();
    QueryReply { file_ids }
}

/// Merges per-shard scored top-k replies: global `(distance, id)`
/// order, truncated to `k` — the same comparator the single system
/// uses, so ranking and tie-breaks are identical. `total_cmp` keeps
/// that order for the non-negative distances real shards produce while
/// removing the panic path a NaN from a malformed reply would hit with
/// `partial_cmp(..).unwrap()`; reply *validation* (NaN ⇒ error, not a
/// silently ranked hit) happens in [`merge_responses`].
pub fn merge_topk_replies(replies: &[TopKReply], k: usize) -> TopKReply {
    let mut hits: Vec<(u64, f64)> = replies.iter().flat_map(|r| r.hits.clone()).collect();
    hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    hits.truncate(k);
    TopKReply { hits }
}

/// Merges the per-shard responses to one request into the client-facing
/// answer. Deterministic: no iteration-order or timing dependence.
///
/// Mismatched reply kinds (a shard answering a range request with a
/// top-k reply, say) produce [`Response::Error`]; the first shard error
/// wins otherwise.
pub fn merge_responses(req: &Request, replies: Vec<Response>) -> Response {
    // A transient shard failure makes the whole answer transient (the
    // retry may land after the shard heals or is quarantined out of
    // the fan-out); a hard shard error stays hard. Admission-control
    // sheds are equally transient and keep their type so the client
    // backs off with jitter instead of plain exponential.
    if let Some(msg) = replies.iter().find_map(|r| match r {
        Response::Overloaded(m) => Some(m.clone()),
        _ => None,
    }) {
        return Response::Overloaded(msg);
    }
    if let Some(msg) = replies.iter().find_map(|r| match r {
        Response::Unavailable(m) => Some(m.clone()),
        _ => None,
    }) {
        return Response::Unavailable(msg);
    }
    if let Some(err) = replies.iter().find_map(|r| match r {
        Response::Error(e) => Some(e.clone()),
        _ => None,
    }) {
        return Response::Error(err);
    }
    match req {
        Request::Point { .. } | Request::Range { .. } => {
            let mut qs = Vec::with_capacity(replies.len());
            for r in replies {
                match r {
                    Response::Query(q) => qs.push(q),
                    other => return mismatched(req, &other),
                }
            }
            Response::Query(merge_query_replies(&qs))
        }
        Request::TopK { opts, .. } => {
            let mut ts = Vec::with_capacity(replies.len());
            for r in replies {
                match r {
                    Response::TopK(t) => {
                        // Wire replies are untrusted: a poisoned
                        // (non-finite) distance must degrade to an
                        // error, never rank among real hits.
                        if let Some(&(id, d)) = t.hits.iter().find(|&&(_, d)| !d.is_finite()) {
                            return Response::Error(format!(
                                "shard top-k hit for file {id} has non-finite distance {d}"
                            ));
                        }
                        ts.push(t);
                    }
                    other => return mismatched(req, &other),
                }
            }
            Response::TopK(merge_topk_replies(&ts, opts.k))
        }
        Request::Stats => {
            let mut per_shard = Vec::with_capacity(replies.len());
            for r in replies {
                match r {
                    Response::Stats(s) => per_shard.extend(s.per_shard),
                    other => return mismatched(req, &other),
                }
            }
            Response::Stats(StatsReply { per_shard })
        }
        Request::ApplyChange { .. } => match replies.into_iter().next() {
            Some(r @ Response::Applied(_)) => r,
            Some(other) => mismatched(req, &other),
            None => Response::Applied(AppliedReply::default()),
        },
    }
}

fn mismatched(req: &Request, got: &Response) -> Response {
    Response::Error(format!(
        "shard reply kind mismatch for {} request: {got:?}",
        req.kind()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(ids: &[u64]) -> QueryReply {
        QueryReply {
            file_ids: ids.to_vec(),
        }
    }

    #[test]
    fn query_merge_unions_and_sorts() {
        let merged = merge_query_replies(&[q(&[5, 9]), q(&[1, 5])]);
        assert_eq!(merged.file_ids, vec![1, 5, 9]);
    }

    #[test]
    fn topk_merge_orders_by_distance_then_id() {
        let a = TopKReply {
            hits: vec![(10, 1.0), (11, 3.0)],
        };
        let b = TopKReply {
            hits: vec![(7, 1.0), (12, 2.0)],
        };
        let merged = merge_topk_replies(&[a, b], 3);
        assert_eq!(merged.hits, vec![(7, 1.0), (10, 1.0), (12, 2.0)]);
    }

    #[test]
    fn response_merge_propagates_shard_errors() {
        let req = Request::Point { name: "x".into() };
        let merged = merge_responses(
            &req,
            vec![
                Response::Query(q(&[1])),
                Response::Error("shard 1 down".into()),
            ],
        );
        assert_eq!(merged, Response::Error("shard 1 down".into()));
    }

    #[test]
    fn response_merge_rejects_kind_mismatch() {
        let req = Request::Point { name: "x".into() };
        let merged = merge_responses(&req, vec![Response::Stats(StatsReply::default())]);
        assert!(matches!(merged, Response::Error(_)));
    }

    #[test]
    fn poisoned_topk_hit_degrades_to_error_not_panic() {
        // Regression: the merge used `partial_cmp(..).unwrap()`, so a
        // NaN distance from any shard panicked the client-side merge
        // even though the wire boundary validates *request* floats.
        let req = Request::TopK {
            point: vec![0.0; 12],
            opts: QueryOptions::offline().with_k(2),
        };
        let good = TopKReply {
            hits: vec![(1, 0.5), (2, 1.5)],
        };
        let poisoned = TopKReply {
            hits: vec![(9, f64::NAN)],
        };
        let merged = merge_responses(&req, vec![Response::TopK(good), Response::TopK(poisoned)]);
        match merged {
            Response::Error(e) => assert!(e.contains("file 9"), "unexpected error text: {e}"),
            other => panic!("poisoned hit must merge to an error, got {other:?}"),
        }
        // Infinite distances are equally un-rankable.
        let inf = TopKReply {
            hits: vec![(3, f64::INFINITY)],
        };
        let req2 = Request::TopK {
            point: vec![0.0; 12],
            opts: QueryOptions::offline().with_k(1),
        };
        assert!(matches!(
            merge_responses(&req2, vec![Response::TopK(inf)]),
            Response::Error(_)
        ));
    }

    #[test]
    fn topk_direct_merge_is_nan_safe() {
        // Even when called directly (bypassing merge_responses'
        // validation), the comparator must not panic.
        let r = TopKReply {
            hits: vec![(1, f64::NAN), (2, 0.25)],
        };
        let merged = merge_topk_replies(&[r], 2);
        assert_eq!(merged.hits[0], (2, 0.25), "finite hits rank first");
    }
}
