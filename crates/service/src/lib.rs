//! `smartstore-service`: the serving layer of the SmartStore
//! reproduction.
//!
//! The paper's system is a *distributed metadata service*: clients send
//! point, range and top-k queries to metadata servers that each own the
//! storage units of a few semantic groups (§2.2), while a change stream
//! mutates metadata under versioned consistency (§4.4). This crate
//! lifts the in-process [`smartstore::SmartStoreSystem`] into that
//! shape:
//!
//! * [`protocol`] — typed [`Request`]/[`Response`] enums covering
//!   point/range/top-k queries (with [`QueryOptions`] instead of loose
//!   `RouteMode` + `k` arguments), metadata mutations, and statistics,
//!   plus the deterministic shard-response merges; a reply is the
//!   answer and nothing else — the paper's simulated cost is rebuilt
//!   and priced in `smartstore-bench`, never while serving and never
//!   on the wire;
//! * [`codec`] — wire encoding on the `smartstore-persist` primitive
//!   codec with the same CRC-32 record framing as the WAL (and the
//!   same parser of it), so requests and responses can cross a network
//!   or be logged;
//! * [`server`] — [`MetadataServer`], a facade over N per-group shards,
//!   each a full `SmartStoreSystem` with (optionally) its own store
//!   directory and write-ahead log; reads visit every healthy shard
//!   through the `&self` [`smartstore::query::QueryEngine`] — a point
//!   lookup shard after shard on the calling thread (a shard's share of
//!   it is one key hash and a few microseconds, less than waking a pool
//!   worker costs), range/top-k/stats in parallel on the thread pool —
//!   and writes route to exactly one shard;
//! * [`client`] — [`Client`], which batches requests into checksummed
//!   wire batches and returns merged responses in request order.
//!
//! The load-bearing property is *parity*: a sharded deployment answers
//! every query bit-identically to a single unsharded system over the
//! same files — union-sort-dedup for id sets, `(distance, id)`-ordered
//! merge for scored top-k — which `tests/parity.rs` asserts across
//! shard counts, both route modes, and a live change stream.

pub mod client;
pub mod codec;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientStats, RetryPolicy, Transport, TransportError, TransportResult};
pub use codec::{WireError, WireResult};
pub use protocol::{
    merge_query_replies, merge_responses, merge_topk_replies, AppliedReply, DegradedReply,
    QueryReply, Request, Response, StatsReply, TopKReply,
};
pub use server::{MetadataServer, Result, ServerConfig, ServiceError, ShardHealth, ShardInfo};

// The options type is part of the request surface; re-export it so
// protocol users need only this crate.
pub use smartstore::query::QueryOptions;
