//! SmartStore: decentralized semantic-aware metadata organization
//! (Hua et al., SC '09).
//!
//! Files are grouped by the semantic correlation of their
//! multi-dimensional metadata attributes instead of by directory
//! namespace. Latent Semantic Indexing (truncated SVD) measures
//! correlation; correlated metadata aggregates into *storage units*
//! (leaf nodes, one per metadata server) which are recursively grouped
//! into a *semantic R-tree* whose non-leaf *index units* carry Minimum
//! Bounding Rectangles, semantic centroids and unioned Bloom filters.
//! Point, range and top-k queries then touch one or a few semantically
//! related groups instead of brute-forcing every server.
//!
//! Module map (paper section in parentheses):
//!
//! * [`config`] — all tunables with the paper's defaults (§5.1);
//! * [`mod@unit`] — storage units: local metadata, Bloom filter, semantic
//!   vector, MBR (§2.3);
//! * [`grouping`] — LSI-driven iterative semantic grouping and the
//!   optimal-threshold search (§3.1, Fig. 11);
//! * [`tree`] — the semantic R-tree: construction, unit insertion and
//!   deletion, split/merge, local query evaluation (§3.1.2, §3.2, §4.1);
//! * [`mapping`] — index-unit → storage-unit mapping and root
//!   multi-mapping (§4.2–4.3);
//! * [`routing`] — on-line multicast routing vs off-line pre-processing
//!   with replicated first-level index vectors (§3.3–3.4, Fig. 13), and
//!   the [`routing::RouteTrace`] of raw counts every query returns;
//! * [`query`] — the `&self` read path: [`query::QueryOptions`] and the
//!   [`query::QueryEngine`] shared view (many concurrent readers, one
//!   journaling writer); the `smartstore-service` crate lifts it into a
//!   wire protocol over sharded metadata servers;
//! * [`versioning`] — consistency via backward-rolled versions (§4.4,
//!   Fig. 14, Tables 5–6);
//! * [`autoconfig`] — automatic configuration of per-attribute-subset
//!   semantic R-trees (§2.4);
//! * [`system`] — the assembled system: build from a trace population,
//!   execute query workloads, report structure statistics (§5); also
//!   home of the [`system::Journal`] write-ahead hook and the
//!   [`system::SystemParts`] export/import used by the durable
//!   `smartstore-persist` crate (snapshots + WAL + crash recovery);
//! * [`cache`] — semantic-aware caching with top-k prefetching (§1.1).
//!
//! The paper's simulated latencies and message counts (§5) are not
//! computed here: `smartstore-bench` prices a trace under a cost model.
//!
//! Durability tunables (WAL fsync batching, compaction threshold) live
//! in [`config::PersistConfig`]; the persistence implementation itself
//! is the separate `smartstore-persist` crate so this core stays
//! storage-agnostic.

pub mod autoconfig;
pub mod cache;
pub mod config;
pub mod grouping;
pub mod mapping;
pub mod query;
pub mod routing;
pub mod system;
pub mod tree;
pub mod unit;
pub mod versioning;

pub use config::{PersistConfig, SmartStoreConfig};
pub use query::{QueryEngine, QueryOptions};
pub use smartstore_bloom::HashFamily;
pub use system::{Journal, QueryOutcome, SmartStoreSystem, SystemParts, SystemStats};

pub use tree::SemanticRTree;
pub use unit::StorageUnit;
