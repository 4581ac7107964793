//! Workload substrate: file metadata, synthetic traces, and query
//! generators for the SmartStore evaluation.
//!
//! The paper evaluates on three proprietary traces — HP \[17\], MSN \[18\]
//! and EECS \[19\] — scaled up with a *Trace Intensifying Factor* (TIF).
//! Those traces are not redistributable, so this crate synthesizes
//! workloads whose aggregate statistics match the "Original" columns of
//! Tables 1–3 and whose attribute values exhibit the skew the paper's
//! grouping exploits (Zipf file popularity, log-normal sizes, bursty
//! temporal locality, and planted clusters of semantically correlated
//! files). See DESIGN.md §2 for the substitution rationale.
//!
//! Components:
//!
//! * [`metadata`] — the [`metadata::FileMetadata`] record and its
//!   projection to D-dimensional attribute vectors;
//! * [`distributions`] — Zipf / Gauss / log-normal samplers (the paper
//!   synthesizes complex queries under Uniform, Gauss and Zipf, §5.1);
//! * [`generator`] — cluster-planted synthetic metadata populations;
//! * [`workloads`] — the HP / MSN / EECS workload models with nominal
//!   statistics for Tables 1–3;
//! * [`scaleup`] — TIF scale-up (sub-trace decomposition + concurrent
//!   replay, §5.1);
//! * [`query_gen`] — point / range / top-k query workload generation;
//! * [`arrivals`] — open-loop arrival schedules (Poisson or bursty)
//!   for driving a server at a fixed request rate.

pub mod arrivals;
pub mod distributions;
pub mod generator;
pub mod metadata;
pub mod query_gen;
pub mod scaleup;
pub mod workloads;

pub use arrivals::{ArrivalConfig, ArrivalSchedule};
pub use generator::{GeneratorConfig, MetadataPopulation};
pub use metadata::{attr_subset_table, attr_table, AttributeKind, FileMetadata, ATTR_DIMS};
pub use query_gen::{PointQuery, QueryDistribution, QueryWorkload, RangeQuery, TopKQuery};
pub use scaleup::{scale_up, ScaledTrace};
pub use workloads::{TraceKind, WorkloadModel};
