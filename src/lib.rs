//! Umbrella crate for the SmartStore (SC '09) reproduction.
//!
//! Re-exports every subsystem crate under one roof so the examples in
//! `examples/` and the integration tests in `tests/` can use a single
//! dependency. Library users should normally depend on the individual
//! crates (`smartstore`, `smartstore-rtree`, …) directly.

pub use smartstore;
pub use smartstore_bloom as bloom;
pub use smartstore_bptree as bptree;
pub use smartstore_linalg as linalg;
pub use smartstore_net as net;
pub use smartstore_persist as persist;
pub use smartstore_rtree as rtree;
pub use smartstore_service as service;
pub use smartstore_trace as trace;

pub use smartstore_persist::SystemPersist;
