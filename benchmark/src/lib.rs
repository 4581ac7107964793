//! The repository benchmark: closed-loop clients drive a `NetServer`
//! over a Unix socket and report what a client of the metadata service
//! sees (`bench`), and a separate traced run times the calls into each
//! layer's public functions (`trace`). `README.md` in this directory
//! states the workloads, the metrics and how they interact.
//!
//! This library is the part both binaries share, and it touches only
//! the outer surface of the repository (service facade, socket front
//! end, wire codec, the `Vfs` trait and the unsharded system used as
//! the answer oracle). The wide per-layer surface lives in the `trace`
//! binary alone, so a refactor of an inner API cannot stop the
//! end-to-end numbers from building.

pub mod args;
pub mod checks;
pub mod client;
pub mod clock;
pub mod fleet;
pub mod inputs;
pub mod json;
pub mod oracle;
pub mod spec;
pub mod stats;
