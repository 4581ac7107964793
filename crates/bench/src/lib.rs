//! Benchmark harness regenerating every table and figure of the
//! SmartStore paper (§5), plus the ablations called out in DESIGN.md.
//!
//! The `repro` binary (`cargo run --release -p smartstore-bench --bin
//! repro -- <experiment>`) runs one experiment per paper artifact and
//! prints the same rows/series the paper reports; absolute values come
//! from the simulator's cost model, so the *shape* (orderings, ratios,
//! crossovers) is the reproduction target, per DESIGN.md §2.
//!
//! The simulation is here and nowhere else: [`cost`] prices the raw
//! `RouteTrace` a query returns, [`replay`] runs a batch through the
//! event simulator, and `smartstore-simnet` is a dependency of this
//! crate only.

pub mod baselines;
pub mod cost;
pub mod experiments;
pub mod fixture;
pub mod replay;
pub mod report;
pub mod sched;

pub use report::Report;
