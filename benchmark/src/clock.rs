//! The benchmark's one clock. Every time the benchmark reports starts
//! from [`now`], so the workspace lint needs a single exemption and a
//! reader can audit in one place what is being timed with.

use std::time::Instant;

/// A monotonic timestamp.
pub fn now() -> Instant {
    // lint:allow(D003) -- the benchmark measures wall time; no answer the system produces depends on it
    Instant::now()
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    now().duration_since(start).as_nanos() as u64
}

/// Seconds elapsed since `start`.
pub fn s_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}
