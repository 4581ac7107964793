//! The workspace policy the rules enforce: which crates each rule
//! class covers, the wall-clock allowlist, and the declared lock
//! order. Kept in one place so tightening the policy is a one-file
//! change (and so the README's rule catalog has a single source of
//! truth to mirror).

/// Crates whose replies/bytes must be bit-identical across runs,
/// thread counts, shards, and recoveries: iteration over hash
/// containers in their production code is a determinism hazard (D002).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "smartstore",
    "smartstore-service",
    "smartstore-net",
    "smartstore-persist",
    "smartstore-rtree",
];

/// Crates whose production code must be panic-free (P001–P003): a
/// panic in any of these kills a shard or poisons a connection instead
/// of degrading to a typed error.
pub const PANIC_FREE_CRATES: &[&str] = &[
    "smartstore-persist",
    "smartstore-service",
    "smartstore-net",
    "smartstore",
];

/// Crates allowed to read wall clocks (D003). Only the benchmarks
/// measure time; everything else — the socket front end included,
/// whose sessions are driven by bytes and whose driver waits on socket
/// timeouts — must stay a pure function of its inputs so replays and
/// parity gates stay bit-identical.
pub const WALL_CLOCK_ALLOWED_CRATES: &[&str] = &["smartstore-bench"];

/// Crates carrying wire-protocol constants (W001–W002): request and
/// response tags, file magics, and the format version.
pub const WIRE_CRATES: &[&str] = &["smartstore-service", "smartstore-persist"];

/// Crates whose mutexes participate in the declared lock order (L001).
pub const LOCK_ORDER_CRATES: &[&str] = &["shim-rayon", "smartstore-persist", "smartstore-service"];

/// The declared mutex acquisition order, outermost first. Within one
/// function, a known mutex may only be locked after mutexes that
/// appear *earlier* in this list. Names are the field identifiers the
/// `.lock()` receiver ends with:
///
/// * `task`  — a scope task's payload slot (`shim-rayon`)
/// * `state` — drive/join/scope shared state (`shim-rayon`)
/// * `queue` — the pool's injector queue (`shim-rayon`)
/// * `slot`  — a WAL batch-fsync job's state, shared by the writer
///   that issued it and the thread that runs it (`smartstore-persist`;
///   the service's syncer thread runs the jobs). Before `inner`: a job
///   is run through the store's filesystem.
/// * `inner` — the fault-VFS in-memory disk (`smartstore-persist`)
pub const LOCK_ORDER: &[&str] = &["task", "state", "queue", "slot", "inner"];

/// Method names that iterate a hash container (D002). `get`, `insert`,
/// `contains_key`, `len` and friends are order-blind and fine.
pub const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Function-name fragments classifying a fn as a wire *encoder*.
pub const ENCODER_FN_HINTS: &[&str] = &["put", "encode", "write", "header", "frame", "append"];

/// Function-name fragments classifying a fn as a wire *decoder*.
pub const DECODER_FN_HINTS: &[&str] = &[
    "get", "decode", "read", "parse", "open", "scan", "salvage", "replay", "load",
];

/// True when `name` contains any of the fragments.
pub fn name_matches(name: &str, hints: &[&str]) -> bool {
    hints.iter().any(|h| name.contains(h))
}
