//! `smartstore-lint` — zero-dependency workspace static analysis.
//!
//! Every guarantee this workspace sells — bit-identical answers across
//! thread counts, shards, transports, and crash recoveries — is a
//! *convention* the compiler does not check. This crate makes the
//! conventions machine-enforced: a hand-rolled Rust lexer
//! ([`lexer`]) feeds a rule engine ([`engine`]) that walks the token
//! stream with lightweight context (crate, test spans, fn boundaries;
//! [`context`]) and applies six rule classes ([`rules`]):
//!
//! | rule | class | what it catches |
//! |------|-------|-----------------|
//! | D001 | determinism | `partial_cmp(..).unwrap/expect/unwrap_or` on floats |
//! | D002 | determinism | iteration over `HashMap`/`HashSet` in answer-producing crates |
//! | D003 | determinism | `Instant::now`/`SystemTime::now` outside the timing allowlist |
//! | P001–P003 | panic-freedom | `.unwrap()`, `.expect()`, panic macros in serving/persistence production code |
//! | W001–W002 | wire protocol | duplicate tags; tags missing an encoder or decoder |
//! | W003 | wire protocol | a hash-family tag read or written by more than one fn |
//! | L001 | lock order | mutex acquisition against the declared order |
//! | U001 | unsafe audit | `unsafe` without a `SAFETY` comment (plus a full inventory) |
//! | X001 | reachability | a `pub` item no other file names |
//! | A001 | hygiene | `lint:allow` without a justification |
//!
//! X001 counts every token outside a `pub use` as a use, test code and
//! `benchmark/` included, except in `fixtures/` and in the item's own
//! file's tests; resolve a finding by deleting the item, or by moving a
//! helper only its own tests call into that test module. It runs on the
//! workspace walk ([`run`], [`engine::scan`]), not on [`scan_source`].
//!
//! Suppression is inline only:
//! `// lint:allow(<RULE>) -- why this site is sound`, covering the
//! same line and the next. Run with `cargo run -p smartstore-lint`; the
//! process exits nonzero on any finding and writes
//! `results/lint.json`.

pub mod config;
pub mod context;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

use context::FileContext;
use report::Report;
use std::path::Path;

/// Lints every `.rs` file under `root` (a workspace checkout).
pub fn run(root: &Path) -> Result<Report, String> {
    let ctxs = workspace::load(root)?;
    Ok(engine::scan(&ctxs))
}

/// Lints a single source text under an explicit identity — the
/// fixture-test entry point, where a file on disk is scanned *as if*
/// it were production code of a given crate.
pub fn scan_source(path_label: &str, crate_name: &str, is_dev: bool, src: &str) -> Report {
    let ctx = FileContext::new(
        path_label.to_string(),
        crate_name.to_string(),
        is_dev,
        src.to_string(),
    );
    engine::scan_file(&ctx)
}
