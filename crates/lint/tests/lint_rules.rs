//! Rule-level acceptance: each fixture under `tests/fixtures/` seeds
//! known violations (and known decoys inside strings/comments), and the
//! scanner must report exactly the expected `file:line:rule` set — no
//! misses, no false positives.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use smartstore_lint::context::FileContext;
use smartstore_lint::engine;
use smartstore_lint::report::Report;
use smartstore_lint::scan_source;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The findings as `file:line:rule` strings, in report order.
fn keys(r: &Report) -> Vec<String> {
    r.findings
        .iter()
        .map(|f| format!("{}:{}:{}", f.file, f.line, f.rule))
        .collect()
}

#[test]
fn determinism_rules_fire_exactly_where_seeded() {
    let r = scan_source(
        "fx/determinism.rs",
        "smartstore-rtree",
        false,
        &fixture("determinism.rs"),
    );
    assert_eq!(
        keys(&r),
        vec![
            "fx/determinism.rs:8:D001",  // partial_cmp(..).unwrap() in sort_by
            "fx/determinism.rs:13:D002", // for (_k, v) in m.iter()
            "fx/determinism.rs:20:D003", // Instant::now()
        ],
        "{:#?}",
        r.findings
    );
}

#[test]
fn panic_rules_fire_exactly_where_seeded() {
    let r = scan_source(
        "fx/panics.rs",
        "smartstore-service",
        false,
        &fixture("panics.rs"),
    );
    assert_eq!(
        keys(&r),
        vec![
            "fx/panics.rs:4:P001",  // v.unwrap()
            "fx/panics.rs:8:P002",  // r.expect("boom")
            "fx/panics.rs:13:P003", // panic!("nope")
            "fx/panics.rs:26:P001", // v.unwrap() under #[cfg(not(test))]
        ],
        "{:#?}",
        r.findings
    );
}

#[test]
fn wire_rules_catch_duplicate_one_sided_and_spread_tags() {
    let r = scan_source(
        "fx/wire.rs",
        "smartstore-service",
        false,
        &fixture("wire.rs"),
    );
    assert_eq!(
        keys(&r),
        vec![
            "fx/wire.rs:4:W001",  // REQ_ECHO duplicates REQ_PING's value
            "fx/wire.rs:4:W002",  // REQ_ECHO has neither encoder nor decoder
            "fx/wire.rs:5:W002",  // REQ_ORPHAN is encoder-only
            "fx/wire.rs:17:W003", // FAMILY_SPREAD is read by two decoder fns
        ],
        "{:#?}",
        r.findings
    );
}

#[test]
fn lock_order_rule_catches_the_inversion_only() {
    let r = scan_source("fx/locks.rs", "shim-rayon", false, &fixture("locks.rs"));
    assert_eq!(
        keys(&r),
        vec![
            "fx/locks.rs:13:L001", // task locked after state in `inverted`
        ],
        "{:#?}",
        r.findings
    );
}

#[test]
fn lock_order_puts_the_wal_sync_job_before_the_fault_disk() {
    let r = scan_source(
        "fx/sync_locks.rs",
        "smartstore-service",
        false,
        &fixture("sync_locks.rs"),
    );
    assert_eq!(
        keys(&r),
        vec![
            "fx/sync_locks.rs:14:L001", // slot locked after inner in `disk_then_job`
        ],
        "{:#?}",
        r.findings
    );
}

#[test]
fn unsafe_rule_flags_undocumented_sites_and_inventories_all() {
    let r = scan_source(
        "fx/unsafety.rs",
        "smartstore-rtree",
        false,
        &fixture("unsafety.rs"),
    );
    assert_eq!(keys(&r), vec!["fx/unsafety.rs:4:U001"], "{:#?}", r.findings);
    assert_eq!(r.unsafe_inventory.len(), 3, "{:#?}", r.unsafe_inventory);
    assert_eq!(
        r.unsafe_inventory.iter().filter(|s| !s.documented).count(),
        1
    );
}

#[test]
fn violations_inside_strings_and_comments_never_fire() {
    // Scanned under the strictest identity: deterministic AND
    // panic-free AND a wire crate.
    let r = scan_source(
        "fx/clean.rs",
        "smartstore-service",
        false,
        &fixture("clean.rs"),
    );
    assert!(r.findings.is_empty(), "{:#?}", r.findings);
    assert!(r.unsafe_inventory.is_empty(), "{:#?}", r.unsafe_inventory);
}

#[test]
fn justified_allow_suppresses_bare_allow_is_flagged() {
    let r = scan_source(
        "fx/allows.rs",
        "smartstore-service",
        false,
        &fixture("allows.rs"),
    );
    assert_eq!(
        keys(&r),
        vec![
            "fx/allows.rs:10:A001", // bare lint:allow, no justification
            "fx/allows.rs:11:P001", // ...and it suppresses nothing
        ],
        "{:#?}",
        r.findings
    );
    // The justified allow is recorded in the audit trail.
    assert_eq!(r.allows.len(), 1);
    assert_eq!(r.allows[0].line, 5);
}

#[test]
fn dev_files_are_exempt_from_production_rules() {
    // The same panic fixture scanned as a tests/ file: nothing fires.
    let r = scan_source(
        "fx/panics.rs",
        "smartstore-service",
        true,
        &fixture("panics.rs"),
    );
    assert!(r.findings.is_empty(), "{:#?}", r.findings);
}

#[test]
fn reachability_flags_pub_items_no_other_file_names() {
    let file = |path: &str, is_dev: bool, src: &str| {
        FileContext::new(path.into(), "demo".into(), is_dev, src.into())
    };
    let items = "\
pub fn unreferenced() {}

pub fn only_own_tests() {}

pub fn only_reexported() {}

pub fn only_in_text() {}

pub fn used_by_tests() {}

pub fn used_locally() {}

fn helper() {
    used_locally();
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::only_own_tests();
    }
}
";
    let ctxs = [
        file("demo/src/items.rs", false, items),
        file(
            "demo/src/lib.rs",
            false,
            "pub mod items;\npub use items::{only_reexported, used_by_tests};\n\
             // only_in_text()\nconst NOTE: &str = \"only_in_text\";\n",
        ),
        file(
            "demo/tests/it.rs",
            true,
            "#[test]\nfn it() {\n    demo::items::used_by_tests();\n}\n",
        ),
        // Fixtures are inputs, not users.
        file(
            "demo/tests/fixtures/f.rs",
            true,
            "fn f() { unreferenced(); }\n",
        ),
    ];
    let r = engine::scan(&ctxs);
    assert_eq!(
        keys(&r),
        vec![
            "demo/src/items.rs:1:X001", // named nowhere else (a fixture does not count)
            "demo/src/items.rs:3:X001", // named only by its own file's tests
            "demo/src/items.rs:5:X001", // named only by a `pub use`
            "demo/src/items.rs:7:X001", // named only in a string and a comment
        ],
        "{:#?}",
        r.findings
    );
    // A file scanned on its own has no world to be reachable from.
    assert!(scan_source("demo/src/items.rs", "demo", false, items)
        .findings
        .is_empty());
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let report = smartstore_lint::run(root).expect("scan workspace");
    assert!(
        report.findings.is_empty(),
        "the workspace must lint clean; run `cargo run -p smartstore-lint` for details:\n{:#?}",
        report.findings
    );
    assert!(report.files_scanned > 100, "walk found the workspace");
    // Every unsafe site in the tree is documented.
    assert!(
        report.unsafe_inventory.iter().all(|s| s.documented),
        "{:#?}",
        report.unsafe_inventory
    );
}

#[test]
fn binary_exits_nonzero_on_findings_and_writes_json() {
    // A miniature one-crate workspace seeded with a P001 violation.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-seeded-ws");
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        dir.join("Cargo.toml"),
        "[package]\nname = \"smartstore-service\"\nversion = \"0.0.0\"\n",
    )
    .unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
    )
    .unwrap();
    let json_path = dir.join("lint.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_smartstore-lint"))
        .arg(&dir)
        .arg("--json-out")
        .arg(&json_path)
        .output()
        .expect("run smartstore-lint");
    assert!(
        !out.status.success(),
        "lint must exit nonzero on findings; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("src/lib.rs:2:P001"), "stdout: {stdout}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"P001\""), "json: {json}");
}
