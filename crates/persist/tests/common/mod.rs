//! Helpers shared by the committed-fixture suites (`v2_compat.rs`,
//! `legacy_chain.rs`): staging a fixture directory and the canonical
//! query-answer digest its `answers.txt` records.

use smartstore::{QueryOptions, SmartStoreSystem};
use std::path::{Path, PathBuf};

/// `tests/fixtures/<name>/`.
pub fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

/// A scratch path unique to this process and `tag`, cleared if present.
pub fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("smartstore_fixture_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Copies the committed fixture `name` into a scratch directory:
/// opening a store appends to its WAL and sweeps orphans, and the
/// committed bytes must never change under test.
pub fn stage_fixture(name: &str, tag: &str) -> PathBuf {
    let dst = tmpdir(&format!("{name}_{tag}"));
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(fixture_dir(name)).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
    dst
}

/// The fixture's recorded `answers.txt`.
pub fn committed_answers(name: &str) -> String {
    std::fs::read_to_string(fixture_dir(name).join("answers.txt")).unwrap()
}

/// Format version stamped in an artifact's header (bytes 8..10, after
/// the 8-byte magic).
pub fn artifact_version(path: &Path) -> u16 {
    let bytes = std::fs::read(path).unwrap();
    u16::from_le_bytes([bytes[8], bytes[9]])
}

/// Every `.snap` artifact (full or delta) currently in `dir`.
pub fn snap_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    out.sort();
    out
}

/// Canonical query-answer digest of a system: deterministic point,
/// range and top-k queries derived purely from the system's own state,
/// with f64 distances rendered as raw bit patterns. Byte-for-byte
/// equality of two digests means the two systems answer this probe
/// workload bit-identically.
pub fn answer_digest(sys: &SmartStoreSystem) -> String {
    let engine = sys.query();
    let opts = QueryOptions::offline();
    let mut names: Vec<String> = sys.current_files().into_iter().map(|f| f.name).collect();
    names.sort();
    names.dedup();
    let mut out = String::new();
    for name in names.iter().step_by(7).take(30) {
        out.push_str(&format!(
            "point {name} = {:?}\n",
            engine.point(name).file_ids
        ));
    }
    for name in ["never_written_a", "never_written_b", "zzz_missing_file"] {
        out.push_str(&format!(
            "point {name} = {:?}\n",
            engine.point(name).file_ids
        ));
    }
    for (i, u) in sys.units().iter().enumerate() {
        let c = u.centroid();
        let lo: Vec<f64> = c.iter().map(|x| x - 0.5).collect();
        let hi: Vec<f64> = c.iter().map(|x| x + 0.5).collect();
        out.push_str(&format!(
            "range {i} = {:?}\n",
            engine.range(&lo, &hi, &opts).file_ids
        ));
    }
    for (i, u) in sys.units().iter().enumerate().take(3) {
        let (scored, _) = engine.topk_scored(u.centroid(), &opts.with_k(8));
        let rendered: Vec<String> = scored
            .iter()
            .map(|&(id, d)| format!("{id}:{:016x}", d.to_bits()))
            .collect();
        out.push_str(&format!("topk {i} = [{}]\n", rendered.join(", ")));
    }
    out
}
