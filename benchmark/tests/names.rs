//! Name-sync self-test: `BENCHMARK.json`, `spec.rs` and what the two
//! binaries print must agree name for name, and a wrong answer must
//! fail a run.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use smartstore_benchmark::json::Json;
use smartstore_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("key {key} missing in {obj:?}"))
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn assert_name(name: &str) {
    assert!(!name.is_empty() && name.len() <= 64, "name length: {name}");
    assert!(
        name.as_bytes()[0].is_ascii_alphanumeric(),
        "name start: {name}"
    );
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
        "name charset: {name}"
    );
}

fn assert_unit(unit: &str) {
    assert!(!unit.is_empty() && unit.len() <= 16, "unit length: {unit}");
    assert!(
        unit.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
        "unit charset: {unit}"
    );
}

#[test]
fn benchmark_json_lists_exactly_the_spec() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths = doc.get("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(paths, [Json::str("benchmark")]);
    let command = doc.get("command").and_then(Json::as_arr).expect("command");
    assert!(!command.is_empty() && command.len() <= 32);
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, spec) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(listed), ["name", "why"]);
        assert_eq!(str_of(listed, "name"), spec.name);
        assert_eq!(str_of(listed, "why"), spec.why);
        assert_name(spec.name);
        assert!(
            spec.why.chars().count() <= 200 && !spec.why.contains('\n'),
            "why of {}",
            spec.name
        );
    }

    let e2e = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (listed, spec) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(keys(listed), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(listed, "name"), spec.name);
        assert_eq!(str_of(listed, "unit"), spec.unit);
        assert_eq!(str_of(listed, "better"), spec.better.name());
        let bound = listed.get("bound").and_then(Json::as_f64).expect("bound");
        assert_eq!(bound, spec.bound, "bound of {}", spec.name);
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", spec.name);
        assert_name(spec.name);
        assert_unit(spec.unit);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (listed, spec) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(keys(listed), ["name", "unit", "better"]);
        assert_eq!(str_of(listed, "name"), spec.name);
        assert_eq!(str_of(listed, "unit"), spec.unit);
        assert_eq!(str_of(listed, "better"), spec.better.name());
        assert_name(spec.name);
        assert_unit(spec.unit);
    }
}

#[test]
fn names_are_unique_and_every_layer_names_what_it_moves() {
    let mut all: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "a name is used twice");

    for m in &PER_LAYER {
        if m.moves.starts_with("none:") {
            continue;
        }
        assert!(
            END_TO_END.iter().any(|e| m.moves.contains(e.name)),
            "{} names no end-to-end metric: {}",
            m.name,
            m.moves
        );
        assert!(
            m.moves.contains("@ all") || WORKLOADS.iter().any(|w| m.moves.contains(w.name)),
            "{} names no workload: {}",
            m.name,
            m.moves
        );
    }
}

/// Runs are timed, so the tests that start them take turns.
static ONE_RUN_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs a binary in quick mode; returns (exit ok, parsed last line).
fn quick(exe: &str, workload: &str, extra: &[&str]) -> (bool, Option<Json>) {
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("names");
    let output = Command::new(exe)
        .args(["--workload", workload, "--quick", "--seed", "5", "--out"])
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    (output.status.success(), last)
}

fn assert_result_line(result: &Json, names: &[(&str, &str)], what: &str) {
    assert_eq!(
        keys(result),
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let printed: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(k, v)| (k.as_str(), str_of(v, "unit")))
        .collect();
    assert_eq!(printed, names, "{what}");
    for (k, v) in metrics {
        let x = v.get("value").and_then(Json::as_f64);
        assert!(x.is_some_and(f64::is_finite), "{what}: {k} = {x:?}");
    }
}

#[test]
fn quick_runs_print_exactly_the_listed_metrics() {
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        let (ok, result) = quick(env!("CARGO_BIN_EXE_bench"), w.name, &["--trace", "0"]);
        assert!(ok, "bench --quick {}", w.name);
        assert_result_line(&result.expect("result line"), &e2e, w.name);

        let (ok, result) = quick(env!("CARGO_BIN_EXE_trace"), w.name, &["--trace", "1"]);
        assert!(ok, "trace --quick {}", w.name);
        assert_result_line(&result.expect("result line"), &layers, w.name);
    }
}

#[test]
fn a_wrong_answer_fails_the_run() {
    for exe in [env!("CARGO_BIN_EXE_bench"), env!("CARGO_BIN_EXE_trace")] {
        let (ok, result) = quick(exe, "point_50k", &["--corrupt-oracle"]);
        assert!(!ok, "{exe} must exit non-zero on a wrong answer");
        let result = result.expect("result line");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    }
}
