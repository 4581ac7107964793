//! `bench repeat`: the agreement proof. Runs every workload `--runs`
//! times in each of `--sets` sets (each run a process of its own, a
//! different seed per run, workload order alternating), and shows for
//! every end-to-end metric each set's median and quartiles, the spread
//! within a set and the gap between the sets' medians (symmetric: a
//! better later set is a disagreement too) against the metric's bound.
//! Exits non-zero when a gap or a spread breaches its bound. With
//! `--json <file>` the same goes to a file: `baseline/BASELINE.json` is
//! that file for the commit that introduced the benchmark.

use smartstore_benchmark::args::{
    parse_num, take_value, DEFAULT_OUT, DEFAULT_SECONDS, DEFAULT_SEED,
};
use smartstore_benchmark::json::Json;
use smartstore_benchmark::spec::{END_TO_END, WORKLOADS};
use smartstore_benchmark::stats::{gap_between, python_quartiles};
use std::process::Command;

/// Last stdout line of one child run, parsed.
fn run_once(workload: &str, seed: u64, seconds: f64, out: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
            "--out",
            out,
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {last} {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Json::parse(last).map_err(|e| format!("{workload} seed {seed}: result line: {e}"))
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .map(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .unwrap_or_default()
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

pub fn main(mut args: Vec<String>) -> Result<bool, String> {
    let sets: usize =
        take_value(&mut args, "--sets")?.map_or(Ok(2), |v| parse_num("--sets", &v))?;
    let runs: usize =
        take_value(&mut args, "--runs")?.map_or(Ok(3), |v| parse_num("--runs", &v))?;
    let seconds: f64 = take_value(&mut args, "--seconds")?
        .map_or(Ok(DEFAULT_SECONDS), |v| parse_num("--seconds", &v))?;
    let seed: u64 =
        take_value(&mut args, "--seed")?.map_or(Ok(DEFAULT_SEED), |v| parse_num("--seed", &v))?;
    let out = take_value(&mut args, "--out")?.unwrap_or_else(|| DEFAULT_OUT.to_string());
    let json_path = take_value(&mut args, "--json")?;
    if let Some(extra) = args.first() {
        return Err(format!("repeat: unknown argument {extra:?}"));
    }
    if sets == 0 || runs < 2 {
        return Err("repeat needs --sets ≥ 1 and --runs ≥ 2".into());
    }
    let load_before = loadavg();

    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()]; sets];
    for (set, set_values) in values.iter_mut().enumerate() {
        for run in 0..runs {
            let run_seed = seed + (set * runs + run) as u64;
            let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
            if run % 2 == 1 {
                order.reverse();
            }
            for wi in order {
                let w = &WORKLOADS[wi];
                let result = run_once(w.name, run_seed, seconds, &out)?;
                if result.get("correct").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("{} seed {run_seed}: run not correct", w.name));
                }
                for (mi, m) in END_TO_END.iter().enumerate() {
                    let v = result
                        .get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .and_then(|x| x.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| {
                            format!("{} seed {run_seed}: no metric {}", w.name, m.name)
                        })?;
                    set_values[wi][mi].push(v);
                }
                eprintln!("set {set} run {run} {} seed {run_seed} done", w.name);
            }
        }
    }

    let mut ok = true;
    let mut report_workloads = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        println!("{}", w.name);
        let mut report_metrics = Vec::new();
        for (mi, m) in END_TO_END.iter().enumerate() {
            let quartiles: Vec<(f64, f64, f64)> = (0..sets)
                .map(|s| python_quartiles(&values[s][wi][mi]))
                .collect();
            let spreads: Vec<f64> = quartiles
                .iter()
                .map(|(q1, q2, q3)| (q3 - q1) / q2)
                .collect();
            let medians: Vec<f64> = quartiles.iter().map(|q| q.1).collect();
            let gap = gap_between(&medians);
            let worst_spread = spreads.iter().copied().fold(0.0f64, f64::max);
            let breach = gap > m.bound || (m.name != "setup_s" && worst_spread > m.bound);
            ok &= !breach;
            println!(
                "  {:<22} {:<5} bound {:>4.0}%  gap {:>6.2}%  spread {:>6.2}%  {}  medians {}",
                m.name,
                m.unit,
                m.bound * 100.0,
                gap * 100.0,
                worst_spread * 100.0,
                if breach { "BREACH" } else { "ok" },
                quartiles
                    .iter()
                    .map(|(q1, q2, q3)| format!("{q2:.4} [{q1:.4}, {q3:.4}]"))
                    .collect::<Vec<_>>()
                    .join("  ")
            );
            report_metrics.push((
                m.name,
                Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.name())),
                    ("bound", Json::Num(m.bound)),
                    ("gap", Json::Num(gap)),
                    ("spread", Json::Num(worst_spread)),
                    (
                        "sets",
                        Json::Arr(
                            quartiles
                                .iter()
                                .zip(&values)
                                .map(|(&(q1, q2, q3), set_values)| {
                                    Json::obj([
                                        ("q1", Json::Num(q1)),
                                        ("median", Json::Num(q2)),
                                        ("q3", Json::Num(q3)),
                                        (
                                            "values",
                                            Json::Arr(
                                                set_values[wi][mi]
                                                    .iter()
                                                    .map(|&v| Json::Num(v))
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        report_workloads.push((w.name, Json::obj(report_metrics)));
    }
    println!(
        "{}",
        if ok {
            "all sets agree within the bounds"
        } else {
            "BREACH: see above"
        }
    );

    if let Some(path) = json_path {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let doc = Json::obj([
            (
                "what",
                Json::str("bench repeat: per-set medians and quartiles of every end-to-end metric"),
            ),
            ("sets", Json::Num(sets as f64)),
            ("runs_per_set", Json::Num(runs as f64)),
            ("seconds", Json::Num(seconds)),
            ("first_seed", Json::Num(seed as f64)),
            ("nproc", Json::Num(nproc as f64)),
            ("loadavg_before", Json::str(load_before)),
            ("loadavg_after", Json::str(loadavg())),
            ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
            ("agree", Json::Bool(ok)),
            ("workloads", Json::obj(report_workloads)),
        ]);
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(ok)
}
