//! `repro` — regenerate the SmartStore paper's tables and figures.
//!
//! Usage:
//! ```text
//! repro <experiment> [..]     # table1 table2 table3 table4 fig7..fig14
//!                             # table5 table6 ablation-grouping
//!                             # ablation-autoconfig ablation-bloom
//!                             # ablation-replica
//! repro all                   # everything, in paper order
//! repro list                  # show available experiments
//! ```
//!
//! Each report prints as an aligned table and is also written to
//! `results/<id>.json`. Exits nonzero on an unknown experiment or a
//! report that could not be written, so a `git diff` over `results/`
//! only passes when every report was regenerated.

use smartstore_bench::experiments as ex;
use smartstore_bench::Report;
use smartstore_trace::TraceKind;
use std::path::PathBuf;

fn run_one(name: &str) -> Option<Vec<Report>> {
    let reports = match name {
        "table1" => vec![ex::tables123().remove(0)],
        "table2" => vec![ex::tables123().remove(1)],
        "table3" => vec![ex::tables123().remove(2)],
        "tables123" => ex::tables123(),
        "table4" => vec![ex::table4()],
        "table5" => vec![ex::table56(TraceKind::Msn)],
        "table6" => vec![ex::table56(TraceKind::Eecs)],
        "fig7" => vec![ex::fig7()],
        "fig8" => vec![ex::fig8()],
        "fig9" => vec![ex::fig9()],
        "fig10" => vec![ex::fig10()],
        "fig11" => vec![ex::fig11()],
        "fig12" => vec![ex::fig12()],
        "fig13" => vec![ex::fig13()],
        "fig14" => vec![ex::fig14()],
        "ablation-grouping" => vec![ex::ablation_grouping()],
        "ablation-autoconfig" => vec![ex::ablation_autoconfig()],
        "ablation-bloom" => vec![ex::ablation_bloom()],
        "ablation-replica" => vec![ex::ablation_replica()],
        "ext-load" => vec![ex::ext_load_sweep()],
        "all" => ex::all(),
        _ => return None,
    };
    Some(reports)
}

const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "ablation-grouping",
    "ablation-autoconfig",
    "ablation-bloom",
    "ablation-replica",
    "ext-load",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" || args[0] == "--help" {
        eprintln!("usage: repro <experiment> [..] | all | list");
        eprintln!("experiments:");
        for e in EXPERIMENTS {
            eprintln!("  {e}");
        }
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let out_dir = PathBuf::from("results");
    let mut failed = false;
    for arg in &args {
        match run_one(arg) {
            Some(reports) => {
                for r in reports {
                    println!("{}", r.render());
                    if let Err(e) = r.write_json(&out_dir) {
                        eprintln!(
                            "error: could not write {}/{}.json: {e}",
                            out_dir.display(),
                            r.id
                        );
                        failed = true;
                    }
                }
            }
            None => {
                eprintln!("unknown experiment: {arg} (try `repro list`)");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
