//! Command line of one run:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! plus `--quick`, `--out <dir>` and the test-only `--corrupt-oracle`.

use crate::inputs::N_FILES;
use crate::spec::{workload, Workload};
use std::path::PathBuf;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Files in the population: [`N_FILES`], or a tenth with `--quick`.
    pub n_files: usize,
    /// Where stores, sockets and span files go (inside the checkout).
    pub out: PathBuf,
    /// Test-only: flips one expected answer in the comparator, so the
    /// self-test can see a wrong answer fail the run.
    pub corrupt_oracle: bool,
}

pub const DEFAULT_SEED: u64 = 11;
pub const DEFAULT_SECONDS: f64 = 20.0;
pub const DEFAULT_OUT: &str = "benchmark/out";

/// Value of `--name <value>` in `args`, removed from it.
pub fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Ok(Some(value))
}

/// Whether the bare flag `--name` is in `args`, removed from it.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(at) => {
            args.remove(at);
            true
        }
        None => false,
    }
}

pub fn parse_num<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{name}: cannot read {value:?} as a number"))
}

impl RunArgs {
    pub fn parse(mut args: Vec<String>) -> Result<Self, String> {
        let names = || {
            crate::spec::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        };
        let name = take_value(&mut args, "--workload")?
            .ok_or_else(|| format!("--workload is required (one of {})", names()))?;
        let workload = workload(&name)
            .ok_or_else(|| format!("unknown workload {name:?} (one of {})", names()))?;
        let quick = take_flag(&mut args, "--quick");
        let seed = match take_value(&mut args, "--seed")? {
            Some(v) => parse_num("--seed", &v)?,
            None => DEFAULT_SEED,
        };
        let seconds = match take_value(&mut args, "--seconds")? {
            Some(v) => parse_num("--seconds", &v)?,
            None if quick => 1.0,
            None => DEFAULT_SECONDS,
        };
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        let trace = match take_value(&mut args, "--trace")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        };
        let out = take_value(&mut args, "--out")?.unwrap_or_else(|| DEFAULT_OUT.to_string());
        let corrupt_oracle = take_flag(&mut args, "--corrupt-oracle");
        if let Some(extra) = args.first() {
            return Err(format!("unknown argument {extra:?}"));
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            n_files: if quick { N_FILES / 10 } else { N_FILES },
            out: PathBuf::from(out),
            corrupt_oracle,
        })
    }
}
