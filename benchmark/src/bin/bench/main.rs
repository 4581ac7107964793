//! `bench`: the end-to-end run, tracing off.
//!
//! ```text
//! bench --workload <name> [--seed 11] [--seconds 20] [--quick] [--out benchmark/out]
//! bench repeat [--sets 2] [--runs 3] [--seconds 20] [--seed 11] [--json <file>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything above it
//! is for the reader. The exit code is 0 only for a correct run.

mod repeat;
mod storage;

use smartstore_benchmark::args::RunArgs;
use smartstore_benchmark::checks::{
    check_state, cold_opens, collect_replies, compare_with_reference, peak_rss_mib, replay_model,
    steal_jiffies, Verdict, VERIFY_REQUESTS,
};
use smartstore_benchmark::client::{observe, timed_phase, ConnLog, Estimate};
use smartstore_benchmark::clock;
use smartstore_benchmark::fleet::Fleet;
use smartstore_benchmark::inputs::{Inputs, Kind};
use smartstore_benchmark::json::Json;
use smartstore_benchmark::oracle::{reply_label, Model};
use smartstore_benchmark::spec::{Workload, END_TO_END};
use smartstore_benchmark::stats::quantile;
use smartstore_net::SocketTransport;
use smartstore_service::codec::{decode_response, encode_request};
use smartstore_service::{Request, Response, Transport};
use std::path::Path;
use std::time::Instant;

/// Complete set-ups and cold opens per run, half of them before the
/// timed phase and half after it. The same single-threaded work takes
/// 1.0× or about 1.35× as long on this host, switching every few
/// seconds (see README), so the attempts are spread over the run and
/// the best one is reported.
const SETUPS: usize = 6;
const COLD_OPENS: usize = 8;

fn main() {
    let process_start = clock::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("repeat") {
        repeat::main(args[1..].to_vec())
    } else {
        RunArgs::parse(args).and_then(|a| run(&a, process_start))
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("bench: {why}");
            std::process::exit(2);
        }
    }
}

/// A fleet that serves, with what it serves and who is connected.
struct Serving {
    inputs: Inputs,
    fleet: Fleet,
    conns: Vec<SocketTransport>,
}

/// One complete set-up from nothing: population, request streams, fleet
/// build with its initial snapshots, spawn, one connection per client.
/// Returns how long it took, counted from `since`.
fn set_up(
    w: &'static Workload,
    args: &RunArgs,
    dir: &Path,
    since: Instant,
) -> Result<(Serving, f64), String> {
    let inputs = Inputs::build(w, args.n_files, args.seed);
    let fleet = Fleet::launch(inputs.files.clone(), dir)?;
    let conns = (0..w.connections.len())
        .map(|_| fleet.connect())
        .collect::<Result<_, _>>()?;
    let took = clock::s_since(since);
    Ok((
        Serving {
            inputs,
            fleet,
            conns,
        },
        took,
    ))
}

/// `Σ shards (tree index bytes + per-unit index bytes × units) ÷ files`
/// from a `Stats` reply over the socket.
fn index_bytes_per_file(transport: &mut SocketTransport, n_files: usize) -> Result<f64, String> {
    let reply = transport
        .exchange(&encode_request(&Request::Stats), 1)
        .map_err(|e| format!("stats request: {e}"))?;
    match decode_response(&reply).map_err(|e| format!("stats reply: {e}"))? {
        Response::Stats(s) => {
            let bytes: usize = s
                .per_shard
                .iter()
                .map(|x| x.tree_index_bytes + x.per_unit_index_bytes * x.n_units)
                .sum();
            Ok(bytes as f64 / n_files.max(1) as f64)
        }
        other => Err(format!("stats request answered {}", reply_label(&other))),
    }
}

/// One timed figure with, for the reader, the same figure by the
/// procedure that is not the one reported (see `client::observe`).
fn describe(name: &str, e: &Estimate, unit: &str, other: &str) {
    println!(
        "  {name:<22} {:>12.3} {unit:<4} ({other} {:.3}; {} samples)",
        e.value, e.other, e.samples
    );
}

fn run(args: &RunArgs, process_start: Instant) -> Result<bool, String> {
    if args.trace {
        return Err("--trace 1 is the `trace` binary's run (benchmark/run.sh selects it)".into());
    }
    let run_dir = args
        .out
        .join(format!("{}-{}", args.workload.name, std::process::id()));
    let result = run_in(args, &run_dir, process_start);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(args: &RunArgs, run_dir: &Path, process_start: Instant) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "workload {} — seed {}, {} files, {} s, {} connection(s)",
        w.name,
        args.seed,
        args.n_files,
        args.seconds,
        w.connections.len()
    );
    let fleet_dir = run_dir.join("fleet");
    let recovery_dir = run_dir.join("recover");
    let mut verdict = Verdict::default();
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut open_ms = Vec::with_capacity(COLD_OPENS);

    // First half of the set-ups. The first fleet (timed from process
    // start) serves the verification requests, the last one the timed
    // phase. The recovery store is built and first opened while no fleet
    // is up, so that the process's peak memory stays that of one serving
    // fleet.
    let mut verify_s = 0.0;
    let mut verify_replies = Vec::new();
    let mut recovery_model = Model::default();
    let mut serving = None;
    for round in 0..SETUPS / 2 {
        let since = if round == 0 {
            process_start
        } else {
            clock::now()
        };
        let (mut s, took) = set_up(w, args, &fleet_dir, since)?;
        setup_times.push(took);
        if round + 1 == SETUPS / 2 {
            serving = Some(s);
            break;
        }
        if round == 0 {
            let t = clock::now();
            verify_replies =
                collect_replies(&mut s.conns[0], &s.inputs.streams[0], VERIFY_REQUESTS)?;
            verify_s += clock::s_since(t);
        }
        drop(s.conns);
        s.fleet.shutdown()?;
        if round == 0 {
            verdict.attempted += 1;
            recovery_model = storage::recovery_store(&s.inputs.files, args.seed, &recovery_dir)?;
            match cold_opens(&recovery_dir, &recovery_model, COLD_OPENS / 2) {
                Ok(times) => open_ms.extend(times),
                Err(why) => verdict.fail(why),
            }
        }
    }
    let Serving {
        inputs,
        fleet,
        mut conns,
    } = serving.ok_or("no fleet was set up")?;
    println!(
        "inputs_digest {:016x} ({} requests, {:.1} MiB of frames)",
        inputs.digest(),
        inputs.streams.iter().map(|s| s.len()).sum::<usize>(),
        inputs.streams.iter().map(|s| s.bytes()).sum::<usize>() as f64 / (1 << 20) as f64
    );

    // The index footprint of the deployment as built: taken before any
    // mutation is served, so that it is an exact count on every workload.
    let index_b = index_bytes_per_file(&mut conns[0], inputs.files.len())?;

    let steal_before = steal_jiffies();
    let mut logs: Vec<ConnLog> = conns.iter().map(|_| ConnLog::default()).collect();
    timed_phase(&mut conns, &inputs.streams, &mut logs, args.seconds);
    let stolen = steal_before
        .zip(steal_jiffies())
        .map(|((s0, t0), (s1, t1))| 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    let observed = observe(&logs, args.seconds);
    for log in &logs {
        verdict.absorb_log(log);
    }

    let cursor = logs[0].cursor;
    let replayed = replay_model(&inputs.files, &inputs.streams[0], cursor)?;
    let model = &replayed.model;
    let rss_mib = peak_rss_mib()?;
    drop(conns);
    let store_dir = fleet.store_dir.clone();
    let server = fleet.shutdown()?;

    // End state: drained fleet and reopened store against the model.
    verdict.attempted += 2;
    if let Err(why) = check_state(&server, model, "the drained fleet") {
        verdict.fail(why);
    }
    drop(server);
    if let Err(why) = cold_opens(&store_dir, model, 1) {
        verdict.fail(why);
    }

    // Verification replies against the unsharded reference.
    let t = clock::now();
    verdict.absorb(compare_with_reference(
        inputs.files.clone(),
        &inputs.streams[0],
        &verify_replies,
        args.corrupt_oracle,
    ));
    verify_s += clock::s_since(t);

    // The amplification store, after peak memory was read: its fleet and
    // its 150 000 mutations are the probe's, not the workload's.
    let stream0_len = inputs.streams[0].len();
    let files = inputs.files;
    drop(inputs.streams);
    verdict.attempted += 1;
    let t = clock::now();
    let amp = storage::amplification(&files, args.seed, &run_dir.join("amp"));
    let amp_s = clock::s_since(t);
    drop(files);

    // Second half of the set-ups and of the cold opens.
    for _ in SETUPS / 2..SETUPS {
        let (s, took) = set_up(w, args, &fleet_dir, clock::now())?;
        setup_times.push(took);
        drop(s.conns);
        s.fleet.shutdown()?;
    }
    match cold_opens(&recovery_dir, &recovery_model, COLD_OPENS - COLD_OPENS / 2) {
        Ok(times) => open_ms.extend(times),
        Err(why) => verdict.fail(why),
    }
    let setup_s = quantile(&setup_times, 0.0);
    let recover_ms = quantile(&open_ms, 0.0);

    println!("end to end (tracing off):");
    println!(
        "  {:<22} {:>12.4} s    (best of {:.3?})",
        "setup_s", setup_s, setup_times
    );
    describe("ops_per_s", &observed.ops_per_s, "1/s", "best slices");
    describe("p50_us", &observed.p50_us, "us", "whole run");
    for kind in Kind::ALL {
        if let Some(e) = &observed.kind_p50_us[kind as usize] {
            describe(&format!("  {}_p50_us", kind.name()), e, "us", "whole run");
        }
    }
    describe("p99_us", &observed.p99_us, "us", "whole run");
    if let Some(e) = &observed.read_p99_us {
        describe("  read_p99_us", e, "us", "whole run");
    }
    if let Some(e) = &observed.write_p99_us {
        describe("  write_p99_us", e, "us", "whole run");
    }
    let write_amp = match &amp {
        Ok(a) => {
            println!(
                "  {:<22} {:>12.4} ratio ({} B in {} writes and {} fsyncs ÷ {} B of {} changes; {amp_s:.2} s)",
                "write_amp",
                a.write_amp,
                a.write_bytes,
                a.writes,
                a.fsyncs,
                a.user_bytes,
                storage::AMP_MUTATIONS
            );
            a.write_amp
        }
        Err(why) => {
            verdict.fail(why.clone());
            f64::NAN
        }
    };
    println!(
        "  {:<22} {:>12.3} ms   (best of {:.1?}; {} frames replayed)",
        "recover_ms",
        recover_ms,
        open_ms,
        storage::RECOVER_MUTATIONS
    );
    println!(
        "  {:<22} {:>12.4} B    (as built, {} files)",
        "index_bytes_per_file", index_b, args.n_files
    );
    println!("  {:<22} {:>12.1} MiB", "peak_rss_mib", rss_mib);
    println!(
        "verify_s {verify_s:.3} ({} requests against the unsharded system; end state and reopened stores against the model)",
        verify_replies.len()
    );
    println!(
        "mutations acknowledged {} (stream of {stream0_len} wrapped {} times)",
        replayed.mutations,
        cursor / stream0_len
    );
    if let Some(share) = stolen {
        println!("host: {share:.1} % of the timed phase's CPU time was stolen by the hypervisor");
    }
    if let Some(why) = &verdict.first_failure {
        println!("FAILED: {why}");
    }

    let values = [
        setup_s,
        observed.ops_per_s.value,
        observed.p50_us.value,
        observed.p99_us.value,
        write_amp,
        recover_ms,
        index_b,
        rss_mib,
    ];
    let correct = verdict.failed == 0 && values.iter().all(|v| v.is_finite() && *v > 0.0);
    let metrics = Json::obj(END_TO_END.iter().zip(values).map(|(m, v)| {
        (
            m.name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
        )
    }));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(verdict.attempted as f64)),
            ("failed", Json::Num(verdict.failed as f64)),
            ("metrics", metrics),
        ])
        .compact()
    );
    Ok(correct)
}
