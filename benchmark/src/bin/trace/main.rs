//! `trace`: the traced run that gives the per-layer metrics.
//!
//! ```text
//! trace --workload <name> [--seed 11] [--seconds 10] [--quick] [--out benchmark/out]
//! ```
//!
//! For [`TRACED_SHARE`] of `--seconds`, connection 0's stream is served
//! over the socket of fleet A in rounds of two blocks of [`BLOCK`]
//! requests, one traced and one not, in alternating order; every request
//! of the traced block is then replayed at the nested depths of
//! [`layers`] on a twin server and shadow stores, and every span goes
//! to `<out>/<workload>.trace.json`. Further connections of the
//! workload run untraced beside it, so contention is what it is in the
//! end-to-end run. The rest of `--seconds` is a plain timed window, the
//! procedure of the end-to-end run with nothing traced, which gives the
//! per-kind client latencies. The last line of standard output is the
//! JSON object with every per-layer metric.

mod layers;
mod spans;

use layers::{Replica, Shadow, Sums};
use smartstore::SmartStoreSystem;
use smartstore_benchmark::args::RunArgs;
use smartstore_benchmark::checks::{
    check_state, collect_replies, compare_with_reference, replay_model, Verdict, VERIFY_REQUESTS,
};
use smartstore_benchmark::client::{check_frame, drive, observe, timed_phase, ConnLog, Observed};
use smartstore_benchmark::clock;
use smartstore_benchmark::fleet::{server_config, CountingVfs, Fleet, VfsCounts};
use smartstore_benchmark::inputs::{Inputs, Kind};
use smartstore_benchmark::json::Json;
use smartstore_benchmark::spec::PER_LAYER;
use smartstore_benchmark::stats::median;
use smartstore_persist::{RealVfs, SystemPersist as _};
use smartstore_service::{MetadataServer, Transport};
use spans::{Tracer, NO_PARENT};
use std::path::Path;
use std::time::Duration;

/// Requests per block; a round is one traced and one untraced block.
const BLOCK: usize = 128;
/// Share of `--seconds` the traced rounds take; the plain timed window
/// takes the rest.
const TRACED_SHARE: f64 = 0.6;
/// Traced requests whose spans are kept and written out; the sums
/// behind the metrics run over every traced request.
const SPAN_REQUESTS: u64 = 4_000;
/// Rounds it takes for the overhead check to fail a run. The ratio of
/// one round moves by ± 10 % with the host; its median over this many
/// rounds by about ± 2 %. A shorter run (`--quick`) only reports it.
const MIN_ROUNDS_FOR_OVERHEAD_CHECK: usize = 32;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match RunArgs::parse(args).and_then(|a| run(&a)) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("trace: {why}");
            std::process::exit(2);
        }
    }
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let run_dir = args.out.join(format!(
        "{}-trace-{}",
        args.workload.name,
        std::process::id()
    ));
    let result = run_in(args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

/// Opens every shard directory of a freshly built, shut-down fleet as a
/// bare system + store pair.
fn open_shadows(
    files: Vec<smartstore_trace::FileMetadata>,
    dir: &Path,
) -> Result<Vec<Shadow>, String> {
    let built = MetadataServer::build(files, &server_config(dir, CountingVfs::new()))
        .map_err(|e| format!("shadow build: {e}"))?;
    let dirs: Vec<_> = built.layout().into_iter().filter_map(|s| s.dir).collect();
    drop(built);
    dirs.iter()
        .map(|d| {
            SmartStoreSystem::open_from_dir_with(RealVfs::handle(), d)
                .map(|(sys, store, _report)| Shadow { sys, store })
                .map_err(|e| format!("shadow open {}: {e}", d.display()))
        })
        .collect()
}

fn run_in(args: &RunArgs, run_dir: &Path) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "traced run of {} — seed {}, {} files, {} s",
        w.name, args.seed, args.n_files, args.seconds
    );
    let inputs = Inputs::build(w, args.n_files, args.seed);
    println!("inputs_digest {:016x}", inputs.digest());
    let stream = &inputs.streams[0];
    let has_writes = w.connections[0].write > 0;
    let mut verdict = Verdict::default();

    // Verification pass on a fleet of its own.
    let t = clock::now();
    let verify_replies = {
        let fleet = Fleet::launch(inputs.files.clone(), &run_dir.join("verify"))?;
        let mut conn = fleet.connect()?;
        let replies = collect_replies(&mut conn, stream, VERIFY_REQUESTS)?;
        drop(conn);
        fleet.shutdown()?;
        replies
    };
    verdict.absorb(compare_with_reference(
        inputs.files.clone(),
        stream,
        &verify_replies,
        args.corrupt_oracle,
    ));
    let verify_s = clock::s_since(t);

    // Fleet A behind the socket, its in-process twin, the shadow pairs.
    let fleet = Fleet::launch(inputs.files.clone(), &run_dir.join("fleet"))?;
    let mut conns: Vec<_> = (0..w.connections.len())
        .map(|_| fleet.connect())
        .collect::<Result<_, _>>()?;
    let twin = MetadataServer::build(
        inputs.files.clone(),
        &server_config(&run_dir.join("twin"), CountingVfs::new()),
    )
    .map_err(|e| format!("twin build: {e}"))?;
    let shadows = if has_writes {
        open_shadows(inputs.files.clone(), &run_dir.join("shadow"))?
    } else {
        Vec::new()
    };
    let mut replica = Replica::new(twin, shadows);

    let mut tracer = Tracer::new();
    let mut sums = Sums::default();
    let mut scratch = Sums::default();
    let mut vfs_traced = VfsCounts::default();
    let mut main_log = ConnLog::default();
    // Per round: mean socket latency of the traced block ÷ that of the
    // untraced block beside it.
    let mut overheads: Vec<f64> = Vec::new();
    let mut background: Vec<ConnLog> = Vec::new();

    let start = clock::now();
    let deadline = start + Duration::from_secs_f64(args.seconds * TRACED_SHARE);
    let (conn0, others) = conns
        .split_first_mut()
        .ok_or("workload without connections")?;
    let replay_error = std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = others
            .iter_mut()
            .zip(&inputs.streams[1..])
            .map(|(transport, stream)| {
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    drive(transport, stream, &mut log, None, deadline);
                    log
                })
            })
            .collect();

        let mut outcome = Ok(());
        let mut round = 0usize;
        'run: while clock::now() < deadline {
            // Both blocks of a round go over the socket back to back,
            // the traced one first in every other round, and the
            // replays follow: whatever the replays do to caches and to
            // the host's speed meets a traced and an untraced block
            // equally often.
            let first = main_log.cursor;
            let mut served: Vec<(bool, u32)> = Vec::with_capacity(2 * BLOCK);
            let mut block_ns = [0u64; 2];
            for half in 0..2 {
                let traced = (half == 0) == round.is_multiple_of(2);
                tracer.set_enabled(traced && sums.requests < SPAN_REQUESTS);
                fleet.vfs.set_timed(traced);
                let vfs_before = fleet.vfs.counts();
                for _ in 0..BLOCK {
                    let i = main_log.cursor % stream.len();
                    let t = clock::now();
                    let reply = conn0.exchange(stream.frame(i), 1);
                    let ns = clock::ns_since(t);
                    let rid = main_log.cursor as u32;
                    main_log.cursor += 1;
                    main_log.attempted += 1;
                    let checked = reply
                        .map_err(|e| format!("transport: {e}"))
                        .and_then(|bytes| check_frame(stream, i, &bytes));
                    if let Err(why) = checked {
                        main_log.failed += 1;
                        main_log
                            .first_failure
                            .get_or_insert(format!("request {i}: {why}"));
                        // The twin can no longer be kept in step.
                        break 'run;
                    }
                    block_ns[traced as usize] += ns;
                    let span = if traced {
                        sums.requests += 1;
                        sums.socket_ns += ns;
                        tracer.record("net.socket.exchange", rid, NO_PARENT, t, ns)
                    } else {
                        NO_PARENT
                    };
                    served.push((traced, span));
                }
                if traced {
                    vfs_traced += fleet.vfs.counts() - vfs_before;
                }
            }
            overheads.push(block_ns[1] as f64 / block_ns[0].max(1) as f64);

            // Replays, in stream order: every mutation (to keep twin
            // and shadows in step), reads of the traced block only;
            // recorded only for the traced block.
            for (k, &(traced, span)) in served.iter().enumerate() {
                let j = first + k;
                let i = j % stream.len();
                tracer.set_enabled(traced && span != NO_PARENT);
                let into = if traced { &mut sums } else { &mut scratch };
                let replayed = match stream.kind(i) {
                    Kind::Write => {
                        replica.replay_write(&mut tracer, into, j as u32, span, stream.frame(i))
                    }
                    _ if traced => {
                        replica.replay_read(&mut tracer, into, j as u32, span, stream.frame(i))
                    }
                    _ => Ok(()),
                };
                if let Err(why) = replayed {
                    outcome = Err(why);
                    break 'run;
                }
            }
            round += 1;
        }
        for h in handles {
            match h.join() {
                Ok(log) => background.push(log),
                Err(_) => outcome = Err("background client thread panicked".into()),
            }
        }
        outcome
    });
    let traced_s = clock::s_since(start);
    if let Err(why) = replay_error {
        verdict.attempted += 1;
        verdict.fail(why);
    }
    fleet.vfs.set_timed(false);

    // The twin, which stops here, must hold what the model holds after
    // the mutations served so far.
    verdict.attempted += 1;
    let traced_model = replay_model(&inputs.files, stream, main_log.cursor)?.model;
    if let Err(why) = check_state(&replica.twin, &traced_model, "the in-process twin") {
        verdict.fail(why);
    }
    drop(replica);
    drop(traced_model);

    // The plain timed window on the same fleet: the end-to-end run's
    // procedure, every connection continuing its stream.
    let mut logs = vec![main_log];
    logs.extend(background);
    let window_s = args.seconds * (1.0 - TRACED_SHARE);
    let observed = if verdict.failed == 0 {
        timed_phase(&mut conns, &inputs.streams, &mut logs, window_s);
        observe(&logs, window_s)
    } else {
        Observed::default()
    };

    // End state: fleet A and the reopened store agree with the model;
    // recovery work is read off the shard stores.
    let cursor = logs[0].cursor;
    let model = replay_model(&inputs.files, stream, cursor)?.model;
    drop(conns);
    let store_dir = fleet.store_dir.clone();
    let build_ms = fleet.build_s * 1e3;
    let server = fleet.shutdown()?;
    verdict.attempted += 2;
    if let Err(why) = check_state(&server, &model, "the drained fleet") {
        verdict.fail(why);
    }
    let shard_dirs: Vec<_> = server.layout().into_iter().filter_map(|s| s.dir).collect();
    drop(server);
    let mut replayed_frames = 0usize;
    for d in &shard_dirs {
        let (_sys, _store, report) = SmartStoreSystem::open_from_dir_with(RealVfs::handle(), d)
            .map_err(|e| format!("open {}: {e}", d.display()))?;
        replayed_frames += report.replayed_frames;
    }
    let t = clock::now();
    let reopened = MetadataServer::open(&store_dir).map_err(|e| format!("cold open: {e}"))?;
    let open_ns = clock::ns_since(t);
    if let Err(why) = check_state(&reopened, &model, "the reopened store") {
        verdict.fail(why);
    }
    drop(reopened);

    // Tracing overhead at the socket (a span push, the `Vfs` timers):
    // the median over the rounds of traced ÷ untraced.
    let overhead = if overheads.is_empty() {
        f64::NAN
    } else {
        median(&overheads)
    };
    verdict.attempted += 1;
    if overheads.len() >= MIN_ROUNDS_FOR_OVERHEAD_CHECK && !(0.9..=1.1).contains(&overhead) {
        verdict.fail(format!(
            "trace.overhead_ratio {overhead:.3} outside [0.9, 1.1] over {} rounds",
            overheads.len()
        ));
    }

    for log in &logs {
        verdict.absorb_log(log);
    }

    let span_file = args.out.join(format!("{}.trace.json", w.name));
    tracer
        .write_json(&span_file, w.name)
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;

    let mut values = per_layer_values(&sums, &vfs_traced, &observed);
    values.extend([
        ("persist.open.replayed_frames", replayed_frames as f64),
        ("persist.open.ns", open_ns as f64),
        ("service.build_ms", build_ms),
        ("verify_s", verify_s),
        ("trace.overhead_ratio", overhead),
    ]);

    println!(
        "{} requests traced in {} rounds over {:.2} s, then a plain window of {:.2} s; {} spans in {}",
        sums.requests,
        overheads.len(),
        traced_s,
        window_s,
        tracer.len(),
        span_file.display()
    );
    println!("per layer (mean per traced request; client rows from the plain window):");
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let v = values
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
        println!(
            "  {:<36} {:>14.3} {:<6} moves {}",
            m.name, v, m.unit, m.moves
        );
        metrics.push((
            m.name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
        ));
    }
    if let Some(why) = &verdict.first_failure {
        println!("FAILED: {why}");
    }
    let correct = verdict.failed == 0 && sums.requests > 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(verdict.attempted as f64)),
            ("failed", Json::Num(verdict.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    );
    Ok(correct)
}

/// The metrics that are sums over the traced requests, or client
/// latencies of the plain window.
fn per_layer_values(s: &Sums, vfs: &VfsCounts, observed: &Observed) -> Vec<(&'static str, f64)> {
    let n = s.requests.max(1) as f64;
    let per = |x: u64| x as f64 / n;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let kind_p50 = |k: Kind| observed.kind_p50_us[k as usize].map_or(0.0, |e| e.value);
    let write_path =
        s.place_ns + s.wal_append_ns + s.apply_ns + s.compact_delta_ns + s.compact_full_ns;
    vec![
        ("point_p50_us", kind_p50(Kind::Point)),
        ("range_p50_us", kind_p50(Kind::Range)),
        ("topk_p50_us", kind_p50(Kind::TopK)),
        ("write_p50_us", kind_p50(Kind::Write)),
        ("read_p99_us", observed.read_p99_us.map_or(0.0, |e| e.value)),
        (
            "write_p99_us",
            observed.write_p99_us.map_or(0.0, |e| e.value),
        ),
        (
            "net.socket.self_ns",
            (s.socket_ns as f64 - s.inproc_ns as f64) / n,
        ),
        ("net.frame.decode_ns", per(s.frame_decode_ns)),
        ("service.codec.request_ns", per(s.codec_request_ns)),
        ("service.codec.response_ns", per(s.codec_response_ns)),
        ("service.codec.response_bytes", per(s.response_bytes)),
        (
            "service.fanout.self_ns",
            (s.serve_read_ns as f64 - s.query_shard_ns as f64 - s.merge_ns as f64) / n,
        ),
        ("service.merge_ns", per(s.merge_ns)),
        (
            "smartstore.query.self_ns",
            (s.engine_ns as f64 - s.route_ns as f64 - s.unit_scan_ns as f64) / n,
        ),
        ("smartstore.tree.route_ns", per(s.route_ns)),
        ("smartstore.tree.nodes_visited", per(s.nodes_visited)),
        ("smartstore.tree.filters_probed", per(s.filters_probed)),
        ("smartstore.tree.target_units", per(s.target_units)),
        ("bloom.probe_ns", ratio(s.bloom_probe_ns, s.bloom_probes)),
        ("bloom.false_positive_units", per(s.false_positive_units)),
        ("smartstore.unit.scan_ns", per(s.unit_scan_ns)),
        ("smartstore.unit.records_examined", per(s.records_examined)),
        ("smartstore.unit.results", per(s.results)),
        (
            "smartstore.unit.examined_per_result",
            ratio(s.records_examined, s.results),
        ),
        (
            "service.apply.self_ns",
            (s.apply_path_ns as f64 - write_path as f64) / n,
        ),
        ("smartstore.place_ns", per(s.place_ns)),
        ("smartstore.apply_ns", per(s.apply_ns)),
        ("persist.wal.append_ns", per(s.wal_append_ns)),
        (
            "persist.wal.bytes_per_change",
            ratio(s.wal_bytes, s.wal_changes),
        ),
        ("persist.vfs.fsync_ns", per(vfs.fsync_ns)),
        ("persist.vfs.fsyncs", per(vfs.fsyncs)),
        ("persist.vfs.write_ns", per(vfs.write_ns)),
        ("persist.vfs.writes", per(vfs.writes)),
        ("persist.vfs.write_bytes", per(vfs.write_bytes)),
        ("persist.compact.count", s.compactions as f64),
        ("persist.compact.delta_ns", per(s.compact_delta_ns)),
        ("persist.compact.full_ns", per(s.compact_full_ns)),
        ("persist.compact.bytes", per(s.compact_bytes)),
        (
            "persist.compact.stall_share",
            ratio(s.compact_delta_ns + s.compact_full_ns, write_path),
        ),
    ]
}
