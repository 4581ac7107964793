//! Closed-loop clients and what they observed.
//!
//! One thread per connection sends a pre-encoded frame, waits for the
//! reply frame, checks it, and sends the next. Latency is the time from
//! just before `SocketTransport::exchange` to the reply frame being
//! returned; decoding and checking the reply happen after the clock is
//! read, but inside the wall time that throughput is taken over.

use crate::clock;
use crate::inputs::{Kind, Stream, NO_FILE, TOP_K};
use crate::oracle::reply_label;
use crate::stats::{best_high, best_low, quantile_sorted, sort, SEGMENTS};
use smartstore_net::SocketTransport;
use smartstore_service::codec::decode_response;
use smartstore_service::{Response, Transport};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A client gives up on its connection after this many failures.
const MAX_FAILURES: u64 = 1_000;

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: Kind,
    pub latency_ns: u64,
    /// When the reply arrived, from the start of the timed window.
    pub end_ns: u64,
}

/// What one connection did over its whole life (warm-up included).
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Samples of the timed window only.
    pub samples: Vec<Sample>,
    /// Stream positions consumed since the connection started; position
    /// `j` is request `j % stream.len()`.
    pub cursor: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl ConnLog {
    fn fail(&mut self, at: usize, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(format!("request {at}: {why}"));
        }
    }
}

/// Checks a reply frame against what the stream says request `i` may
/// return: the exact id for a point lookup, the right reply kind (and
/// at most k hits) otherwise. A failure reply of any kind is a failure.
pub fn check_frame(stream: &Stream, i: usize, reply: &[u8]) -> Result<(), String> {
    let resp = decode_response(reply).map_err(|e| format!("undecodable reply: {e}"))?;
    match (stream.kind(i), &resp) {
        (Kind::Point, Response::Query(q)) => {
            let want = stream.expected_point(i);
            let ok = if want == NO_FILE {
                q.file_ids.is_empty()
            } else {
                q.file_ids == [want]
            };
            if ok {
                Ok(())
            } else {
                Err(format!(
                    "point lookup returned {:?}, population says {want}",
                    q.file_ids
                ))
            }
        }
        (Kind::Range, Response::Query(_)) => Ok(()),
        (Kind::TopK, Response::TopK(t)) if t.hits.len() <= TOP_K => Ok(()),
        (Kind::Write, Response::Applied(_)) => Ok(()),
        (kind, other) => Err(format!(
            "{} request answered {}",
            kind.name(),
            reply_label(other)
        )),
    }
}

/// Drives `stream` over `transport` from `log.cursor` on until `until`.
/// Samples are kept only when `window_start` is set (the timed window).
pub fn drive(
    transport: &mut SocketTransport,
    stream: &Stream,
    log: &mut ConnLog,
    window_start: Option<Instant>,
    until: Instant,
) {
    while log.failed < MAX_FAILURES {
        let t = clock::now();
        if t >= until {
            break;
        }
        let i = log.cursor % stream.len();
        let reply = transport.exchange(stream.frame(i), 1);
        let latency_ns = clock::ns_since(t);
        log.cursor += 1;
        log.attempted += 1;
        match reply {
            Ok(bytes) => {
                if let Err(why) = check_frame(stream, i, &bytes) {
                    log.fail(i, why);
                    continue;
                }
            }
            Err(e) => {
                log.fail(i, format!("transport: {e}"));
                continue;
            }
        }
        if let Some(start) = window_start {
            log.samples.push(Sample {
                kind: stream.kind(i),
                latency_ns,
                end_ns: clock::ns_since(start),
            });
        }
    }
}

/// Share of the window's length run before it opens, so that caches
/// are warm and the fast stretch that follows CPU-heavy work (see
/// `stats.rs`) has passed.
const WARMUP_SHARE: f64 = 0.10;

/// The timed phase of a run: one closed-loop thread per connection,
/// each continuing its stream from `logs[c].cursor`; a warm-up, then a
/// window of `seconds` whose samples are kept in `logs[c].samples`.
pub fn timed_phase(
    conns: &mut [SocketTransport],
    streams: &[Stream],
    logs: &mut [ConnLog],
    seconds: f64,
) {
    let warmup = Duration::from_secs_f64(seconds * WARMUP_SHARE);
    let window = Duration::from_secs_f64(seconds);
    let barrier = Barrier::new(conns.len());
    let panicked = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .zip(logs.iter_mut())
            .map(|((transport, stream), log)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    // Room for 50 000 requests a second, so the log does
                    // not reallocate while the clock runs.
                    log.samples.reserve((seconds * 50_000.0) as usize);
                    barrier.wait();
                    let window_start = clock::now() + warmup;
                    drive(transport, stream, log, None, window_start);
                    drive(
                        transport,
                        stream,
                        log,
                        Some(window_start),
                        window_start + window,
                    );
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().is_err())
            .filter(|&panicked| panicked)
            .count()
    });
    if panicked > 0 {
        if let Some(log) = logs.first_mut() {
            log.attempted += 1;
            log.fail(log.cursor, format!("{panicked} client thread(s) panicked"));
        }
    }
}

/// One figure two ways: the value that is reported and, for the reader,
/// the same figure by the other procedure (whole run or best slices,
/// see [`observe`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Estimate {
    pub value: f64,
    pub other: f64,
    pub samples: usize,
}

/// Everything the clients of one run observed. Latencies in µs.
#[derive(Debug, Default)]
pub struct Observed {
    pub answered: usize,
    /// Answered requests ÷ window.
    pub ops_per_s: Estimate,
    /// Median over all requests, whatever their kind.
    pub p50_us: Estimate,
    /// 99th percentile over all requests.
    pub p99_us: Estimate,
    /// Median per kind; `None` where the kind did not occur.
    pub kind_p50_us: [Option<Estimate>; 4],
    pub read_p99_us: Option<Estimate>,
    pub write_p99_us: Option<Estimate>,
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

/// Quantile `q` of the latencies `pick` selects: the best-decile
/// boundary over the time slices (reported) and the whole run's.
fn latency(slices: &[Vec<Sample>], q: f64, pick: impl Fn(&Sample) -> bool) -> Option<Estimate> {
    let mut all: Vec<f64> = Vec::new();
    let mut per_slice: Vec<f64> = Vec::new();
    for slice in slices {
        let mut v: Vec<f64> = slice
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.latency_ns as f64)
            .collect();
        if v.is_empty() {
            continue;
        }
        sort(&mut v);
        per_slice.push(quantile_sorted(&v, q));
        all.extend_from_slice(&v);
    }
    if all.is_empty() {
        return None;
    }
    sort(&mut all);
    Some(Estimate {
        value: us(best_low(&per_slice)),
        other: us(quantile_sorted(&all, q)),
        samples: all.len(),
    })
}

/// What the samples of a window of `window_s` seconds amount to.
///
/// Throughput is taken over the whole run, so that every stall counts
/// in it, however rare. The latency quantiles are the best-decile
/// boundary over [`SEGMENTS`] time slices (see [`crate::stats`]), which
/// does not move with the host's speed as the whole run's do. Each
/// figure carries the other procedure's value for the reader.
pub fn observe(logs: &[ConnLog], window_s: f64) -> Observed {
    let slice_ns = window_s * 1e9 / SEGMENTS as f64;
    let mut slices: Vec<Vec<Sample>> = vec![Vec::new(); SEGMENTS];
    for s in logs.iter().flat_map(|l| &l.samples) {
        let at = ((s.end_ns as f64 / slice_ns) as usize).min(SEGMENTS - 1);
        slices[at].push(*s);
    }
    let answered: usize = slices.iter().map(Vec::len).sum();
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.len() as f64 / (slice_ns / 1e9))
        .collect();
    let mut out = Observed {
        answered,
        ops_per_s: Estimate {
            value: answered as f64 / window_s,
            other: best_high(&rates),
            samples: answered,
        },
        ..Observed::default()
    };
    out.p50_us = latency(&slices, 0.5, |_| true).unwrap_or_default();
    out.p99_us = latency(&slices, 0.99, |_| true).unwrap_or_default();
    for kind in Kind::ALL {
        out.kind_p50_us[kind as usize] = latency(&slices, 0.5, |s| s.kind == kind);
    }
    out.read_p99_us = latency(&slices, 0.99, |s| s.kind != Kind::Write);
    out.write_p99_us = latency(&slices, 0.99, |s| s.kind == Kind::Write);
    out
}
