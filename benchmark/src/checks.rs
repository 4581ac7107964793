//! The correctness gate: no number is printed for a wrong answer.
//!
//! * Before the timed phase, the first [`VERIFY_REQUESTS`] requests of
//!   connection 0's stream go over the socket of a fresh fleet, one at
//!   a time; the replies are later compared with the unsharded
//!   [`Reference`] fed the same requests.
//! * After the timed phase, the drained fleet must hold exactly the
//!   files the [`Model`] holds after connection 0's acknowledged
//!   mutations, and so must the store reopened from disk.
//!
//! (During the timed phase every reply is checked too, as far as the
//! stream alone can tell: see [`crate::client::check_frame`].)

use crate::client::ConnLog;
use crate::clock;
use crate::inputs::{Kind, Stream};
use crate::oracle::{check_reply, fleet_digest, Model, Reference};
use smartstore_net::SocketTransport;
use smartstore_service::codec::{decode_request, decode_response};
use smartstore_service::{MetadataServer, Request, Response, Transport};
use smartstore_trace::FileMetadata;
use std::path::Path;

pub const VERIFY_REQUESTS: usize = 2_000;

/// Failures of one check, counted against what it attempted.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Verdict {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Counts a connection's requests and failures.
    pub fn absorb_log(&mut self, log: &ConnLog) {
        self.absorb(Verdict {
            attempted: log.attempted,
            failed: log.failed,
            first_failure: log.first_failure.clone(),
        });
    }

    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Sends the first `n` requests of `stream` one at a time and returns
/// the raw reply frames.
pub fn collect_replies(
    transport: &mut SocketTransport,
    stream: &Stream,
    n: usize,
) -> Result<Vec<Vec<u8>>, String> {
    (0..n.min(stream.len()))
        .map(|i| {
            transport
                .exchange(stream.frame(i), 1)
                .map_err(|e| format!("verification request {i}: {e}"))
        })
        .collect()
}

/// Compares collected replies with the unsharded reference system.
/// `corrupt_oracle` is the test-only hook: it spoils the first expected
/// answer, which must fail the run.
pub fn compare_with_reference(
    files: Vec<FileMetadata>,
    stream: &Stream,
    replies: &[Vec<u8>],
    corrupt_oracle: bool,
) -> Verdict {
    let mut reference = Reference::build(files);
    let mut verdict = Verdict::default();
    for (i, raw) in replies.iter().enumerate() {
        verdict.attempted += 1;
        let decoded = decode_request(stream.frame(i))
            .map_err(|e| format!("own frame: {e}"))
            .and_then(|req| {
                decode_response(raw)
                    .map(|resp| (req, resp))
                    .map_err(|e| format!("reply: {e}"))
            });
        let (req, resp): (Request, Response) = match decoded {
            Ok(pair) => pair,
            Err(why) => {
                verdict.fail(format!("verification request {i}: {why}"));
                continue;
            }
        };
        let mut expected = reference.answer(&req);
        if corrupt_oracle && i == 0 {
            expected = Some(vec![u64::MAX - 1]);
        }
        if let Err(why) = check_reply(expected.as_deref(), &resp) {
            verdict.fail(format!(
                "verification request {i} ({}) differs from the unsharded system: {why}",
                stream.kind(i).name()
            ));
        }
    }
    verdict
}

/// What the first `cursor` positions of a stream (which wraps) amount
/// to when applied in order to the population.
pub struct Replayed {
    /// The live files.
    pub model: Model,
    /// Mutations among those positions.
    pub mutations: usize,
}

pub fn replay_model(
    files: &[FileMetadata],
    stream: &Stream,
    cursor: usize,
) -> Result<Replayed, String> {
    let mut out = Replayed {
        model: Model::new(files),
        mutations: 0,
    };
    for j in 0..cursor {
        let i = j % stream.len();
        if stream.kind(i) != Kind::Write {
            continue;
        }
        match decode_request(stream.frame(i)).map_err(|e| format!("own frame {i}: {e}"))? {
            Request::ApplyChange { change } => {
                out.mutations += 1;
                out.model.apply(change);
            }
            other => return Err(format!("frame {i} marked write holds {}", other.kind())),
        }
    }
    Ok(out)
}

pub fn check_state(server: &MetadataServer, model: &Model, what: &str) -> Result<(), String> {
    let (digest, n) = fleet_digest(server);
    if (digest, n) == (model.digest(), model.len()) {
        Ok(())
    } else {
        Err(format!(
            "{what} holds {n} files (digest {digest:016x}); sequential application of the \
             acknowledged mutations gives {} (digest {:016x})",
            model.len(),
            model.digest()
        ))
    }
}

/// Opens the shut-down store `n` times; the first result is checked
/// against `model`. Returns every open's wall time in ms.
pub fn cold_opens(store_dir: &Path, model: &Model, n: usize) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(n);
    for round in 0..n {
        let t = clock::now();
        let server = MetadataServer::open(store_dir).map_err(|e| format!("cold open: {e}"))?;
        times.push(clock::s_since(t) * 1e3);
        if round == 0 {
            if let Some(i) = server.quarantined_shards().first() {
                return Err(format!("reopened store came up with shard {i} quarantined"));
            }
            check_state(&server, model, "the reopened store")?;
        }
    }
    Ok(times)
}

/// Jiffies the hypervisor kept from this machine's CPUs ("steal") and
/// jiffies in all, since boot, from the first line of `/proc/stat`.
/// The share stolen during a run says how contended the host was.
pub fn steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
