//! The storage probe: what `write_amp` and `recover_ms` are measured on.
//!
//! A run is timed, so how many mutations a served fleet takes, and with
//! them how many compaction cycles it completes and how long a WAL tail
//! it is shut down with, depend on the host's speed. Bytes written per
//! user byte and recovery time taken from such a fleet move with
//! throughput and run length, not with the storage path. The probe
//! therefore feeds a *fixed count* of mutations, in process, through
//! `MetadataServer::apply` (the call the socket front end makes for a
//! mutation) to fresh durable fleets of the deployment under test:
//!
//! * the **amplification store** takes [`AMP_MUTATIONS`], enough for
//!   every shard's WAL to cross the compaction threshold several times;
//! * the **recovery store** takes [`RECOVER_MUTATIONS`], few enough that
//!   no shard compacts, is synced and dropped, and is then opened cold.
//!
//! The mutations come from the benchmark's own generator under
//! `--seed`, the same on every workload, so the two metrics mean the
//! same thing wherever they are printed and repeat exactly for a seed.

use smartstore_benchmark::checks::check_state;
use smartstore_benchmark::fleet::{server_config, CountingVfs};
use smartstore_benchmark::inputs::{generate, Mix, Stream};
use smartstore_benchmark::oracle::{reply_label, Model};
use smartstore_service::codec::decode_request;
use smartstore_service::{MetadataServer, Request, Response};
use smartstore_trace::FileMetadata;
use std::path::Path;

/// Mutations the amplification store takes: at 108 B of WAL each and
/// four shards, every shard crosses the 1 MiB threshold three or four
/// times, so a shard image is rewritten about 13 times.
pub const AMP_MUTATIONS: usize = 150_000;
/// Mutations the recovery store takes before it is reopened: every
/// open loads the four initial snapshots and replays exactly this many
/// WAL frames (0.3 MiB per shard, below the compaction threshold).
pub const RECOVER_MUTATIONS: usize = 12_000;

const MUTATIONS_ONLY: Mix = Mix {
    point: 0,
    range: 0,
    topk: 0,
    write: 100,
};

/// The first `n` mutations the probe feeds under `seed` (the stream for
/// a larger `n` starts with the stream for a smaller one).
fn mutations(files: &[FileMetadata], n: usize, seed: u64) -> Stream {
    generate(files, MUTATIONS_ONLY, n, seed ^ 0x5107_a6e5_107a_6e51)
}

/// What a fixed history of mutations wrote.
pub struct Amplification {
    /// Bytes handed to `VfsFile::write_all_at` after the fleet was
    /// built ÷ Σ `Change::size_bytes()` of the acknowledged changes.
    pub write_amp: f64,
    pub write_bytes: u64,
    pub user_bytes: u64,
    pub writes: u64,
    pub fsyncs: u64,
}

/// Builds a fresh durable fleet under `dir`, applies the first `n`
/// probe mutations and syncs. Returns the drained fleet, the state it
/// must hold, and the storage traffic the mutations caused.
fn feed(
    files: &[FileMetadata],
    n: usize,
    seed: u64,
    dir: &Path,
) -> Result<(MetadataServer, Model, Amplification), String> {
    let _ = std::fs::remove_dir_all(dir);
    let vfs = CountingVfs::new();
    let mut server = MetadataServer::build(files.to_vec(), &server_config(dir, vfs.clone()))
        .map_err(|e| format!("probe fleet: {e}"))?;
    let built = vfs.counts();
    let stream = mutations(files, n, seed);
    let mut model = Model::new(files);
    let mut user_bytes = 0u64;
    for i in 0..n.min(stream.len()) {
        let Request::ApplyChange { change } =
            decode_request(stream.frame(i)).map_err(|e| format!("own frame {i}: {e}"))?
        else {
            return Err(format!("probe frame {i} holds no mutation"));
        };
        user_bytes += change.size_bytes() as u64;
        match server.apply(change.clone()) {
            Response::Applied(_) => model.apply(change),
            other => {
                return Err(format!(
                    "probe fleet refused mutation {i}: {}",
                    reply_label(&other)
                ))
            }
        }
    }
    server
        .sync()
        .map_err(|e| format!("probe fleet sync: {e}"))?;
    let wrote = vfs.counts() - built;
    let amp = Amplification {
        write_amp: wrote.write_bytes as f64 / user_bytes.max(1) as f64,
        write_bytes: wrote.write_bytes,
        user_bytes,
        writes: wrote.writes,
        fsyncs: wrote.fsyncs,
    };
    Ok((server, model, amp))
}

/// The amplification store: built, fed, checked against the model and
/// removed again.
pub fn amplification(
    files: &[FileMetadata],
    seed: u64,
    dir: &Path,
) -> Result<Amplification, String> {
    let (server, model, amp) = feed(files, AMP_MUTATIONS, seed, dir)?;
    let checked = check_state(&server, &model, "the amplification store");
    drop(server);
    let _ = std::fs::remove_dir_all(dir);
    checked.map(|()| amp)
}

/// The recovery store, left shut down under `dir`. Returns the state it
/// must reopen with.
pub fn recovery_store(files: &[FileMetadata], seed: u64, dir: &Path) -> Result<Model, String> {
    feed(files, RECOVER_MUTATIONS, seed, dir).map(|(_server, model, _amp)| model)
}
