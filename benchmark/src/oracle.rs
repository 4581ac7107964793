//! What the right answers are, computed without the serving path.
//!
//! * [`Reference`] — an unsharded 60-unit `SmartStoreSystem` fed the
//!   same request stream through `query()` / `apply_change`. The
//!   repository's contract is that a sharded fleet answers exactly as
//!   the unsharded system does, independent of the wire format.
//! * [`Model`] — a plain map of live files, for the state a fleet must
//!   hold after a mutation stream.

use crate::fleet::{DEPLOYMENT_SEED, N_SHARDS, UNITS_PER_SHARD};
use crate::inputs::Digest;
use smartstore::versioning::Change;
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_service::{MetadataServer, Request, Response};
use smartstore_trace::FileMetadata;
use std::collections::BTreeMap;

pub struct Reference {
    sys: SmartStoreSystem,
}

impl Reference {
    pub fn build(files: Vec<FileMetadata>) -> Self {
        let sys = SmartStoreSystem::build(
            files,
            N_SHARDS * UNITS_PER_SHARD,
            SmartStoreConfig::default(),
            DEPLOYMENT_SEED,
        );
        Self { sys }
    }

    /// The ids (top-k: in rank order) the request must return; `None`
    /// for a mutation, which is applied instead.
    pub fn answer(&mut self, req: &Request) -> Option<Vec<u64>> {
        if let Request::ApplyChange { change } = req {
            self.sys.apply_change(change.clone());
            return None;
        }
        let engine = self.sys.query();
        match req {
            Request::Point { name } => Some(engine.point(name).file_ids),
            Request::Range { lo, hi, opts } => Some(engine.range(lo, hi, opts).file_ids),
            Request::TopK { point, opts } => Some(engine.topk(point, opts).file_ids),
            Request::ApplyChange { .. } | Request::Stats => None,
        }
    }
}

/// Compares one reply with the reference's answer.
pub fn check_reply(expected: Option<&[u64]>, reply: &Response) -> Result<(), String> {
    match (expected, reply) {
        (Some(ids), Response::Query(_) | Response::TopK(_)) => {
            let got = reply.file_ids().unwrap_or_default();
            if got == ids {
                Ok(())
            } else {
                Err(format!(
                    "expected {} ids {:?}…, got {} ids {:?}…",
                    ids.len(),
                    &ids[..ids.len().min(4)],
                    got.len(),
                    &got[..got.len().min(4)]
                ))
            }
        }
        (None, Response::Applied(_)) => Ok(()),
        (_, other) => Err(format!("unexpected reply {}", reply_label(other))),
    }
}

/// Variant name plus message of a failure reply, for error reports.
pub fn reply_label(r: &Response) -> String {
    match r {
        Response::Query(_) => "Query".into(),
        Response::TopK(_) => "TopK".into(),
        Response::Applied(_) => "Applied".into(),
        Response::Stats(_) => "Stats".into(),
        Response::Degraded(d) => format!("Degraded(missing shards {:?})", d.missing_shards),
        Response::Unavailable(m) => format!("Unavailable({m})"),
        Response::Overloaded(m) => format!("Overloaded({m})"),
        Response::Error(m) => format!("Error({m})"),
    }
}

/// The live file set under sequential application of a mutation
/// stream, with the service's rule that a delete or modify of an
/// unknown file is a no-op.
#[derive(Default)]
pub struct Model {
    live: BTreeMap<u64, FileMetadata>,
}

impl Model {
    pub fn new(files: &[FileMetadata]) -> Self {
        Self {
            live: files.iter().map(|f| (f.file_id, f.clone())).collect(),
        }
    }

    pub fn apply(&mut self, change: Change) {
        match change {
            Change::Insert(f) => {
                self.live.insert(f.file_id, f);
            }
            Change::Delete(id) => {
                self.live.remove(&id);
            }
            Change::Modify(f) => {
                if let Some(slot) = self.live.get_mut(&f.file_id) {
                    *slot = f;
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for f in self.live.values() {
            d.file(f);
        }
        d.value()
    }
}

/// Digest of a fleet's files in id order, and their count; comparable
/// with [`Model::digest`].
pub fn fleet_digest(server: &MetadataServer) -> (u64, usize) {
    let mut files: Vec<FileMetadata> = (0..server.n_shards())
        .flat_map(|i| server.shard(i).current_files())
        .collect();
    files.sort_by_key(|f| f.file_id);
    let mut d = Digest::default();
    for f in &files {
        d.file(f);
    }
    (d.value(), files.len())
}
