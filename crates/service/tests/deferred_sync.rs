//! The durable fleet's deferred batch `fsync`: a mutation's WAL frame is
//! written before the acknowledgement, the `fsync` due every
//! `wal_sync_every` appends runs afterwards on the fleet's syncer
//! thread, and a shard's unsynced tail stays within
//! `2 × wal_sync_every` frames.
//!
//! Every test runs on the in-memory [`FaultVfs`], so `crash` decides
//! exactly what a power cut keeps. A [`FaultVfs`] plan fires at the Nth
//! I/O call, and the syncer thread makes calls of its own; no plan here
//! is armed while the syncer could race for it. Tests either stay below
//! `wal_sync_every` appends per shard since the last `sync()` — then no
//! job exists and the syncer is idle — or first park the only job
//! inside [`GateVfs`], whose `fsync` waits for the test to open the
//! gate, and arm the plan while it is parked.

#![allow(clippy::disallowed_methods)]

use smartstore::versioning::Change;
use smartstore_persist::{CrashTail, FaultKind, FaultPlan, FaultVfs, Vfs, VfsFile};
use smartstore_service::{MetadataServer, Request, Response, ServerConfig};
use smartstore_trace::{FileMetadata, GeneratorConfig, MetadataPopulation};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const BASE: &str = "/fleet";

/// Where the test and the syncer's parked `fsync` meet.
#[derive(Debug, Default)]
struct Gate {
    counts: Mutex<GateCounts>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct GateCounts {
    open: bool,
    /// `fsync`s that reached the gate.
    arrived: usize,
    /// `fsync`s that passed it and returned.
    done: usize,
}

impl Gate {
    fn closed() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn open(&self) {
        self.counts.lock().unwrap().open = true;
        self.changed.notify_all();
    }

    fn wait_until(&self, what: impl Fn(&GateCounts) -> bool) {
        let mut c = self.counts.lock().unwrap();
        while !what(&c) {
            c = self.changed.wait(c).unwrap();
        }
    }

    fn done(&self) -> usize {
        self.counts.lock().unwrap().done
    }
}

/// A [`FaultVfs`] whose files opened with `open_rw` — in these tests,
/// only the syncer's: the fleet creates its logs with `create` — park
/// every `fsync` at the gate until it opens.
#[derive(Debug)]
struct GateVfs {
    inner: FaultVfs,
    gate: Arc<Gate>,
}

#[derive(Debug)]
struct GatedFile {
    inner: Box<dyn VfsFile>,
    gate: Arc<Gate>,
}

impl VfsFile for GatedFile {
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all_at(offset, buf)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.gate.counts.lock().unwrap().arrived += 1;
        self.gate.changed.notify_all();
        self.gate.wait_until(|c| c.open);
        let synced = self.inner.sync();
        self.gate.counts.lock().unwrap().done += 1;
        self.gate.changed.notify_all();
        synced
    }
}

impl Vfs for GateVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.create(path)
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(GatedFile {
            inner: self.inner.open_rw(path)?,
            gate: Arc::clone(&self.gate),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
    fn exists(&self, path: &Path) -> io::Result<bool> {
        self.inner.exists(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.inner.list_dir(path)
    }
}

/// A two-shard durable fleet on `vfs` with a batch of `sync_every`.
fn fleet(vfs: Arc<dyn Vfs>, sync_every: usize) -> MetadataServer {
    let pop = MetadataPopulation::generate(GeneratorConfig {
        n_files: 1600,
        n_clusters: 24,
        seed: 46,
        ..GeneratorConfig::default()
    });
    let mut cfg = ServerConfig {
        n_shards: 2,
        units_per_shard: 8,
        seed: 46,
        store_dir: Some(BASE.into()),
        store_vfs: Some(vfs),
        ..ServerConfig::default()
    };
    cfg.cfg.persist.wal_sync_every = sync_every;
    MetadataServer::build(pop.files, &cfg).expect("durable fleet builds")
}

/// Modifications of the first `n` files held by `shard`; each routes
/// to that shard.
fn modifies(srv: &MetadataServer, shard: usize, n: usize) -> Vec<Change> {
    srv.shard(shard)
        .current_files()
        .into_iter()
        .take(n)
        .map(|mut f| {
            f.size = f.size.wrapping_mul(3).max(1);
            f.mtime += 1.0;
            Change::Modify(f)
        })
        .collect()
}

fn apply_all(srv: &mut MetadataServer, shard: usize, changes: Vec<Change>) {
    for change in changes {
        match srv.apply(change) {
            Response::Applied(a) => assert_eq!(a.shard, Some(shard)),
            other => panic!("mutation refused: {other:?}"),
        }
    }
}

fn files_of(srv: &MetadataServer, shard: usize) -> Vec<FileMetadata> {
    let mut files = srv.shard(shard).current_files();
    files.sort_by_key(|f| f.file_id);
    files
}

/// Crashes the disk under `srv` — unsynced bytes vanish — before `srv`
/// is dropped (so its stores cannot sync on the way out), and
/// cold-starts the fleet from what survived.
fn crash_and_reopen(srv: MetadataServer, vfs: &FaultVfs) -> MetadataServer {
    vfs.crash(CrashTail::DropUnsynced);
    drop(srv);
    reopen(vfs)
}

fn reopen(vfs: &FaultVfs) -> MetadataServer {
    MetadataServer::open_with(vfs.handle(), Path::new(BASE)).expect("fleet reopens")
}

/// Opens the gate from another thread a little later and records that
/// it did. A call that must wait for the parked job returns only after
/// `opened` is set, at any timing; the delay only gives a call that
/// wrongly does not wait the time to return first and be caught.
fn open_later(gate: &Arc<Gate>) -> (std::thread::JoinHandle<()>, Arc<AtomicBool>) {
    let opened = Arc::new(AtomicBool::new(false));
    let opener = {
        let (gate, opened) = (Arc::clone(gate), Arc::clone(&opened));
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            opened.store(true, Ordering::SeqCst);
            gate.open();
        })
    };
    (opener, opened)
}

fn one_shot_io_error(vfs: &FaultVfs) {
    vfs.set_plan(Some(FaultPlan {
        at: vfs.ops(),
        kind: FaultKind::IoError,
        sticky: false,
    }));
}

fn compacted(vfs: &FaultVfs, shard: usize) -> bool {
    let snap = Path::new(BASE).join(format!("shard-{shard:04}/snapshot-00000002.snap"));
    vfs.exists(&snap).unwrap()
}

/// After an `fsync` fails, the kernel may have dropped the dirty pages:
/// a later `fsync` could succeed while the frames are gone. So a failed
/// explicit sync poisons the store, and the next mutation heals it with
/// a full compaction, after which every acknowledged change survives a
/// crash.
#[test]
fn a_failed_explicit_sync_poisons_the_store_until_a_compaction_heals_it() {
    let vfs = FaultVfs::new();
    let mut srv = fleet(vfs.handle(), 64);
    let changes = modifies(&srv, 0, 11);
    apply_all(&mut srv, 0, changes[..10].to_vec());
    // Ten frames owed on shard 0, none on shard 1: the sync's first I/O
    // call is shard 0's fsync.
    one_shot_io_error(&vfs);
    assert!(srv.sync().is_err(), "the injected fsync failure surfaces");
    assert!(!compacted(&vfs, 0));
    apply_all(&mut srv, 0, changes[10..].to_vec());
    assert!(compacted(&vfs, 0), "the next mutation healed the store");
    let live = files_of(&srv, 0);
    // The healing snapshot holds the first ten; the eleventh is owed.
    srv.sync().expect("a healed store syncs");
    let srv = crash_and_reopen(srv, &vfs);
    assert_eq!(files_of(&srv, 0), live, "an acknowledged change was lost");
}

/// A failing shard does not stop the fleet's sync: every healthy
/// shard's tail is made durable, then the first error is returned.
#[test]
fn fleet_sync_reaches_every_shard_past_a_failing_one() {
    let vfs = FaultVfs::new();
    let mut srv = fleet(vfs.handle(), 64);
    let (on0, on1) = (modifies(&srv, 0, 5), modifies(&srv, 1, 5));
    apply_all(&mut srv, 0, on0);
    apply_all(&mut srv, 1, on1);
    let live = files_of(&srv, 1);
    one_shot_io_error(&vfs);
    assert!(srv.sync().is_err(), "shard 0's failure is reported");
    let srv = crash_and_reopen(srv, &vfs);
    assert_eq!(files_of(&srv, 1), live, "shard 1's tail was never synced");
}

/// The batch fsync fails on the syncer thread, after the mutations it
/// covers were acknowledged. The fleet's sync reports it, the shard's
/// next mutation heals the store with a compaction, and the
/// acknowledged changes whose fsync failed are durable through the
/// healing snapshot.
#[test]
fn a_failed_background_fsync_is_healed_by_the_next_mutation() {
    let vfs = FaultVfs::new();
    let gate = Gate::closed();
    let mut srv = fleet(
        Arc::new(GateVfs {
            inner: vfs.clone(),
            gate: Arc::clone(&gate),
        }),
        4,
    );
    let changes = modifies(&srv, 0, 5);
    apply_all(&mut srv, 0, changes[..4].to_vec());
    let covered = files_of(&srv, 0);
    // The fourth append handed its fsync to the syncer; park it, then
    // fail it.
    gate.wait_until(|c| c.arrived == 1);
    one_shot_io_error(&vfs);
    gate.open();
    assert!(srv.sync().is_err(), "the failed batch surfaces");
    assert!(!compacted(&vfs, 0));
    apply_all(&mut srv, 0, changes[4..].to_vec());
    assert!(compacted(&vfs, 0), "the next mutation healed the store");
    // The fifth change is owed (its frame is unsynced), the first four
    // are in the healing snapshot.
    let srv = crash_and_reopen(srv, &vfs);
    assert_eq!(files_of(&srv, 0), covered, "the failed batch was lost");
}

/// Dropping a fleet while the syncer runs a job waits for that job and
/// joins the thread; the job's frames are durable afterwards.
#[test]
fn dropping_the_fleet_finishes_the_job_in_flight_and_joins_the_syncer() {
    let vfs = FaultVfs::new();
    let gate = Gate::closed();
    let gated: Arc<dyn Vfs> = Arc::new(GateVfs {
        inner: vfs.clone(),
        gate: Arc::clone(&gate),
    });
    let mut srv = fleet(Arc::clone(&gated), 4);
    let changes = modifies(&srv, 0, 4);
    apply_all(&mut srv, 0, changes);
    let live = files_of(&srv, 0);
    gate.wait_until(|c| c.arrived == 1);
    let (opener, opened) = open_later(&gate);
    drop(srv);
    assert!(
        opened.load(Ordering::SeqCst),
        "drop returned while the syncer was still inside the fsync"
    );
    assert_eq!(gate.done(), 1, "the job ran to its end");
    assert_eq!(
        Arc::strong_count(&gated),
        1,
        "a job or the syncer outlived the fleet"
    );
    opener.join().unwrap();
    vfs.crash(CrashTail::DropUnsynced);
    assert_eq!(
        files_of(&reopen(&vfs), 0),
        live,
        "the job's frames were lost"
    );
}

/// While the syncer is stuck inside one shard's fsync, the fleet keeps
/// serving: a read, a mutation on the other shard, and further
/// mutations on the same shard until its tail reaches the bound of
/// `2 × wal_sync_every` frames — the next one waits for the job.
#[test]
fn a_stuck_fsync_holds_up_nothing_until_the_tail_bound() {
    let vfs = FaultVfs::new();
    let gate = Gate::closed();
    let mut srv = fleet(
        Arc::new(GateVfs {
            inner: vfs.clone(),
            gate: Arc::clone(&gate),
        }),
        4,
    );
    let on0 = modifies(&srv, 0, 9);
    apply_all(&mut srv, 0, on0[..4].to_vec());
    gate.wait_until(|c| c.arrived == 1);

    let name = srv.shard(0).current_files()[0].name.clone();
    match srv.serve_read(&Request::Point { name }) {
        Response::Query(q) => assert!(!q.file_ids.is_empty()),
        other => panic!("read refused: {other:?}"),
    }
    let on1 = modifies(&srv, 1, 1);
    apply_all(&mut srv, 1, on1);
    // Frames 5–8 on shard 0: the tail grows to 2 × 4 without waiting.
    apply_all(&mut srv, 0, on0[4..8].to_vec());
    assert_eq!(gate.done(), 0, "the job is still stuck");

    let (opener, opened) = open_later(&gate);
    apply_all(&mut srv, 0, on0[8..].to_vec());
    assert!(
        opened.load(Ordering::SeqCst),
        "the ninth append did not wait for the job in flight"
    );
    opener.join().unwrap();
    srv.sync().expect("sync");
    let (live0, live1) = (files_of(&srv, 0), files_of(&srv, 1));
    let srv = crash_and_reopen(srv, &vfs);
    assert_eq!((files_of(&srv, 0), files_of(&srv, 1)), (live0, live1));
}
