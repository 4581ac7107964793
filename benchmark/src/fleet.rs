//! The deployment under test, the same for every workload: 4 shards ×
//! 15 storage units (the paper's 60 units) behind a `NetServer` on a
//! Unix socket, every shard durable on the real filesystem through a
//! counting `Vfs`.

use crate::clock;
use smartstore::SmartStoreConfig;
use smartstore_net::{NetAddr, NetServer, NetServerConfig, NetServerHandle, SocketTransport};
use smartstore_persist::{RealVfs, Vfs, VfsFile};
use smartstore_service::{MetadataServer, ServerConfig};
use smartstore_trace::FileMetadata;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Seed of the population and of the fleet build. A constant, not
/// `--seed`: the layout that LSI grouping gives a population decides
/// how many units a query touches, and latency moved by ±20 % between
/// populations — more than any bound. `--seed` varies the requests;
/// the data set and its layout are part of the deployment under test.
pub const DEPLOYMENT_SEED: u64 = 11;
pub const N_SHARDS: usize = 4;
pub const UNITS_PER_SHARD: usize = 15;

/// `persist.wal_compact_bytes` per shard, for every fleet. A stated
/// deviation from the 16 MiB default: at 16 MiB no shard would compact
/// within a run; at 1 MiB a shard compacts about every 9 700 mutations
/// it takes (108 B of WAL each).
pub const WAL_COMPACT_BYTES: u64 = 1 << 20;

/// `SmartStoreConfig::default()` (fast Bloom family, versioning ratio
/// 16, `wal_sync_every` 64, `max_delta_chain` 8) with the benchmark's
/// compaction threshold.
pub fn store_config() -> SmartStoreConfig {
    let mut cfg = SmartStoreConfig::default();
    cfg.persist.wal_compact_bytes = WAL_COMPACT_BYTES;
    cfg
}

pub fn server_config(dir: &Path, vfs: Arc<CountingVfs>) -> ServerConfig {
    ServerConfig {
        n_shards: N_SHARDS,
        units_per_shard: UNITS_PER_SHARD,
        cfg: store_config(),
        seed: DEPLOYMENT_SEED,
        store_dir: Some(dir.to_path_buf()),
        store_vfs: Some(vfs),
    }
}

/// Storage traffic as the program hands it to the filesystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VfsCounts {
    pub writes: u64,
    pub write_bytes: u64,
    pub fsyncs: u64,
    /// Time inside `write_all_at` / `sync`; only taken while timing is
    /// switched on (the traced run), 0 otherwise.
    pub write_ns: u64,
    pub fsync_ns: u64,
}

impl std::ops::Sub for VfsCounts {
    type Output = VfsCounts;

    fn sub(self, earlier: VfsCounts) -> VfsCounts {
        VfsCounts {
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            write_ns: self.write_ns - earlier.write_ns,
            fsync_ns: self.fsync_ns - earlier.fsync_ns,
        }
    }
}

impl std::ops::AddAssign for VfsCounts {
    fn add_assign(&mut self, more: VfsCounts) {
        self.writes += more.writes;
        self.write_bytes += more.write_bytes;
        self.fsyncs += more.fsyncs;
        self.write_ns += more.write_ns;
        self.fsync_ns += more.fsync_ns;
    }
}

#[derive(Debug, Default)]
struct Counters {
    timed: AtomicBool,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    fsyncs: AtomicU64,
    write_ns: AtomicU64,
    fsync_ns: AtomicU64,
}

/// `RealVfs` with every write and fsync counted. Injected through
/// `ServerConfig::store_vfs`, so the counts are taken where the program
/// itself calls the filesystem.
#[derive(Debug)]
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counters: Arc<Counters>,
}

impl CountingVfs {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: RealVfs::handle(),
            counters: Arc::default(),
        })
    }

    /// Switches the timing of writes and fsyncs on or off.
    pub fn set_timed(&self, timed: bool) {
        self.counters.timed.store(timed, Ordering::Relaxed);
    }

    pub fn counts(&self) -> VfsCounts {
        let c = &self.counters;
        VfsCounts {
            writes: c.writes.load(Ordering::Relaxed),
            write_bytes: c.write_bytes.load(Ordering::Relaxed),
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            write_ns: c.write_ns.load(Ordering::Relaxed),
            fsync_ns: c.fsync_ns.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<Counters>,
}

impl VfsFile for CountingFile {
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let c = &self.counters;
        c.writes.fetch_add(1, Ordering::Relaxed);
        c.write_bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        if !c.timed.load(Ordering::Relaxed) {
            return self.inner.write_all_at(offset, buf);
        }
        let t = clock::now();
        let res = self.inner.write_all_at(offset, buf);
        c.write_ns.fetch_add(clock::ns_since(t), Ordering::Relaxed);
        res
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        let c = &self.counters;
        c.fsyncs.fetch_add(1, Ordering::Relaxed);
        if !c.timed.load(Ordering::Relaxed) {
            return self.inner.sync();
        }
        let t = clock::now();
        let res = self.inner.sync();
        c.fsync_ns.fetch_add(clock::ns_since(t), Ordering::Relaxed);
        res
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.create(path)?,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.open_rw(path)?,
            counters: Arc::clone(&self.counters),
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

/// A served fleet: the running front end, where it listens, where its
/// shards store, and the storage counters.
pub struct Fleet {
    pub handle: NetServerHandle,
    pub addr: NetAddr,
    pub store_dir: PathBuf,
    pub vfs: Arc<CountingVfs>,
    /// Wall time of `MetadataServer::build`, initial snapshots included.
    pub build_s: f64,
}

impl Fleet {
    /// Builds the fleet over `files` under `dir` (created empty) and
    /// serves it on `<dir>/sock`.
    pub fn launch(files: Vec<FileMetadata>, dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let store_dir = dir.join("store");
        let vfs = CountingVfs::new();
        let t = clock::now();
        let server = MetadataServer::build(files, &server_config(&store_dir, vfs.clone()))
            .map_err(|e| format!("fleet build: {e}"))?;
        let build_s = clock::s_since(t);
        let sock = dir.join("sock");
        let handle = NetServer::spawn(
            server,
            NetServerConfig {
                tcp: false,
                uds_path: Some(sock.clone()),
                ..NetServerConfig::default()
            },
        )
        .map_err(|e| format!("spawn on {}: {e}", sock.display()))?;
        Ok(Self {
            handle,
            addr: NetAddr::Uds(sock),
            store_dir,
            vfs,
            build_s,
        })
    }

    pub fn connect(&self) -> Result<SocketTransport, String> {
        SocketTransport::connect(self.addr.clone())
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Graceful drain: every acknowledged mutation is applied and the
    /// WALs are flushed; hands the server back.
    pub fn shutdown(self) -> Result<MetadataServer, String> {
        self.handle
            .shutdown()
            .map(|(server, _stats)| server)
            .map_err(|e| format!("shutdown: {e}"))
    }
}
