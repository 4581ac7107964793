//! The virtual filesystem every byte of persistence I/O goes through.
//!
//! SmartStore's decentralized design (§3 of the paper) assumes storage
//! units fail *independently* and the system keeps serving from the
//! survivors. That contract is only as strong as the persistence
//! layer's behavior under real failure: mid-write crashes, short
//! writes, `fsync`s that lie, read-side bit rot, and full disks. To
//! make those behaviors *testable*, nothing in this crate calls
//! `std::fs` directly — [`snapshot`](crate::snapshot),
//! [`wal`](crate::wal) and [`store`](crate::store) all speak [`Vfs`]:
//!
//! * [`RealVfs`] — the passthrough to the operating system, used by
//!   every production entry point;
//! * [`FaultVfs`] — a deterministic in-memory filesystem that tracks
//!   *durable* vs. *live* bytes per file, injects a scripted fault at
//!   the Nth I/O call ([`FaultPlan`]), and simulates a crash
//!   ([`FaultVfs::crash`]) by discarding everything that was never
//!   `fsync`ed (optionally keeping a torn prefix of the unsynced tail,
//!   the way a half-flushed page does).
//!
//! The torture harness (`tests/torture.rs`) enumerates every I/O call
//! a change stream makes, injects each fault kind at each call, crashes
//! and reopens — asserting the recovery invariant: `open` never panics
//! and yields either a state bit-identical to a prefix of the
//! acknowledged change stream or a typed [`crate::PersistError`].

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A writable file handle dispensed by a [`Vfs`].
///
/// The interface is deliberately minimal — positioned writes, length
/// truncation, `fsync` — because that is the entire write surface the
/// persistence layer needs, and every method is a fault-injection
/// point.
pub trait VfsFile: Send + Sync + fmt::Debug {
    /// Writes `buf` at absolute `offset`, extending the file if needed.
    /// All-or-nothing from the caller's view: an error may leave a
    /// *prefix* of `buf` on disk (a torn write), never other bytes.
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()>;

    /// Truncates (or extends with zeros) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Forces written data to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem surface of the persistence layer. `Arc<dyn Vfs>`
/// handles are cheap to clone and shared between a store and its WAL.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for writing without truncation.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically renames `from` to `to` (replacing `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Makes directory-level operations (create/rename/remove) durable.
    /// Best-effort on filesystems that reject directory syncs.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Length of a file in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Whether a file exists.
    fn exists(&self, path: &Path) -> io::Result<bool>;
    /// The file names (not full paths) inside a directory.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>>;
}

// ---------------------------------------------------------------------
// RealVfs
// ---------------------------------------------------------------------

/// The production [`Vfs`]: a direct passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

impl RealVfs {
    /// A shared handle to the real filesystem.
    pub fn handle() -> Arc<dyn Vfs> {
        Arc::new(RealVfs)
    }
}

#[derive(Debug)]
struct RealFile(std::fs::File);

impl VfsFile for RealFile {
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.0.seek(io::SeekFrom::Start(offset))?;
        self.0.write_all(buf)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(
            std::fs::OpenOptions::new().write(true).open(path)?,
        )))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if let Ok(d) = std::fs::File::open(path) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn exists(&self, path: &Path) -> io::Result<bool> {
        Ok(path.exists())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(path)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }
}

// ---------------------------------------------------------------------
// FaultVfs
// ---------------------------------------------------------------------

/// What kind of failure [`FaultVfs`] injects when its trigger fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The next I/O call (of any kind) returns a plain I/O error.
    IoError,
    /// The next *write* writes only half its bytes, then errors — a
    /// torn write.
    ShortWrite,
    /// The next *write* fails with `StorageFull` (ENOSPC) without
    /// writing anything.
    Enospc,
    /// The next *fsync* reports success but makes nothing durable — the
    /// lying-fsync failure mode; a later crash drops the "synced" data.
    LyingFsync,
    /// The next *read* returns the file's bytes with one bit flipped
    /// (transient, read-side corruption — the durable bytes are intact).
    BitFlipRead,
}

impl FaultKind {
    /// Every kind, for enumeration harnesses.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::IoError,
        FaultKind::ShortWrite,
        FaultKind::Enospc,
        FaultKind::LyingFsync,
        FaultKind::BitFlipRead,
    ];

    /// Whether an operation of class `op` can host this fault.
    fn applies_to(self, op: OpClass) -> bool {
        match self {
            FaultKind::IoError => true,
            FaultKind::ShortWrite | FaultKind::Enospc => op == OpClass::Write,
            FaultKind::LyingFsync => op == OpClass::Sync,
            FaultKind::BitFlipRead => op == OpClass::Read,
        }
    }
}

/// A scripted fault: arm at I/O call number `at` (0-based, counting
/// every [`Vfs`]/[`VfsFile`] method call), fire at the first *eligible*
/// call from then on. `sticky` faults keep firing on every later
/// eligible call — a dead disk rather than a transient glitch.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Arm at this I/O call index.
    pub at: u64,
    /// The failure to inject.
    pub kind: FaultKind,
    /// Keep failing every eligible call after the first.
    pub sticky: bool,
}

/// How a simulated crash treats bytes written but never `fsync`ed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashTail {
    /// Unsynced bytes vanish entirely (the conservative disk).
    DropUnsynced,
    /// Half of each file's unsynced tail survives — a torn page flush,
    /// the case WAL-tail recovery exists for.
    KeepHalf,
    /// All unsynced bytes survive (the lucky crash).
    KeepAll,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    Read,
    Write,
    Sync,
    Meta,
}

/// One in-memory file: the bytes the process sees (`live`) and the
/// bytes a crash preserves (`durable`).
#[derive(Clone, Debug, Default)]
struct MemFile {
    live: Vec<u8>,
    durable: Vec<u8>,
}

#[derive(Debug, Default)]
struct MemFs {
    files: HashMap<PathBuf, MemFile>,
    /// I/O calls observed so far.
    ops: u64,
    plan: Option<FaultPlan>,
    /// Whether the armed plan has fired at least once.
    fired: bool,
}

impl MemFs {
    /// Counts one call of class `op`; returns the fault to inject, if
    /// the plan fires here.
    fn tick(&mut self, op: OpClass) -> Option<FaultKind> {
        let n = self.ops;
        self.ops += 1;
        let plan = self.plan?;
        if n < plan.at || !plan.kind.applies_to(op) {
            return None;
        }
        if self.fired && !plan.sticky {
            return None;
        }
        self.fired = true;
        Some(plan.kind)
    }
}

/// The deterministic fault-injecting in-memory [`Vfs`].
///
/// Shared-state semantics: cloning the `Arc` handle shares the
/// filesystem; [`FaultVfs::fork`] deep-copies it (for enumerating many
/// faults against one baseline image).
#[derive(Clone, Debug)]
pub struct FaultVfs {
    inner: Arc<Mutex<MemFs>>,
}

impl Default for FaultVfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultVfs {
    /// An empty in-memory filesystem with no fault armed.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(MemFs::default())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemFs> {
        // A poisoned lock means a *test* thread panicked mid-operation;
        // the in-memory image is still the most useful artifact.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Arms (or clears) the fault plan.
    pub fn set_plan(&self, plan: Option<FaultPlan>) {
        let mut fs = self.lock();
        fs.plan = plan;
        fs.fired = false;
    }

    /// I/O calls observed so far.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Resets the I/O call counter (so a fresh enumeration pass can
    /// target call indices relative to *its* start).
    pub fn reset_ops(&self) {
        let mut fs = self.lock();
        fs.ops = 0;
        fs.fired = false;
    }

    /// Simulates a machine crash: every file's live bytes revert to the
    /// durable bytes, plus whatever `tail` says survives of the
    /// unsynced suffix. Clears the fault plan — the next boot sees a
    /// healthy (if diminished) disk.
    pub fn crash(&self, tail: CrashTail) {
        let mut fs = self.lock();
        fs.plan = None;
        fs.fired = false;
        // lint:allow(D002) -- each file is truncated independently; order-insensitive
        for f in fs.files.values_mut() {
            let durable = f.durable.len().min(f.live.len());
            let keep = match tail {
                CrashTail::DropUnsynced => durable,
                CrashTail::KeepHalf => durable + (f.live.len() - durable) / 2,
                CrashTail::KeepAll => f.live.len(),
            };
            f.live.truncate(keep);
            // What the crash preserved is what the next boot reads *and*
            // what the next crash would preserve again.
            f.durable = f.live.clone();
        }
    }

    /// Deep copy of the current filesystem image (counters reset, no
    /// plan armed).
    pub fn fork(&self) -> FaultVfs {
        let fs = self.lock();
        FaultVfs {
            inner: Arc::new(Mutex::new(MemFs {
                files: fs.files.clone(),
                ops: 0,
                plan: None,
                fired: false,
            })),
        }
    }

    /// Flips one bit of the *durable* bytes of `path` — persistent
    /// media corruption, unlike the transient [`FaultKind::BitFlipRead`].
    pub fn corrupt_durable(&self, path: &Path, byte: usize, mask: u8) -> bool {
        let mut fs = self.lock();
        match fs.files.get_mut(path) {
            Some(f) if byte < f.durable.len() => {
                f.durable[byte] ^= mask;
                f.live.clone_from(&f.durable);
                true
            }
            _ => false,
        }
    }

    /// A `dyn`-typed handle to this filesystem.
    pub fn handle(&self) -> Arc<dyn Vfs> {
        Arc::new(self.clone())
    }

    fn injected(kind: FaultKind) -> io::Error {
        match kind {
            FaultKind::Enospc => io::Error::new(
                io::ErrorKind::StorageFull,
                "injected fault: no space left on device",
            ),
            k => io::Error::other(format!("injected fault: {k:?}")),
        }
    }
}

#[derive(Debug)]
struct FaultFile {
    vfs: FaultVfs,
    path: PathBuf,
}

impl FaultFile {
    fn with_file<T>(
        &self,
        op: OpClass,
        f: impl FnOnce(&mut MemFile, Option<FaultKind>) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut fs = self.vfs.lock();
        let fault = fs.tick(op);
        let file = fs.files.get_mut(&self.path).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("file removed while open: {}", self.path.display()),
            )
        })?;
        f(file, fault)
    }
}

impl VfsFile for FaultFile {
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.with_file(OpClass::Write, |file, fault| {
            let offset = offset as usize;
            let write = |file: &mut MemFile, data: &[u8]| {
                if file.live.len() < offset {
                    file.live.resize(offset, 0);
                }
                let end = offset + data.len();
                if file.live.len() < end {
                    file.live.resize(end, 0);
                }
                file.live[offset..end].copy_from_slice(data);
            };
            match fault {
                None => {
                    write(file, buf);
                    Ok(())
                }
                Some(FaultKind::ShortWrite) => {
                    // Half the bytes land, then the device gives up.
                    write(file, &buf[..buf.len() / 2]);
                    Err(FaultVfs::injected(FaultKind::ShortWrite))
                }
                Some(k) => Err(FaultVfs::injected(k)),
            }
        })
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.with_file(OpClass::Write, |file, fault| {
            if let Some(k) = fault {
                return Err(FaultVfs::injected(k));
            }
            file.live.resize(len as usize, 0);
            Ok(())
        })
    }

    fn sync(&mut self) -> io::Result<()> {
        self.with_file(OpClass::Sync, |file, fault| {
            match fault {
                // The lie: report success, persist nothing.
                Some(FaultKind::LyingFsync) => Ok(()),
                Some(k) => Err(FaultVfs::injected(k)),
                None => {
                    file.durable.clone_from(&file.live);
                    Ok(())
                }
            }
        })
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut fs = self.lock();
        let fault = fs.tick(OpClass::Read);
        let file = fs
            .files
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.display().to_string()))?;
        let mut bytes = file.live.clone();
        match fault {
            Some(FaultKind::BitFlipRead) => {
                if !bytes.is_empty() {
                    let at = bytes.len() / 2;
                    bytes[at] ^= 0x04;
                }
                Ok(bytes)
            }
            Some(k) => Err(FaultVfs::injected(k)),
            None => Ok(bytes),
        }
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut fs = self.lock();
        if let Some(k) = fs.tick(OpClass::Write) {
            return Err(FaultVfs::injected(k));
        }
        let entry = fs.files.entry(path.to_path_buf()).or_default();
        entry.live.clear();
        // Creation (like truncation) is a metadata operation the crash
        // model treats as immediately durable; the *content* is not.
        entry.durable.clear();
        Ok(Box::new(FaultFile {
            vfs: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut fs = self.lock();
        if let Some(k) = fs.tick(OpClass::Meta) {
            return Err(FaultVfs::injected(k));
        }
        if !fs.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                path.display().to_string(),
            ));
        }
        Ok(Box::new(FaultFile {
            vfs: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        if let Some(k) = fs.tick(OpClass::Write) {
            return Err(FaultVfs::injected(k));
        }
        match fs.files.remove(from) {
            Some(f) => {
                fs.files.insert(to.to_path_buf(), f);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                from.display().to_string(),
            )),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        if let Some(k) = fs.tick(OpClass::Write) {
            return Err(FaultVfs::injected(k));
        }
        match fs.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                path.display().to_string(),
            )),
        }
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        if let Some(k) = fs.tick(OpClass::Meta) {
            return Err(FaultVfs::injected(k));
        }
        Ok(())
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        match fs.tick(OpClass::Sync) {
            Some(FaultKind::LyingFsync) | None => Ok(()),
            Some(k) => Err(FaultVfs::injected(k)),
        }
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let mut fs = self.lock();
        if let Some(k) = fs.tick(OpClass::Meta) {
            return Err(FaultVfs::injected(k));
        }
        fs.files
            .get(path)
            .map(|f| f.live.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.display().to_string()))
    }

    fn exists(&self, path: &Path) -> io::Result<bool> {
        let mut fs = self.lock();
        if let Some(k) = fs.tick(OpClass::Meta) {
            return Err(FaultVfs::injected(k));
        }
        // Directories are implicit in the virtual namespace: one exists
        // whenever a file lives at or below it (a path can never be
        // both a file and a directory, so the prefix test is safe).
        Ok(fs.files.contains_key(path)
                // lint:allow(D002) -- existence test; any order gives the same bool
                || fs.files.keys().any(|k| k.starts_with(path) && k != path))
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut fs = self.lock();
        if let Some(k) = fs.tick(OpClass::Read) {
            return Err(FaultVfs::injected(k));
        }
        let mut names: Vec<String> = fs
            .files // lint:allow(D002) -- collected then sorted below
            .keys()
            .filter(|p| p.parent() == Some(path))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn unsynced_bytes_vanish_on_crash() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("/d/a")).unwrap();
        f.write_all_at(0, b"durable").unwrap();
        f.sync().unwrap();
        f.write_all_at(7, b" lost").unwrap();
        drop(f);
        vfs.crash(CrashTail::DropUnsynced);
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"durable");
    }

    #[test]
    fn keep_half_tears_the_unsynced_tail() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("/d/a")).unwrap();
        f.write_all_at(0, b"ok").unwrap();
        f.sync().unwrap();
        f.write_all_at(2, b"12345678").unwrap();
        drop(f);
        vfs.crash(CrashTail::KeepHalf);
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"ok1234");
    }

    #[test]
    fn lying_fsync_drops_data_at_crash() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("/d/a")).unwrap();
        f.write_all_at(0, b"hello").unwrap();
        vfs.set_plan(Some(FaultPlan {
            at: 0,
            kind: FaultKind::LyingFsync,
            sticky: false,
        }));
        f.sync().unwrap(); // reports success...
        drop(f);
        vfs.crash(CrashTail::DropUnsynced);
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"", "...but lied");
    }

    #[test]
    fn short_write_leaves_half_the_bytes() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("/d/a")).unwrap();
        vfs.set_plan(Some(FaultPlan {
            at: 0,
            kind: FaultKind::ShortWrite,
            sticky: false,
        }));
        assert!(f.write_all_at(0, b"abcdefgh").is_err());
        drop(f);
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"abcd");
    }

    #[test]
    fn enospc_only_fires_on_writes() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("/d/a")).unwrap();
        f.write_all_at(0, b"x").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.set_plan(Some(FaultPlan {
            at: 0,
            kind: FaultKind::Enospc,
            sticky: false,
        }));
        // Reads sail through an armed ENOSPC...
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"x");
        // ...the next write eats it.
        let mut f = vfs.open_rw(&p("/d/a")).unwrap();
        let err = f.write_all_at(1, b"y").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        f.write_all_at(1, b"y").unwrap(); // one-shot: cleared after firing
    }

    #[test]
    fn bit_flip_read_is_transient() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("/d/a")).unwrap();
        f.write_all_at(0, &[0u8; 8]).unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.set_plan(Some(FaultPlan {
            at: 0,
            kind: FaultKind::BitFlipRead,
            sticky: false,
        }));
        let corrupted = vfs.read(&p("/d/a")).unwrap();
        assert_ne!(corrupted, vec![0u8; 8]);
        // The durable bytes were never touched.
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn sticky_fault_keeps_failing() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("/d/a")).unwrap();
        vfs.set_plan(Some(FaultPlan {
            at: 0,
            kind: FaultKind::IoError,
            sticky: true,
        }));
        assert!(f.write_all_at(0, b"a").is_err());
        assert!(f.write_all_at(0, b"a").is_err());
        assert!(vfs.read(&p("/d/a")).is_err());
    }

    #[test]
    fn fork_isolates_the_image() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("/d/a")).unwrap();
        f.write_all_at(0, b"base").unwrap();
        f.sync().unwrap();
        drop(f);
        let fork = vfs.fork();
        let mut g = fork.open_rw(&p("/d/a")).unwrap();
        g.write_all_at(0, b"FORK").unwrap();
        drop(g);
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"base");
        assert_eq!(fork.read(&p("/d/a")).unwrap(), b"FORK");
    }

    #[test]
    fn rename_moves_durable_content() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("/d/a.tmp")).unwrap();
        f.write_all_at(0, b"img").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&p("/d/a.tmp"), &p("/d/a")).unwrap();
        assert!(!vfs.exists(&p("/d/a.tmp")).unwrap());
        vfs.crash(CrashTail::DropUnsynced);
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"img");
    }
}
