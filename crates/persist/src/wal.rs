//! The append-only write-ahead log of metadata changes.
//!
//! A WAL file is the 8-byte magic, one checksummed *header record*, and
//! then checksummed frames (the record framing of [`crate::codec`]).
//! The header payload is
//!
//! ```text
//! [version: u16][prev_frames: u64]
//! ```
//!
//! `prev_frames` is the number of frames the *predecessor* segment held
//! when this one was created (0 for the first segment of a chain). It
//! exists for one failure mode: an `fsync` that lies. If the disk
//! acknowledges a sync of segment *g* but never persists it, a crash
//! can leave *g* truncated — cleanly, at a frame boundary — while
//! segment *g+1* holds later frames. Replaying both would produce a
//! state matching *no* prefix of the change stream. The header lets
//! recovery notice that *g* replayed fewer frames than *g+1* expected,
//! stop at the gap, and quarantine the successor.
//!
//! Each frame's payload is
//!
//! ```text
//! [seq: u64][group: u64][Change]
//! ```
//!
//! `seq` is contiguous from 0 within one log generation and `group`
//! tags the first-level semantic group the change lands in (§4.4's
//! version-per-group aggregation carried over to disk).
//!
//! Durability follows the group-commit pattern: frames are buffered and
//! the file is `fsync`ed every `sync_every` appends (1 = sync each
//! change). A crash can therefore tear the tail of the log — replay
//! tolerates exactly that: it scans until the first bad frame (torn
//! header, truncated payload, checksum mismatch, or sequence gap),
//! reports everything before it, and recovery salvages the verified
//! prefix, quarantining the bad tail to a `.quarantine` side file
//! before appending resumes.
//!
//! All I/O goes through [`crate::vfs::Vfs`] so the torture harness can
//! inject faults at any call.

use crate::codec::{self, Dec, Enc, FrameError};
use crate::error::{PersistError, Result};
use crate::vfs::{Vfs, VfsFile};
use smartstore::tree::NodeId;
use smartstore::versioning::Change;
use std::path::{Path, PathBuf};

/// Magic prefix of WAL files.
pub const WAL_MAGIC: &[u8; 8] = b"SSWAL\x00\x00\x00";

/// Current WAL format version (v2 added the header record).
pub const WAL_VERSION: u16 = 2;

/// Byte length of the header record's payload: `[version u16][prev_frames u64]`.
const HEADER_PAYLOAD_LEN: usize = 2 + 8;

/// Bytes of magic plus header record — the length of a freshly created,
/// empty log.
pub fn header_len() -> u64 {
    // Record framing adds [len u32][crc u32].
    (WAL_MAGIC.len() + 8 + HEADER_PAYLOAD_LEN) as u64
}

fn header_bytes(prev_frames: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u16(WAL_VERSION);
    e.u64(prev_frames);
    let payload = e.into_bytes();
    let mut out = Vec::with_capacity(header_len() as usize);
    out.extend_from_slice(WAL_MAGIC);
    codec::put_record(&mut out, &payload);
    out
}

/// One decoded log entry.
#[derive(Clone, Debug, PartialEq)]
pub struct WalFrame {
    /// Position in the log (contiguous from 0 per generation).
    pub seq: u64,
    /// First-level group tag.
    pub group: NodeId,
    /// The logged change.
    pub change: Change,
}

/// Outcome of scanning a log.
#[derive(Clone, Debug)]
pub struct WalReplay {
    /// Frames that verified, in log order.
    pub frames: Vec<WalFrame>,
    /// Bytes of the verified prefix (magic + header + good frames); the
    /// file is valid up to exactly this offset.
    pub good_bytes: u64,
    /// Present when the scan stopped before end-of-file: the offset and
    /// reason of the first bad frame. `None` for a clean log.
    pub torn: Option<(u64, String)>,
    /// Frame count of the predecessor segment, from the header.
    pub prev_frames: u64,
}

/// What a WAL file looks like before committing to a full replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalProbe {
    /// Magic and header verified.
    Valid {
        /// The predecessor segment's frame count, from the header.
        prev_frames: u64,
    },
    /// Missing, empty, or truncated before the header record completed.
    /// `create` syncs magic + header before acknowledging anything, so
    /// no frame of such a file was ever acknowledged — it is a crash
    /// artifact of creation itself and safe to recreate.
    CreationArtifact,
    /// Bytes that are neither a valid WAL nor a creation prefix —
    /// corruption, not truncation.
    Garbage,
}

fn classify(bytes: &[u8]) -> WalProbe {
    let m = WAL_MAGIC.len();
    if bytes.len() < m {
        return if WAL_MAGIC.starts_with(bytes) {
            WalProbe::CreationArtifact
        } else {
            WalProbe::Garbage
        };
    }
    if &bytes[..m] != WAL_MAGIC {
        return WalProbe::Garbage;
    }
    // The header record has a fixed-size payload, so truncation and
    // corruption are distinguishable: too few bytes for the framing or
    // payload is a torn creation; wrong length or checksum is damage.
    let rest = &bytes[m..];
    if rest.len() < 8 {
        return WalProbe::CreationArtifact;
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    if len != HEADER_PAYLOAD_LEN {
        return WalProbe::Garbage;
    }
    if rest.len() - 8 < len {
        return WalProbe::CreationArtifact;
    }
    match codec::get_record(bytes, m) {
        Ok((payload, _)) => {
            let mut d = Dec::new(payload);
            match (|| -> codec::DecResult<(u16, u64)> {
                let v = d.u16()?;
                let p = d.u64()?;
                d.finish()?;
                Ok((v, p))
            })() {
                Ok((v, prev_frames)) if v <= WAL_VERSION => WalProbe::Valid { prev_frames },
                _ => WalProbe::Garbage,
            }
        }
        Err(_) => WalProbe::Garbage,
    }
}

/// Classifies the file at `path` without scanning its frames. A missing
/// file probes as [`WalProbe::CreationArtifact`].
pub fn probe(vfs: &dyn Vfs, path: &Path) -> Result<WalProbe> {
    match vfs.read(path) {
        Ok(bytes) => Ok(classify(&bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(WalProbe::CreationArtifact),
        Err(e) => Err(e.into()),
    }
}

/// Scans a WAL file, tolerating a torn tail.
///
/// Only I/O failures and a bad *header* are hard errors; any bad frame
/// simply ends the scan with `torn` set.
pub fn replay(vfs: &dyn Vfs, path: &Path) -> Result<WalReplay> {
    let bytes = vfs.read(path)?;
    let m = WAL_MAGIC.len();
    if bytes.len() < m || &bytes[..m] != WAL_MAGIC {
        return Err(PersistError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            reason: "bad WAL magic".into(),
        });
    }
    let (header, mut pos) = match codec::get_record(&bytes, m) {
        Ok(ok) => ok,
        Err(FrameError::Eof) => {
            return Err(PersistError::Corrupt {
                path: path.to_path_buf(),
                offset: m as u64,
                reason: "missing WAL header record".into(),
            })
        }
        Err(FrameError::Torn { offset, reason }) => {
            return Err(PersistError::Corrupt {
                path: path.to_path_buf(),
                offset: offset as u64,
                reason: format!("bad WAL header record: {reason}"),
            })
        }
    };
    let mut hd = Dec::new(header);
    let (version, prev_frames) = (|| -> codec::DecResult<(u16, u64)> {
        let v = hd.u16()?;
        let p = hd.u64()?;
        hd.finish()?;
        Ok((v, p))
    })()
    .map_err(|e| PersistError::Corrupt {
        path: path.to_path_buf(),
        offset: m as u64,
        reason: format!("bad WAL header payload: {}", e.reason),
    })?;
    if version > WAL_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let mut frames = Vec::new();
    let mut torn = None;
    loop {
        match codec::get_record(&bytes, pos) {
            Err(FrameError::Eof) => break,
            Err(FrameError::Torn { offset, reason }) => {
                torn = Some((offset as u64, reason));
                break;
            }
            Ok((payload, next)) => {
                let mut d = Dec::new(payload);
                let parsed = (|| -> codec::DecResult<WalFrame> {
                    let seq = d.u64()?;
                    let group = d.usize()?;
                    let change = codec::get_change(&mut d)?;
                    d.finish()?;
                    Ok(WalFrame { seq, group, change })
                })();
                match parsed {
                    Ok(frame) => {
                        if frame.seq != frames.len() as u64 {
                            torn = Some((
                                pos as u64,
                                format!(
                                    "sequence gap: frame {} at log position {}",
                                    frame.seq,
                                    frames.len()
                                ),
                            ));
                            break;
                        }
                        frames.push(frame);
                        pos = next;
                    }
                    Err(e) => {
                        torn = Some((pos as u64, format!("bad frame payload: {}", e.reason)));
                        break;
                    }
                }
            }
        }
    }
    Ok(WalReplay {
        frames,
        good_bytes: pos as u64,
        torn,
        prev_frames,
    })
}

/// The side file a log's corrupt tail is preserved in. The name keeps
/// the full log file name plus a `.quarantine` suffix, so it falls
/// outside the `.log` namespace the orphan sweep manages.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".quarantine");
    path.with_file_name(name)
}

/// Truncates `path` to the verified prefix reported by `replay` —
/// the recovery step that drops a torn tail.
pub fn truncate_to_good(vfs: &dyn Vfs, path: &Path, replay: &WalReplay) -> Result<()> {
    let mut f = vfs.open_rw(path)?;
    f.set_len(replay.good_bytes)?;
    f.sync()?;
    Ok(())
}

/// Salvages the verified prefix of a torn log: copies everything past
/// `replay.good_bytes` into the [`quarantine_path`] side file, then
/// truncates the log. Returns the number of bytes quarantined (0 when
/// the log was already clean).
pub fn quarantine_tail(vfs: &dyn Vfs, path: &Path, replay: &WalReplay) -> Result<u64> {
    let bytes = vfs.read(path)?;
    let good = (replay.good_bytes as usize).min(bytes.len());
    let tail = &bytes[good..];
    if tail.is_empty() {
        return Ok(0);
    }
    let side = quarantine_path(path);
    let mut f = vfs.create(&side)?;
    f.write_all_at(0, tail)?;
    f.sync()?;
    drop(f);
    truncate_to_good(vfs, path, replay)?;
    Ok(tail.len() as u64)
}

/// Quarantines an entire log file (used when a successor segment's
/// frames cannot be applied because its predecessor lost frames — the
/// lying-fsync gap). Returns the number of bytes moved aside.
pub fn quarantine_file(vfs: &dyn Vfs, path: &Path) -> Result<u64> {
    let len = vfs.file_len(path)?;
    vfs.rename(path, &quarantine_path(path))?;
    Ok(len)
}

/// Appending side of the log.
#[derive(Debug)]
pub struct WalWriter {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Next sequence number.
    next_seq: u64,
    /// Current file length in bytes.
    bytes: u64,
    /// `fsync` after this many appends (1 = every append).
    sync_every: usize,
    /// Appends since the last sync.
    unsynced: usize,
}

impl WalWriter {
    /// Creates a fresh (empty) log at `path`, truncating any existing
    /// file, and makes the header durable immediately. `prev_frames` is
    /// the frame count of the segment this one succeeds (0 for the
    /// first of a chain).
    pub fn create(vfs: &dyn Vfs, path: &Path, sync_every: usize, prev_frames: u64) -> Result<Self> {
        assert!(sync_every > 0, "WalWriter: sync_every must be positive");
        let header = header_bytes(prev_frames);
        let mut file = vfs.create(path)?;
        file.write_all_at(0, &header)?;
        file.sync()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            next_seq: 0,
            bytes: header.len() as u64,
            sync_every,
            unsynced: 0,
        })
    }

    /// Re-opens an existing log for appending after [`replay`] (and,
    /// when the replay was torn, [`truncate_to_good`] or
    /// [`quarantine_tail`]): `frames` and `good_bytes` are the verified
    /// prefix that replay reported, passed as numbers so the caller is
    /// free to have consumed the frames themselves.
    pub fn open_end(
        vfs: &dyn Vfs,
        path: &Path,
        sync_every: usize,
        frames: u64,
        good_bytes: u64,
    ) -> Result<Self> {
        assert!(sync_every > 0, "WalWriter: sync_every must be positive");
        let file = vfs.open_rw(path)?;
        // Position at the end of the verified prefix; everything past
        // it (if anything) has been truncated away by recovery.
        Ok(Self {
            file,
            path: path.to_path_buf(),
            next_seq: frames,
            bytes: good_bytes,
            sync_every,
            unsynced: 0,
        })
    }

    /// Appends one change frame; returns its sequence number. The frame
    /// is durable once [`Self::sync`] runs (automatically every
    /// `sync_every` appends).
    pub fn append(&mut self, group: NodeId, change: &Change) -> Result<u64> {
        let seq = self.next_seq;
        let mut e = Enc::new();
        e.u64(seq);
        e.usize(group);
        codec::put_change(&mut e, change);
        let payload = e.into_bytes();
        let mut framed = Vec::with_capacity(payload.len() + 8);
        codec::put_record(&mut framed, &payload);
        self.file.write_all_at(self.bytes, &framed)?;
        self.bytes += framed.len() as u64;
        self.next_seq += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(seq)
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced > 0 {
            self.file.sync()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Current log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends not yet made durable.
    pub fn unsynced(&self) -> usize {
        self.unsynced
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::vfs::FaultVfs;
    use smartstore_trace::FileMetadata;

    fn meta(id: u64) -> FileMetadata {
        FileMetadata {
            file_id: id,
            name: format!("f{id}"),
            dir: "/w".into(),
            owner: 1,
            size: 64 + id,
            ctime: id as f64,
            mtime: id as f64,
            atime: id as f64,
            read_bytes: 0,
            write_bytes: 0,
            access_count: 1,
            proc_id: 0,
            truth_cluster: None,
        }
    }

    fn memfs() -> (FaultVfs, PathBuf) {
        (FaultVfs::new(), PathBuf::from("/wal/wal.log"))
    }

    fn changes(n: u64) -> Vec<Change> {
        (0..n)
            .map(|i| match i % 3 {
                0 => Change::Insert(meta(i)),
                1 => Change::Modify(meta(i - 1)),
                _ => Change::Delete(i - 2),
            })
            .collect()
    }

    #[test]
    fn append_replay_roundtrip() {
        let (vfs, path) = memfs();
        let cs = changes(50);
        {
            let mut w = WalWriter::create(&vfs, &path, 8, 0).unwrap();
            for (i, c) in cs.iter().enumerate() {
                let seq = w.append(i % 4, c).unwrap();
                assert_eq!(seq, i as u64);
            }
            w.sync().unwrap();
        }
        let r = replay(&vfs, &path).unwrap();
        assert!(r.torn.is_none());
        assert_eq!(r.prev_frames, 0);
        assert_eq!(r.frames.len(), 50);
        for (i, f) in r.frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.group, i % 4);
            assert_eq!(f.change, cs[i]);
        }
    }

    #[test]
    fn roundtrip_on_the_real_filesystem() {
        let dir = std::env::temp_dir().join(format!("smartstore_wal_real_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = crate::vfs::RealVfs;
        let path = dir.join("wal.log");
        let cs = changes(12);
        {
            let mut w = WalWriter::create(&vfs, &path, 4, 7).unwrap();
            for (i, c) in cs.iter().enumerate() {
                w.append(i, c).unwrap();
            }
        }
        let r = replay(&vfs, &path).unwrap();
        assert!(r.torn.is_none());
        assert_eq!(r.prev_frames, 7);
        assert_eq!(r.frames.len(), 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_quarantined_and_log_reusable() {
        let (vfs, path) = memfs();
        {
            let mut w = WalWriter::create(&vfs, &path, 1, 0).unwrap();
            for (i, c) in changes(10).iter().enumerate() {
                w.append(i, c).unwrap();
            }
        }
        // Tear the tail: chop 5 bytes off the last frame.
        let full = vfs.read(&path).unwrap();
        let mut f = vfs.open_rw(&path).unwrap();
        f.set_len((full.len() - 5) as u64).unwrap();
        f.sync().unwrap();
        drop(f);
        let r = replay(&vfs, &path).unwrap();
        assert_eq!(r.frames.len(), 9, "torn last frame dropped");
        assert!(r.torn.is_some());
        let dropped = (full.len() - 5) as u64 - r.good_bytes;
        assert_eq!(quarantine_tail(&vfs, &path, &r).unwrap(), dropped);
        // The tail landed in the side file, byte for byte.
        let side = vfs.read(&quarantine_path(&path)).unwrap();
        assert_eq!(side.len() as u64, dropped);
        assert_eq!(side[..], full[r.good_bytes as usize..full.len() - 5]);
        // Appending after recovery continues the sequence.
        let mut w =
            WalWriter::open_end(&vfs, &path, 1, r.frames.len() as u64, r.good_bytes).unwrap();
        let seq = w.append(0, &Change::Delete(1234)).unwrap();
        assert_eq!(seq, 9);
        drop(w);
        let r2 = replay(&vfs, &path).unwrap();
        assert!(r2.torn.is_none());
        assert_eq!(r2.frames.len(), 10);
        assert_eq!(r2.frames[9].change, Change::Delete(1234));
    }

    #[test]
    fn bitflip_mid_frame_stops_scan_at_frame_start() {
        let (vfs, path) = memfs();
        {
            let mut w = WalWriter::create(&vfs, &path, 1, 0).unwrap();
            for (i, c) in changes(6).iter().enumerate() {
                w.append(i, c).unwrap();
            }
        }
        let len = vfs.read(&path).unwrap().len();
        assert!(vfs.corrupt_durable(&path, len - 3, 0x10));
        let r = replay(&vfs, &path).unwrap();
        assert_eq!(r.frames.len(), 5);
        let (offset, reason) = r.torn.unwrap();
        assert!(reason.contains("checksum"), "reason: {reason}");
        assert_eq!(offset, r.good_bytes);
    }

    #[test]
    fn empty_log_replays_clean() {
        let (vfs, path) = memfs();
        WalWriter::create(&vfs, &path, 4, 3).unwrap();
        let r = replay(&vfs, &path).unwrap();
        assert!(r.frames.is_empty());
        assert!(r.torn.is_none());
        assert_eq!(r.prev_frames, 3);
        assert_eq!(r.good_bytes, header_len());
    }

    #[test]
    fn sync_batching_counts() {
        let (vfs, path) = memfs();
        let mut w = WalWriter::create(&vfs, &path, 4, 0).unwrap();
        let cs = changes(6);
        for (i, c) in cs.iter().take(3).enumerate() {
            w.append(i, c).unwrap();
        }
        assert_eq!(w.unsynced(), 3, "below batch threshold: not yet synced");
        w.append(3, &cs[3]).unwrap();
        assert_eq!(w.unsynced(), 0, "fourth append triggers the batch fsync");
    }

    #[test]
    fn garbage_file_is_rejected() {
        let (vfs, path) = memfs();
        let mut f = vfs.create(&path).unwrap();
        f.write_all_at(0, b"not a wal at all").unwrap();
        f.sync().unwrap();
        drop(f);
        assert!(matches!(
            replay(&vfs, &path),
            Err(PersistError::Corrupt { .. })
        ));
        assert_eq!(probe(&vfs, &path).unwrap(), WalProbe::Garbage);
    }

    #[test]
    fn probe_classifies_creation_prefixes() {
        let (vfs, path) = memfs();
        // Missing file: never created.
        assert_eq!(probe(&vfs, &path).unwrap(), WalProbe::CreationArtifact);
        // Every strict prefix of a fresh header is a creation artifact;
        // the complete header is valid.
        WalWriter::create(&vfs, &path, 1, 5).unwrap();
        let full = vfs.read(&path).unwrap();
        assert_eq!(full.len() as u64, header_len());
        for keep in 0..full.len() {
            let mut f = vfs.open_rw(&path).unwrap();
            f.set_len(keep as u64).unwrap();
            f.write_all_at(0, &full[..keep]).unwrap();
            f.sync().unwrap();
            drop(f);
            assert_eq!(
                probe(&vfs, &path).unwrap(),
                WalProbe::CreationArtifact,
                "prefix of {keep} bytes"
            );
        }
        let mut f = vfs.open_rw(&path).unwrap();
        f.write_all_at(0, &full).unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(
            probe(&vfs, &path).unwrap(),
            WalProbe::Valid { prev_frames: 5 }
        );
    }

    #[test]
    fn probe_flags_corrupt_header_as_garbage() {
        let (vfs, path) = memfs();
        WalWriter::create(&vfs, &path, 1, 0).unwrap();
        // Flip a bit inside the header payload: right length, bad crc.
        assert!(vfs.corrupt_durable(&path, WAL_MAGIC.len() + 9, 0x01));
        assert_eq!(probe(&vfs, &path).unwrap(), WalProbe::Garbage);
    }

    #[test]
    fn future_version_is_unsupported() {
        let (vfs, path) = memfs();
        let mut e = Enc::new();
        e.u16(WAL_VERSION + 1);
        e.u64(0);
        let payload = e.into_bytes();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        codec::put_record(&mut bytes, &payload);
        let mut f = vfs.create(&path).unwrap();
        f.write_all_at(0, &bytes).unwrap();
        f.sync().unwrap();
        drop(f);
        assert!(matches!(
            replay(&vfs, &path),
            Err(PersistError::UnsupportedVersion { .. })
        ));
    }
}
