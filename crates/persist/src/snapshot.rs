//! Point-in-time snapshots of a whole
//! [`SmartStoreSystem`](smartstore::SmartStoreSystem).
//!
//! A snapshot file is a header followed by checksummed records (see
//! [`crate::codec`]), one section per subsystem:
//!
//! ```text
//! magic "SSSNAP\x00" + u16 format version
//! record HEADER   — counts, flags, maintenance counters
//! record CONFIG   — SmartStoreConfig
//! record UNIT ×n  — one per storage unit (files + saved summaries)
//! record TREE     — semantic R-tree node arena
//! record MAPPING  — index-unit → storage-unit mapping
//! record VERSIONS — per-group version chains
//! record PENDING  — per-group lazy-update counters
//! record END      — explicit end marker
//! ```
//!
//! Unlike the WAL, a snapshot is all-or-nothing: any corruption —
//! including a missing END marker from a torn write — fails the load.
//! Writers therefore go through a temp file + `fsync` + atomic rename,
//! so a crash mid-write can never install a partial snapshot.
//!
//! # Legacy delta files (read-only)
//!
//! Builds from PR 4 until PR 25 also wrote *delta* files
//! (`DELTA_MAGIC`): the same record stream, but its UNIT section held
//! only the units dirtied since the previous generation, while the
//! index-side sections (tree, mapping, versions, pending) were present
//! in full. Nothing writes them any more — every compaction is a full
//! image — but a manifest may still name a chain of them, so opening a
//! store decodes each one (`decode_delta`) and overlays it onto the
//! base (`fold_delta`): units replace (or append) by unit id, the
//! index sections are taken wholesale from the delta. The next
//! compaction rewrites the folded state as one full image.

use crate::codec::{self, Dec, Enc, FrameError};
use crate::error::{PersistError, Result};
use crate::vfs::Vfs;
use rayon::prelude::*;
use smartstore::system::SystemParts;
use smartstore::tree::NodeId;
use smartstore::unit::StorageUnit;
use smartstore::versioning::VersionStore;
use std::path::Path;

/// Magic prefix of snapshot files (7 bytes + 1 reserved).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SSSNAP\x00\x00";

/// Magic prefix of legacy delta files.
// lint:allow(W002) -- read-only legacy format: no build since PR 25 writes delta files
pub const DELTA_MAGIC: &[u8; 8] = b"SSDELT\x00\x00";

const SEC_HEADER: u8 = 0x01;
const SEC_CONFIG: u8 = 0x02;
const SEC_UNIT: u8 = 0x03;
const SEC_TREE: u8 = 0x04;
const SEC_MAPPING: u8 = 0x05;
const SEC_VERSIONS: u8 = 0x06;
const SEC_PENDING: u8 = 0x07;
const SEC_DHEADER: u8 = 0x08;
const SEC_END: u8 = 0xFF;

/// Size/shape statistics of a written snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotStats {
    /// Total file bytes.
    pub bytes: u64,
    /// Storage units captured.
    pub n_units: usize,
    /// File-metadata records captured.
    pub n_files: usize,
    /// Semantic R-tree arena nodes captured.
    pub n_nodes: usize,
}

/// Serializes `parts` into snapshot bytes.
pub fn encode_snapshot(parts: &SystemParts) -> (Vec<u8>, SnapshotStats) {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&codec::FORMAT_VERSION.to_le_bytes());

    let n_files: usize = parts.units.iter().map(|u| u.len()).sum();

    let mut header = Enc::new();
    header.u8(SEC_HEADER);
    header.usize(parts.units.len());
    header.usize(n_files);
    header.bool(parts.versioning_enabled);
    header.u64(parts.maintenance_messages);
    header.u64(parts.reseed);
    codec::put_record(&mut out, &header.into_bytes());

    let mut cfg = Enc::new();
    cfg.u8(SEC_CONFIG);
    codec::put_config(&mut cfg, &parts.cfg);
    codec::put_record(&mut out, &cfg.into_bytes());

    // Unit records dominate snapshot bytes; encode + CRC them in
    // parallel on the shared pool. The framed records splice back in
    // unit order, so the byte stream is identical to a sequential
    // encoding.
    let unit_records: Vec<Vec<u8>> = parts
        .units
        .par_iter()
        .map(|u| {
            let mut e = Enc::new();
            e.u8(SEC_UNIT);
            codec::put_unit(&mut e, u);
            let mut rec = Vec::new();
            codec::put_record(&mut rec, &e.into_bytes());
            rec
        })
        .collect();
    let unit_bytes: usize = unit_records.iter().map(|r| r.len()).sum();
    out.reserve(unit_bytes);
    for rec in &unit_records {
        out.extend_from_slice(rec);
    }

    let mut t = Enc::new();
    t.u8(SEC_TREE);
    codec::put_tree(&mut t, &parts.tree);
    codec::put_record(&mut out, &t.into_bytes());

    let mut m = Enc::new();
    m.u8(SEC_MAPPING);
    codec::put_mapping(&mut m, &parts.mapping);
    codec::put_record(&mut out, &m.into_bytes());

    let mut v = Enc::new();
    v.u8(SEC_VERSIONS);
    v.u32(parts.versions.len() as u32);
    for (group, vs) in &parts.versions {
        v.usize(*group);
        codec::put_version_store(&mut v, vs);
    }
    codec::put_record(&mut out, &v.into_bytes());

    let mut p = Enc::new();
    p.u8(SEC_PENDING);
    p.u32(parts.pending.len() as u32);
    for (group, count) in &parts.pending {
        p.usize(*group);
        p.usize(*count);
    }
    codec::put_record(&mut out, &p.into_bytes());

    codec::put_record(&mut out, &[SEC_END]);

    let stats = SnapshotStats {
        bytes: out.len() as u64,
        n_units: parts.units.len(),
        n_files,
        n_nodes: parts.tree.nodes.len(),
    };
    (out, stats)
}

/// Writes `parts` to `path` atomically: temp file in the same
/// directory, `fsync`, rename over the target, `fsync` the directory.
pub fn write_snapshot(vfs: &dyn Vfs, parts: &SystemParts, path: &Path) -> Result<SnapshotStats> {
    let (bytes, stats) = encode_snapshot(parts);
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = path.with_extension("tmp");
    {
        let mut f = vfs.create(&tmp)?;
        f.write_all_at(0, &bytes)?;
        f.sync()?;
    }
    vfs.rename(&tmp, path)?;
    // Directory fsync makes the rename durable; best-effort on
    // filesystems that reject directory syncs.
    vfs.sync_dir(dir)?;
    Ok(stats)
}

fn corrupt(path: &Path, offset: usize, reason: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        path: path.to_path_buf(),
        offset: offset as u64,
        reason: reason.into(),
    }
}

/// Decodes a snapshot back into [`SystemParts`]. Fails on *any*
/// corruption — snapshots are written atomically, so a bad snapshot is
/// a real integrity problem, not an expected crash artifact.
pub fn decode_snapshot(bytes: &[u8], path: &Path) -> Result<SystemParts> {
    let (parts, _) = decode_image(bytes, path, false)?;
    check_unit_refs(&parts.units, &parts.tree, path)?;
    Ok(parts)
}

/// Loads a snapshot file.
pub fn load_snapshot(vfs: &dyn Vfs, path: &Path) -> Result<SystemParts> {
    let bytes = vfs.read(path)?;
    decode_snapshot(&bytes, path)
}

/// The one record-stream decoder behind full snapshots and legacy
/// deltas; they differ only in magic, header section and which units
/// the UNIT section holds. Returns the parts plus the system's total
/// unit count (for a delta: the count at its cut, of which `units`
/// holds only the re-encoded ones, ascending by id).
fn decode_image(bytes: &[u8], path: &Path, delta: bool) -> Result<(SystemParts, usize)> {
    let (magic, what) = if delta {
        (DELTA_MAGIC, "delta")
    } else {
        (SNAPSHOT_MAGIC, "snapshot")
    };
    if bytes.len() < 10 || &bytes[..8] != magic {
        return Err(corrupt(path, 0, format!("bad {what} magic")));
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version > codec::FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: codec::FORMAT_VERSION,
        });
    }
    let mut pos = 10usize;
    let next = |pos: &mut usize| -> Result<&[u8]> {
        match codec::get_record(bytes, *pos) {
            Ok((payload, np)) => {
                let at = *pos;
                *pos = np;
                if payload.is_empty() {
                    return Err(corrupt(path, at, "empty record"));
                }
                Ok(payload)
            }
            Err(FrameError::Eof) => Err(corrupt(path, *pos, format!("unexpected end of {what}"))),
            Err(FrameError::Torn { offset, reason }) => Err(corrupt(path, offset, reason)),
        }
    };
    let dec_err = |e: codec::DecodeError| corrupt(path, e.offset, e.reason);
    // Opens the next record, checking its section tag.
    let section = |pos: &mut usize, tag: u8, name: &str| -> Result<Dec<'_>> {
        let mut d = Dec::new(next(pos)?);
        if d.u8().map_err(dec_err)? != tag {
            return Err(corrupt(path, *pos, format!("expected {name} section")));
        }
        Ok(d)
    };

    // HEADER (full image) or DHEADER (legacy delta)
    let mut d = if delta {
        section(&mut pos, SEC_DHEADER, "delta header")?
    } else {
        section(&mut pos, SEC_HEADER, "header")?
    };
    let n_units_total = d.usize().map_err(dec_err)?;
    let n_units = if delta {
        d.usize().map_err(dec_err)?
    } else {
        n_units_total
    };
    let _n_files = d.usize().map_err(dec_err)?;
    let versioning_enabled = d.bool().map_err(dec_err)?;
    let maintenance_messages = d.u64().map_err(dec_err)?;
    let reseed = d.u64().map_err(dec_err)?;
    d.finish().map_err(dec_err)?;
    if n_units > n_units_total {
        return Err(corrupt(
            path,
            pos,
            format!("delta claims {n_units} dirty of {n_units_total} total units"),
        ));
    }

    // CONFIG
    let mut d = section(&mut pos, SEC_CONFIG, "config")?;
    let cfg = codec::get_config(&mut d, version).map_err(dec_err)?;
    d.finish().map_err(dec_err)?;

    // UNITS
    let mut units = Vec::with_capacity(n_units.min(1 << 20));
    for _ in 0..n_units {
        let mut d = section(&mut pos, SEC_UNIT, "unit")?;
        units.push(codec::get_unit(&mut d, version).map_err(dec_err)?);
        d.finish().map_err(dec_err)?;
    }
    if delta && !units.windows(2).all(|w| w[0].id < w[1].id) {
        return Err(corrupt(path, pos, "delta units not ascending by id"));
    }

    // TREE
    let mut d = section(&mut pos, SEC_TREE, "tree")?;
    let tree = codec::get_tree(&mut d, version).map_err(dec_err)?;
    d.finish().map_err(dec_err)?;

    // MAPPING
    let mut d = section(&mut pos, SEC_MAPPING, "mapping")?;
    let mapping = codec::get_mapping(&mut d).map_err(dec_err)?;
    d.finish().map_err(dec_err)?;

    // VERSIONS
    let mut d = section(&mut pos, SEC_VERSIONS, "versions")?;
    let n_groups = d.u32().map_err(dec_err)? as usize;
    let mut versions: Vec<(NodeId, VersionStore)> = Vec::with_capacity(n_groups.min(1 << 20));
    for _ in 0..n_groups {
        let g = d.usize().map_err(dec_err)?;
        let vs = codec::get_version_store(&mut d).map_err(dec_err)?;
        versions.push((g, vs));
    }
    d.finish().map_err(dec_err)?;

    // PENDING
    let mut d = section(&mut pos, SEC_PENDING, "pending")?;
    let n_pending = d.u32().map_err(dec_err)? as usize;
    let mut pending: Vec<(NodeId, usize)> = Vec::with_capacity(n_pending.min(1 << 20));
    for _ in 0..n_pending {
        let g = d.usize().map_err(dec_err)?;
        let c = d.usize().map_err(dec_err)?;
        pending.push((g, c));
    }
    d.finish().map_err(dec_err)?;

    // END
    if next(&mut pos)? != [SEC_END] {
        return Err(corrupt(path, pos, "expected end marker"));
    }
    match codec::get_record(bytes, pos) {
        Err(FrameError::Eof) => {}
        _ => return Err(corrupt(path, pos, "trailing data after end marker")),
    }

    let parts = SystemParts {
        cfg,
        units,
        tree,
        mapping,
        versions,
        pending,
        versioning_enabled,
        maintenance_messages,
        reseed,
    };
    Ok((parts, n_units_total))
}

/// Referential sanity shared by full-image decode and chain folding:
/// every live leaf's unit id must resolve to a storage unit.
fn check_unit_refs(
    units: &[StorageUnit],
    tree: &smartstore::tree::TreeParts,
    path: &Path,
) -> Result<()> {
    let unit_ids: std::collections::HashSet<usize> = units.iter().map(|u| u.id).collect();
    for n in &tree.nodes {
        if let Some(u) = n.unit {
            if n.level == 0 && !tree.free.contains(&n.id) && !unit_ids.contains(&u) {
                return Err(corrupt(
                    path,
                    0,
                    format!("tree leaf references missing unit {u}"),
                ));
            }
        }
    }
    Ok(())
}

/// A decoded legacy delta generation: `image.units` holds only the
/// units it re-encoded (ascending id); every other section is the full
/// state at its cut.
pub(crate) struct Delta {
    image: SystemParts,
    n_units_total: usize,
}

/// Decodes a legacy delta file. Like full snapshots, deltas were
/// written atomically, so *any* corruption fails the load.
pub(crate) fn decode_delta(bytes: &[u8], path: &Path) -> Result<Delta> {
    let (image, n_units_total) = decode_image(bytes, path, true)?;
    Ok(Delta {
        image,
        n_units_total,
    })
}

/// Overlays one legacy delta generation onto accumulated base parts,
/// in place. Deterministic: the delta's units replace their base
/// counterpart by id (or append, for units created after the base —
/// unit ids are always the dense `0..n` of the units vector), and
/// every other section is taken wholesale from the delta, which
/// captured it in full at its cut.
pub(crate) fn fold_delta(base: &mut SystemParts, delta: Delta, path: &Path) -> Result<()> {
    let Delta {
        mut image,
        n_units_total,
    } = delta;
    for u in std::mem::take(&mut image.units) {
        let id = u.id;
        match id.cmp(&base.units.len()) {
            std::cmp::Ordering::Less => base.units[id] = u,
            std::cmp::Ordering::Equal => base.units.push(u),
            std::cmp::Ordering::Greater => {
                return Err(corrupt(
                    path,
                    0,
                    format!(
                        "delta unit {id} skips past base unit count {}",
                        base.units.len()
                    ),
                ));
            }
        }
    }
    if base.units.len() != n_units_total {
        return Err(corrupt(
            path,
            0,
            format!(
                "folded unit count {} != delta total {n_units_total}",
                base.units.len()
            ),
        ));
    }
    image.units = std::mem::take(&mut base.units);
    *base = image;
    check_unit_refs(&base.units, &base.tree, path)
}
