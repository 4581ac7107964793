//! Hand-rolled, versioned binary codec for the SmartStore domain types.
//!
//! Everything is little-endian and length-prefixed; floats travel as
//! their IEEE-754 bit patterns so round-trips are exact. On top of the
//! primitive layer sit encoders/decoders for the full domain —
//! [`FileMetadata`], [`StorageUnit`], the semantic R-tree arena,
//! [`IndexMapping`], version chains and [`SmartStoreConfig`] — plus the
//! shared checksummed *record* framing used by both snapshot files and
//! the write-ahead log:
//!
//! ```text
//! [len: u32][crc32(payload): u32][payload: len bytes]
//! ```
//!
//! The CRC is over the payload only, so a torn or bit-flipped record is
//! detected by the reader; what the caller does about it differs by
//! artifact (snapshots refuse to load, the WAL truncates its tail).

use smartstore::config::{PersistConfig, SmartStoreConfig};
use smartstore::mapping::IndexMapping;
use smartstore::tree::{NodeId, SemanticNode, TreeParts};
use smartstore::unit::StorageUnit;
use smartstore::versioning::{Change, Version, VersionStore};
use smartstore_bloom::{BloomFilter, HashFamily};
use smartstore_rtree::{RTreeConfig, Rect};
use smartstore_trace::{AttributeKind, FileMetadata, ATTR_DIMS};
use std::collections::HashMap;

/// Highest artifact format version this build reads and the version it
/// writes. v2 added differential snapshots: the manifest carries the
/// base + delta generation chain and the config carries a
/// `max_delta_chain` slot. v3 added the Bloom hash-family tag to every
/// persisted filter and to the config; v2 images decode their filters
/// as [`HashFamily::Md5`] (the only family that existed then) and are
/// migrated in memory on open. Since PR 25 nothing writes deltas: the
/// manifest's chain is always written empty and the config slot always
/// holds `0` ("deltas disabled" to the builds that still wrote them,
/// so they read these images unchanged); both are still read, so old
/// delta chains open.
pub const FORMAT_VERSION: u16 = 3;

/// Upper bound on a single record's payload (sanity check against
/// garbage length prefixes).
pub const MAX_RECORD_BYTES: usize = 1 << 30;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — the checksum of every record.
// ---------------------------------------------------------------------

/// The slicing-by-8 tables: `t[0]` is the classic byte-at-a-time table,
/// and `t[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes — what lets eight input bytes fold in eight independent
/// lookups instead of a chain of eight dependent ones.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `data`, eight bytes per step. Every socket frame,
/// WAL frame and snapshot section passes through here, so the per-byte
/// cost is on the request path and on cold open alike.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------

/// Append-only byte encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// An encoder that builds one checksummed record in `buf` (cleared,
    /// its capacity kept): the [`RECORD_HEADER_BYTES`] header is
    /// reserved here and filled in by [`Self::into_record`], so a caller
    /// that hands the same buffer back each time frames every record
    /// without allocating.
    pub fn record_in(mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.resize(RECORD_HEADER_BYTES, 0);
        Self { buf }
    }

    /// Finishes a [`Self::record_in`] encoder: the bytes
    /// [`put_record`] would append for the payload encoded since.
    pub fn into_record(mut self) -> Vec<u8> {
        let payload = &self.buf[RECORD_HEADER_BYTES..];
        assert!(payload.len() <= MAX_RECORD_BYTES, "record too large");
        let head = [
            (payload.len() as u32).to_le_bytes(),
            crc32(payload).to_le_bytes(),
        ];
        self.buf[..RECORD_HEADER_BYTES].copy_from_slice(head.as_flattened());
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    pub fn f64s(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f64(x);
        }
    }

    pub fn usizes(&mut self, v: &[usize]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.usize(x);
        }
    }
}

/// Decode failure: where and why.
#[derive(Clone, Debug)]
pub struct DecodeError {
    /// Byte offset in the decoded buffer.
    pub offset: usize,
    /// Reason.
    pub reason: String,
}

impl DecodeError {
    fn new(offset: usize, reason: impl Into<String>) -> Self {
        Self {
            offset,
            reason: reason.into(),
        }
    }

    /// Public constructor for codecs layered on top of this one (the
    /// `smartstore-service` wire protocol reuses the primitive layer
    /// and needs to report its own tag errors).
    pub fn new_at(offset: usize, reason: impl Into<String>) -> Self {
        Self::new(offset, reason)
    }
}

/// Decode result alias.
pub type DecResult<T> = std::result::Result<T, DecodeError>;

/// Cursor-based byte decoder over a borrowed buffer.
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `data` starting at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Current cursor offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to decode.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless the buffer is fully consumed.
    pub fn finish(&self) -> DecResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::new(
                self.pos,
                format!("{} trailing bytes", self.remaining()),
            ))
        }
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(DecodeError::new(
                self.pos,
                format!("need {n} bytes, {} remain", self.remaining()),
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> DecResult<[u8; N]> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    pub fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> DecResult<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    pub fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    pub fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    pub fn usize(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::new(self.pos, format!("usize overflow: {v}")))
    }

    pub fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> DecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::new(self.pos - 1, format!("bad bool byte {b}"))),
        }
    }

    pub fn bytes(&mut self) -> DecResult<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub fn str(&mut self) -> DecResult<String> {
        let at = self.pos;
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|e| DecodeError::new(at, format!("invalid utf-8: {e}")))
    }

    pub fn f64s(&mut self) -> DecResult<Vec<f64>> {
        let n = self.u32()? as usize;
        self.check_count(n, 8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    pub fn usizes(&mut self) -> DecResult<Vec<usize>> {
        let n = self.u32()? as usize;
        self.check_count(n, 8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    /// Guards count prefixes against garbage: `n` elements of at least
    /// `min_elem_bytes` each must fit in the remaining buffer.
    fn check_count(&self, n: usize, min_elem_bytes: usize) -> DecResult<()> {
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(DecodeError::new(
                self.pos,
                format!(
                    "implausible element count {n} for {} remaining bytes",
                    self.remaining()
                ),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------

/// Why a record could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Clean end of buffer: no bytes of a further record present.
    Eof,
    /// A partial or corrupt record: torn length/checksum header,
    /// truncated payload, or checksum mismatch.
    Torn {
        /// Offset of the bad record's first byte.
        offset: usize,
        /// Reason.
        reason: String,
    },
}

/// Appends one checksummed record to `out`.
pub fn put_record(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(payload.len() <= MAX_RECORD_BYTES, "record too large");
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Bytes of the `[len: u32 le][crc32: u32 le]` header before a payload.
pub const RECORD_HEADER_BYTES: usize = 8;

/// What the bytes at the head of a buffer amount to, as one record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordCheck {
    /// Not a whole record yet: the header, or the payload its length
    /// field announces, extends past the end of the buffer.
    NeedMore,
    /// A whole record with a matching checksum; its payload is
    /// `head[RECORD_HEADER_BYTES..][..len]`.
    Complete(usize),
    /// Never a record, however many bytes follow: implausible length or
    /// checksum mismatch.
    Torn(String),
}

/// The one parser of `[len][crc32][payload]`: checks the record that
/// starts at `head[0]`. `max_len` is the caller's cap on a payload — a
/// length beyond it is torn *before* any byte of the payload is awaited
/// or allocated for. Incremental: a streaming caller re-runs it on its
/// growing buffer; [`get_record`] runs it once on a slice.
pub fn check_record(head: &[u8], max_len: usize) -> RecordCheck {
    let Some((header, rest)) = head.split_first_chunk::<RECORD_HEADER_BYTES>() else {
        return RecordCheck::NeedMore;
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_len {
        return RecordCheck::Torn(format!("implausible record length {len}"));
    }
    let Some(payload) = rest.get(..len) else {
        return RecordCheck::NeedMore;
    };
    let actual = crc32(payload);
    if actual != crc {
        return RecordCheck::Torn(format!(
            "checksum mismatch (stored {crc:08x}, computed {actual:08x})"
        ));
    }
    RecordCheck::Complete(len)
}

/// Reads the record at `pos`, returning `(payload, next_pos)`. A slice
/// is all the bytes there will ever be, so a record that needs more is
/// torn.
pub fn get_record(data: &[u8], pos: usize) -> std::result::Result<(&[u8], usize), FrameError> {
    if pos == data.len() {
        return Err(FrameError::Eof);
    }
    let head = &data[pos..];
    let reason = match check_record(head, MAX_RECORD_BYTES) {
        RecordCheck::Complete(len) => {
            let end = RECORD_HEADER_BYTES + len;
            return Ok((&head[RECORD_HEADER_BYTES..end], pos + end));
        }
        RecordCheck::NeedMore if head.len() < RECORD_HEADER_BYTES => "torn record header".into(),
        RecordCheck::NeedMore => "truncated record payload".into(),
        RecordCheck::Torn(reason) => reason,
    };
    Err(FrameError::Torn {
        offset: pos,
        reason,
    })
}

// ---------------------------------------------------------------------
// Domain types
// ---------------------------------------------------------------------

/// Encodes one file-metadata record.
pub fn put_file(e: &mut Enc, f: &FileMetadata) {
    e.u64(f.file_id);
    e.str(&f.name);
    e.str(&f.dir);
    e.u32(f.owner);
    e.u64(f.size);
    e.f64(f.ctime);
    e.f64(f.mtime);
    e.f64(f.atime);
    e.u64(f.read_bytes);
    e.u64(f.write_bytes);
    e.u32(f.access_count);
    e.u32(f.proc_id);
    match f.truth_cluster {
        Some(c) => {
            e.bool(true);
            e.u32(c);
        }
        None => e.bool(false),
    }
}

/// Decodes one file-metadata record.
pub fn get_file(d: &mut Dec) -> DecResult<FileMetadata> {
    Ok(FileMetadata {
        file_id: d.u64()?,
        name: d.str()?,
        dir: d.str()?,
        owner: d.u32()?,
        size: d.u64()?,
        ctime: d.f64()?,
        mtime: d.f64()?,
        atime: d.f64()?,
        read_bytes: d.u64()?,
        write_bytes: d.u64()?,
        access_count: d.u32()?,
        proc_id: d.u32()?,
        truth_cluster: if d.bool()? { Some(d.u32()?) } else { None },
    })
}

/// Bloom hash-family tags of the v3 filter/config encoding.
pub const FAMILY_MD5: u8 = 0;
pub const FAMILY_FAST: u8 = 1;

/// Encodes a Bloom hash-family tag. The only writer of the `FAMILY_*`
/// tag bytes; [`get_family`] is the only reader.
pub fn put_family(e: &mut Enc, f: HashFamily) {
    e.u8(match f {
        HashFamily::Md5 => FAMILY_MD5,
        HashFamily::Fast => FAMILY_FAST,
    });
}

/// Decodes a Bloom hash-family tag.
pub fn get_family(d: &mut Dec) -> DecResult<HashFamily> {
    let at = d.pos();
    match d.u8()? {
        FAMILY_MD5 => Ok(HashFamily::Md5),
        FAMILY_FAST => Ok(HashFamily::Fast),
        t => Err(DecodeError::new(at, format!("unknown hash family {t}"))),
    }
}

/// Encodes a Bloom filter (geometry + hash family + raw words + insert
/// count).
pub fn put_bloom(e: &mut Enc, b: &BloomFilter) {
    e.usize(b.n_bits());
    e.usize(b.n_hashes());
    e.usize(b.inserted());
    put_family(e, b.family());
    e.u32(b.words().len() as u32);
    for &w in b.words() {
        e.u64(w);
    }
}

/// Decodes a Bloom filter. `version` is the containing artifact's
/// format version: v2 images predate the family tag, and every filter
/// written back then used the paper's MD5 derivation.
pub fn get_bloom(d: &mut Dec, version: u16) -> DecResult<BloomFilter> {
    let at = d.pos();
    let n_bits = d.usize()?;
    let n_hashes = d.usize()?;
    let inserted = d.usize()?;
    let family = if version >= 3 {
        get_family(d)?
    } else {
        HashFamily::Md5
    };
    let n_words = d.u32()? as usize;
    if n_bits == 0 || n_hashes == 0 || n_words != n_bits.div_ceil(64) {
        return Err(DecodeError::new(
            at,
            format!("bad bloom geometry {n_bits}/{n_hashes}/{n_words}"),
        ));
    }
    let words: Vec<u64> = (0..n_words).map(|_| d.u64()).collect::<DecResult<_>>()?;
    Ok(BloomFilter::from_raw(
        n_bits, n_hashes, inserted, words, family,
    ))
}

/// Encodes an optional MBR.
pub fn put_opt_rect(e: &mut Enc, r: Option<&Rect>) {
    match r {
        Some(r) => {
            e.bool(true);
            e.f64s(r.lo());
            e.f64s(r.hi());
        }
        None => e.bool(false),
    }
}

/// Decodes an optional MBR.
pub fn get_opt_rect(d: &mut Dec) -> DecResult<Option<Rect>> {
    if !d.bool()? {
        return Ok(None);
    }
    let at = d.pos();
    let lo = d.f64s()?;
    let hi = d.f64s()?;
    if lo.len() != hi.len() || lo.is_empty() {
        return Err(DecodeError::new(
            at,
            format!("bad rect dims {}/{}", lo.len(), hi.len()),
        ));
    }
    Ok(Some(Rect::new(lo, hi)))
}

/// Encodes a storage unit: id, files, and the *saved* summaries
/// (Bloom/centroid/MBR may legitimately be stale relative to the files;
/// that staleness is part of the system's query-visible state).
pub fn put_unit(e: &mut Enc, u: &StorageUnit) {
    e.usize(u.id);
    e.u32(u.files().len() as u32);
    for f in u.files() {
        put_file(e, f);
    }
    put_bloom(e, u.bloom());
    e.f64s(u.centroid());
    put_opt_rect(e, u.mbr());
}

/// Decodes a storage unit from a `version`-format artifact.
pub fn get_unit(d: &mut Dec, version: u16) -> DecResult<StorageUnit> {
    let id = d.usize()?;
    let n = d.u32()? as usize;
    let mut files = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        files.push(get_file(d)?);
    }
    let bloom = get_bloom(d, version)?;
    let at = d.pos();
    let centroid = d.f64s()?;
    if centroid.len() != ATTR_DIMS {
        return Err(DecodeError::new(
            at,
            format!("centroid dims {}", centroid.len()),
        ));
    }
    let mbr = get_opt_rect(d)?;
    Ok(StorageUnit::from_parts(id, files, bloom, centroid, mbr))
}

fn put_opt_usize(e: &mut Enc, v: Option<usize>) {
    match v {
        Some(x) => {
            e.bool(true);
            e.usize(x);
        }
        None => e.bool(false),
    }
}

fn get_opt_usize(d: &mut Dec) -> DecResult<Option<usize>> {
    if d.bool()? {
        Ok(Some(d.usize()?))
    } else {
        Ok(None)
    }
}

/// Encodes one semantic R-tree node.
pub fn put_node(e: &mut Enc, n: &SemanticNode) {
    e.usize(n.id);
    e.u32(n.level);
    put_opt_rect(e, n.mbr.as_ref());
    e.f64s(&n.centroid);
    put_bloom(e, &n.bloom);
    e.usizes(&n.children);
    put_opt_usize(e, n.parent);
    put_opt_usize(e, n.unit);
    e.usize(n.leaf_count);
}

/// Decodes one semantic R-tree node from a `version`-format artifact.
pub fn get_node(d: &mut Dec, version: u16) -> DecResult<SemanticNode> {
    Ok(SemanticNode {
        id: d.usize()?,
        level: d.u32()?,
        mbr: get_opt_rect(d)?,
        centroid: d.f64s()?,
        bloom: get_bloom(d, version)?,
        children: d.usizes()?,
        parent: get_opt_usize(d)?,
        unit: get_opt_usize(d)?,
        leaf_count: d.usize()?,
    })
}

/// Encodes the whole tree arena.
pub fn put_tree(e: &mut Enc, t: &TreeParts) {
    e.u32(t.nodes.len() as u32);
    for n in &t.nodes {
        put_node(e, n);
    }
    e.usize(t.root);
    e.usizes(&t.free);
}

/// Decodes the whole tree arena, validating the root reference.
pub fn get_tree(d: &mut Dec, version: u16) -> DecResult<TreeParts> {
    let n = d.u32()? as usize;
    let mut nodes = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        nodes.push(get_node(d, version)?);
    }
    let at = d.pos();
    let root = d.usize()?;
    let free = d.usizes()?;
    if root >= nodes.len() {
        return Err(DecodeError::new(
            at,
            format!("root {root} out of {} nodes", nodes.len()),
        ));
    }
    Ok(TreeParts { nodes, root, free })
}

/// Encodes the index-unit mapping (sorted for deterministic bytes).
pub fn put_mapping(e: &mut Enc, m: &IndexMapping) {
    // lint:allow(D002) -- collected then sorted below; map order never reaches the bytes
    let mut pairs: Vec<(NodeId, usize)> = m.assignment.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable();
    e.u32(pairs.len() as u32);
    for (node, unit) in pairs {
        e.usize(node);
        e.usize(unit);
    }
    e.usizes(&m.root_replicas);
}

/// Decodes the index-unit mapping.
pub fn get_mapping(d: &mut Dec) -> DecResult<IndexMapping> {
    let n = d.u32()? as usize;
    d.check_count(n, 16)?;
    let mut assignment = HashMap::with_capacity(n);
    for _ in 0..n {
        let node = d.usize()?;
        let unit = d.usize()?;
        assignment.insert(node, unit);
    }
    let root_replicas = d.usizes()?;
    Ok(IndexMapping {
        assignment,
        root_replicas,
    })
}

/// Change tags of the WAL/version encoding.
const CHANGE_INSERT: u8 = 0;
const CHANGE_DELETE: u8 = 1;
const CHANGE_MODIFY: u8 = 2;

/// Encodes one metadata change.
pub fn put_change(e: &mut Enc, c: &Change) {
    match c {
        Change::Insert(f) => {
            e.u8(CHANGE_INSERT);
            put_file(e, f);
        }
        Change::Delete(id) => {
            e.u8(CHANGE_DELETE);
            e.u64(*id);
        }
        Change::Modify(f) => {
            e.u8(CHANGE_MODIFY);
            put_file(e, f);
        }
    }
}

/// Decodes one metadata change.
pub fn get_change(d: &mut Dec) -> DecResult<Change> {
    let at = d.pos();
    match d.u8()? {
        CHANGE_INSERT => Ok(Change::Insert(get_file(d)?)),
        CHANGE_DELETE => Ok(Change::Delete(d.u64()?)),
        CHANGE_MODIFY => Ok(Change::Modify(get_file(d)?)),
        t => Err(DecodeError::new(at, format!("unknown change tag {t}"))),
    }
}

fn put_version(e: &mut Enc, v: &Version) {
    e.u32(v.changes.len() as u32);
    for c in &v.changes {
        put_change(e, c);
    }
}

fn get_version(d: &mut Dec) -> DecResult<Version> {
    let n = d.u32()? as usize;
    d.check_count(n, 1)?;
    let mut changes = Vec::with_capacity(n);
    for _ in 0..n {
        changes.push(get_change(d)?);
    }
    Ok(Version { changes })
}

/// Encodes one group's version chain.
pub fn put_version_store(e: &mut Enc, vs: &VersionStore) {
    e.u32(vs.ratio());
    e.u32(vs.sealed_versions().len() as u32);
    for v in vs.sealed_versions() {
        put_version(e, v);
    }
    put_version(e, vs.open_version());
}

/// Decodes one group's version chain.
pub fn get_version_store(d: &mut Dec) -> DecResult<VersionStore> {
    let at = d.pos();
    let ratio = d.u32()?;
    if ratio == 0 {
        return Err(DecodeError::new(at, "zero version ratio"));
    }
    let n = d.u32()? as usize;
    d.check_count(n, 4)?;
    let mut sealed = Vec::with_capacity(n);
    for _ in 0..n {
        sealed.push(get_version(d)?);
    }
    let open = get_version(d)?;
    Ok(VersionStore::from_parts(ratio, sealed, open))
}

/// Encodes the full configuration.
pub fn put_config(e: &mut Enc, c: &SmartStoreConfig) {
    e.usize(c.lsi_rank);
    e.u32(c.grouping_dims.len() as u32);
    for &k in &c.grouping_dims {
        e.u8(k.index() as u8);
    }
    e.f64(c.admission_threshold);
    e.f64(c.threshold_decay);
    e.usize(c.rtree.max_entries);
    e.usize(c.rtree.min_entries);
    e.usize(c.bloom_bits);
    e.usize(c.bloom_hashes);
    put_family(e, c.bloom_family);
    e.f64(c.autoconfig_threshold);
    e.f64(c.lazy_update_threshold);
    e.u32(c.version_ratio);
    e.usize(c.persist.wal_sync_every);
    e.u64(c.persist.wal_compact_bytes);
    // The legacy `max_delta_chain` slot: 0 = no deltas.
    e.usize(0);
}

/// Decodes the full configuration. `version` is the containing
/// artifact's format version: v1 images predate the legacy
/// `max_delta_chain` slot, which v2+ images carry and this build skips.
/// v2 images predate `bloom_family`: the *desired* family decodes as
/// the build default (the fast family), while the v2 filters themselves
/// decode as MD5 — the mismatch is what triggers the in-memory
/// migration on open.
pub fn get_config(d: &mut Dec, version: u16) -> DecResult<SmartStoreConfig> {
    let lsi_rank = d.usize()?;
    let n_dims = d.u32()? as usize;
    d.check_count(n_dims, 1)?;
    let mut grouping_dims = Vec::with_capacity(n_dims);
    for _ in 0..n_dims {
        let at = d.pos();
        let i = d.u8()? as usize;
        let k = *AttributeKind::ALL
            .get(i)
            .ok_or_else(|| DecodeError::new(at, format!("bad attribute index {i}")))?;
        grouping_dims.push(k);
    }
    Ok(SmartStoreConfig {
        lsi_rank,
        grouping_dims,
        admission_threshold: d.f64()?,
        threshold_decay: d.f64()?,
        rtree: RTreeConfig {
            max_entries: d.usize()?,
            min_entries: d.usize()?,
        },
        bloom_bits: d.usize()?,
        bloom_hashes: d.usize()?,
        bloom_family: if version >= 3 {
            get_family(d)?
        } else {
            HashFamily::default()
        },
        autoconfig_threshold: d.f64()?,
        lazy_update_threshold: d.f64()?,
        version_ratio: d.u32()?,
        persist: {
            let persist = PersistConfig {
                wal_sync_every: d.usize()?,
                wal_compact_bytes: d.u64()?,
            };
            if version >= 2 {
                d.usize()?; // legacy `max_delta_chain` slot
            }
            persist
        },
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn meta(id: u64) -> FileMetadata {
        FileMetadata {
            file_id: id,
            name: format!("file_{id}.dat"),
            dir: "/proj/x".into(),
            owner: 3,
            size: 1 << id.min(30),
            ctime: 10.5 * id as f64,
            mtime: 11.5 * id as f64,
            atime: 12.5 * id as f64,
            read_bytes: 400 + id,
            write_bytes: 7 * id,
            access_count: 2 + id as u32,
            proc_id: (id % 5) as u32,
            truth_cluster: if id.is_multiple_of(2) {
                Some(id as u32)
            } else {
                None
            },
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// CRC-32 one byte at a time — the loop `crc32` used before it
    /// sliced by eight, kept as the reference it must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_bytewise_at_every_short_length() {
        // Lengths 0–64 cover every remainder after the 8-byte steps, at
        // every alignment of the slice start.
        let bytes: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn a_record_built_in_a_reused_buffer_matches_put_record() {
        let mut buf = vec![0xAB; 300];
        for (i, payload) in [&b""[..], b"x", &[7u8; 260]].into_iter().enumerate() {
            let mut e = Enc::record_in(buf);
            e.bytes(payload);
            e.u64(i as u64);
            buf = e.into_record();
            let mut plain = Enc::new();
            plain.bytes(payload);
            plain.u64(i as u64);
            let mut expect = Vec::new();
            put_record(&mut expect, &plain.into_bytes());
            assert_eq!(buf, expect, "payload {i}");
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_bytewise_on_random_input(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..5000),
        ) {
            proptest::prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(65535);
        e.u32(123_456);
        e.u64(u64::MAX - 3);
        e.f64(-0.125);
        e.bool(true);
        e.str("héllo");
        e.f64s(&[1.0, f64::MAX, f64::MIN_POSITIVE]);
        e.usizes(&[0, 5, 1 << 40]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 65535);
        assert_eq!(d.u32().unwrap(), 123_456);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.f64s().unwrap(), vec![1.0, f64::MAX, f64::MIN_POSITIVE]);
        assert_eq!(d.usizes().unwrap(), vec![0, 5, 1 << 40]);
        d.finish().unwrap();
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut e = Enc::new();
        e.str("hello world");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..bytes.len() - 1]);
        assert!(d.str().is_err());
    }

    #[test]
    fn file_roundtrip() {
        for id in [0u64, 1, 17, 900] {
            let f = meta(id);
            let mut e = Enc::new();
            put_file(&mut e, &f);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(get_file(&mut d).unwrap(), f);
            d.finish().unwrap();
        }
    }

    #[test]
    fn bloom_roundtrip_preserves_bits() {
        for family in [HashFamily::Md5, HashFamily::Fast] {
            let mut b = BloomFilter::with_family(512, 5, family);
            for i in 0..40 {
                b.insert(format!("key{i}").as_bytes());
            }
            let mut e = Enc::new();
            put_bloom(&mut e, &b);
            let bytes = e.into_bytes();
            let back = get_bloom(&mut Dec::new(&bytes), FORMAT_VERSION).unwrap();
            assert_eq!(back, b);
            assert_eq!(back.family(), family);
            for i in 0..40 {
                assert!(back.contains(format!("key{i}").as_bytes()));
            }
        }
    }

    #[test]
    fn family_tag_roundtrip_and_rejects_unknown() {
        for f in [HashFamily::Md5, HashFamily::Fast] {
            let mut e = Enc::new();
            put_family(&mut e, f);
            let bytes = e.into_bytes();
            assert_eq!(get_family(&mut Dec::new(&bytes)).unwrap(), f);
        }
        assert!(get_family(&mut Dec::new(&[0x7f])).is_err());
    }

    #[test]
    fn v2_bloom_bytes_decode_as_md5() {
        // A v2 filter record has no family byte; re-encode one by hand
        // and check it decodes as the MD5 family.
        let mut b = BloomFilter::with_family(128, 3, HashFamily::Md5);
        b.insert(b"old_file");
        let mut e = Enc::new();
        e.usize(b.n_bits());
        e.usize(b.n_hashes());
        e.usize(b.inserted());
        e.u32(b.words().len() as u32);
        for &w in b.words() {
            e.u64(w);
        }
        let bytes = e.into_bytes();
        let back = get_bloom(&mut Dec::new(&bytes), 2).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.family(), HashFamily::Md5);
        assert!(back.contains(b"old_file"));
    }

    #[test]
    fn change_roundtrip() {
        for c in [
            Change::Insert(meta(4)),
            Change::Delete(99),
            Change::Modify(meta(5)),
        ] {
            let mut e = Enc::new();
            put_change(&mut e, &c);
            let bytes = e.into_bytes();
            assert_eq!(get_change(&mut Dec::new(&bytes)).unwrap(), c);
        }
    }

    #[test]
    fn version_store_roundtrip() {
        let mut vs = VersionStore::new(3);
        for i in 0..10 {
            vs.record(Change::Modify(meta(i)));
        }
        vs.record(Change::Delete(2));
        let mut e = Enc::new();
        put_version_store(&mut e, &vs);
        let bytes = e.into_bytes();
        let back = get_version_store(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.ratio(), vs.ratio());
        assert_eq!(back.version_count(), vs.version_count());
        assert_eq!(back.change_count(), vs.change_count());
        // The decoder rebuilds the derived walk: same records, same
        // cached rows, newest first.
        let a: Vec<_> = back.effective().collect();
        let b: Vec<_> = vs.effective().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn config_roundtrip() {
        let c = SmartStoreConfig {
            lsi_rank: 4,
            grouping_dims: vec![AttributeKind::Size, AttributeKind::ProcessId],
            bloom_family: HashFamily::Md5,
            persist: PersistConfig {
                wal_sync_every: 7,
                ..PersistConfig::default()
            },
            ..SmartStoreConfig::default()
        };
        let mut e = Enc::new();
        put_config(&mut e, &c);
        let bytes = e.into_bytes();
        let back = get_config(&mut Dec::new(&bytes), FORMAT_VERSION).unwrap();
        assert_eq!(back.lsi_rank, 4);
        assert_eq!(back.grouping_dims, c.grouping_dims);
        assert_eq!(back.bloom_family, HashFamily::Md5);
        assert_eq!(back.persist, c.persist);
        assert_eq!(back.version_ratio, c.version_ratio);
    }

    #[test]
    fn records_frame_and_verify() {
        let mut buf = Vec::new();
        put_record(&mut buf, b"alpha");
        put_record(&mut buf, b"");
        put_record(&mut buf, b"beta-beta");
        let (p1, n1) = get_record(&buf, 0).unwrap();
        assert_eq!(p1, b"alpha");
        let (p2, n2) = get_record(&buf, n1).unwrap();
        assert_eq!(p2, b"");
        let (p3, n3) = get_record(&buf, n2).unwrap();
        assert_eq!(p3, b"beta-beta");
        assert_eq!(get_record(&buf, n3), Err(FrameError::Eof));
    }

    #[test]
    fn torn_and_corrupt_records_detected() {
        let mut buf = Vec::new();
        put_record(&mut buf, b"payload-payload");
        // Truncated payload.
        let torn = &buf[..buf.len() - 3];
        assert!(matches!(get_record(torn, 0), Err(FrameError::Torn { .. })));
        // Bit flip in payload.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            get_record(&flipped, 0),
            Err(FrameError::Torn { .. })
        ));
        // Garbage length.
        let mut bad_len = buf;
        bad_len[3] = 0xFF;
        assert!(matches!(
            get_record(&bad_len, 0),
            Err(FrameError::Torn { .. })
        ));
    }
}
