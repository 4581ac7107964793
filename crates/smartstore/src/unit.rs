//! Storage units — the leaf nodes of the semantic R-tree.
//!
//! "Each metadata server is a leaf node in our semantic R-tree … we
//! refer to the semantic R-tree leaf nodes as storage units" (§2.3).
//! A storage unit holds the metadata of its files, a Bloom filter over
//! their filenames, the unit's semantic vector (attribute centroid) and
//! its MBR in attribute space.
//!
//! # Columnar read path
//!
//! Queries never walk the record structs. Alongside the row store
//! (`files`), every unit maintains a *columnar projection*:
//!
//! * `coords` — a flat row-major `n × ATTR_DIMS` table of each file's
//!   `attr_vector()`, computed **once** at mutation time instead of on
//!   every scan (the projection does four `ln()` calls per record —
//!   recomputing it per query made scans transcendental-bound, not
//!   memory-bound);
//! * `ids` — the `file_id` column, so a scan touches the (large,
//!   string-carrying) records only for actual hits;
//! * `zones` — a zone map: the rows ordered along a Z-order curve over
//!   the unit's own column bounds, cut into runs of `ZONE` (32) rows,
//!   each with a min/max box over the 8 coordinates.
//!   This is the paper's grouping of correlated files (§3) applied one
//!   level down, to the rows inside a unit. A range scan skips a zone
//!   whose box is disjoint from the query and emits a zone whose box
//!   lies inside it without reading its rows. A top-k scan drops the
//!   zones whose box is farther than the caller's k-th best, visits the
//!   rest nearest box first and stops at the first box farther than the
//!   k-th best so far — MaxD (§3.3.2) inside the unit, carried across
//!   units by the one heap the caller lends to every unit.
//!
//! Filenames are not indexed here: each system keeps one name index
//! over all its units (`SmartStoreSystem`'s `names`), which answers
//! point lookups. [`StorageUnit::point_query`] stays as the unit-local
//! reference — a Bloom probe, then the first match in store order.
//!
//! Two orders coexist. *Store order* is the order of `files`: snapshot
//! bytes, the centroid's summation order and the duplicate-name "first
//! in store order" rule are defined by it, and it changes only by
//! appending and removing. *Row order* is the order of `coords` and
//! `ids`, and it is zone order: zone `z` is the contiguous row range
//! `[start, end)`, so a scan reads each zone's rows and ids as one
//! slice. Every rebuild of the zone map permutes the two columns into
//! the new clustered order in the same pass; between rebuilds an insert
//! appends a row to the tail zone and a removal drains one. Two maps
//! link the orders: `slot_of_row` (the store slot each row projects)
//! and its inverse `row_of_slot`, 8 B per file together.
//!
//! The projection is *derived state*: it is maintained by every
//! mutation path and rebuilt deterministically from `files` in
//! [`StorageUnit::from_parts`], so persisted snapshot images carry no
//! trace of it and need no format change. Scan answers are
//! bit-identical to the record walk because `attr_vector` is a pure
//! function of the record, [`StorageUnit::range_query`] returns its
//! hits in ascending store slot order, and top-k is ordered by
//! `(distance, id)`, not by visit order.

use smartstore_bloom::{BloomFilter, HashFamily};
use smartstore_rtree::Rect;
use smartstore_trace::{FileMetadata, ATTR_DIMS};
use std::collections::HashMap;

/// Rows per zone of a [`ZoneMap`]. Smaller zones prune more rows but
/// cost one box test and, for top-k, one sort entry each. On the
/// `scan_50k` workload (≈ 830-row units) 16-row zones read the fewest
/// rows, but their top-k was ≈ 15 % slower than at 32 or 64 because of
/// the larger zone sort; range time was flat from 16 to 64, so 32.
const ZONE: usize = 32;

/// One zone of a [`ZoneMap`]: the exclusive end of its row range and a
/// conservative min/max box over its rows.
///
/// Invariant: for every row of the zone and every dimension `d`,
/// either the box is *poisoned* in `d` (`lo[d]` and `hi[d]` are NaN)
/// or the value is finite and lies in `[lo[d], hi[d]]`. A non-finite
/// value poisons its dimension, which can then neither cover a query
/// interval, nor be disjoint from one, nor bound a distance: a NaN or
/// infinite coordinate never lets a zone be skipped.
#[derive(Clone, Debug)]
struct Zone {
    end: u32,
    lo: [f64; ATTR_DIMS],
    hi: [f64; ATTR_DIMS],
}

impl Zone {
    fn empty(end: u32) -> Self {
        Self {
            end,
            lo: [f64::INFINITY; ATTR_DIMS],
            hi: [f64::NEG_INFINITY; ATTR_DIMS],
        }
    }

    /// The exact box over `rows`, poisoned in every dimension where a
    /// value is non-finite.
    fn covering(end: u32, rows: &[[f64; ATTR_DIMS]]) -> Self {
        let mut zone = Self::empty(end);
        let mut poisoned = [false; ATTR_DIMS];
        for row in rows {
            for d in 0..ATTR_DIMS {
                let x = row[d];
                zone.lo[d] = if x < zone.lo[d] { x } else { zone.lo[d] };
                zone.hi[d] = if x > zone.hi[d] { x } else { zone.hi[d] };
                poisoned[d] |= !x.is_finite();
            }
        }
        for (d, _) in poisoned.iter().enumerate().filter(|(_, &p)| p) {
            zone.lo[d] = f64::NAN;
            zone.hi[d] = f64::NAN;
        }
        zone
    }

    /// Widens the box to cover one coordinate row.
    fn grow(&mut self, row: &[f64]) {
        for ((l, h), &x) in self.lo.iter_mut().zip(&mut self.hi).zip(row) {
            if x.is_finite() && !l.is_nan() {
                *l = l.min(x);
                *h = h.max(x);
            } else {
                *l = f64::NAN;
                *h = f64::NAN;
            }
        }
    }

    /// A lower bound on the squared distance from `point` to any row of
    /// the zone, exact in floating point: each per-dimension gap is no
    /// larger than the row's `|a − q|`, and the squares are summed in
    /// the row distance's own order. Zero — never skippable — when the
    /// point or the box is non-finite in a dimension.
    fn min_dist(&self, point: &[f64]) -> f64 {
        let mut s = 0.0;
        for ((&l, &h), &q) in self.lo.iter().zip(&self.hi).zip(point) {
            if !(q.is_finite() && l <= h) {
                return 0.0;
            }
            // With `l <= h`, at most one of the two differences is
            // positive, and it is the gap; inside the box both are
            // non-positive and the gap is zero.
            let gap = (l - q).max(q - h).max(0.0);
            s += gap * gap;
        }
        s
    }
}

/// Zone map over a unit's columnar table: the zones that tile the rows
/// in clustered (Z-order) sequence, at most [`ZONE`] rows each with a
/// conservative box, so range and top-k scans skip whole runs; and the
/// two maps between row order and store order.
///
/// Derived state, like the rest of the projection: never persisted,
/// rebuilt (reclustered, with the columns permuted to match) at build,
/// on load, after bulk removal and at every summary refresh. In
/// between, mutations keep each box a superset of its rows: an insert
/// appends a row to the tail zone, a modify grows its zone's box, a
/// removal drops its row and leaves the box as it was.
#[derive(Clone, Debug, Default)]
struct ZoneMap {
    /// The store slot each row projects: row `r` of the columns is
    /// `files[slot_of_row[r]]`.
    slot_of_row: Vec<u32>,
    /// The inverse permutation: `files[slot]` is row `row_of_slot[slot]`.
    row_of_slot: Vec<u32>,
    /// Zone `z` owns rows `zones[z - 1].end..zones[z].end`.
    zones: Vec<Zone>,
}

/// Z-order key of one row: each of the eight coordinates quantized to
/// one byte as `(x − lo) × scale` (`as` saturates and maps NaN to 0),
/// then bit-interleaved so that key byte `b` holds bit `b` of every
/// dimension — the most significant bits of all dimensions lead.
fn morton_key(row: &[f64; ATTR_DIMS], lo: &[f64; ATTR_DIMS], scale: &[f64; ATTR_DIMS]) -> u64 {
    let mut packed = 0u64;
    for d in 0..ATTR_DIMS {
        let q = ((row[d] - lo[d]) * scale[d]) as u8;
        packed |= u64::from(q) << (8 * d);
    }
    transpose_bits(packed)
}

/// Transposes the 8 × 8 bit matrix held in a `u64` (byte = row, bit =
/// column): bit `8r + c` moves to `8c + r` (Hacker's Delight §7-3).
fn transpose_bits(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Moves `rows[src[r]]` and `ids[src[r]]` to position `r` for every
/// `r`, in place, one cycle of the permutation `src` at a time;
/// consumes `src`.
fn permute(rows: &mut [[f64; ATTR_DIMS]], ids: &mut [u64], src: &mut [u64]) {
    const DONE: u64 = u64::MAX;
    for start in 0..src.len() {
        if src[start] == DONE {
            continue;
        }
        let (row, id) = (rows[start], ids[start]);
        let mut r = start;
        loop {
            let from = std::mem::replace(&mut src[r], DONE) as usize;
            if from == start {
                (rows[r], ids[r]) = (row, id);
                break;
            }
            (rows[r], ids[r]) = (rows[from], ids[from]);
            r = from;
        }
    }
}

/// The inverse of a permutation of `0..n`.
fn inverse(perm: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p as usize] = i as u32;
    }
    inv
}

impl ZoneMap {
    /// The zone owning row `row`: a binary search over the zone ends.
    fn zone_at(&self, row: usize) -> usize {
        self.zones.partition_point(|zone| zone.end as usize <= row)
    }

    /// The rows of zone `z`.
    fn rows(&self, z: usize) -> std::ops::Range<usize> {
        let start = if z == 0 { 0 } else { self.zones[z - 1].end };
        start as usize..self.zones[z].end as usize
    }

    /// Records the next store slot as the next row and appends it to
    /// the tail zone, opening a new zone when the tail is full.
    fn push(&mut self, row: &[f64]) {
        let start = self
            .zones
            .len()
            .checked_sub(2)
            .map_or(0, |z| self.zones[z].end);
        let tail_full = self
            .zones
            .last()
            .is_none_or(|tail| (tail.end - start) as usize >= ZONE);
        let n = self.slot_of_row.len() as u32;
        self.slot_of_row.push(n);
        self.row_of_slot.push(n);
        if tail_full {
            self.zones.push(Zone::empty(n + 1));
        }
        if let Some(tail) = self.zones.last_mut() {
            tail.end = n + 1;
            tail.grow(row);
        }
    }

    /// Drops store slot `slot` from both maps and renumbers the later
    /// slots and rows, like the `files.remove` and column `drain` it
    /// accompanies; the boxes are left as they are. Returns the row
    /// that held the slot.
    fn remove(&mut self, slot: usize) -> usize {
        let row = self.row_of_slot.remove(slot);
        self.slot_of_row.remove(row as usize);
        // Select form, so that both renumbering passes vectorize.
        let slot = slot as u32;
        for s in &mut self.slot_of_row {
            *s -= u32::from(*s > slot);
        }
        for r in &mut self.row_of_slot {
            *r -= u32::from(*r > row);
        }
        let z = self.zone_at(row as usize);
        for zone in &mut self.zones[z..] {
            zone.end -= 1;
        }
        row as usize
    }

    /// Verifies the zone map over the row-ordered `rows`: the two maps
    /// inverse permutations of `0..n`, the zones tiling `0..n` as
    /// contiguous row ranges of at most [`ZONE`] rows each, and every
    /// row inside its zone's box.
    fn check(&self, rows: &[[f64; ATTR_DIMS]]) -> Result<(), String> {
        let n = rows.len();
        if self.slot_of_row.len() != n || self.row_of_slot.len() != n {
            return Err(format!(
                "slot_of_row holds {} and row_of_slot {} entries for {n} rows",
                self.slot_of_row.len(),
                self.row_of_slot.len()
            ));
        }
        for (r, &s) in self.slot_of_row.iter().enumerate() {
            if self.row_of_slot.get(s as usize) != Some(&(r as u32)) {
                return Err(format!(
                    "row {r} projects slot {s}, which maps back to row {:?}",
                    self.row_of_slot.get(s as usize)
                ));
            }
        }
        if self.zones.last().map_or(0, |z| z.end as usize) != n {
            return Err(format!("zones do not end at {n}"));
        }
        let mut start = 0u32;
        for (z, zone) in self.zones.iter().enumerate() {
            if zone.end < start || (zone.end - start) as usize > ZONE {
                return Err(format!("zone {z} spans rows {start}..{}", zone.end));
            }
            start = zone.end;
            for r in self.rows(z) {
                for (d, &x) in rows[r].iter().enumerate() {
                    let (l, h) = (zone.lo[d], zone.hi[d]);
                    if !(l.is_nan() || (x.is_finite() && l <= x && x <= h)) {
                        return Err(format!(
                            "row {r} dim {d} = {x} outside zone {z} box [{l}, {h}]"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Work performed by a local query, as raw counts
/// ([`crate::routing::RouteTrace`] sums `rows_read` per query).
///
/// Counting rule for `records`, the paper's §5 charge: scan-evaluated
/// queries (range, top-k) examine every record of the unit; a point
/// lookup is charged one record on a hit and none on a miss — the
/// *indexed* rule of the cost model, in which a name index resolves the
/// filename behind the Bloom probe, so a Bloom false positive costs a
/// hash probe, not a prefix scan. Only `smartstore-bench` reads it.
///
/// `rows_read` is what the zone map leaves of that full scan: the rows
/// whose coordinates the scan actually read. It depends on the unit's
/// history (boxes only grow between refreshes) and on the caller's
/// running k-th best, and the paper's cost model does not read it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalWork {
    /// Metadata records examined.
    pub records: usize,
    /// Rows whose coordinates a range or top-k scan read: the rows of
    /// the zones a range scan masks (not those it skips or emits
    /// whole), and of the zones a top-k scan visits. Zero for a point
    /// lookup.
    pub rows_read: usize,
}

/// Bounded top-k accumulator over `(file_id, squared distance)` pairs:
/// a max-heap of the k best seen so far, ordered by `(distance, id)`
/// under `f64::total_cmp` (no panic path on NaN). O(log k) per
/// candidate instead of the O(n log n) full sort, and
/// [`TopK::into_sorted`] yields exactly what
/// `sort_by((distance, id)) + truncate(k)` over all pushed candidates
/// would.
///
/// One heap serves a whole query: the system lends it to every unit it
/// probes ([`StorageUnit::topk_into`]), so its k-th best is the MaxD
/// bound inside each unit as well as between them. It also carries the
/// units' zone-order buffer, so probing a unit allocates nothing.
#[derive(Clone, Debug)]
pub(crate) struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<ScoredId>,
    /// Scratch for [`StorageUnit::topk_into`]: the zones of one unit
    /// that survive the bound, as `(box distance, zone)`.
    near: Vec<(f64, u32)>,
}

#[derive(Clone, Copy, Debug)]
struct ScoredId {
    d: f64,
    id: u64,
}

impl PartialEq for ScoredId {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for ScoredId {}

impl Ord for ScoredId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.d.total_cmp(&other.d).then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for ScoredId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k.min(1 << 12) + 1),
            near: Vec::new(),
        }
    }

    /// The current k-th best distance — the MaxD pruning bound of
    /// §3.3.2. Infinite until k candidates are retained.
    pub(crate) fn max_d(&self) -> f64 {
        if self.heap.len() == self.k {
            self.heap.peek().map_or(f64::INFINITY, |e| e.d)
        } else {
            f64::INFINITY
        }
    }

    /// Offers one candidate.
    pub(crate) fn push(&mut self, id: u64, d: f64) {
        if self.k == 0 {
            return;
        }
        let entry = ScoredId { d, id };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            if entry < *worst {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// The retained candidates in ascending `(distance, id)` order.
    pub(crate) fn into_sorted(self) -> Vec<(u64, f64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| (e.id, e.d))
            .collect()
    }
}

/// One metadata server's local state.
#[derive(Clone, Debug)]
pub struct StorageUnit {
    /// Stable unit id (also its simulator node id).
    pub id: usize,
    files: Vec<FileMetadata>,
    bloom: BloomFilter,
    centroid: Vec<f64>,
    mbr: Option<Rect>,
    /// Columnar projection: flat row-major `n × ATTR_DIMS` attribute
    /// table in row (zone) order; row `r` is
    /// `files[zones.slot_of_row[r]].attr_vector()`.
    coords: Vec<f64>,
    /// `file_id` column in row order, beside `coords`.
    ids: Vec<u64>,
    /// Per-zone boxes over the rows and the row ↔ store slot maps (see
    /// [`ZoneMap`]); drives zone skipping in range and top-k scans.
    zones: ZoneMap,
}

impl StorageUnit {
    /// Creates a unit with the given Bloom geometry and initial files,
    /// in the default hash family.
    pub fn new(
        id: usize,
        bloom_bits: usize,
        bloom_hashes: usize,
        files: Vec<FileMetadata>,
    ) -> Self {
        Self::with_family(id, bloom_bits, bloom_hashes, HashFamily::default(), files)
    }

    /// Creates a unit whose Bloom filter uses an explicit hash family.
    pub fn with_family(
        id: usize,
        bloom_bits: usize,
        bloom_hashes: usize,
        family: HashFamily,
        files: Vec<FileMetadata>,
    ) -> Self {
        let mut unit = Self {
            id,
            files: Vec::new(),
            bloom: BloomFilter::with_family(bloom_bits, bloom_hashes, family),
            centroid: vec![0.0; ATTR_DIMS],
            mbr: None,
            coords: Vec::new(),
            ids: Vec::new(),
            zones: ZoneMap::default(),
        };
        for f in files {
            unit.insert_file(f);
        }
        unit.recluster();
        unit
    }

    /// Reassembles a unit from serialized state *without* recomputing
    /// summaries: a persisted unit must come back with exactly the
    /// (possibly stale) Bloom filter, centroid and MBR it was saved
    /// with, so that queries against the reopened system answer
    /// identically to the live one. The columnar projection is derived
    /// purely from `files`, so it is rebuilt here deterministically —
    /// persisted images carry no columnar section.
    pub fn from_parts(
        id: usize,
        files: Vec<FileMetadata>,
        bloom: BloomFilter,
        centroid: Vec<f64>,
        mbr: Option<Rect>,
    ) -> Self {
        assert_eq!(centroid.len(), ATTR_DIMS, "from_parts: centroid dims");
        let mut unit = Self {
            id,
            files,
            bloom,
            centroid,
            mbr,
            coords: Vec::new(),
            ids: Vec::new(),
            zones: ZoneMap::default(),
        };
        unit.rebuild_columns();
        unit
    }

    /// Rebuilds the derived columnar projection from `files`: projects
    /// the records in store order, then reclusters.
    fn rebuild_columns(&mut self) {
        let n = self.files.len();
        self.coords.clear();
        self.coords.reserve(n * ATTR_DIMS);
        self.ids.clear();
        self.ids.reserve(n);
        for f in &self.files {
            self.coords.extend_from_slice(&f.attr_vector());
            self.ids.push(f.file_id);
        }
        self.zones.slot_of_row = (0..n as u32).collect();
        self.zones.row_of_slot = self.zones.slot_of_row.clone();
        self.recluster();
    }

    /// Rebuilds the zone map and permutes the columns to match, in one
    /// pass. Rows are ordered by Z-order key, each coordinate quantized
    /// to 8 bits against the unit's own finite column bounds; the store
    /// slot rides in the low bits of the key, so one `u64` sort orders
    /// the rows by Z-order prefix with ties in store order, whatever
    /// row order the columns were in. The columns and both maps are
    /// then permuted in place into the sorted order, which is cut into
    /// [`ZONE`]-row zones with exact boxes. Nothing the size of a
    /// column is allocated. The loops are written as selects over
    /// fixed-size rows so they vectorize: this runs at every summary
    /// refresh and on every snapshot load.
    fn recluster(&mut self) {
        let (rows, _) = self.coords.as_chunks::<ATTR_DIMS>();
        // Column bounds over the finite values.
        let mut lo = [f64::INFINITY; ATTR_DIMS];
        let mut hi = [f64::NEG_INFINITY; ATTR_DIMS];
        for row in rows {
            for d in 0..ATTR_DIMS {
                let (x, finite) = (row[d], row[d].is_finite());
                lo[d] = if finite && x < lo[d] { x } else { lo[d] };
                hi[d] = if finite && x > hi[d] { x } else { hi[d] };
            }
        }
        // A flat or empty column quantizes to 0.
        let scale: [f64; ATTR_DIMS] = std::array::from_fn(|d| {
            let span = hi[d] - lo[d];
            if span > 0.0 && span.is_finite() {
                255.0 / span
            } else {
                0.0
            }
        });
        let slot_bits = usize::BITS - rows.len().saturating_sub(1).leading_zeros();
        let slot_mask = (1u64 << slot_bits) - 1;
        let mut keys: Vec<u64> = rows
            .iter()
            .zip(&self.zones.slot_of_row)
            .map(|(row, &slot)| (morton_key(row, &lo, &scale) & !slot_mask) | u64::from(slot))
            .collect();
        keys.sort_unstable();
        // Each key becomes the old row the new row `r` is taken from.
        let ZoneMap {
            slot_of_row,
            row_of_slot,
            zones,
        } = &mut self.zones;
        for (r, key) in keys.iter_mut().enumerate() {
            let slot = (*key & slot_mask) as u32;
            slot_of_row[r] = slot;
            *key = u64::from(row_of_slot[slot as usize]);
        }
        for (r, &slot) in slot_of_row.iter().enumerate() {
            row_of_slot[slot as usize] = r as u32;
        }
        let (rows, _) = self.coords.as_chunks_mut::<ATTR_DIMS>();
        permute(rows, &mut self.ids, &mut keys);
        zones.clear();
        zones.extend(
            rows.chunks(ZONE)
                .enumerate()
                .map(|(z, run)| Zone::covering((z * ZONE + run.len()) as u32, run)),
        );
    }

    /// Appends a file's columnar projection, `row` being its
    /// `attr_vector()`, as the last row, in the zone map's tail (call
    /// immediately before pushing the record onto `files`).
    fn append_columns(&mut self, row: &[f64], file_id: u64) {
        self.zones.push(row);
        self.coords.extend_from_slice(row);
        self.ids.push(file_id);
    }

    /// Drops store slot `slot` from the columnar projection: its row
    /// leaves the columns and later slots and rows shift down by one.
    /// O(n), matching the `files.remove(slot)` memmove it accompanies.
    fn remove_column_slot(&mut self, slot: usize) {
        let row = self.zones.remove(slot);
        self.coords.drain(row * ATTR_DIMS..(row + 1) * ATTR_DIMS);
        self.ids.remove(row);
    }

    /// Number of files stored.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the unit holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The unit's files.
    pub fn files(&self) -> &[FileMetadata] {
        &self.files
    }

    /// The unit's filename Bloom filter.
    pub fn bloom(&self) -> &BloomFilter {
        &self.bloom
    }

    /// The unit's semantic vector: the centroid of its files' attribute
    /// vectors ("Each node can be summarized by a geometric centroid of
    /// all metadata it represents", §3.1.1).
    pub fn centroid(&self) -> &[f64] {
        &self.centroid
    }

    /// The unit's MBR in attribute space, `None` when empty.
    pub fn mbr(&self) -> Option<&Rect> {
        self.mbr.as_ref()
    }

    /// The flat row-major `n × ATTR_DIMS` columnar attribute table, in
    /// row (zone) order: each row equals one file's `attr_vector()`
    /// bit-for-bit, every file has exactly one row, and the row order
    /// is not store order.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The `file_id` column, in the row order of [`Self::coords`]: the
    /// multiset of the files' ids, not in store order.
    pub fn file_ids(&self) -> &[u64] {
        &self.ids
    }

    /// Verifies the columnar projection against the records (test and
    /// diagnostic hook; the coherence proptest drives this under
    /// arbitrary mutation streams): the two slot maps inverse
    /// permutations, each row and id equal to its store slot's record
    /// bit-for-bit, and the zones contiguous row ranges whose boxes
    /// hold their rows.
    pub fn check_columnar_coherence(&self) -> Result<(), String> {
        if self.coords.len() != self.files.len() * ATTR_DIMS {
            return Err(format!(
                "coords holds {} values for {} files",
                self.coords.len(),
                self.files.len()
            ));
        }
        if self.ids.len() != self.files.len() {
            return Err(format!(
                "ids holds {} entries for {} files",
                self.ids.len(),
                self.files.len()
            ));
        }
        let (rows, _) = self.coords.as_chunks::<ATTR_DIMS>();
        self.zones.check(rows)?;
        for (r, &slot) in self.zones.slot_of_row.iter().enumerate() {
            let f = &self.files[slot as usize];
            if self.ids[r] != f.file_id {
                return Err(format!(
                    "ids[{r}] = {} but its slot {slot} holds file {}",
                    self.ids[r], f.file_id
                ));
            }
            let v = f.attr_vector();
            if rows[r]
                .iter()
                .zip(v.iter())
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!(
                    "coords row {r} diverges from the attr_vector of slot {slot}"
                ));
            }
        }
        Ok(())
    }

    /// Adds a file, updating Bloom filter, centroid, MBR and the
    /// columnar projection.
    pub fn insert_file(&mut self, file: FileMetadata) {
        self.bloom.insert(file.name.as_bytes());
        let v = file.attr_vector();
        let n = self.files.len() as f64;
        for (c, &x) in self.centroid.iter_mut().zip(v.iter()) {
            *c = (*c * n + x) / (n + 1.0);
        }
        let point = Rect::point(&v);
        self.mbr = Some(match self.mbr.take() {
            Some(m) => m.union(&point),
            None => point,
        });
        self.append_columns(&v, file.file_id);
        self.files.push(file);
    }

    /// Removes a file by id. The Bloom filter keeps the stale name (a
    /// standard Bloom limitation; the paper accepts "false positives and
    /// false negatives … identified when the target metadata is
    /// accessed", §5.4.1); the centroid and MBR are recomputed.
    pub fn remove_file(&mut self, file_id: u64) -> Option<FileMetadata> {
        let removed = self.remove_file_raw(file_id)?;
        self.recompute_summaries();
        Some(removed)
    }

    /// Removes a batch of files by id with a *single* order-preserving
    /// compaction pass and one summary recompute — the bulk form of
    /// [`Self::remove_file`], whose per-file `Vec::remove` +
    /// `recompute_summaries` is O(n) each, O(n·m) for m removals.
    /// Returns the removed records in store order; ids not present are
    /// ignored. The final state is bit-identical to one
    /// [`Self::remove_file`] call per listed id — the list is a
    /// *multiset*, so an id listed m times removes the first m
    /// occurrences in store order (duplicate ids can exist —
    /// [`Self::insert_file_raw`] does not dedupe).
    pub fn remove_files(&mut self, file_ids: &[u64]) -> Vec<FileMetadata> {
        if file_ids.is_empty() {
            return Vec::new();
        }
        // Multiset of pending removals: an id listed twice removes two
        // occurrences, exactly like two remove_file calls would.
        let mut victims: HashMap<u64, usize> = HashMap::new();
        for &id in file_ids {
            *victims.entry(id).or_insert(0) += 1;
        }
        // Store order decides which occurrences go; `new_slot` maps each
        // old slot to its slot after compaction, `u32::MAX` if removed.
        let old_files = std::mem::take(&mut self.files);
        self.files = Vec::with_capacity(old_files.len());
        let mut new_slot = Vec::with_capacity(old_files.len());
        let mut removed = Vec::new();
        for f in old_files {
            match victims.get_mut(&f.file_id) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    new_slot.push(u32::MAX);
                    removed.push(f);
                }
                _ => {
                    new_slot.push(self.files.len() as u32);
                    self.files.push(f);
                }
            }
        }
        // Compact the columns in place, keeping row order; the summary
        // recompute below reclusters them.
        let mut kept = 0;
        for r in 0..self.ids.len() {
            let slot = new_slot[self.zones.slot_of_row[r] as usize];
            if slot != u32::MAX {
                self.coords
                    .copy_within(r * ATTR_DIMS..(r + 1) * ATTR_DIMS, kept * ATTR_DIMS);
                self.ids[kept] = self.ids[r];
                self.zones.slot_of_row[kept] = slot;
                kept += 1;
            }
        }
        self.coords.truncate(kept * ATTR_DIMS);
        self.ids.truncate(kept);
        self.zones.slot_of_row.truncate(kept);
        self.zones.row_of_slot = inverse(&self.zones.slot_of_row);
        self.recompute_summaries();
        removed
    }

    /// Adds a file *without* refreshing the unit's summaries — the
    /// change stream mutates data immediately while index summaries
    /// (Bloom/centroid/MBR) stay stale until a lazy update
    /// ([`Self::recompute_summaries`]) fires, per §3.4/§4.4. The
    /// columnar projection (data, not index) is maintained eagerly.
    pub fn insert_file_raw(&mut self, file: FileMetadata) {
        self.append_columns(&file.attr_vector(), file.file_id);
        self.files.push(file);
    }

    /// The first store slot holding `file_id`. One pass over the dense
    /// id column rather than a stride through the records; the column
    /// is in row order, so the pass keeps the smallest slot among the
    /// matching rows, in select form so that it vectorizes.
    fn slot_of(&self, file_id: u64) -> Option<usize> {
        let mut first = u32::MAX;
        for (&id, &slot) in self.ids.iter().zip(&self.zones.slot_of_row) {
            first = if id == file_id {
                first.min(slot)
            } else {
                first
            };
        }
        (first != u32::MAX).then_some(first as usize)
    }

    /// Removes a file by id without refreshing summaries.
    pub fn remove_file_raw(&mut self, file_id: u64) -> Option<FileMetadata> {
        let slot = self.slot_of(file_id)?;
        self.remove_column_slot(slot);
        Some(self.files.remove(slot))
    }

    /// Replaces a file's metadata in place without refreshing summaries;
    /// inserts if absent. Returns the record it replaced (`None` when it
    /// inserted), so a caller indexing names can re-key a rename.
    pub fn modify_file_raw(&mut self, file: FileMetadata) -> Option<FileMetadata> {
        match self.slot_of(file.file_id) {
            Some(slot) => {
                let row = file.attr_vector();
                let r = self.zones.row_of_slot[slot] as usize;
                self.coords[r * ATTR_DIMS..(r + 1) * ATTR_DIMS].copy_from_slice(&row);
                // The old row's extent is kept (the box stays a superset).
                let z = self.zones.zone_at(r);
                self.zones.zones[z].grow(&row);
                Some(std::mem::replace(&mut self.files[slot], file))
            }
            None => {
                self.insert_file_raw(file);
                None
            }
        }
    }

    /// Rebuilds centroid, MBR and Bloom filter from current contents
    /// (used after bulk changes and version flushes), and reclusters the
    /// zone map. Reads the columnar table instead of re-projecting every
    /// record, walking it in store order through `row_of_slot` — the
    /// same values summed in the same order, so the recomputed
    /// summaries are bit-identical to the pre-columnar walk.
    pub fn recompute_summaries(&mut self) {
        self.recluster();
        let n = self.files.len();
        self.centroid = vec![0.0; ATTR_DIMS];
        self.mbr = None;
        self.bloom.clear();
        if n == 0 {
            return;
        }
        let (rows, _) = self.coords.as_chunks::<ATTR_DIMS>();
        // The MBR folds each row in with the `min`/`max` that
        // `Rect::union` applies, in store order, without a `Rect` per row.
        let first = &rows[self.zones.row_of_slot[0] as usize];
        let (mut lo, mut hi) = (first.to_vec(), first.to_vec());
        for &r in &self.zones.row_of_slot {
            let row = &rows[r as usize];
            for (c, &x) in self.centroid.iter_mut().zip(row) {
                *c += x;
            }
            for ((l, h), &x) in lo.iter_mut().zip(&mut hi).zip(row) {
                *l = l.min(x);
                *h = h.max(x);
            }
        }
        self.mbr = Some(Rect::new(lo, hi));
        for c in &mut self.centroid {
            *c /= n as f64;
        }
        for f in &self.files {
            self.bloom.insert(f.name.as_bytes());
        }
    }

    /// Rebuilds the Bloom filter alone, in the given hash family, from
    /// the unit's current file names — the persisted-image migration
    /// path (the records are the authority on names).
    /// Centroid and MBR are deliberately untouched: they may be stale,
    /// and staleness is answer-relevant (§3.4), so migration must not
    /// refresh them.
    pub fn rebuild_bloom(&mut self, family: HashFamily) {
        let mut bloom =
            BloomFilter::with_family(self.bloom.n_bits(), self.bloom.n_hashes(), family);
        for f in &self.files {
            bloom.insert(f.name.as_bytes());
        }
        self.bloom = bloom;
    }

    /// Unit-local point query, the reference the system's name index
    /// must agree with: probe the Bloom filter, and on a positive hit
    /// return the first file of that name in store order. A linear
    /// scan — serving never calls it — charged by the indexed rule of
    /// [`LocalWork`]: one record on a hit, none on a miss.
    pub fn point_query(&self, name: &str) -> (Option<&FileMetadata>, LocalWork) {
        let mut work = LocalWork::default();
        if !self.bloom.contains(name.as_bytes()) {
            return (None, work);
        }
        let hit = self.files.iter().find(|f| f.name == name);
        work.records = usize::from(hit.is_some());
        (hit, work)
    }

    /// Local range query over the projected attribute space: the ids of
    /// the matching files, in ascending store slot order. The scan the
    /// system runs in every routed unit (`range_into`), with its hits
    /// mapped back to store order.
    pub fn range_query(&self, lo: &[f64], hi: &[f64]) -> (Vec<u64>, LocalWork) {
        let mut slots = Vec::new();
        let work = self.scan_range(lo, hi, |rows| {
            slots.extend_from_slice(&self.zones.slot_of_row[rows]);
        });
        slots.sort_unstable();
        let out = slots
            .iter()
            .map(|&slot| self.files[slot as usize].file_id)
            .collect();
        (out, work)
    }

    /// Appends the ids of the files inside `[lo, hi]` to `out`, in row
    /// order — the shard's result vector, which the caller sorts and
    /// dedups once over all units.
    pub(crate) fn range_into(&self, lo: &[f64], hi: &[f64], out: &mut Vec<u64>) -> LocalWork {
        self.scan_range(lo, hi, |rows| out.extend_from_slice(&self.ids[rows]))
    }

    /// The range scan: zone by zone over the unit's zone map, with no
    /// per-record projection, passing each run of matching rows to
    /// `emit`. For each zone, looking only at the dimensions the query
    /// constrains:
    ///
    /// * a box disjoint from the query in any dimension skips the zone;
    /// * a box inside the query in every dimension emits all its rows;
    /// * otherwise a mask pass over the zone's contiguous rows checks,
    ///   column at a time, only the dimensions the box does not already
    ///   cover.
    ///
    /// The boxes are conservative supersets of their rows (unlike the
    /// possibly-stale unit MBR), so every decision is answer-preserving.
    /// The full-scan cost accounting (`records = len()`) is unchanged.
    fn scan_range(
        &self,
        lo: &[f64],
        hi: &[f64],
        mut emit: impl FnMut(std::ops::Range<usize>),
    ) -> LocalWork {
        let mut work = LocalWork::default();
        // MBR pre-check, against the box's bounds in place: disjoint
        // units do no record work.
        if let Some(m) = &self.mbr {
            let meets = m
                .lo()
                .iter()
                .zip(m.hi())
                .zip(lo.iter().zip(hi))
                .all(|((&l, &h), (&ql, &qh))| l <= qh && ql <= h);
            if !meets {
                return work;
            }
        }
        // The row walk this replaces zipped `lo`/`hi` against each row,
        // so only the first `min(lo, hi, ATTR_DIMS)` dimensions ever
        // constrained; dims beyond that stay unconstrained here too.
        let checked_dims = lo.len().min(hi.len()).min(ATTR_DIMS);
        let (rows, _) = self.coords.as_chunks::<ATTR_DIMS>();
        let mut mask = [false; ZONE];
        'zones: for (z, zone) in self.zones.zones.iter().enumerate() {
            let run = self.zones.rows(z);
            let mut active = [false; ATTR_DIMS];
            for d in 0..checked_dims {
                // Comparisons with a NaN query bound or a poisoned box
                // are false: the zone is neither skipped nor covered.
                if zone.hi[d] < lo[d] || hi[d] < zone.lo[d] {
                    continue 'zones;
                }
                active[d] = !(lo[d] <= zone.lo[d] && zone.hi[d] <= hi[d]);
            }
            if !active.contains(&true) {
                emit(run);
                continue;
            }
            let block = &rows[run.clone()];
            work.rows_read += block.len();
            let mask = &mut mask[..block.len()];
            mask.fill(true);
            for d in (0..checked_dims).filter(|&d| active[d]) {
                let (l, h) = (lo[d], hi[d]);
                let mut keep_any = false;
                for (m, row) in mask.iter_mut().zip(block) {
                    let x = row[d];
                    *m = *m && l <= x && x <= h;
                    keep_any |= *m;
                }
                if !keep_any {
                    continue 'zones; // zone fully rejected — skip remaining dims
                }
            }
            let mut r = run.start;
            for hits in mask.chunk_by(|a, b| a == b) {
                if hits[0] {
                    emit(r..r + hits.len());
                }
                r += hits.len();
            }
        }
        work.records = self.files.len();
        work
    }

    /// Local top-k: the unit's k nearest files to `point`, with squared
    /// distances, `total_cmp` ordered (no NaN panic path) and
    /// bit-identical to sort-then-truncate output. The scan the system
    /// runs in every unit it probes (`topk_into`), given a heap of its
    /// own.
    pub fn topk_query(&self, point: &[f64], k: usize) -> (Vec<(u64, f64)>, LocalWork) {
        let mut top = TopK::new(k);
        let work = self.topk_into(point, &mut top);
        (top.into_sorted(), work)
    }

    /// Offers the unit's rows to `top`, the heap of the query's k best
    /// so far across units; afterwards it holds the k best of
    /// everything it held and every row of this unit. Its k-th best is
    /// the MaxD bound of §3.3.2 inside the unit: zones whose box lies
    /// *strictly* farther are dropped before the rest are sorted
    /// nearest box first, and the walk stops at the first box strictly
    /// farther than the current k-th best. No row of a skipped zone can
    /// enter the heap, while a row at exactly that distance (a tie
    /// broken by a smaller id) still can. Every unit counts its full
    /// scan in `records`, `k == 0` included, in which case no row is
    /// read.
    pub(crate) fn topk_into(&self, point: &[f64], top: &mut TopK) -> LocalWork {
        let mut work = LocalWork {
            records: self.files.len(),
            ..LocalWork::default()
        };
        if top.k == 0 {
            return work;
        }
        let mut max_d = top.max_d();
        let mut near = std::mem::take(&mut top.near);
        near.clear();
        near.extend(
            self.zones
                .zones
                .iter()
                .zip(0u32..)
                .map(|(zone, z)| (zone.min_dist(point), z))
                .filter(|&(lower, _)| {
                    lower.partial_cmp(&max_d) != Some(std::cmp::Ordering::Greater)
                }),
        );
        near.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (rows, _) = self.coords.as_chunks::<ATTR_DIMS>();
        for &(lower, z) in &near {
            if lower > max_d {
                break;
            }
            let run = self.zones.rows(z as usize);
            work.rows_read += run.len();
            for (row, &id) in rows[run.clone()].iter().zip(&self.ids[run]) {
                let mut d = 0.0;
                for (&a, &q) in row.iter().zip(point) {
                    d += (a - q) * (a - q);
                }
                // Skip only on `d > max_d`, never on `!(d <= max_d)`: a
                // NaN distance is still offered, and `push` ranks it by
                // `total_cmp` — an equal distance with a smaller id, or
                // a negative NaN, still displaces the worst.
                if d > max_d {
                    continue;
                }
                top.push(id, d);
                max_d = top.max_d();
            }
        }
        top.near = near;
        work
    }

    /// Approximate resident bytes of the unit's index state (Bloom
    /// filter + centroid + MBR), excluding the metadata records
    /// themselves — the quantity Fig. 7 compares across systems. The
    /// columnar projection is a scan acceleration of the *data*, not
    /// part of the paper's index-size comparison, so it is excluded
    /// like the records it mirrors.
    pub fn index_size_bytes(&self) -> usize {
        self.bloom.size_bytes() + ATTR_DIMS * 8 * 3
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use smartstore_trace::{GeneratorConfig, MetadataPopulation};

    fn unit_with(n: usize) -> StorageUnit {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files: n,
            n_clusters: 3,
            seed: 5,
            ..GeneratorConfig::default()
        });
        StorageUnit::new(0, 1024, 7, pop.files)
    }

    #[test]
    fn centroid_is_mean_of_vectors() {
        let u = unit_with(50);
        let mut mean = vec![0.0; ATTR_DIMS];
        for f in u.files() {
            for (m, v) in mean.iter_mut().zip(f.attr_vector()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= 50.0;
        }
        for (a, b) in u.centroid().iter().zip(&mean) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn mbr_contains_every_file_vector() {
        let u = unit_with(80);
        let mbr = u.mbr().unwrap();
        for f in u.files() {
            assert!(mbr.contains_point(&f.attr_vector()));
        }
    }

    #[test]
    fn point_query_hits_own_files() {
        let u = unit_with(30);
        let name = u.files()[17].name.clone();
        let (hit, work) = u.point_query(&name);
        assert_eq!(hit.unwrap().name, name);
        assert!(work.records >= 1);
    }

    #[test]
    fn point_query_misses_cheaply_via_bloom() {
        let u = unit_with(30);
        let (hit, work) = u.point_query("definitely_not_here_123456");
        assert!(hit.is_none());
        // With overwhelming probability the Bloom filter prunes the scan.
        assert_eq!(work.records, 0, "bloom should prune the record scan");
    }

    #[test]
    fn range_query_matches_filter() {
        let u = unit_with(100);
        let (lo, hi) = {
            let m = u.mbr().unwrap();
            (m.lo().to_vec(), m.hi().to_vec())
        };
        let (all, _) = u.range_query(&lo, &hi);
        assert_eq!(all.len(), 100, "whole-domain range returns everything");
        // Disjoint query does zero record work.
        let far_lo: Vec<f64> = hi.iter().map(|&x| x + 100.0).collect();
        let far_hi: Vec<f64> = hi.iter().map(|&x| x + 200.0).collect();
        let (none, work) = u.range_query(&far_lo, &far_hi);
        assert!(none.is_empty());
        assert_eq!(work.records, 0);
    }

    #[test]
    fn topk_returns_sorted_k() {
        let u = unit_with(60);
        let q = u.files()[10].attr_vector();
        let (top, work) = u.topk_query(&q, 5);
        assert_eq!(top.len(), 5);
        assert_eq!(work.records, 60);
        assert_eq!(
            top[0].0,
            u.files()[10].file_id,
            "query at a file finds it first"
        );
        for w in top.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn insert_and_remove_roundtrip() {
        let mut u = unit_with(10);
        let extra = {
            let mut f = u.files()[0].clone();
            f.file_id = 9999;
            f.name = "extra_file".into();
            f
        };
        u.insert_file(extra);
        assert_eq!(u.len(), 11);
        assert!(u.point_query("extra_file").0.is_some());
        let removed = u.remove_file(9999).unwrap();
        assert_eq!(removed.name, "extra_file");
        assert_eq!(u.len(), 10);
        assert!(u.point_query("extra_file").0.is_none());
    }

    #[test]
    fn empty_unit_behaviour() {
        let u = StorageUnit::new(3, 128, 3, vec![]);
        assert!(u.is_empty());
        assert!(u.mbr().is_none());
        let (r, _) = u.range_query(&[0.0; ATTR_DIMS], &[1.0; ATTR_DIMS]);
        assert!(r.is_empty());
        let (t, _) = u.topk_query(&[0.0; ATTR_DIMS], 4);
        assert!(t.is_empty());
    }

    #[test]
    fn recompute_after_bulk_mutation() {
        let mut u = unit_with(20);
        let before_mbr = u.mbr().unwrap().clone();
        // Remove half the files in one compaction pass.
        let ids: Vec<u64> = u.files()[..10].iter().map(|f| f.file_id).collect();
        let removed = u.remove_files(&ids);
        assert_eq!(removed.len(), 10);
        assert_eq!(u.len(), 10);
        let after = u.mbr().unwrap();
        assert!(
            before_mbr.contains_rect(after),
            "MBR must tighten, not grow"
        );
    }

    #[test]
    fn remove_files_matches_sequential_removal() {
        let mut bulk = unit_with(40);
        let mut seq = bulk.clone();
        // Every third file plus an unknown id (ignored by both paths).
        let mut ids: Vec<u64> = bulk.files().iter().step_by(3).map(|f| f.file_id).collect();
        ids.push(u64::MAX);
        let removed = bulk.remove_files(&ids);
        for &id in &ids {
            seq.remove_file(id);
        }
        assert_eq!(removed.len(), ids.len() - 1);
        assert_eq!(bulk.files(), seq.files(), "store order must match");
        assert_eq!(bulk.centroid(), seq.centroid());
        assert_eq!(bulk.mbr(), seq.mbr());
        assert_eq!(bulk.bloom().words(), seq.bloom().words());
        bulk.check_columnar_coherence().unwrap();
    }

    #[test]
    fn remove_files_honors_id_multiplicity() {
        // insert_file_raw does not dedupe ids; the removal list is a
        // multiset, so listing an id once removes one occurrence and
        // listing it twice removes both — exactly like the same number
        // of remove_file calls.
        let mut bulk = unit_with(6);
        let mut dup = bulk.files()[1].clone();
        dup.name = "dup_copy".into();
        bulk.insert_file_raw(dup);
        let target = bulk.files()[1].file_id;

        let mut seq = bulk.clone();
        let mut twice = bulk.clone();
        let removed = bulk.remove_files(&[target]);
        seq.remove_file(target);
        assert_eq!(removed.len(), 1);
        assert_eq!(bulk.files(), seq.files());
        assert_eq!(bulk.len(), 6, "the duplicate survives a single listing");
        bulk.check_columnar_coherence().unwrap();

        let removed = twice.remove_files(&[target, target]);
        seq.remove_file(target);
        assert_eq!(removed.len(), 2);
        assert_eq!(twice.files(), seq.files());
        assert_eq!(twice.len(), 5, "a double listing removes both");
        twice.check_columnar_coherence().unwrap();
    }

    #[test]
    fn columnar_projection_mirrors_files() {
        let mut u = unit_with(25);
        u.check_columnar_coherence().unwrap();
        assert_eq!(u.coords().len(), 25 * ATTR_DIMS);
        // Row `r` projects the file at store slot `slot_of_row[r]`.
        for (r, &slot) in u.zones.slot_of_row.iter().enumerate() {
            let f = &u.files()[slot as usize];
            assert_eq!(u.file_ids()[r], f.file_id);
            assert_eq!(
                &u.coords()[r * ATTR_DIMS..(r + 1) * ATTR_DIMS],
                f.attr_vector().as_slice()
            );
        }
        // Stays coherent through raw mutations and a rename.
        let mut extra = u.files()[0].clone();
        extra.file_id = 777;
        extra.name = "renamable".into();
        u.insert_file_raw(extra.clone());
        extra.name = "renamed".into();
        extra.size += 1;
        u.modify_file_raw(extra);
        u.remove_file_raw(u.files()[3].file_id);
        u.check_columnar_coherence().unwrap();
        let reopened = StorageUnit::from_parts(
            u.id,
            u.files().to_vec(),
            u.bloom().clone(),
            u.centroid().to_vec(),
            u.mbr().cloned(),
        );
        reopened.check_columnar_coherence().unwrap();
    }

    #[test]
    fn point_query_duplicate_names_hit_first_slot() {
        let mut u = unit_with(10);
        let mut dup = u.files()[4].clone();
        dup.file_id = 5001;
        dup.name = "twin".into();
        u.insert_file(dup.clone());
        dup.file_id = 5002;
        u.insert_file(dup);
        let (hit, work) = u.point_query("twin");
        assert_eq!(hit.unwrap().file_id, 5001, "first slot in store order");
        assert_eq!(work.records, 1, "indexed lookup examines one record");
    }

    #[test]
    fn topk_ties_resolve_by_id() {
        let mut u = StorageUnit::new(0, 256, 3, vec![]);
        let base = unit_with(10).files()[0].clone();
        // Four records with identical attributes: distances tie, so the
        // (distance, id) order must keep the smallest ids.
        for id in [40u64, 10, 30, 20] {
            let mut f = base.clone();
            f.file_id = id;
            f.name = format!("tie_{id}");
            u.insert_file(f);
        }
        let q = base.attr_vector();
        let (top, _) = u.topk_query(&q, 2);
        assert_eq!(top.iter().map(|&(id, _)| id).collect::<Vec<_>>(), [10, 20]);
    }

    #[test]
    fn topk_into_keeps_rows_tied_with_the_kth_best() {
        // A heap already holding k candidates at distance 0 has MaxD 0:
        // the tied rows' zone must still be read (strict `>` stop), so
        // the smaller ids displace the held ones.
        let mut u = unit_with(3 * ZONE);
        let base = u.files()[7].clone();
        for id in [9040u64, 9010, 9030] {
            let mut f = base.clone();
            f.file_id = id;
            f.name = format!("tie_{id}");
            u.insert_file(f);
        }
        u.recompute_summaries();
        let q = base.attr_vector();
        for k in [2, ZONE] {
            let mut top = TopK::new(k);
            for i in 0..k as u64 {
                top.push(u64::MAX - i, 0.0);
            }
            assert_eq!(top.max_d(), 0.0);
            let work = u.topk_into(&q, &mut top);
            assert!(work.rows_read < u.len(), "zones beyond MaxD are skipped");
            // The four rows at distance 0 displace held candidates, in
            // (distance, id) order.
            let (full, _) = u.topk_query(&q, k);
            let ties = k.min(4);
            assert!(full[..ties].iter().all(|&(_, d)| d == 0.0));
            assert_eq!(top.into_sorted()[..ties], full[..ties]);
        }
    }

    /// The pre-pruning row walk, kept as the reference the zone-map
    /// scan must match bit for bit.
    fn range_reference(u: &StorageUnit, lo: &[f64], hi: &[f64]) -> Vec<u64> {
        let mut out = Vec::new();
        for f in u.files() {
            if f.attr_vector()
                .iter()
                .zip(lo.iter().zip(hi))
                .all(|(&x, (&l, &h))| l <= x && x <= h)
            {
                out.push(f.file_id);
            }
        }
        out
    }

    #[test]
    fn pruned_scan_matches_row_walk() {
        // Sizes straddling the zone width, boxes from fully-covering
        // (zero active dims) to single-dimension slivers.
        for n in [1usize, ZONE - 1, ZONE, ZONE + 1, 130, 200] {
            let u = unit_with(n);
            let m = u.mbr().unwrap().clone();
            let (mlo, mhi) = (m.lo().to_vec(), m.hi().to_vec());
            let mut boxes: Vec<(Vec<f64>, Vec<f64>)> = vec![(mlo.clone(), mhi.clone())]; // covers everything
                                                                                         // One active dimension at a time: sliver around the middle.
            for d in 0..ATTR_DIMS {
                let mut lo = mlo.clone();
                let mut hi = mhi.clone();
                let mid = (mlo[d] + mhi[d]) / 2.0;
                lo[d] = mid - (mhi[d] - mlo[d]) * 0.1;
                hi[d] = mid + (mhi[d] - mlo[d]) * 0.1;
                boxes.push((lo, hi));
            }
            // A few shrunken boxes activating several dims.
            for f in [0.25, 0.5, 0.9] {
                let lo: Vec<f64> = mlo
                    .iter()
                    .zip(&mhi)
                    .map(|(&l, &h)| l + (h - l) * (1.0 - f) / 2.0)
                    .collect();
                let hi: Vec<f64> = mlo
                    .iter()
                    .zip(&mhi)
                    .map(|(&l, &h)| h - (h - l) * (1.0 - f) / 2.0)
                    .collect();
                boxes.push((lo, hi));
            }
            for (lo, hi) in &boxes {
                let (got, work) = u.range_query(lo, hi);
                assert_eq!(got, range_reference(&u, lo, hi), "n={n}");
                assert_eq!(work.records, n, "scan cost accounting unchanged");
            }
        }
    }

    #[test]
    fn pruned_scan_stays_exact_under_mutation() {
        // Zone boxes grow through raw inserts/modifies and stay
        // supersets after removals; every intermediate state must
        // answer like the reference walk.
        let mut u = unit_with(40);
        let m = u.mbr().unwrap().clone();
        let (mlo, mhi) = (m.lo().to_vec(), m.hi().to_vec());
        let probe = |u: &StorageUnit| {
            let (got, _) = u.range_query(&mlo, &mhi);
            assert_eq!(got, range_reference(u, &mlo, &mhi));
        };
        let mut extra = u.files()[0].clone();
        extra.file_id = 70001;
        extra.name = "grown".into();
        extra.size *= 1000; // push a coordinate outside the old bounds
        u.insert_file_raw(extra.clone());
        probe(&u);
        extra.size *= 4;
        u.modify_file_raw(extra);
        probe(&u);
        u.remove_file_raw(u.files()[5].file_id);
        probe(&u);
        let ids: Vec<u64> = u.files()[..10].iter().map(|f| f.file_id).collect();
        u.remove_files(&ids);
        probe(&u);
    }

    #[test]
    fn rebuild_bloom_switches_family_and_keeps_names() {
        use smartstore_bloom::HashFamily;
        let mut u = unit_with(30);
        assert_eq!(u.bloom().family(), HashFamily::default());
        let centroid = u.centroid().to_vec();
        let mbr = u.mbr().cloned();
        u.rebuild_bloom(HashFamily::Md5);
        assert_eq!(u.bloom().family(), HashFamily::Md5);
        for f in u.files() {
            assert!(u.bloom().contains(f.name.as_bytes()));
            assert!(u.point_query(&f.name).0.is_some());
        }
        // Migration must not refresh the (answer-relevant) summaries.
        assert_eq!(u.centroid(), centroid.as_slice());
        assert_eq!(u.mbr(), mbr.as_ref());
    }
}
