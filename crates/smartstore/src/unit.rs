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
//! * `coords` — a flat row-major `n × ATTR_DIMS` table; row `i` is
//!   `files[i].attr_vector()`, computed **once** at mutation time
//!   instead of on every scan (the projection does four `ln()` calls
//!   per record — recomputing it per query made scans
//!   transcendental-bound, not memory-bound);
//! * `ids` — the `file_id` column, so a scan touches the (large,
//!   string-carrying) records only for actual hits;
//! * `name_slots` — filename → slot positions, so a point lookup behind
//!   the Bloom probe is a hash probe instead of a prefix scan.
//!
//! The projection is *derived state*: it is maintained by every
//! mutation path and rebuilt deterministically from `files` in
//! [`StorageUnit::from_parts`], so persisted snapshot images carry no
//! trace of it and need no format change. Scan results are
//! bit-identical to the pre-columnar record walk because `attr_vector`
//! is a pure function of the record and the scan visits rows in the
//! same order.

use smartstore_bloom::{BloomFilter, HashFamily, PreparedKey};
use smartstore_rtree::Rect;
use smartstore_trace::{FileMetadata, ATTR_DIMS};
use std::collections::HashMap;

/// How many rows a range scan processes per mask pass. Small enough
/// for the mask to live in registers/L1, large enough that the
/// per-dimension inner loops are straight-line code the compiler can
/// unroll and vectorize.
const SCAN_CHUNK: usize = 64;

/// Conservative per-dimension bounds of the columnar coordinate table.
///
/// Invariant: every value in column `d` lies in `[lo[d], hi[d]]` (NaN
/// values poison the dimension to an un-coverable `NaN` bound). The
/// bounds are grow-only supersets under in-place mutation and exact
/// after a rebuild — unlike the unit MBR they are *never stale*, so a
/// range scan may skip checking any dimension whose query interval
/// covers them without changing a single answer.
#[derive(Clone, Copy, Debug)]
struct ColBounds {
    lo: [f64; ATTR_DIMS],
    hi: [f64; ATTR_DIMS],
}

impl ColBounds {
    fn empty() -> Self {
        Self {
            lo: [f64::INFINITY; ATTR_DIMS],
            hi: [f64::NEG_INFINITY; ATTR_DIMS],
        }
    }

    /// Widens the bounds to cover one coordinate row.
    fn grow(&mut self, row: &[f64]) {
        for (d, &x) in row.iter().enumerate().take(ATTR_DIMS) {
            if self.lo[d].is_nan() {
                continue; // already poisoned — stays un-coverable
            }
            if x.is_nan() {
                // A NaN coordinate fails every interval check, so the
                // dimension must never be skipped: poison the bounds so
                // no query interval can cover them.
                self.lo[d] = f64::NAN;
                self.hi[d] = f64::NAN;
            } else {
                if x < self.lo[d] {
                    self.lo[d] = x;
                }
                if x > self.hi[d] {
                    self.hi[d] = x;
                }
            }
        }
    }
}

/// Work performed by a local query, as raw counts
/// ([`crate::routing::RouteTrace`] aggregates them per query).
///
/// Counting rule for `records`: scan-evaluated queries (range,
/// top-k) examine every record of the unit; the *indexed* point lookup
/// examines exactly one record on a hit and none on a miss — the
/// name→slot map resolves the filename behind the Bloom probe, so a
/// Bloom false positive costs a hash probe, not a prefix scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalWork {
    /// Metadata records examined.
    pub records: usize,
    /// Bloom filters probed.
    pub filters: usize,
}

/// Bounded top-k accumulator over `(file_id, squared distance)` pairs:
/// a max-heap of the k best seen so far, ordered by `(distance, id)`
/// under `f64::total_cmp` (no panic path on NaN). O(log k) per
/// candidate instead of the O(n log n) full sort, and
/// [`TopK::into_sorted`] yields exactly what
/// `sort_by((distance, id)) + truncate(k)` over all pushed candidates
/// would.
#[derive(Clone, Debug)]
pub(crate) struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<ScoredId>,
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

/// Appends one row to the columnar projection: coordinate row, id, and
/// the name→slot entry for the next slot (`ids.len()`). Free-standing
/// over the three columns so callers iterating `files` can borrow it
/// disjointly; the single append path shared by the insert, rebuild
/// and compaction sites.
fn push_row(
    coords: &mut Vec<f64>,
    ids: &mut Vec<u64>,
    name_slots: &mut HashMap<String, Vec<usize>>,
    bounds: &mut ColBounds,
    row: &[f64],
    id: u64,
    name: &str,
) {
    let slot = ids.len();
    coords.extend_from_slice(row);
    ids.push(id);
    bounds.grow(row);
    name_slots.entry(name.to_owned()).or_default().push(slot);
}

/// Unlinks `slot` from `name`'s slot list, dropping the entry when it
/// empties — shared by the removal and rename paths.
fn unlink_name_slot(name_slots: &mut HashMap<String, Vec<usize>>, name: &str, slot: usize) {
    let drop_entry = match name_slots.get_mut(name) {
        Some(slots) => {
            slots.retain(|&s| s != slot);
            slots.is_empty()
        }
        None => false,
    };
    if drop_entry {
        name_slots.remove(name);
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
    /// table; row `i` is `files[i].attr_vector()`.
    coords: Vec<f64>,
    /// `file_id` column; `ids[i] == files[i].file_id`.
    ids: Vec<u64>,
    /// filename → slots holding a file of that name, ascending (point
    /// queries resolve to the first slot, matching the pre-columnar
    /// first-match-in-store-order scan).
    name_slots: HashMap<String, Vec<usize>>,
    /// Conservative per-dimension bounds over `coords` (see
    /// [`ColBounds`]); drives dimension pruning in range scans.
    bounds: ColBounds,
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
            name_slots: HashMap::new(),
            bounds: ColBounds::empty(),
        };
        for f in files {
            unit.insert_file(f);
        }
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
            name_slots: HashMap::new(),
            bounds: ColBounds::empty(),
        };
        unit.rebuild_columns();
        unit
    }

    /// Rebuilds the derived columnar projection from `files`.
    fn rebuild_columns(&mut self) {
        self.coords.clear();
        self.coords.reserve(self.files.len() * ATTR_DIMS);
        self.ids.clear();
        self.ids.reserve(self.files.len());
        self.name_slots.clear();
        self.bounds = ColBounds::empty();
        for f in &self.files {
            push_row(
                &mut self.coords,
                &mut self.ids,
                &mut self.name_slots,
                &mut self.bounds,
                &f.attr_vector(),
                f.file_id,
                &f.name,
            );
        }
    }

    /// Appends a file's columnar projection (call immediately before
    /// pushing the record onto `files`).
    fn append_columns(&mut self, file: &FileMetadata) {
        push_row(
            &mut self.coords,
            &mut self.ids,
            &mut self.name_slots,
            &mut self.bounds,
            &file.attr_vector(),
            file.file_id,
            &file.name,
        );
    }

    /// Drops slot `pos` from the columnar projection, shifting later
    /// slots down by one (call *before* `files.remove(pos)`, while the
    /// record is still present). O(n), matching the `Vec::remove`
    /// memmove it accompanies; store order is preserved so summary
    /// recomputation stays bit-identical to the pre-columnar path.
    fn remove_column_slot(&mut self, pos: usize) {
        unlink_name_slot(&mut self.name_slots, &self.files[pos].name, pos);
        self.coords.drain(pos * ATTR_DIMS..(pos + 1) * ATTR_DIMS);
        self.ids.remove(pos);
        // lint:allow(D002) -- each slot list is shifted independently; order-insensitive
        for slots in self.name_slots.values_mut() {
            for s in slots.iter_mut() {
                if *s > pos {
                    *s -= 1;
                }
            }
        }
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

    /// The flat row-major `n × ATTR_DIMS` columnar attribute table;
    /// row `i` equals `files()[i].attr_vector()` bit-for-bit.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The `file_id` column; `file_ids()[i] == files()[i].file_id`.
    pub fn file_ids(&self) -> &[u64] {
        &self.ids
    }

    /// Verifies the columnar projection against a from-scratch rebuild
    /// from `files` (test/diagnostic hook; the coherence proptest
    /// drives this under arbitrary mutation streams).
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
        let mut expected_slots: HashMap<&str, Vec<usize>> = HashMap::new();
        for (slot, f) in self.files.iter().enumerate() {
            if self.ids[slot] != f.file_id {
                return Err(format!(
                    "ids[{slot}] = {} but files[{slot}].file_id = {}",
                    self.ids[slot], f.file_id
                ));
            }
            let row = &self.coords[slot * ATTR_DIMS..(slot + 1) * ATTR_DIMS];
            let v = f.attr_vector();
            if row
                .iter()
                .zip(v.iter())
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!("coords row {slot} diverges from attr_vector"));
            }
            expected_slots.entry(&f.name).or_default().push(slot);
        }
        if self.name_slots.len() != expected_slots.len() {
            return Err(format!(
                "name_slots holds {} names, files hold {}",
                self.name_slots.len(),
                expected_slots.len()
            ));
        }
        // lint:allow(D002) -- invariant check; only which corruption is reported first varies
        for (name, slots) in &expected_slots {
            match self.name_slots.get(*name) {
                Some(got) if got == slots => {}
                Some(got) => {
                    return Err(format!("name {name:?}: slots {got:?}, expected {slots:?}"))
                }
                None => return Err(format!("name {name:?} missing from name_slots")),
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
        push_row(
            &mut self.coords,
            &mut self.ids,
            &mut self.name_slots,
            &mut self.bounds,
            &v,
            file.file_id,
            &file.name,
        );
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
        let old_files = std::mem::take(&mut self.files);
        let old_coords = std::mem::take(&mut self.coords);
        let old_ids = std::mem::take(&mut self.ids);
        self.name_slots.clear();
        self.bounds = ColBounds::empty();
        self.files = Vec::with_capacity(old_files.len());
        self.coords = Vec::with_capacity(old_coords.len());
        self.ids = Vec::with_capacity(old_ids.len());
        let mut removed = Vec::new();
        for (row, f) in old_files.into_iter().enumerate() {
            let take = match victims.get_mut(&old_ids[row]) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    true
                }
                _ => false,
            };
            if take {
                removed.push(f);
            } else {
                push_row(
                    &mut self.coords,
                    &mut self.ids,
                    &mut self.name_slots,
                    &mut self.bounds,
                    &old_coords[row * ATTR_DIMS..(row + 1) * ATTR_DIMS],
                    old_ids[row],
                    &f.name,
                );
                self.files.push(f);
            }
        }
        self.recompute_summaries();
        removed
    }

    /// Adds a file *without* refreshing the unit's summaries — the
    /// change stream mutates data immediately while index summaries
    /// (Bloom/centroid/MBR) stay stale until a lazy update
    /// ([`Self::recompute_summaries`]) fires, per §3.4/§4.4. The
    /// columnar projection (data, not index) is maintained eagerly.
    pub fn insert_file_raw(&mut self, file: FileMetadata) {
        self.append_columns(&file);
        self.files.push(file);
    }

    /// The first slot holding `file_id`, found in the dense id column
    /// (`ids[i] == files[i].file_id`) rather than by striding through
    /// the records.
    fn slot_of(&self, file_id: u64) -> Option<usize> {
        self.ids.iter().position(|&id| id == file_id)
    }

    /// Removes a file by id without refreshing summaries.
    pub fn remove_file_raw(&mut self, file_id: u64) -> Option<FileMetadata> {
        let pos = self.slot_of(file_id)?;
        self.remove_column_slot(pos);
        Some(self.files.remove(pos))
    }

    /// Replaces a file's metadata in place without refreshing summaries;
    /// inserts if absent.
    pub fn modify_file_raw(&mut self, file: FileMetadata) {
        match self.slot_of(file.file_id) {
            Some(slot) => {
                let row = file.attr_vector();
                self.coords[slot * ATTR_DIMS..(slot + 1) * ATTR_DIMS].copy_from_slice(&row);
                // The old row's extent is kept (bounds stay a superset).
                self.bounds.grow(&row);
                if self.files[slot].name != file.name {
                    unlink_name_slot(&mut self.name_slots, &self.files[slot].name, slot);
                    let slots = self.name_slots.entry(file.name.clone()).or_default();
                    let at = slots.partition_point(|&s| s < slot);
                    slots.insert(at, slot);
                }
                self.files[slot] = file;
            }
            None => self.insert_file_raw(file),
        }
    }

    /// Rebuilds centroid, MBR and Bloom filter from current contents
    /// (used after bulk changes and version flushes). Reads the
    /// columnar table instead of re-projecting every record — same
    /// values summed in the same store order, so the recomputed
    /// summaries are bit-identical to the pre-columnar walk.
    pub fn recompute_summaries(&mut self) {
        let n = self.files.len();
        self.centroid = vec![0.0; ATTR_DIMS];
        self.mbr = None;
        self.bloom.clear();
        if n == 0 {
            return;
        }
        for row in self.coords.chunks_exact(ATTR_DIMS) {
            for (c, &x) in self.centroid.iter_mut().zip(row) {
                *c += x;
            }
            let p = Rect::point(row);
            self.mbr = Some(match self.mbr.take() {
                Some(m) => m.union(&p),
                None => p,
            });
        }
        for c in &mut self.centroid {
            *c /= n as f64;
        }
        for f in &self.files {
            self.bloom.insert(f.name.as_bytes());
        }
    }

    /// Rebuilds the Bloom filter alone, in the given hash family, from
    /// the unit's current file names — the persisted-image migration
    /// path (`name_slots` already proves names are authoritative).
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

    /// Local point query: probe the Bloom filter, and on a positive hit
    /// resolve the filename through the name→slot index — one record
    /// examined on a hit, none on a Bloom false positive (see
    /// [`LocalWork`] for the cost-accounting rule). With duplicate
    /// names the first slot in store order answers, matching the
    /// pre-columnar prefix scan.
    pub fn point_query(&self, name: &str) -> (Option<&FileMetadata>, LocalWork) {
        self.point_query_prepared(name, &self.bloom.prepare(name.as_bytes()))
    }

    /// [`Self::point_query`] with `name` already hashed into `key` —
    /// the form a routed point query uses, so the units it reaches
    /// share the hash its tree descent made.
    pub(crate) fn point_query_prepared(
        &self,
        name: &str,
        key: &PreparedKey<'_>,
    ) -> (Option<&FileMetadata>, LocalWork) {
        debug_assert_eq!(key.key(), name.as_bytes(), "key prepared from another name");
        let mut work = LocalWork {
            records: 0,
            filters: 1,
        };
        if !self.bloom.contains_prepared(key) {
            return (None, work);
        }
        match self.lookup_name(name) {
            Some(f) => {
                work.records = 1;
                (Some(f), work)
            }
            None => (None, work),
        }
    }

    /// Resolves an exact filename through the name→slot index, skipping
    /// the Bloom probe — the raw indexed lookup behind
    /// [`Self::point_query`]. With duplicate names the first slot in
    /// store order answers.
    pub fn lookup_name(&self, name: &str) -> Option<&FileMetadata> {
        self.name_slots
            .get(name)
            .and_then(|slots| slots.first())
            .map(|&slot| &self.files[slot])
    }

    /// Local range query over the projected attribute space:
    /// dimension-pruned, chunk-processed passes over the flat
    /// coordinate table (no per-record projection, records touched only
    /// through the id column).
    ///
    /// Two layers of work avoidance, both answer-preserving:
    ///
    /// * **dimension pruning** — a dimension whose query interval
    ///   covers the column's [`ColBounds`] cannot reject any row, so
    ///   its column is never read (the bounds are conservative
    ///   supersets of the column values, unlike the possibly-stale unit
    ///   MBR);
    /// * **chunked mask scan** — the remaining dimensions are evaluated
    ///   column-at-a-time over [`SCAN_CHUNK`]-row blocks: each pass is
    ///   a branch-free strided sweep the compiler can vectorize, and a
    ///   chunk whose mask empties skips its remaining dimensions.
    ///
    /// Output order (ascending slot) and the full-scan cost accounting
    /// (`records = len()`, pricing the guaranteed column pass) are
    /// unchanged, so answers and cost-model decisions stay bit-identical
    /// to the plain row walk.
    pub fn range_query(&self, lo: &[f64], hi: &[f64]) -> (Vec<u64>, LocalWork) {
        let mut out = Vec::new();
        let mut work = LocalWork::default();
        // MBR pre-check: disjoint units do no record work.
        if let Some(m) = &self.mbr {
            let q = Rect::new(lo.to_vec(), hi.to_vec());
            if !m.intersects(&q) {
                return (out, work);
            }
        }
        // The row walk this replaces zipped `lo`/`hi` against each row,
        // so only the first `min(lo, hi, ATTR_DIMS)` dimensions ever
        // constrained; dims beyond that stay unconstrained here too.
        let checked_dims = lo.len().min(hi.len()).min(ATTR_DIMS);
        let mut active = [false; ATTR_DIMS];
        let mut n_active = 0usize;
        for d in 0..checked_dims {
            // `!(covers)` rather than `excludes`: a NaN query bound or
            // poisoned column bound must keep the dimension active.
            let covers = lo[d] <= self.bounds.lo[d] && self.bounds.hi[d] <= hi[d];
            if !covers {
                active[d] = true;
                n_active += 1;
            }
        }
        let n = self.ids.len();
        if n_active == 0 {
            // Every surviving dimension is covered: all rows match.
            out.extend_from_slice(&self.ids);
            work.records = self.files.len();
            return (out, work);
        }
        let mut mask = [false; SCAN_CHUNK];
        let mut base = 0usize;
        while base < n {
            let len = SCAN_CHUNK.min(n - base);
            mask[..len].fill(true);
            let mut any = true;
            for d in 0..checked_dims {
                if !active[d] {
                    continue;
                }
                let (l, h) = (lo[d], hi[d]);
                let mut keep_any = false;
                for (j, m) in mask.iter_mut().enumerate().take(len) {
                    let x = self.coords[(base + j) * ATTR_DIMS + d];
                    *m = *m && l <= x && x <= h;
                    keep_any |= *m;
                }
                if !keep_any {
                    any = false;
                    break; // chunk fully rejected — skip remaining dims
                }
            }
            if any {
                for (j, &m) in mask.iter().enumerate().take(len) {
                    if m {
                        out.push(self.ids[base + j]);
                    }
                }
            }
            base += len;
        }
        work.records = self.files.len();
        (out, work)
    }

    /// Local top-k: the unit's k nearest files to `point`, with squared
    /// distances (for cross-unit merge). A bounded-heap pass over the
    /// coordinate table — O(n log k) instead of the previous full
    /// O(n log n) sort, `total_cmp` ordered (no NaN panic path), and
    /// bit-identical to sort-then-truncate output.
    pub fn topk_query(&self, point: &[f64], k: usize) -> (Vec<(u64, f64)>, LocalWork) {
        let mut top = TopK::new(k);
        for (slot, row) in self.coords.chunks_exact(ATTR_DIMS).enumerate() {
            let mut d = 0.0;
            for (&a, &q) in row.iter().zip(point) {
                d += (a - q) * (a - q);
            }
            // Full (distance, id) comparison inside push — an equal
            // distance with a smaller id still displaces the worst.
            top.push(self.ids[slot], d);
        }
        let work = LocalWork {
            records: self.files.len(),
            filters: 0,
        };
        (top.into_sorted(), work)
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
        assert_eq!(work.filters, 1);
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
        for (i, f) in u.files().iter().enumerate() {
            assert_eq!(u.file_ids()[i], f.file_id);
            assert_eq!(
                &u.coords()[i * ATTR_DIMS..(i + 1) * ATTR_DIMS],
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

    /// The pre-pruning row walk, kept as the reference the chunked
    /// dimension-pruned scan must match bit for bit.
    fn range_reference(u: &StorageUnit, lo: &[f64], hi: &[f64]) -> Vec<u64> {
        let mut out = Vec::new();
        for (slot, row) in u.coords().chunks_exact(ATTR_DIMS).enumerate() {
            if row
                .iter()
                .zip(lo.iter().zip(hi))
                .all(|(&x, (&l, &h))| l <= x && x <= h)
            {
                out.push(u.file_ids()[slot]);
            }
        }
        out
    }

    #[test]
    fn pruned_scan_matches_row_walk() {
        // Sizes straddling the chunk width, boxes from fully-covering
        // (zero active dims) to single-dimension slivers.
        for n in [1usize, 63, 64, 65, 130, 200] {
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
        // Bounds grow through raw inserts/modifies and stay supersets
        // after removals; every intermediate state must answer like the
        // reference walk.
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
