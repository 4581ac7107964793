//! Consistency via versioning (§4.4).
//!
//! SmartStore replicates index information (first-level index vectors,
//! the root) and accepts staleness between original and replica.
//! Consistency is recovered with *versions*: "from tᵢ₋₁ to tᵢ, updates
//! are aggregated into the tᵢ-th version that is attached to its
//! correlated index unit. These updates include insertion, deletion and
//! modification of file metadata." Queries "first check the original
//! information and then its versions from tᵢ to t₀" — rolled
//! *backwards*, newest first, so fresh changes win; removal applies the
//! aggregated changes and multicasts them to remote replicas.
//!
//! The *version ratio* (file modifications per version, Fig. 14)
//! controls aggregation: ratio 1 is comprehensive versioning (every
//! change is its own version, maximum space), larger ratios aggregate.
//!
//! # The effective walk
//!
//! A query consumes only each file's *newest* change. A chain answers
//! that with [`VersionStore::effective`], a newest-first walk that
//! yields one record per file id together with the record's cached
//! [`FileMetadata::attr_vector`]. The walk reads one flag per record
//! and skips the shadowed ones: no hashing, no allocation and no `ln()`
//! per read. Its cost is linear in the records the chain holds, and the
//! lazy update (§3.4) bounds that at about 5 % of the group's files.
//!
//! The flags, the file id → newest record map and the cached rows are
//! derived state. [`VersionStore::record`] maintains them at write time
//! (one map insert and one `attr_vector` per change), and
//! [`VersionStore::from_parts`] rebuilds them by replaying the records
//! in arrival order. They are never persisted: a chain serializes as
//! its ratio, its sealed versions and its open version, and nothing
//! else.

use smartstore_trace::{FileMetadata, ATTR_DIMS};
use std::collections::HashMap;

/// One aggregated metadata change.
#[derive(Clone, Debug, PartialEq)]
pub enum Change {
    /// A file was created.
    Insert(FileMetadata),
    /// A file was deleted.
    Delete(u64),
    /// A file's metadata changed (new state carried in full).
    Modify(FileMetadata),
}

impl Change {
    /// The file id this change concerns.
    pub fn file_id(&self) -> u64 {
        match self {
            Change::Insert(f) | Change::Modify(f) => f.file_id,
            Change::Delete(id) => *id,
        }
    }

    /// Approximate wire/memory size of the change record.
    pub fn size_bytes(&self) -> usize {
        match self {
            // file id + 8 attrs + name estimate.
            Change::Insert(f) | Change::Modify(f) => 8 + 8 * 8 + f.name.len(),
            Change::Delete(_) => 8,
        }
    }
}

/// A sealed version: changes aggregated between two reconfiguration
/// points.
#[derive(Clone, Debug, Default)]
pub struct Version {
    /// Changes in arrival order.
    pub changes: Vec<Change>,
}

impl Version {
    /// Bytes attributable to this version (header + payload).
    pub fn size_bytes(&self) -> usize {
        Self::HEADER_BYTES + self.changes.iter().map(Change::size_bytes).sum::<usize>()
    }

    /// Fixed per-version bookkeeping cost (timestamps, links, labels).
    pub const HEADER_BYTES: usize = 64;
}

/// The version chain attached to one (first-level) index unit.
///
/// Records are numbered in arrival order: the sealed versions oldest
/// first, then the open one. The three derived fields are indexed by
/// that number.
#[derive(Clone, Debug)]
pub struct VersionStore {
    version_ratio: u32,
    open: Version,
    sealed: Vec<Version>,
    /// Per record: a newer record of the same file id exists.
    shadowed: Vec<bool>,
    /// File id → arrival number of its newest record.
    newest: HashMap<u64, usize>,
    /// Per record: the upserted file's attribute vector (zeros for a
    /// delete, which no reader looks at).
    rows: Vec<[f64; ATTR_DIMS]>,
}

impl VersionStore {
    /// Creates an empty chain with the given modification-to-version
    /// ratio.
    ///
    /// # Panics
    /// If `version_ratio == 0`.
    pub fn new(version_ratio: u32) -> Self {
        Self::from_parts(version_ratio, Vec::new(), Version::default())
    }

    /// Reassembles a chain from serialized state — the inverse of the
    /// [`Self::ratio`] / [`Self::sealed_versions`] / [`Self::open_version`]
    /// accessors. The derived walk state is rebuilt by replaying the
    /// records in arrival order.
    ///
    /// # Panics
    /// If `version_ratio == 0`.
    pub fn from_parts(version_ratio: u32, sealed: Vec<Version>, open: Version) -> Self {
        assert!(version_ratio > 0, "VersionStore: ratio must be positive");
        let mut vs = Self {
            version_ratio,
            open: Version::default(),
            sealed: Vec::new(),
            shadowed: Vec::new(),
            newest: HashMap::new(),
            rows: Vec::new(),
        };
        for ch in sealed
            .iter()
            .chain(std::iter::once(&open))
            .flat_map(|v| &v.changes)
        {
            vs.track(ch);
        }
        vs.sealed = sealed;
        vs.open = open;
        vs
    }

    /// The modification-to-version ratio.
    pub fn ratio(&self) -> u32 {
        self.version_ratio
    }

    /// The sealed versions, oldest first.
    pub fn sealed_versions(&self) -> &[Version] {
        &self.sealed
    }

    /// The currently open (unsealed) version.
    pub fn open_version(&self) -> &Version {
        &self.open
    }

    /// Records a change; seals the open version when it reaches the
    /// ratio.
    pub fn record(&mut self, change: Change) {
        self.track(&change);
        self.open.changes.push(change);
        if self.open.changes.len() >= self.version_ratio as usize {
            self.sealed.push(std::mem::take(&mut self.open));
        }
    }

    /// Number of sealed versions.
    pub fn version_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.open.changes.is_empty())
    }

    /// Total recorded changes (sealed + open).
    pub fn change_count(&self) -> usize {
        self.shadowed.len()
    }

    /// Memory footprint of the chain (Fig. 14(a)).
    pub fn size_bytes(&self) -> usize {
        let open = if self.open.changes.is_empty() {
            0
        } else {
            self.open.size_bytes()
        };
        self.sealed.iter().map(Version::size_bytes).sum::<usize>() + open
    }

    /// Rolls the chain *backwards* (newest change first) and yields the
    /// effective latest state per file: only the newest record of each
    /// file id ("version tᵢ usually contains newer information than
    /// version tᵢ₋₁"), each with its cached attribute vector. The walk
    /// still crosses every record, which is the extra latency of
    /// Fig. 14(b): callers charge [`Self::change_count`] for it.
    pub fn effective(&self) -> impl Iterator<Item = (&Change, &[f64; ATTR_DIMS])> {
        let newest_first = std::iter::once(&self.open)
            .chain(self.sealed.iter().rev())
            .flat_map(|v| v.changes.iter().rev());
        newest_first
            .zip(self.shadowed.iter().rev().zip(self.rows.iter().rev()))
            .filter(|&(_, (&shadowed, _))| !shadowed)
            .map(|(ch, (_, row))| (ch, row))
    }

    /// Drops every record — the reconfiguration step, once the changes
    /// are in the refreshed index ("We first apply the changes of a
    /// version into its attached original index unit"). The storage
    /// units already hold them, so nothing is replayed.
    pub fn clear(&mut self) {
        self.sealed.clear();
        self.open = Version::default();
        self.shadowed.clear();
        self.newest.clear();
        self.rows.clear();
    }

    /// Appends `change` to the derived walk state: flags the file's
    /// previous newest record and caches an upsert's attribute vector.
    fn track(&mut self, change: &Change) {
        let at = self.shadowed.len();
        if let Some(prev) = self.newest.insert(change.file_id(), at) {
            self.shadowed[prev] = true;
        }
        self.shadowed.push(false);
        self.rows.push(match change {
            Change::Insert(f) | Change::Modify(f) => f.attr_vector(),
            Change::Delete(_) => [0.0; ATTR_DIMS],
        });
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn meta(id: u64, size: u64) -> FileMetadata {
        FileMetadata {
            file_id: id,
            name: format!("f{id}"),
            dir: "/d".into(),
            owner: 0,
            size,
            ctime: 0.0,
            mtime: 0.0,
            atime: 0.0,
            read_bytes: 0,
            write_bytes: 0,
            access_count: 1,
            proc_id: 0,
            truth_cluster: None,
        }
    }

    #[test]
    fn ratio_one_is_comprehensive() {
        let mut vs = VersionStore::new(1);
        for i in 0..5 {
            vs.record(Change::Insert(meta(i, 10)));
        }
        assert_eq!(vs.version_count(), 5, "every change its own version");
    }

    #[test]
    fn larger_ratio_aggregates() {
        let mut vs = VersionStore::new(4);
        for i in 0..8 {
            vs.record(Change::Insert(meta(i, 10)));
        }
        assert_eq!(vs.version_count(), 2);
    }

    #[test]
    fn space_decreases_with_ratio() {
        let sized = |ratio: u32| {
            let mut vs = VersionStore::new(ratio);
            for i in 0..64 {
                vs.record(Change::Modify(meta(i, 1)));
            }
            vs.size_bytes()
        };
        let s1 = sized(1);
        let s8 = sized(8);
        let s32 = sized(32);
        assert!(
            s1 > s8 && s8 > s32,
            "space must fall with ratio: {s1} {s8} {s32}"
        );
    }

    /// The effective walk as ids and attribute-vector bits.
    fn walk(vs: &VersionStore) -> Vec<(Change, Vec<u64>)> {
        vs.effective()
            .map(|(ch, row)| (ch.clone(), row.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    /// The walk by its definition: every record newest first, the first
    /// of each file id kept, its row recomputed.
    fn walk_by_definition(vs: &VersionStore) -> Vec<(Change, Vec<u64>)> {
        let mut seen = std::collections::BTreeSet::new();
        std::iter::once(vs.open_version())
            .chain(vs.sealed_versions().iter().rev())
            .flat_map(|v| v.changes.iter().rev())
            .filter(|ch| seen.insert(ch.file_id()))
            .map(|ch| {
                let row = match ch {
                    Change::Insert(f) | Change::Modify(f) => f.attr_vector(),
                    Change::Delete(_) => [0.0; ATTR_DIMS],
                };
                (ch.clone(), row.iter().map(|x| x.to_bits()).collect())
            })
            .collect()
    }

    /// Applies the effective walk to a base set of files, the way a
    /// reader sees it: upserts replace or add, deletes remove.
    fn apply(vs: &VersionStore, files: &mut Vec<FileMetadata>) {
        for (ch, _) in vs.effective() {
            match ch {
                Change::Insert(f) | Change::Modify(f) => {
                    if let Some(slot) = files.iter_mut().find(|x| x.file_id == f.file_id) {
                        *slot = f.clone();
                    } else {
                        files.push(f.clone());
                    }
                }
                Change::Delete(id) => files.retain(|x| x.file_id != *id),
            }
        }
    }

    #[test]
    fn backward_roll_newest_wins() {
        let mut vs = VersionStore::new(2);
        vs.record(Change::Modify(meta(7, 100)));
        vs.record(Change::Modify(meta(7, 200)));
        vs.record(Change::Modify(meta(7, 300)));
        let eff: Vec<_> = vs.effective().collect();
        assert_eq!(eff.len(), 1);
        match eff[0] {
            (Change::Modify(f), row) => {
                assert_eq!(f.size, 300, "newest modification wins");
                assert_eq!(*row, f.attr_vector(), "row cached from the newest record");
            }
            _ => panic!("unexpected change kind"),
        }
        assert_eq!(vs.change_count(), 3);
    }

    #[test]
    fn delete_shadows_older_insert() {
        let mut vs = VersionStore::new(8);
        vs.record(Change::Insert(meta(3, 10)));
        vs.record(Change::Delete(3));
        let eff: Vec<_> = vs.effective().map(|(ch, _)| ch).collect();
        assert_eq!(eff.len(), 1);
        assert!(matches!(eff[0], Change::Delete(3)));
    }

    #[test]
    fn flags_cross_sealing_boundaries() {
        for ratio in [1, 2, 16] {
            let mut vs = VersionStore::new(ratio);
            // Ids repeat at strides that straddle every version boundary
            // of the three ratios; deletes and re-inserts included.
            for step in 0..40u64 {
                let id = step % 7;
                let change = match step % 5 {
                    0 => Change::Delete(id),
                    1 => Change::Insert(meta(id, step)),
                    _ => Change::Modify(meta(id, 1000 + step)),
                };
                vs.record(change);
                assert_eq!(
                    walk(&vs),
                    walk_by_definition(&vs),
                    "ratio {ratio} step {step}"
                );
            }
            assert!(vs.sealed_versions().len() >= 2, "ratio {ratio} sealed");
            assert_eq!(vs.change_count(), 40);
            assert_eq!(walk(&vs).len(), 7, "one record per id");
        }
    }

    #[test]
    fn from_parts_rebuilds_the_walk() {
        for ratio in [1, 3, 16] {
            let mut vs = VersionStore::new(ratio);
            for step in 0..23u64 {
                let id = step % 5;
                vs.record(if step % 4 == 3 {
                    Change::Delete(id)
                } else {
                    Change::Modify(meta(id, step))
                });
            }
            let mut back = VersionStore::from_parts(
                vs.ratio(),
                vs.sealed_versions().to_vec(),
                vs.open_version().clone(),
            );
            assert_eq!(walk(&back), walk(&vs), "ratio {ratio}");
            assert_eq!(back.change_count(), vs.change_count());
            // The rebuilt state keeps tracking: a newer record of a file
            // the parts already hold shadows the persisted one.
            vs.record(Change::Modify(meta(2, 777)));
            back.record(Change::Modify(meta(2, 777)));
            assert_eq!(walk(&back), walk(&vs), "ratio {ratio} after a record");
            assert_eq!(walk(&back), walk_by_definition(&back));
        }
    }

    #[test]
    fn walk_applies_and_clear_empties() {
        let mut vs = VersionStore::new(4);
        let mut files = vec![meta(1, 10), meta(2, 20)];
        vs.record(Change::Modify(meta(1, 111)));
        vs.record(Change::Delete(2));
        vs.record(Change::Insert(meta(3, 30)));
        apply(&vs, &mut files);
        let ids: Vec<u64> = files.iter().map(|f| f.file_id).collect();
        assert!(ids.contains(&1) && ids.contains(&3) && !ids.contains(&2));
        assert_eq!(files.iter().find(|f| f.file_id == 1).unwrap().size, 111);
        assert!(vs.size_bytes() > 0);
        vs.clear();
        assert_eq!(vs.version_count(), 0);
        assert_eq!(vs.change_count(), 0);
        assert_eq!(vs.size_bytes(), 0);
        assert_eq!(vs.effective().count(), 0);
        // A cleared chain tracks afresh: no stale newest record is
        // flagged by the next change of the same file.
        vs.record(Change::Modify(meta(1, 5)));
        assert_eq!(walk(&vs), walk_by_definition(&vs));
    }

    #[test]
    fn walk_modify_of_unknown_file_upserts() {
        let mut vs = VersionStore::new(4);
        let mut files = Vec::new();
        vs.record(Change::Modify(meta(9, 99)));
        apply(&vs, &mut files);
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].size, 99);
    }

    #[test]
    fn empty_chain_is_free() {
        let vs = VersionStore::new(4);
        assert_eq!(vs.size_bytes(), 0);
        assert_eq!(vs.version_count(), 0);
        assert_eq!(vs.change_count(), 0);
        assert_eq!(vs.effective().count(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_ratio_panics() {
        VersionStore::new(0);
    }
}
