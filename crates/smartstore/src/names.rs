//! The name index of one system: filename → the `(unit, file id)`
//! pairs that hold it.
//!
//! A point lookup asks it which units hold the name, so the paper's
//! Bloom filters (§3.3.3) are probed only along those units' paths
//! instead of down every Bloom-positive branch of the tree. It is
//! derived state, like `SmartStoreSystem`'s file → unit `owner` map:
//! never persisted, built from the units on build and load, and kept
//! beside `owner` by every mutation of the units.

use crate::unit::StorageUnit;
use std::collections::{BTreeMap, HashMap};

/// One file holding a name: the unit that stores it and its id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Holder {
    pub unit: usize,
    pub id: u64,
}

/// The holders of one name, sorted by `(unit, id)`. A multiset: a unit
/// may hold one id twice. Almost every name has one holder, kept
/// inline; only a duplicated name spills to the heap.
#[derive(Clone, Debug)]
enum Holders {
    One(Holder),
    /// Two or more holders.
    Many(Vec<Holder>),
}

impl Holders {
    fn as_slice(&self) -> &[Holder] {
        match self {
            Holders::One(h) => std::slice::from_ref(h),
            Holders::Many(v) => v,
        }
    }

    /// Adds one holder at its sorted position.
    fn add(&mut self, h: Holder) {
        match self {
            Holders::One(first) => {
                let (a, b) = if h < *first { (h, *first) } else { (*first, h) };
                *self = Holders::Many(vec![a, b]);
            }
            Holders::Many(v) => {
                let at = v.partition_point(|x| *x <= h);
                v.insert(at, h);
            }
        }
    }

    /// Removes one holder equal to `h`; true when none is left.
    fn remove(&mut self, h: Holder) -> bool {
        match self {
            Holders::One(only) => *only == h,
            Holders::Many(v) => {
                if let Ok(at) = v.binary_search(&h) {
                    v.remove(at);
                }
                if let [last] = v[..] {
                    *self = Holders::One(last);
                }
                false
            }
        }
    }
}

/// Filename → holders, over every unit of one system.
#[derive(Clone, Debug, Default)]
pub(crate) struct NameIndex {
    map: HashMap<Box<str>, Holders>,
}

impl NameIndex {
    /// The index of `units`, sized for their files up front.
    pub(crate) fn build(units: &[StorageUnit]) -> Self {
        let files = units.iter().map(StorageUnit::len).sum();
        let mut index = Self {
            map: HashMap::with_capacity(files),
        };
        for u in units {
            index.add_unit(u);
        }
        index
    }

    /// Indexes every file of `unit`.
    pub(crate) fn add_unit(&mut self, unit: &StorageUnit) {
        for f in unit.files() {
            self.insert(&f.name, unit.id, f.file_id);
        }
    }

    /// The holders of `name`, sorted by `(unit, id)`; empty when no unit
    /// holds it.
    pub(crate) fn holders(&self, name: &str) -> &[Holder] {
        self.map.get(name).map_or(&[], Holders::as_slice)
    }

    /// Records that file `id` of `unit` is named `name`.
    pub(crate) fn insert(&mut self, name: &str, unit: usize, id: u64) {
        let h = Holder { unit, id };
        match self.map.get_mut(name) {
            Some(holders) => holders.add(h),
            None => {
                self.map.insert(name.into(), Holders::One(h));
            }
        }
    }

    /// Forgets one record that file `id` of `unit` is named `name`.
    pub(crate) fn remove(&mut self, name: &str, unit: usize, id: u64) {
        let h = Holder { unit, id };
        if self
            .map
            .get_mut(name)
            .is_some_and(|holders| holders.remove(h))
        {
            self.map.remove(name);
        }
    }

    /// Verifies the index against a rebuild from `units`: the same
    /// names, each with the same holders, and no spilled list shorter
    /// than two.
    pub(crate) fn check(&self, units: &[StorageUnit]) -> Result<(), String> {
        let mut want: BTreeMap<&str, Vec<Holder>> = BTreeMap::new();
        for u in units {
            for f in u.files() {
                want.entry(&f.name).or_default().push(Holder {
                    unit: u.id,
                    id: f.file_id,
                });
            }
        }
        if self.map.len() != want.len() {
            return Err(format!(
                "name index holds {} names, the units hold {}",
                self.map.len(),
                want.len()
            ));
        }
        for (name, mut holders) in want {
            holders.sort_unstable();
            match self.map.get(name) {
                None => return Err(format!("name {name:?} missing from the index")),
                Some(Holders::Many(v)) if v.len() < 2 => {
                    return Err(format!("name {name:?} spilled with {} holders", v.len()))
                }
                Some(got) if got.as_slice() != holders => {
                    return Err(format!(
                        "name {name:?}: holders {:?}, expected {holders:?}",
                        got.as_slice()
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// The file `unit` answers a point lookup of `name` with: its first
/// file of that name in store order. `run` is the unit's holders of
/// the name; when they all share one id that id is the answer, else
/// (a rare duplicate name under distinct ids) the records decide.
pub(crate) fn first_in_store_order(unit: &StorageUnit, name: &str, run: &[Holder]) -> Option<u64> {
    match run {
        [first, .., last] if first.id != last.id => unit
            .files()
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.file_id),
        [first, ..] => Some(first.id),
        [] => None,
    }
}
