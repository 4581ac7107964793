//! The Bloom filter proper: a fixed-size bit array with k hash
//! functions from a selectable [`HashFamily`], plus union.

use crate::hash::{HashFamily, PreparedKey};

/// Filter size used throughout the paper's evaluation (§5.1).
pub const PAPER_BITS: usize = 1024;
/// Hash-function count used throughout the paper's evaluation (§5.1).
pub const PAPER_HASHES: usize = 7;

/// A Bloom filter over byte-string keys.
///
/// Bit indexes come from the filter's [`HashFamily`]: either the
/// paper's MD5 scheme (digest split into four 32-bit words, salted
/// re-digest per extra round) or the fast double-hashing family. The
/// family is part of the filter's identity — filters of different
/// families do not understand each other's bit patterns, so unions
/// assert family equality.
#[derive(Clone, Debug, PartialEq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: usize,
    n_hashes: usize,
    inserted: usize,
    family: HashFamily,
}

impl BloomFilter {
    /// Creates an empty filter with `n_bits` bits and `n_hashes` hash
    /// functions in the default hash family.
    ///
    /// # Panics
    /// If `n_bits` or `n_hashes` is zero.
    pub fn new(n_bits: usize, n_hashes: usize) -> Self {
        Self::with_family(n_bits, n_hashes, HashFamily::default())
    }

    /// Creates an empty filter in an explicit hash family.
    ///
    /// # Panics
    /// If `n_bits` or `n_hashes` is zero.
    pub fn with_family(n_bits: usize, n_hashes: usize, family: HashFamily) -> Self {
        assert!(n_bits > 0, "BloomFilter: need at least one bit");
        assert!(n_hashes > 0, "BloomFilter: need at least one hash");
        Self {
            bits: vec![0u64; n_bits.div_ceil(64)],
            n_bits,
            n_hashes,
            inserted: 0,
            family,
        }
    }

    /// The paper's configuration: 1024 bits, 7 hashes, MD5 indexes.
    pub fn paper_default() -> Self {
        Self::with_family(PAPER_BITS, PAPER_HASHES, HashFamily::Md5)
    }

    /// Number of bits.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Number of hash functions.
    pub fn n_hashes(&self) -> usize {
        self.n_hashes
    }

    /// The hash family this filter's bit patterns belong to.
    pub fn family(&self) -> HashFamily {
        self.family
    }

    /// Number of keys inserted (not deduplicated).
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Memory footprint of the bit array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        for i in self.family.indexes(key, self.n_bits, self.n_hashes) {
            self.bits[i / 64] |= 1u64 << (i % 64);
        }
        self.inserted += 1;
    }

    /// Membership check: `false` means *definitely absent*; `true` means
    /// present with probability `1 − false_positive_rate`.
    #[inline]
    pub fn contains(&self, key: &[u8]) -> bool {
        // One-shot probe: hash the least up front (a miss within four
        // indexes then costs one MD5 compression, not `n_hashes / 4`).
        self.contains_prepared(&self.family.prepare(key, 1))
    }

    /// Hashes `key` once for this filter's family and hash count; the
    /// result probes any filter of the same family.
    #[inline]
    pub fn prepare<'k>(&self, key: &'k [u8]) -> PreparedKey<'k> {
        self.family.prepare(key, self.n_hashes)
    }

    /// [`Self::contains`] for a key that was hashed ahead of the probe
    /// — the one probe loop. A key prepared for the other hash family
    /// is re-hashed in this filter's own, so the verdict never depends
    /// on where the key was prepared.
    #[inline]
    pub fn contains_prepared(&self, key: &PreparedKey<'_>) -> bool {
        if key.family() != self.family {
            return self.contains(key.key());
        }
        key.indexes(self.n_bits, self.n_hashes)
            .all(|i| self.bits[i / 64] & (1u64 << (i % 64)) != 0)
    }

    /// Logical union with another filter (the index-unit construction of
    /// §3.3.3).
    ///
    /// # Panics
    /// If the two filters have different geometry or hash family.
    pub fn union_in_place(&mut self, other: &BloomFilter) {
        assert_eq!(self.n_bits, other.n_bits, "union: bit-count mismatch");
        assert_eq!(self.n_hashes, other.n_hashes, "union: hash-count mismatch");
        assert_eq!(self.family, other.family, "union: hash-family mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
        self.inserted += other.inserted;
    }

    /// Union of a non-empty set of filters.
    ///
    /// # Panics
    /// If `filters` is empty or geometries/families differ.
    pub fn union_all<'a, I: IntoIterator<Item = &'a BloomFilter>>(filters: I) -> BloomFilter {
        let mut it = filters.into_iter();
        let mut acc = it.next().expect("union_all: empty input").clone();
        for f in it {
            acc.union_in_place(f);
        }
        acc
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }

    /// The raw 64-bit words backing the bit array (for serialization).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Reassembles a filter from its raw parts (the deserialization
    /// inverse of [`Self::words`] plus the geometry and family
    /// accessors).
    ///
    /// # Panics
    /// If the geometry is zero or `words` does not match `n_bits`.
    pub fn from_raw(
        n_bits: usize,
        n_hashes: usize,
        inserted: usize,
        words: Vec<u64>,
        family: HashFamily,
    ) -> Self {
        assert!(n_bits > 0, "BloomFilter: need at least one bit");
        assert!(n_hashes > 0, "BloomFilter: need at least one hash");
        assert_eq!(
            words.len(),
            n_bits.div_ceil(64),
            "from_raw: word-count mismatch"
        );
        Self {
            bits: words,
            n_bits,
            n_hashes,
            inserted,
            family,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Theoretical false-positive probability for `n` inserted keys:
    /// `(1 − e^(−k·n/m))^k`.
    fn theoretical_fpp(n_bits: usize, n_hashes: usize, n_keys: usize) -> f64 {
        let m = n_bits as f64;
        let k = n_hashes as f64;
        let n = n_keys as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Number of set bits.
    fn popcount(f: &BloomFilter) -> usize {
        f.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn no_false_negatives() {
        for family in [HashFamily::Md5, HashFamily::Fast] {
            let mut f = BloomFilter::with_family(PAPER_BITS, PAPER_HASHES, family);
            let keys: Vec<String> = (0..100).map(|i| format!("file_{i}")).collect();
            for k in &keys {
                f.insert(k.as_bytes());
            }
            for k in &keys {
                assert!(
                    f.contains(k.as_bytes()),
                    "false negative for {k} ({family:?})"
                );
            }
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::paper_default();
        assert!(!f.contains(b"anything"));
        assert_eq!(popcount(&f), 0);
        assert_eq!(f.family(), HashFamily::Md5);
    }

    #[test]
    fn false_positive_rate_near_theory() {
        for family in [HashFamily::Md5, HashFamily::Fast] {
            let mut f = BloomFilter::with_family(1024, 7, family);
            let n = 100;
            for i in 0..n {
                f.insert(format!("member_{i}").as_bytes());
            }
            let trials = 10_000;
            let fp = (0..trials)
                .filter(|i| f.contains(format!("nonmember_{i}").as_bytes()))
                .count();
            let observed = fp as f64 / trials as f64;
            let theory = theoretical_fpp(1024, 7, n);
            // Within a factor of 3 of theory (binomial noise + hash quality).
            assert!(
                observed < theory * 3.0 + 0.005,
                "observed fpp {observed} too far above theory {theory} ({family:?})"
            );
        }
    }

    #[test]
    fn union_contains_both_sides() {
        let mut a = BloomFilter::new(512, 5);
        let mut b = BloomFilter::new(512, 5);
        a.insert(b"alpha");
        b.insert(b"beta");
        let u = BloomFilter::union_all([&a, &b]);
        assert!(u.contains(b"alpha"));
        assert!(u.contains(b"beta"));
        assert_eq!(u.inserted(), 2);
    }

    #[test]
    fn union_popcount_is_bitwise_or() {
        let mut a = BloomFilter::new(256, 3);
        let mut b = BloomFilter::new(256, 3);
        for i in 0..20 {
            a.insert(format!("a{i}").as_bytes());
            b.insert(format!("b{i}").as_bytes());
        }
        let u = BloomFilter::union_all([&a, &b]);
        assert!(popcount(&u) <= popcount(&a) + popcount(&b));
        assert!(popcount(&u) >= popcount(&a).max(popcount(&b)));
    }

    #[test]
    #[should_panic]
    fn union_geometry_mismatch_panics() {
        let mut a = BloomFilter::new(128, 3);
        let b = BloomFilter::new(256, 3);
        a.union_in_place(&b);
    }

    #[test]
    #[should_panic]
    fn union_family_mismatch_panics() {
        let mut a = BloomFilter::with_family(128, 3, HashFamily::Md5);
        let b = BloomFilter::with_family(128, 3, HashFamily::Fast);
        a.union_in_place(&b);
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(128, 3);
        f.insert(b"x");
        assert!(f.contains(b"x"));
        f.clear();
        assert!(!f.contains(b"x"));
        assert_eq!(f.inserted(), 0);
    }

    #[test]
    fn theoretical_fpp_monotone_in_keys() {
        let a = theoretical_fpp(1024, 7, 50);
        let b = theoretical_fpp(1024, 7, 200);
        assert!(a < b);
        assert!(a > 0.0 && b < 1.0);
    }

    #[test]
    fn more_than_four_hashes_uses_salted_rounds() {
        // With 7 hashes, rounds 0 and 1 are both exercised; differing
        // keys must not collide on all 7 indexes in a big filter.
        let mut f = BloomFilter::with_family(1 << 20, 7, HashFamily::Md5);
        f.insert(b"only-member");
        let fp = (0..1000)
            .filter(|i| f.contains(format!("probe{i}").as_bytes()))
            .count();
        assert_eq!(fp, 0, "1M-bit filter with one key should have ~0 fpp");
    }

    #[test]
    fn fill_ratio_bounds() {
        let mut f = BloomFilter::new(64, 2);
        for i in 0..1000 {
            f.insert(format!("k{i}").as_bytes());
        }
        let fill = popcount(&f) as f64 / f.n_bits() as f64;
        assert!(fill > 0.99, "heavily loaded filter should saturate");
    }

    #[test]
    fn from_raw_round_trips_family() {
        let mut f = BloomFilter::with_family(256, 5, HashFamily::Fast);
        f.insert(b"key");
        let g = BloomFilter::from_raw(
            f.n_bits(),
            f.n_hashes(),
            f.inserted(),
            f.words().to_vec(),
            f.family(),
        );
        assert_eq!(f, g);
        assert!(g.contains(b"key"));
    }
}
