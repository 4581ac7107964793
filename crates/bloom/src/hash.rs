//! Bloom-filter hash families and the shared zero-allocation index
//! iterator.
//!
//! The paper derives bit indexes from MD5 (§5.1): the 128-bit digest is
//! split into four 32-bit words, and when more than four hash functions
//! are configured the key is re-digested with a little-endian round
//! counter appended (`key ‖ r_u32_le`). That costs `k.div_ceil(4)` full
//! MD5 compressions per probe — microseconds per hierarchy level, which
//! dominates full-path point latency once the unit-local lookup is tens
//! of nanoseconds.
//!
//! [`HashFamily::Fast`] replaces that with one pass over the key
//! (an FNV-style 64-bit mix with a splitmix64 finalizer) feeding
//! Kirsch–Mitzenmacher double hashing: index `i` is
//! `(h1 + i·h2) mod m`, which provably preserves the asymptotic
//! false-positive rate of `k` independent hashes (Kirsch &
//! Mitzenmacher, 2006). [`HashFamily::Md5`] remains available — and
//! bit-identical to the original scheme — for paper fidelity and for
//! reading v2 persisted images.
//!
//! Both families share [`BitIndexes`], an iterator that never touches
//! the heap: the MD5 arm streams the salt through [`md5_words_salted`]
//! instead of cloning the key, the fast arm is two u64s of state.
//!
//! The key hash is separable from the filter geometry, so it is done
//! once: [`HashFamily::prepare`] returns a [`PreparedKey`] (Fast: `h1`
//! and `h2`; MD5: the digest words) that derives the indexes for any
//! `(n_bits, n_hashes)`. A point query's descent of the semantic
//! R-tree probes every node and unit filter on its path with one
//! prepared key; [`HashFamily::indexes`] is the one-shot form of the
//! same derivation.

use crate::md5::{md5_words, md5_words_salted};

/// Which hash family a Bloom filter derives its bit indexes from.
///
/// The family is part of a filter's identity: two filters only
/// understand each other's bit patterns if they share it, so unions
/// assert equality and the persist codec records it per filter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HashFamily {
    /// The paper's MD5-derived indexes (§5.1): digest split into four
    /// 32-bit words, salted re-digest per extra round.
    Md5,
    /// One-pass 64-bit hash + Kirsch–Mitzenmacher double hashing.
    #[default]
    Fast,
}

impl HashFamily {
    /// Hashes `key` once, for probing any number of filters of this
    /// family: the descent of a Bloom hierarchy asks dozens of filters
    /// about one key, and the key hash — not the `n_hashes` bit tests —
    /// is what each of those probes would otherwise repeat.
    ///
    /// For [`HashFamily::Md5`] the digests of the rounds `n_hashes`
    /// needs (one per four hashes, at most [`PREPARED_MD5_ROUNDS`]) are
    /// computed up front; a filter that asks for more indexes than were
    /// prepared digests the remaining rounds from the borrowed key as
    /// its probe reaches them, so any `n_hashes` stays correct.
    pub fn prepare(self, key: &[u8], n_hashes: usize) -> PreparedKey<'_> {
        let hashed = match self {
            HashFamily::Md5 => {
                let rounds = n_hashes.div_ceil(4).min(PREPARED_MD5_ROUNDS);
                let mut words = [0u32; 4 * PREPARED_MD5_ROUNDS];
                for (r, lane) in words.chunks_exact_mut(4).take(rounds).enumerate() {
                    lane.copy_from_slice(&md5_round(key, r as u32));
                }
                Hashed::Md5 { words, rounds }
            }
            HashFamily::Fast => {
                let h1 = fast_hash64(key);
                Hashed::Fast {
                    h1,
                    h2: splitmix64(h1),
                }
            }
        };
        PreparedKey { key, hashed }
    }

    /// The `n_hashes` bit indexes of `key` in a filter of `n_bits`
    /// bits, as a zero-allocation iterator. One-shot form of
    /// [`Self::prepare`] + [`PreparedKey::indexes`]: only the first MD5
    /// round is digested up front, so a probe that misses within four
    /// indexes pays one compression.
    pub fn indexes(self, key: &[u8], n_bits: usize, n_hashes: usize) -> BitIndexes<'_> {
        self.prepare(key, 1).indexes(n_bits, n_hashes)
    }
}

/// MD5 rounds a [`PreparedKey`] holds at most: 16 index words, enough
/// for `n_hashes ≤ 16` (the paper uses 7) without touching the key
/// again.
pub const PREPARED_MD5_ROUNDS: usize = 4;

/// The digest words of round `round`: the plain digest for round 0,
/// `md5(key ‖ round_u32_le)` after that (§5.1's scheme for more than
/// four hash functions).
fn md5_round(key: &[u8], round: u32) -> [u32; 4] {
    if round == 0 {
        md5_words(key)
    } else {
        md5_words_salted(key, round)
    }
}

/// A key hashed once by [`HashFamily::prepare`], ready to probe any
/// filter of that family whatever its geometry — `n_bits` and
/// `n_hashes` enter only in [`Self::indexes`].
#[derive(Clone, Copy, Debug)]
pub struct PreparedKey<'k> {
    key: &'k [u8],
    hashed: Hashed,
}

#[derive(Clone, Copy, Debug)]
enum Hashed {
    Md5 {
        /// Digest words of rounds `0..rounds`, four per round.
        words: [u32; 4 * PREPARED_MD5_ROUNDS],
        rounds: usize,
    },
    Fast {
        h1: u64,
        h2: u64,
    },
}

impl<'k> PreparedKey<'k> {
    /// The key this was prepared from.
    pub fn key(&self) -> &'k [u8] {
        self.key
    }

    /// The family whose filters this key can probe.
    pub fn family(&self) -> HashFamily {
        match self.hashed {
            Hashed::Md5 { .. } => HashFamily::Md5,
            Hashed::Fast { .. } => HashFamily::Fast,
        }
    }

    /// The `n_hashes` bit indexes of the key in a filter of `n_bits`
    /// bits — the single index derivation behind every insert and
    /// probe.
    #[inline]
    pub fn indexes(&self, n_bits: usize, n_hashes: usize) -> BitIndexes<'k> {
        debug_assert!(n_bits > 0, "a Bloom filter needs at least one bit");
        let state = match self.hashed {
            Hashed::Md5 { words, rounds } => IndexState::Md5 {
                words,
                rounds,
                word: 0,
                digest: [0; 4],
            },
            Hashed::Fast { h1, h2 } => {
                let m = n_bits as u64;
                // Force an odd, non-zero stride: odd strides are
                // coprime with power-of-two `m` (the common geometry),
                // so the k probes never collapse onto one bit. For odd
                // `m` the reduction can still yield 0 — bump to 1.
                // The power-of-two arm is a pure strength reduction:
                // `h & (m-1)` is exactly `h % m` there, and the two u64
                // divisions otherwise rival the whole key hash in cost.
                let (first, step) = if m.is_power_of_two() {
                    (h1 & (m - 1), (h2 | 1) & (m - 1))
                } else {
                    (h1 % m, (h2 | 1) % m)
                };
                IndexState::Fast {
                    next: first,
                    step: step.max(u64::from(m > 1)),
                }
            }
        };
        BitIndexes {
            key: self.key,
            n_bits,
            remaining: n_hashes,
            state,
        }
    }
}

/// Per-family iterator state; the key and geometry live in
/// [`BitIndexes`].
enum IndexState {
    Md5 {
        /// The prepared digest words: rounds `0..rounds`, four each.
        words: [u32; 4 * PREPARED_MD5_ROUNDS],
        rounds: usize,
        /// Index of the next digest word across all rounds.
        word: usize,
        /// Digest of the current round, once past the prepared ones.
        digest: [u32; 4],
    },
    Fast {
        /// `(h1 + i·h2) mod m` accumulator.
        next: u64,
        /// `h2 mod m`, forced odd before reduction.
        step: u64,
    },
}

/// Zero-allocation iterator over a key's Bloom bit indexes. Shared by
/// [`crate::BloomFilter`], [`crate::CountingBloomFilter`] and the
/// hierarchy probes, for both hash families.
pub struct BitIndexes<'k> {
    key: &'k [u8],
    n_bits: usize,
    remaining: usize,
    state: IndexState,
}

impl Iterator for BitIndexes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match &mut self.state {
            IndexState::Md5 {
                words,
                rounds,
                word,
                digest,
            } => {
                let (round, lane) = (*word / 4, *word % 4);
                *word += 1;
                let w = if round < *rounds {
                    words[*word - 1]
                } else {
                    if lane == 0 {
                        *digest = md5_round(self.key, round as u32);
                    }
                    digest[lane]
                };
                Some(w as usize % self.n_bits)
            }
            IndexState::Fast { next, step } => {
                let idx = *next as usize;
                *next += *step;
                if *next >= self.n_bits as u64 {
                    *next -= self.n_bits as u64;
                }
                Some(idx)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for BitIndexes<'_> {}

/// One-pass 64-bit key hash: FNV-1a-style multiply-xor over 8-byte
/// lanes with a splitmix64 avalanche finalizer. Not cryptographic —
/// it only needs good bit dispersion for double hashing.
pub fn fast_hash64(key: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ (key.len() as u64).wrapping_mul(PRIME);
    let mut chunks = key.chunks_exact(8);
    for c in &mut chunks {
        let lane = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h = (h ^ lane).wrapping_mul(PRIME);
        h ^= h >> 29;
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        let lane = u64::from_le_bytes(tail);
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    splitmix64(h)
}

/// splitmix64 finalizer — full-avalanche mix of a 64-bit value.
pub fn splitmix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original (allocating) v2 derivation, kept verbatim as the
    /// reference the zero-alloc MD5 arm must match bit for bit.
    fn md5_reference(key: &[u8], n_bits: usize, n_hashes: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n_hashes);
        let mut round = 0u32;
        while out.len() < n_hashes {
            let words = if round == 0 {
                md5_words(key)
            } else {
                let mut salted = key.to_vec();
                salted.extend_from_slice(&round.to_le_bytes());
                md5_words(&salted)
            };
            for w in words {
                if out.len() == n_hashes {
                    break;
                }
                out.push(w as usize % n_bits);
            }
            round += 1;
        }
        out
    }

    #[test]
    fn md5_family_matches_v2_derivation() {
        for key in [&b"file_000001"[..], b"", b"a", &[0xffu8; 100]] {
            for (n_bits, n_hashes) in [(1024, 7), (1024, 4), (64, 1), (512, 9), (8192, 13)] {
                let got: Vec<usize> = HashFamily::Md5.indexes(key, n_bits, n_hashes).collect();
                assert_eq!(
                    got,
                    md5_reference(key, n_bits, n_hashes),
                    "key {key:?} geometry {n_bits}/{n_hashes}"
                );
            }
        }
    }

    #[test]
    fn fast_family_is_double_hashing() {
        let key = b"file_000042";
        let idx: Vec<usize> = HashFamily::Fast.indexes(key, 1024, 7).collect();
        assert_eq!(idx.len(), 7);
        assert!(idx.iter().all(|&i| i < 1024));
        // Consecutive differences are constant mod m — the KM invariant.
        let m = 1024i64;
        let d0 = (idx[1] as i64 - idx[0] as i64).rem_euclid(m);
        for w in idx.windows(2) {
            assert_eq!((w[1] as i64 - w[0] as i64).rem_euclid(m), d0);
        }
        assert_ne!(d0, 0, "stride must not collapse the probe sequence");
    }

    #[test]
    fn families_disagree() {
        // Sanity: the two families must not accidentally share indexes
        // (cross-family isolation depends on it).
        let a: Vec<usize> = HashFamily::Md5.indexes(b"file_1", 1024, 7).collect();
        let b: Vec<usize> = HashFamily::Fast.indexes(b"file_1", 1024, 7).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn iterator_is_exact_size() {
        let it = HashFamily::Fast.indexes(b"k", 1024, 7);
        assert_eq!(it.len(), 7);
        let it = HashFamily::Md5.indexes(b"k", 1024, 9);
        assert_eq!(it.count(), 9);
    }

    #[test]
    fn fast_hash_disperses() {
        // Distinct short keys must land in distinct buckets nearly
        // always; exact threshold is loose — this guards against a
        // catastrophic mixing bug, not hash quality.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            seen.insert(fast_hash64(format!("file_{i:08}").as_bytes()));
        }
        assert_eq!(seen.len(), 10_000, "full collision among 10k short keys");
    }
}
