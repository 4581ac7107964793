//! Property tests for the Bloom substrate: no false negatives, union
//! soundness, counting-filter delete correctness, MD5 determinism, and
//! the fast hash family's statistical health (false-positive proportion
//! near theory, double-hashing probes well dispersed, families
//! isolated).

#![allow(clippy::disallowed_methods)] // tests may unwrap

use proptest::prelude::*;
use smartstore_bloom::hash::{fast_hash64, splitmix64};
use smartstore_bloom::md5::md5;
use smartstore_bloom::{BloomFilter, CountingBloomFilter, HashFamily};

/// The index derivations written out longhand — no iterator, no
/// prepared key, no power-of-two shortcut — as the reference the
/// prepared path must reproduce.
fn reference_indexes(family: HashFamily, key: &[u8], n_bits: usize, n_hashes: usize) -> Vec<usize> {
    match family {
        HashFamily::Md5 => (0..n_hashes)
            .map(|i| {
                let digest = if i / 4 == 0 {
                    md5(key)
                } else {
                    let mut salted = key.to_vec();
                    salted.extend_from_slice(&((i / 4) as u32).to_le_bytes());
                    md5(&salted)
                };
                let lane = &digest[(i % 4) * 4..(i % 4) * 4 + 4];
                u32::from_le_bytes(lane.try_into().unwrap()) as usize % n_bits
            })
            .collect(),
        HashFamily::Fast => {
            let m = n_bits as u128;
            let h1 = fast_hash64(key);
            let first = h1 as u128 % m;
            let step = ((splitmix64(h1) | 1) as u128 % m).max(u128::from(m > 1));
            (0..n_hashes as u128)
                .map(|i| ((first + i * step) % m) as usize)
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn never_false_negative(
        keys in prop::collection::vec("[a-z0-9_/]{1,40}", 1..200),
        bits in 64usize..4096,
        hashes in 1usize..10,
    ) {
        let mut f = BloomFilter::new(bits, hashes);
        for k in &keys {
            f.insert(k.as_bytes());
        }
        for k in &keys {
            prop_assert!(f.contains(k.as_bytes()), "false negative for {k}");
        }
    }

    #[test]
    fn prepared_probe_matches_unprepared(
        members in prop::collection::vec("[a-z0-9_/.]{0,40}", 1..80),
        probes in prop::collection::vec("[a-z0-9_/.]{0,40}", 1..40),
        geometry in 0usize..4,
        hashes in 1usize..17,
        // How many hashes the key is prepared for: fewer than the
        // filter uses exercises the digest-on-demand rounds.
        prepared_for in 0usize..20,
    ) {
        let bits = [64usize, 1000, 1024, 4093][geometry];
        for family in [HashFamily::Md5, HashFamily::Fast] {
            let mut f = BloomFilter::with_family(bits, hashes, family);
            for k in &members {
                f.insert(k.as_bytes());
            }
            for k in members.iter().chain(&probes) {
                let key = k.as_bytes();
                let want = reference_indexes(family, key, bits, hashes);
                let unprepared: Vec<usize> = family.indexes(key, bits, hashes).collect();
                prop_assert_eq!(&unprepared, &want, "{:?} unprepared indexes of {:?}", family, k);
                for prepared in [f.prepare(key), family.prepare(key, prepared_for)] {
                    let got: Vec<usize> = prepared.indexes(bits, hashes).collect();
                    prop_assert_eq!(&got, &want, "{:?} prepared indexes of {:?}", family, k);
                    prop_assert_eq!(f.contains_prepared(&prepared), f.contains(key));
                }
                // A key prepared in the other family still gets this
                // filter's verdict.
                let other = match family {
                    HashFamily::Md5 => HashFamily::Fast,
                    HashFamily::Fast => HashFamily::Md5,
                };
                prop_assert_eq!(
                    f.contains_prepared(&other.prepare(key, hashes)),
                    f.contains(key)
                );
                // And the verdict is the longhand one.
                let lit = want.iter().all(|&i| f.words()[i / 64] & (1u64 << (i % 64)) != 0);
                prop_assert_eq!(f.contains(key), lit);
            }
        }
    }

    #[test]
    fn union_is_superset_of_both_sides(
        a in prop::collection::vec("[a-z]{1,20}", 0..100),
        b in prop::collection::vec("[a-z]{1,20}", 1..100),
    ) {
        let mut fa = BloomFilter::new(1024, 7);
        let mut fb = BloomFilter::new(1024, 7);
        for k in &a { fa.insert(k.as_bytes()); }
        for k in &b { fb.insert(k.as_bytes()); }
        let u = BloomFilter::union_all([&fa, &fb]);
        for k in a.iter().chain(&b) {
            prop_assert!(u.contains(k.as_bytes()));
        }
        // Union never prunes where a member filter reports presence.
        for probe in ["zzz", "abc", "qqq"] {
            if fa.contains(probe.as_bytes()) || fb.contains(probe.as_bytes()) {
                prop_assert!(u.contains(probe.as_bytes()));
            }
        }
    }

    #[test]
    fn counting_filter_matches_multiset_semantics(
        ops in prop::collection::vec(("[a-g]", any::<bool>()), 1..300),
    ) {
        let mut f = CountingBloomFilter::new(2048, 5);
        let mut model: std::collections::HashMap<String, usize> = Default::default();
        for (key, is_insert) in ops {
            if is_insert {
                f.insert(key.as_bytes());
                *model.entry(key).or_insert(0) += 1;
            } else {
                let have = model.get(&key).copied().unwrap_or(0);
                let removed = f.remove(key.as_bytes());
                if have > 0 {
                    prop_assert!(removed, "remove of live key {key} must succeed");
                    *model.get_mut(&key).unwrap() -= 1;
                } else if removed {
                    // A false-positive removal is possible but must not
                    // create false negatives for other live keys —
                    // checked below. Track nothing.
                }
            }
        }
        // With a 2048-counter filter and ≤7 distinct short keys,
        // counter collisions between distinct keys are overwhelmingly
        // unlikely, so live keys must still be present.
        for (key, &count) in &model {
            if count > 0 {
                prop_assert!(f.contains(key.as_bytes()), "live key {key} lost");
            }
        }
    }

    #[test]
    fn counting_export_preserves_membership(
        keys in prop::collection::vec("[a-z]{1,12}", 0..80),
    ) {
        let mut cf = CountingBloomFilter::new(1024, 7);
        for k in &keys {
            cf.insert(k.as_bytes());
        }
        let plain = cf.to_bloom();
        for k in &keys {
            prop_assert!(plain.contains(k.as_bytes()));
        }
    }

    #[test]
    fn fast_family_never_false_negative(
        keys in prop::collection::vec("[a-z0-9_/]{1,40}", 1..200),
        bits in 64usize..4096,
        hashes in 1usize..10,
    ) {
        let mut f = BloomFilter::with_family(bits, hashes, HashFamily::Fast);
        for k in &keys {
            f.insert(k.as_bytes());
        }
        for k in &keys {
            prop_assert!(f.contains(k.as_bytes()), "false negative for {k}");
        }
    }

    #[test]
    fn fast_family_fpp_tracks_theory(
        n_keys in 100usize..300,
        bits_pow in 12u32..14,
        hashes in 4usize..8,
        salt in 0u32..1000,
    ) {
        // Observed false-positive proportion must stay within 3× the
        // classic estimate (1 - e^{-kn/m})^k, plus additive slack that
        // absorbs sampling noise over the 2000 absent probes.
        let bits = 1usize << bits_pow;
        let mut f = BloomFilter::with_family(bits, hashes, HashFamily::Fast);
        for i in 0..n_keys {
            f.insert(format!("member_{salt}_{i}").as_bytes());
        }
        let probes = 2000usize;
        let fp = (0..probes)
            .filter(|i| f.contains(format!("absent_{salt}_{i}").as_bytes()))
            .count();
        let k = hashes as f64;
        let theory = (1.0 - (-k * n_keys as f64 / bits as f64).exp()).powf(k);
        let observed = fp as f64 / probes as f64;
        prop_assert!(
            observed <= 3.0 * theory + 0.005,
            "fpp {observed:.4} vs theory {theory:.4} (m={bits}, k={hashes}, n={n_keys})"
        );
    }

    #[test]
    fn fast_family_probes_are_dispersed(
        salt in 0u32..1000,
    ) {
        // First-probe positions of many distinct keys over a power-of-
        // two table must spread: folded into 64 buckets, no bucket may
        // be empty or hold more than 3× its fair share. Catches both a
        // broken mixer (clumping) and a degenerate stride choice.
        let m = 4096usize;
        let n = 4096usize;
        let mut buckets = [0usize; 64];
        for i in 0..n {
            let key = format!("disperse_{salt}_{i}");
            let first = HashFamily::Fast
                .indexes(key.as_bytes(), m, 1)
                .next()
                .unwrap();
            buckets[first * 64 / m] += 1;
        }
        let fair = n / 64;
        for (b, &count) in buckets.iter().enumerate() {
            prop_assert!(count > 0, "bucket {b} empty");
            prop_assert!(count <= 3 * fair, "bucket {b} holds {count} (fair {fair})");
        }
    }

    #[test]
    fn families_are_isolated(
        keys in prop::collection::vec("[a-z0-9]{4,24}", 20..60),
    ) {
        // The same key set must light different bit patterns under the
        // two families — proof the family tag actually selects distinct
        // derivations and one family's image can't pose as the other's.
        let mut md5f = BloomFilter::with_family(2048, 5, HashFamily::Md5);
        let mut fast = BloomFilter::with_family(2048, 5, HashFamily::Fast);
        for k in &keys {
            md5f.insert(k.as_bytes());
            fast.insert(k.as_bytes());
        }
        prop_assert_ne!(md5f.words(), fast.words());
        // Both still honor the no-false-negative contract.
        for k in &keys {
            prop_assert!(md5f.contains(k.as_bytes()));
            prop_assert!(fast.contains(k.as_bytes()));
        }
    }

    #[test]
    fn md5_is_deterministic_and_length_sensitive(
        data in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let d1 = md5(&data);
        let d2 = md5(&data);
        prop_assert_eq!(d1, d2);
        let mut extended = data.clone();
        extended.push(0);
        prop_assert_ne!(md5(&extended), d1, "appending a byte must change the digest");
    }
}
