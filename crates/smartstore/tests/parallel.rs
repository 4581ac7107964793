//! Parallel ≡ sequential: the grouping pipeline must produce
//! **bit-identical** results at every thread count.
//!
//! The shim-rayon pool guarantees length-only chunking and in-order
//! partial combination; these tests pin the property where it matters
//! — the O(n²) similarity kernel, one-level grouping, balanced
//! partitioning and the sort-tile placement the system builds with — by
//! running the same input under a 1-thread pool
//! (sequential execution) and multi-thread pools and requiring exact
//! `f64` equality.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use smartstore::grouping::{
    group_level, kernel_similarities, partition_balanced, partition_tiled, wcss,
};

fn vec_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((-500i32..500).prop_map(|v| v as f64 / 13.0), 6),
        n,
    )
}

/// Runs `f` under a pool of `threads` logical threads.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_similarities_parallel_matches_sequential_exactly(
        vectors in vec_strategy(2..60),
        rank in 1usize..4,
    ) {
        let sequential = with_threads(1, || kernel_similarities(&vectors, rank));
        for threads in [2usize, 4, 8] {
            let parallel = with_threads(threads, || kernel_similarities(&vectors, rank));
            prop_assert_eq!(sequential.len(), parallel.len());
            for (i, (rs, rp)) in sequential.iter().zip(&parallel).enumerate() {
                for (j, (s, p)) in rs.iter().zip(rp).enumerate() {
                    prop_assert!(
                        s.to_bits() == p.to_bits(),
                        "sims[{}][{}] differ at {} threads: {} vs {}",
                        i, j, threads, s, p
                    );
                }
            }
        }
    }

    #[test]
    fn group_level_parallel_matches_sequential_exactly(
        vectors in vec_strategy(2..50),
        eps in 0.5f64..0.99,
    ) {
        let seq = with_threads(1, || group_level(&vectors, eps, 2, 8));
        let par = with_threads(4, || group_level(&vectors, eps, 2, 8));
        prop_assert_eq!(&seq.groups, &par.groups);
        // Centroids are f64 — require exact bit equality, not closeness.
        prop_assert_eq!(seq.centroids.len(), par.centroids.len());
        for (cs, cp) in seq.centroids.iter().zip(&par.centroids) {
            for (a, b) in cs.iter().zip(cp) {
                prop_assert!(a.to_bits() == b.to_bits());
            }
        }
        let ws = with_threads(1, || wcss(&vectors, &seq.groups));
        let wp = with_threads(4, || wcss(&vectors, &par.groups));
        prop_assert!(ws.to_bits() == wp.to_bits());
    }

    #[test]
    fn partition_balanced_parallel_matches_sequential_exactly(
        vectors in vec_strategy(8..80),
        seed in 0u64..1000,
    ) {
        let parts = 4usize.min(vectors.len());
        let seq = with_threads(1, || partition_balanced(&vectors, parts, 3, seed));
        let par = with_threads(4, || partition_balanced(&vectors, parts, 3, seed));
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn partition_tiled_parallel_matches_sequential_exactly(
        vectors in vec_strategy(8..80),
        parts in 1usize..9,
        rank in 1usize..4,
    ) {
        let seq = with_threads(1, || partition_tiled(&vectors, parts, rank));
        for threads in [2usize, 4, 8] {
            let par = with_threads(threads, || partition_tiled(&vectors, parts, rank));
            prop_assert_eq!(&seq, &par, "partition_tiled diverged at {} threads", threads);
        }
    }
}
