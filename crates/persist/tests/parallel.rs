//! Parallel ≡ sequential for the durable image: a system built and
//! encoded under a pool of any size must produce the **same snapshot
//! bytes** as under a 1-thread pool. Grouping, placement and the
//! per-unit record encode + CRC all run on the shim-rayon pool, so this
//! pins every one of them at once, at the level a reader of the store
//! would notice.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use rayon::ThreadPoolBuilder;
use smartstore::{SmartStoreConfig, SmartStoreSystem};
use smartstore_persist::snapshot::encode_snapshot;
use smartstore_trace::{GeneratorConfig, MetadataPopulation};

/// Builds the system and encodes its snapshot under a pool of
/// `threads` logical threads.
fn snapshot_bytes(pop: &MetadataPopulation, threads: usize) -> Vec<u8> {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(|| {
            let sys =
                SmartStoreSystem::build(pop.files.clone(), 24, SmartStoreConfig::default(), 7);
            encode_snapshot(&sys.to_parts()).0
        })
}

#[test]
fn snapshot_bytes_identical_at_every_thread_count() {
    let pop = MetadataPopulation::generate(GeneratorConfig {
        n_files: 2_000,
        n_clusters: 12,
        seed: 7,
        ..GeneratorConfig::default()
    });
    let reference = snapshot_bytes(&pop, 1);
    for threads in [2usize, 4, 8] {
        let bytes = snapshot_bytes(&pop, threads);
        assert!(
            bytes == reference,
            "snapshot bytes diverged at {threads} threads ({} vs {} bytes)",
            bytes.len(),
            reference.len()
        );
    }
}
