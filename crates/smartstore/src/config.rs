//! System-wide configuration with the paper's published defaults.

use smartstore_bloom::HashFamily;
use smartstore_rtree::RTreeConfig;
use smartstore_trace::AttributeKind;

/// All SmartStore tunables in one place.
#[derive(Clone, Debug)]
pub struct SmartStoreConfig {
    /// LSI rank `p` (singular values retained) for semantic projection.
    pub lsi_rank: usize,
    /// The grouping predicate: the attribute subset whose correlation
    /// drives file placement (Statement 1, §3.1.1: "find a subset of d
    /// attributes (1 ≤ d ≤ D), representing special interests, and use
    /// the correlation measured in this subset to partition similar file
    /// metadata"). The default uses all attributes — appropriate when
    /// behavioral attributes carry real correlation (as in the paper's
    /// traces, §1.1); narrow it to e.g. the paper's example predicate
    /// (size, creation time, modification time — §2.4) when some
    /// dimensions are known to be noise.
    pub grouping_dims: Vec<AttributeKind>,
    /// Admission threshold ε₁ for first-level grouping; per-level
    /// thresholds decay geometrically from it (deeper levels aggregate
    /// coarser groups, §3.1.1).
    pub admission_threshold: f64,
    /// Multiplicative decay of εᵢ per tree level.
    pub threshold_decay: f64,
    /// Fan-out bounds for the semantic R-tree (M and m of §4.1).
    pub rtree: RTreeConfig,
    /// Bloom filter bits per unit (paper: 1024, §5.1).
    pub bloom_bits: usize,
    /// Bloom hash count (paper: k = 7, §5.1).
    pub bloom_hashes: usize,
    /// Hash family deriving Bloom bit indexes. Defaults to the fast
    /// double-hashing family; set [`HashFamily::Md5`] to reproduce the
    /// paper's MD5 scheme (§5.1) bit for bit.
    pub bloom_family: HashFamily,
    /// Threshold for the automatic configuration: keep a subset R-tree
    /// when index-unit counts differ by more than this fraction
    /// (paper: 10%, §5.1).
    pub autoconfig_threshold: f64,
    /// Lazy-update threshold for off-line pre-processing: an index unit
    /// re-multicasts its replica after this fraction of its files
    /// changed (paper: 5%, §5.1).
    pub lazy_update_threshold: f64,
    /// File modification-to-version ratio (Fig. 14): 1 = comprehensive
    /// versioning (every change is a version); larger values aggregate
    /// more changes per version.
    pub version_ratio: u32,
    /// Durability tunables for the snapshot + WAL subsystem
    /// (`smartstore-persist`).
    pub persist: PersistConfig,
}

/// Tunables for the durable snapshot + write-ahead-log subsystem.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PersistConfig {
    /// `fsync` the WAL after this many appended frames (1 = sync every
    /// change, maximum durability; larger values batch syncs and trade
    /// the tail of the log for throughput).
    pub wal_sync_every: usize,
    /// Compact the WAL into a fresh snapshot once the log exceeds this
    /// many bytes.
    pub wal_compact_bytes: u64,
}

impl Default for PersistConfig {
    fn default() -> Self {
        Self {
            // Group-commit batches of 64 changes amortize fsync latency
            // without letting a crash lose more than one batch.
            wal_sync_every: 64,
            // 16 MiB of log ≈ a few hundred thousand changes before the
            // cost of replay outweighs the cost of a snapshot rewrite.
            wal_compact_bytes: 16 * 1024 * 1024,
        }
    }
}

impl Default for SmartStoreConfig {
    fn default() -> Self {
        Self {
            lsi_rank: 3,
            grouping_dims: AttributeKind::ALL.to_vec(),
            admission_threshold: 0.70,
            threshold_decay: 0.9,
            rtree: RTreeConfig {
                max_entries: 16,
                min_entries: 5,
            },
            bloom_bits: 1024,
            bloom_hashes: 7,
            bloom_family: HashFamily::default(),
            autoconfig_threshold: 0.10,
            lazy_update_threshold: 0.05,
            version_ratio: 16,
            persist: PersistConfig::default(),
        }
    }
}

impl SmartStoreConfig {
    /// Admission threshold for tree level `i` (1-based, level 1 groups
    /// storage units into first-level index units).
    pub fn threshold_for_level(&self, level: usize) -> f64 {
        assert!(level >= 1, "threshold_for_level: levels are 1-based");
        self.admission_threshold * self.threshold_decay.powi(level as i32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SmartStoreConfig::default();
        assert_eq!(c.bloom_bits, 1024);
        assert_eq!(c.bloom_hashes, 7);
        // The geometry matches the paper; the hash family defaults to
        // the fast one (MD5 stays selectable for strict fidelity).
        assert_eq!(c.bloom_family, HashFamily::Fast);
        assert!((c.autoconfig_threshold - 0.10).abs() < 1e-12);
        assert!((c.lazy_update_threshold - 0.05).abs() < 1e-12);
    }

    #[test]
    fn thresholds_decay_with_level() {
        let c = SmartStoreConfig::default();
        assert!(c.threshold_for_level(1) > c.threshold_for_level(2));
        assert!(c.threshold_for_level(2) > c.threshold_for_level(5));
        assert!((c.threshold_for_level(1) - c.admission_threshold).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn level_zero_panics() {
        SmartStoreConfig::default().threshold_for_level(0);
    }
}
