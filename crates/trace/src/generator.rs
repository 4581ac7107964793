//! Synthetic metadata population with planted semantic clusters.
//!
//! The evaluation needs file populations in which "correlated files" are
//! an objective fact: the generator plants `G` latent clusters — think
//! "the output files of one simulation campaign" or "one user's photo
//! imports" — whose members share correlated sizes, timestamps, I/O
//! volumes and process ids, plus a background of uncorrelated files.
//! The ground-truth cluster id is recorded on each record for test
//! assertions but is never shown to the system under test; recall in the
//! experiments is always measured against exhaustive search, exactly as
//! the paper does (§5.4.2).

use crate::distributions::{sample_clamped_normal, sample_log_normal, Zipf};
use crate::metadata::FileMetadata;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for a synthetic metadata population.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Total number of files.
    pub n_files: usize,
    /// Number of planted semantic clusters.
    pub n_clusters: usize,
    /// Fraction of files that belong to some cluster (rest are
    /// background noise). In real traces correlation is strong — the
    /// paper cites ≥ 80% inter-file access correlation (§1.1).
    pub clustered_fraction: f64,
    /// Trace duration in seconds (timestamps are drawn inside it).
    pub duration: f64,
    /// Mean of ln(size) for the log-normal size distribution.
    pub size_mu: f64,
    /// Std-dev of ln(size).
    pub size_sigma: f64,
    /// Zipf exponent for file popularity (access counts).
    pub popularity_exponent: f64,
    /// Number of distinct user accounts.
    pub n_users: u32,
    /// Number of distinct processes.
    pub n_procs: u32,
    /// RNG seed — every population is fully reproducible.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            n_files: 10_000,
            n_clusters: 60,
            clustered_fraction: 0.8,
            duration: 86_400.0 * 7.0,
            size_mu: 9.5,    // median ≈ 13 KB
            size_sigma: 2.5, // heavy tail into GBs
            popularity_exponent: 1.0,
            n_users: 200,
            n_procs: 64,
            seed: 0x5eed,
        }
    }
}

/// Centroid of one planted cluster in generation space.
#[derive(Clone, Debug)]
struct ClusterProfile {
    size_mu: f64,
    ctime_center: f64,
    ctime_spread: f64,
    mtime_lag: f64,
    rw_ratio: f64,
    /// Cluster-typical access count (campaign files share popularity —
    /// the paper cites up to 80% inter-file access correlation, §1.1).
    popularity: f64,
    /// Cluster-typical I/O volume multiplier.
    io_intensity: f64,
    proc_id: u32,
    owner: u32,
    dir: String,
}

/// A generated population of file metadata.
#[derive(Clone, Debug)]
pub struct MetadataPopulation {
    /// All file records, `file_id` equal to the index.
    pub files: Vec<FileMetadata>,
    /// The configuration that produced the population.
    pub config: GeneratorConfig,
}

impl MetadataPopulation {
    /// Generates a population from the configuration (deterministic in
    /// `config.seed`).
    pub fn generate(config: GeneratorConfig) -> Self {
        assert!(config.n_files > 0, "generate: need at least one file");
        assert!(
            (0.0..=1.0).contains(&config.clustered_fraction),
            "generate: clustered_fraction must be in [0,1]"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n_clusters = config.n_clusters.max(1);

        // Cluster profiles: a campaign has a characteristic file size,
        // a burst of creation times, a read/write personality, one
        // dominant process, one owner, one directory.
        let profiles: Vec<ClusterProfile> = (0..n_clusters)
            .map(|c| ClusterProfile {
                size_mu: config.size_mu + sample_clamped_normal(&mut rng, 0.0, 2.0, -4.0, 4.0),
                ctime_center: rng.gen::<f64>() * config.duration,
                ctime_spread: config.duration * (0.002 + rng.gen::<f64>() * 0.02),
                mtime_lag: rng.gen::<f64>() * config.duration * 0.05,
                rw_ratio: rng.gen::<f64>(),
                popularity: sample_log_normal(&mut rng, 2.0, 1.0).clamp(1.0, 1e5),
                io_intensity: sample_log_normal(&mut rng, 0.0, 1.0).clamp(1e-3, 1e3),
                proc_id: rng.gen_range(0..config.n_procs),
                owner: rng.gen_range(0..config.n_users),
                dir: format!("/data/campaign_{c:04}"),
            })
            .collect();

        let popularity = Zipf::new(config.n_files as u64, config.popularity_exponent);
        let mut files = Vec::with_capacity(config.n_files);
        for id in 0..config.n_files {
            let clustered = rng.gen::<f64>() < config.clustered_fraction;
            let cluster = clustered.then(|| rng.gen_range(0..n_clusters) as u32);
            let file = Self::generate_file(
                id as u64,
                cluster,
                cluster.map(|c| &profiles[c as usize]),
                &config,
                &popularity,
                &mut rng,
            );
            files.push(file);
        }
        Self { files, config }
    }

    fn generate_file(
        id: u64,
        cluster: Option<u32>,
        profile: Option<&ClusterProfile>,
        cfg: &GeneratorConfig,
        popularity: &Zipf,
        rng: &mut StdRng,
    ) -> FileMetadata {
        // Popularity rank drives access counts (Zipf, rank 1 hottest).
        // Background files draw Zipf popularity; clustered files share
        // their campaign's typical popularity (with per-file jitter), so
        // behavioral attributes are semantically correlated too.
        let access_count = match profile {
            Some(p) => {
                (p.popularity * sample_log_normal(rng, 0.0, 0.25)).clamp(1.0, 100_000.0) as u32
            }
            None => {
                let rank = popularity.sample(rng);
                ((cfg.n_files as f64 / rank as f64).sqrt().ceil() as u32).clamp(1, 100_000)
            }
        };

        let (size, ctime, mtime, proc_id, owner, dir, rw_ratio) = match profile {
            Some(p) => {
                let size = sample_log_normal(rng, p.size_mu, 0.4).clamp(1.0, 1e13) as u64;
                let ctime =
                    sample_clamped_normal(rng, p.ctime_center, p.ctime_spread, 0.0, cfg.duration);
                let mtime = (ctime + rng.gen::<f64>() * p.mtime_lag).min(cfg.duration);
                // Process/owner mostly the campaign's, occasionally not.
                let proc_id = if rng.gen::<f64>() < 0.95 {
                    p.proc_id
                } else {
                    rng.gen_range(0..cfg.n_procs)
                };
                let owner = if rng.gen::<f64>() < 0.9 {
                    p.owner
                } else {
                    rng.gen_range(0..cfg.n_users)
                };
                (
                    size,
                    ctime,
                    mtime,
                    proc_id,
                    owner,
                    p.dir.clone(),
                    p.rw_ratio,
                )
            }
            None => {
                let size =
                    sample_log_normal(rng, cfg.size_mu, cfg.size_sigma).clamp(1.0, 1e13) as u64;
                let ctime = rng.gen::<f64>() * cfg.duration;
                let mtime = ctime + rng.gen::<f64>() * (cfg.duration - ctime);
                (
                    size,
                    ctime,
                    mtime,
                    rng.gen_range(0..cfg.n_procs),
                    rng.gen_range(0..cfg.n_users),
                    format!("/home/user_{:03}", rng.gen_range(0..cfg.n_users)),
                    rng.gen::<f64>(),
                )
            }
        };

        // Clustered files are re-read shortly after their campaign
        // writes them; background files any time later.
        let atime = match profile {
            Some(_) => (mtime + rng.gen::<f64>() * cfg.duration * 0.05).min(cfg.duration),
            None => mtime + rng.gen::<f64>() * (cfg.duration - mtime).max(0.0),
        };
        let intensity = match profile {
            Some(p) => p.io_intensity * sample_log_normal(rng, 0.0, 0.2),
            None => rng.gen::<f64>(),
        };
        let io_total = (size as f64 * access_count as f64 * intensity).min(1e15);
        let read_bytes = (io_total * rw_ratio) as u64;
        let write_bytes = (io_total * (1.0 - rw_ratio)) as u64;

        FileMetadata {
            file_id: id,
            name: format!("file_{id:08}"),
            dir,
            owner,
            size,
            ctime,
            mtime,
            atime,
            read_bytes,
            write_bytes,
            access_count,
            proc_id,
            truth_cluster: cluster,
        }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when empty (never, for a generated population).
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Per-dimension `[min, max]` bounds of the projected attribute
    /// space — used to construct query workloads inside the domain.
    pub fn attr_bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let d = crate::metadata::ATTR_DIMS;
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for f in &self.files {
            for (i, v) in f.attr_vector().into_iter().enumerate() {
                lo[i] = lo[i].min(v);
                hi[i] = hi[i].max(v);
            }
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartstore_linalg_test_helpers::*;

    /// Minimal local helpers (no external dep): mean of a slice.
    mod smartstore_linalg_test_helpers {
        pub fn mean(xs: &[f64]) -> f64 {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    fn small_pop() -> MetadataPopulation {
        MetadataPopulation::generate(GeneratorConfig {
            n_files: 2000,
            n_clusters: 10,
            seed: 99,
            ..GeneratorConfig::default()
        })
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small_pop();
        let b = small_pop();
        assert_eq!(a.files, b.files);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_pop();
        let b = MetadataPopulation::generate(GeneratorConfig {
            n_files: 2000,
            n_clusters: 10,
            seed: 100,
            ..GeneratorConfig::default()
        });
        assert_ne!(a.files, b.files);
    }

    #[test]
    fn clustered_fraction_honored() {
        let pop = small_pop();
        let clustered = pop
            .files
            .iter()
            .filter(|f| f.truth_cluster.is_some())
            .count();
        let frac = clustered as f64 / pop.len() as f64;
        assert!((frac - 0.8).abs() < 0.05, "clustered fraction {frac}");
    }

    #[test]
    fn cluster_members_share_attributes() {
        let pop = small_pop();
        // For each cluster with >= 5 members, intra-cluster ctime spread
        // must be far below the global spread.
        let global: Vec<f64> = pop.files.iter().map(|f| f.ctime).collect();
        let global_mean = mean(&global);
        let global_var = mean(
            &global
                .iter()
                .map(|&x| (x - global_mean).powi(2))
                .collect::<Vec<_>>(),
        );
        let mut checked = 0;
        for c in 0..10u32 {
            let members: Vec<f64> = pop
                .files
                .iter()
                .filter(|f| f.truth_cluster == Some(c))
                .map(|f| f.ctime)
                .collect();
            if members.len() < 5 {
                continue;
            }
            let m = mean(&members);
            let v = mean(&members.iter().map(|&x| (x - m).powi(2)).collect::<Vec<_>>());
            assert!(
                v < global_var * 0.25,
                "cluster {c} ctime variance {v} not much below global {global_var}"
            );
            checked += 1;
        }
        assert!(checked >= 5, "too few populated clusters to validate");
    }

    #[test]
    fn sizes_are_heavy_tailed() {
        let pop = small_pop();
        let mut sizes: Vec<u64> = pop.files.iter().map(|f| f.size).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2] as f64;
        let p99 = sizes[sizes.len() * 99 / 100] as f64;
        assert!(
            p99 > median * 50.0,
            "p99 {p99} should dwarf median {median}"
        );
    }

    #[test]
    fn timestamps_ordered_and_in_domain() {
        let pop = small_pop();
        let d = pop.config.duration;
        for f in &pop.files {
            assert!(f.ctime >= 0.0 && f.ctime <= d);
            assert!(f.mtime >= f.ctime && f.mtime <= d, "mtime before ctime");
            assert!(
                f.atime >= f.mtime && f.atime <= d + 1e-9,
                "atime before mtime"
            );
        }
    }

    #[test]
    fn attr_bounds_enclose_all_vectors() {
        let pop = small_pop();
        let (lo, hi) = pop.attr_bounds();
        for f in &pop.files {
            for (i, v) in f.attr_vector().into_iter().enumerate() {
                assert!(lo[i] <= v && v <= hi[i]);
            }
        }
    }

    #[test]
    fn access_counts_zipf_skewed() {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files: 5000,
            seed: 3,
            ..GeneratorConfig::default()
        });
        let mut counts: Vec<u32> = pop.files.iter().map(|f| f.access_count).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = counts[..500].iter().map(|&c| c as u64).sum();
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        assert!(
            top_decile as f64 / total as f64 > 0.3,
            "top 10% of files should absorb a large share of accesses"
        );
    }
}
