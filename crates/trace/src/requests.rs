//! Request-stream generation: the dynamic half of a trace.
//!
//! Tables 1–3 count *requests* (HP: 94.7 M requests; MSN: 3.30 M reads,
//! 1.17 M writes; EECS: 4.44 M total operations), and the paper's
//! prefetching motivation rests on request-level correlation ("the
//! probability of inter-file access is found to be up to 80%", §1.1).
//! This module expands a metadata population into a timestamped request
//! stream consistent with each file's recorded access counts and
//! read/write mix, with the bursty inter-file locality the paper's
//! prefetching experiments rely on: consecutive requests preferentially
//! stay inside the same semantic cluster.

use crate::generator::MetadataPopulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One file-system operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Metadata-only access (stat/open) — the operation class that
    /// dominates file systems ("metadata-based transactions … account
    /// for over 50% of all file system operations", §1).
    Meta,
}

/// A single timestamped request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Seconds since trace start.
    pub time: f64,
    /// Target file.
    pub file_id: u64,
    /// Operation class.
    pub op: OpKind,
    /// Bytes moved (0 for metadata operations).
    pub bytes: u64,
}

/// Configuration for request-stream expansion.
#[derive(Clone, Debug)]
pub struct RequestGenConfig {
    /// Total requests to generate.
    pub n_requests: usize,
    /// Probability that the next request stays in the same semantic
    /// cluster as the previous one (the paper's inter-file access
    /// correlation; ~0.8 per §1.1).
    pub locality: f64,
    /// Fraction of requests that are metadata-only operations.
    pub meta_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RequestGenConfig {
    fn default() -> Self {
        Self {
            n_requests: 10_000,
            locality: 0.8,
            meta_fraction: 0.5,
            seed: 0xacce55,
        }
    }
}

/// A generated request stream.
#[derive(Clone, Debug)]
pub struct RequestStream {
    /// Requests in non-decreasing time order.
    pub requests: Vec<Request>,
}

impl RequestStream {
    /// Expands `pop` into a request stream.
    ///
    /// File selection is popularity-weighted (files with higher recorded
    /// `access_count` receive proportionally more requests) with
    /// cluster-sticky transitions; read/write split follows each file's
    /// recorded byte ratios.
    pub fn generate(pop: &MetadataPopulation, cfg: &RequestGenConfig) -> Self {
        assert!(!pop.files.is_empty(), "RequestStream: empty population");
        assert!(
            (0.0..=1.0).contains(&cfg.locality),
            "locality must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.meta_fraction),
            "meta_fraction must be in [0,1]"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Cumulative popularity for weighted sampling.
        let weights: Vec<f64> = pop.files.iter().map(|f| f.access_count as f64).collect();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        let total = acc;

        // Cluster membership lists for sticky transitions.
        let mut cluster_members: std::collections::HashMap<u32, Vec<usize>> = Default::default();
        for (i, f) in pop.files.iter().enumerate() {
            if let Some(c) = f.truth_cluster {
                cluster_members.entry(c).or_default().push(i);
            }
        }

        let duration = pop.config.duration;
        let mut requests = Vec::with_capacity(cfg.n_requests);
        let mut prev: Option<usize> = None;
        let dt = duration / cfg.n_requests.max(1) as f64;
        for i in 0..cfg.n_requests {
            let idx = match prev {
                Some(p) if rng.gen::<f64>() < cfg.locality => {
                    // Stay in the previous file's cluster when it has one.
                    match pop.files[p].truth_cluster {
                        Some(c) => {
                            let members = &cluster_members[&c];
                            members[rng.gen_range(0..members.len())]
                        }
                        None => weighted_pick(&cumulative, total, &mut rng),
                    }
                }
                _ => weighted_pick(&cumulative, total, &mut rng),
            };
            prev = Some(idx);
            let f = &pop.files[idx];
            let roll = rng.gen::<f64>();
            let (op, bytes) = if roll < cfg.meta_fraction {
                (OpKind::Meta, 0)
            } else {
                let rw_total = (f.read_bytes + f.write_bytes).max(1);
                let read_share = f.read_bytes as f64 / rw_total as f64;
                if rng.gen::<f64>() < read_share {
                    (
                        OpKind::Read,
                        1 + f.read_bytes / f.access_count.max(1) as u64,
                    )
                } else {
                    (
                        OpKind::Write,
                        1 + f.write_bytes / f.access_count.max(1) as u64,
                    )
                }
            };
            requests.push(Request {
                time: i as f64 * dt + rng.gen::<f64>() * dt,
                file_id: f.file_id,
                op,
                bytes,
            });
        }
        Self { requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

fn weighted_pick(cumulative: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let target = rng.gen::<f64>() * total;
    cumulative
        .partition_point(|&c| c < target)
        .min(cumulative.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorConfig;

    /// `(reads, writes, meta)` operation counts.
    fn op_mix(s: &RequestStream) -> (usize, usize, usize) {
        let mut mix = (0, 0, 0);
        for q in &s.requests {
            match q.op {
                OpKind::Read => mix.0 += 1,
                OpKind::Write => mix.1 += 1,
                OpKind::Meta => mix.2 += 1,
            }
        }
        mix
    }

    /// Fraction of consecutive request pairs that target the same
    /// semantic cluster (the measured inter-file correlation).
    fn cluster_stickiness(s: &RequestStream, pop: &MetadataPopulation) -> f64 {
        let cluster_of = |id: u64| pop.files[id as usize].truth_cluster;
        let mut same = 0usize;
        let mut pairs = 0usize;
        for w in s.requests.windows(2) {
            if let (Some(a), Some(b)) = (cluster_of(w[0].file_id), cluster_of(w[1].file_id)) {
                pairs += 1;
                same += usize::from(a == b);
            }
        }
        same as f64 / pairs.max(1) as f64
    }

    fn pop() -> MetadataPopulation {
        MetadataPopulation::generate(GeneratorConfig {
            n_files: 1000,
            n_clusters: 10,
            clustered_fraction: 0.9,
            seed: 71,
            ..GeneratorConfig::default()
        })
    }

    #[test]
    fn stream_has_requested_size_and_order() {
        let p = pop();
        let s = RequestStream::generate(&p, &RequestGenConfig::default());
        assert_eq!(s.len(), 10_000);
        for w in s.requests.windows(2) {
            assert!(w[0].time <= w[1].time, "requests must be time-ordered");
        }
        assert!(s.requests.iter().all(|r| (r.file_id as usize) < p.len()));
    }

    #[test]
    fn meta_fraction_respected() {
        let p = pop();
        let s = RequestStream::generate(
            &p,
            &RequestGenConfig {
                meta_fraction: 0.5,
                n_requests: 20_000,
                ..Default::default()
            },
        );
        let (_, _, m) = op_mix(&s);
        let frac = m as f64 / s.len() as f64;
        assert!(
            (frac - 0.5).abs() < 0.02,
            "metadata ops should be ~50% of operations (paper §1), got {frac}"
        );
    }

    #[test]
    fn locality_controls_cluster_stickiness() {
        let p = pop();
        let sticky = RequestStream::generate(
            &p,
            &RequestGenConfig {
                locality: 0.8,
                seed: 1,
                ..Default::default()
            },
        );
        let loose = RequestStream::generate(
            &p,
            &RequestGenConfig {
                locality: 0.0,
                seed: 1,
                ..Default::default()
            },
        );
        let hs = cluster_stickiness(&sticky, &p);
        let hl = cluster_stickiness(&loose, &p);
        assert!(
            hs > 0.7,
            "80% locality should yield ~0.8 stickiness, got {hs}"
        );
        assert!(hs > hl + 0.3, "sticky {hs} vs loose {hl}");
    }

    #[test]
    fn popular_files_receive_more_requests() {
        let p = pop();
        let s = RequestStream::generate(
            &p,
            &RequestGenConfig {
                locality: 0.0,
                n_requests: 30_000,
                ..Default::default()
            },
        );
        let mut counts = vec![0usize; p.len()];
        for r in &s.requests {
            counts[r.file_id as usize] += 1;
        }
        // Compare the top-popularity decile against the bottom decile.
        let mut by_pop: Vec<usize> = (0..p.len()).collect();
        by_pop.sort_by_key(|&i| std::cmp::Reverse(p.files[i].access_count));
        let top: usize = by_pop[..100].iter().map(|&i| counts[i]).sum();
        let bottom: usize = by_pop[p.len() - 100..].iter().map(|&i| counts[i]).sum();
        assert!(
            top > bottom * 3,
            "popularity weighting: top decile {top} vs bottom {bottom}"
        );
    }

    #[test]
    fn reads_and_writes_follow_file_ratios() {
        let p = pop();
        let s = RequestStream::generate(
            &p,
            &RequestGenConfig {
                meta_fraction: 0.0,
                n_requests: 20_000,
                ..Default::default()
            },
        );
        let (r, w, m) = op_mix(&s);
        assert_eq!(m, 0);
        assert!(
            r > 0 && w > 0,
            "both op kinds present ({r} reads, {w} writes)"
        );
        // Byte counts attached to data ops.
        assert!(s
            .requests
            .iter()
            .all(|q| q.bytes > 0 || q.op == OpKind::Meta));
    }

    #[test]
    fn deterministic_under_seed() {
        let p = pop();
        let a = RequestStream::generate(&p, &RequestGenConfig::default());
        let b = RequestStream::generate(&p, &RequestGenConfig::default());
        assert_eq!(a.requests, b.requests);
    }
}
