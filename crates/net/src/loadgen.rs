//! Mixed request streams for the socket front end.
//!
//! [`generate_requests`] expands a [`MetadataPopulation`] into a mixed
//! request stream — Zipf-skewed point lookups, attribute range scans,
//! top-k probes, and mutations (insert/modify/delete) — as a pure
//! function of its config: same seed, bit-identical stream, regardless
//! of thread count. The socket parity suite and the `net_serving`
//! example feed it through a server; timing the socket path is the
//! repository benchmark's job (`benchmark/`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartstore::query::QueryOptions;
use smartstore::versioning::Change;
use smartstore_service::Request;
use smartstore_trace::distributions::Zipf;
use smartstore_trace::{AttributeKind, MetadataPopulation, ATTR_DIMS};

/// Shape of a mixed request stream.
#[derive(Clone, Debug)]
pub struct LoadMixConfig {
    /// Requests to generate.
    pub n_requests: usize,
    /// Relative weight of point lookups.
    pub point_weight: u32,
    /// Relative weight of range scans.
    pub range_weight: u32,
    /// Relative weight of top-k probes.
    pub topk_weight: u32,
    /// Relative weight of mutations (insert/modify/delete).
    pub mutation_weight: u32,
    /// `k` for top-k probes.
    pub k: usize,
    /// Zipf exponent of file popularity (larger = more skew).
    pub zipf_s: f64,
    /// Range half-width as a fraction of each constrained dimension's
    /// domain.
    pub range_width: f64,
    /// Fraction of point lookups that miss (query a nonexistent name).
    pub point_miss_fraction: f64,
    /// RNG seed; the stream is a pure function of this config and the
    /// population.
    pub seed: u64,
}

impl Default for LoadMixConfig {
    fn default() -> Self {
        Self {
            n_requests: 1_000,
            point_weight: 45,
            range_weight: 15,
            topk_weight: 20,
            mutation_weight: 20,
            k: 8,
            zipf_s: 0.9,
            range_width: 0.05,
            point_miss_fraction: 0.05,
            seed: 0x10ad_9e4e,
        }
    }
}

/// Expands `pop` into a mixed, Zipf-skewed request stream.
/// Deterministic: same population and config, bit-identical stream.
pub fn generate_requests(pop: &MetadataPopulation, cfg: &LoadMixConfig) -> Vec<Request> {
    assert!(!pop.files.is_empty(), "generate_requests: empty population");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Popularity ranking: most-accessed files first, id as tiebreak, so
    // the Zipf head lands on genuinely hot files.
    let mut ranked: Vec<usize> = (0..pop.files.len()).collect();
    ranked.sort_by_key(|&i| {
        (
            std::cmp::Reverse(pop.files[i].access_count),
            pop.files[i].file_id,
        )
    });
    let zipf = Zipf::new(pop.files.len() as u64, cfg.zipf_s.max(0.01));
    let (lo_b, hi_b) = pop.attr_bounds();
    let constrained = [
        AttributeKind::ModificationTime,
        AttributeKind::ReadBytes,
        AttributeKind::WriteBytes,
    ];

    let total_w =
        (cfg.point_weight + cfg.range_weight + cfg.topk_weight + cfg.mutation_weight).max(1);
    let mut next_id = pop.files.iter().map(|f| f.file_id).max().unwrap_or(0) + 1;
    let mut inserted: Vec<u64> = Vec::new();
    let mut out = Vec::with_capacity(cfg.n_requests);
    for i in 0..cfg.n_requests {
        let hot = &pop.files[ranked[(zipf.sample(&mut rng) as usize - 1) % ranked.len()]];
        let draw = rng.gen::<u64>() % total_w as u64;
        let req = if draw < cfg.point_weight as u64 {
            if rng.gen::<f64>() < cfg.point_miss_fraction {
                Request::Point {
                    name: format!("ghost_net_{i:08}"),
                }
            } else {
                Request::Point {
                    name: hot.name.clone(),
                }
            }
        } else if draw < (cfg.point_weight + cfg.range_weight) as u64 {
            let center = hot.attr_vector();
            let (lo, hi): (Vec<f64>, Vec<f64>) = (0..ATTR_DIMS)
                .map(|d| {
                    if constrained.iter().any(|k| k.index() == d) {
                        let half = (hi_b[d] - lo_b[d]) * cfg.range_width * 0.5;
                        (center[d] - half, center[d] + half)
                    } else {
                        (lo_b[d] - 1.0, hi_b[d] + 1.0)
                    }
                })
                .unzip();
            Request::Range {
                lo,
                hi,
                opts: QueryOptions::offline(),
            }
        } else if draw < (cfg.point_weight + cfg.range_weight + cfg.topk_weight) as u64 {
            Request::TopK {
                point: hot.attr_vector().to_vec(),
                opts: QueryOptions::offline().with_k(cfg.k),
            }
        } else {
            let m = rng.gen::<f64>();
            let change = if m < 0.25 && !inserted.is_empty() {
                let victim = inserted.remove(rng.gen::<u64>() as usize % inserted.len());
                Change::Delete(victim)
            } else if m < 0.60 {
                let mut f = hot.clone();
                f.mtime += 1.0;
                f.write_bytes += 4096;
                f.access_count += 1;
                Change::Modify(f)
            } else {
                let mut f = hot.clone();
                f.file_id = next_id;
                f.name = format!("net_ins_{next_id:08}");
                f.truth_cluster = None;
                inserted.push(next_id);
                next_id += 1;
                Change::Insert(f)
            };
            Request::ApplyChange { change }
        };
        out.push(req);
    }
    out
}
