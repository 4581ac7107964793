//! Latent Semantic Indexing over file-metadata attribute vectors.
//!
//! SmartStore represents each item (a file, a storage unit, or a semantic
//! group) as a D-dimensional attribute vector and measures *semantic
//! correlation* between items as similarity in a rank-p subspace of the
//! attribute×item matrix (§3.1.1 of the paper). This module packages that
//! pipeline:
//!
//! 1. assemble the `D × n` attribute×item matrix `A` (one column per
//!    item),
//! 2. optionally standardize each attribute row (mean 0, variance 1) so
//!    that attributes with large magnitudes (bytes) do not drown out
//!    small ones (timestamps in days),
//! 3. compute the truncated SVD `A ≈ U_p Σ_p Vᵀ_p`,
//! 4. score correlation of items i, j as the cosine of their semantic
//!    coordinates (columns i, j of `Vᵀ_p` scaled by `Σ_p`).

use crate::cosine_similarity;
use crate::matrix::Matrix;
use crate::svd::{truncated_svd, TruncatedSvd};
use rayon::prelude::*;

/// Configuration for an LSI factorization.
#[derive(Clone, Copy, Debug)]
pub struct LsiConfig {
    /// Retained rank `p`. The paper keeps the `p` largest singular
    /// values; typical values here are 2–4 for D ≤ 8 attributes.
    pub rank: usize,
    /// Standardize each attribute row to zero mean / unit variance
    /// before factorizing. Strongly recommended for heterogeneous
    /// attributes.
    pub standardize: bool,
}

impl Default for LsiConfig {
    fn default() -> Self {
        Self {
            rank: 3,
            standardize: true,
        }
    }
}

/// Per-attribute standardization parameters of a corpus.
#[derive(Clone, Debug)]
struct RowScaler {
    mean: Vec<f64>,
    inv_std: Vec<f64>,
}

impl RowScaler {
    fn fit(a: &Matrix) -> Self {
        let (d, n) = a.shape();
        let mut mean = vec![0.0; d];
        let mut inv_std = vec![1.0; d];
        if n == 0 {
            return Self { mean, inv_std };
        }
        for r in 0..d {
            let row = a.row(r);
            let m = row.iter().sum::<f64>() / n as f64;
            let var = row.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / n as f64;
            mean[r] = m;
            inv_std[r] = if var > 1e-24 { 1.0 / var.sqrt() } else { 0.0 };
        }
        Self { mean, inv_std }
    }

    /// Standardizes a whole matrix. Copies once, then scales each row
    /// in place through flat row slices (no per-element index
    /// arithmetic, no temporaries), rows in parallel — each row's
    /// arithmetic is independent, so the result is bit-identical to
    /// the sequential sweep.
    fn apply_matrix(&self, a: &Matrix) -> Matrix {
        let mut out = a.clone();
        let (d, n) = out.shape();
        if d == 0 || n == 0 {
            return out;
        }
        let (mean, inv_std) = (&self.mean, &self.inv_std);
        out.as_mut_slice()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(r, row)| {
                let (m, s) = (mean[r], inv_std[r]);
                for x in row {
                    *x = (*x - m) * s;
                }
            });
        out
    }
}

/// A fitted LSI model over `n` items with `D` attributes.
#[derive(Clone, Debug)]
pub struct Lsi {
    config: LsiConfig,
    svd: TruncatedSvd,
    /// Semantic coordinates of all items, flattened `n × p` row-major:
    /// row `j` equals column `j` of `Σ_p Vᵀ_p` (so inner products
    /// approximate `AᵀA` entries). One allocation for the whole
    /// corpus instead of one `Vec` per item — the coordinate table is
    /// read in the O(n²) similarity hot loop.
    coords: Vec<f64>,
    /// Items fitted (`coords.len() == n_items * rank`).
    n_items: usize,
}

impl Lsi {
    /// Fits an LSI model to an attribute×item matrix (`D` rows, `n`
    /// columns — one column per item).
    pub fn fit(attr_by_item: &Matrix, config: LsiConfig) -> Self {
        let scaled = if config.standardize {
            RowScaler::fit(attr_by_item).apply_matrix(attr_by_item)
        } else {
            attr_by_item.clone()
        };
        let rank = config.rank.min(scaled.rows().min(scaled.cols()).max(1));
        let svd = truncated_svd(&scaled, rank);
        let n = attr_by_item.cols();
        let p = svd.rank();
        let mut coords = vec![0.0; n * p];
        for (j, row) in coords.chunks_exact_mut(p.max(1)).enumerate() {
            for (r, c) in row.iter_mut().enumerate() {
                *c = svd.sigma[r] * svd.vt[(r, j)];
            }
        }
        Self {
            config,
            svd,
            coords,
            n_items: n,
        }
    }

    /// Convenience: fit from a slice of item vectors (each of length D).
    pub fn fit_items(items: &[Vec<f64>], config: LsiConfig) -> Self {
        let d = items.first().map_or(0, |v| v.len());
        let mut a = Matrix::zeros(d, items.len());
        for (j, item) in items.iter().enumerate() {
            assert_eq!(item.len(), d, "fit_items: ragged item vectors");
            for (r, &x) in item.iter().enumerate() {
                a[(r, j)] = x;
            }
        }
        Self::fit(&a, config)
    }

    /// Fits from a flat row-major item table (`n × d`, one row per
    /// item) — the SoA shape columnar callers hold, so no per-item
    /// `Vec` is ever materialized. Numerically identical to
    /// [`Self::fit_items`] over the same values.
    pub fn fit_flat(table: &[f64], d: usize, config: LsiConfig) -> Self {
        assert!(d > 0, "fit_flat: need at least one dimension");
        assert_eq!(
            table.len() % d,
            0,
            "fit_flat: table length {} is not a multiple of d = {d}",
            table.len()
        );
        let n = table.len() / d;
        let mut a = Matrix::zeros(d, n);
        for (j, item) in table.chunks_exact(d).enumerate() {
            for (r, &x) in item.iter().enumerate() {
                a[(r, j)] = x;
            }
        }
        Self::fit(&a, config)
    }

    /// Number of items the model was fitted on.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Retained rank.
    pub fn rank(&self) -> usize {
        self.svd.rank()
    }

    /// The configuration used to fit this model.
    pub fn config(&self) -> LsiConfig {
        self.config
    }

    /// Semantic coordinates of item `j` (a slice into the flat
    /// coordinate table, length [`Self::rank`]).
    pub fn item_coords(&self, j: usize) -> &[f64] {
        let p = self.svd.rank();
        &self.coords[j * p..(j + 1) * p]
    }

    /// Correlation (cosine in semantic space) between items `i` and `j`,
    /// in `[-1, 1]`.
    pub fn similarity(&self, i: usize, j: usize) -> f64 {
        cosine_similarity(self.item_coords(i), self.item_coords(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated clusters of item vectors.
    fn clustered_items() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 1.0, 0.1, 0.0],
            vec![1.1, 0.9, 0.0, 0.1],
            vec![0.9, 1.05, 0.05, 0.0],
            vec![0.0, 0.1, 1.0, 1.0],
            vec![0.1, 0.0, 0.9, 1.1],
            vec![0.0, 0.05, 1.1, 0.95],
        ]
    }

    #[test]
    fn intra_cluster_similarity_exceeds_inter_cluster() {
        let lsi = Lsi::fit_items(
            &clustered_items(),
            LsiConfig {
                rank: 2,
                standardize: true,
            },
        );
        let intra = lsi.similarity(0, 1);
        let inter = lsi.similarity(0, 3);
        assert!(intra > inter, "intra {intra} should exceed inter {inter}");
        assert!(intra > 0.9);
    }

    #[test]
    fn self_similarity_is_one() {
        let lsi = Lsi::fit_items(&clustered_items(), LsiConfig::default());
        for i in 0..lsi.n_items() {
            assert!((lsi.similarity(i, i) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn correlation_matrix_is_symmetric() {
        let lsi = Lsi::fit_items(&clustered_items(), LsiConfig::default());
        for i in 0..lsi.n_items() {
            for j in 0..lsi.n_items() {
                assert!((lsi.similarity(i, j) - lsi.similarity(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rank_is_capped_by_dimensions() {
        let lsi = Lsi::fit_items(
            &clustered_items(),
            LsiConfig {
                rank: 99,
                standardize: false,
            },
        );
        assert!(lsi.rank() <= 4);
    }

    #[test]
    fn standardization_prevents_scale_domination() {
        // Attribute 0 is huge but identical ⇒ after standardization it
        // carries no signal, and items split on attribute 1.
        let items = vec![
            vec![1e12, 1.0],
            vec![1e12, 1.1],
            vec![1e12, -1.0],
            vec![1e12, -1.1],
        ];
        let lsi = Lsi::fit_items(
            &items,
            LsiConfig {
                rank: 2,
                standardize: true,
            },
        );
        assert!(lsi.similarity(0, 1) > lsi.similarity(0, 2));
    }
}
