//! Dense linear algebra and Latent Semantic Indexing for SmartStore.
//!
//! SmartStore (SC '09) measures the semantic correlation of file metadata
//! by projecting high-dimensional attribute vectors into a low-rank
//! "semantic subspace" computed with the Singular Value Decomposition,
//! following classical Latent Semantic Indexing (Deerwester et al. 1990).
//!
//! This crate implements the whole numeric substrate from scratch:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the small set of
//!   operations the paper's pipeline needs (products, transpose, norms).
//! * [`svd`] — a one-sided Jacobi SVD ([`svd::jacobi_svd`]) plus the
//!   truncated rank-*p* form used by LSI ([`svd::TruncatedSvd`]).
//! * [`lsi`] — the LSI model: build the attribute×item matrix, factor it,
//!   and score similarities in the semantic subspace.
//! * [`mod@kmeans`] — Lloyd's algorithm with k-means++ seeding; the paper
//!   discusses K-means as the alternative grouping tool (§3.1.1), and the
//!   benchmark harness uses it for the grouping ablation.
//!
//! Everything is deterministic given a caller-supplied RNG, which the
//! repository relies on for reproducible experiments.

pub mod kmeans;
pub mod lsi;
pub mod matrix;
pub mod svd;

pub use kmeans::{kmeans, KMeansResult};
pub use lsi::{Lsi, LsiConfig};
pub use matrix::Matrix;
pub use svd::{jacobi_svd, Svd, TruncatedSvd};

/// Numeric tolerance used across the crate when comparing floating-point
/// results (e.g. deciding that a Jacobi sweep has converged).
pub const EPS: f64 = 1e-12;

/// Cosine similarity between two equal-length vectors.
///
/// Returns `0.0` when either vector has zero norm, which is the right
/// neutral value for correlation scores ("no evidence of correlation").
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine_similarity: dimension mismatch");
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na <= EPS || nb <= EPS {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Squared Euclidean distance between two equal-length vectors.
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_euclidean: dimension mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let v = [1.0, 2.0, 3.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 5.0]).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_of_opposite_vectors_is_minus_one() {
        let v = [1.0, -2.0, 0.5];
        let w = [-1.0, 2.0, -0.5];
        assert!((cosine_similarity(&v, &w) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        assert!((sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 25.0).abs() < 1e-12);
        assert!((sq_euclidean(&[1.0, 1.0], &[2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mismatched_dimensions_panic() {
        cosine_similarity(&[1.0], &[1.0, 2.0]);
    }
}
