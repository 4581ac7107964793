//! Singular Value Decomposition via one-sided Jacobi rotations.
//!
//! The one-sided Jacobi method orthogonalizes the columns of `A` by
//! repeatedly applying plane rotations on the right: after convergence,
//! `A·V` has orthogonal columns whose norms are the singular values, so
//! `A = U Σ Vᵀ` with `U` the normalized rotated columns. The method is
//! slower than Golub–Kahan bidiagonalization but is simple, numerically
//! robust, and has no external dependencies — appropriate for the small
//! attribute×item matrices LSI factors (D ≤ ~16 attributes against up to
//! a few thousand items per grouping round).

use crate::matrix::Matrix;

/// Full SVD `A = U Σ Vᵀ`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m × r` (columns are orthonormal).
    pub u: Matrix,
    /// Singular values, descending, length `r = min(m, n)`.
    pub sigma: Vec<f64>,
    /// Right singular vectors transposed, `r × n` (rows are orthonormal).
    pub vt: Matrix,
}

impl Svd {
    /// Reconstructs `U Σ Vᵀ` (useful for testing accuracy).
    pub fn reconstruct(&self) -> Matrix {
        let mut us = self.u.clone();
        for r in 0..us.rows() {
            for (c, &s) in self.sigma.iter().enumerate() {
                us[(r, c)] *= s;
            }
        }
        us.matmul(&self.vt)
    }

    /// Truncates to the `p` largest singular values.
    pub fn truncate(&self, p: usize) -> TruncatedSvd {
        let p = p.min(self.sigma.len()).max(1);
        let mut u = Matrix::zeros(self.u.rows(), p);
        for r in 0..self.u.rows() {
            for c in 0..p {
                u[(r, c)] = self.u[(r, c)];
            }
        }
        let mut vt = Matrix::zeros(p, self.vt.cols());
        for r in 0..p {
            for c in 0..self.vt.cols() {
                vt[(r, c)] = self.vt[(r, c)];
            }
        }
        TruncatedSvd {
            u,
            sigma: self.sigma[..p].to_vec(),
            vt,
        }
    }

    /// Numerical rank: number of singular values above
    /// `tol * sigma_max`.
    pub fn rank(&self, tol: f64) -> usize {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        self.sigma.iter().filter(|&&s| s > tol * smax).count()
    }
}

/// Rank-`p` truncated SVD `A ≈ U_p Σ_p Vᵀ_p` — the LSI form
/// (the paper writes `A_p = U_p Σ_p Vᵀ_p`, §3.1.1).
#[derive(Clone, Debug)]
pub struct TruncatedSvd {
    /// `m × p` left factor.
    pub u: Matrix,
    /// `p` retained singular values, descending.
    pub sigma: Vec<f64>,
    /// `p × n` right factor.
    pub vt: Matrix,
}

impl TruncatedSvd {
    /// Retained rank `p`.
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// Reconstructs the rank-`p` approximation `U_p Σ_p Vᵀ_p`.
    pub fn reconstruct(&self) -> Matrix {
        let mut us = self.u.clone();
        for r in 0..us.rows() {
            for (c, &s) in self.sigma.iter().enumerate() {
                us[(r, c)] *= s;
            }
        }
        us.matmul(&self.vt)
    }
}

/// Computes the full SVD of `a` with one-sided Jacobi rotations.
///
/// Works for any shape; internally operates on the transpose when
/// `rows < cols` so the rotated matrix is tall. Singular values are
/// returned in descending order with matching column/row permutations of
/// `U`/`Vᵀ`.
pub fn jacobi_svd(a: &Matrix) -> Svd {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Svd {
            u: Matrix::zeros(m, 0),
            sigma: vec![],
            vt: Matrix::zeros(0, n),
        };
    }
    if m < n {
        // SVD(Aᵀ) = V Σ Uᵀ, so swap factors back.
        let svd_t = jacobi_svd(&a.transpose());
        return Svd {
            u: svd_t.vt.transpose(),
            sigma: svd_t.sigma,
            vt: svd_t.u.transpose(),
        };
    }

    // Work on a copy: columns of `work` converge to U·Σ.
    let mut work = a.clone();
    let mut v = Matrix::identity(n);
    let max_sweeps = 60;
    // Convergence threshold relative to the matrix magnitude.
    let off_tol = 1e-14 * a.frobenius_norm().max(1.0);

    for _sweep in 0..max_sweeps {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for columns p, q.
                let mut alpha = 0.0; // ‖a_p‖²
                let mut beta = 0.0; // ‖a_q‖²
                let mut gamma = 0.0; // a_p·a_q
                for r in 0..m {
                    let ap = work[(r, p)];
                    let aq = work[(r, q)];
                    alpha += ap * ap;
                    beta += aq * aq;
                    gamma += ap * aq;
                }
                if gamma.abs() <= off_tol * (alpha.sqrt() * beta.sqrt()).max(1e-300) {
                    continue;
                }
                rotated = true;
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for r in 0..m {
                    let ap = work[(r, p)];
                    let aq = work[(r, q)];
                    work[(r, p)] = c * ap - s * aq;
                    work[(r, q)] = s * ap + c * aq;
                }
                for r in 0..n {
                    let vp = v[(r, p)];
                    let vq = v[(r, q)];
                    v[(r, p)] = c * vp - s * vq;
                    v[(r, q)] = s * vp + c * vq;
                }
            }
        }
        if !rotated {
            break;
        }
    }

    // Column norms are the singular values.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n)
        .map(|c| {
            (0..m)
                .map(|r| work[(r, c)] * work[(r, c)])
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));

    let r = n.min(m);
    let mut u = Matrix::zeros(m, r);
    let mut sigma = Vec::with_capacity(r);
    let mut vt = Matrix::zeros(r, n);
    for (k, &c) in order.iter().take(r).enumerate() {
        let s = norms[c];
        sigma.push(s);
        if s > 1e-300 {
            for row in 0..m {
                u[(row, k)] = work[(row, c)] / s;
            }
        }
        for row in 0..n {
            vt[(k, row)] = v[(row, c)];
        }
    }
    Svd { u, sigma, vt }
}

/// Convenience: truncated SVD of `a` keeping the `p` largest singular
/// values.
pub fn truncated_svd(a: &Matrix, p: usize) -> TruncatedSvd {
    jacobi_svd(a).truncate(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn svd_of_diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let svd = jacobi_svd(&a);
        assert_close(svd.sigma[0], 3.0, 1e-10);
        assert_close(svd.sigma[1], 2.0, 1e-10);
        assert_close(svd.sigma[2], 1.0, 1e-10);
    }

    #[test]
    fn svd_reconstructs_random_matrix() {
        // Deterministic pseudo-random fill.
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let a = Matrix::from_vec(7, 4, (0..28).map(|_| next()).collect());
        let svd = jacobi_svd(&a);
        let err = a.sub(&svd.reconstruct()).frobenius_norm();
        assert!(err < 1e-9, "reconstruction error {err}");
    }

    #[test]
    fn svd_wide_matrix_via_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 0.0, 2.0], vec![0.0, 3.0, 0.0, 0.0]]);
        let svd = jacobi_svd(&a);
        assert_eq!(svd.sigma.len(), 2);
        assert_close(svd.sigma[0], 3.0, 1e-10);
        assert_close(svd.sigma[1], (5.0_f64).sqrt(), 1e-10);
        let err = a.sub(&svd.reconstruct()).frobenius_norm();
        assert!(err < 1e-9);
    }

    #[test]
    fn u_columns_are_orthonormal() {
        let a = Matrix::from_rows(&[
            vec![2.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0],
            vec![1.0, 0.0, 2.0],
            vec![0.5, 0.5, 0.5],
        ]);
        let svd = jacobi_svd(&a);
        let utu = svd.u.transpose().matmul(&svd.u);
        for i in 0..utu.rows() {
            for j in 0..utu.cols() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_close(utu[(i, j)], expect, 1e-9);
            }
        }
    }

    #[test]
    fn truncation_error_bounded_by_dropped_singular_values() {
        let a = Matrix::from_rows(&[
            vec![10.0, 0.0, 0.0],
            vec![0.0, 5.0, 0.0],
            vec![0.0, 0.0, 0.1],
        ]);
        let t = truncated_svd(&a, 2);
        let err = a.sub(&t.reconstruct()).frobenius_norm();
        // Frobenius error of best rank-2 approx == sqrt of sum of dropped σ².
        assert_close(err, 0.1, 1e-9);
    }

    #[test]
    fn zero_matrix_has_zero_singular_values() {
        let a = Matrix::zeros(3, 3);
        let svd = jacobi_svd(&a);
        assert!(svd.sigma.iter().all(|&s| s == 0.0));
        assert_eq!(svd.rank(1e-9), 0);
    }

    #[test]
    fn rank_detects_deficiency() {
        // Second column = 2 × first column ⇒ rank 1.
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let svd = jacobi_svd(&a);
        assert_eq!(svd.rank(1e-9), 1);
    }

    #[test]
    fn empty_matrix_is_handled() {
        let a = Matrix::zeros(0, 0);
        let svd = jacobi_svd(&a);
        assert!(svd.sigma.is_empty());
    }

    #[test]
    fn singular_values_match_eigenvalues_of_gram() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        // Symmetric: eigenvalues 3 and 1 ⇒ singular values 3 and 1.
        let svd = jacobi_svd(&a);
        assert_close(svd.sigma[0], 3.0, 1e-10);
        assert_close(svd.sigma[1], 1.0, 1e-10);
    }
}
