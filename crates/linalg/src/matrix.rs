//! Row-major dense matrix.
//!
//! The matrix type is intentionally small: it provides exactly the
//! operations the SVD/LSI pipeline needs, stores data contiguously for
//! cache-friendly column sweeps, and panics loudly on shape mismatches
//! (shape errors here are always programming bugs, never data errors).

use rayon::prelude::*;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Below this many multiply-adds a matrix product runs sequentially:
/// the parallel dispatch overhead would dominate the arithmetic.
const PAR_MATMUL_FLOPS: usize = 1 << 15;

/// A dense `rows × cols` matrix of `f64`, stored row-major.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// If rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A single row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A single row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// Uses the classic ikj loop order so the innermost loop streams over
    /// contiguous rows of both the output and `other`, and computes
    /// output rows in parallel once the product is big enough to
    /// amortize the dispatch. Each output row is produced by exactly
    /// the sequential per-row computation, so the result is
    /// bit-identical at every thread count.
    ///
    /// # Panics
    /// If `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimension mismatch ({}x{} * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        if out.data.is_empty() {
            return out;
        }
        let fill_row = |i: usize, out_row: &mut [f64]| {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(other.row(k)) {
                    *o += a * b;
                }
            }
        };
        if self.rows * self.cols * other.cols < PAR_MATMUL_FLOPS {
            for i in 0..self.rows {
                fill_row(i, out.row_mut(i));
            }
        } else {
            let cols = out.cols;
            out.data
                .par_chunks_mut(cols)
                .enumerate()
                .for_each(|(i, out_row)| fill_row(i, out_row));
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    /// If shapes differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn frobenius_norm_of_345() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    /// Copies column `c` into a fresh vector.
    fn col(a: &Matrix, c: usize) -> Vec<f64> {
        (0..a.rows()).map(|r| a[(r, c)]).collect()
    }

    #[test]
    fn col_and_set_col_roundtrip() {
        let mut a = Matrix::zeros(3, 2);
        for (r, v) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            a[(r, 1)] = v;
        }
        assert_eq!(col(&a, 1), vec![1.0, 2.0, 3.0]);
        assert_eq!(col(&a, 0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn large_matmul_matches_naive_triple_loop() {
        // 48×48×48 > PAR_MATMUL_FLOPS ⇒ exercises the parallel path;
        // must agree bit-for-bit with the naive product.
        let n = 48;
        let mut seed = 9u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let a = Matrix::from_vec(n, n, (0..n * n).map(|_| next()).collect());
        let b = Matrix::from_vec(n, n, (0..n * n).map(|_| next()).collect());
        let c = a.matmul(&b);
        let mut naive = Matrix::zeros(n, n);
        for i in 0..n {
            for k in 0..n {
                let av = a[(i, k)];
                for j in 0..n {
                    naive[(i, j)] += av * b[(k, j)];
                }
            }
        }
        assert_eq!(c, naive);
    }

    #[test]
    fn sub_and_scale() {
        let a = Matrix::from_rows(&[vec![2.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let mut c = a.sub(&b);
        c.as_mut_slice().iter_mut().for_each(|x| *x *= 2.0);
        assert_eq!(c.as_slice(), &[2.0, 6.0]);
    }
}
