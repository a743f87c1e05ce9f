//! Column-major dense matrix generic over [`Real`].

use core::fmt;
use core::ops::{Index, IndexMut};

use lpa_arith::Real;

/// A dense, column-major matrix.
#[derive(Clone, PartialEq)]
pub struct DMatrix<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Real> DMatrix<T> {
    /// All-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DMatrix { nrows, ncols, data: vec![T::zero(); nrows * ncols] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build from a closure `f(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        DMatrix { nrows, ncols, data }
    }

    /// Build from row-major data (convenient in tests).
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        assert!(rows.iter().all(|r| r.len() == ncols), "ragged rows");
        Self::from_fn(nrows, ncols, |i, j| rows[i][j])
    }

    /// Build from a list of column vectors.
    pub fn from_columns(cols: &[Vec<T>]) -> Self {
        let ncols = cols.len();
        let nrows = if ncols == 0 { 0 } else { cols[0].len() };
        assert!(cols.iter().all(|c| c.len() == nrows), "ragged columns");
        Self::from_fn(nrows, ncols, |i, j| cols[j][i])
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Column `j` as a slice.
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Two distinct columns as mutable slices (for rotations).
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [T], &mut [T]) {
        assert!(j1 != j2);
        let n = self.nrows;
        let (lo, hi) = if j1 < j2 { (j1, j2) } else { (j2, j1) };
        let (a, b) = self.data.split_at_mut(hi * n);
        let first = &mut a[lo * n..(lo + 1) * n];
        let second = &mut b[..n];
        if j1 < j2 {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Flat access to the underlying column-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Copy of row `i`.
    pub fn row(&self, i: usize) -> Vec<T> {
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Sub-matrix copy `rows × cols` starting at `(r0, c0)`.
    pub fn submatrix(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Self {
        Self::from_fn(rows, cols, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Keep only the leading `cols` columns.
    pub fn truncate_columns(&self, cols: usize) -> Self {
        self.submatrix(0, 0, self.nrows, cols)
    }

    /// Matrix product `self * other`.
    ///
    /// Column-axpy ordering (the column-major analogue of the cache-friendly
    /// row-major ikj loop): the innermost loop streams one column of `self`
    /// into one column of the output, both contiguous, with the `other`
    /// column and the output column borrowed once per `j` instead of once
    /// per scalar.  This is the shape of the `V_m · Z_k` restart product in
    /// the Krylov–Schur iteration (tall × skinny), where streaming `V`'s
    /// columns is what keeps the product memory-bound instead of
    /// latency-bound.  Accumulation order over `k` is unchanged, so results
    /// are bit-identical to the naive triple loop.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.ncols, other.nrows, "dimension mismatch in matmul");
        let mut out = Self::zeros(self.nrows, other.ncols);
        for j in 0..other.ncols {
            let bcol = other.col(j);
            let ocol = out.col_mut(j);
            for (k, &b) in bcol.iter().enumerate() {
                if b.is_zero() {
                    continue;
                }
                for (o, &a) in ocol.iter_mut().zip(self.col(k)) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self^T * other`.
    pub fn transpose_matmul(&self, other: &Self) -> Self {
        assert_eq!(self.nrows, other.nrows);
        Self::from_fn(self.ncols, other.ncols, |i, j| {
            crate::blas::dot(self.col(i), other.col(j))
        })
    }

    /// Matrix-vector product.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(self.ncols, x.len());
        let mut y = vec![T::zero(); self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj.is_zero() {
                continue;
            }
            for (yi, &aij) in y.iter_mut().zip(self.col(j)) {
                *yi += aij * xj;
            }
        }
        y
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> T {
        crate::blas::nrm2(&self.data)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> T {
        let mut m = T::zero();
        for v in &self.data {
            m = m.max(v.abs());
        }
        m
    }

    /// Element-wise conversion by `f`, e.g. the exact one between a format
    /// and its decoded form (`lpa_arith::Decoded::decode`).
    pub fn map<U: Real>(&self, f: impl FnMut(T) -> U) -> DMatrix<U> {
        DMatrix { nrows: self.nrows, ncols: self.ncols, data: self.data.iter().copied().map(f).collect() }
    }

    /// Element-wise conversion to another scalar type through `f64`.
    pub fn convert<U: Real>(&self) -> DMatrix<U> {
        DMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// `||self - other||_F`.
    pub fn diff_norm(&self, other: &Self) -> T {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut acc = T::zero();
        for (a, b) in self.data.iter().zip(&other.data) {
            let d = *a - *b;
            acc += d * d;
        }
        acc.sqrt()
    }
}

impl<T: Real> Index<(usize, usize)> for DMatrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[j * self.nrows + i]
    }
}

impl<T: Real> IndexMut<(usize, usize)> for DMatrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }
}

impl<T: Real> fmt::Debug for DMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMatrix {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(12) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(12) {
                write!(f, "{:>12.5e} ", self[(i, j)].to_f64())?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = DMatrix::<f64>::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.col(1), &[2.0, 5.0]);
        assert_eq!(m.row(1), vec![4.0, 5.0, 6.0]);
        let t = m.transpose();
        assert_eq!(t[(2, 1)], 6.0);
        let id = DMatrix::<f64>::identity(3);
        assert_eq!(id.matmul(&t), t);
    }

    #[test]
    fn matmul_and_matvec() {
        let a = DMatrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMatrix::<f64>::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        let at_b = a.transpose_matmul(&b);
        assert_eq!(at_b, a.transpose().matmul(&b));
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut m = DMatrix::<f64>::identity(3);
        {
            let (c0, c2) = m.two_cols_mut(0, 2);
            c0[1] = 7.0;
            c2[0] = 9.0;
        }
        assert_eq!(m[(1, 0)], 7.0);
        assert_eq!(m[(0, 2)], 9.0);
        let (c2, c0) = m.two_cols_mut(2, 0);
        assert_eq!(c2[0], 9.0);
        assert_eq!(c0[1], 7.0);
    }

    #[test]
    fn norms_and_conversion() {
        let m = DMatrix::<f64>::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.max_abs(), 4.0);
        let p: DMatrix<lpa_arith::Posit16> = m.convert();
        assert_eq!(p[(1, 1)].to_f64(), 4.0);
        let back: DMatrix<f64> = p.convert();
        assert_eq!(back.diff_norm(&m), 0.0);
    }
}
