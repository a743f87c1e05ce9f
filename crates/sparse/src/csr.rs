//! Compressed sparse row matrix generic over [`Real`].

use lpa_arith::Real;

/// A sparse matrix in compressed sparse row format.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Real> CsrMatrix<T> {
    /// Build from (row, col, value) triplets, summing duplicates.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, T)]) -> Self {
        let mut sorted: Vec<(usize, usize, T)> = triplets.to_vec();
        sorted.sort_by_key(|&(i, j, _)| (i, j));
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<T> = Vec::with_capacity(sorted.len());
        let mut prev: Option<(usize, usize)> = None;
        for &(i, j, v) in &sorted {
            assert!(i < nrows && j < ncols, "triplet out of bounds");
            if prev == Some((i, j)) {
                let last = values.last_mut().expect("duplicate implies a previous entry");
                *last += v;
            } else {
                col_idx.push(j);
                values.push(v);
                prev = Some((i, j));
            }
            row_ptr[i + 1] = col_idx.len();
        }
        // Fill the gaps left by empty rows so row_ptr is non-decreasing.
        for i in 1..=nrows {
            if row_ptr[i] < row_ptr[i - 1] {
                row_ptr[i] = row_ptr[i - 1];
            }
        }
        CsrMatrix { nrows, ncols, row_ptr, col_idx, values }
    }

    /// Build from a dense row-major closure (test helper).
    pub fn from_dense_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut triplets = Vec::new();
        for i in 0..nrows {
            for j in 0..ncols {
                let v = f(i, j);
                if !v.is_zero() {
                    triplets.push((i, j, v));
                }
            }
        }
        Self::from_triplets(nrows, ncols, &triplets)
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// The raw row-pointer array (`nrows + 1` non-decreasing offsets).
    ///
    /// Together with [`Self::col_indices`] and [`Self::values`] this is the
    /// canonical byte-level identity of the matrix, which the experiment
    /// store hashes into content addresses.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw column-index array (one entry per stored value).
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// The raw value array, in row-major CSR order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Row `i` as parallel slices of column indices and values.
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        let start = self.row_ptr[i];
        let end = self.row_ptr[i + 1];
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// Value at `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> T {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => T::zero(),
        }
    }

    /// Iterate over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals.iter()).map(move |(&j, &v)| (i, j, v))
        })
    }

    /// Sparse matrix-vector product `y = A x`.
    ///
    /// The hot loop of every Arnoldi expansion step.  Each row is one
    /// serial chain of rounded adds, so walking rows one at a time leaves
    /// the whole chain latency exposed.  Two adjacent rows are independent
    /// chains, so the loop advances a pair in lockstep — two rounds in
    /// flight — while each row's own accumulation still runs in ascending
    /// column-slot order from `T::zero()`.  The result is therefore
    /// bit-identical to the row-at-a-time loop for every [`Real`].
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        let row = |r: usize| {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            (&self.col_idx[lo..hi], &self.values[lo..hi])
        };
        let dot = |cols: &[usize], vals: &[T], mut acc: T| {
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            acc
        };
        let mut pairs = y.chunks_exact_mut(2);
        for (p, out) in pairs.by_ref().enumerate() {
            let ((c0, v0), (c1, v1)) = (row(2 * p), row(2 * p + 1));
            // Lockstep over the common prefix; at most one row has a tail.
            let k = c0.len().min(c1.len());
            let (mut acc0, mut acc1) = (T::zero(), T::zero());
            for ((&j0, &a0), (&j1, &a1)) in c0.iter().zip(v0).zip(c1.iter().zip(v1)) {
                acc0 += a0 * x[j0];
                acc1 += a1 * x[j1];
            }
            out[0] = dot(&c0[k..], &v0[k..], acc0);
            out[1] = dot(&c1[k..], &v1[k..], acc1);
        }
        if let [last] = pairs.into_remainder() {
            let (c, v) = row(self.nrows - 1);
            *last = dot(c, v, T::zero());
        }
    }

    /// Allocating SpMV.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let triplets: Vec<(usize, usize, T)> = self.iter().map(|(i, j, v)| (j, i, v)).collect();
        Self::from_triplets(self.ncols, self.nrows, &triplets)
    }

    /// Average symmetrization `(A + A^T) / 2` (the paper's preprocessing for
    /// directed graphs).
    pub fn symmetrize(&self) -> Self {
        assert!(self.is_square(), "symmetrization requires a square matrix");
        let half = T::half();
        let mut triplets = Vec::with_capacity(2 * self.nnz());
        for (i, j, v) in self.iter() {
            triplets.push((i, j, v * half));
            triplets.push((j, i, v * half));
        }
        Self::from_triplets(self.nrows, self.ncols, &triplets)
    }

    /// Check structural + numerical symmetry within a tolerance.
    pub fn is_symmetric(&self, tol: T) -> bool {
        if !self.is_square() {
            return false;
        }
        for (i, j, v) in self.iter() {
            if (v - self.get(j, i)).abs() > tol {
                return false;
            }
        }
        true
    }

    /// Main diagonal.
    pub fn diagonal(&self) -> Vec<T> {
        (0..self.nrows.min(self.ncols)).map(|i| self.get(i, i)).collect()
    }

    /// Row sums (vertex degrees when the matrix is an adjacency matrix).
    pub fn row_sums(&self) -> Vec<T> {
        (0..self.nrows)
            .map(|i| {
                let (_, vals) = self.row(i);
                let mut acc = T::zero();
                for &v in vals {
                    acc += v;
                }
                acc
            })
            .collect()
    }

    /// Largest absolute value of any stored entry.
    pub fn max_abs(&self) -> T {
        let mut m = T::zero();
        for v in &self.values {
            m = m.max(v.abs());
        }
        m
    }

    /// Smallest absolute value of any stored non-zero entry.
    pub fn min_abs_nonzero(&self) -> Option<T> {
        let mut m: Option<T> = None;
        for v in &self.values {
            if v.is_zero() {
                continue;
            }
            let a = v.abs();
            m = Some(match m {
                None => a,
                Some(cur) => cur.min(a),
            });
        }
        m
    }

    /// Convert every entry to another scalar type through `f64`, without any
    /// range checking (see [`crate::convert`] for the checked version).
    pub fn convert<U: Real>(&self) -> CsrMatrix<U> {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// Dense copy (for tests and small projected problems).
    pub fn to_dense(&self) -> lpa_dense::DMatrix<T> {
        let mut m = lpa_dense::DMatrix::zeros(self.nrows, self.ncols);
        for (i, j, v) in self.iter() {
            m[(i, j)] += v;
        }
        m
    }

    /// Frobenius norm of the stored entries.
    pub fn frobenius_norm(&self) -> T {
        lpa_dense::blas::nrm2(&self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_arith::types::Posit16;

    fn example() -> CsrMatrix<f64> {
        CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0), (2, 0, 1.0), (2, 2, 4.0)],
        )
    }

    #[test]
    fn construction_and_access() {
        let a = example();
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 2), 1.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.diagonal(), vec![2.0, 3.0, 4.0]);
        assert_eq!(a.row(0).0, &[0, 2]);
        assert_eq!(a.row_sums(), vec![3.0, 3.0, 5.0]);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.min_abs_nonzero(), Some(1.0));
    }

    #[test]
    fn duplicates_are_summed_and_empty_rows_ok() {
        let a = CsrMatrix::<f64>::from_triplets(
            4,
            4,
            &[(0, 1, 1.0), (0, 1, 2.0), (3, 3, 5.0), (0, 0, 1.0)],
        );
        assert_eq!(a.get(0, 1), 3.0);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.row(1).0.len(), 0);
        assert_eq!(a.row(2).0.len(), 0);
        assert_eq!(a.get(3, 3), 5.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = example();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![5.0, 6.0, 13.0]);
        let dense = a.to_dense();
        assert_eq!(dense.matvec(&x), y);
    }

    /// The row-at-a-time SpMV the interleaved kernel must reproduce.
    fn spmv_by_rows<T: Real>(a: &CsrMatrix<T>, x: &[T]) -> Vec<T> {
        (0..a.nrows())
            .map(|i| {
                let (cols, vals) = a.row(i);
                let mut acc = T::zero();
                for (&j, &v) in cols.iter().zip(vals) {
                    acc += v * x[j];
                }
                acc
            })
            .collect()
    }

    /// 9 rows (odd, so the unpaired last row runs), empty rows at the start,
    /// inside a pair and at the end, unequal row lengths in both pair
    /// positions, and a NaN entry (NaN/NaR in every format here).
    fn check_interleaved_spmv_matches_rows<T: Real>() {
        let lens = [0, 3, 1, 4, 0, 2, 5, 5, 0];
        let mut t = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            for k in 0..len {
                let v = if (i, k) == (6, 2) {
                    f64::NAN
                } else {
                    (0.37 + 0.21 * k as f64 - 0.13 * i as f64) * if (i + k) % 2 == 0 { 1.0 } else { -1.0 }
                };
                t.push((i, (2 * i + 3 * k) % 9, T::from_f64(v)));
            }
        }
        let a = CsrMatrix::from_triplets(9, 9, &t);
        let x: Vec<T> = (0..9).map(|j| T::from_f64(0.5 - 0.17 * j as f64)).collect();
        let expect = spmv_by_rows(&a, &x);
        for _ in 0..2 {
            // The output buffer arrives holding stale data on the second
            // pass: every row, empty ones included, must be overwritten.
            let mut y = vec![T::from_f64(7.0); 9];
            a.spmv(&x, &mut y);
            for (r, (got, want)) in y.iter().zip(&expect).enumerate() {
                let same = (got.is_nan() && want.is_nan()) || got.to_f64().to_bits() == want.to_f64().to_bits();
                assert!(same, "row {r} in {}: {got:?} vs {want:?}", T::NAME);
            }
        }
        assert!(expect[6].is_nan() && expect[0].is_zero() && expect[8].is_zero());
    }

    #[test]
    fn interleaved_spmv_matches_row_at_a_time() {
        check_interleaved_spmv_matches_rows::<f64>();
        check_interleaved_spmv_matches_rows::<lpa_arith::E4M3>();
        check_interleaved_spmv_matches_rows::<Posit16>();
        check_interleaved_spmv_matches_rows::<lpa_arith::Decoded<lpa_arith::Takum32>>();
    }

    #[test]
    fn transpose_and_symmetrize() {
        let a = CsrMatrix::<f64>::from_triplets(2, 2, &[(0, 1, 2.0)]);
        let at = a.transpose();
        assert_eq!(at.get(1, 0), 2.0);
        assert!(!a.is_symmetric(1e-12));
        let s = a.symmetrize();
        assert!(s.is_symmetric(1e-12));
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(s.get(1, 0), 1.0);
    }

    #[test]
    fn conversion_to_other_formats() {
        let a = example();
        let p: CsrMatrix<Posit16> = a.convert();
        assert_eq!(p.get(2, 2).to_f64(), 4.0);
        assert_eq!(p.nnz(), a.nnz());
        let y = p.matvec(&[Posit16::from_f64(1.0), Posit16::from_f64(1.0), Posit16::from_f64(1.0)]);
        assert_eq!(y[2].to_f64(), 5.0);
    }
}
