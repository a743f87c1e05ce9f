//! Synthetic "general matrices": the stand-in for the paper's 302 symmetric
//! SuiteSparse matrices with at most 20 000 non-zeros (DESIGN.md, S2).
//!
//! The collection mixes discretized Laplacians, banded Toeplitz operators,
//! random sparse symmetric matrices with controlled conditioning,
//! mass/stiffness-like matrices and matrices whose entries span many orders
//! of magnitude.  The wide-range families are what triggers the paper's `∞σ`
//! outcomes for the 8-bit IEEE formats and `float16`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lpa_sparse::{CooMatrix, CsrMatrix};

/// 1D Poisson / path-graph Laplacian (tridiagonal −1, 2, −1), optionally
/// scaled by `h^-2` to mimic a discretization step.
pub fn laplacian_1d(n: usize, scale: f64) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::<f64>::with_capacity(n, n, 3 * n);
    for i in 0..n {
        coo.push(i, i, 2.0 * scale);
        if i + 1 < n {
            coo.push_sym(i, i + 1, -scale);
        }
    }
    coo.to_csr()
}

/// 2D five-point Laplacian on a `rows x cols` grid.
pub fn laplacian_2d(rows: usize, cols: usize, scale: f64) -> CsrMatrix<f64> {
    let n = rows * cols;
    let idx = |r: usize, c: usize| r * cols + c;
    let mut coo = CooMatrix::<f64>::with_capacity(n, n, 5 * n);
    for r in 0..rows {
        for c in 0..cols {
            coo.push(idx(r, c), idx(r, c), 4.0 * scale);
            if c + 1 < cols {
                coo.push_sym(idx(r, c), idx(r, c + 1), -scale);
            }
            if r + 1 < rows {
                coo.push_sym(idx(r, c), idx(r + 1, c), -scale);
            }
        }
    }
    coo.to_csr()
}

/// Symmetric banded Toeplitz matrix with the given band values
/// (`bands[0]` is the diagonal).
pub fn banded_toeplitz(n: usize, bands: &[f64]) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::<f64>::with_capacity(n, n, n * (2 * bands.len() - 1));
    for i in 0..n {
        coo.push(i, i, bands[0]);
        for (d, &v) in bands.iter().enumerate().skip(1) {
            if v != 0.0 && i + d < n {
                coo.push_sym(i, i + d, v);
            }
        }
    }
    coo.to_csr()
}

/// Random sparse symmetric matrix with ~`density` fraction of non-zeros and
/// entries uniform in [-1, 1], plus a diagonal shift making it comfortably
/// indefinite or definite depending on `shift`.
pub fn random_sparse_symmetric(n: usize, density: f64, shift: f64, seed: u64) -> CsrMatrix<f64> {
    random_sparse_symmetric_within(n, density, shift, seed, usize::MAX)
        .expect("an unbounded entry budget is never exceeded")
}

/// [`random_sparse_symmetric`], or `None` once the matrix is known to hold
/// more than `max_nnz` entries.  Exact: no position is pushed twice and
/// zeros are dropped, so the entry count only grows toward the final
/// `nnz`, and a matrix within the budget is built exactly as before.
pub(crate) fn random_sparse_symmetric_within(
    n: usize,
    density: f64,
    shift: f64,
    seed: u64,
    max_nnz: usize,
) -> Option<CsrMatrix<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::<f64>::new(n, n);
    for i in 0..n {
        coo.push(i, i, rng.gen_range(-1.0..1.0) + shift);
        for j in i + 1..n {
            if rng.gen::<f64>() < density {
                coo.push_sym(i, j, rng.gen_range(-1.0..1.0));
            }
        }
        if coo.nnz() > max_nnz {
            return None;
        }
    }
    Some(coo.to_csr())
}

/// Diagonally dominant symmetric matrix (well conditioned).
pub fn diagonally_dominant(n: usize, density: f64, seed: u64) -> CsrMatrix<f64> {
    diagonally_dominant_within(n, density, seed, usize::MAX)
        .expect("an unbounded entry budget is never exceeded")
}

/// [`diagonally_dominant`], or `None` once the matrix is known to hold more
/// than `max_nnz` entries (exact, as for
/// [`random_sparse_symmetric_within`]: every diagonal entry is at least 1,
/// and each non-zero off-diagonal draw stores two entries).
pub(crate) fn diagonally_dominant_within(
    n: usize,
    density: f64,
    seed: u64,
    max_nnz: usize,
) -> Option<CsrMatrix<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut nnz = n;
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen::<f64>() < density {
                let v = rng.gen_range(-1.0..1.0);
                rows[i].push((j, v));
                rows[j].push((i, v));
                if v != 0.0 {
                    nnz += 2;
                }
            }
        }
        if nnz > max_nnz {
            return None;
        }
    }
    let mut coo = CooMatrix::<f64>::new(n, n);
    for (i, row) in rows.iter().enumerate() {
        let offsum: f64 = row.iter().map(|(_, v)| v.abs()).sum();
        coo.push(i, i, offsum + 1.0);
        for &(j, v) in row {
            coo.push(i, j, v);
        }
    }
    Some(coo.to_csr())
}

/// Symmetric matrix whose diagonal spans `10^-range_decades .. 10^+range_decades`
/// (geometrically), with a weak tridiagonal coupling.  These matrices exceed
/// the dynamic range of OFP8/float16 well before the tapered formats give up.
pub fn wide_dynamic_range(n: usize, range_decades: f64, seed: u64) -> CsrMatrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::<f64>::new(n, n);
    for i in 0..n {
        let t = if n > 1 { i as f64 / (n - 1) as f64 } else { 0.5 };
        let exponent = -range_decades + 2.0 * range_decades * t;
        let d = 10f64.powf(exponent) * rng.gen_range(0.5..1.5);
        coo.push(i, i, d);
        if i + 1 < n {
            coo.push_sym(i, i + 1, d * 0.1);
        }
    }
    coo.to_csr()
}

/// Mass-spring chain stiffness matrix with randomly varying spring constants
/// (structural-engineering flavour).
pub fn spring_chain(n: usize, stiffness_spread: f64, seed: u64) -> CsrMatrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k: Vec<f64> = (0..=n).map(|_| 10f64.powf(rng.gen_range(0.0..stiffness_spread))).collect();
    let mut coo = CooMatrix::<f64>::new(n, n);
    for i in 0..n {
        coo.push(i, i, k[i] + k[i + 1]);
        if i + 1 < n {
            coo.push_sym(i, i + 1, -k[i + 1]);
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplacians_are_symmetric_psd() {
        for m in [laplacian_1d(25, 1.0), laplacian_2d(5, 6, 2.0)] {
            assert!(m.is_symmetric(0.0));
            let eigs = lpa_dense::eigen_sym::symmetric_eigenvalues(&m.to_dense()).unwrap();
            for e in eigs {
                assert!(e > -1e-10);
            }
        }
    }

    #[test]
    fn diagonally_dominant_is_positive_definite() {
        let m = diagonally_dominant(30, 0.2, 5);
        assert!(m.is_symmetric(0.0));
        let eigs = lpa_dense::eigen_sym::symmetric_eigenvalues(&m.to_dense()).unwrap();
        for e in eigs {
            assert!(e > 0.0);
        }
    }

    #[test]
    fn wide_range_matrices_span_many_decades() {
        let m = wide_dynamic_range(40, 6.0, 7);
        assert!(m.is_symmetric(0.0));
        let max = m.max_abs();
        let min = m.min_abs_nonzero().unwrap();
        assert!(max / min > 1e9, "range {max}/{min}");
    }

    #[test]
    fn generators_are_deterministic_and_symmetric() {
        let a = random_sparse_symmetric(35, 0.15, 2.0, 42);
        let b = random_sparse_symmetric(35, 0.15, 2.0, 42);
        assert_eq!(a, b);
        assert!(a.is_symmetric(0.0));
        let s = spring_chain(20, 3.0, 1);
        assert!(s.is_symmetric(0.0));
        let t = banded_toeplitz(15, &[2.0, -1.0, 0.5]);
        assert!(t.is_symmetric(0.0));
        assert_eq!(t.get(0, 2), 0.5);
    }
}
