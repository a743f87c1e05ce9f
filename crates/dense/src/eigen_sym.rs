//! Symmetric eigenvalue solver (tridiagonalization + implicit QL).
//!
//! The experiments follow the paper and use the *general* (untailored)
//! Krylov–Schur path, but a symmetric solver is useful as an independent
//! test oracle and for the `ablation_symmetric` benchmark that checks the
//! general path is not responsible for the observed format ranking.

use lpa_arith::Real;

use crate::error::DenseError;
use crate::householder::Householder;
use crate::matrix::DMatrix;

/// Tridiagonalize a symmetric matrix: returns `(d, e, Q)` with diagonal `d`,
/// off-diagonal `e` (length n-1) and orthogonal `Q` such that
/// `A = Q T Q^T`.
pub fn tridiagonalize<T: Real>(a: &DMatrix<T>) -> (Vec<T>, Vec<T>, DMatrix<T>) {
    assert!(a.is_square());
    let n = a.nrows();
    let mut m = a.clone();
    let mut q = DMatrix::identity(n);
    for k in 0..n.saturating_sub(2) {
        let refl = Householder::compute((k + 1..n).map(|i| m[(i, k)]).collect::<Vec<T>>());
        if refl.tau.is_zero() {
            continue;
        }
        refl.apply_left(&mut m, k + 1);
        refl.apply_right(&mut m, k + 1);
        refl.apply_right(&mut q, k + 1);
        m[(k + 1, k)] = refl.beta;
        m[(k, k + 1)] = refl.beta;
        for i in k + 2..n {
            m[(i, k)] = T::zero();
            m[(k, i)] = T::zero();
        }
    }
    let d: Vec<T> = (0..n).map(|i| m[(i, i)]).collect();
    let e: Vec<T> = (0..n.saturating_sub(1)).map(|i| m[(i + 1, i)]).collect();
    (d, e, q)
}

/// Implicit QL iteration with Wilkinson shifts on a symmetric tridiagonal
/// matrix, accumulating eigenvectors into `z` (pass the tridiagonalizing `Q`
/// to get eigenvectors of the original matrix).  `d` is overwritten with the
/// eigenvalues.
pub fn tridiagonal_ql<T: Real>(
    d: &mut [T],
    e: &mut [T],
    z: &mut DMatrix<T>,
) -> Result<(), DenseError> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    let eps = T::epsilon();
    // Shift the off-diagonal so e[i] couples d[i] and d[i+1]; use a trailing
    // zero slot like the classical tql2.
    let mut e: Vec<T> = e.iter().copied().chain(core::iter::once(T::zero())).collect();

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= eps * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(DenseError::QrNoConvergence { position: l, iterations: iter });
            }
            // Wilkinson shift.
            let two = T::two();
            let mut g = (d[l + 1] - d[l]) / (two * e[l]);
            if !g.is_finite() {
                return Err(DenseError::NonFinite);
            }
            let mut r = hypot(g, T::one());
            let sign_r = if g >= T::zero() { r } else { -r };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = T::one();
            let mut c = T::one();
            let mut p = T::zero();
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = hypot(f, g);
                e[i + 1] = r;
                if r.is_zero() {
                    d[i + 1] -= p;
                    e[m] = T::zero();
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + two * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..z.nrows() {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if r.is_zero() && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = T::zero();
        }
    }
    Ok(())
}

fn hypot<T: Real>(a: T, b: T) -> T {
    let (a, b) = (a.abs(), b.abs());
    let (big, small) = if a >= b { (a, b) } else { (b, a) };
    if big.is_zero() {
        return T::zero();
    }
    let r = small / big;
    big * (T::one() + r * r).sqrt()
}

/// Eigenvalues and eigenvectors of a symmetric matrix.  Returns `(values,
/// vectors)` where column `j` of `vectors` is the eigenvector for
/// `values[j]` (unordered).
pub fn symmetric_eigen<T: Real>(a: &DMatrix<T>) -> Result<(Vec<T>, DMatrix<T>), DenseError> {
    let (mut d, mut e, mut q) = tridiagonalize(a);
    tridiagonal_ql(&mut d, &mut e, &mut q)?;
    Ok((d, q))
}

/// Eigenvalues only.
pub fn symmetric_eigenvalues<T: Real>(a: &DMatrix<T>) -> Result<Vec<T>, DenseError> {
    symmetric_eigen(a).map(|(d, _)| d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_symmetric(n: usize, seed: u64) -> DMatrix<f64> {
        let mut s = seed;
        let mut rand = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut a = DMatrix::<f64>::from_fn(n, n, |_, _| rand());
        for i in 0..n {
            for j in 0..i {
                let v = (a[(i, j)] + a[(j, i)]) / 2.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn tridiagonalization_is_similar() {
        let a = random_symmetric(8, 3);
        let (d, e, q) = tridiagonalize(&a);
        // Rebuild T and check A = Q T Q^T.
        let n = 8;
        let mut t = DMatrix::<f64>::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = d[i];
        }
        for i in 0..n - 1 {
            t[(i + 1, i)] = e[i];
            t[(i, i + 1)] = e[i];
        }
        let back = q.matmul(&t).matmul(&q.transpose());
        assert!(back.diff_norm(&a) < 1e-10);
    }

    #[test]
    fn eigen_decomposition_reconstructs() {
        for n in [1usize, 2, 3, 5, 10, 20] {
            let a = random_symmetric(n, n as u64);
            let (vals, vecs) = symmetric_eigen(&a).unwrap();
            // A V = V diag(vals)
            let av = a.matmul(&vecs);
            let mut vd = vecs.clone();
            for j in 0..n {
                for i in 0..n {
                    vd[(i, j)] = vecs[(i, j)] * vals[j];
                }
            }
            assert!(av.diff_norm(&vd) < 1e-9, "n = {n}");
            // Orthonormal eigenvectors.
            let vtv = vecs.transpose_matmul(&vecs);
            assert!(vtv.diff_norm(&DMatrix::identity(n)) < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn known_spectrum_of_path_laplacian() {
        // Path-graph Laplacian eigenvalues: 2 - 2 cos(k pi / n), k = 0..n-1.
        let n = 10;
        let a = DMatrix::<f64>::from_fn(n, n, |i, j| {
            if i == j {
                if i == 0 || i == n - 1 {
                    1.0
                } else {
                    2.0
                }
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let mut vals = symmetric_eigenvalues(&a).unwrap();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (k, v) in vals.iter().enumerate() {
            let expected = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos();
            assert!((v - expected).abs() < 1e-9, "{v} vs {expected}");
        }
    }

    #[test]
    fn works_in_low_precision() {
        use lpa_arith::types::Takum16;
        let a64 = random_symmetric(6, 9);
        let a: DMatrix<Takum16> = a64.convert();
        let (vals, _vecs) = symmetric_eigen(&a).unwrap();
        let mut v: Vec<f64> = vals.iter().map(|x| x.to_f64()).collect();
        let mut r = symmetric_eigenvalues(&a64).unwrap();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        r.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (x, y) in v.iter().zip(&r) {
            assert!((x - y).abs() < 0.02, "{x} vs {y}");
        }
    }
}
