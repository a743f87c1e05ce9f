//! Reduction of a square matrix to upper Hessenberg form.

use lpa_arith::Real;

use crate::householder::Householder;
use crate::matrix::DMatrix;

/// Reduce `a` to upper Hessenberg form `H = Q^T A Q`, returning `(H, Q)`.
///
/// The Krylov–Schur restart produces projected matrices that are upper
/// triangular plus a spike row, so the Schur solver first restores Hessenberg
/// form with this routine before running the Francis iteration.
pub fn hessenberg<T: Real>(a: &DMatrix<T>) -> (DMatrix<T>, DMatrix<T>) {
    assert!(a.is_square());
    let n = a.nrows();
    let mut h = a.clone();
    let mut q = DMatrix::identity(n);
    if n <= 2 {
        return (h, q);
    }
    for k in 0..n - 2 {
        let refl = Householder::compute((k + 1..n).map(|i| h[(i, k)]).collect::<Vec<T>>());
        if refl.tau.is_zero() {
            continue;
        }
        // H <- P H P  (P acts on rows/columns k+1..n)
        refl.apply_left(&mut h, k + 1);
        refl.apply_right(&mut h, k + 1);
        // Q <- Q P
        refl.apply_right(&mut q, k + 1);
        // Clean the annihilated entries.
        h[(k + 1, k)] = refl.beta;
        for i in k + 2..n {
            h[(i, k)] = T::zero();
        }
    }
    (h, q)
}

/// Check that a matrix is upper Hessenberg up to the given tolerance.
pub fn is_hessenberg<T: Real>(m: &DMatrix<T>, tol: T) -> bool {
    for j in 0..m.ncols() {
        for i in (j + 2)..m.nrows() {
            if m[(i, j)].abs() > tol {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_and_reconstructs() {
        let a = DMatrix::<f64>::from_fn(7, 7, |i, j| ((3 * i + 5 * j + i * j) % 13) as f64 - 6.0);
        let (h, q) = hessenberg(&a);
        assert!(is_hessenberg(&h, 1e-12));
        // Q orthogonal
        let qtq = q.transpose_matmul(&q);
        assert!(qtq.diff_norm(&DMatrix::identity(7)) < 1e-12);
        // Q H Q^T == A
        let back = q.matmul(&h).matmul(&q.transpose());
        assert!(back.diff_norm(&a) < 1e-10);
    }

    #[test]
    fn hessenberg_of_symmetric_is_tridiagonal() {
        let mut a = DMatrix::<f64>::from_fn(6, 6, |i, j| ((i * j + i + j) % 7) as f64);
        // symmetrize
        for i in 0..6 {
            for j in 0..i {
                let v = (a[(i, j)] + a[(j, i)]) / 2.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let (h, _q) = hessenberg(&a);
        for j in 0..6 {
            for i in 0..6 {
                if i + 1 < j || j + 1 < i {
                    assert!(h[(i, j)].abs() < 1e-12, "({i},{j}) = {}", h[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn small_matrices_pass_through() {
        let a = DMatrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let (h, q) = hessenberg(&a);
        assert!(h.diff_norm(&a) < 1e-15);
        assert!(q.diff_norm(&DMatrix::identity(2)) < 1e-15);
    }
}
