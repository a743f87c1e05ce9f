//! Householder reflections and QR factorization.

use core::ops::Range;

use lpa_arith::Real;

use crate::blas::{dot, nrm2};
use crate::matrix::DMatrix;

/// A Householder reflector `P = I - tau * v v^T` with `v[0] = 1` implied.
///
/// `v` is the caller's slice-like storage: a `Vec` of a column, or a stack
/// buffer (the Francis sweep's 3-element bulge vectors).
#[derive(Clone, Debug)]
pub struct Householder<T, V> {
    pub v: V,
    pub tau: T,
    pub beta: T,
}

impl<T: Real, V: AsRef<[T]> + AsMut<[T]>> Householder<T, V> {
    /// Reflector that maps `x` onto `beta * e1` (LAPACK `dlarfg`-style),
    /// computed in place: `x`'s storage becomes `v`.
    ///
    /// The input is rescaled by its largest magnitude before squaring so that
    /// very small (or very large) vectors neither underflow nor overflow in
    /// the narrow formats — without this, bulge vectors of magnitude ~1e-4
    /// flush to zero when squared in float16 and the reflector degenerates.
    pub fn compute(mut x: V) -> Self {
        let v = x.as_mut();
        let n = v.len();
        assert!(n >= 1);
        let mut maxabs = T::zero();
        for xi in v.iter() {
            maxabs = maxabs.max(xi.abs());
        }
        let xnorm_tail_raw = nrm2(&v[1..]);
        if xnorm_tail_raw.is_zero() || maxabs.is_zero() {
            let beta = v[0];
            v.fill(T::zero());
            return Householder { v: x, tau: T::zero(), beta };
        }
        // Divide (rather than multiply by the reciprocal): the reciprocal of
        // a subnormal scale overflows the narrow formats.  The scaled tail
        // is kept in `v` and divided once more below.
        let alpha = v[0] / maxabs;
        for vi in &mut v[1..] {
            *vi /= maxabs;
        }
        let xnorm = nrm2(&v[1..]);
        let mut beta = -(alpha * alpha + xnorm * xnorm).sqrt();
        if alpha < T::zero() {
            beta = -beta;
        }
        let tau = (beta - alpha) / beta;
        v[0] = T::one();
        for vi in &mut v[1..] {
            *vi /= alpha - beta;
        }
        Householder { v: x, tau, beta: beta * maxabs }
    }
}

impl<T: Real, V: AsRef<[T]>> Householder<T, V> {
    /// Apply `P` to a vector in place.
    pub fn apply_vec(&self, x: &mut [T]) {
        if self.tau.is_zero() {
            return;
        }
        let v = self.v.as_ref();
        let s = self.tau * dot(v, x);
        for (xi, vi) in x.iter_mut().zip(v) {
            *xi -= s * *vi;
        }
    }

    /// Apply `P` from the left to the rows `r0..r0+len` of `m`.
    pub fn apply_left(&self, m: &mut DMatrix<T>, r0: usize) {
        self.apply_left_cols(m, r0, 0..m.ncols());
    }

    /// [`Self::apply_left`] restricted to the columns `cols`.
    pub fn apply_left_cols(&self, m: &mut DMatrix<T>, r0: usize, cols: Range<usize>) {
        if self.tau.is_zero() {
            return;
        }
        let v = self.v.as_ref();
        for j in cols {
            let mut s = T::zero();
            for (k, &vk) in v.iter().enumerate() {
                s += vk * m[(r0 + k, j)];
            }
            s *= self.tau;
            for (k, &vk) in v.iter().enumerate() {
                m[(r0 + k, j)] -= s * vk;
            }
        }
    }

    /// Apply `P` from the right to the columns `c0..c0+len` of `m`.
    pub fn apply_right(&self, m: &mut DMatrix<T>, c0: usize) {
        self.apply_right_rows(m, c0, 0..m.nrows());
    }

    /// [`Self::apply_right`] restricted to the rows `rows`.
    pub fn apply_right_rows(&self, m: &mut DMatrix<T>, c0: usize, rows: Range<usize>) {
        if self.tau.is_zero() {
            return;
        }
        let v = self.v.as_ref();
        for i in rows {
            let mut s = T::zero();
            for (k, &vk) in v.iter().enumerate() {
                s += m[(i, c0 + k)] * vk;
            }
            s *= self.tau;
            for (k, &vk) in v.iter().enumerate() {
                m[(i, c0 + k)] -= s * vk;
            }
        }
    }
}

/// QR factorization by Householder reflections: returns `(Q, R)` with
/// `Q` orthogonal (`m x m`) and `R` upper triangular (`m x n`).
pub fn qr<T: Real>(a: &DMatrix<T>) -> (DMatrix<T>, DMatrix<T>) {
    let m = a.nrows();
    let n = a.ncols();
    let mut r = a.clone();
    let mut q = DMatrix::identity(m);
    for k in 0..n.min(m.saturating_sub(1)) {
        let h = Householder::compute((k..m).map(|i| r[(i, k)]).collect::<Vec<T>>());
        h.apply_left(&mut r, k);
        h.apply_right(&mut q, k);
        // Clean the explicitly zeroed column entries.
        for i in k + 1..m {
            r[(i, k)] = T::zero();
        }
        r[(k, k)] = h.beta;
    }
    (q, r)
}

/// Thin QR: orthonormalize the columns of `a`, returning `(Q_thin, R)` with
/// `Q_thin` of the same shape as `a`.
pub fn thin_qr<T: Real>(a: &DMatrix<T>) -> (DMatrix<T>, DMatrix<T>) {
    let (q, r) = qr(a);
    (q.truncate_columns(a.ncols()), r.submatrix(0, 0, a.ncols(), a.ncols()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_orthogonal(q: &DMatrix<f64>, tol: f64) -> bool {
        let qtq = q.transpose_matmul(q);
        let id = DMatrix::<f64>::identity(q.ncols());
        qtq.diff_norm(&id) < tol
    }

    #[test]
    fn reflector_maps_to_e1() {
        let x = [3.0f64, 4.0, 0.0, 12.0];
        let h = Householder::compute(x);
        let mut y = x;
        h.apply_vec(&mut y);
        assert!((y[0].abs() - 13.0).abs() < 1e-12);
        for v in &y[1..] {
            assert!(v.abs() < 1e-12);
        }
        assert!((h.beta - y[0]).abs() < 1e-12);
    }

    #[test]
    fn qr_reconstructs_and_q_is_orthogonal() {
        let a = DMatrix::<f64>::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let (q, r) = qr(&a);
        assert!(is_orthogonal(&q, 1e-12));
        // R upper triangular
        for j in 0..r.ncols() {
            for i in j + 1..r.nrows() {
                assert!(r[(i, j)].abs() < 1e-12);
            }
        }
        let qr_prod = q.matmul(&r);
        assert!(qr_prod.diff_norm(&a) < 1e-12);
        // Thin variant
        let (qt, rt) = thin_qr(&a);
        assert_eq!(qt.ncols(), 4);
        assert!(qt.matmul(&rt).diff_norm(&a) < 1e-12);
    }

    #[test]
    fn qr_of_square_identity_is_identity() {
        let id = DMatrix::<f64>::identity(5);
        let (q, r) = qr(&id);
        assert!(q.diff_norm(&id) < 1e-14);
        assert!(r.diff_norm(&id) < 1e-14);
    }
}
