//! The linear operator abstraction the Arnoldi method iterates with.

use lpa_arith::Real;
use lpa_dense::DMatrix;
use lpa_sparse::CsrMatrix;

/// Anything that can apply itself to a vector (`y = A x`).
///
/// Only matrix–vector products are required — the defining property of the
/// Arnoldi method and the reason it suits large sparse matrices.
pub trait LinearOperator<T: Real> {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Compute `y = A x`.
    ///
    /// Implementations must **fully overwrite** `y`: the solver reuses one
    /// work buffer across Arnoldi steps, so `y` arrives holding arbitrary
    /// stale data.  Accumulating into `y`, or skipping rows whose result is
    /// structurally zero, silently corrupts the Krylov basis.
    fn apply(&self, x: &[T], y: &mut [T]);
}

impl<T: Real> LinearOperator<T> for CsrMatrix<T> {
    fn dim(&self) -> usize {
        assert!(self.is_square(), "operator must be square");
        self.nrows()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.spmv(x, y);
    }
}

impl<T: Real> LinearOperator<T> for DMatrix<T> {
    fn dim(&self) -> usize {
        assert!(self.is_square(), "operator must be square");
        self.nrows()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        let r = self.matvec(x);
        y.copy_from_slice(&r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_and_dense_agree() {
        let s = CsrMatrix::<f64>::from_triplets(3, 3, &[(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0), (2, 2, 4.0)]);
        let d = s.to_dense();
        let x = [1.0, 2.0, 3.0];
        let mut ys = [0.0; 3];
        let mut yd = [0.0; 3];
        LinearOperator::apply(&s, &x, &mut ys);
        LinearOperator::apply(&d, &x, &mut yd);
        assert_eq!(ys, yd);
        assert_eq!(LinearOperator::<f64>::dim(&s), 3);
    }
}
