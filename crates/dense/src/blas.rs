//! BLAS-1 style kernels generic over [`Real`].
//!
//! The 2-norm uses a scaled one-pass accumulation so that it neither
//! overflows nor underflows the narrow formats' dynamic range — the same
//! robustness the paper's Julia stack inherits from its `norm`
//! implementation.

use lpa_arith::Real;

/// Dot product.
pub fn dot<T: Real>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::zero();
    for (a, b) in x.iter().zip(y) {
        acc += *a * *b;
    }
    acc
}

/// `y += alpha * x`.
pub fn axpy<T: Real>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    if alpha.is_zero() {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// `x *= alpha`.
pub fn scal<T: Real>(alpha: T, x: &mut [T]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm with scaling (LAPACK `dnrm2`-style).
pub fn nrm2<T: Real>(x: &[T]) -> T {
    let mut scale = T::zero();
    let mut ssq = T::one();
    for xi in x {
        if xi.is_zero() {
            continue;
        }
        let a = xi.abs();
        if scale < a {
            let r = scale / a;
            ssq = T::one() + ssq * r * r;
            scale = a;
        } else {
            let r = a / scale;
            ssq += r * r;
        }
    }
    if scale.is_zero() {
        T::zero()
    } else {
        scale * ssq.sqrt()
    }
}

/// Index of the entry with the largest absolute value (0 for empty input).
pub fn iamax<T: Real>(x: &[T]) -> usize {
    let mut best = 0;
    let mut best_val = T::zero();
    for (i, xi) in x.iter().enumerate() {
        let a = xi.abs();
        if a > best_val {
            best_val = a;
            best = i;
        }
    }
    best
}

/// Normalize `x` to unit 2-norm in place; returns the original norm.
pub fn normalize<T: Real>(x: &mut [T]) -> T {
    let n = nrm2(x);
    if !n.is_zero() && n.is_finite() {
        let inv = n.recip();
        scal(inv, x);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_arith::types::{Posit16, Takum8, E4M3};

    #[test]
    fn dot_axpy_scal() {
        let x = [1.0f64, 2.0, 3.0];
        let y = [4.0f64, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        let mut z = y;
        axpy(2.0, &x, &mut z);
        assert_eq!(z, [6.0, 9.0, 12.0]);
        scal(0.5, &mut z);
        assert_eq!(z, [3.0, 4.5, 6.0]);
        assert_eq!(iamax(&[-3.0, 7.0, -9.5, 2.0]), 2);
    }

    #[test]
    fn nrm2_matches_naive_in_f64() {
        let x = [3.0f64, 4.0];
        assert_eq!(nrm2(&x), 5.0);
        let x: Vec<f64> = (0..100).map(|i| (i as f64) * 0.01 - 0.5).collect();
        let naive = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((nrm2(&x) - naive).abs() < 1e-14);
    }

    #[test]
    fn nrm2_does_not_overflow_narrow_formats() {
        // Squaring these entries would leave the E4M3 range (max 448), but
        // the scaled accumulation keeps the norm finite and representable.
        let x: Vec<E4M3> = (0..4).map(|_| E4M3::from_f64(200.0)).collect();
        let n = nrm2(&x);
        assert!(n.is_finite());
        assert!(n.to_f64() > 200.0);
        // Same at the tiny end for takum8.
        let x: Vec<Takum8> = (0..4).map(|_| Takum8::from_f64(1e-30)).collect();
        let n = nrm2(&x);
        assert!(!n.is_zero());
    }

    #[test]
    fn normalize_gives_unit_vectors() {
        let mut x = vec![Posit16::from_f64(3.0), Posit16::from_f64(4.0)];
        let n = normalize(&mut x);
        assert_eq!(n.to_f64(), 5.0);
        let r = nrm2(&x).to_f64();
        assert!((r - 1.0).abs() < 1e-3);
        // Zero vectors are left untouched.
        let mut z = vec![Posit16::from_f64(0.0); 3];
        assert!(normalize(&mut z).is_zero());
    }
}
