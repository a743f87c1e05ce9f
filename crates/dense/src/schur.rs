//! Real Schur decomposition of an upper Hessenberg matrix via the Francis
//! implicit double-shift QR iteration.
//!
//! This is the generic-scalar replacement for the LAPACK `dhseqr` routine the
//! paper's Julia stack deliberately avoids: the same code runs in every
//! format under study, including OFP8 and the tapered-precision formats.  A
//! failure to converge is reported as an error (never a panic) so the
//! experiment harness can classify it as the paper's `∞ω` outcome.

use lpa_arith::Real;

use crate::complex::Complex;
use crate::error::DenseError;
use crate::givens::Givens;
use crate::hessenberg::hessenberg;
use crate::householder::Householder;
use crate::matrix::DMatrix;

/// Result of a real Schur decomposition `A = Z T Z^T`.
#[derive(Clone, Debug)]
pub struct Schur<T: Real> {
    /// Quasi-upper-triangular factor (1×1 and 2×2 diagonal blocks).
    pub t: DMatrix<T>,
    /// Orthogonal factor.
    pub z: DMatrix<T>,
}

impl<T: Real> Schur<T> {
    /// Eigenvalues read off the diagonal blocks of `T`.
    pub fn eigenvalues(&self) -> Vec<Complex<T>> {
        eigenvalues_of_quasi_triangular(&self.t)
    }
}

/// Iteration budget per eigenvalue.  The classical HQR heuristic uses 30;
/// the very low precision formats occasionally need more because the shifts
/// themselves are only accurate to a few digits, so the budget is larger
/// here (non-convergence is still reported, never looped forever).
const MAX_ITER_PER_EIGENVALUE: usize = 80;

/// Compute the real Schur form of a general square matrix: reduce to
/// Hessenberg form first, then run the Francis iteration.
pub fn schur<T: Real>(a: &DMatrix<T>) -> Result<Schur<T>, DenseError> {
    let (mut h, mut q) = hessenberg(a);
    hessenberg_schur_in_place(&mut h, &mut q)?;
    Ok(Schur { t: h, z: q })
}

/// Francis double-shift QR on an upper Hessenberg matrix `h`, accumulating
/// the transformations into `z` (i.e. `z` is replaced by `z * Q` where
/// `Q^T h_in Q = h_out`).
pub fn hessenberg_schur_in_place<T: Real>(
    h: &mut DMatrix<T>,
    z: &mut DMatrix<T>,
) -> Result<(), DenseError> {
    assert!(h.is_square());
    let n = h.nrows();
    if n == 0 {
        return Ok(());
    }
    let eps = T::epsilon();
    let hnorm = h.frobenius_norm();
    if !hnorm.is_finite() {
        return Err(DenseError::NonFinite);
    }

    let mut hi = n - 1; // index of the last row/column of the active block
    let mut iters_since_deflation = 0usize;

    loop {
        // Find the start `lo` of the active block by scanning for a
        // negligible subdiagonal entry.
        let mut lo = hi;
        while lo > 0 {
            let s = h[(lo - 1, lo - 1)].abs() + h[(lo, lo)].abs();
            let s = if s.is_zero() { hnorm } else { s };
            if h[(lo, lo - 1)].abs() <= eps * s {
                h[(lo, lo - 1)] = T::zero();
                break;
            }
            lo -= 1;
        }

        if lo == hi {
            // A 1x1 block converged.
            if hi == 0 {
                break;
            }
            hi -= 1;
            iters_since_deflation = 0;
            continue;
        }
        if lo + 1 == hi {
            // A 2x2 block converged; bring it to standard form.
            standardize_2x2(h, z, lo);
            if hi <= 1 {
                break;
            }
            hi -= 2;
            iters_since_deflation = 0;
            continue;
        }

        iters_since_deflation += 1;
        if iters_since_deflation > MAX_ITER_PER_EIGENVALUE {
            return Err(DenseError::QrNoConvergence {
                position: hi,
                iterations: iters_since_deflation,
            });
        }
        if !h[(hi, hi)].is_finite() || !h[(lo, lo)].is_finite() {
            return Err(DenseError::NonFinite);
        }

        // Double-shift from the trailing 2x2 block (sum / product of its
        // eigenvalues); every tenth iteration use an exceptional shift.
        let (s, t) = if iters_since_deflation.is_multiple_of(10) {
            // Exceptional (ad-hoc) shift to break limit cycles.
            let x = h[(hi, hi - 1)].abs() + h[(hi - 1, hi - 2)].abs();
            let base = h[(hi, hi)] + T::from_f64(0.75) * x;
            (base + base, base * base - T::from_f64(0.4375) * x * x)
        } else {
            let a = h[(hi - 1, hi - 1)];
            let b = h[(hi - 1, hi)];
            let c = h[(hi, hi - 1)];
            let d = h[(hi, hi)];
            (a + d, a * d - b * c)
        };

        francis_double_step(h, z, lo, hi, s, t);
    }
    Ok(())
}

/// One implicit double-shift sweep on the active block `lo..=hi`.
fn francis_double_step<T: Real>(
    h: &mut DMatrix<T>,
    z: &mut DMatrix<T>,
    lo: usize,
    hi: usize,
    s: T,
    t: T,
) {
    let n = h.ncols();
    // First column of (H - s1 I)(H - s2 I) e1 restricted to the block.
    let h11 = h[(lo, lo)];
    let h12 = h[(lo, lo + 1)];
    let h21 = h[(lo + 1, lo)];
    let h22 = h[(lo + 1, lo + 1)];
    let h32 = h[(lo + 2, lo + 1)];
    let mut p = h11 * h11 + h12 * h21 - s * h11 + t;
    let mut q = h21 * (h11 + h22 - s);
    let mut r = h21 * h32;

    for k in lo..hi {
        let last = k == hi - 1; // the final reflector is only 2 rows tall
        let len = if last { 2 } else { 3 };
        let mut bulge = [p, q, r];
        let refl = Householder::compute(&mut bulge[..len]);
        if !refl.tau.is_zero() {
            // The LAPACK `dlahqr` windows: columns `k..n` from the left,
            // rows `0..=min(k+3, hi)` from the right (`Z` keeps all its
            // rows).  Every skipped entry lies below the subdiagonal or on
            // a deflated subdiagonal, where `hessenberg` and this step
            // have stored `+0`; with a finite reflector the full update
            // would only compute `+0 - (±0)·v = +0` there.  (A non-finite
            // reflector poisons every later reflector of the sweep and
            // `h[(hi, hi)]` either way, so the iteration stops with an
            // error before any skipped entry is read.)
            refl.apply_left_cols(h, k, k..n);
            refl.apply_right_rows(h, k, 0..(k + 4).min(hi + 1));
            refl.apply_right(z, k);
        }
        // Restore the Hessenberg zeros introduced by the explicit bulge.
        if k > lo {
            h[(k, k - 1)] = refl.beta;
            for i in k + 1..(k + len).min(hi + 1) {
                h[(i, k - 1)] = T::zero();
            }
        }
        if !last {
            p = h[(k + 1, k)];
            q = h[(k + 2, k)];
            r = if k + 3 <= hi { h[(k + 3, k)] } else { T::zero() };
        }
    }
}

/// Bring a converged trailing 2x2 block starting at `lo` into standard form:
/// if its eigenvalues are real, rotate it to upper triangular form; if they
/// are complex, leave the block (any 2x2 block with complex eigenvalues is an
/// acceptable real Schur block).
fn standardize_2x2<T: Real>(h: &mut DMatrix<T>, z: &mut DMatrix<T>, lo: usize) {
    let a = h[(lo, lo)];
    let b = h[(lo, lo + 1)];
    let c = h[(lo + 1, lo)];
    let d = h[(lo + 1, lo + 1)];
    if c.is_zero() {
        return;
    }
    let half = T::half();
    let p = (a - d) * half;
    let disc = p * p + b * c;
    if disc < T::zero() {
        return; // complex pair, keep the block
    }
    let mean = (a + d) * half;
    let sq = disc.sqrt();
    let lambda = if p >= T::zero() { mean + sq } else { mean - sq };
    // Eigenvector of the block for `lambda`, taken from the better-scaled row.
    let x1 = [b, lambda - a];
    let x2 = [lambda - d, c];
    let n1 = x1[0].abs() + x1[1].abs();
    let n2 = x2[0].abs() + x2[1].abs();
    let x = if n1 >= n2 { x1 } else { x2 };
    if (x[0].abs() + x[1].abs()).is_zero() {
        return;
    }
    let (g, _) = Givens::compute(x[0], x[1]);
    g.apply_left(h, lo, lo + 1);
    g.apply_right(h, lo, lo + 1);
    g.apply_right(z, lo, lo + 1);
    h[(lo + 1, lo)] = T::zero();
}

/// Eigenvalues of a quasi-upper-triangular matrix (the `T` factor of a real
/// Schur decomposition).
pub fn eigenvalues_of_quasi_triangular<T: Real>(t: &DMatrix<T>) -> Vec<Complex<T>> {
    let n = t.nrows();
    let mut eig = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        if i + 1 < n && !t[(i + 1, i)].is_zero() {
            // 2x2 block.
            let a = t[(i, i)];
            let b = t[(i, i + 1)];
            let c = t[(i + 1, i)];
            let d = t[(i + 1, i + 1)];
            let half = T::half();
            let mean = (a + d) * half;
            let p = (a - d) * half;
            let disc = p * p + b * c;
            if disc >= T::zero() {
                let sq = disc.sqrt();
                eig.push(Complex::real(mean + sq));
                eig.push(Complex::real(mean - sq));
            } else {
                let sq = (-disc).sqrt();
                eig.push(Complex::new(mean, sq));
                eig.push(Complex::new(mean, -sq));
            }
            i += 2;
        } else {
            eig.push(Complex::real(t[(i, i)]));
            i += 1;
        }
    }
    eig
}

/// Positions `i` such that row `i` starts a diagonal block of `T` (1x1 or
/// 2x2), together with the block sizes.
pub fn block_structure<T: Real>(t: &DMatrix<T>) -> Vec<(usize, usize)> {
    let n = t.nrows();
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < n {
        if i + 1 < n && !t[(i + 1, i)].is_zero() {
            blocks.push((i, 2));
            i += 2;
        } else {
            blocks.push((i, 1));
            i += 1;
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_schur(a: &DMatrix<f64>, tol: f64) -> Schur<f64> {
        let s = schur(a).expect("schur converges");
        // Z orthogonal.
        let ztz = s.z.transpose_matmul(&s.z);
        assert!(ztz.diff_norm(&DMatrix::identity(a.nrows())) < tol, "Z not orthogonal");
        // A Z = Z T.
        let az = a.matmul(&s.z);
        let zt = s.z.matmul(&s.t);
        assert!(az.diff_norm(&zt) < tol * (1.0 + a.frobenius_norm()), "A Z != Z T");
        // T quasi-triangular: nothing below the first subdiagonal, and no two
        // consecutive non-zero subdiagonal entries.
        for j in 0..a.ncols() {
            for i in j + 2..a.nrows() {
                assert!(s.t[(i, j)].abs() < tol, "T not quasi-triangular at ({i},{j})");
            }
        }
        for i in 1..a.nrows() - 1 {
            assert!(
                s.t[(i, i - 1)].abs() < tol || s.t[(i + 1, i)].abs() < tol,
                "consecutive 2x2 blocks overlap at {i}"
            );
        }
        s
    }

    #[test]
    fn symmetric_matrix_has_real_diagonal_schur() {
        let n = 8;
        let mut a = DMatrix::<f64>::from_fn(n, n, |i, j| ((i * 3 + j * 7 + i * j) % 11) as f64);
        for i in 0..n {
            for j in 0..i {
                let v = (a[(i, j)] + a[(j, i)]) / 2.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let s = check_schur(&a, 1e-9);
        let mut eigs: Vec<f64> = s.eigenvalues().iter().map(|c| c.re).collect();
        assert!(s.eigenvalues().iter().all(|c| c.im == 0.0));
        // Trace is preserved.
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = eigs.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
        // Eigenvalues match the symmetric tridiagonal solver.
        eigs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut reference = crate::eigen_sym::symmetric_eigenvalues(&a).expect("sym eig");
        reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (x, y) in eigs.iter().zip(&reference) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn rotation_like_matrix_gives_complex_pairs() {
        // Block diagonal with a rotation: eigenvalues cos±i sin and 3.
        let c = 0.6f64;
        let s = 0.8f64;
        let a = DMatrix::<f64>::from_rows(&[&[c, -s, 0.3], &[s, c, -0.1], &[0.0, 0.0, 3.0]]);
        let res = check_schur(&a, 1e-10);
        let eigs = res.eigenvalues();
        let mut complex_count = 0;
        let mut real_vals = Vec::new();
        for e in &eigs {
            if e.im != 0.0 {
                complex_count += 1;
                assert!((e.re - c).abs() < 1e-10);
                assert!((e.im.abs() - s).abs() < 1e-10);
            } else {
                real_vals.push(e.re);
            }
        }
        assert_eq!(complex_count, 2);
        assert_eq!(real_vals.len(), 1);
        assert!((real_vals[0] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn random_nonsymmetric_matrices_converge() {
        let mut seed = 42u64;
        let mut rand = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [1usize, 2, 3, 5, 10, 17, 25] {
            let a = DMatrix::<f64>::from_fn(n, n, |_, _| rand());
            let s = check_schur(&a, 1e-8);
            let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
            let sum: f64 = s.eigenvalues().iter().map(|c| c.re).sum();
            assert!((trace - sum).abs() < 1e-7 * (1.0 + trace.abs()), "n={n}");
        }
    }

    #[test]
    fn known_eigenvalues_of_tridiagonal_toeplitz() {
        // The (-1, 2, -1) tridiagonal matrix has eigenvalues
        // 2 - 2 cos(k pi / (n+1)).
        let n = 12;
        let a = DMatrix::<f64>::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let s = check_schur(&a, 1e-9);
        let mut eigs: Vec<f64> = s.eigenvalues().iter().map(|c| c.re).collect();
        eigs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (k, e) in eigs.iter().enumerate() {
            let expected = 2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / (n as f64 + 1.0)).cos();
            assert!((e - expected).abs() < 1e-9, "{e} vs {expected}");
        }
    }

    #[test]
    fn schur_works_in_low_precision() {
        // The same code runs in posit16; results are coarse but structurally
        // correct (similarity + quasi-triangular form).
        use lpa_arith::types::Posit16;
        let a64 = DMatrix::<f64>::from_rows(&[
            &[4.0, 1.0, 0.0, 0.0],
            &[1.0, 3.0, 1.0, 0.0],
            &[0.0, 1.0, 2.0, 1.0],
            &[0.0, 0.0, 1.0, 1.0],
        ]);
        let a: DMatrix<Posit16> = a64.convert();
        let s = schur(&a).expect("posit16 schur");
        let az: DMatrix<f64> = a.matmul(&s.z).convert();
        let zt: DMatrix<f64> = s.z.matmul(&s.t).convert();
        assert!(az.diff_norm(&zt) < 0.05);
        let mut eigs: Vec<f64> = s.eigenvalues().iter().map(|c| c.re.to_f64()).collect();
        eigs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expected = crate::eigen_sym::symmetric_eigenvalues(&a64).unwrap();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (e, x) in eigs.iter().zip(&expected) {
            assert!((e - x).abs() < 0.05, "{e} vs {x}");
        }
    }

    #[test]
    fn nonfinite_input_is_reported() {
        let mut a = DMatrix::<f64>::identity(3);
        a[(1, 1)] = f64::NAN;
        assert!(matches!(schur(&a), Err(DenseError::NonFinite)));
    }
}
