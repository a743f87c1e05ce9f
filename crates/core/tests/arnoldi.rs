//! Integration tests of the Krylov–Schur Arnoldi driver.

use lpa_arith::types::{Bf16, Posit16, Posit32, Takum16, Takum32, F16};
use lpa_arith::Dd;
use lpa_arnoldi::{partial_schur, ArnoldiError, ArnoldiOptions, Which};
use lpa_dense::eigen_sym::symmetric_eigenvalues;
use lpa_sparse::CsrMatrix;

fn laplacian_1d(n: usize) -> CsrMatrix<f64> {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.0));
        if i + 1 < n {
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
    }
    CsrMatrix::from_triplets(n, n, &t)
}

fn random_symmetric(n: usize, density: f64, seed: u64) -> CsrMatrix<f64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, rng.gen_range(-1.0..1.0) * 2.0));
        for j in i + 1..n {
            if rng.gen::<f64>() < density {
                let v = rng.gen_range(-1.0..1.0);
                t.push((i, j, v));
                t.push((j, i, v));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &t)
}

/// Exact largest eigenvalues via the dense symmetric solver.
fn dense_extremes(a: &CsrMatrix<f64>, k: usize, largest: bool) -> Vec<f64> {
    let mut e = symmetric_eigenvalues(&a.to_dense()).unwrap();
    e.sort_by(|x, y| x.abs().partial_cmp(&y.abs()).unwrap());
    if largest {
        e.reverse();
    }
    e.truncate(k);
    e
}

#[test]
fn laplacian_largest_eigenvalues_match_dense_solver() {
    let a = laplacian_1d(80);
    let opts = ArnoldiOptions { nev: 6, tol: 1e-10, seed: 3, ..Default::default() };
    let (ps, hist) = partial_schur(&a, &opts).unwrap();
    assert!(hist.converged);
    assert_eq!(ps.len(), 6);
    let mut got = ps.real_eigenvalues();
    got.sort_by(|x, y| y.partial_cmp(x).unwrap());
    let expected = dense_extremes(&a, 6, true);
    for (g, e) in got.iter().zip(&expected) {
        assert!((g - e).abs() < 1e-8, "{g} vs {e}");
    }
    // Residuals ||A q - lambda q|| are small.
    for r in ps.residuals(&a) {
        assert!(r < 1e-7, "residual {r}");
    }
    // Q orthonormal.
    let qtq = ps.q.transpose_matmul(&ps.q);
    assert!(qtq.diff_norm(&lpa_dense::DMatrix::identity(6)) < 1e-8);
}

#[test]
fn smallest_magnitude_targeting_works() {
    // Shifted Laplacian (positive definite, smallest eigenvalues well
    // separated from zero so magnitude ordering is unambiguous).
    let n = 60;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.5));
        if i + 1 < n {
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
    }
    let a = CsrMatrix::<f64>::from_triplets(n, n, &t);
    let opts = ArnoldiOptions {
        nev: 4,
        which: Which::SmallestMagnitude,
        tol: 1e-10,
        max_restarts: 500,
        seed: 5,
        ..Default::default()
    };
    let (ps, _) = partial_schur(&a, &opts).unwrap();
    let mut got = ps.real_eigenvalues();
    got.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let expected = dense_extremes(&a, 4, false);
    let mut expected = expected;
    expected.sort_by(|x, y| x.partial_cmp(y).unwrap());
    for (g, e) in got.iter().zip(&expected) {
        assert!((g - e).abs() < 1e-6, "{g} vs {e}");
    }
}

#[test]
fn random_symmetric_matrices_across_sizes() {
    for (n, seed) in [(40usize, 1u64), (75, 2), (120, 3)] {
        let a = random_symmetric(n, 0.1, seed);
        let opts = ArnoldiOptions { nev: 5, tol: 1e-9, seed, ..Default::default() };
        let (ps, _) = partial_schur(&a, &opts).unwrap();
        let mut got = ps.real_eigenvalues();
        got.sort_by(|x, y| y.abs().partial_cmp(&x.abs()).unwrap());
        let expected = dense_extremes(&a, 5, true);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g.abs() - e.abs()).abs() < 1e-6, "n={n}: {g} vs {e}");
        }
    }
}

#[test]
fn works_in_double_double_reference_arithmetic() {
    let a = laplacian_1d(50).convert::<Dd>();
    let opts = ArnoldiOptions { nev: 4, tol: 1e-20, seed: 11, ..Default::default() };
    let (ps, hist) = partial_schur(&a, &opts).unwrap();
    assert!(hist.converged);
    // Analytic eigenvalues: 2 - 2 cos(k pi / (n+1)), largest for k = n.
    let n = 50f64;
    let exact = 2.0 - 2.0 * (std::f64::consts::PI * n / (n + 1.0)).cos();
    let got = ps
        .real_eigenvalues()
        .iter()
        .map(|x| x.to_f64())
        .fold(f64::NEG_INFINITY, f64::max);
    assert!((got - exact).abs() < 1e-13, "{got} vs {exact}");
    // The residuals should be far below f64 epsilon.
    for r in &hist.residuals {
        assert!(r.abs() < 1e-18);
    }
}

#[test]
fn works_in_low_precision_formats() {
    fn run<T: lpa_arith::Real>(tol: f64) -> Vec<f64> {
        let a = laplacian_1d(48).convert::<T>();
        // Starting-vector seed chosen to converge for every format under the
        // vendored rand stream (like any IRAM run, individual unlucky seeds
        // can stagnate in 16-bit tapered precision — the pipeline classifies
        // those as the paper's infinity-omega rather than erroring).
        let opts =
            ArnoldiOptions { nev: 4, tol, seed: 3, max_restarts: 60, ..Default::default() };
        let (ps, _) = partial_schur(&a, &opts).expect(T::NAME);
        let mut e: Vec<f64> = ps.real_eigenvalues().iter().map(|x| x.to_f64()).collect();
        e.sort_by(|x, y| y.partial_cmp(x).unwrap());
        e
    }
    let exact: Vec<f64> = (45..=48)
        .rev()
        .map(|k| 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / 49.0).cos())
        .collect();
    for (name, eigs, tol) in [
        ("f16", run::<F16>(1e-4), 0.05),
        ("bf16", run::<Bf16>(1e-4), 0.6),
        ("posit16", run::<Posit16>(1e-4), 0.05),
        ("takum16", run::<Takum16>(1e-4), 0.05),
        ("posit32", run::<Posit32>(1e-8), 1e-3),
        ("takum32", run::<Takum32>(1e-8), 1e-3),
    ] {
        for (g, e) in eigs.iter().zip(&exact) {
            assert!((g - e).abs() < tol, "{name}: {g} vs {e}");
        }
    }
}

#[test]
fn nonconvergence_is_reported_not_panicked() {
    // An absurd tolerance for an 8-bit-like precision budget: ask for more
    // accuracy than f64 can deliver in 2 restarts.
    let a = random_symmetric(60, 0.15, 9);
    let opts = ArnoldiOptions {
        nev: 8,
        tol: 1e-30,
        max_restarts: 2,
        seed: 1,
        ..Default::default()
    };
    match partial_schur(&a, &opts) {
        Err(ArnoldiError::NotConverged { restarts, .. }) => assert_eq!(restarts, 2),
        other => panic!("expected NotConverged, got {other:?}"),
    }
}

#[test]
fn invalid_inputs_are_rejected() {
    let a = laplacian_1d(10);
    let opts = ArnoldiOptions { nev: 0, ..Default::default() };
    assert!(matches!(partial_schur(&a, &opts), Err(ArnoldiError::InvalidInput(_))));
    let opts = ArnoldiOptions { nev: 9, ..Default::default() };
    assert!(matches!(partial_schur(&a, &opts), Err(ArnoldiError::InvalidInput(_))));
}

#[test]
fn matrix_with_repeated_eigenvalues_converges() {
    // Two disconnected identical components: every eigenvalue is (at least)
    // doubled, which exercises the breakdown / buffer logic.
    let half = laplacian_1d(30);
    let mut t = Vec::new();
    for (i, j, v) in half.iter() {
        t.push((i, j, v));
        t.push((i + 30, j + 30, v));
    }
    let a = CsrMatrix::<f64>::from_triplets(60, 60, &t);
    let opts = ArnoldiOptions { nev: 6, tol: 1e-9, seed: 13, max_restarts: 300, ..Default::default() };
    let (ps, _) = partial_schur(&a, &opts).unwrap();
    let mut got = ps.real_eigenvalues();
    got.sort_by(|x, y| y.partial_cmp(x).unwrap());
    // Eigenvalues of the duplicated 30-node chain Laplacian: every value of
    // the single chain, doubled.  A Krylov space built from one starting
    // vector is not guaranteed to resolve the multiplicities, so only check
    // that every returned value *is* an eigenvalue (tiny residual) and that
    // the top of the spectrum is found.
    let l1 = 2.0 - 2.0 * (std::f64::consts::PI * 30.0 / 31.0).cos();
    assert!((got[0] - l1).abs() < 1e-7);
    for r in ps.residuals(&a) {
        assert!(r < 1e-6, "residual {r}");
    }
}

#[test]
fn deterministic_for_fixed_seed() {
    let a = random_symmetric(50, 0.12, 21);
    let opts = ArnoldiOptions { nev: 4, tol: 1e-10, seed: 99, ..Default::default() };
    let (p1, h1) = partial_schur(&a, &opts).unwrap();
    let (p2, h2) = partial_schur(&a, &opts).unwrap();
    assert_eq!(h1.matvecs, h2.matvecs);
    for (a, b) in p1.real_eigenvalues().iter().zip(p2.real_eigenvalues()) {
        assert_eq!(*a, b);
    }
}
