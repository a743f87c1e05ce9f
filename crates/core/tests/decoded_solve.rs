//! Type-level differential of the whole solve: `partial_schur::<T>` on a
//! `CsrMatrix<T>` and `partial_schur::<Decoded<T>>` on the decoded matrix
//! must return bit-identical `Q`, `R`, eigenvalues and `History`, or equal
//! errors, for every emulated format the experiment pipeline runs decoded
//! (plus posit16 with es = 1).
//!
//! The cases are small (n ≤ 40) and chosen so that cells end in every
//! outcome class: converged, out of restarts (`NotConverged`), and a
//! non-finite factorization (IEEE overflow).

use lpa_arith::types::{
    Bf16, Posit16, Posit16Es1, Posit32, Posit64, Takum16, Takum32, Takum64, F16,
};
use lpa_arith::{Decoded, UnpackedReal};
use lpa_arnoldi::{partial_schur, ArnoldiError, ArnoldiOptions, History, PartialSchur};
use lpa_dense::DMatrix;
use lpa_sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn laplacian_1d(n: usize, scale: f64) -> CsrMatrix<f64> {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.0 * scale));
        if i + 1 < n {
            t.push((i, i + 1, -scale));
            t.push((i + 1, i, -scale));
        }
    }
    CsrMatrix::from_triplets(n, n, &t)
}

/// A sparse nonsymmetric matrix with uneven row lengths (complex pairs in
/// the projected phase).
fn random_general(n: usize, seed: u64) -> CsrMatrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, rng.gen_range(-1.0..1.0)));
        for j in 0..n {
            if j != i && rng.gen::<f64>() < 0.15 {
                t.push((i, j, rng.gen_range(-1.0..1.0)));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &t)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ending {
    Converged,
    NotConverged,
    NonFiniteOrProjection,
}

#[track_caller]
fn same_matrix<T: UnpackedReal>(a: &DMatrix<T>, d: &DMatrix<Decoded<T>>, what: &str) {
    assert_eq!(
        (a.nrows(), a.ncols()),
        (d.nrows(), d.ncols()),
        "{what} shape in {}",
        T::NAME
    );
    for (i, (x, y)) in a.as_slice().iter().zip(d.as_slice()).enumerate() {
        assert_eq!(x.decode(), y.into_dec(), "{what}[{i}] in {}", T::NAME);
    }
}

#[track_caller]
fn same_history(a: &History, d: &History, name: &str) {
    assert_eq!(
        (a.restarts, a.matvecs, a.converged),
        (d.restarts, d.matvecs, d.converged),
        "history in {name}"
    );
    let bits = |h: &History| h.residuals.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(d), "residuals in {name}");
}

fn same_schur<T: UnpackedReal>(a: &PartialSchur<T>, d: &PartialSchur<Decoded<T>>) {
    same_matrix(&a.q, &d.q, "Q");
    same_matrix(&a.r, &d.r, "R");
    assert_eq!(
        a.eigenvalues.len(),
        d.eigenvalues.len(),
        "eigenvalue count in {}",
        T::NAME
    );
    for (x, y) in a.eigenvalues.iter().zip(&d.eigenvalues) {
        assert_eq!(
            (x.re.decode(), x.im.decode()),
            (y.re.into_dec(), y.im.into_dec()),
            "eigenvalue in {}",
            T::NAME
        );
    }
}

/// Solve `a64` at `T` and at `Decoded<T>`; both must end identically.
fn differential<T: UnpackedReal>(a64: &CsrMatrix<f64>, opts: &ArnoldiOptions) -> Ending {
    let encoded = partial_schur(&a64.convert::<T>(), opts);
    let decoded = partial_schur(&a64.convert::<Decoded<T>>(), opts);
    match (encoded, decoded) {
        (Ok((pa, ha)), Ok((pd, hd))) => {
            same_schur(&pa, &pd);
            same_history(&ha, &hd, T::NAME);
            Ending::Converged
        }
        (Err(ea), Err(ed)) => {
            assert_eq!(ea, ed, "errors in {}", T::NAME);
            match ea {
                ArnoldiError::NotConverged { .. } => Ending::NotConverged,
                ArnoldiError::NonFinite | ArnoldiError::Projection(_) => {
                    Ending::NonFiniteOrProjection
                }
                other => panic!("unexpected error {other:?} in {}", T::NAME),
            }
        }
        (a, d) => panic!(
            "{}: encoded {:?} vs decoded {:?}",
            T::NAME,
            a.map(|(_, h)| h),
            d.map(|(_, h)| h)
        ),
    }
}

fn all_formats(a64: &CsrMatrix<f64>, opts: &ArnoldiOptions) -> Vec<Ending> {
    vec![
        differential::<F16>(a64, opts),
        differential::<Bf16>(a64, opts),
        differential::<Posit16>(a64, opts),
        differential::<Posit16Es1>(a64, opts),
        differential::<Takum16>(a64, opts),
        differential::<Posit32>(a64, opts),
        differential::<Takum32>(a64, opts),
        differential::<Posit64>(a64, opts),
        differential::<Takum64>(a64, opts),
    ]
}

fn opts(tol: f64, max_restarts: usize) -> ArnoldiOptions {
    ArnoldiOptions {
        nev: 4,
        tol,
        max_restarts,
        max_dim: Some(14),
        seed: 7,
        ..Default::default()
    }
}

#[test]
fn converging_solves_are_bit_identical() {
    let mut endings = all_formats(&laplacian_1d(40, 1.0), &opts(1e-3, 40));
    endings.extend(all_formats(&random_general(32, 5), &opts(1e-3, 40)));
    assert!(endings.contains(&Ending::Converged), "{endings:?}");
}

#[test]
fn exhausted_restart_budgets_end_identically() {
    // Two restarts cannot converge a tight tolerance; six rarely do on a
    // general matrix.
    let mut endings = all_formats(&laplacian_1d(40, 1.0), &opts(1e-12, 2));
    endings.extend(all_formats(&random_general(28, 9), &opts(1e-10, 6)));
    assert!(endings.contains(&Ending::NotConverged), "{endings:?}");
}

#[test]
fn overflowing_solves_end_identically() {
    // Entries near float16's and bfloat16's largest values: the SpMV
    // overflows there (non-finite), while posits and takums saturate.
    let mut endings = all_formats(&laplacian_1d(24, 3e4), &opts(1e-3, 10));
    endings.extend(all_formats(&laplacian_1d(24, 1.5e38), &opts(1e-3, 10)));
    assert!(
        endings.contains(&Ending::NonFiniteOrProjection),
        "{endings:?}"
    );
}
