//! The per-matrix experiment pipeline (Section 2.2 of the paper):
//!
//! 1. compute a high-precision reference partial Schur decomposition in
//!    double-double arithmetic (tolerance 1e-20, `nev + buffer` pairs),
//! 2. convert the matrix to the target format (range check → `∞σ`),
//! 3. run the same untailored Krylov–Schur Arnoldi in the target format
//!    (failure → `∞ω`),
//! 4. match computed to reference eigenvectors by absolute cosine similarity
//!    and Hungarian assignment, fix the signs using the largest reference
//!    entry, and
//! 5. report the relative L2 errors of the first `nev` eigenvalues and
//!    eigenvectors.

use lpa_arith::{
    Bf16, Dd, Decoded, Posit16, Posit32, Posit64, Posit8, Real, Takum16, Takum32, Takum64, Takum8,
    E4M3, E5M2, F16,
};
use lpa_arnoldi::{partial_schur, ArnoldiOptions, PartialSchur, Which};
use lpa_assign::maximize_similarity;
use lpa_dense::DMatrix;
use lpa_sparse::{convert_checked, CsrMatrix};
use serde::{Deserialize, Serialize};

use crate::formats::FormatTag;
use crate::outcome::{EigenErrors, Outcome};

/// Parameters of an eigenvalue experiment (the paper's values are the
/// defaults).
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Number of eigenpairs whose errors are reported (the paper uses 10).
    pub eigenvalue_count: usize,
    /// Extra eigenpairs computed as permutation headroom (the paper uses 2).
    pub eigenvalue_buffer_count: usize,
    /// Spectrum target (largest magnitude in all the paper's experiments).
    pub which: Which,
    /// Reference tolerance (1e-20 in the paper).
    pub reference_tol: f64,
    /// Maximum number of restarts per solve.
    pub max_restarts: usize,
    /// Seed of the Arnoldi starting vectors.
    pub seed: u64,
    /// Opt-in wall-clock budget per solve; past it the cell yields
    /// [`Outcome::TimedOut`]. Deliberately **not** part of the persistence
    /// key (`persist::hash_config`): it changes which runs finish, never
    /// what a finished run computes, and timed-out cells are never stored.
    pub cell_deadline: Option<std::time::Duration>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            eigenvalue_count: 10,
            eigenvalue_buffer_count: 2,
            which: Which::LargestMagnitude,
            reference_tol: 1e-20,
            max_restarts: 100,
            seed: 1,
            cell_deadline: None,
        }
    }
}

impl ExperimentConfig {
    pub fn total_pairs(&self) -> usize {
        self.eigenvalue_count + self.eigenvalue_buffer_count
    }

    fn options(&self, tol: f64) -> ArnoldiOptions {
        ArnoldiOptions {
            nev: self.total_pairs(),
            which: self.which,
            tol,
            max_dim: None,
            max_restarts: self.max_restarts,
            seed: self.seed,
            // The budget clock starts when the solve does.
            deadline: self.cell_deadline.map(|d| std::time::Instant::now() + d),
        }
    }
}

/// The reference solution of one matrix: eigenvalues, eigenvectors and the
/// index of the largest-magnitude entry of each eigenvector (the paper's
/// stable sign anchor).
#[derive(Clone, Debug)]
pub struct Reference {
    pub eigenvalues: Vec<Dd>,
    pub eigenvectors: DMatrix<Dd>,
    pub sign_anchor: Vec<usize>,
}

/// Compute the double-double reference solution (`∞ω` if even the reference
/// does not converge, which the driver treats as "skip this matrix", like the
/// paper's preparation step does).
pub fn compute_reference(
    matrix: &CsrMatrix<f64>,
    cfg: &ExperimentConfig,
) -> Result<Reference, lpa_arnoldi::ArnoldiError> {
    // Fault point: an injectable panic at the top of the reference solve,
    // for exercising the driver's per-cell crash isolation.
    lpa_faults::inject_panic(lpa_faults::SOLVER_PANIC);
    let a: CsrMatrix<Dd> = matrix.convert();
    let (ps, _hist) = partial_schur(&a, &cfg.options(cfg.reference_tol))?;
    let (values, vectors) = sorted_pairs(&ps, cfg);
    let sign_anchor = (0..vectors.ncols())
        .map(|j| lpa_dense::blas::iamax(vectors.col(j)))
        .collect();
    Ok(Reference { eigenvalues: values, eigenvectors: vectors, sign_anchor })
}

/// Extract `total_pairs` eigenpairs from a partial Schur decomposition,
/// sorted by decreasing magnitude (the interpretation step for symmetric
/// matrices described in the paper).
fn sorted_pairs<T: Real>(ps: &PartialSchur<T>, cfg: &ExperimentConfig) -> (Vec<Dd>, DMatrix<Dd>) {
    let k = ps.len().min(cfg.total_pairs());
    let mut idx: Vec<usize> = (0..ps.len()).collect();
    idx.sort_by(|&a, &b| {
        let ka = ps.eigenvalues[a].abs();
        let kb = ps.eigenvalues[b].abs();
        kb.partial_cmp(&ka).unwrap_or(core::cmp::Ordering::Equal)
    });
    idx.truncate(k);
    let values: Vec<Dd> = idx.iter().map(|&i| Dd::from_f64(ps.eigenvalues[i].re.to_f64())).collect();
    let n = ps.q.nrows();
    let vectors = DMatrix::<Dd>::from_fn(n, k, |r, c| Dd::from_f64(ps.q[(r, idx[c])].to_f64()));
    (values, vectors)
}

/// Result of evaluating one format on one matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FormatRun {
    pub format: FormatTag,
    pub outcome: Outcome,
}

/// Run the experiment for a single format.
///
/// This is the one format → type table of the pipeline.  The 16/32/64-bit
/// posits and takums run at [`Decoded<T>`] end to end (conversion, solve,
/// pair extraction): bit-identical to `T` op for op, without the per-op
/// decode and encode.  The 8-bit table formats, float16 and bfloat16 (whose
/// ops run on the host's binary32 unit), the native floats and `Dd` run at
/// their own type.
pub fn run_format(
    matrix: &CsrMatrix<f64>,
    reference: &Reference,
    format: FormatTag,
    cfg: &ExperimentConfig,
) -> FormatRun {
    let outcome = match format {
        FormatTag::Ofp8E4M3 => run_typed::<E4M3>(matrix, reference, format, cfg),
        FormatTag::Ofp8E5M2 => run_typed::<E5M2>(matrix, reference, format, cfg),
        FormatTag::Posit8 => run_typed::<Posit8>(matrix, reference, format, cfg),
        FormatTag::Takum8 => run_typed::<Takum8>(matrix, reference, format, cfg),
        FormatTag::Float16 => run_typed::<F16>(matrix, reference, format, cfg),
        FormatTag::Bfloat16 => run_typed::<Bf16>(matrix, reference, format, cfg),
        FormatTag::Posit16 => run_typed::<Decoded<Posit16>>(matrix, reference, format, cfg),
        FormatTag::Takum16 => run_typed::<Decoded<Takum16>>(matrix, reference, format, cfg),
        FormatTag::Float32 => run_typed::<f32>(matrix, reference, format, cfg),
        FormatTag::Posit32 => run_typed::<Decoded<Posit32>>(matrix, reference, format, cfg),
        FormatTag::Takum32 => run_typed::<Decoded<Takum32>>(matrix, reference, format, cfg),
        FormatTag::Float64 => run_typed::<f64>(matrix, reference, format, cfg),
        FormatTag::Posit64 => run_typed::<Decoded<Posit64>>(matrix, reference, format, cfg),
        FormatTag::Takum64 => run_typed::<Decoded<Takum64>>(matrix, reference, format, cfg),
    };
    FormatRun { format, outcome }
}

/// Run the experiment for a single format at the element type `T`.
///
/// [`run_format`] picks `T` for each format; calling this directly with
/// another element type of the same format (say `Posit32` instead of
/// `Decoded<Posit32>`) must give the identical outcome.
pub fn run_typed<T: Real>(
    matrix: &CsrMatrix<f64>,
    reference: &Reference,
    format: FormatTag,
    cfg: &ExperimentConfig,
) -> Outcome {
    // Fault point: an injectable panic at the top of the cell, for
    // exercising the driver's per-cell crash isolation.
    lpa_faults::inject_panic(lpa_faults::SOLVER_PANIC);
    // Step 1: conversion with dynamic-range check (the paper's ∞σ).
    let converted: CsrMatrix<T> = match convert_checked::<f64, T>(matrix) {
        Ok(m) => m,
        Err(_) => return Outcome::RangeExceeded,
    };
    // Step 2: the Arnoldi run itself (failure of any kind is the paper's ∞ω).
    let ps = match partial_schur(&converted, &cfg.options(format.tolerance())) {
        Ok((ps, _hist)) => ps,
        // Running out of wall clock is a fact about this run, not about
        // the cell; the driver keeps it out of the store.
        Err(lpa_arnoldi::ArnoldiError::DeadlineExceeded) => return Outcome::TimedOut,
        Err(_) => return Outcome::NotConverged,
    };
    let (values, vectors) = sorted_pairs(&ps, cfg);
    if values.len() < cfg.eigenvalue_count {
        return Outcome::NotConverged;
    }
    // Step 3: matching, sign fixing, error computation.
    let errors = compare_to_reference(reference, &values, &vectors, cfg);
    Outcome::Errors(errors)
}

/// Absolute cosine similarity matrix between reference and computed
/// eigenvectors (Eq. (2) of the paper), computed in `f64`.
pub fn cosine_similarity_matrix(reference: &DMatrix<Dd>, computed: &DMatrix<Dd>) -> Vec<Vec<f64>> {
    let k_ref = reference.ncols();
    let k_cmp = computed.ncols();
    let norm = |col: &[Dd]| -> f64 { lpa_dense::blas::nrm2(col).to_f64() };
    (0..k_ref)
        .map(|i| {
            (0..k_cmp)
                .map(|j| {
                    let num = lpa_dense::blas::dot(reference.col(i), computed.col(j)).to_f64().abs();
                    let den = norm(reference.col(i)) * norm(computed.col(j));
                    if den == 0.0 {
                        0.0
                    } else {
                        num / den
                    }
                })
                .collect()
        })
        .collect()
}

/// Match computed pairs to the reference (Hungarian on the negated absolute
/// cosine similarity), apply the permutation and sign correction, and return
/// the relative errors over the first `eigenvalue_count` pairs.
pub fn compare_to_reference(
    reference: &Reference,
    values: &[Dd],
    vectors: &DMatrix<Dd>,
    cfg: &ExperimentConfig,
) -> EigenErrors {
    let k = reference.eigenvalues.len().min(values.len());
    // Square similarity matrix over the buffered pair count.
    let sim = {
        let full = cosine_similarity_matrix(&reference.eigenvectors, vectors);
        full.into_iter().take(k).map(|row| row.into_iter().take(k).collect()).collect::<Vec<Vec<f64>>>()
    };
    let perm = maximize_similarity(&sim);

    let nev = cfg.eigenvalue_count.min(k);
    let n = vectors.nrows();

    // Relative L2 error of the eigenvalue vector, in double-double.
    let mut num = Dd::ZERO;
    let mut den = Dd::ZERO;
    for i in 0..nev {
        let d = reference.eigenvalues[i] - values[perm[i]];
        num += d * d;
        den += reference.eigenvalues[i] * reference.eigenvalues[i];
    }
    let value_error = if den.is_zero() {
        num.sqrt().to_f64()
    } else {
        (num.sqrt() / den.sqrt()).to_f64()
    };

    // Relative L2 (Frobenius) error of the eigenvector matrix after
    // permutation and sign correction.
    let mut vnum = Dd::ZERO;
    let mut vden = Dd::ZERO;
    for (i, &p) in perm.iter().enumerate().take(nev) {
        let r = reference.eigenvectors.col(i);
        let c = vectors.col(p);
        let anchor = reference.sign_anchor[i];
        let flip = (r[anchor].to_f64() >= 0.0) != (c[anchor].to_f64() >= 0.0);
        for row in 0..n {
            let cv = if flip { -c[row] } else { c[row] };
            let d = r[row] - cv;
            vnum += d * d;
            vden += r[row] * r[row];
        }
    }
    let vector_error = if vden.is_zero() {
        vnum.sqrt().to_f64()
    } else {
        (vnum.sqrt() / vden.sqrt()).to_f64()
    };

    EigenErrors { eigenvalue_rel: value_error, eigenvector_rel: vector_error }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig { eigenvalue_count: 4, eigenvalue_buffer_count: 2, ..Default::default() }
    }

    #[test]
    fn reference_matches_analytic_spectrum() {
        let a = laplacian_1d(40);
        let cfg = small_cfg();
        let r = compute_reference(&a, &cfg).unwrap();
        assert_eq!(r.eigenvalues.len(), 6);
        for (k, v) in r.eigenvalues.iter().enumerate() {
            let exact = 2.0 - 2.0 * (std::f64::consts::PI * (40 - k) as f64 / 41.0).cos();
            assert!((v.to_f64() - exact).abs() < 1e-12, "{} vs {exact}", v.to_f64());
        }
        assert_eq!(r.sign_anchor.len(), 6);
    }

    #[test]
    fn float64_run_has_tiny_errors() {
        let a = laplacian_1d(40);
        let cfg = small_cfg();
        let r = compute_reference(&a, &cfg).unwrap();
        let run = run_format(&a, &r, FormatTag::Float64, &cfg);
        match run.outcome {
            Outcome::Errors(e) => {
                assert!(e.eigenvalue_rel < 1e-11, "eigenvalue error {}", e.eigenvalue_rel);
                assert!(e.eigenvector_rel < 1e-6, "eigenvector error {}", e.eigenvector_rel);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn low_precision_errors_are_larger_but_finite() {
        let a = laplacian_1d(40);
        let cfg = small_cfg();
        let r = compute_reference(&a, &cfg).unwrap();
        let f64_err = match run_format(&a, &r, FormatTag::Float64, &cfg).outcome {
            Outcome::Errors(e) => e.eigenvalue_rel,
            _ => panic!(),
        };
        for tag in [FormatTag::Float16, FormatTag::Posit16, FormatTag::Takum16] {
            match run_format(&a, &r, tag, &cfg).outcome {
                Outcome::Errors(e) => {
                    assert!(e.eigenvalue_rel.is_finite());
                    assert!(e.eigenvalue_rel > f64_err, "{tag:?}");
                    assert!(e.eigenvalue_rel < 1.0, "{tag:?}: {}", e.eigenvalue_rel);
                }
                Outcome::NotConverged => {} // acceptable for low precision
                other => panic!("{tag:?}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn range_exceeded_is_detected_for_ofp8() {
        // Entries far outside the E4M3 range (max 448).
        let mut t = Vec::new();
        let n = 30;
        for i in 0..n {
            t.push((i, i, 1e6 * (i + 1) as f64));
            if i + 1 < n {
                t.push((i, i + 1, 1.0));
                t.push((i + 1, i, 1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let cfg = small_cfg();
        let r = compute_reference(&a, &cfg).unwrap();
        assert!(matches!(
            run_format(&a, &r, FormatTag::Ofp8E4M3, &cfg).outcome,
            Outcome::RangeExceeded
        ));
        // Posits saturate instead, so they at least attempt the computation.
        assert!(!matches!(
            run_format(&a, &r, FormatTag::Posit8, &cfg).outcome,
            Outcome::RangeExceeded
        ));
    }

    #[test]
    fn permutation_and_sign_matching_fixes_shuffled_vectors() {
        let a = laplacian_1d(30);
        let cfg = small_cfg();
        let r = compute_reference(&a, &cfg).unwrap();
        // Build a "computed" result that is the reference with permuted
        // columns and flipped signs; the matching must undo both.
        let k = r.eigenvalues.len();
        let perm: Vec<usize> = (0..k).rev().collect();
        let values: Vec<Dd> = perm.iter().map(|&i| r.eigenvalues[i]).collect();
        let vectors = DMatrix::<Dd>::from_fn(30, k, |row, col| {
            let src = perm[col];
            let sign = if col % 2 == 0 { -1.0 } else { 1.0 };
            Dd::from_f64(sign * r.eigenvectors[(row, src)].to_f64())
        });
        // Invert: computed column col contains reference column perm[col].
        let errors = compare_to_reference(&r, &values, &vectors, &cfg);
        assert!(errors.eigenvalue_rel < 1e-25, "{}", errors.eigenvalue_rel);
        assert!(errors.eigenvector_rel < 1e-12, "{}", errors.eigenvector_rel);
    }
}
