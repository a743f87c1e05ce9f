//! Correctness checks on a grid's outputs, each against a computation made
//! apart from the program or against a property the method must have.
//! Every check failure names one operation (a reference solve or a cell)
//! and counts it as failed.

use lpa_datagen::TestMatrix;
use lpa_experiments::{ExperimentConfig, ExperimentResults, FormatTag, Outcome, Reference};

use crate::eigen;
use crate::formats::{range_verdict, slug, Probe, RangeVerdict};

/// (a): a reference eigenvalue may differ from the benchmark's own `f64`
/// eigenvalue by `REFERENCE_TOL_FACTOR · n · ε · ‖A‖_F`, the backward
/// error bound of Householder reduction plus bisection with room to spare.
const REFERENCE_TOL_FACTOR: f64 = 8.0;

/// (c): bounds on the relative errors of a 64-bit cell. Its tolerance is
/// 1e-12, so a symmetric eigenvalue is good to about that; the bounds
/// leave three orders of magnitude for the eigenvalues and allow
/// eigenvectors the loss a small spectral gap causes.
const EIGENVALUE_BOUND_64: f64 = 1e-9;
const EIGENVECTOR_BOUND_64: f64 = 1e-5;

/// The failed operations a run found, one message each.
#[derive(Default)]
pub struct Failures(pub Vec<String>);

impl Failures {
    pub fn add(&mut self, message: String) {
        eprintln!("gridbench: check failed: {message}");
        self.0.push(message);
    }

    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }
}

/// (a) The reference's eigenvalues agree with eigenvalues computed here in
/// `f64` by Householder reduction and bisection.
pub fn reference_eigenvalues(
    tm: &TestMatrix,
    reference: &Reference,
    cfg: &ExperimentConfig,
    failures: &mut Failures,
) {
    let wanted = cfg.total_pairs();
    let got: Vec<f64> = reference.eigenvalues.iter().map(|v| v.to_f64()).collect();
    if got.len() != wanted {
        failures.add(format!(
            "{}: reference has {} eigenvalues, want {wanted}",
            tm.name,
            got.len()
        ));
        return;
    }
    // One more than wanted, so a magnitude tie at the cut (λ and −λ)
    // matches whichever of the two the solver kept.
    let own = eigen::largest_magnitude(&tm.matrix, wanted + 1);
    let tol = REFERENCE_TOL_FACTOR * tm.n() as f64 * f64::EPSILON * eigen::frobenius(&tm.matrix);
    for (i, &g) in got.iter().enumerate() {
        let by_rank = (g.abs() - own[i].abs()).abs() <= tol;
        let by_value = own.iter().any(|&o| (g - o).abs() <= tol);
        if !(by_rank && by_value) {
            failures.add(format!(
                "{}: reference eigenvalue {i} = {g:e}, independent f64 value {:e} (tol {tol:e})",
                tm.name, own[i]
            ));
            return;
        }
    }
}

/// (b)–(d) on every cell of a grid:
/// (b) `RangeExceeded` exactly when an entry leaves the format's finite
///     non-zero range by its published limits (never for posits/takums);
/// (c) float64, posit64 and takum64 cells converge within fixed bounds;
/// (d) every reported error is finite and non-negative.
pub fn cells(corpus: &[TestMatrix], results: &ExperimentResults, failures: &mut Failures) {
    for row in &results.matrices {
        let Some(tm) = corpus.iter().find(|t| t.name == row.name) else {
            failures.add(format!(
                "{}: result for a matrix outside the corpus",
                row.name
            ));
            continue;
        };
        for (format, outcome) in &row.outcomes {
            if let Some(message) = cell_problem(tm, *format, outcome) {
                failures.add(format!("{} / {}: {message}", tm.name, slug(*format)));
            }
        }
    }
}

fn cell_problem(tm: &TestMatrix, format: FormatTag, outcome: &Outcome) -> Option<String> {
    if outcome.is_ephemeral() {
        return Some(format!("the cell crashed or timed out: {outcome:?}"));
    }
    match (
        range_verdict(&tm.matrix, format),
        outcome.is_range_exceeded(),
    ) {
        (RangeVerdict::Inside, true) => {
            return Some("RangeExceeded with every entry in range".into())
        }
        (RangeVerdict::Outside, false) => {
            return Some(format!("entries out of range, outcome {outcome:?}"))
        }
        _ => {}
    }
    if let Some(e) = outcome.errors() {
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        if !ok(e.eigenvalue_rel) || !ok(e.eigenvector_rel) {
            return Some(format!("errors not finite and non-negative: {e:?}"));
        }
    }
    if format.bits() == 64 {
        match outcome.errors() {
            Some(e)
                if e.eigenvalue_rel <= EIGENVALUE_BOUND_64
                    && e.eigenvector_rel <= EIGENVECTOR_BOUND_64 => {}
            _ => return Some(format!("64-bit cell outside its bounds: {outcome:?}")),
        }
    }
    None
}

/// The session's verdict on which matrices have a reference agrees with
/// the benchmark's own `compute_reference` calls.
pub fn reference_presence(
    results: &ExperimentResults,
    references: &[(String, Option<Reference>)],
    failures: &mut Failures,
) {
    for (name, reference) in references {
        let in_grid = results.matrices.iter().any(|m| &m.name == name);
        let skipped = results.skipped.contains(name);
        if reference.is_some() != in_grid || reference.is_none() != skipped {
            failures.add(format!(
                "{name}: compute_reference {} but the session {}",
                if reference.is_some() {
                    "converged"
                } else {
                    "failed"
                },
                if in_grid {
                    "ran its cells"
                } else {
                    "skipped it"
                }
            ));
        }
    }
}

/// (f) A traced cell agrees with the session: the same outcome from
/// `run_format`, and the direct `partial_schur` call converged exactly
/// when `run_format` reported errors.
pub fn traced_cell(
    matrix: &str,
    format: FormatTag,
    traced: &Outcome,
    session: Option<&Outcome>,
    probe: Probe,
    cfg: &ExperimentConfig,
    failures: &mut Failures,
) {
    let here = format!("{matrix} / {}", slug(format));
    if session != Some(traced) {
        failures.add(format!(
            "{here}: run_format gave {traced:?}, the session {session:?}"
        ));
        return;
    }
    let agrees = match (traced, probe) {
        (Outcome::RangeExceeded, Probe::RangeExceeded) => true,
        (Outcome::Errors(_), Probe::Solved { pairs, .. }) => {
            pairs.min(cfg.total_pairs()) >= cfg.eigenvalue_count
        }
        (Outcome::NotConverged, Probe::Solved { pairs, .. }) => {
            pairs.min(cfg.total_pairs()) < cfg.eigenvalue_count
        }
        (Outcome::NotConverged, Probe::NotConverged { .. } | Probe::Failed) => true,
        _ => false,
    };
    if !agrees {
        failures.add(format!(
            "{here}: partial_schur reported {probe:?}, run_format {traced:?}"
        ));
    }
}
