//! Per-format plumbing: slugs, the format → concrete type dispatch, the
//! formats' published range limits, the first-use arithmetic warm-up and
//! the solver-history probe.

use std::hint::black_box;

use lpa_arith::Real;
use lpa_arnoldi::{partial_schur, ArnoldiError, ArnoldiOptions};
use lpa_experiments::{ExperimentConfig, FormatTag};
use lpa_sparse::{convert_checked, CsrMatrix};

/// Evaluates `$body` with `$t` bound to the concrete scalar type that
/// `$format` names, so generic code runs on a plain type per format.
macro_rules! with_format_type {
    ($format:expr, $t:ident => $body:expr) => {
        match $format {
            FormatTag::Ofp8E4M3 => {
                type $t = lpa_arith::E4M3;
                $body
            }
            FormatTag::Ofp8E5M2 => {
                type $t = lpa_arith::E5M2;
                $body
            }
            FormatTag::Posit8 => {
                type $t = lpa_arith::Posit8;
                $body
            }
            FormatTag::Takum8 => {
                type $t = lpa_arith::Takum8;
                $body
            }
            FormatTag::Float16 => {
                type $t = lpa_arith::F16;
                $body
            }
            FormatTag::Bfloat16 => {
                type $t = lpa_arith::Bf16;
                $body
            }
            FormatTag::Posit16 => {
                type $t = lpa_arith::Posit16;
                $body
            }
            FormatTag::Takum16 => {
                type $t = lpa_arith::Takum16;
                $body
            }
            FormatTag::Float32 => {
                type $t = f32;
                $body
            }
            FormatTag::Posit32 => {
                type $t = lpa_arith::Posit32;
                $body
            }
            FormatTag::Takum32 => {
                type $t = lpa_arith::Takum32;
                $body
            }
            FormatTag::Float64 => {
                type $t = f64;
                $body
            }
            FormatTag::Posit64 => {
                type $t = lpa_arith::Posit64;
                $body
            }
            FormatTag::Takum64 => {
                type $t = lpa_arith::Takum64;
                $body
            }
        }
    };
}

/// The metric-name spelling of a format.
pub fn slug(format: FormatTag) -> &'static str {
    match format {
        FormatTag::Ofp8E4M3 => "ofp8-e4m3",
        FormatTag::Ofp8E5M2 => "ofp8-e5m2",
        FormatTag::Posit8 => "posit8",
        FormatTag::Takum8 => "takum8",
        FormatTag::Float16 => "float16",
        FormatTag::Bfloat16 => "bfloat16",
        FormatTag::Posit16 => "posit16",
        FormatTag::Takum16 => "takum16",
        FormatTag::Float32 => "float32",
        FormatTag::Posit32 => "posit32",
        FormatTag::Takum32 => "takum32",
        FormatTag::Float64 => "float64",
        FormatTag::Posit64 => "posit64",
        FormatTag::Takum64 => "takum64",
    }
}

/// The first arithmetic operations on `format` through [`Real`]: on a
/// fresh process this pays the first-use build of the format's lookup
/// tables. Returns a value so the work is not optimized away.
pub fn first_ops(format: FormatTag) -> f64 {
    with_format_type!(format, T => {
        let a = T::from_f64(black_box(1.5));
        let b = T::from_f64(black_box(-0.375));
        let c = (a + b) * a / b - a;
        (c.abs().sqrt() + T::one()).to_f64()
    })
}

/// Published limits of a format that rounds out-of-range values to zero
/// or infinity (OFP8 and IEEE 754). Posits and takums saturate instead and
/// have none.
struct IeeeLimits {
    /// Largest finite magnitude.
    max: f64,
    /// Significand precision in bits, the hidden bit included.
    precision: i32,
    /// Exponent of the smallest subnormal magnitude, a power of two.
    min_subnormal_exp: i32,
}

fn ieee_limits(format: FormatTag) -> Option<IeeeLimits> {
    let limits = |max: f64, precision, min_subnormal_exp| IeeeLimits {
        max,
        precision,
        min_subnormal_exp,
    };
    match format {
        // OCP 8-bit floating point specification (OFP8), v1.0.
        FormatTag::Ofp8E4M3 => Some(limits(448.0, 4, -9)),
        FormatTag::Ofp8E5M2 => Some(limits(57344.0, 3, -16)),
        // IEEE 754 binary16 and the bfloat16 truncation of binary32.
        FormatTag::Float16 => Some(limits(65504.0, 11, -24)),
        FormatTag::Bfloat16 => Some(limits((2.0 - 2f64.powi(-7)) * 2f64.powi(127), 8, -133)),
        FormatTag::Float32 => Some(limits(3.4028234663852886e38, 24, -149)),
        FormatTag::Float64 => Some(limits(f64::MAX, 53, -1074)),
        _ => None,
    }
}

/// What the published limits say about converting a matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeVerdict {
    /// Every non-zero entry rounds to a finite non-zero value.
    Inside,
    /// Some entry rounds to zero or past the largest finite value.
    Outside,
    /// No entry is outside, but one sits exactly on a rounding tie at a
    /// range edge, where the verdict depends on the tie rule.
    Tie,
}

/// Classify `matrix` against `format`'s finite non-zero range under
/// round-to-nearest: an entry overflows past `max + ulp(max)/2` and
/// flushes to zero below half the smallest subnormal.
pub fn range_verdict(matrix: &CsrMatrix<f64>, format: FormatTag) -> RangeVerdict {
    let Some(limits) = ieee_limits(format) else {
        return RangeVerdict::Inside;
    };
    let emax = limits.max.log2().floor() as i32;
    let overflow = limits.max + 2f64.powi(emax - limits.precision);
    let underflow = 2f64.powi(limits.min_subnormal_exp - 1);
    let mut verdict = RangeVerdict::Inside;
    for &v in matrix.values() {
        let a = v.abs();
        if a == 0.0 {
            continue;
        }
        if a > overflow || a < underflow {
            return RangeVerdict::Outside;
        }
        if a == overflow || a == underflow {
            verdict = RangeVerdict::Tie;
        }
    }
    verdict
}

/// The solver options `run_format` uses for `format`.
pub fn pipeline_options(cfg: &ExperimentConfig, format: FormatTag) -> ArnoldiOptions {
    ArnoldiOptions {
        nev: cfg.total_pairs(),
        which: cfg.which,
        tol: format.tolerance(),
        max_dim: None,
        max_restarts: cfg.max_restarts,
        seed: cfg.seed,
        deadline: None,
    }
}

/// What a direct `partial_schur` call on one cell reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// `convert_checked` rejected the matrix, so no solve ran.
    RangeExceeded,
    /// The solve returned; `pairs` Schur vectors, with its `History`.
    Solved {
        pairs: usize,
        restarts: usize,
        matvecs: usize,
    },
    /// The restart budget ran out (no `History` is returned then).
    NotConverged { restarts: usize },
    /// Any other solver error.
    Failed,
}

/// Run the cell's solve the way the pipeline does — checked conversion,
/// then `partial_schur` on a plain CSR matrix of the format's type — and
/// report its history.
pub fn probe(matrix: &CsrMatrix<f64>, format: FormatTag, cfg: &ExperimentConfig) -> Probe {
    let opts = pipeline_options(cfg, format);
    with_format_type!(format, T => match convert_checked::<f64, T>(matrix) {
        Err(_) => Probe::RangeExceeded,
        Ok(a) => match partial_schur::<T, CsrMatrix<T>>(&a, &opts) {
            Ok((ps, history)) => Probe::Solved {
                pairs: ps.len(),
                restarts: history.restarts,
                matvecs: history.matvecs,
            },
            Err(ArnoldiError::NotConverged { restarts, .. }) => Probe::NotConverged { restarts },
            Err(_) => Probe::Failed,
        },
    })
}
