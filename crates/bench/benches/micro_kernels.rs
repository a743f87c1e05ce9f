//! Criterion micro-benchmarks of the substrates: per-format scalar
//! arithmetic, sparse matrix-vector products, a full partial Schur solve,
//! the Hungarian matching step, and an end-to-end experiment grid through
//! the `ExperimentPlan` front door.  Dots, SpMVs and solves run at the
//! element type the experiment pipeline solves each format at:
//! `Decoded<T>` for the 16/32/64-bit posits and takums, the format's own
//! type for float16 and bfloat16 (binary32 carrier) and the rest.
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use lpa_arith::types::{
    Bf16, Posit16, Posit32, Posit64, Posit8, Takum16, Takum32, Takum64, Takum8, E4M3, E5M2, F16,
};
use lpa_arith::{Dd, Decoded, Real};
use lpa_arnoldi::{partial_schur, ArnoldiOptions};
use lpa_datagen::general;
use lpa_dense::blas::dot;
use lpa_experiments::{ExperimentConfig, ExperimentPlan, FormatTag};
use lpa_sparse::CsrMatrix;

fn scalar_ops<T: Real>(c: &mut Criterion, label: &str) {
    let xs: Vec<T> = (1..200).map(|i| T::from_f64(0.37 * i as f64 - 19.0)).collect();
    c.bench_function(&format!("scalar/{label}/mul_add_chain"), |b| {
        b.iter(|| {
            let mut acc = T::one();
            for &x in &xs {
                acc = acc * x + T::from_f64(0.5);
            }
            black_box(acc)
        })
    });
    c.bench_function(&format!("scalar/{label}/div_sqrt"), |b| {
        b.iter(|| {
            let mut acc = T::from_f64(2.0);
            for &x in &xs {
                if !x.is_zero() {
                    acc = (acc / x).abs().sqrt() + T::one();
                }
            }
            black_box(acc)
        })
    });
}

fn bench_scalars(c: &mut Criterion) {
    scalar_ops::<f64>(c, "float64");
    scalar_ops::<F16>(c, "float16");
    scalar_ops::<Bf16>(c, "bfloat16");
    scalar_ops::<E4M3>(c, "ofp8_e4m3");
    scalar_ops::<Posit16>(c, "posit16");
    scalar_ops::<Takum16>(c, "takum16");
    scalar_ops::<Posit64>(c, "posit64");
    scalar_ops::<Takum64>(c, "takum64");
    scalar_ops::<Dd>(c, "float128_dd");
}

/// The table-served 8-bit formats against their own soft-float reference
/// path, on the same mul-add chain (acceptance gate: >= 3x speedup,
/// bit-identical results).
fn bench_lut_vs_softfloat(c: &mut Criterion) {
    macro_rules! backend_pair {
        ($t:ty, $label:expr) => {{
            // Operands near one with mixed signs: the chain stays inside
            // even E4M3's [-448, 448] range, so the soft-float baseline does
            // real normalize-and-round work instead of NaN early-outs.
            let xs: Vec<$t> = (1..200)
                .map(|i| <$t>::from_f64((0.55 + (i % 13) as f64 * 0.075) * if i % 2 == 0 { 1.0 } else { -1.0 }))
                .collect();
            let half = <$t>::from_f64(0.5);
            c.bench_function(&format!("scalar/{}/lut/mul_add_chain", $label), |b| {
                b.iter(|| {
                    let mut acc = <$t>::one();
                    for &x in &xs {
                        acc = acc * x + half;
                    }
                    black_box(acc)
                })
            });
            c.bench_function(&format!("scalar/{}/softfloat/mul_add_chain", $label), |b| {
                b.iter(|| {
                    let mut acc = <$t>::one();
                    for &x in &xs {
                        acc = acc.softfloat_mul(x).softfloat_add(half);
                    }
                    black_box(acc)
                })
            });
        }};
    }
    backend_pair!(E4M3, "ofp8_e4m3");
    backend_pair!(E5M2, "ofp8_e5m2");
    backend_pair!(Posit8, "posit8");
    backend_pair!(Takum8, "takum8");
}

/// Dot operands whose 1024-term accumulation stays inside every format's
/// range (alternating signs).
fn dot_operands<T: Real>() -> (Vec<T>, Vec<T>) {
    let n = 1024;
    let x = (0..n)
        .map(|i| T::from_f64((0.6 + (i % 7) as f64 * 0.09) * if i % 2 == 0 { 1.0 } else { -1.0 }))
        .collect();
    let y = (0..n).map(|i| T::from_f64(0.4 + (i % 11) as f64 * 0.07)).collect();
    (x, y)
}

/// The Krylov-shaped kernels — a dot and an SpMV — at `Decoded<T>` (what
/// the solver runs) against the same kernels on the encoded format type
/// (bit-identical results).
fn bench_decoded_vs_encoded(c: &mut Criterion) {
    let a64 = general::laplacian_2d(24, 24, 1.0);
    fn kernels<T: Real>(c: &mut Criterion, a64: &CsrMatrix<f64>, label: &str, kind: &str) {
        let (x, y) = dot_operands::<T>();
        c.bench_function(&format!("dot/{label}/{kind}"), |b| {
            b.iter(|| black_box(dot(black_box(&x), &y)))
        });
        let a: CsrMatrix<T> = a64.convert();
        let xs: Vec<T> = (0..a.ncols()).map(|i| T::from_f64((i % 7) as f64 * 0.1)).collect();
        let mut ys = vec![T::zero(); a.nrows()];
        c.bench_function(&format!("spmv/{label}/{kind}"), |b| {
            b.iter(|| {
                a.spmv(black_box(&xs), &mut ys);
                black_box(&ys);
            })
        });
    }
    fn run<T: lpa_arith::UnpackedReal>(c: &mut Criterion, a64: &CsrMatrix<f64>, label: &str) {
        kernels::<Decoded<T>>(c, a64, label, "decoded");
        kernels::<T>(c, a64, label, "encoded");
    }
    run::<Posit16>(c, &a64, "posit16");
    run::<Takum16>(c, &a64, "takum16");
    run::<Posit32>(c, &a64, "posit32");
    run::<Takum32>(c, &a64, "takum32");
}

/// The disarmed fault-point overhead: a decoded dot preceded by a
/// `solver.stall` point (one relaxed atomic load per call when
/// `LPA_FAULTS` is unset, the cost every Arnoldi restart pays) against the
/// identical dot without the point.
fn bench_fault_point_overhead(c: &mut Criterion) {
    fn run<T: Real>(c: &mut Criterion, label: &str) {
        let (x, y) = dot_operands::<T>();
        c.bench_function(&format!("faults/{label}/dot_with_disarmed_point"), |b| {
            b.iter(|| {
                lpa_faults::stall(lpa_faults::SOLVER_STALL);
                black_box(dot(black_box(&x), &y))
            })
        });
        c.bench_function(&format!("faults/{label}/dot_without_point"), |b| {
            b.iter(|| black_box(dot(black_box(&x), &y)))
        });
    }
    run::<Decoded<Posit32>>(c, "posit32");
    run::<Decoded<Takum32>>(c, "takum32");
}

/// The disarmed tracing-span overhead, same shape as the fault-point pair:
/// a decoded dot inside an `lpa_obs::span` (one relaxed atomic load and a
/// branch while `LPA_OBS` is unset) against the identical dot without the
/// span.
fn bench_obs_span_overhead(c: &mut Criterion) {
    fn run<T: Real>(c: &mut Criterion, label: &str) {
        let (x, y) = dot_operands::<T>();
        c.bench_function(&format!("obs/{label}/dot_with_disarmed_span"), |b| {
            b.iter(|| {
                let _span = lpa_obs::span(lpa_obs::STORE_GET);
                black_box(dot(black_box(&x), &y))
            })
        });
        c.bench_function(&format!("obs/{label}/dot_without_span"), |b| {
            b.iter(|| black_box(dot(black_box(&x), &y)))
        });
    }
    run::<Decoded<Posit32>>(c, "posit32");
    run::<Decoded<Takum32>>(c, "takum32");
}

fn bench_spmv(c: &mut Criterion) {
    let a64 = general::laplacian_2d(24, 24, 1.0);
    fn run<T: Real>(c: &mut Criterion, a64: &CsrMatrix<f64>, label: &str) {
        let a: CsrMatrix<T> = a64.convert();
        let x: Vec<T> = (0..a.ncols()).map(|i| T::from_f64((i % 7) as f64 * 0.1)).collect();
        let mut y = vec![T::zero(); a.nrows()];
        c.bench_function(&format!("spmv/{label}"), |b| {
            b.iter(|| {
                a.spmv(black_box(&x), &mut y);
                black_box(&y);
            })
        });
    }
    run::<f64>(c, &a64, "float64");
    run::<F16>(c, &a64, "float16");
    run::<Bf16>(c, &a64, "bfloat16");
    run::<Decoded<Posit16>>(c, &a64, "posit16");
    run::<Decoded<Takum16>>(c, &a64, "takum16");
    run::<Dd>(c, &a64, "float128_dd");
}

fn bench_arnoldi(c: &mut Criterion) {
    let a64 = general::laplacian_1d(64, 1.0);
    fn run<T: Real>(c: &mut Criterion, a64: &CsrMatrix<f64>, label: &str, tol: f64) {
        let a: CsrMatrix<T> = a64.convert();
        c.bench_function(&format!("partial_schur/{label}"), |b| {
            b.iter(|| {
                let opts = ArnoldiOptions { nev: 6, tol, max_restarts: 50, ..Default::default() };
                black_box(partial_schur(&a, &opts).ok())
            })
        });
    }
    run::<f64>(c, &a64, "float64", 1e-10);
    run::<F16>(c, &a64, "float16", 1e-4);
    run::<Bf16>(c, &a64, "bfloat16", 1e-4);
    run::<Decoded<Posit16>>(c, &a64, "posit16", 1e-4);
    run::<Decoded<Takum16>>(c, &a64, "takum16", 1e-4);
}

/// End-to-end: a miniature (matrix × format) grid through the harness's
/// typed front door — reference solve, conversion, low-precision solve and
/// matching included. Tracks the overhead of the whole session layer, not
/// just the kernels.
fn bench_experiment_grid(c: &mut Criterion) {
    let corpus = vec![
        lpa_datagen::TestMatrix::new(
            "micro/lap1d-28",
            "lap1d",
            lpa_datagen::Source::General,
            general::laplacian_1d(28, 1.0),
        ),
        lpa_datagen::TestMatrix::new(
            "micro/lap2d-6x6",
            "lap2d",
            lpa_datagen::Source::General,
            general::laplacian_2d(6, 6, 1.0),
        ),
    ];
    let formats = [FormatTag::Ofp8E4M3, FormatTag::Takum16];
    let cfg = ExperimentConfig {
        eigenvalue_count: 3,
        eigenvalue_buffer_count: 2,
        max_restarts: 40,
        ..Default::default()
    };
    c.bench_function("experiment/plan_session_grid/2x2", |b| {
        b.iter(|| {
            let results = ExperimentPlan::over(black_box(&corpus))
                .formats(&formats)
                .config(cfg.clone())
                .run();
            black_box(results)
        })
    });
}

fn bench_hungarian(c: &mut Criterion) {
    let n = 12; // eigenvalue_count + buffer of the paper
    let sim: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| if i == j { 0.9 } else { ((i * 7 + j * 13) % 10) as f64 / 100.0 }).collect())
        .collect();
    c.bench_function("hungarian/12x12_similarity", |b| {
        b.iter(|| black_box(lpa_assign::maximize_similarity(black_box(&sim))))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_scalars, bench_lut_vs_softfloat, bench_decoded_vs_encoded, bench_fault_point_overhead, bench_obs_span_overhead, bench_spmv, bench_arnoldi, bench_experiment_grid, bench_hungarian
}
criterion_main!(benches);
