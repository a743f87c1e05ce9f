//! Cross-crate integration tests: datagen → sparse → arnoldi → experiments,
//! exercised through the facade crate exactly as a downstream user would.

use lp_arnoldi::arith::types::{Posit16, Takum16};
use lp_arnoldi::arith::Decoded;
use lp_arnoldi::datagen::{graph_laplacian_corpus, CorpusConfig, GraphClass};
use lp_arnoldi::experiments::{
    cumulative_distribution, ExperimentConfig, ExperimentPlan, FormatTag, Metric,
};
use lp_arnoldi::sparse::normalized_laplacian;
use lp_arnoldi::{partial_schur, ArnoldiOptions, Real, Which};

#[test]
fn graph_laplacian_eigenvalues_in_low_precision_formats() {
    // Small-world graph -> normalized Laplacian -> largest eigenvalues in two
    // tapered formats; they must agree with float64 to roughly their eps.
    let adj = lp_arnoldi::datagen::graphs::watts_strogatz(72, 3, 0.2, 11);
    let lap = normalized_laplacian(&adj.symmetrize());
    let opts = ArnoldiOptions { nev: 5, which: Which::LargestMagnitude, tol: 1e-10, ..Default::default() };
    let (ps64, _) = partial_schur(&lap, &opts).expect("float64");
    let mut ref_eigs = ps64.real_eigenvalues();
    ref_eigs.sort_by(|a, b| b.partial_cmp(a).unwrap());

    fn largest<T: Real>(lap: &lp_arnoldi::CsrMatrix<f64>) -> f64 {
        let a = lap.convert::<T>();
        let opts = ArnoldiOptions { nev: 5, tol: 1e-4, max_restarts: 80, ..Default::default() };
        let (ps, _) = partial_schur(&a, &opts).expect(T::NAME);
        ps.real_eigenvalues().iter().map(|x| x.to_f64()).fold(f64::MIN, f64::max)
    }
    // The emulated formats solve at `Decoded<T>`, as the pipeline does.
    let p16 = largest::<Decoded<Posit16>>(&lap);
    let t16 = largest::<Decoded<Takum16>>(&lap);
    assert!((p16 - ref_eigs[0]).abs() < 3e-2, "posit16 {p16} vs {}", ref_eigs[0]);
    assert!((t16 - ref_eigs[0]).abs() < 3e-2, "takum16 {t16} vs {}", ref_eigs[0]);
}

#[test]
fn experiment_pipeline_over_a_tiny_graph_class() {
    // One class, three formats, a couple of matrices: the cumulative error
    // distributions must be well formed and float64 must dominate.
    let corpus: Vec<_> = graph_laplacian_corpus(&CorpusConfig {
        scale: 1,
        size_range: (36, 44),
        ..CorpusConfig::tiny()
    })
    .into_iter()
    .filter(|t| t.class() == Some(GraphClass::Infrastructure))
    .take(3)
    .collect();
    assert!(!corpus.is_empty());

    let cfg = ExperimentConfig {
        eigenvalue_count: 5,
        eigenvalue_buffer_count: 2,
        max_restarts: 60,
        ..Default::default()
    };
    let formats = [FormatTag::Float64, FormatTag::Bfloat16, FormatTag::Takum16];
    let results = ExperimentPlan::over(&corpus).formats(&formats).config(cfg).run();
    assert_eq!(results.matrices.len() + results.skipped.len(), corpus.len());

    let d64 = cumulative_distribution(&results, FormatTag::Float64, Metric::Eigenvalues);
    let dt16 = cumulative_distribution(&results, FormatTag::Takum16, Metric::Eigenvalues);
    let dbf = cumulative_distribution(&results, FormatTag::Bfloat16, Metric::Eigenvalues);
    // float64 errors are orders of magnitude below the 16-bit formats'.
    if let (Some(a), Some(b)) = (d64.median_log10(), dt16.median_log10()) {
        assert!(a < b - 3.0, "float64 {a} vs takum16 {b}");
    }
    // Every run is accounted for.
    for d in [&d64, &dt16, &dbf] {
        assert_eq!(d.sorted_errors.len() + d.not_converged + d.range_exceeded, d.total);
    }
}

#[test]
fn matrix_market_roundtrip_through_laplacian_pipeline() {
    // Write an adjacency matrix to Matrix Market, read it back, and run the
    // Laplacian + Arnoldi pipeline on the result.
    let adj = lp_arnoldi::datagen::graphs::ring_with_chords(50, 10, 3);
    let mut buf = Vec::new();
    lp_arnoldi::sparse::write_matrix_market(&adj, &mut buf).unwrap();
    let back: lp_arnoldi::CsrMatrix<f64> = lp_arnoldi::sparse::read_matrix_market(&buf[..]).unwrap();
    assert_eq!(back.nnz(), adj.nnz());
    let lap = normalized_laplacian(&back.symmetrize());
    let opts = ArnoldiOptions { nev: 4, tol: 1e-8, ..Default::default() };
    let (ps, hist) = partial_schur(&lap, &opts).unwrap();
    assert!(hist.converged);
    for e in ps.real_eigenvalues() {
        assert!(e > -1e-9 && e < 2.0 + 1e-9, "normalized Laplacian eigenvalue {e} outside [0,2]");
    }
}

#[test]
fn facade_reexports_are_usable() {
    // The facade exposes the arithmetic directly.
    let x = lp_arnoldi::arith::Takum32::from_f64(0.1);
    let y = lp_arnoldi::arith::Posit32::from_f64(0.1);
    assert!((x.to_f64() - 0.1).abs() < 1e-7);
    assert!((y.to_f64() - 0.1).abs() < 1e-7);
    let d = lp_arnoldi::Dd::from_f64(2.0).sqrt();
    assert!((d.to_f64() - std::f64::consts::SQRT_2).abs() < 1e-15);
}
