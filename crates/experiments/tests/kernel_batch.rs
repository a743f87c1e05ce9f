//! End-to-end guard for the element-type choice: a (matrix × format)
//! experiment grid, as [`run_format`] solves it (posits and takums at
//! `Decoded<T>`, float16 and bfloat16 at their own binary32-carrier type),
//! must serialize byte-identically to the same grid with every cell rerun
//! at the other element type of its format — the plain type `T` for the
//! posits and takums, the soft-float reference `Decoded<T>` for float16
//! and bfloat16 — both the JSON serialization of the whole
//! `ExperimentResults` and the `lpa-store` payload encoding of every
//! outcome.
//!
//! This is the proof that the element-type choice needs no
//! [`lpa_experiments::persist::CODE_VERSION_SALT`] bump: artifacts
//! persisted by a run at one element type stay valid at the other, so
//! existing stores warm-start unchanged.
//!
//! The format list spans the 16-bit formats, the 32-bit tapered formats
//! and native float64, which runs at its own type on both sides (the
//! control).

use lpa_arith::{Bf16, Decoded, Posit16, Posit32, Takum16, Takum32, F16};
use lpa_datagen::{general_corpus, CorpusConfig, TestMatrix};
use lpa_experiments::pipeline::run_typed;
use lpa_experiments::{
    compute_reference, persist, run_format, ExperimentConfig, ExperimentPlan, FormatTag, Outcome,
};

/// One cell at the element type `run_format` does not use for its format.
fn other_type_outcome(tm: &TestMatrix, format: FormatTag, cfg: &ExperimentConfig) -> Outcome {
    let reference = compute_reference(&tm.matrix, cfg).expect("the grid kept this matrix");
    let m = &tm.matrix;
    let r = &reference;
    match format {
        FormatTag::Float16 => run_typed::<Decoded<F16>>(m, r, format, cfg),
        FormatTag::Bfloat16 => run_typed::<Decoded<Bf16>>(m, r, format, cfg),
        FormatTag::Posit16 => run_typed::<Posit16>(m, r, format, cfg),
        FormatTag::Takum16 => run_typed::<Takum16>(m, r, format, cfg),
        FormatTag::Posit32 => run_typed::<Posit32>(m, r, format, cfg),
        FormatTag::Takum32 => run_typed::<Takum32>(m, r, format, cfg),
        FormatTag::Float64 => run_format(m, r, format, cfg).outcome,
        other => panic!("{other:?} is not in this grid"),
    }
}

#[test]
fn batch_engine_grid_serializes_identically_to_scalar() {
    let corpus: Vec<TestMatrix> = general_corpus(&CorpusConfig {
        scale: 1,
        size_range: (24, 36),
        ..CorpusConfig::tiny()
    })
    .into_iter()
    .take(4)
    .collect();
    assert!(corpus.len() >= 3, "corpus too small to exercise the grid");
    let formats = [
        FormatTag::Posit32,
        FormatTag::Takum32,
        FormatTag::Posit16,
        FormatTag::Takum16,
        FormatTag::Float16,
        FormatTag::Bfloat16,
        FormatTag::Float64,
    ];
    let cfg = ExperimentConfig {
        eigenvalue_count: 3,
        eigenvalue_buffer_count: 2,
        max_restarts: 40,
        ..Default::default()
    };

    let grid = ExperimentPlan::over(&corpus)
        .formats(&formats)
        .config(cfg.clone())
        .run();
    assert!(!grid.matrices.is_empty(), "every reference solve failed");
    let solved = |f: FormatTag| {
        grid.outcomes_for(f)
            .iter()
            .any(|o| matches!(o, Outcome::Errors(_)))
    };
    assert!(
        solved(FormatTag::Posit32) && solved(FormatTag::Float16),
        "the grid must compare solved cells, not only failures"
    );

    // The same grid, every cell rerun at the other element type.
    let mut rerun = grid.clone();
    for mr in &mut rerun.matrices {
        let tm = corpus
            .iter()
            .find(|tm| tm.name == mr.name)
            .expect("grid row from the corpus");
        for (format, outcome) in &mut mr.outcomes {
            *outcome = other_type_outcome(tm, *format, &cfg);
        }
    }

    // The whole result object, serialization included, must not change.
    let grid_json = serde_json::to_string(&grid).expect("serialize grid results");
    let rerun_json = serde_json::to_string(&rerun).expect("serialize rerun results");
    assert_eq!(
        grid_json, rerun_json,
        "the element type changed experiment results"
    );

    // And neither must the store payload bytes of any outcome: this is the
    // exact encoding persisted under CODE_VERSION_SALT-derived keys.
    for (md, me) in grid.matrices.iter().zip(&rerun.matrices) {
        for ((fd, od), (fe, oe)) in md.outcomes.iter().zip(&me.outcomes) {
            assert_eq!(fd, fe);
            assert_eq!(
                persist::encode_outcome(od),
                persist::encode_outcome(oe),
                "persisted outcome bytes diverged for {} / {:?}",
                md.name,
                fd
            );
        }
    }
}
