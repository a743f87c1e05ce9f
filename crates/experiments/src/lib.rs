//! # lpa-experiments — the eigenvalue experiment harness
//!
//! The MuFoLAB-equivalent layer of the reproduction: given a corpus of
//! symmetric test matrices (from `lpa-datagen`) and a set of number formats,
//! it
//!
//! 1. computes a double-double reference partial Schur decomposition per
//!    matrix (tolerance 1e-20),
//! 2. converts the matrix to each target format, classifying dynamic-range
//!    failures as the paper's `∞σ`,
//! 3. runs the identical Krylov–Schur Arnoldi code in the target format,
//!    classifying solver failures as `∞ω`,
//! 4. matches computed to reference eigenvectors with the paper's buffered
//!    absolute-cosine-similarity + Hungarian + sign-anchor scheme, and
//! 5. aggregates relative errors into the cumulative error distributions the
//!    paper plots (Figures 1–5), with CSV output and text summaries.
//!
//! ## One front door
//!
//! Every run is built through the [`ExperimentPlan`] builder and executed by
//! the [`Session`] it resolves into ([`session`] module). A copy-pasteable
//! run, with streamed progress and a persistent store:
//!
//! ```no_run
//! use lpa_datagen::{general_corpus, CorpusConfig};
//! use lpa_experiments::harness::HarnessSettings;
//! use lpa_experiments::{ExperimentConfig, ExperimentPlan, FormatTag, StderrProgress};
//!
//! // Resolved LPA_* environment (CLI flags would outrank it, see `harness`).
//! let settings = HarnessSettings::from_env();
//! let store = settings.open_store(); // Some(_) iff LPA_STORE is set
//! let corpus = general_corpus(&CorpusConfig::tiny());
//! let progress = StderrProgress::new("sweep");
//!
//! let results = ExperimentPlan::over(&corpus)
//!     .formats(&FormatTag::all())
//!     .config(ExperimentConfig::default())
//!     .maybe_store(store.as_ref())
//!     .apply(&settings)      // thread / retry / deadline overrides, if any
//!     .observer(&progress)   // stream per-matrix progress to stderr
//!     .session()
//!     .run();
//! println!("{} matrices, {} skipped", results.matrices.len(), results.skipped.len());
//! ```
//!
//! Results are deterministic and byte-identical for any thread count, store
//! state and observer. With a persistent `lpa-store`
//! attached, every reference solve and outcome is content-addressed and
//! reused across harness runs — see [`persist`] for the key-derivation and
//! salt-bumping policy, and [`harness`] for the one place `LPA_*`
//! environment variables are read.

pub mod formats;
pub mod harness;
pub mod manifest;
pub mod numerics;
pub mod outcome;
pub mod persist;
pub mod pipeline;
pub mod progress;
pub mod report;
pub mod session;

pub use formats::FormatTag;
pub use manifest::{RunManifest, RUN_MANIFEST_SCHEMA};
pub use outcome::{EigenErrors, Outcome};
pub use pipeline::{
    compare_to_reference, compute_reference, cosine_similarity_matrix, run_format,
    ExperimentConfig, Reference,
};
pub use progress::CsvProgress;
pub use report::{
    cumulative_distribution, format_summary_table, log10_clamped, write_figure_csv,
    CumulativeDistribution, Metric,
};
pub use session::{
    ExperimentPlan, ExperimentResults, MatrixResult, ProgressEvent, ProgressObserver, Session,
    StderrProgress,
};
