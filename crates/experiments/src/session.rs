//! The typed front door of the harness: [`ExperimentPlan`] → [`Session`] →
//! [`ExperimentResults`], with streaming [`ProgressEvent`]s.
//!
//! Every consumer of the experiment grid — the figure/table benches, the
//! `reproduce` binary, the examples, the integration tests — builds its run
//! through an [`ExperimentPlan`]: a builder that collects the corpus, the
//! format list, the [`ExperimentConfig`], an optional persistent
//! [`Store`] and an optional thread budget, and resolves into a
//! [`Session`] whose [`Session::run`] produces exactly the same
//! byte-identical, thread-count-independent [`ExperimentResults`] the old
//! free functions did.
//!
//! ```no_run
//! use lpa_datagen::{general_corpus, CorpusConfig};
//! use lpa_experiments::{ExperimentConfig, ExperimentPlan, FormatTag, StderrProgress};
//!
//! let corpus = general_corpus(&CorpusConfig::tiny());
//! let progress = StderrProgress::new("demo");
//! let results = ExperimentPlan::over(&corpus)
//!     .formats(&FormatTag::all())
//!     .config(ExperimentConfig::default())
//!     .threads(4)
//!     .observer(&progress)
//!     .session()
//!     .run();
//! println!("{} matrices, {} skipped", results.matrices.len(), results.skipped.len());
//! ```
//!
//! ## Progress events
//!
//! A [`ProgressObserver`] registered on the plan receives one event stream
//! per run: grid start, per-matrix reference solves (with a served-from-store
//! flag), skipped matrices, per-(matrix, format) outcomes (computed vs store
//! hit), and a final grid summary. Long runs can stream logs, progress bars
//! or incremental CSV instead of being silent for the whole sweep.
//!
//! Observers never affect the computation: results are byte-identical with
//! or without one. Event *order* is deterministic too — worker threads hand
//! their events to a sequencer that releases them in corpus/grid order, so
//! the stream for a given plan is identical for any thread count
//! (test-enforced by `tests/session_api.rs`). Callbacks run under the
//! sequencer lock, so an observer must not call back into the session and
//! should return quickly.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use lpa_datagen::TestMatrix;
use lpa_store::{ArtifactKind, Store};

use serde::Value;

use crate::formats::FormatTag;
use crate::manifest::{RunManifest, RUN_MANIFEST_SCHEMA};
use crate::outcome::Outcome;
use crate::persist;
use crate::pipeline::{compute_reference, run_format, ExperimentConfig, Reference};

/// All results for one matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MatrixResult {
    pub name: String,
    pub category: String,
    pub n: usize,
    pub nnz: usize,
    /// One outcome per requested format, in the same order as the plan's
    /// format list.
    pub outcomes: Vec<(FormatTag, Outcome)>,
}

/// Results of a whole experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentResults {
    pub formats: Vec<FormatTag>,
    pub matrices: Vec<MatrixResult>,
    /// Matrices skipped because even the double-double reference failed to
    /// converge (mirrors the paper's preparation step discarding such cases).
    pub skipped: Vec<String>,
    /// Matrices dropped because their reference solve crashed or timed out
    /// this run. Unlike `skipped` this is a per-run accident, not a fact
    /// about the matrix: nothing is persisted and a rerun retries them.
    pub crashed: Vec<String>,
}

impl ExperimentResults {
    /// Number of (matrix, format) cells whose outcome is a per-run failure
    /// ([`Outcome::Crashed`] or [`Outcome::TimedOut`]).
    pub fn crashed_cells(&self) -> usize {
        self.matrices
            .iter()
            .flat_map(|m| m.outcomes.iter())
            .filter(|(_, o)| o.is_ephemeral())
            .count()
    }

    /// True when this run completed with isolated failures: results are
    /// usable but incomplete, and a rerun will retry the failed cells.
    pub fn is_degraded(&self) -> bool {
        !self.crashed.is_empty() || self.crashed_cells() > 0
    }

    /// All outcomes of one format across the corpus.
    ///
    /// The session stores each matrix's outcomes in the experiment's format
    /// order, so the format's position in `self.formats` indexes every row
    /// directly — no per-matrix linear scan over the format list. Rows that
    /// don't follow that order (hand-assembled results) fall back to a scan.
    pub fn outcomes_for(&self, format: FormatTag) -> Vec<Outcome> {
        let Some(idx) = self.formats.iter().position(|&f| f == format) else {
            return Vec::new();
        };
        self.matrices
            .iter()
            .filter_map(|m| match m.outcomes.get(idx) {
                Some((f, o)) if *f == format => Some(o.clone()),
                _ => m.outcomes.iter().find(|(f, _)| *f == format).map(|(_, o)| o.clone()),
            })
            .collect()
    }
}

/// One progress event of a running [`Session`] (see the module docs for
/// ordering guarantees).
#[derive(Clone, Debug, PartialEq)]
pub enum ProgressEvent {
    /// The grid is about to run: `matrices × formats` jobs at most.
    GridStarted { matrices: usize, formats: usize },
    /// The reference solve of matrix `index` began resolving (lookup or
    /// double-double solve).
    ReferenceStarted { index: usize, matrix: String },
    /// The reference of matrix `index` is available; `from_store` says it
    /// was served from the persistent store instead of being computed.
    ReferenceComputed { index: usize, matrix: String, from_store: bool },
    /// Matrix `index` is skipped: even the double-double reference failed
    /// to converge (the paper's preparation step discards such cases).
    MatrixSkipped { index: usize, matrix: String },
    /// The outcome of (matrix `index`, `format`) is available; `from_store`
    /// distinguishes a store hit from a fresh solve.
    OutcomeComputed { index: usize, matrix: String, format: FormatTag, from_store: bool },
    /// A cell crashed or timed out and was isolated: the grid continues
    /// degraded. `format: None` means the matrix's *reference* solve failed
    /// (every cell of that matrix is lost this run); `Some(f)` is a single
    /// (matrix, format) cell. Emitted *instead of* the corresponding
    /// `ReferenceComputed`/`MatrixSkipped`/`OutcomeComputed` event.
    CellFailed { index: usize, matrix: String, format: Option<FormatTag>, reason: String },
    /// The whole grid finished and results are assembled.
    GridFinished { matrices: usize, skipped: usize, outcomes: usize },
}

/// Receives the [`ProgressEvent`] stream of a running [`Session`].
///
/// Implementations must be `Sync` — events originate on worker threads —
/// and cheap: callbacks run under the event sequencer's lock (that is what
/// makes the stream order deterministic), so a slow observer stalls
/// delivery, and re-entering the session from a callback deadlocks.
pub trait ProgressObserver: Sync {
    fn on_event(&self, event: &ProgressEvent);
}

/// A ready-made [`ProgressObserver`] that streams compact per-reference
/// progress lines (and a final summary) to stderr — stdout stays reserved
/// for the harnesses' machine-readable output.
pub struct StderrProgress {
    label: String,
    total: std::sync::atomic::AtomicUsize,
    seen: std::sync::atomic::AtomicUsize,
    outcome_hits: std::sync::atomic::AtomicUsize,
}

impl StderrProgress {
    pub fn new(label: impl Into<String>) -> StderrProgress {
        StderrProgress {
            label: label.into(),
            total: Default::default(),
            seen: Default::default(),
            outcome_hits: Default::default(),
        }
    }
}

impl ProgressObserver for StderrProgress {
    fn on_event(&self, event: &ProgressEvent) {
        use std::sync::atomic::Ordering::Relaxed;
        match event {
            ProgressEvent::GridStarted { matrices, formats } => {
                // A new grid resets the counters: one observer may be
                // reused across several sessions.
                self.total.store(*matrices, Relaxed);
                self.seen.store(0, Relaxed);
                self.outcome_hits.store(0, Relaxed);
                eprintln!("[{}] grid started: {matrices} matrices x {formats} formats", self.label);
            }
            ProgressEvent::ReferenceComputed { matrix, from_store, .. } => {
                let seen = self.seen.fetch_add(1, Relaxed) + 1;
                let total = self.total.load(Relaxed);
                let how = if *from_store { "store" } else { "solved" };
                eprintln!("[{}] reference {seen}/{total} {matrix} ({how})", self.label);
            }
            ProgressEvent::MatrixSkipped { matrix, .. } => {
                let seen = self.seen.fetch_add(1, Relaxed) + 1;
                let total = self.total.load(Relaxed);
                eprintln!(
                    "[{}] reference {seen}/{total} {matrix} (skipped: reference failed)",
                    self.label
                );
            }
            ProgressEvent::OutcomeComputed { from_store: true, .. } => {
                self.outcome_hits.fetch_add(1, Relaxed);
            }
            ProgressEvent::CellFailed { matrix, format, reason, .. } => match format {
                Some(f) => {
                    eprintln!("[{}] cell FAILED {matrix} {f:?}: {reason}", self.label);
                }
                None => {
                    let seen = self.seen.fetch_add(1, Relaxed) + 1;
                    let total = self.total.load(Relaxed);
                    eprintln!(
                        "[{}] reference {seen}/{total} {matrix} FAILED: {reason}",
                        self.label
                    );
                }
            },
            ProgressEvent::GridFinished { matrices, skipped, outcomes } => {
                eprintln!(
                    "[{}] grid finished: {matrices} matrices, {skipped} skipped, {outcomes} outcomes ({} from store)",
                    self.label,
                    self.outcome_hits.load(Relaxed)
                );
            }
            _ => {}
        }
    }
}

/// Builder for one experiment run: the single front door of the harness.
///
/// Knobs, in the order long runs usually set them: corpus → formats →
/// [`ExperimentConfig`] → persistent store → thread budget → progress
/// observer. Every knob except the corpus has a default (all 14 formats,
/// the paper's config, no store, the ambient thread count, no observer).
#[derive(Clone)]
pub struct ExperimentPlan<'a> {
    corpus: &'a [TestMatrix],
    formats: Vec<FormatTag>,
    config: ExperimentConfig,
    store: Option<&'a Store>,
    threads: Option<usize>,
    retry: Option<u32>,
    cell_deadline: Option<Duration>,
    observability: Option<bool>,
    manifest_out: Option<PathBuf>,
    observer: Option<&'a dyn ProgressObserver>,
}

impl<'a> ExperimentPlan<'a> {
    /// Start a plan over a corpus of test matrices.
    pub fn over(corpus: &'a [TestMatrix]) -> ExperimentPlan<'a> {
        ExperimentPlan {
            corpus,
            formats: FormatTag::all(),
            config: ExperimentConfig::default(),
            store: None,
            threads: None,
            retry: None,
            cell_deadline: None,
            observability: None,
            manifest_out: None,
            observer: None,
        }
    }

    /// The number formats to run (default: all 14 of the paper).
    pub fn formats(mut self, formats: &[FormatTag]) -> Self {
        self.formats = formats.to_vec();
        self
    }

    /// The solver/matching parameters (default: [`ExperimentConfig::default`]).
    pub fn config(mut self, config: ExperimentConfig) -> Self {
        self.config = config;
        self
    }

    /// Back the run with a persistent artifact store: every reference and
    /// outcome is looked up before being computed, and computed results are
    /// persisted (warm starts, resumable runs, cross-process sharing).
    pub fn store(self, store: &'a Store) -> Self {
        self.maybe_store(Some(store))
    }

    /// [`ExperimentPlan::store`] with an optional handle, for call sites
    /// whose store is itself configured (`LPA_STORE`, `--store`).
    pub fn maybe_store(mut self, store: Option<&'a Store>) -> Self {
        self.store = store;
        self
    }

    /// Cap the run at `n` worker threads (default: `RAYON_NUM_THREADS`,
    /// else all cores). Results are byte-identical for any value.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Retry budget for transient store I/O failures (reads and writes
    /// retried with exponential backoff; default: the store's own default
    /// of 2). Only meaningful when a store is attached; restored to the
    /// store's previous budget when the run ends.
    pub fn retry(mut self, retries: u32) -> Self {
        self.retry = Some(retries);
        self
    }

    /// Opt-in wall-clock budget per solve (default: off). A cell past its
    /// deadline yields [`Outcome::TimedOut`] — reported, **never
    /// persisted** — at Arnoldi-expansion-step granularity, so the grid
    /// survives pathological cells without losing cache validity.
    pub fn cell_deadline(mut self, deadline: Duration) -> Self {
        self.cell_deadline = Some(deadline);
        self
    }

    /// Arm (or disarm) the `lpa-obs` tracing spans for the duration of the
    /// run (default: the ambient gate — `LPA_OBS` or disarmed), with the
    /// previous state restored when the run ends, like
    /// [`ExperimentPlan::retry`]. Spans never affect computed results;
    /// this only selects whether the session records them.
    pub fn observability(mut self, armed: bool) -> Self {
        self.observability = Some(armed);
        self
    }

    /// Write the run's `run_manifest/v2` JSON artifact to `path` when the
    /// session finishes (default: no artifact). The manifest is also
    /// returned by [`Session::run_with_manifest`] regardless of this knob.
    pub fn manifest_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.manifest_out = Some(path.into());
        self
    }

    /// Stream [`ProgressEvent`]s of the run to `observer`.
    pub fn observer(mut self, observer: &'a dyn ProgressObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Apply resolved harness settings (the CLI > environment > default
    /// layer, see [`crate::harness`]) to the plan's knobs.
    /// The store is I/O and stays explicit: open it with
    /// [`crate::harness::HarnessSettings::open_store`] and pass it to
    /// [`ExperimentPlan::maybe_store`].
    pub fn apply(mut self, settings: &crate::harness::HarnessSettings) -> Self {
        if let Some(threads) = settings.threads {
            self = self.threads(threads);
        }
        if let Some(retries) = settings.retry {
            self = self.retry(retries);
        }
        if let Some(deadline) = settings.cell_deadline {
            self = self.cell_deadline(deadline);
        }
        if let Some(armed) = settings.observability {
            self = self.observability(armed);
        }
        if let Some(path) = &settings.manifest_out {
            self = self.manifest_out(path.clone());
        }
        self
    }

    /// Resolve the plan into a runnable [`Session`].
    pub fn session(self) -> Session<'a> {
        Session { plan: self }
    }

    /// Shorthand for `.session().run()`.
    pub fn run(self) -> ExperimentResults {
        self.session().run()
    }
}

/// A resolved, runnable experiment: produced by [`ExperimentPlan::session`].
pub struct Session<'a> {
    plan: ExperimentPlan<'a>,
}

impl Session<'_> {
    /// The formats this session will run.
    pub fn formats(&self) -> &[FormatTag] {
        &self.plan.formats
    }

    /// The solver/matching configuration this session will run with.
    pub fn config(&self) -> &ExperimentConfig {
        &self.plan.config
    }

    /// The worker-thread budget the grid will use.
    pub fn threads(&self) -> usize {
        self.plan.threads.unwrap_or_else(rayon::current_num_threads)
    }

    /// Run the whole (matrix × format) grid.
    ///
    /// The fan-out is the two-stage one the free functions used: one
    /// double-double reference solve per matrix (computed once and shared
    /// by every format run of that matrix), then the flattened grid of
    /// per-format runs over all matrices whose reference converged. Every
    /// run is deterministic (the Arnoldi starting vector comes from a
    /// per-run seeded RNG) and results are reassembled in corpus order, so
    /// the output — including its serialization — is identical for any
    /// thread count, store state and observer.
    ///
    /// When [`ExperimentPlan::manifest_out`] is set, the run's
    /// `run_manifest/v2` artifact is written there before returning.
    pub fn run(&self) -> ExperimentResults {
        self.run_with_manifest().0
    }

    /// [`Session::run`], also returning the run's manifest (written to the
    /// plan's `manifest_out` path too, when one is set).
    pub fn run_with_manifest(&self) -> (ExperimentResults, RunManifest) {
        let (results, manifest) = self.run_inner();
        if let Some(path) = &self.plan.manifest_out {
            manifest
                .write(path)
                .unwrap_or_else(|e| panic!("manifest {}: {e}", path.display()));
        }
        (results, manifest)
    }

    fn run_inner(&self) -> (ExperimentResults, RunManifest) {
        // Restore guards, outermost first: the obs gate (span recording)
        // is process-global and the retry budget lives on the shared store
        // handle; both are scoped to this run.
        let _obs = self.plan.observability.map(ObsGuard::force);
        let _retry = match (self.plan.retry, self.plan.store) {
            (Some(retries), Some(store)) => Some(RetryGuard::set(store, retries)),
            _ => None,
        };
        // Pre-run snapshots, so the manifest reports this run's deltas
        // rather than process-lifetime totals.
        let store_before = self.plan.store.map(|s| s.stats().registry().counters_snapshot());
        let spans_before = lpa_obs::span::aggregates();
        let started = Instant::now();
        let grid = match self.plan.threads {
            Some(n) => rayon::with_num_threads(n, || self.run_grid()),
            None => self.run_grid(),
        };
        let wall_ns = started.elapsed().as_nanos() as u64;
        let manifest = self.build_manifest(&grid, wall_ns, store_before, spans_before);
        (grid.results, manifest)
    }

    fn run_grid(&self) -> GridRun {
        let corpus = self.plan.corpus;
        let formats = self.formats();
        // The plan-level deadline overrides the config's own (both are
        // run-scoped knobs; neither enters the persistence key).
        let mut cfg = self.config().clone();
        cfg.cell_deadline = self.plan.cell_deadline.or(cfg.cell_deadline);
        let cfg = &cfg;
        let store = self.plan.store;
        let observer = self.plan.observer;

        emit(
            observer,
            || ProgressEvent::GridStarted { matrices: corpus.len(), formats: formats.len() },
        );

        // Stage 1: one reference per matrix, fanned out over the corpus.
        let slots: Vec<usize> = (0..corpus.len()).collect();
        let sequencer = Sequencer::new(observer);
        let references: Vec<(Result<Option<Reference>, CellError>, bool, u64)> = slots
            .par_iter()
            .map(|&i| {
                let tm = &corpus[i];
                let started = Instant::now();
                let (reference, from_store) = {
                    let _span = lpa_obs::span(lpa_obs::REFERENCE_SOLVE);
                    resolve_reference(tm, cfg, store)
                };
                let wall_ns = started.elapsed().as_nanos() as u64;
                sequencer.submit(i, |events| {
                    events.push(ProgressEvent::ReferenceStarted { index: i, matrix: tm.name.clone() });
                    events.push(match &reference {
                        Ok(Some(_)) => ProgressEvent::ReferenceComputed {
                            index: i,
                            matrix: tm.name.clone(),
                            from_store,
                        },
                        Ok(None) => {
                            ProgressEvent::MatrixSkipped { index: i, matrix: tm.name.clone() }
                        }
                        Err(e) => ProgressEvent::CellFailed {
                            index: i,
                            matrix: tm.name.clone(),
                            format: None,
                            reason: e.describe(),
                        },
                    });
                });
                (reference, from_store, wall_ns)
            })
            .collect();

        // Stage 2: the flattened (kept matrix × format) grid, which
        // load-balances far better than one task per matrix (a takum8 LUT
        // run and a posit64 soft-float run differ by orders of magnitude).
        let jobs: Vec<(usize, FormatTag)> = corpus
            .iter()
            .enumerate()
            .filter(|(i, _)| matches!(references[*i].0, Ok(Some(_))))
            .flat_map(|(i, _)| formats.iter().map(move |&f| (i, f)))
            .collect();
        let slots: Vec<usize> = (0..jobs.len()).collect();
        let sequencer = Sequencer::new(observer);
        let outcomes: Vec<(Outcome, bool, u64)> = slots
            .par_iter()
            .map(|&slot| {
                let (i, f) = jobs[slot];
                let reference = match &references[i].0 {
                    Ok(Some(r)) => r,
                    _ => unreachable!("only solved matrices are in the grid"),
                };
                let started = Instant::now();
                let (outcome, from_store) = {
                    let _span = lpa_obs::span(lpa_obs::CELL_SOLVE);
                    resolve_outcome(&corpus[i], reference, f, cfg, store)
                };
                let wall_ns = started.elapsed().as_nanos() as u64;
                sequencer.submit(slot, |events| {
                    events.push(match &outcome {
                        Outcome::Crashed { reason } => ProgressEvent::CellFailed {
                            index: i,
                            matrix: corpus[i].name.clone(),
                            format: Some(f),
                            reason: reason.clone(),
                        },
                        Outcome::TimedOut => ProgressEvent::CellFailed {
                            index: i,
                            matrix: corpus[i].name.clone(),
                            format: Some(f),
                            reason: "cell deadline exceeded".to_string(),
                        },
                        _ => ProgressEvent::OutcomeComputed {
                            index: i,
                            matrix: corpus[i].name.clone(),
                            format: f,
                            from_store,
                        },
                    });
                });
                (outcome, from_store, wall_ns)
            })
            .collect();

        // Reassemble in corpus order: jobs were generated matrix-major, so
        // the outcomes of each kept matrix form one contiguous chunk. The
        // per-reference/per-cell manifest records are built in the same
        // deterministic order (corpus order; cells matrix-major in plan
        // format order).
        let mut matrices = Vec::new();
        let mut skipped = Vec::new();
        let mut crashed = Vec::new();
        let mut ref_records = Vec::with_capacity(corpus.len());
        let mut chunks = outcomes.chunks_exact(formats.len().max(1));
        for (tm, (reference, from_store, wall_ns)) in corpus.iter().zip(&references) {
            let status = match reference {
                Ok(Some(_)) => "solved",
                Ok(None) => "skipped",
                Err(CellError::Crashed(_)) => "crashed",
                Err(CellError::TimedOut) => "timed-out",
            };
            ref_records.push(RefRecord {
                matrix: tm.name.clone(),
                status,
                from_store: *from_store,
                wall_ns: *wall_ns,
            });
            match reference {
                Ok(Some(_)) => {}
                Ok(None) => {
                    skipped.push(tm.name.clone());
                    continue;
                }
                Err(_) => {
                    crashed.push(tm.name.clone());
                    continue;
                }
            }
            let chunk = if formats.is_empty() {
                &[][..]
            } else {
                chunks.next().expect("one outcome chunk per kept matrix")
            };
            matrices.push(MatrixResult {
                name: tm.name.clone(),
                category: tm.category.clone(),
                n: tm.n(),
                nnz: tm.nnz(),
                outcomes: formats
                    .iter()
                    .copied()
                    .zip(chunk.iter().map(|(o, _, _)| o.clone()))
                    .collect(),
            });
        }
        let cell_records = jobs
            .iter()
            .zip(&outcomes)
            .map(|(&(i, f), (outcome, from_store, wall_ns))| CellRecord {
                matrix: corpus[i].name.clone(),
                format: f,
                outcome: outcome.label(),
                from_store: *from_store,
                wall_ns: *wall_ns,
            })
            .collect();
        emit(
            observer,
            || ProgressEvent::GridFinished {
                matrices: matrices.len(),
                skipped: skipped.len(),
                outcomes: outcomes.len(),
            },
        );
        GridRun {
            results: ExperimentResults { formats: formats.to_vec(), matrices, skipped, crashed },
            references: ref_records,
            cells: cell_records,
        }
    }

    /// Assemble the `run_manifest/v2` tree (layout: [`crate::manifest`]).
    ///
    /// The session counters are tallied here from the grid's own records
    /// and the *same values* are added to the process-global `lpa-obs`
    /// registry — one code path, so the registry delta and the manifest's
    /// `session` section agree by construction.
    fn build_manifest(
        &self,
        grid: &GridRun,
        wall_ns: u64,
        store_before: Option<Vec<(String, u64)>>,
        spans_before: Vec<lpa_obs::SpanAggregate>,
    ) -> RunManifest {
        let cfg = self.config();
        let plan = Value::Map(vec![
            (
                "formats".to_string(),
                Value::Seq(self.plan.formats.iter().map(Serialize::to_value).collect()),
            ),
            (
                "config".to_string(),
                Value::Map(vec![
                    ("eigenvalue_count".to_string(), Value::Num(cfg.eigenvalue_count as f64)),
                    (
                        "eigenvalue_buffer_count".to_string(),
                        Value::Num(cfg.eigenvalue_buffer_count as f64),
                    ),
                    ("which".to_string(), Value::Str(format!("{:?}", cfg.which))),
                    ("reference_tol".to_string(), Value::Num(cfg.reference_tol)),
                    ("max_restarts".to_string(), Value::Num(cfg.max_restarts as f64)),
                    ("seed".to_string(), Value::Num(cfg.seed as f64)),
                ]),
            ),
            ("corpus".to_string(), Value::Num(self.plan.corpus.len() as f64)),
            (
                "faults".to_string(),
                Value::Str(lpa_faults::active_spec().unwrap_or_else(|| "disarmed".to_string())),
            ),
            (
                // The effective numerics table (builtin plus any
                // LPA_NUMERICS_BUMP override) — the thing artifact
                // addresses hash per-slice views of.
                "numerics".to_string(),
                Value::Map(
                    crate::numerics::checked_current()
                        .to_pairs()
                        .into_iter()
                        .map(|(name, version)| (name.to_string(), Value::UInt(u64::from(version))))
                        .collect(),
                ),
            ),
        ]);

        // Session counters: tallied from the records, then added to the
        // global registry (always, so the counter names register even at
        // zero) and rendered into the manifest.
        let mut reference_computed = 0u64;
        let mut reference_hit = 0u64;
        let mut reference_skipped = 0u64;
        let mut reference_lost = 0u64;
        for r in &grid.references {
            match r.status {
                "crashed" | "timed-out" => reference_lost += 1,
                "skipped" => reference_skipped += 1,
                _ if r.from_store => reference_hit += 1,
                _ => reference_computed += 1,
            }
        }
        let mut cell_computed = 0u64;
        let mut cell_hit = 0u64;
        let mut cell_crashed = 0u64;
        let mut cell_timed_out = 0u64;
        for c in &grid.cells {
            match c.outcome {
                "crashed" => cell_crashed += 1,
                "timed-out" => cell_timed_out += 1,
                _ if c.from_store => cell_hit += 1,
                _ => cell_computed += 1,
            }
        }
        let session_counters: Vec<(String, u64)> = [
            ("session.reference.computed", reference_computed),
            ("session.reference.hit", reference_hit),
            ("session.reference.skipped", reference_skipped),
            ("session.reference.lost", reference_lost),
            ("session.cell.computed", cell_computed),
            ("session.cell.hit", cell_hit),
            ("session.cell.crashed", cell_crashed),
            ("session.cell.timed_out", cell_timed_out),
        ]
        .into_iter()
        .map(|(name, value)| {
            lpa_obs::global().counter(name).add(value);
            (name.to_string(), value)
        })
        .collect();

        // Store counters: this run's delta over the pre-run snapshot.
        let store_section = match (store_before, self.plan.store) {
            (Some(before), Some(s)) => {
                let before: BTreeMap<String, u64> = before.into_iter().collect();
                let deltas: Vec<(String, u64)> = s
                    .stats()
                    .registry()
                    .counters_snapshot()
                    .into_iter()
                    .map(|(name, after)| {
                        let base = before.get(&name).copied().unwrap_or(0);
                        (name, after - base)
                    })
                    .collect();
                lpa_obs::counters_value(&deltas)
            }
            _ => Value::Null,
        };

        // Span aggregates: count/total deltas over the pre-run snapshot
        // (exact even when other spans ran earlier in the process); max_ns
        // is the running maximum. Names untouched by this run are skipped.
        // A `span::reset()` during the run makes an aggregate fall below
        // its snapshot; then only the post-reset total is this run's.
        let before: BTreeMap<&str, (u64, u64)> =
            spans_before.iter().map(|a| (a.name, (a.count, a.total_ns))).collect();
        let spans: Vec<Value> = lpa_obs::span::aggregates()
            .iter()
            .filter_map(|a| {
                let (base_count, base_total) = before.get(a.name).copied().unwrap_or((0, 0));
                let (count, total_ns) = match a.count.checked_sub(base_count) {
                    Some(count) => (count, a.total_ns.saturating_sub(base_total)),
                    None => (a.count, a.total_ns),
                };
                if count == 0 {
                    return None;
                }
                Some(Value::Map(vec![
                    ("name".to_string(), Value::Str(a.name.to_string())),
                    ("count".to_string(), Value::Num(count as f64)),
                    ("total_ns".to_string(), Value::Num(total_ns as f64)),
                    ("max_ns".to_string(), Value::Num(a.max_ns as f64)),
                ]))
            })
            .collect();

        let ms = |ns: u64| Value::Num(ns as f64 / 1e6);
        let references: Vec<Value> = grid
            .references
            .iter()
            .map(|r| {
                Value::Map(vec![
                    ("matrix".to_string(), Value::Str(r.matrix.clone())),
                    ("status".to_string(), Value::Str(r.status.to_string())),
                    ("from_store".to_string(), Value::Bool(r.from_store)),
                    ("wall_ms".to_string(), ms(r.wall_ns)),
                ])
            })
            .collect();
        let cells: Vec<Value> = grid
            .cells
            .iter()
            .map(|c| {
                Value::Map(vec![
                    ("matrix".to_string(), Value::Str(c.matrix.clone())),
                    ("format".to_string(), c.format.to_value()),
                    ("outcome".to_string(), Value::Str(c.outcome.to_string())),
                    ("from_store".to_string(), Value::Bool(c.from_store)),
                    ("wall_ms".to_string(), ms(c.wall_ns)),
                ])
            })
            .collect();

        // Knob provenance is read while the run's restore guards are still
        // alive, so the manifest reports the *effective* span gate.
        let run = Value::Map(vec![
            ("threads".to_string(), Value::Num(self.threads() as f64)),
            (
                "retry".to_string(),
                self.plan.retry.map_or(Value::Null, |r| Value::Num(r as f64)),
            ),
            (
                "cell_deadline_ms".to_string(),
                self.plan
                    .cell_deadline
                    .or(cfg.cell_deadline)
                    .map_or(Value::Null, |d| Value::Num(d.as_millis() as f64)),
            ),
            ("observability".to_string(), Value::Str(lpa_obs::state_name().to_string())),
            ("wall_ms".to_string(), ms(wall_ns)),
            ("references".to_string(), Value::Seq(references)),
            ("cells".to_string(), Value::Seq(cells)),
            ("store".to_string(), store_section),
            ("session".to_string(), lpa_obs::counters_value(&session_counters)),
            ("spans".to_string(), Value::Seq(spans)),
        ]);

        RunManifest::new(Value::Map(vec![
            ("schema".to_string(), Value::Str(RUN_MANIFEST_SCHEMA.to_string())),
            ("plan".to_string(), plan),
            ("grid".to_string(), Serialize::to_value(&grid.results)),
            ("run".to_string(), run),
        ]))
    }
}

/// Everything one grid execution produced: the public results plus the
/// per-reference/per-cell records the run manifest reports.
struct GridRun {
    results: ExperimentResults,
    references: Vec<RefRecord>,
    cells: Vec<CellRecord>,
}

/// One stage-1 (reference) record, in corpus order.
struct RefRecord {
    matrix: String,
    status: &'static str,
    from_store: bool,
    wall_ns: u64,
}

/// One stage-2 (matrix, format) record, matrix-major in plan format order.
struct CellRecord {
    matrix: String,
    format: FormatTag,
    outcome: &'static str,
    from_store: bool,
    wall_ns: u64,
}

/// A per-run cell failure the driver isolated: says nothing about the
/// (matrix, format) cell itself, so it must never reach the store.
enum CellError {
    Crashed(String),
    TimedOut,
}

impl CellError {
    fn describe(&self) -> String {
        match self {
            CellError::Crashed(reason) => reason.clone(),
            CellError::TimedOut => "cell deadline exceeded".to_string(),
        }
    }

    fn into_outcome(self) -> Outcome {
        match self {
            CellError::Crashed(reason) => Outcome::Crashed { reason },
            CellError::TimedOut => Outcome::TimedOut,
        }
    }
}

/// Run one cell's compute under `catch_unwind`, turning a panic into an
/// `Err` with the stringified payload. The driver's state is all per-cell
/// (no shared mutable structures survive a cell), so resuming after an
/// unwound cell is sound — that is the whole isolation story.
fn catch_cell<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())),
    }
}

/// Resolve one matrix's reference: store lookup (with in-place healing of
/// undecodable artifacts) or a fresh double-double solve. `Ok(None)` is a
/// persisted fact ("the reference does not converge", the paper's skip);
/// `Err` is a per-run crash/timeout, never persisted. The bool says the
/// result was served from the store.
fn resolve_reference(
    tm: &TestMatrix,
    cfg: &ExperimentConfig,
    store: Option<&Store>,
) -> (Result<Option<Reference>, CellError>, bool) {
    // One isolated solve. Distinguishes the three worlds: a solver verdict
    // (persistable), a deadline (per-run), a panic (per-run).
    let solve = || -> Result<Option<Reference>, CellError> {
        match catch_cell(|| compute_reference(&tm.matrix, cfg)) {
            Ok(Ok(r)) => Ok(Some(r)),
            Ok(Err(lpa_arnoldi::ArnoldiError::DeadlineExceeded)) => Err(CellError::TimedOut),
            Ok(Err(_)) => Ok(None),
            Err(reason) => Err(CellError::Crashed(reason)),
        }
    };
    let Some(s) = store else {
        return (solve(), false);
    };
    let computed = Cell::new(false);
    let key = persist::reference_key(&tm.matrix, cfg);
    let bytes = match s
        .get_or_try_compute(ArtifactKind::Reference, key, || {
            computed.set(true);
            // A crashed/timed-out solve propagates as Err: the store
            // persists nothing and the key stays retryable.
            solve().map(|r| persist::encode_reference(&r))
        })
        .expect("store I/O failed while persisting a reference")
    {
        Ok(bytes) => bytes,
        Err(cell_error) => return (Err(cell_error), false),
    };
    let reference = match persist::decode_reference(&bytes) {
        Ok(r) => Ok(r),
        // Checksum-valid but undecodable: payload schema drift without a
        // feature-version bump. Recompute and heal in place rather than
        // poisoning every future run.
        Err(_) => {
            computed.set(true);
            match solve() {
                Ok(r) => {
                    s.put(ArtifactKind::Reference, key, persist::encode_reference(&r))
                        .expect("store I/O failed while healing a reference");
                    Ok(r)
                }
                Err(cell_error) => Err(cell_error),
            }
        }
    };
    let from_store = !computed.get();
    (reference, from_store)
}

/// Resolve one (matrix, format) outcome, mirroring [`resolve_reference`]:
/// crashed/timed-out cells come back as `Outcome::Crashed`/`TimedOut` and
/// are never persisted.
fn resolve_outcome(
    tm: &TestMatrix,
    reference: &Reference,
    format: FormatTag,
    cfg: &ExperimentConfig,
    store: Option<&Store>,
) -> (Outcome, bool) {
    // `Ok` outcomes are cell facts (persistable); `Err` is this run's
    // accident. `run_format` maps a deadline to `Outcome::TimedOut`
    // internally, so it is re-routed to the Err side here.
    let solve = || -> Result<Outcome, CellError> {
        match catch_cell(|| run_format(&tm.matrix, reference, format, cfg).outcome) {
            Ok(Outcome::TimedOut) => Err(CellError::TimedOut),
            Ok(outcome) => Ok(outcome),
            Err(reason) => Err(CellError::Crashed(reason)),
        }
    };
    let Some(s) = store else {
        return (solve().unwrap_or_else(CellError::into_outcome), false);
    };
    let computed = Cell::new(false);
    let key = persist::outcome_key(&tm.matrix, format, cfg);
    // Outcome frames carry the format's stable wire id, so mislabelled
    // frames (hash collision, wrong-file restore) are quarantined on read
    // instead of being decoded as the wrong format's outcome.
    let format_id = Some(persist::format_id(format));
    let bytes = match s
        .get_or_try_compute_for(ArtifactKind::Outcome, key, format_id, || {
            computed.set(true);
            solve().map(|o| persist::encode_outcome(&o))
        })
        .expect("store I/O failed while persisting an outcome")
    {
        Ok(bytes) => bytes,
        Err(cell_error) => return (cell_error.into_outcome(), false),
    };
    let outcome = match persist::decode_outcome(&bytes) {
        Ok(o) => o,
        // Same healing path as references: recompute and overwrite the
        // undecodable artifact.
        Err(_) => {
            computed.set(true);
            match solve() {
                Ok(o) => {
                    s.put_for(ArtifactKind::Outcome, key, persist::encode_outcome(&o), format_id)
                        .expect("store I/O failed while healing an outcome");
                    o
                }
                Err(cell_error) => return (cell_error.into_outcome(), false),
            }
        }
    };
    (outcome, !computed.get())
}

fn emit(observer: Option<&dyn ProgressObserver>, event: impl FnOnce() -> ProgressEvent) {
    if let Some(o) = observer {
        o.on_event(&event());
    }
}

/// Sets a store's I/O retry budget for a scope and restores the previous
/// budget on drop.
struct RetryGuard<'a> {
    store: &'a Store,
    previous: u32,
}

impl<'a> RetryGuard<'a> {
    fn set(store: &'a Store, retries: u32) -> RetryGuard<'a> {
        let previous = store.io_retries();
        store.set_io_retries(retries);
        RetryGuard { store, previous }
    }
}

impl Drop for RetryGuard<'_> {
    fn drop(&mut self) {
        self.store.set_io_retries(self.previous);
    }
}

/// Arms (or disarms) the `lpa-obs` span gate for a scope and restores the
/// previous state on drop (the gate only selects whether spans are
/// recorded, never what is computed, so overlapping guards are benign).
struct ObsGuard(bool);

impl ObsGuard {
    fn force(armed: bool) -> ObsGuard {
        ObsGuard(lpa_obs::force(armed))
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        lpa_obs::force(self.0);
    }
}

/// Releases worker-thread events in slot order: slot `i`'s events are
/// delivered only after every slot `< i` has submitted and delivered, which
/// makes the observer stream identical for any thread count. Delivery
/// happens under the lock, so the total order is strict.
struct Sequencer<'a> {
    observer: Option<&'a dyn ProgressObserver>,
    state: Mutex<SequencerState>,
}

struct SequencerState {
    next: usize,
    pending: BTreeMap<usize, Vec<ProgressEvent>>,
}

impl<'a> Sequencer<'a> {
    fn new(observer: Option<&'a dyn ProgressObserver>) -> Sequencer<'a> {
        Sequencer {
            observer,
            state: Mutex::new(SequencerState { next: 0, pending: BTreeMap::new() }),
        }
    }

    /// Submit slot `slot`'s events; `fill` only runs when an observer is
    /// attached, so unobserved runs pay nothing for event construction.
    fn submit(&self, slot: usize, fill: impl FnOnce(&mut Vec<ProgressEvent>)) {
        let Some(observer) = self.observer else { return };
        let mut events = Vec::with_capacity(2);
        fill(&mut events);
        let mut state = self.state.lock().expect("event sequencer poisoned");
        state.pending.insert(slot, events);
        while let Some(ready) = { let next = state.next; state.pending.remove(&next) } {
            for event in &ready {
                observer.on_event(event);
            }
            state.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_datagen::{general_corpus, CorpusConfig};

    #[test]
    fn tiny_experiment_end_to_end() {
        // A handful of small matrices, a couple of formats: the full pipeline
        // must produce an outcome for every (matrix, format) pair.
        let corpus: Vec<TestMatrix> = general_corpus(&CorpusConfig {
            scale: 1,
            size_range: (30, 40),
            ..CorpusConfig::tiny()
        })
        .into_iter()
        .filter(|t| t.category == "lap1d" || t.category == "diagdom")
        .collect();
        assert!(corpus.len() >= 3);
        let formats = [FormatTag::Float64, FormatTag::Takum16, FormatTag::Ofp8E4M3];
        let cfg = ExperimentConfig {
            eigenvalue_count: 4,
            eigenvalue_buffer_count: 2,
            max_restarts: 60,
            ..Default::default()
        };
        let res = ExperimentPlan::over(&corpus).formats(&formats).config(cfg).run();
        assert_eq!(res.matrices.len() + res.skipped.len(), corpus.len());
        for m in &res.matrices {
            assert_eq!(m.outcomes.len(), 3);
        }
        // float64 should essentially always produce small errors here.
        let f64_outcomes = res.outcomes_for(FormatTag::Float64);
        assert!(!f64_outcomes.is_empty());
        for o in f64_outcomes {
            if let Some(e) = o.errors() {
                assert!(e.eigenvalue_rel < 1e-8);
            }
        }
    }

    #[test]
    fn sequencer_releases_in_slot_order_regardless_of_submit_order() {
        struct Tape(Mutex<Vec<usize>>);
        impl ProgressObserver for Tape {
            fn on_event(&self, event: &ProgressEvent) {
                if let ProgressEvent::ReferenceStarted { index, .. } = event {
                    self.0.lock().unwrap().push(*index);
                }
            }
        }
        let tape = Tape(Mutex::new(Vec::new()));
        let seq = Sequencer::new(Some(&tape as &dyn ProgressObserver));
        for slot in [2usize, 0, 3, 1, 4] {
            seq.submit(slot, |events| {
                events.push(ProgressEvent::ReferenceStarted {
                    index: slot,
                    matrix: String::new(),
                });
            });
        }
        assert_eq!(*tape.0.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
