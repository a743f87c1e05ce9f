//! # lpa-bench — benchmark and figure-regeneration harnesses
//!
//! One harness per table/figure of the paper (run via `cargo bench -p
//! lpa-bench --bench <name>` or all at once with `cargo bench`), plus
//! criterion micro-benchmarks of the substrates.
//!
//! Every harness builds its run through the workspace's one front door —
//! [`lpa_experiments::ExperimentPlan`] — configured by resolved
//! [`HarnessSettings`]: the benches resolve from the environment alone
//! (`LPA_BENCH_SCALE`, `LPA_BENCH_SIZE_MAX`, `LPA_BENCH_MATRICES`,
//! `LPA_STORE`, `LPA_OBS`, …), while the `reproduce` binary layers its
//! CLI flags on top via [`PlanOverrides`] (flag > env > default, see
//! `lpa_experiments::harness`). Harness sizes are kept small enough for a
//! laptop run by default.

use std::fs;
use std::path::PathBuf;

use lpa_datagen::{CorpusConfig, GraphClass, TestMatrix};
use lpa_experiments::{
    format_summary_table, write_figure_csv, ExperimentConfig, ExperimentPlan, ExperimentResults,
    FormatTag, Metric, StderrProgress,
};
use lpa_store::{ArtifactKind, Store};

pub use lpa_experiments::harness::{HarnessEnv, HarnessSettings, PlanOverrides};

/// Corpus configuration used by the figure harnesses for the given
/// resolved settings (the bench policy: the paper's nnz cap, dimensions
/// from 40 up, a fixed seed). A `size_max` below the 40 floor is clamped
/// to it — the generators require `size_range.0 <= size_range.1`.
pub fn bench_corpus_config(settings: &HarnessSettings) -> CorpusConfig {
    CorpusConfig {
        seed: 0x5EED,
        scale: settings.scale,
        size_range: (40, settings.size_max.max(40)),
        max_nnz: 20_000,
    }
}

/// Experiment configuration used by the figure harnesses: the paper's
/// parameters (10 eigenvalues + 2 buffer, largest magnitude, per-width
/// tolerances) with a restart budget suited to small matrices.
pub fn bench_experiment_config() -> ExperimentConfig {
    ExperimentConfig { max_restarts: 80, ..Default::default() }
}

/// The output directory for CSV artifacts, resolved when the program runs:
/// `out/` at the workspace root when cargo launched it (`cargo bench` and
/// `cargo run` set `CARGO_MANIFEST_DIR` to this crate's directory), else
/// `out/` under the working directory — a bare binary writes where it
/// runs, never into the tree it was compiled in.
pub fn out_dir() -> PathBuf {
    let dir = out_dir_for(std::env::var_os("CARGO_MANIFEST_DIR"));
    fs::create_dir_all(&dir).expect("create out dir");
    dir
}

fn out_dir_for(manifest_dir: Option<std::ffi::OsString>) -> PathBuf {
    match manifest_dir {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir).join("../../out"),
        _ => PathBuf::from("out"),
    }
}

/// Print a store's per-kind counters after a harness run; the warm-start
/// line is what CI greps to assert a second run recomputed nothing.
pub fn print_store_counters(store: &Store) {
    let r = store.stats().snapshot(ArtifactKind::Reference);
    let o = store.stats().snapshot(ArtifactKind::Outcome);
    println!(
        "store[reference]: {} hits / {} misses; store[outcome]: {} hits / {} misses ({} written, {} read bytes, dir {})",
        r.hits(),
        r.misses,
        o.hits(),
        o.misses,
        r.bytes_written + o.bytes_written,
        r.bytes_read + o.bytes_read,
        store.root().display(),
    );
    if r.misses == 0 && r.hits() > 0 {
        println!("warm-start: all references served from store");
    }
    if let Some(line) = corruption_summary(store) {
        println!("{line}");
    }
}

/// The `store corruption:` marker line CI's fault-injection job greps,
/// rendered straight from the store's metrics registry (`store.corrupt`
/// plus the per-kind `store.<kind>.quarantined` counters) rather than
/// from a private tally. `None` when no corrupt frame was seen.
pub fn corruption_summary(store: &Store) -> Option<String> {
    let registry = store.stats().registry();
    let corrupt = registry.counter_value("store.corrupt");
    if corrupt == 0 {
        return None;
    }
    let quarantined: u64 = ArtifactKind::ALL
        .iter()
        .map(|kind| registry.counter_value(&format!("store.{}.quarantined", kind.name())))
        .sum();
    Some(format!("store corruption: {corrupt} corrupt frames detected ({quarantined} quarantined)"))
}

/// Run one figure: the corpus slice, all 14 formats, grouped by bit width,
/// printing the same kind of series the paper plots and writing CSVs.
/// Progress streams to stderr while the grid runs; stdout carries the
/// machine-greppable summary only.
pub fn run_figure(
    figure: &str,
    title: &str,
    corpus: &[TestMatrix],
    settings: &HarnessSettings,
) -> ExperimentResults {
    let formats = FormatTag::all();
    println!("=== {figure}: {title} ===");
    println!(
        "corpus: {} matrices (n = {}..{}, nnz <= {})",
        corpus.len(),
        corpus.iter().map(|t| t.n()).min().unwrap_or(0),
        corpus.iter().map(|t| t.n()).max().unwrap_or(0),
        corpus.iter().map(|t| t.nnz()).max().unwrap_or(0),
    );
    let store = settings.open_store();
    let progress = StderrProgress::new(figure);
    // Snapshot the process-global session counters so the degraded summary
    // below can be rendered from this run's registry deltas.
    let session_counter = |name: &str| lpa_obs::global().counter_value(name);
    let (crashed0, timed_out0, lost0) = (
        session_counter("session.cell.crashed"),
        session_counter("session.cell.timed_out"),
        session_counter("session.reference.lost"),
    );
    let results = ExperimentPlan::over(corpus)
        .formats(&formats)
        .config(bench_experiment_config())
        .maybe_store(store.as_ref())
        .apply(settings)
        .observer(&progress)
        .session()
        .run();
    if !results.skipped.is_empty() {
        println!("skipped (reference failed): {}", results.skipped.len());
    }
    if results.is_degraded() {
        // The greppable marker CI's fault-injection job asserts on: the grid
        // completed despite isolated crashes/deadline hits, and those cells
        // were not persisted (a clean rerun retries them). Since PR 7 the
        // numbers are registry views — deltas of the `session.*` counters
        // the run just tallied — which the manifest tests pin to the grid's
        // own `crashed_cells()`/`crashed.len()` values.
        println!(
            "degraded: {} cells crashed or timed out ({} matrices lost their reference)",
            session_counter("session.cell.crashed") - crashed0
                + session_counter("session.cell.timed_out")
                - timed_out0,
            session_counter("session.reference.lost") - lost0,
        );
    }
    if let Some(store) = &store {
        print_store_counters(store);
    }

    for bits in [8u32, 16, 32, 64] {
        let row = FormatTag::with_bits(bits);
        println!("\n-- {bits}-bit formats, relative eigenvalue errors (log10 percentiles) --");
        print!("{}", format_summary_table(&results, &row, Metric::Eigenvalues));
        println!("-- {bits}-bit formats, relative eigenvector errors (log10 percentiles) --");
        print!("{}", format_summary_table(&results, &row, Metric::Eigenvectors));
    }

    for metric in [Metric::Eigenvalues, Metric::Eigenvectors] {
        let path = out_dir().join(format!("{figure}_{}.csv", metric.name()));
        let file = fs::File::create(&path).expect("create csv");
        write_figure_csv(file, &results, &formats, metric).expect("write csv");
        println!("wrote {}", path.display());
    }
    results
}

fn subsample(mut corpus: Vec<TestMatrix>, budget: usize) -> Vec<TestMatrix> {
    if corpus.len() <= budget {
        return corpus;
    }
    // Evenly spaced picks; `step > 1`, so the pick indices are strictly
    // increasing and a single merge-style walk replaces the former
    // O(n · budget) `picks.contains` scan.
    let step = corpus.len() as f64 / budget as f64;
    let picks: Vec<usize> = (0..budget).map(|i| (i as f64 * step) as usize).collect();
    let mut next_pick = picks.iter().peekable();
    let mut out = Vec::with_capacity(budget);
    for (i, t) in corpus.drain(..).enumerate() {
        if next_pick.peek() == Some(&&i) {
            out.push(t);
            next_pick.next();
        }
    }
    out
}

/// The general-matrix corpus slice used by the Figure 1 harness.
pub fn general_bench_corpus(settings: &HarnessSettings) -> Vec<TestMatrix> {
    subsample(
        lpa_datagen::general_corpus(&bench_corpus_config(settings)),
        settings.matrix_budget,
    )
}

/// The graph-Laplacian corpus restricted to one of the paper's four classes
/// (used by the Figure 2-5 harnesses).
pub fn class_bench_corpus(class: GraphClass, settings: &HarnessSettings) -> Vec<TestMatrix> {
    let corpus: Vec<TestMatrix> =
        lpa_datagen::graph_laplacian_corpus(&bench_corpus_config(settings))
            .into_iter()
            .filter(|t| t.class() == Some(class))
            .collect();
    subsample(corpus, settings.matrix_budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_settings() -> HarnessSettings {
        PlanOverrides::default().resolve(&HarnessEnv::default())
    }

    #[test]
    fn out_dir_is_resolved_at_run_time() {
        // Launched by cargo: the workspace root's `out/`.
        assert_eq!(
            out_dir_for(Some("/ws/crates/bench".into())),
            PathBuf::from("/ws/crates/bench/../../out")
        );
        // A bare binary: `out/` under the working directory.
        assert_eq!(out_dir_for(None), PathBuf::from("out"));
        assert_eq!(out_dir_for(Some("".into())), PathBuf::from("out"));
        // This test itself runs under cargo, with this crate's directory.
        let expected = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../out");
        assert_eq!(out_dir(), expected);
    }

    #[test]
    fn subsample_is_even_order_preserving_and_exact() {
        let corpus = lpa_datagen::general_corpus(&CorpusConfig::tiny());
        assert!(corpus.len() > 4);
        let names: Vec<String> = corpus.iter().map(|t| t.name.clone()).collect();
        for budget in [1, 2, 3, corpus.len() - 1, corpus.len(), corpus.len() + 5] {
            let picked = subsample(corpus.clone(), budget);
            assert_eq!(picked.len(), budget.min(names.len()), "budget {budget}");
            // The picked names must be a subsequence of the original order.
            let mut cursor = names.iter();
            for t in &picked {
                assert!(
                    cursor.any(|n| n == &t.name),
                    "subsample reordered or duplicated {} at budget {budget}",
                    t.name
                );
            }
        }
    }

    #[test]
    fn configs_resolve() {
        let settings = default_settings();
        let c = bench_corpus_config(&settings);
        assert!(c.size_range.0 >= 40);
        let e = bench_experiment_config();
        assert_eq!(e.eigenvalue_count, 10);
        assert_eq!(e.eigenvalue_buffer_count, 2);
        let biological = class_bench_corpus(GraphClass::Biological, &settings);
        assert!(!biological.is_empty());
    }

    /// The `store corruption:` line must be a pure registry view: render
    /// it after a detected-corrupt read and check it against the same
    /// counters read through the snapshot API.
    #[test]
    fn corruption_line_is_a_registry_view() {
        let dir = std::env::temp_dir().join(format!("lpa-bench-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        assert_eq!(corruption_summary(&store), None, "clean store must print no corruption line");

        let key = lpa_store::hash128(b"corruption-line-fixture");
        store.put(ArtifactKind::Outcome, key, b"payload".to_vec()).unwrap();
        let path = store.path_of(key);
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get(ArtifactKind::Outcome, key).unwrap(), None, "corrupt frame served");

        let snapshot = store.stats().snapshot(ArtifactKind::Outcome);
        assert_eq!((snapshot.corrupt, snapshot.quarantined), (1, 1));
        assert_eq!(
            corruption_summary(&store).as_deref(),
            Some("store corruption: 1 corrupt frames detected (1 quarantined)"),
            "rendered line disagrees with the registry counters"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overrides_reach_the_corpus_shape() {
        let settings = PlanOverrides {
            scale: Some(1),
            size_max: Some(48),
            matrices: Some(2),
            ..Default::default()
        }
        .resolve(&HarnessEnv::default());
        let corpus = general_bench_corpus(&settings);
        assert_eq!(corpus.len(), 2, "matrix budget applies");
        assert!(corpus.iter().all(|t| t.n() <= 48), "size cap applies");
    }
}
