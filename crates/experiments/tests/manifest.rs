//! Contract tests of the `run_manifest/v2` artifact:
//!
//! * every emitted manifest passes `manifest::validate`,
//! * the timing-masked manifest is byte-identical across thread counts
//!   (matching store state — here: no store),
//! * the `stable_view` (plan + grid) is byte-identical across store
//!   states (none, cold, warm),
//! * served-from-store flags and span sections report truthfully.

use lpa_datagen::{general_corpus, CorpusConfig, TestMatrix};
use lpa_experiments::{manifest, ExperimentConfig, ExperimentPlan, FormatTag};
use lpa_store::Store;
use serde::Value;

fn tiny_corpus(take: usize) -> Vec<TestMatrix> {
    let corpus: Vec<TestMatrix> = general_corpus(&CorpusConfig {
        scale: 1,
        size_range: (24, 36),
        ..CorpusConfig::tiny()
    })
    .into_iter()
    .take(take)
    .collect();
    assert!(corpus.len() >= 3, "corpus too small to exercise the grid");
    corpus
}

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        eigenvalue_count: 3,
        eigenvalue_buffer_count: 2,
        max_restarts: 40,
        ..Default::default()
    }
}

/// The `run.cells` records of a manifest.
fn cells(manifest_value: &Value) -> &[Value] {
    manifest_value
        .get("run")
        .and_then(|r| r.get("cells"))
        .and_then(|c| c.as_seq())
        .expect("run.cells is an array")
}

#[test]
fn timing_masked_manifest_is_identical_across_thread_counts() {
    let corpus = tiny_corpus(4);
    let formats = [FormatTag::Float64, FormatTag::Takum16, FormatTag::Ofp8E4M3];
    let cfg = tiny_config();

    let run = |threads: usize| {
        ExperimentPlan::over(&corpus)
            .formats(&formats)
            .config(cfg.clone())
            .threads(threads)
            .session()
            .run_with_manifest()
            .1
    };
    let serial = run(1);
    let parallel = run(4);
    manifest::validate(serial.value()).unwrap();
    manifest::validate(parallel.value()).unwrap();

    // Everything except wall times and the thread knob must match — record
    // order included (references in corpus order, cells matrix-major).
    assert_eq!(
        serde_json::to_string_pretty(&serial.timing_masked()).unwrap(),
        serde_json::to_string_pretty(&parallel.timing_masked()).unwrap(),
        "non-timing manifest fields depend on thread count"
    );
}

#[test]
fn stable_view_is_identical_across_store_states() {
    let corpus = tiny_corpus(3);
    let formats = [FormatTag::Float64, FormatTag::Posit16];
    let cfg = tiny_config();
    let dir = std::env::temp_dir().join(format!("lpa-manifest-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let storeless = ExperimentPlan::over(&corpus)
        .formats(&formats)
        .config(cfg.clone())
        .session()
        .run_with_manifest()
        .1;

    let with_store = |store: &Store| {
        ExperimentPlan::over(&corpus)
            .formats(&formats)
            .config(cfg.clone())
            .store(store)
            .session()
            .run_with_manifest()
            .1
    };
    let cold_store = Store::open(&dir).unwrap();
    let cold = with_store(&cold_store);
    let warm_store = Store::open(&dir).unwrap();
    let warm = with_store(&warm_store);

    let stable = |m: &lpa_experiments::RunManifest| {
        serde_json::to_string_pretty(&m.stable_view()).unwrap()
    };
    assert_eq!(stable(&storeless), stable(&cold), "stable view depends on having a store");
    assert_eq!(stable(&cold), stable(&warm), "stable view depends on store warmth");

    // The volatile section tells the two store runs apart: the cold run
    // computed every cell, the warm run served every cell from the store.
    let from_store_flags = |m: &lpa_experiments::RunManifest| -> Vec<bool> {
        cells(m.value())
            .iter()
            .map(|c| matches!(c.get("from_store"), Some(Value::Bool(true))))
            .collect()
    };
    let cold_flags = from_store_flags(&cold);
    let warm_flags = from_store_flags(&warm);
    assert!(!cold_flags.is_empty());
    assert!(cold_flags.iter().all(|&f| !f), "cold run found artifacts in an empty store");
    assert!(warm_flags.iter().all(|&f| f), "warm run recomputed something");

    // Storeless manifests carry a null store section; store-backed ones
    // carry registry counter deltas that reflect this run only.
    assert!(matches!(storeless.value().get("run").and_then(|r| r.get("store")), Some(Value::Null)));
    let miss_delta = |m: &lpa_experiments::RunManifest| {
        m.value()
            .get("run")
            .and_then(|r| r.get("store"))
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get("store.reference.misses"))
            .and_then(|v| v.as_num())
            .expect("store-backed manifest has a store.reference.misses counter")
    };
    assert_eq!(miss_delta(&cold), corpus.len() as f64);
    assert_eq!(miss_delta(&warm), 0.0, "warm-run store deltas must be this run's, not totals");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_spans_follow_the_obs_gate() {
    let corpus = tiny_corpus(3);
    let formats = [FormatTag::Float64];
    let cfg = tiny_config();

    let run = |armed: bool| {
        ExperimentPlan::over(&corpus)
            .formats(&formats)
            .config(cfg.clone())
            .observability(armed)
            .session()
            .run_with_manifest()
            .1
    };
    // ObsScope serializes against other arming tests in this binary and
    // resets the ring/aggregates so each run observes only its own spans.
    let scope = lpa_obs::ObsScope::arm();
    let armed = run(true);
    drop(scope);
    let scope = lpa_obs::ObsScope::disarm();
    lpa_obs::span::reset();
    let disarmed = run(false);
    drop(scope);

    let spans = |m: &lpa_experiments::RunManifest| -> Vec<(String, f64)> {
        m.value()
            .get("run")
            .and_then(|r| r.get("spans"))
            .and_then(|s| s.as_seq())
            .unwrap()
            .iter()
            .map(|s| {
                (
                    s.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                    s.get("count").and_then(|v| v.as_num()).unwrap(),
                )
            })
            .collect()
    };
    assert!(spans(&disarmed).is_empty(), "disarmed runs must record no spans");
    assert_eq!(
        disarmed.value().get("run").and_then(|r| r.get("observability")).and_then(|v| v.as_str()),
        Some("disarmed")
    );

    let armed_spans = spans(&armed);
    let count_of = |name: &str| {
        armed_spans.iter().find(|(n, _)| n == name).map(|(_, c)| *c).unwrap_or(0.0)
    };
    // Lower bounds, not equalities: the gate is process-global, so tests
    // running concurrently in this binary may record spans of their own
    // into the window between this run's snapshots.
    assert!(count_of(lpa_obs::REFERENCE_SOLVE) >= corpus.len() as f64, "{armed_spans:?}");
    let kept = armed
        .value()
        .get("grid")
        .and_then(|g| g.get("matrices"))
        .and_then(|m| m.as_seq())
        .unwrap()
        .len();
    assert!(count_of(lpa_obs::CELL_SOLVE) >= (kept * formats.len()) as f64, "{armed_spans:?}");
    assert!(count_of(lpa_obs::ARNOLDI_RESTART) > 0.0, "solves must record restart spans");
    assert_eq!(
        armed.value().get("run").and_then(|r| r.get("observability")).and_then(|v| v.as_str()),
        Some("armed")
    );

    // The session counter section mirrors the grid's own tallies.
    let session_counter = |m: &lpa_experiments::RunManifest, name: &str| {
        m.value()
            .get("run")
            .and_then(|r| r.get("session"))
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_num())
            .unwrap_or_else(|| panic!("missing session counter {name}"))
    };
    assert_eq!(session_counter(&armed, "session.cell.computed"), cells(armed.value()).len() as f64);
    assert_eq!(session_counter(&armed, "session.cell.crashed"), 0.0);
}

#[test]
fn manifest_out_writes_the_artifact() {
    let corpus = tiny_corpus(3);
    let path = std::env::temp_dir()
        .join(format!("lpa-manifest-out-{}", std::process::id()))
        .join("figure1")
        .join("manifest.json");
    let _ = std::fs::remove_dir_all(path.parent().unwrap().parent().unwrap());

    let (results, manifest_in_memory) = ExperimentPlan::over(&corpus)
        .formats(&[FormatTag::Float64])
        .config(tiny_config())
        .manifest_out(&path)
        .session()
        .run_with_manifest();

    let written = std::fs::read_to_string(&path).expect("manifest written to manifest_out path");
    assert_eq!(written, manifest_in_memory.to_json_pretty());
    assert!(written.ends_with('\n'), "on-disk manifest is newline-terminated");
    let parsed: Value = serde_json::from_str(&written).unwrap();
    manifest::validate(&parsed).unwrap();

    // The grid section is the results' own serialization, verbatim.
    assert_eq!(
        serde_json::to_string(parsed.get("grid").unwrap()).unwrap(),
        serde_json::to_string(&results).unwrap()
    );
    std::fs::remove_dir_all(path.parent().unwrap().parent().unwrap()).unwrap();
}
