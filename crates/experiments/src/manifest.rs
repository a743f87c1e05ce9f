//! The versioned run manifest (`run_manifest/v2`): the machine-readable
//! ground truth of one [`crate::Session`] run, consumed by
//! `reproduce --manifest-out`, the figure benches, CI's cross-thread-count
//! determinism check, and later `lpa-serve`.
//!
//! ## Layout
//!
//! ```json
//! {
//!   "schema": "run_manifest/v2",
//!   "plan":  { "formats": [...], "config": {...}, "corpus": N, "faults": "...",
//!              "numerics": { "<feature>": V, ... } },
//!   "grid":  { ...the ExperimentResults serialization... },
//!   "run":   { "threads": T, "retry": R, "cell_deadline_ms": D, "observability": "...",
//!              "wall_ms": W,
//!              "references": [ {"matrix","status","from_store","wall_ms"} ],
//!              "cells":      [ {"matrix","format","outcome","from_store","wall_ms"} ],
//!              "store":   { ...lpa-obs-registry/v1 counter deltas... } | null,
//!              "session": { ...lpa-obs-registry/v1 counter deltas... },
//!              "spans":   [ {"name","count","total_ns","max_ns"} ] }
//! }
//! ```
//!
//! The three sections carve the data by volatility:
//!
//! * **`plan`** and **`grid`** are deterministic functions of (corpus,
//!   formats, config, fault spec) — byte-identical for any thread count,
//!   store state and observability state
//!   (the session's existing determinism guarantee). [`stable_view`]
//!   extracts exactly this pair.
//! * **`run`** holds everything about *this particular execution*:
//!   resolved knobs, wall times, served-from-store flags, counter deltas
//!   and span aggregates. Timing fields all carry a `_ms`/`_ns` name
//!   suffix; [`timing_masked`] zeroes them (plus `"threads"`) so the CI
//!   determinism check can byte-compare manifests from runs at different
//!   thread counts (the store state must match — warm vs warm).
//!
//! References and cells appear in deterministic corpus order (cells
//! matrix-major in plan format order), so the record *order* — like every
//! non-timing field — is identical across thread counts.

use std::io;
use std::path::Path;

use serde::Value;

/// Schema tag of every run manifest.
pub const RUN_MANIFEST_SCHEMA: &str = "run_manifest/v2";

/// One emitted run manifest (see the module docs for the layout).
pub struct RunManifest {
    value: Value,
}

impl RunManifest {
    pub(crate) fn new(value: Value) -> RunManifest {
        debug_assert!(validate(&value).is_ok(), "session built an invalid manifest");
        RunManifest { value }
    }

    /// The whole manifest tree.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// Pretty-printed JSON, newline-terminated (the on-disk format).
    pub fn to_json_pretty(&self) -> String {
        let mut text = serde_json::to_string_pretty(&self.value)
            .expect("manifest values always serialize");
        text.push('\n');
        text
    }

    /// Write the manifest to `path` (parent directories are created).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json_pretty())
    }

    /// The deterministic `plan` + `grid` pair — see [`stable_view`].
    pub fn stable_view(&self) -> Value {
        stable_view(&self.value)
    }

    /// The manifest with timing fields zeroed — see [`timing_masked`].
    pub fn timing_masked(&self) -> Value {
        timing_masked(&self.value)
    }
}

/// Drop the volatile `run` section, keeping `schema` + `plan` + `grid`:
/// byte-identical across thread counts, store states (warm vs cold),
/// engines and tiers for the same logical experiment.
pub fn stable_view(manifest: &Value) -> Value {
    match manifest {
        Value::Map(entries) => Value::Map(
            entries.iter().filter(|(k, _)| k != "run").cloned().collect(),
        ),
        other => other.clone(),
    }
}

/// Zero every timing field (keys suffixed `_ms` or `_ns`) and the
/// `"threads"` knob, recursively. What remains must be byte-identical
/// across thread counts when the store state matches — the CI determinism
/// check compares exactly this.
pub fn timing_masked(manifest: &Value) -> Value {
    fn mask(v: &Value) -> Value {
        match v {
            Value::Map(entries) => Value::Map(
                entries
                    .iter()
                    .map(|(k, v)| {
                        let is_timing =
                            k.ends_with("_ms") || k.ends_with("_ns") || k == "threads";
                        let masked = if is_timing && matches!(v, Value::Num(_) | Value::UInt(_)) {
                            Value::Num(0.0)
                        } else {
                            mask(v)
                        };
                        (k.clone(), masked)
                    })
                    .collect(),
            ),
            Value::Seq(items) => Value::Seq(items.iter().map(mask).collect()),
            other => other.clone(),
        }
    }
    mask(manifest)
}

fn expect_keys(map: &Value, keys: &[&str], section: &str) -> Result<(), String> {
    let Some(entries) = map.as_map() else {
        return Err(format!("{section}: expected a JSON object"));
    };
    for key in keys {
        if !entries.iter().any(|(k, _)| k == key) {
            return Err(format!("{section}: missing required key {key:?}"));
        }
    }
    Ok(())
}

/// Structural schema check of a `run_manifest/v2` tree: section presence,
/// per-record keys, and the shared registry schema tag on the counter
/// sections. CI runs this (via `manifest_check`) on every emitted
/// manifest.
pub fn validate(manifest: &Value) -> Result<(), String> {
    expect_keys(manifest, &["schema", "plan", "grid", "run"], "manifest")?;
    match manifest.get("schema").and_then(|v| v.as_str()) {
        Some(RUN_MANIFEST_SCHEMA) => {}
        Some(other) => return Err(format!("unknown manifest schema {other:?}")),
        None => return Err("manifest: schema is not a string".to_string()),
    }
    let plan = manifest.get("plan").unwrap();
    expect_keys(plan, &["formats", "config", "corpus", "faults", "numerics"], "plan")?;
    expect_keys(
        plan.get("config").unwrap(),
        &["eigenvalue_count", "eigenvalue_buffer_count", "which", "reference_tol", "max_restarts", "seed"],
        "plan.config",
    )?;
    let grid = manifest.get("grid").unwrap();
    expect_keys(grid, &["formats", "matrices", "skipped", "crashed"], "grid")?;
    let run = manifest.get("run").unwrap();
    expect_keys(
        run,
        &[
            "threads",
            "retry",
            "cell_deadline_ms",
            "observability",
            "wall_ms",
            "references",
            "cells",
            "store",
            "session",
            "spans",
        ],
        "run",
    )?;
    let records = |name: &str, keys: &[&str]| -> Result<(), String> {
        let Some(items) = run.get(name).and_then(|v| v.as_seq()) else {
            return Err(format!("run.{name}: expected an array"));
        };
        for (i, item) in items.iter().enumerate() {
            expect_keys(item, keys, &format!("run.{name}[{i}]"))?;
        }
        Ok(())
    };
    records("references", &["matrix", "status", "from_store", "wall_ms"])?;
    records("cells", &["matrix", "format", "outcome", "from_store", "wall_ms"])?;
    records("spans", &["name", "count", "total_ns", "max_ns"])?;
    for section in ["store", "session"] {
        let value = run.get(section).unwrap();
        if matches!(value, Value::Null) {
            continue; // store is null for storeless runs
        }
        match value.get("schema").and_then(|v| v.as_str()) {
            Some(lpa_obs::REGISTRY_SCHEMA) => {}
            _ => {
                return Err(format!(
                    "run.{section}: expected the {} schema",
                    lpa_obs::REGISTRY_SCHEMA
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_v(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    fn tiny_manifest() -> Value {
        let counters = |pairs: &[(&str, u64)]| {
            lpa_obs::counters_value(
                &pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect::<Vec<_>>(),
            )
        };
        Value::Map(vec![
            ("schema".to_string(), str_v(RUN_MANIFEST_SCHEMA)),
            (
                "plan".to_string(),
                Value::Map(vec![
                    ("formats".to_string(), Value::Seq(vec![str_v("Float64")])),
                    (
                        "config".to_string(),
                        Value::Map(vec![
                            ("eigenvalue_count".to_string(), Value::Num(3.0)),
                            ("eigenvalue_buffer_count".to_string(), Value::Num(2.0)),
                            ("which".to_string(), str_v("LargestMagnitude")),
                            ("reference_tol".to_string(), Value::Num(1e-20)),
                            ("max_restarts".to_string(), Value::Num(40.0)),
                            ("seed".to_string(), Value::Num(1.0)),
                        ]),
                    ),
                    ("corpus".to_string(), Value::Num(1.0)),
                    ("faults".to_string(), str_v("disarmed")),
                    (
                        "numerics".to_string(),
                        Value::Map(vec![("dd_reference".to_string(), Value::UInt(1))]),
                    ),
                ]),
            ),
            (
                "grid".to_string(),
                Value::Map(vec![
                    ("formats".to_string(), Value::Seq(vec![str_v("Float64")])),
                    ("matrices".to_string(), Value::Seq(vec![])),
                    ("skipped".to_string(), Value::Seq(vec![])),
                    ("crashed".to_string(), Value::Seq(vec![])),
                ]),
            ),
            (
                "run".to_string(),
                Value::Map(vec![
                    ("threads".to_string(), Value::Num(4.0)),
                    ("retry".to_string(), Value::Null),
                    ("cell_deadline_ms".to_string(), Value::Null),
                    ("observability".to_string(), str_v("disarmed")),
                    ("wall_ms".to_string(), Value::Num(12.5)),
                    (
                        "references".to_string(),
                        Value::Seq(vec![Value::Map(vec![
                            ("matrix".to_string(), str_v("m0")),
                            ("status".to_string(), str_v("ok")),
                            ("from_store".to_string(), Value::Bool(false)),
                            ("wall_ms".to_string(), Value::Num(3.25)),
                        ])]),
                    ),
                    ("cells".to_string(), Value::Seq(vec![])),
                    ("store".to_string(), Value::Null),
                    ("session".to_string(), counters(&[("session.cell.computed", 1)])),
                    (
                        "spans".to_string(),
                        Value::Seq(vec![Value::Map(vec![
                            ("name".to_string(), str_v("store.get")),
                            ("count".to_string(), Value::Num(2.0)),
                            ("total_ns".to_string(), Value::Num(900.0)),
                            ("max_ns".to_string(), Value::Num(600.0)),
                        ])]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn the_tiny_manifest_validates() {
        validate(&tiny_manifest()).unwrap();
    }

    #[test]
    fn validation_rejects_missing_sections_and_wrong_schemas() {
        let Value::Map(mut entries) = tiny_manifest() else { unreachable!() };
        entries.retain(|(k, _)| k != "grid");
        let err = validate(&Value::Map(entries)).unwrap_err();
        assert!(err.contains("grid"), "{err}");

        let mut bad_schema = tiny_manifest();
        if let Value::Map(entries) = &mut bad_schema {
            entries[0].1 = str_v("run_manifest/v0");
        }
        let err = validate(&bad_schema).unwrap_err();
        assert!(err.contains("unknown manifest schema"), "{err}");

        // A session counter section must carry the registry schema tag.
        let mut bad_session = tiny_manifest();
        if let Value::Map(entries) = &mut bad_session {
            let run = entries.iter_mut().find(|(k, _)| k == "run").unwrap();
            if let Value::Map(run_entries) = &mut run.1 {
                let session =
                    run_entries.iter_mut().find(|(k, _)| k == "session").unwrap();
                session.1 = Value::Map(vec![]);
            }
        }
        let err = validate(&bad_session).unwrap_err();
        assert!(err.contains("run.session"), "{err}");
    }

    #[test]
    fn stable_view_drops_exactly_the_run_section() {
        let manifest = tiny_manifest();
        let stable = stable_view(&manifest);
        assert!(stable.get("plan").is_some());
        assert!(stable.get("grid").is_some());
        assert!(stable.get("run").is_none());
        assert_eq!(stable.get("schema").and_then(|v| v.as_str()), Some(RUN_MANIFEST_SCHEMA));
    }

    #[test]
    fn timing_masked_zeroes_ms_ns_and_threads_but_nothing_else() {
        let masked = timing_masked(&tiny_manifest());
        let run = masked.get("run").unwrap();
        assert_eq!(run.get("wall_ms").and_then(|v| v.as_num()), Some(0.0));
        assert_eq!(run.get("threads").and_then(|v| v.as_num()), Some(0.0));
        let reference = &run.get("references").and_then(|v| v.as_seq()).unwrap()[0];
        assert_eq!(reference.get("wall_ms").and_then(|v| v.as_num()), Some(0.0));
        // Non-timing fields survive untouched, including span counts.
        assert_eq!(reference.get("status").and_then(|v| v.as_str()), Some("ok"));
        let span = &run.get("spans").and_then(|v| v.as_seq()).unwrap()[0];
        assert_eq!(span.get("count").and_then(|v| v.as_num()), Some(2.0));
        assert_eq!(span.get("total_ns").and_then(|v| v.as_num()), Some(0.0));
        assert_eq!(span.get("max_ns").and_then(|v| v.as_num()), Some(0.0));
        // Null timing knobs stay null (they are already deterministic).
        assert!(matches!(run.get("cell_deadline_ms"), Some(Value::Null)));

        // Exact-integer timing values (the registry renders UInt now) are
        // masked the same way as float ones.
        let uint_timing = Value::Map(vec![
            ("io_ns".to_string(), Value::UInt(u64::MAX)),
            ("calls".to_string(), Value::UInt(7)),
        ]);
        let masked = timing_masked(&uint_timing);
        assert_eq!(masked.get("io_ns").and_then(|v| v.as_num()), Some(0.0));
        assert_eq!(masked.get("calls").and_then(|v| v.as_u64()), Some(7));
    }
}
