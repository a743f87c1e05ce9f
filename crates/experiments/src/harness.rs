//! Centralized environment handling for the harness: `LPA_*` variables are
//! parsed in exactly one place ([`HarnessEnv::capture`]) and merged with
//! CLI-provided [`PlanOverrides`] into resolved [`HarnessSettings`].
//!
//! ## Precedence
//!
//! For every knob: **CLI flag > environment variable > default.**
//!
//! The knob table below is **data**, not prose: [`ENV_DOCS`] holds one row
//! per knob and the `reproduce` binary renders its usage text from it, so
//! the CLI flags and their documentation cannot drift apart.
//!
//! | knob           | CLI (`reproduce`) | environment          | default |
//! |----------------|-------------------|----------------------|---------|
//! | corpus scale   | `--scale`         | `LPA_BENCH_SCALE`    | 1       |
//! | max dimension  | `--size-max`      | `LPA_BENCH_SIZE_MAX` | 72      |
//! | matrix budget  | `--matrices`      | `LPA_BENCH_MATRICES` | 6       |
//! | store dir      | `--store`         | `LPA_STORE`          | none    |
//! | thread budget  | `--threads`       | `RAYON_NUM_THREADS`  | cores   |
//! | I/O retries    | `--retry`         | `LPA_RETRY`          | 2       |
//! | cell deadline  | `--cell-deadline-ms` | `LPA_CELL_DEADLINE_MS` | off |
//! | observability  | `--obs`           | `LPA_OBS`            | disarmed |
//! | manifest path  | `--manifest-out`  | `LPA_MANIFEST_OUT`   | none    |
//! | fault spec     | *(env-only)*      | `LPA_FAULTS`         | disarmed |
//! | numerics bump  | *(env-only)*      | `LPA_NUMERICS_BUMP`  | builtin  |
//! | serve address  | `lpa-serve --addr` | `LPA_SERVE_ADDR`    | 127.0.0.1:7641 |
//! | serve in-flight | `lpa-serve --max-inflight` | `LPA_SERVE_MAX_INFLIGHT` | 4 |
//! | serve queue    | `lpa-serve --queue` | `LPA_SERVE_QUEUE`  | 16      |
//!
//! Two variables are owned by lower layers and only *flow through* here
//! so the precedence stays uniform: `LPA_OBS` is read by
//! [`lpa_obs::env_observability`] (that module keeps its only `std::env`
//! read) and `RAYON_NUM_THREADS` by the rayon shim — a CLI thread budget
//! simply outranks it by being pinned on the plan, and no
//! process-environment mutation (`std::env::set_var`) is needed anywhere.
//! The `LPA_SERVE_*` trio is likewise owned by `lpa-serve`'s config
//! module (`ServeConfig::from_env`, its only reader); the rows live here
//! so this table stays the complete `LPA_*` inventory.
//!
//! Unset or unparsable environment values fall through to the next level.

use std::path::PathBuf;

use lpa_store::Store;

/// Default corpus scale factor.
pub const DEFAULT_SCALE: usize = 1;
/// Default maximum generated matrix dimension.
pub const DEFAULT_SIZE_MAX: usize = 72;
/// Default per-figure matrix budget after subsampling (kept small because
/// the whole pipeline runs in software-emulated arithmetic).
pub const DEFAULT_MATRIX_BUDGET: usize = 6;

/// One row of the harness knob table: the environment variable, its
/// `reproduce` CLI flag (empty when CLI-only/env-only), the value syntax
/// and a one-line description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnvDoc {
    pub var: &'static str,
    pub flag: &'static str,
    pub value: &'static str,
    pub help: &'static str,
}

/// The single source of truth for every harness knob: `reproduce --help`
/// renders its environment-variable table from this array (so flags and
/// docs cannot drift), and `tests` assert it covers every [`HarnessEnv`] /
/// [`PlanOverrides`] field.
pub const ENV_DOCS: &[EnvDoc] = &[
    EnvDoc {
        var: "LPA_BENCH_SCALE",
        flag: "--scale",
        value: "K",
        help: "corpus scale factor (matrices per category, default 1)",
    },
    EnvDoc {
        var: "LPA_BENCH_SIZE_MAX",
        flag: "--size-max",
        value: "N",
        help: "maximum generated matrix dimension (default 72)",
    },
    EnvDoc {
        var: "LPA_BENCH_MATRICES",
        flag: "--matrices",
        value: "M",
        help: "per-figure matrix budget after subsampling (default 6)",
    },
    EnvDoc {
        var: "LPA_STORE",
        flag: "--store",
        value: "DIR",
        help: "persistent experiment store directory (default none)",
    },
    EnvDoc {
        var: "RAYON_NUM_THREADS",
        flag: "--threads",
        value: "T",
        help: "worker-thread budget (default all cores)",
    },
    EnvDoc {
        var: "LPA_RETRY",
        flag: "--retry",
        value: "N",
        help: "transient store-I/O retry budget per operation (default 2)",
    },
    EnvDoc {
        var: "LPA_CELL_DEADLINE_MS",
        flag: "--cell-deadline-ms",
        value: "MS",
        help: "cooperative per-cell solve deadline in ms (0 = off, default)",
    },
    EnvDoc {
        var: "LPA_OBS",
        flag: "--obs",
        value: "on|off",
        help: "arm lpa-obs tracing spans for the run (read by lpa-obs; default off)",
    },
    EnvDoc {
        var: "LPA_MANIFEST_OUT",
        flag: "--manifest-out",
        value: "FILE",
        help: "write the run_manifest/v2 JSON artifact of the run to FILE (default none)",
    },
    EnvDoc {
        var: "LPA_FAULTS",
        flag: "",
        value: "SPEC",
        help: "fault-injection spec, e.g. store.read.corrupt=prob:0.2 (read by lpa-faults; default disarmed)",
    },
    EnvDoc {
        var: "LPA_NUMERICS_BUMP",
        flag: "",
        value: "feature=V[,feature=V...]",
        help: "override numerics feature versions, e.g. batch_round=2 (read by lpa-numerics; default builtin table)",
    },
    EnvDoc {
        var: "LPA_SERVE_ADDR",
        flag: "",
        value: "HOST:PORT",
        help: "lpa-serve listen address; `lpa-serve serve --addr` outranks it (read by lpa-serve; default 127.0.0.1:7641)",
    },
    EnvDoc {
        var: "LPA_SERVE_MAX_INFLIGHT",
        flag: "",
        value: "N",
        help: "lpa-serve concurrent sessions / worker-pool size; `--max-inflight` outranks it (read by lpa-serve; default 4)",
    },
    EnvDoc {
        var: "LPA_SERVE_QUEUE",
        flag: "",
        value: "N",
        help: "lpa-serve admission-queue depth past the in-flight cap; `--queue` outranks it (read by lpa-serve; default 16)",
    },
];

/// Render [`ENV_DOCS`] as the aligned two-column table `reproduce --help`
/// prints (flag + value on the left, environment variable and description
/// on the right).
pub fn env_docs_table() -> String {
    let rows: Vec<(String, String)> = ENV_DOCS
        .iter()
        .map(|d| {
            let left = if d.flag.is_empty() {
                "(env-only)".to_string()
            } else {
                format!("{} {}", d.flag, d.value)
            };
            (left, format!("[{}] {}", d.var, d.help))
        })
        .collect();
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    rows.iter().map(|(l, r)| format!("  {l:<width$}  {r}\n")).collect()
}

/// A snapshot of every `LPA_*` harness variable.
///
/// [`HarnessEnv::capture`] reads the real process environment; tests build
/// the struct directly (or via [`HarnessEnv::from_lookup`] with a closure
/// over a map), so no test ever needs `std::env::set_var`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HarnessEnv {
    /// `LPA_BENCH_SCALE`
    pub scale: Option<usize>,
    /// `LPA_BENCH_SIZE_MAX`
    pub size_max: Option<usize>,
    /// `LPA_BENCH_MATRICES`
    pub matrices: Option<usize>,
    /// `LPA_STORE` (empty value = unset)
    pub store_dir: Option<PathBuf>,
    /// `LPA_RETRY`
    pub retry: Option<u32>,
    /// `LPA_CELL_DEADLINE_MS`
    pub cell_deadline_ms: Option<u64>,
    /// `LPA_OBS`, via [`lpa_obs::env_observability`]
    pub observability: Option<bool>,
    /// `LPA_MANIFEST_OUT` (empty value = unset)
    pub manifest_out: Option<PathBuf>,
}

impl HarnessEnv {
    /// Snapshot the process environment.
    pub fn capture() -> HarnessEnv {
        HarnessEnv {
            observability: lpa_obs::env_observability(),
            ..Self::from_lookup(|name| std::env::var(name).ok())
        }
    }

    /// Parse the `LPA_BENCH_*` / `LPA_STORE` / `LPA_MANIFEST_OUT` variables
    /// through `lookup` (injectable for tests; `observability` stays `None`
    /// because its environment read belongs to `lpa_obs`).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> HarnessEnv {
        let parsed = |name: &str| lookup(name).and_then(|v| v.parse().ok());
        let path_of =
            |name: &str| lookup(name).filter(|v| !v.is_empty()).map(PathBuf::from);
        HarnessEnv {
            scale: parsed("LPA_BENCH_SCALE"),
            size_max: parsed("LPA_BENCH_SIZE_MAX"),
            matrices: parsed("LPA_BENCH_MATRICES"),
            store_dir: path_of("LPA_STORE"),
            retry: lookup("LPA_RETRY").and_then(|v| v.parse().ok()),
            cell_deadline_ms: lookup("LPA_CELL_DEADLINE_MS").and_then(|v| v.parse().ok()),
            observability: None,
            manifest_out: path_of("LPA_MANIFEST_OUT"),
        }
    }
}

/// Knobs provided explicitly (CLI flags, test fixtures); every field
/// outranks its environment counterpart when resolving.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanOverrides {
    pub scale: Option<usize>,
    pub size_max: Option<usize>,
    pub matrices: Option<usize>,
    pub store_dir: Option<PathBuf>,
    pub threads: Option<usize>,
    pub retry: Option<u32>,
    pub cell_deadline_ms: Option<u64>,
    pub observability: Option<bool>,
    pub manifest_out: Option<PathBuf>,
}

impl PlanOverrides {
    /// Merge these overrides with an environment snapshot into resolved
    /// settings (CLI flag > env var > default).
    pub fn resolve(&self, env: &HarnessEnv) -> HarnessSettings {
        HarnessSettings {
            scale: self.scale.or(env.scale).unwrap_or(DEFAULT_SCALE).max(1),
            size_max: self.size_max.or(env.size_max).unwrap_or(DEFAULT_SIZE_MAX),
            matrix_budget: self.matrices.or(env.matrices).unwrap_or(DEFAULT_MATRIX_BUDGET),
            store_dir: self.store_dir.clone().or_else(|| env.store_dir.clone()),
            // No env fallback here: when None, the rayon shim applies
            // RAYON_NUM_THREADS itself, keeping that read in one module.
            threads: self.threads,
            retry: self.retry.or(env.retry),
            // A zero deadline means "off", same as unset.
            cell_deadline: self
                .cell_deadline_ms
                .or(env.cell_deadline_ms)
                .filter(|&ms| ms > 0)
                .map(std::time::Duration::from_millis),
            observability: self.observability.or(env.observability),
            manifest_out: self.manifest_out.clone().or_else(|| env.manifest_out.clone()),
        }
    }
}

/// Fully resolved harness settings: what a run will actually use.
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessSettings {
    /// Corpus scale factor (matrices per category).
    pub scale: usize,
    /// Maximum generated matrix dimension.
    pub size_max: usize,
    /// Matrix budget per figure after subsampling.
    pub matrix_budget: usize,
    /// Directory of the persistent experiment store, if any.
    pub store_dir: Option<PathBuf>,
    /// Worker-thread budget (`None` = `RAYON_NUM_THREADS`, else all cores).
    pub threads: Option<usize>,
    /// Transient store-I/O retry budget (`None` = the store's default).
    pub retry: Option<u32>,
    /// Cooperative per-cell solve deadline (`None` = off).
    pub cell_deadline: Option<std::time::Duration>,
    /// Forced `lpa-obs` span-gate state (`None` = ambient, i.e. `LPA_OBS`).
    pub observability: Option<bool>,
    /// Path of the `run_manifest/v2` artifact to emit (`None` = none).
    pub manifest_out: Option<PathBuf>,
}

impl HarnessSettings {
    /// Environment-only resolution: what every figure/table bench uses
    /// (they take no CLI flags).
    pub fn from_env() -> HarnessSettings {
        PlanOverrides::default().resolve(&HarnessEnv::capture())
    }

    /// Open the persistent store these settings name, if any. Panics with
    /// the offending path on I/O failure — silently running cold would
    /// recompute a whole sweep and persist nothing.
    pub fn open_store(&self) -> Option<Store> {
        let dir = self.store_dir.as_ref()?;
        Some(Store::open(dir).unwrap_or_else(|e| panic!("store {}: {e}", dir.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env_of(pairs: &[(&str, &str)]) -> HarnessEnv {
        let map: HashMap<String, String> =
            pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        HarnessEnv::from_lookup(|name| map.get(name).cloned())
    }

    #[test]
    fn defaults_resolve_when_nothing_is_set() {
        let settings = PlanOverrides::default().resolve(&HarnessEnv::default());
        assert_eq!(settings.scale, DEFAULT_SCALE);
        assert_eq!(settings.size_max, DEFAULT_SIZE_MAX);
        assert_eq!(settings.matrix_budget, DEFAULT_MATRIX_BUDGET);
        assert_eq!(settings.store_dir, None);
        assert_eq!(settings.threads, None);
        assert_eq!(settings.retry, None);
        assert_eq!(settings.cell_deadline, None);
        assert_eq!(settings.observability, None);
        assert_eq!(settings.manifest_out, None);
    }

    #[test]
    fn observability_and_manifest_path_resolve_with_cli_precedence() {
        // LPA_OBS itself is read by lpa_obs (capture()); from_lookup keeps
        // the field None, so only the CLI layer can set it here.
        let env = env_of(&[("LPA_OBS", "on"), ("LPA_MANIFEST_OUT", "/tmp/m.json")]);
        assert_eq!(env.observability, None);
        assert_eq!(env.manifest_out, Some(PathBuf::from("/tmp/m.json")));
        let settings = PlanOverrides::default().resolve(&env);
        assert_eq!(settings.observability, None);
        assert_eq!(settings.manifest_out, Some(PathBuf::from("/tmp/m.json")));

        let cli = PlanOverrides {
            observability: Some(false),
            manifest_out: Some(PathBuf::from("/tmp/cli.json")),
            ..Default::default()
        };
        let settings = cli.resolve(&env);
        assert_eq!(settings.observability, Some(false));
        assert_eq!(settings.manifest_out, Some(PathBuf::from("/tmp/cli.json")));

        // An empty LPA_MANIFEST_OUT disables the artifact, same as unset.
        let env = env_of(&[("LPA_MANIFEST_OUT", "")]);
        assert_eq!(env.manifest_out, None);
    }

    #[test]
    fn retry_and_deadline_resolve_with_zero_meaning_off() {
        let env = env_of(&[("LPA_RETRY", "5"), ("LPA_CELL_DEADLINE_MS", "250")]);
        assert_eq!(env.retry, Some(5));
        assert_eq!(env.cell_deadline_ms, Some(250));
        let settings = PlanOverrides::default().resolve(&env);
        assert_eq!(settings.retry, Some(5));
        assert_eq!(settings.cell_deadline, Some(std::time::Duration::from_millis(250)));

        // CLI outranks the environment; a zero deadline disables it.
        let cli = PlanOverrides {
            retry: Some(0),
            cell_deadline_ms: Some(0),
            ..Default::default()
        };
        let settings = cli.resolve(&env);
        assert_eq!(settings.retry, Some(0), "retry 0 is a real budget (no retries)");
        assert_eq!(settings.cell_deadline, None, "deadline 0 means off");
    }

    #[test]
    fn env_lookup_parses_and_ignores_garbage() {
        let env = env_of(&[
            ("LPA_BENCH_SCALE", "3"),
            ("LPA_BENCH_SIZE_MAX", "not-a-number"),
            ("LPA_BENCH_MATRICES", "9"),
            ("LPA_STORE", "/tmp/s"),
        ]);
        assert_eq!(env.scale, Some(3));
        assert_eq!(env.size_max, None, "unparsable values fall through");
        assert_eq!(env.matrices, Some(9));
        assert_eq!(env.store_dir, Some(PathBuf::from("/tmp/s")));

        // An empty LPA_STORE disables the store, same as unset.
        let env = env_of(&[("LPA_STORE", "")]);
        assert_eq!(env.store_dir, None);
    }

    #[test]
    fn precedence_matrix_cli_beats_env_beats_default() {
        let env = env_of(&[
            ("LPA_BENCH_SCALE", "2"),
            ("LPA_BENCH_MATRICES", "12"),
            ("LPA_STORE", "/tmp/from-env"),
        ]);
        let env = HarnessEnv { observability: Some(false), ..env };
        let cli = PlanOverrides {
            scale: Some(5),
            store_dir: Some(PathBuf::from("/tmp/from-cli")),
            observability: Some(true),
            threads: Some(2),
            ..Default::default()
        };
        let settings = cli.resolve(&env);
        // CLI wins where both are set.
        assert_eq!(settings.scale, 5);
        assert_eq!(settings.store_dir, Some(PathBuf::from("/tmp/from-cli")));
        assert_eq!(settings.observability, Some(true));
        assert_eq!(settings.threads, Some(2));
        // Env wins where only it is set.
        assert_eq!(settings.matrix_budget, 12);
        // Default where neither is set.
        assert_eq!(settings.size_max, DEFAULT_SIZE_MAX);

        // And the pure-env / pure-default rows of the matrix.
        let settings = PlanOverrides::default().resolve(&env);
        assert_eq!(settings.scale, 2);
        assert_eq!(settings.observability, Some(false));
        assert_eq!(settings.threads, None);
    }

    /// The knob-doc table is the single source of CLI usage text: it must
    /// cover every override field (destructuring makes adding a field
    /// without a doc row a compile error here) and render every row.
    #[test]
    fn env_docs_cover_every_knob() {
        let PlanOverrides {
            scale: _,
            size_max: _,
            matrices: _,
            store_dir: _,
            threads: _,
            retry: _,
            cell_deadline_ms: _,
            observability: _,
            manifest_out: _,
        } = PlanOverrides::default();
        // 9 override fields + the env-only LPA_FAULTS and
        // LPA_NUMERICS_BUMP rows + the three LPA_SERVE_* daemon knobs.
        assert_eq!(ENV_DOCS.len(), 14, "one doc row per knob");

        let table = env_docs_table();
        for doc in ENV_DOCS {
            assert!(table.contains(doc.var), "{} missing from the table", doc.var);
            assert!(table.contains(doc.flag), "{} missing from the table", doc.flag);
        }
        assert!(table.contains("LPA_CELL_DEADLINE_MS"));
        assert!(table.contains("--cell-deadline-ms"));
    }

    #[test]
    fn scale_is_clamped_to_at_least_one() {
        let env = env_of(&[("LPA_BENCH_SCALE", "0")]);
        assert_eq!(PlanOverrides::default().resolve(&env).scale, 1);
    }
}
