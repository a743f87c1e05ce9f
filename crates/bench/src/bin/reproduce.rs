//! Reproduce every table and figure of the paper in one run.
//!
//! ```text
//! cargo run --release -p lpa-bench --bin reproduce -- \
//!     [--experiment figureN|table1|all] [--scale K] [--size-max N] [--matrices M] \
//!     [--store DIR] [--threads T] [--retry N] [--cell-deadline-ms MS] \
//!     [--obs on|off] [--manifest-out FILE]
//! ```
//!
//! CSV artifacts are written to `out/`. Every flag builds a
//! [`PlanOverrides`] entry that outranks the matching environment variable
//! (`--store` beats `LPA_STORE`, `--scale` beats `LPA_BENCH_SCALE`, …) —
//! the process environment is never mutated. `--store DIR` backs the run
//! with the persistent experiment store, so repeating a run reuses every
//! double-double reference solve.  `--help` prints the full flag ↔
//! environment-variable table, rendered from
//! `lpa_experiments::harness::ENV_DOCS` so the docs cannot drift from the
//! knobs.

use lpa_bench::{HarnessEnv, PlanOverrides};
use lpa_datagen::GraphClass;

const USAGE: &str = "usage: reproduce [--experiment figureN|table1|all] [flags]";

/// The full usage text: the one-liner plus the flag ↔ environment-variable
/// table generated from the harness's knob docs.
fn usage_text() -> String {
    format!(
        "{USAGE}\n\nflags (each outranks its environment variable; flag > env > default):\n{}",
        lpa_experiments::harness::env_docs_table()
    )
}

fn usage_error(message: &str) -> ! {
    eprintln!("reproduce: {message}");
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

/// The value of a `--flag VALUE` pair; a missing value is a hard error —
/// silently proceeding without (say) `--store` would recompute a whole
/// sweep and persist nothing.
fn flag_value(args: &[String], i: usize) -> String {
    args.get(i + 1).cloned().unwrap_or_else(|| usage_error(&format!("{} needs a value", args[i])))
}

/// Same, parsed; a garbled CLI value is a hard error, unlike environment
/// variables (which fall through to the next precedence level).
fn parsed_flag<T: std::str::FromStr>(args: &[String], i: usize) -> T {
    let raw = flag_value(args, i);
    raw.parse().unwrap_or_else(|_| usage_error(&format!("{} got invalid value {raw:?}", args[i])))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut experiment = "all".to_string();
    let mut overrides = PlanOverrides::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--experiment" => experiment = flag_value(&args, i),
            "--scale" => overrides.scale = Some(parsed_flag(&args, i)),
            "--size-max" => overrides.size_max = Some(parsed_flag(&args, i)),
            "--matrices" => overrides.matrices = Some(parsed_flag(&args, i)),
            "--store" => overrides.store_dir = Some(flag_value(&args, i).into()),
            "--threads" => overrides.threads = Some(parsed_flag(&args, i)),
            "--retry" => overrides.retry = Some(parsed_flag(&args, i)),
            "--cell-deadline-ms" => overrides.cell_deadline_ms = Some(parsed_flag(&args, i)),
            "--obs" => {
                let raw = flag_value(&args, i);
                overrides.observability = Some(lpa_obs::parse_switch(&raw).unwrap_or_else(|| {
                    usage_error(&format!("--obs got invalid value {raw:?}"))
                }));
            }
            "--manifest-out" => overrides.manifest_out = Some(flag_value(&args, i).into()),
            "--help" | "-h" => {
                println!("{}", usage_text());
                return;
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
        i += 2;
    }
    let settings = overrides.resolve(&HarnessEnv::capture());

    let want = |name: &str| experiment == "all" || experiment == name;
    let mut matched = false;
    if want("table1") {
        matched = true;
        print_table1(&settings);
    }
    if want("figure1") {
        matched = true;
        lpa_bench::run_figure(
            "figure1",
            "general matrices",
            &lpa_bench::general_bench_corpus(&settings),
            &settings,
        );
    }
    for (name, class, title) in [
        ("figure2", GraphClass::Biological, "biological graph Laplacians"),
        ("figure3", GraphClass::Infrastructure, "infrastructure graph Laplacians"),
        ("figure4", GraphClass::Social, "social graph Laplacians"),
        ("figure5", GraphClass::Miscellaneous, "miscellaneous graph Laplacians"),
    ] {
        if want(name) {
            matched = true;
            lpa_bench::run_figure(
                name,
                title,
                &lpa_bench::class_bench_corpus(class, &settings),
                &settings,
            );
        }
    }
    if !matched {
        usage_error(&format!("unknown experiment {experiment:?}"));
    }
}

fn print_table1(settings: &lpa_bench::HarnessSettings) {
    let cfg = lpa_bench::bench_corpus_config(settings);
    let corpus = lpa_datagen::graph_corpus(&cfg);
    println!("=== table1: graph classification ===");
    for (cat, class, count) in lpa_datagen::category_counts(&corpus) {
        println!("{:<16} {:<16} {:>5}", class.name(), cat, count);
    }
}
