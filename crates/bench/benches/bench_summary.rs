//! Machine-readable micro-benchmark summary: `cargo bench -p lpa-bench
//! --bench bench_summary` writes `out/BENCH_micro.json` with median ns/op
//! per format for scalar add/mul (the format's own operators), per-element
//! dot and per-nonzero SpMV (at the element type the solver runs: the
//! 16/32/64-bit posits and takums at `Decoded<T>`, every other format at
//! its own type), the soft-float baselines for the table-served 8-bit
//! formats, the end-to-end wall time of a Figure-1 style experiment run,
//! and the cold-vs-warm cost of the same run through the persistent
//! `lpa-store` (the `store` block: hit/miss counters and wall times), and
//! the disarmed-span overhead pair (`<format>_obs`: the decoded dot with
//! and without an `lpa_obs::span` opened per call).  The run also asserts
//! the four 8-bit LUT-tier dots stay within 1.5x of each other — the
//! takum8 outlier from the v6 trajectory must not come back.
//!
//! The file gives future PRs a perf trajectory to compare against; keep the
//! schema (`lpa-bench-micro/v10`) stable or bump the version.  The config
//! block records the `LPA_FAULTS` and `LPA_OBS` states next to the numbers
//! — perf is only comparable between runs with matching gate states.  CI
//! regenerates the file and prints greppable `bench-delta:` lines against
//! the committed copy (see the `bench_delta` binary).

use std::time::Instant;

use lpa_arith::types::{
    Bf16, E4M3, E5M2, F16, Posit16, Posit32, Posit64, Posit8, Takum16, Takum32, Takum64, Takum8,
};
use lpa_arith::{Dd, Decoded, Real};
use lpa_datagen::general;
use lpa_experiments::ExperimentPlan;
use lpa_sparse::CsrMatrix;
use lpa_store::{ArtifactKind, CountersSnapshot, Store};
use serde::Value;

const DOT_LEN: usize = 1024;
const SCALAR_LEN: usize = 512;

/// Median ns per call of `f` across several samples, with the iteration
/// count calibrated so each sample runs at least 20 ms: nine samples then
/// span ~0.2 s per key, long enough that one slow stretch of a shared host
/// does not move a whole row.
fn median_ns_per_call<F: FnMut()>(mut f: F) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 20 || iters > 1 << 28 {
            break;
        }
        iters *= 4;
    }
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    let mut s = samples;
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample times"));
    s[s.len() / 2]
}

/// Values whose running sums and products stay well inside every format's
/// dynamic range (even E4M3's ±448): magnitudes alternate between m and
/// 1/m so the mul chain's product is bounded, and signs alternate so the
/// add chain's partial sums are bounded — every iteration exercises the
/// full normalize-and-round path rather than saturation/overflow
/// early-outs.
fn operands<T: Real>() -> Vec<T> {
    (0..SCALAR_LEN)
        .map(|i| {
            let m = 0.5 + (i % 13) as f64 * 0.11;
            T::from_f64(if i % 2 == 0 { m } else { -1.0 / m })
        })
        .collect()
}

fn scalar_add_ns<T: Real>() -> f64 {
    let xs = operands::<T>();
    median_ns_per_call(|| {
        let mut acc = T::zero();
        for &x in &xs {
            acc += x;
        }
        std::hint::black_box(acc);
    }) / SCALAR_LEN as f64
}

fn scalar_mul_ns<T: Real>() -> f64 {
    let xs = operands::<T>();
    median_ns_per_call(|| {
        let mut acc = T::one();
        for &x in &xs {
            acc *= x;
        }
        std::hint::black_box(acc);
    }) / SCALAR_LEN as f64
}

fn dot_operands<T: Real>() -> (Vec<T>, Vec<T>) {
    // Alternating signs keep the 1024-term accumulator inside E4M3's range.
    let x = (0..DOT_LEN)
        .map(|i| T::from_f64((0.6 + (i % 7) as f64 * 0.09) * if i % 2 == 0 { 1.0 } else { -1.0 }))
        .collect::<Vec<_>>();
    let y = (0..DOT_LEN).map(|i| T::from_f64(0.4 + (i % 11) as f64 * 0.07)).collect::<Vec<_>>();
    (x, y)
}

/// Dot through the BLAS entry point the solver's Gram–Schmidt calls.
fn dot_ns<T: Real>() -> f64 {
    let (x, y) = dot_operands::<T>();
    median_ns_per_call(|| {
        std::hint::black_box(lpa_dense::blas::dot(std::hint::black_box(&x), &y));
    }) / DOT_LEN as f64
}

/// SpMV through `CsrMatrix::spmv`, the solver's operator.
fn spmv_ns<T: Real>(a64: &CsrMatrix<f64>) -> f64 {
    let a: CsrMatrix<T> = a64.convert();
    let x: Vec<T> = (0..a.ncols()).map(|i| T::from_f64(0.3 + (i % 5) as f64 * 0.14)).collect();
    let mut y = vec![T::zero(); a.nrows()];
    let nnz = a.nnz() as f64;
    median_ns_per_call(move || {
        a.spmv(std::hint::black_box(&x), &mut y);
        std::hint::black_box(&y);
    }) / nnz
}

/// One format's entry: scalar add/mul chains through the format type `T`,
/// dot and SpMV at `S`, the element type the solver runs for it.
fn format_entry<T: Real, S: Real>(a64: &CsrMatrix<f64>) -> (String, Value) {
    let map = vec![
        ("add".to_string(), Value::Num(scalar_add_ns::<T>())),
        ("mul".to_string(), Value::Num(scalar_mul_ns::<T>())),
        ("dot".to_string(), Value::Num(dot_ns::<S>())),
        ("spmv".to_string(), Value::Num(spmv_ns::<S>(a64))),
    ];
    (json_name(T::NAME), Value::Map(map))
}

/// Disarmed-span overhead pair (`<format>_obs`): the identical dot with
/// and without an `lpa_obs::span` opened per call. While `LPA_OBS` is
/// unset the span costs one relaxed atomic load and a branch; the
/// `bench-delta:` CI guard compares both keys against the committed
/// baseline so a regression in the disarmed path cannot land silently.
fn obs_span_entry<T: Real>() -> (String, Value) {
    let (x, y) = dot_operands::<T>();
    let dot = |x: &[T], y: &[T]| lpa_dense::blas::dot(x, y);
    let with_span = median_ns_per_call(|| {
        let _span = lpa_obs::span(lpa_obs::STORE_GET);
        std::hint::black_box(dot(std::hint::black_box(&x), &y));
    }) / DOT_LEN as f64;
    let without_span = median_ns_per_call(|| {
        std::hint::black_box(dot(std::hint::black_box(&x), &y));
    }) / DOT_LEN as f64;
    (
        format!("{}_obs", json_name(T::NAME)),
        Value::Map(vec![
            ("dot_with_disarmed_span".to_string(), Value::Num(with_span)),
            ("dot_without_span".to_string(), Value::Num(without_span)),
        ]),
    )
}

/// JSON-friendly format keys ("OFP8 E4M3" → "ofp8_e4m3").
fn json_name(name: &str) -> String {
    name.to_lowercase().replace([' ', '(', ')', '='], "_").replace("__", "_")
}

/// Soft-float baseline for a table-served 8-bit format (same chains as
/// `scalar_add_ns`/`scalar_mul_ns` but through the reference path, which
/// pays the full bitfield decode on every operand).
macro_rules! softfloat_baseline {
    ($t:ty, $a64:expr, $out:expr) => {{
        let xs = operands::<$t>();
        let add = median_ns_per_call(|| {
            let mut acc = <$t>::zero();
            for &x in &xs {
                acc = acc.softfloat_add(x);
            }
            std::hint::black_box(acc);
        }) / SCALAR_LEN as f64;
        let mul = median_ns_per_call(|| {
            let mut acc = <$t>::one();
            for &x in &xs {
                acc = acc.softfloat_mul(x);
            }
            std::hint::black_box(acc);
        }) / SCALAR_LEN as f64;
        $out.push((
            format!("{}_softfloat", json_name(<$t>::NAME)),
            Value::Map(vec![
                ("add".to_string(), Value::Num(add)),
                ("mul".to_string(), Value::Num(mul)),
            ]),
        ));
    }};
}

fn main() {
    let a64 = general::laplacian_2d(24, 24, 1.0);

    println!("collecting per-format micro-benchmarks (median ns/op)...");
    let mut formats: Vec<(String, Value)> = vec![
        format_entry::<E4M3, E4M3>(&a64),
        format_entry::<E5M2, E5M2>(&a64),
        format_entry::<Posit8, Posit8>(&a64),
        format_entry::<Takum8, Takum8>(&a64),
        format_entry::<F16, F16>(&a64),
        format_entry::<Bf16, Bf16>(&a64),
        format_entry::<Posit16, Decoded<Posit16>>(&a64),
        format_entry::<Takum16, Decoded<Takum16>>(&a64),
        format_entry::<f32, f32>(&a64),
        format_entry::<Posit32, Decoded<Posit32>>(&a64),
        format_entry::<Takum32, Decoded<Takum32>>(&a64),
        format_entry::<f64, f64>(&a64),
        format_entry::<Posit64, Decoded<Posit64>>(&a64),
        format_entry::<Takum64, Decoded<Takum64>>(&a64),
        format_entry::<Dd, Dd>(&a64),
    ];
    softfloat_baseline!(E4M3, &a64, formats);
    softfloat_baseline!(E5M2, &a64, formats);
    softfloat_baseline!(Posit8, &a64, formats);
    softfloat_baseline!(Takum8, &a64, formats);
    // Disarmed tracing-span overhead pairs (the obs analogue of the
    // fault-point pair in `micro_kernels`).
    formats.push(obs_span_entry::<Decoded<Posit32>>());
    formats.push(obs_span_entry::<Decoded<Takum32>>());

    for (name, entry) in &formats {
        if let Value::Map(ops) = entry {
            let line: Vec<String> = ops
                .iter()
                .map(|(op, v)| match v {
                    Value::Num(x) => format!("{op} {x:8.2}"),
                    _ => String::new(),
                })
                .collect();
            println!("  {name:<22} {}", line.join("  "));
        }
    }

    // The four 8-bit formats share the same LUT-tier kernels; their dots
    // must stay within 1.5x of each other (the v6 trajectory had a stale
    // takum8 outlier at ~1.9x that this pin keeps from coming back).
    let dot_of = |key: &str| -> f64 {
        let Some((_, Value::Map(ops))) = formats.iter().find(|(n, _)| n == key) else {
            panic!("missing format entry {key}");
        };
        match ops.iter().find(|(op, _)| op == "dot") {
            Some((_, Value::Num(x))) => *x,
            _ => panic!("missing dot in {key}"),
        }
    };
    let lut_dots =
        ["ofp8_e4m3", "ofp8_e5m2", "posit8", "takum8"].map(|k| (k, dot_of(k)));
    let (lo_name, lo) =
        lut_dots.iter().copied().min_by(|a, b| a.1.total_cmp(&b.1)).expect("nonempty");
    let (hi_name, hi) =
        lut_dots.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1)).expect("nonempty");
    println!("  8-bit dot spread: {lo_name} {lo:.2} .. {hi_name} {hi:.2} ({:.2}x)", hi / lo);
    assert!(
        hi <= lo * 1.5,
        "8-bit LUT-tier dot spread exceeds 1.5x: {hi_name} {hi:.2} vs {lo_name} {lo:.2}"
    );

    println!("running figure-1 style end-to-end experiment...");
    let settings = lpa_bench::HarnessSettings::from_env();
    let corpus = lpa_bench::general_bench_corpus(&settings);
    let cfg = lpa_bench::bench_experiment_config();
    let start = Instant::now();
    let results = ExperimentPlan::over(&corpus).config(cfg.clone()).run();
    let figure1_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "  {} matrices x {} formats in {:.0} ms ({} skipped)",
        results.matrices.len(),
        results.formats.len(),
        figure1_wall_ms,
        results.skipped.len()
    );

    // Persistent-store trajectory: the same experiment through a scratch
    // store, cold (populating) and warm (a fresh handle, so every hit is a
    // disk read like a second harness process would see).
    println!("running the same experiment through a scratch lpa-store (cold, then warm)...");
    let store_dir = std::env::temp_dir().join(format!("lpa-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let run_with = |store: &Store| {
        let start = Instant::now();
        let r = ExperimentPlan::over(&corpus).config(cfg.clone()).store(store).run();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&r);
        (
            wall_ms,
            store.stats().snapshot(ArtifactKind::Reference),
            store.stats().snapshot(ArtifactKind::Outcome),
        )
    };
    let cold_store = Store::open(&store_dir).expect("open scratch store");
    let (cold_ms, cold_ref, cold_out) = run_with(&cold_store);
    let warm_store = Store::open(&store_dir).expect("reopen scratch store");
    let (warm_ms, warm_ref, warm_out) = run_with(&warm_store);
    let _ = std::fs::remove_dir_all(&store_dir);
    println!(
        "  cold {cold_ms:.0} ms ({} reference misses), warm {warm_ms:.0} ms ({} reference hits, {} misses)",
        cold_ref.misses,
        warm_ref.hits(),
        warm_ref.misses
    );
    let store_run_entry = |wall_ms: f64, r: &CountersSnapshot, o: &CountersSnapshot| {
        Value::Map(vec![
            ("wall_ms".to_string(), Value::Num(wall_ms)),
            ("reference_hits".to_string(), Value::Num(r.hits() as f64)),
            ("reference_misses".to_string(), Value::Num(r.misses as f64)),
            ("outcome_hits".to_string(), Value::Num(o.hits() as f64)),
            ("outcome_misses".to_string(), Value::Num(o.misses as f64)),
            ("bytes_written".to_string(), Value::Num((r.bytes_written + o.bytes_written) as f64)),
            ("bytes_read".to_string(), Value::Num((r.bytes_read + o.bytes_read) as f64)),
        ])
    };

    let summary = Value::Map(vec![
        ("schema".to_string(), Value::Str("lpa-bench-micro/v10".to_string())),
        (
            "config".to_string(),
            Value::Map(vec![
                ("scalar_chain_len".to_string(), Value::Num(SCALAR_LEN as f64)),
                ("dot_len".to_string(), Value::Num(DOT_LEN as f64)),
                ("spmv_matrix".to_string(), Value::Str("laplacian_2d 24x24".to_string())),
                ("units".to_string(), Value::Str("ns per scalar op / element / nnz".to_string())),
                ("threads".to_string(), Value::Num(rayon::current_num_threads() as f64)),
                (
                    "figure1_matrices".to_string(),
                    Value::Num((results.matrices.len() + results.skipped.len()) as f64),
                ),
                // Perf numbers are only comparable between runs with the
                // same fault state; a benchmark under an armed LPA_FAULTS
                // spec self-identifies instead of silently polluting the
                // trajectory.
                (
                    "faults".to_string(),
                    Value::Str(lpa_faults::active_spec().unwrap_or_else(|| "disarmed".to_string())),
                ),
                // Same comparability rule for the tracing gate: an armed
                // LPA_OBS run self-identifies next to its numbers.
                ("obs".to_string(), Value::Str(lpa_obs::state_name().to_string())),
            ]),
        ),
        ("ns_per_op".to_string(), Value::Map(formats)),
        ("figure1_wall_ms".to_string(), Value::Num(figure1_wall_ms)),
        (
            "store".to_string(),
            Value::Map(vec![
                ("cold".to_string(), store_run_entry(cold_ms, &cold_ref, &cold_out)),
                ("warm".to_string(), store_run_entry(warm_ms, &warm_ref, &warm_out)),
            ]),
        ),
    ]);

    let path = lpa_bench::out_dir().join("BENCH_micro.json");
    let json = serde_json::to_string_pretty(&summary).expect("serialize benchmark summary");
    std::fs::write(&path, json + "\n").expect("write BENCH_micro.json");
    println!("wrote {}", path.display());
}
