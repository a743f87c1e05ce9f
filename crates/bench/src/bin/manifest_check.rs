//! Validate `run_manifest/v2` artifacts and (optionally) prove their
//! timing-masked determinism — the CI consumer of `reproduce
//! --manifest-out`.
//!
//! ```text
//! manifest_check FILE [FILE2]
//! ```
//!
//! Each file is parsed and checked against the `run_manifest/v2` schema
//! (`lpa_experiments::manifest::validate`). With two files, their
//! timing-masked renderings — wall times and the thread knob zeroed —
//! must additionally be byte-identical: that is the manifest determinism
//! contract across thread counts (for runs with matching store state).
//! Every verdict is a greppable `manifest:` line on stdout; any failure
//! exits 1.

use lpa_experiments::manifest;
use serde::Value;

fn fail(message: &str) -> ! {
    println!("manifest: {message}");
    std::process::exit(1);
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("{path}: cannot read: {e}")));
    let value: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("{path}: invalid JSON: {e:?}")));
    match manifest::validate(&value) {
        Ok(()) => println!("manifest: {path} is a valid run_manifest/v2"),
        Err(e) => fail(&format!("{path}: schema violation: {e}")),
    }
    value
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (first, second) = match args.as_slice() {
        [first] => (first, None),
        [first, second] => (first, Some(second)),
        _ => {
            eprintln!("usage: manifest_check FILE [FILE2]");
            std::process::exit(2);
        }
    };
    let a = load(first);
    let Some(second) = second else { return };
    let b = load(second);

    let masked = |v: &Value| {
        serde_json::to_string_pretty(&manifest::timing_masked(v))
            .expect("serialize masked manifest")
    };
    if masked(&a) == masked(&b) {
        println!("manifest: timing-masked manifests are byte-identical");
    } else {
        fail(&format!("{first} and {second} differ beyond timings"));
    }
}
