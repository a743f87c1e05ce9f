//! Records the compiler version and (when built from a git checkout) the
//! commit, for the host fingerprint every result prints.

use std::path::Path;
use std::process::Command;

fn run(cmd: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn main() {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo");
    let dir = Path::new(&manifest_dir);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(&rustc, &["--version"], dir).unwrap_or_else(|| "unknown".into());
    let commit =
        run("git", &["rev-parse", "--short=12", "HEAD"], dir).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=GRIDBENCH_RUSTC={version}");
    println!("cargo:rustc-env=GRIDBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp the commit when HEAD moves; only paths that exist are
    // watched (a missing path would make cargo rebuild on every run).
    if let Some(git_dir) = run("git", &["rev-parse", "--git-dir"], dir) {
        let git_dir = dir.join(git_dir);
        for watched in ["HEAD", "packed-refs"] {
            if git_dir.join(watched).exists() {
                println!("cargo:rerun-if-changed={}", git_dir.join(watched).display());
            }
        }
        if let Some(head_ref) = run("git", &["symbolic-ref", "-q", "HEAD"], dir) {
            let path = git_dir.join(head_ref);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
}
