//! # lpa-faults — vendored fail-point facility
//!
//! A minimal, dependency-free take on the `fail_point!` pattern that
//! production stores (tikv-fail, Sui) build their failure testing on:
//! every interesting failure mode of the workspace is a **named fault
//! point**, armed from the outside, so crash isolation, store healing and
//! retry policies can be exercised deterministically in tests and CI
//! without ever shipping a "break things" code path that is on by default.
//!
//! ## Fault points
//!
//! The registry is fixed (arming an unknown name is a configuration error,
//! not a silent no-op):
//!
//! | point                | effect at the instrumented site                  |
//! |----------------------|--------------------------------------------------|
//! | `store.read.corrupt` | artifact bytes are flipped after the disk read   |
//! | `store.write.torn`   | the artifact frame is truncated before the write |
//! | `store.io.transient` | the raw I/O op fails with `ErrorKind::Interrupted` |
//! | `solver.panic`       | the solve panics (`injected fault: solver.panic`) |
//! | `solver.stall`       | each Arnoldi restart sleeps ~25 ms               |
//!
//! ## Arming: the `LPA_FAULTS` spec
//!
//! Per the harness knob discipline, the environment variable is read in
//! exactly one place — this module. Grammar (comma-separated, no spaces
//! required):
//!
//! ```text
//! LPA_FAULTS="<point>=<trigger>[,<point>=<trigger>...][,seed=N]"
//! trigger := off | once | always | prob:P        (0 <= P <= 1)
//! ```
//!
//! e.g. `LPA_FAULTS="store.read.corrupt=prob:0.2,solver.panic=once,seed=7"`.
//! `once` fires on the first evaluation only; `prob:P` draws from a
//! splitmix64 stream seeded by `seed ^ hash(point)` and advanced once per
//! evaluation, so a given spec fires at exactly the same evaluation indices
//! on every run. A malformed spec or unknown point name panics: a typo
//! must not silently disarm a fault run.
//!
//! ## Disarmed cost
//!
//! When `LPA_FAULTS` is unset (every production run), [`fired`] compiles to
//! a single relaxed atomic load and a branch — the spec registry, the RNG
//! and the string comparison are all behind the armed branch. The
//! `micro_kernels` bench guards this.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Artifact bytes are corrupted in memory after the disk read.
pub const STORE_READ_CORRUPT: &str = "store.read.corrupt";
/// The encoded artifact frame is truncated before the disk write.
pub const STORE_WRITE_TORN: &str = "store.write.torn";
/// A raw store I/O operation fails with a retryable error.
pub const STORE_IO_TRANSIENT: &str = "store.io.transient";
/// The solver panics at the start of a solve.
pub const SOLVER_PANIC: &str = "solver.panic";
/// Each Arnoldi restart sleeps, so deadlines can be exercised quickly.
pub const SOLVER_STALL: &str = "solver.stall";
/// An `lpa-serve` worker panics at the start of a request — exercises
/// the daemon's unwind isolation (degraded but alive, typed error
/// response, permit returned).
pub const SERVE_WORKER_PANIC: &str = "serve.worker.panic";

/// Every fault point the workspace defines.
pub const POINTS: [&str; 6] = [
    STORE_READ_CORRUPT,
    STORE_WRITE_TORN,
    STORE_IO_TRANSIENT,
    SOLVER_PANIC,
    SOLVER_STALL,
    SERVE_WORKER_PANIC,
];

const UNSET: u8 = 0;
const DISARMED: u8 = 1;
const ARMED: u8 = 2;

/// Tri-state gate: `UNSET` until the first evaluation, then `DISARMED`
/// (the permanent state of every production run — one relaxed load) or
/// `ARMED` (the spec registry is consulted).
static STATE: AtomicU8 = AtomicU8::new(UNSET);

/// The armed spec; only locked on the armed path and while (dis)arming.
static SPEC: Mutex<Option<Spec>> = Mutex::new(None);

/// Serializes tests that arm the process-global registry.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

#[derive(Clone, Copy, Debug, PartialEq)]
enum Trigger {
    Off,
    Once,
    Always,
    Prob(f64),
}

#[derive(Debug)]
struct PointState {
    name: &'static str,
    trigger: Trigger,
    /// `once` not yet consumed.
    pending_once: bool,
    /// Evaluations so far (the `prob` stream position).
    draws: u64,
}

#[derive(Debug)]
struct Spec {
    /// The original spec string, for reporting (bench config, logs).
    text: String,
    seed: u64,
    points: Vec<PointState>,
}

/// Should the named fault point fire now? Disarmed cost: one relaxed
/// atomic load. Panics if `name` is not in [`POINTS`] while armed.
#[inline]
pub fn fired(name: &'static str) -> bool {
    match STATE.load(Ordering::Relaxed) {
        DISARMED => false,
        ARMED => fired_armed(name),
        _ => {
            init_from_env();
            fired(name)
        }
    }
}

/// Is any fault armed at all (after lazy env initialization)?
pub fn armed() -> bool {
    if STATE.load(Ordering::Relaxed) == UNSET {
        init_from_env();
    }
    STATE.load(Ordering::Relaxed) == ARMED
}

/// The armed spec string, if any — for run provenance (bench config).
pub fn active_spec() -> Option<String> {
    if !armed() {
        return None;
    }
    lock_spec().as_ref().map(|s| s.text.clone())
}

/// Panic with a recognizable message when the point fires. The injected
/// panic is what the driver's per-cell `catch_unwind` turns into
/// `Outcome::Crashed`.
#[inline]
pub fn inject_panic(name: &'static str) {
    if fired(name) {
        panic!("injected fault: {name}");
    }
}

/// Sleep ~25 ms when the point fires (long against any test deadline,
/// short against a test suite).
#[inline]
pub fn stall(name: &'static str) {
    if fired(name) {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

/// Deterministically corrupt `bytes` in place when the point fires: the
/// middle byte is flipped (every bit), which defeats any checksum while
/// keeping the damage reproducible.
#[inline]
pub fn corrupt_if(name: &'static str, bytes: &mut [u8]) {
    if fired(name) && !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
    }
}

/// Arm the registry programmatically for the lifetime of the returned
/// guard, which also serializes concurrent arming tests (the registry is
/// process-global). Dropping the guard disarms everything.
pub struct FaultScope {
    _serial: MutexGuard<'static, ()>,
}

impl FaultScope {
    /// Parse and arm `spec` (same grammar as `LPA_FAULTS`); panics on a
    /// malformed spec.
    pub fn arm(spec: &str) -> FaultScope {
        let serial = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(parse_spec(spec).unwrap_or_else(|e| panic!("fault spec: {e}")));
        FaultScope { _serial: serial }
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        *lock_spec() = None;
        STATE.store(DISARMED, Ordering::Relaxed);
    }
}

fn lock_spec() -> MutexGuard<'static, Option<Spec>> {
    // An injected panic can never unwind while this lock is held (all
    // helpers release it before panicking), but a *test* panic elsewhere
    // may poison it; the registry is always in a consistent state.
    SPEC.lock().unwrap_or_else(|e| e.into_inner())
}

fn install(spec: Spec) {
    *lock_spec() = Some(spec);
    STATE.store(ARMED, Ordering::Relaxed);
}

/// First-evaluation path: parse `LPA_FAULTS` (the variable's only read in
/// the workspace) and settle the gate. Racing threads both parse; the
/// result is identical, and the gate is monotone `UNSET -> {DISARMED,ARMED}`.
#[cold]
fn init_from_env() {
    let value = std::env::var("LPA_FAULTS").ok().filter(|v| !v.trim().is_empty());
    match value {
        None => {
            let _ = STATE.compare_exchange(UNSET, DISARMED, Ordering::Relaxed, Ordering::Relaxed);
        }
        Some(text) => {
            install(parse_spec(&text).unwrap_or_else(|e| panic!("LPA_FAULTS: {e}")));
        }
    }
}

#[cold]
fn fired_armed(name: &'static str) -> bool {
    let mut guard = lock_spec();
    let Some(spec) = guard.as_mut() else { return false };
    let seed = spec.seed;
    let Some(p) = spec.points.iter_mut().find(|p| p.name == name) else {
        assert!(POINTS.contains(&name), "unknown fault point {name:?} evaluated");
        return false;
    };
    let draw = p.draws;
    p.draws += 1;
    match p.trigger {
        Trigger::Off => false,
        Trigger::Always => true,
        Trigger::Once => {
            let fire = p.pending_once;
            p.pending_once = false;
            fire
        }
        Trigger::Prob(prob) => {
            let r = splitmix64(seed ^ fnv1a(name.as_bytes()) ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // 53 uniform bits -> [0, 1).
            let u = (r >> 11) as f64 / (1u64 << 53) as f64;
            u < prob
        }
    }
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let mut seed = 0u64;
    let mut points: Vec<PointState> = Vec::new();
    for part in text.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, value) = part
            .split_once('=')
            .ok_or_else(|| format!("expected <point>=<trigger>, got {part:?}"))?;
        let (name, value) = (name.trim(), value.trim());
        if name == "seed" {
            seed = value.parse().map_err(|_| format!("seed must be an integer, got {value:?}"))?;
            continue;
        }
        let canonical = *POINTS
            .iter()
            .find(|p| **p == name)
            .ok_or_else(|| format!("unknown fault point {name:?} (known: {})", POINTS.join(", ")))?;
        if points.iter().any(|p| p.name == canonical) {
            return Err(format!("fault point {name:?} armed twice"));
        }
        let trigger = parse_trigger(value)?;
        points.push(PointState {
            name: canonical,
            trigger,
            pending_once: trigger == Trigger::Once,
            draws: 0,
        });
    }
    if points.is_empty() {
        return Err("no fault points armed".to_string());
    }
    Ok(Spec { text: text.to_string(), seed, points })
}

fn parse_trigger(value: &str) -> Result<Trigger, String> {
    match value {
        "off" => Ok(Trigger::Off),
        "once" => Ok(Trigger::Once),
        "always" => Ok(Trigger::Always),
        _ => match value.strip_prefix("prob:") {
            Some(p) => {
                let p: f64 =
                    p.parse().map_err(|_| format!("prob wants a number, got {value:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("prob {p} outside [0, 1]"));
                }
                Ok(Trigger::Prob(p))
            }
            None => Err(format!("unknown trigger {value:?} (off|once|always|prob:P)")),
        },
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests share the process-global registry; FaultScope serializes
    // them, and the disarmed assertions run inside a scope-free window of
    // their own lock acquisition.

    #[test]
    fn disarmed_points_never_fire() {
        let _serial = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        *lock_spec() = None;
        STATE.store(DISARMED, Ordering::Relaxed);
        for p in POINTS {
            assert!(!fired(p));
        }
        let mut bytes = vec![1, 2, 3];
        corrupt_if(STORE_READ_CORRUPT, &mut bytes);
        assert_eq!(bytes, vec![1, 2, 3]);
        inject_panic(SOLVER_PANIC); // must not panic
    }

    #[test]
    fn once_fires_exactly_once_and_always_always() {
        let _scope = FaultScope::arm("solver.panic=once,solver.stall=always");
        assert!(fired(SOLVER_PANIC));
        assert!(!fired(SOLVER_PANIC));
        assert!(!fired(SOLVER_PANIC));
        assert!(fired(SOLVER_STALL));
        assert!(fired(SOLVER_STALL));
        // Unarmed (but known) points do not fire.
        assert!(!fired(STORE_READ_CORRUPT));
    }

    #[test]
    fn prob_stream_is_deterministic_and_roughly_calibrated() {
        let draws = |spec: &str| -> Vec<bool> {
            let _scope = FaultScope::arm(spec);
            (0..400).map(|_| fired(STORE_READ_CORRUPT)).collect()
        };
        let a = draws("store.read.corrupt=prob:0.2,seed=7");
        let b = draws("store.read.corrupt=prob:0.2,seed=7");
        assert_eq!(a, b, "same spec, same stream");
        let hits = a.iter().filter(|&&x| x).count();
        assert!((40..=160).contains(&hits), "p=0.2 over 400 draws fired {hits} times");
        let c = draws("store.read.corrupt=prob:0.2,seed=8");
        assert_ne!(a, c, "different seed, different stream");
        // Edge probabilities are exact.
        assert!(draws("store.read.corrupt=prob:1").iter().all(|&x| x));
        assert!(!draws("store.read.corrupt=prob:0").iter().any(|&x| x));
    }

    #[test]
    fn corrupt_if_flips_one_byte_deterministically() {
        let _scope = FaultScope::arm("store.read.corrupt=always");
        let mut bytes = vec![0u8; 9];
        corrupt_if(STORE_READ_CORRUPT, &mut bytes);
        assert_eq!(bytes.iter().filter(|&&b| b == 0xff).count(), 1);
        assert_eq!(bytes[4], 0xff);
        let mut empty: Vec<u8> = Vec::new();
        corrupt_if(STORE_READ_CORRUPT, &mut empty); // must not panic
    }

    #[test]
    fn inject_panic_panics_with_the_point_name() {
        let _scope = FaultScope::arm("solver.panic=always");
        let err = std::panic::catch_unwind(|| inject_panic(SOLVER_PANIC)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "injected fault: solver.panic");
    }

    #[test]
    fn spec_parser_rejects_garbage() {
        for bad in [
            "store.read.corrupt",          // no trigger
            "store.read.korrupt=once",     // unknown point
            "store.read.corrupt=sometimes", // unknown trigger
            "store.read.corrupt=prob:1.5", // out of range
            "store.read.corrupt=prob:x",   // not a number
            "seed=zzz",                    // bad seed
            "seed=3",                      // no points at all
            "",                            // empty
            "solver.panic=once,solver.panic=always", // duplicate
        ] {
            assert!(parse_spec(bad).is_err(), "{bad:?} should be rejected");
        }
        let spec = parse_spec(" solver.panic = once , seed = 42 ").unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.points.len(), 1);
        assert_eq!(spec.points[0].trigger, Trigger::Once);
    }

    #[test]
    fn active_spec_reports_the_armed_text() {
        let _scope = FaultScope::arm("solver.stall=off");
        assert!(armed());
        assert_eq!(active_spec().as_deref(), Some("solver.stall=off"));
    }
}
