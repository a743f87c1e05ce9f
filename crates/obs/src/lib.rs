//! # lpa-obs — vendored observability layer
//!
//! The workspace's metrics/tracing substrate: a process-global (and
//! instantiable) [`Registry`] of named counters/gauges/histograms, a
//! `span`-style tracing facility with a bounded ring buffer, and a
//! canonical JSON rendering (`lpa-obs-registry/v1`) that the run manifest,
//! the `lpa-store` CLI and the figure harnesses all share. Everything is
//! dependency-free (the vendored `serde` Value is the only import), so the
//! later `lpa-serve` and sharded-store work inherit observability instead
//! of retrofitting it.
//!
//! ## Arming: the `LPA_OBS` knob
//!
//! Per the harness knob discipline the environment variable is read in
//! exactly one place — this module. `LPA_OBS=1|on|true` arms span
//! recording; `0|off|false` (or unset) leaves it disarmed; anything else
//! panics (a typo must not silently disarm an observability run, mirroring
//! `LPA_FAULTS`). Programmatic arming goes through
//! `ExperimentPlan::observability(..)` (a restore guard around [`force`])
//! or, in tests, the serializing [`ObsScope`].
//!
//! ## Disarmed cost
//!
//! When disarmed (every production run), [`span`] compiles to a single
//! relaxed atomic load and a branch — the ring buffer, the clock reads and
//! the aggregate map are all behind the armed branch, following the
//! `lpa-faults` gate pattern exactly. The `micro_kernels` bench pair
//! `obs/*/dot_with_disarmed_span` vs `dot_without_span` guards this.
//!
//! **Metrics counters are always live**: they are monotone relaxed atomics
//! on paths that are already I/O- or solve-dominated (store lookups, cell
//! assembly), never in arithmetic kernels, so they need no gate.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

pub mod registry;
pub mod span;

pub use registry::{
    counters_value, global, Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS,
    REGISTRY_SCHEMA,
};
pub use span::{span, Span, SpanAggregate, SpanRecord, RING_CAPACITY};

/// One double-double reference solve (a session stage-1 cell).
pub const REFERENCE_SOLVE: &str = "session.reference.solve";
/// One (matrix, format) low-precision solve (a session stage-2 cell).
pub const CELL_SOLVE: &str = "session.cell.solve";
/// A store lookup's I/O side (in-process cache check + disk read).
pub const STORE_GET: &str = "store.get";
/// A store artifact write (frame encode + atomic tmp/rename).
pub const STORE_PUT: &str = "store.put";
/// One Krylov–Schur restart iteration (expansion + projected Schur).
pub const ARNOLDI_RESTART: &str = "arnoldi.restart";
/// One admitted `lpa-serve` request, dequeue to final response.
pub const SERVE_REQUEST: &str = "serve.request";

/// Every span name the workspace instruments.
pub const SPANS: [&str; 6] =
    [REFERENCE_SOLVE, CELL_SOLVE, STORE_GET, STORE_PUT, ARNOLDI_RESTART, SERVE_REQUEST];

const UNSET: u8 = 0;
const DISARMED: u8 = 1;
const ARMED: u8 = 2;

/// Tri-state gate, the `lpa-faults` pattern: `UNSET` until the first
/// evaluation, then `DISARMED` (one relaxed load forever) or `ARMED`.
static STATE: AtomicU8 = AtomicU8::new(UNSET);

/// Serializes tests that arm the process-global span machinery.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

/// Is span recording armed? Disarmed cost: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        DISARMED => false,
        ARMED => true,
        _ => {
            init_from_env();
            enabled()
        }
    }
}

/// `"armed"` / `"disarmed"` — for run provenance (bench config, manifest).
pub fn state_name() -> &'static str {
    if enabled() {
        "armed"
    } else {
        "disarmed"
    }
}

/// Parse `LPA_OBS` (this crate's only `std::env` read, shared by the lazy
/// gate init and `HarnessEnv::capture`). Unset or empty is `None`; a value
/// that is neither an on- nor an off-spelling panics.
pub fn env_observability() -> Option<bool> {
    let value = std::env::var("LPA_OBS").ok()?;
    let value = value.trim();
    if value.is_empty() {
        return None;
    }
    Some(parse_switch(value).unwrap_or_else(|| panic!("LPA_OBS: unknown value {value:?} (want 1|on|true or 0|off|false)")))
}

/// The shared on/off vocabulary of `LPA_OBS` and `reproduce --obs`.
pub fn parse_switch(value: &str) -> Option<bool> {
    match value {
        "1" | "on" | "true" | "armed" => Some(true),
        "0" | "off" | "false" | "disarmed" => Some(false),
        _ => None,
    }
}

/// Force the gate and return the previous effective state — the primitive
/// behind the session's restore guard. (Overlapping guards from concurrent
/// sessions are benign: the gate only selects whether spans are recorded,
/// never what is computed.)
pub fn force(on: bool) -> bool {
    let previous = enabled();
    STATE.store(if on { ARMED } else { DISARMED }, Ordering::Relaxed);
    previous
}

/// First-evaluation path: read `LPA_OBS` once and settle the gate. Racing
/// threads both parse; the result is identical and the transition is
/// monotone `UNSET -> {DISARMED, ARMED}`.
#[cold]
fn init_from_env() {
    let armed = env_observability().unwrap_or(false);
    let target = if armed { ARMED } else { DISARMED };
    let _ = STATE.compare_exchange(UNSET, target, Ordering::Relaxed, Ordering::Relaxed);
}

/// Arm (or disarm) span recording for the lifetime of the returned guard,
/// serializing concurrent arming tests — the ring buffer and the gate are
/// process-global. Arming also resets the ring and aggregates so a test
/// observes only its own spans; the previous gate state is restored on
/// drop.
pub struct ObsScope {
    _serial: MutexGuard<'static, ()>,
    previous: bool,
}

impl ObsScope {
    pub fn arm() -> ObsScope {
        let serial = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        span::reset();
        let previous = force(true);
        ObsScope { _serial: serial, previous }
    }

    pub fn disarm() -> ObsScope {
        let serial = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let previous = force(false);
        ObsScope { _serial: serial, previous }
    }
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        force(self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_spans_record_nothing() {
        let _scope = ObsScope::disarm();
        span::reset();
        {
            let _s = span(CELL_SOLVE);
        }
        assert!(span::drain().is_empty());
        assert!(span::aggregates().is_empty());
    }

    #[test]
    fn armed_spans_record_and_aggregate() {
        let _scope = ObsScope::arm();
        for _ in 0..3 {
            let _s = span(STORE_GET);
        }
        {
            let _s = span(STORE_PUT);
        }
        let records = span::drain();
        assert_eq!(records.len(), 4);
        assert!(records.iter().take(3).all(|r| r.name == STORE_GET));
        // Aggregates survive the drain (they feed the run manifest).
        let aggs = span::aggregates();
        let get = aggs.iter().find(|a| a.name == STORE_GET).unwrap();
        assert_eq!(get.count, 3);
        assert!(get.max_ns <= get.total_ns);
        // Aggregates are name-sorted, so their order is deterministic.
        let names: Vec<&str> = aggs.iter().map(|a| a.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn scope_restores_the_previous_state() {
        let outer = ObsScope::disarm();
        drop(outer);
        {
            let _inner = ObsScope::arm();
            assert!(enabled());
        }
        assert!(!enabled(), "dropping the scope must restore the previous state");
    }

    #[test]
    fn switch_vocabulary_is_strict() {
        assert_eq!(parse_switch("on"), Some(true));
        assert_eq!(parse_switch("1"), Some(true));
        assert_eq!(parse_switch("off"), Some(false));
        assert_eq!(parse_switch("0"), Some(false));
        assert_eq!(parse_switch("yes"), None);
        assert_eq!(parse_switch(""), None);
    }
}
