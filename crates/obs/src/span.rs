//! Tracing spans: RAII timers recording wall time + thread id into a
//! bounded ring buffer, plus always-cheap per-name aggregates.
//!
//! A [`Span`] is created with [`span`] and records on drop. The whole
//! machinery sits behind the crate's tri-state gate — when disarmed,
//! [`span`] is one relaxed atomic load and returns an inert guard; no
//! clock is read, no lock is taken. When armed, dropping the guard
//! appends a [`SpanRecord`] to a ring of [`RING_CAPACITY`] entries
//! (oldest entries are evicted, [`dropped`] counts them) and folds the
//! duration into a per-name [`SpanAggregate`] that also feeds the global
//! registry's `span.<name>.ns` histogram — so the run manifest's span
//! section is a registry view, not a parallel tally.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::registry::{global, Histogram};

/// Bounded capacity of the span ring buffer.
pub const RING_CAPACITY: usize = 4096;

/// One completed span occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (one of [`crate::SPANS`] in workspace code).
    pub name: &'static str,
    /// Wall-clock duration of the span.
    pub wall_ns: u64,
    /// Small per-process thread ordinal (not the OS thread id), stable for
    /// the lifetime of the recording thread.
    pub thread: u32,
}

/// Running per-name totals; unlike the ring these are never evicted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanAggregate {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

struct Totals {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    histogram: Arc<Histogram>,
}

#[derive(Default)]
struct RingState {
    ring: VecDeque<SpanRecord>,
    dropped: u64,
    aggregates: BTreeMap<&'static str, Totals>,
}

static RING: Mutex<RingState> = Mutex::new(RingState {
    ring: VecDeque::new(),
    dropped: 0,
    aggregates: BTreeMap::new(),
});

fn ring() -> MutexGuard<'static, RingState> {
    RING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-thread small ordinal for [`SpanRecord::thread`].
fn thread_ordinal() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ORDINAL: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|&o| o)
}

/// Live half of an armed span: name + start time, captured at creation.
struct SpanLive {
    name: &'static str,
    start: Instant,
}

/// RAII span guard; records its duration on drop when armed both at
/// creation and at drop.
/// Inert (a `None`) when the gate was disarmed — the drop is free.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span(Option<SpanLive>);

/// Open a span. Disarmed cost: one relaxed atomic load and a branch.
#[inline]
pub fn span(name: &'static str) -> Span {
    if crate::enabled() {
        Span(Some(SpanLive { name, start: Instant::now() }))
    } else {
        Span(None)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // Record only if the gate is still armed: a span that straddles a
        // disarm belongs to neither window, and recording it would leak
        // into whatever runs after the disarm.
        if let Some(live) = self.0.take() {
            if crate::enabled() {
                record(live.name, live.start.elapsed().as_nanos() as u64);
            }
        }
    }
}

#[cold]
fn record(name: &'static str, wall_ns: u64) {
    let thread = thread_ordinal();
    let mut state = ring();
    if state.ring.len() == RING_CAPACITY {
        state.ring.pop_front();
        state.dropped += 1;
    }
    state.ring.push_back(SpanRecord { name, wall_ns, thread });
    let totals = state.aggregates.entry(name).or_insert_with(|| Totals {
        count: 0,
        total_ns: 0,
        max_ns: 0,
        histogram: global().histogram(&format!("span.{name}.ns")),
    });
    totals.count += 1;
    totals.total_ns += wall_ns;
    totals.max_ns = totals.max_ns.max(wall_ns);
    totals.histogram.record(wall_ns);
}

/// Take every buffered [`SpanRecord`], oldest first, emptying the ring.
/// Aggregates are NOT cleared — they outlive drains and feed the manifest.
pub fn drain() -> Vec<SpanRecord> {
    ring().ring.drain(..).collect()
}

/// Name-sorted snapshot of the per-name running totals.
pub fn aggregates() -> Vec<SpanAggregate> {
    ring()
        .aggregates
        .iter()
        .map(|(&name, t)| SpanAggregate {
            name,
            count: t.count,
            total_ns: t.total_ns,
            max_ns: t.max_ns,
        })
        .collect()
}

/// Spans evicted from the ring since the last [`reset`].
pub fn dropped() -> u64 {
    ring().dropped
}

/// Clear the ring, the eviction counter and the aggregates (the global
/// registry histograms persist; tests and `ObsScope::arm` call this so a
/// run observes only its own spans).
pub fn reset() {
    let mut state = ring();
    state.ring.clear();
    state.dropped = 0;
    state.aggregates.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsScope;

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let _scope = ObsScope::arm();
        for _ in 0..RING_CAPACITY + 5 {
            record(crate::CELL_SOLVE, 10);
        }
        assert_eq!(ring().ring.len(), RING_CAPACITY);
        assert_eq!(dropped(), 5);
        // Aggregates keep the full count despite evictions.
        let agg = aggregates();
        let cell = agg.iter().find(|a| a.name == crate::CELL_SOLVE).unwrap();
        assert_eq!(cell.count, (RING_CAPACITY + 5) as u64);
        reset();
        assert_eq!(dropped(), 0);
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_record_wall_time_and_thread() {
        let _scope = ObsScope::arm();
        {
            let _s = span(crate::REFERENCE_SOLVE);
            std::hint::black_box(0u64);
        }
        let records = drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, crate::REFERENCE_SOLVE);
        assert_eq!(records[0].thread, thread_ordinal());
        let agg = aggregates();
        let r = agg.iter().find(|a| a.name == crate::REFERENCE_SOLVE).unwrap();
        assert_eq!(r.count, 1);
        assert_eq!(r.total_ns, records[0].wall_ns);
        assert_eq!(r.max_ns, records[0].wall_ns);
    }

    #[test]
    fn aggregates_feed_the_global_registry_histograms() {
        let _scope = ObsScope::arm();
        let before = global().histogram("span.store.put.ns").count();
        {
            let _s = span(crate::STORE_PUT);
        }
        let after = global().histogram("span.store.put.ns").count();
        assert_eq!(after, before + 1);
    }
}
