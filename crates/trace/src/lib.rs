//! Pipeline observability for the in-place reconstruction toolkit.
//!
//! Every phase of the diff → encode → convert → schedule → apply pipeline
//! reports *where time goes* and *what happened* through this crate:
//!
//! * [`span`] — nestable RAII spans timed with the monotonic clock
//!   ([`std::time::Instant`]); nesting depth is tracked per thread so a
//!   recorder can reconstruct the tree.
//! * [`add`] / [`gauge`] — named monotonic counters and last-value gauges.
//! * [`observe`] — bounded power-of-two histograms (64 buckets, fixed
//!   memory regardless of sample count), for latency or size
//!   distributions.
//!
//! Instrumentation is routed through a pluggable [`Recorder`] installed
//! per thread with [`install`]. When **no recorder is installed** — the
//! default — every entry point is a single thread-local check that
//! returns immediately: no clock is read, no allocation happens, nothing
//! is recorded. [`NoopRecorder`] exists for APIs that want to hand out a
//! recorder unconditionally; installing it costs one virtual call per
//! event with an empty body.
//!
//! The names passed to these functions are a **stable contract**
//! documented in `docs/OBSERVABILITY.md`; renaming one is a breaking
//! change for anything diffing stats across versions.
//!
//! [`StatsRecorder`] is the built-in aggregating recorder behind the
//! CLI's `--stats[=json]` flag and the bench per-phase breakdowns. It is
//! thread-safe: threads that install clones of one handle aggregate
//! into one report.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ipr_trace::{install, StatsRecorder};
//!
//! let stats = Arc::new(StatsRecorder::new());
//! let guard = install(stats.clone());
//! {
//!     let _outer = ipr_trace::span("convert");
//!     let _inner = ipr_trace::span("convert.toposort");
//!     ipr_trace::add("convert.cycles_broken", 3);
//! }
//! drop(guard);
//!
//! let report = stats.report();
//! assert_eq!(report.counter("convert.cycles_broken"), Some(3));
//! assert_eq!(report.span("convert.toposort").unwrap().depth, 1);
//! assert!(report.to_json().contains("\"convert.cycles_broken\": 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

mod recorder;
mod stats;

pub use recorder::{NoopRecorder, Recorder};
pub use stats::{Histogram, HistogramEntry, SpanStat, StatsRecorder, StatsReport};

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    static CURRENT: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Installs `recorder` as this thread's recorder, returning a guard that
/// restores the previous one (usually none) when dropped.
///
/// Instrumentation is per thread by design: the guard pattern lets tests
/// and CLI commands scope their collection precisely.
pub fn install(recorder: Arc<dyn Recorder>) -> RecorderGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(recorder));
    // The new recorder never saw the spans currently on this thread's
    // stack, so its depth starts at zero; the guard restores the outer
    // stack's depth on drop.
    let prev_depth = DEPTH.with(|d| d.replace(0));
    RecorderGuard { prev, prev_depth }
}

/// Whether a recorder is installed on this thread.
///
/// Instrumentation sites with non-trivial argument computation (summing
/// payload bytes, formatting) should guard on this so the untraced path
/// stays free.
#[must_use]
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Runs `f` with the installed recorder, if any. The closure form keeps
/// multi-event call sites to a single thread-local lookup.
pub fn with(f: impl FnOnce(&dyn Recorder)) {
    CURRENT.with(|c| {
        if let Some(r) = c.borrow().as_deref() {
            f(r);
        }
    });
}

/// Restores the previously installed recorder on drop.
pub struct RecorderGuard {
    prev: Option<Arc<dyn Recorder>>,
    prev_depth: usize,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        DEPTH.with(|d| d.set(self.prev_depth));
    }
}

/// Starts a named span; the span ends (and its monotonic elapsed time is
/// reported) when the returned guard drops.
///
/// Spans nest: a span opened while another is live records a depth one
/// greater. With no recorder installed this is a thread-local check and
/// the clock is never read.
#[must_use = "a span measures until the guard is dropped"]
pub fn span(name: &'static str) -> Span {
    let timing = CURRENT.with(|c| {
        let borrow = c.borrow();
        let r = borrow.as_deref()?;
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        r.span_start(name, depth);
        Some((Instant::now(), depth))
    });
    Span { name, timing }
}

/// RAII guard for a live span; see [`span`].
pub struct Span {
    name: &'static str,
    /// `None` when no recorder was installed at creation — drop is free.
    timing: Option<(Instant, usize)>,
}

impl Span {
    /// The span's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, depth)) = self.timing {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            DEPTH.with(|d| d.set(depth));
            with(|r| r.span_end(self.name, depth, nanos));
        }
    }
}

/// Adds `delta` to the named monotonic counter.
pub fn add(name: &'static str, delta: u64) {
    with(|r| r.add(name, delta));
}

/// Sets the named gauge to `value` (last write wins).
pub fn gauge(name: &'static str, value: u64) {
    with(|r| r.gauge(name, value));
}

/// Records `value` into the named bounded histogram.
pub fn observe(name: &'static str, value: u64) {
    with(|r| r.observe(name, value));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Captures raw span events so tests can assert ordering and depth.
    #[derive(Default)]
    struct EventLog {
        events: Mutex<Vec<(String, &'static str, usize, u64)>>,
    }

    impl Recorder for EventLog {
        fn span_start(&self, name: &'static str, depth: usize) {
            self.events
                .lock()
                .unwrap()
                .push(("start".into(), name, depth, 0));
        }
        fn span_end(&self, name: &'static str, depth: usize, nanos: u64) {
            self.events
                .lock()
                .unwrap()
                .push(("end".into(), name, depth, nanos));
        }
    }

    #[test]
    fn no_recorder_is_inert() {
        assert!(!enabled());
        let s = span("anything");
        assert!(s.timing.is_none());
        drop(s);
        add("counter", 1);
        gauge("gauge", 2);
        observe("hist", 3);
    }

    #[test]
    fn spans_nest_with_increasing_depth() {
        let log = Arc::new(EventLog::default());
        let guard = install(log.clone());
        {
            let _a = span("outer");
            {
                let _b = span("inner");
                let _c = span("innermost");
            }
            let _d = span("sibling");
        }
        drop(guard);
        let events = log.events.lock().unwrap();
        let shape: Vec<(&str, &str, usize)> = events
            .iter()
            .map(|(kind, name, depth, _)| (kind.as_str(), *name, *depth))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("start", "outer", 0),
                ("start", "inner", 1),
                ("start", "innermost", 2),
                ("end", "innermost", 2),
                ("end", "inner", 1),
                ("start", "sibling", 1),
                ("end", "sibling", 1),
                ("end", "outer", 0),
            ]
        );
    }

    #[test]
    fn span_timing_is_monotonic_and_contains_children() {
        let log = Arc::new(EventLog::default());
        let guard = install(log.clone());
        {
            let _outer = span("outer");
            let _inner = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(guard);
        let events = log.events.lock().unwrap();
        let ns_of = |which: &str| {
            events
                .iter()
                .find(|(k, n, _, _)| k == "end" && *n == which)
                .map(|&(_, _, _, ns)| ns)
                .unwrap()
        };
        let (outer, inner) = (ns_of("outer"), ns_of("inner"));
        assert!(inner >= 2_000_000, "slept 2ms inside: {inner}ns");
        assert!(outer >= inner, "parent spans contain their children");
    }

    #[test]
    fn guard_restores_previous_recorder_and_depth() {
        let first = Arc::new(EventLog::default());
        let second = Arc::new(EventLog::default());
        let g1 = install(first.clone());
        let _outer = span("outer");
        {
            // Spans drop before the guard that scoped them (reverse
            // declaration order), as in real RAII use.
            let _g2 = install(second.clone());
            let _s = span("rescoped");
        }
        // Back on the first recorder at the right depth.
        let _inner = span("inner");
        drop(_inner);
        drop(_outer);
        drop(g1);
        assert!(!enabled());
        let second_events = second.events.lock().unwrap();
        // The rescoped recorder starts at depth 0, independent of the
        // outer stack.
        assert_eq!(second_events[0].2, 0);
        let first_events = first.events.lock().unwrap();
        assert!(first_events
            .iter()
            .any(|(k, n, d, _)| k == "start" && *n == "inner" && *d == 1));
    }
}
