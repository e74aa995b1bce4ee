//! The pluggable sink every instrumentation event flows into.

/// A sink for instrumentation events.
///
/// All methods have empty default bodies, so a recorder implements only
/// what it cares about. Implementations must be thread-safe: one
/// shared handle may be installed on several threads, and counters from
/// all of them must aggregate.
///
/// Event names are `&'static str` on purpose: the set of span, counter,
/// gauge and histogram names is a closed, documented contract (see
/// `docs/OBSERVABILITY.md`), not a dynamic namespace — this keeps the
/// no-op path allocation-free and makes reports diffable across runs.
pub trait Recorder: Send + Sync {
    /// A span named `name` opened at nesting `depth` (0 = outermost).
    fn span_start(&self, name: &'static str, depth: usize) {
        let _ = (name, depth);
    }

    /// The span closed after `nanos` nanoseconds of monotonic time.
    fn span_end(&self, name: &'static str, depth: usize, nanos: u64) {
        let _ = (name, depth, nanos);
    }

    /// `delta` added to the monotonic counter `name`.
    fn add(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Gauge `name` set to `value` (last write wins).
    fn gauge(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// `value` recorded into the bounded histogram `name`.
    fn observe(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }
}

/// A recorder that discards every event.
///
/// Useful when an API wants to hand out a `&dyn Recorder`
/// unconditionally. Code that merely wants tracing *off* should install
/// no recorder at all — that path never reads the clock, while an
/// installed `NoopRecorder` still times every span to report it nowhere.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_accepts_everything() {
        let r = NoopRecorder;
        r.span_start("s", 0);
        r.span_end("s", 0, 1);
        r.add("c", 1);
        r.gauge("g", 2);
        r.observe("h", 3);
    }
}
