//! Spans recorded from the benchmark's own code around each call into a
//! layer's public API, kept in memory and summarised once at exit.
//!
//! The program's own `ipr-trace` recorder stays uninstalled: every span
//! here is taken outside the product crates.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Operation the span belongs to; all spans of one operation share it.
    pub op: u64,
    /// Index of the enclosing span; `None` for an operation's root span.
    pub parent: Option<usize>,
    /// Layer name, or the operation kind for a root span.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Bytes the call processed (0 where no byte count is natural).
    pub bytes: u64,
}

/// Records operations and their layer calls while enabled; when disabled
/// it only times operations, so one code path serves both runs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A disabled tracer with no spans.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns span recording on or off for the following operations.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an operation");
        self.enabled = enabled;
    }

    /// Whether operations are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs one segment of operation `op` of `kind` and returns its
    /// result with its wall time. An operation may take several segments
    /// (a device phase before and after the server's work); its traced
    /// wall time is the sum of their root spans.
    pub fn op<T>(
        &mut self,
        kind: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed());
        }
        let id = self.open(op, kind, 0, start);
        let out = f(self);
        let end = Instant::now();
        self.close(id, end);
        (out, end - start)
    }

    /// Times one call into a layer, as a child of the open span.
    pub fn call<T>(&mut self, name: &'static str, bytes: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = *self
            .open
            .last()
            .expect("layer calls happen inside an operation");
        let op = self.spans[parent].op;
        let id = self.open(op, name, bytes, Instant::now());
        let out = f();
        self.close(id, Instant::now());
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn open(&mut self, op: u64, name: &'static str, bytes: u64, start: Instant) -> usize {
        let start_ns = self.nanos(start);
        self.spans.push(Span {
            op,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            bytes,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize, end: Instant) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.nanos(end);
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from((at - self.epoch).as_nanos()).expect("a run lasts less than 584 years")
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, span.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.end_ns - span.start_ns - covered
        })
        .collect()
}

/// Per-layer totals over every span of one name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layer {
    /// Calls timed.
    pub calls: usize,
    /// Self time of each call, in milliseconds.
    pub self_ms: Vec<f64>,
    /// Total self time, in nanoseconds.
    pub self_ns: u64,
    /// Total bytes the calls processed.
    pub bytes: u64,
    /// Operation kinds the calls ran under.
    pub kinds: BTreeSet<&'static str>,
}

/// Totals for one operation kind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Kind {
    /// Operations traced.
    pub ops: usize,
    /// Traced wall time of every operation, in nanoseconds.
    pub wall_ns: u64,
    /// Residual (operation minus its layer calls) per operation, in
    /// milliseconds: the benchmark's and the pipeline's own glue.
    pub residual_ms: Vec<f64>,
    /// Total residual, in nanoseconds.
    pub residual_ns: u64,
    /// Self time of each layer under this kind, in nanoseconds.
    pub layer_ns: BTreeMap<&'static str, u64>,
}

impl Kind {
    /// Share of this kind's traced wall time spent in `layer`'s own code.
    pub fn share(&self, layer: &str) -> f64 {
        let ns = self.layer_ns.get(layer).copied().unwrap_or(0);
        crate::stats::ratio(ns as f64, self.wall_ns as f64)
    }

    /// Share of this kind's traced wall time left to glue.
    pub fn residual_share(&self) -> f64 {
        crate::stats::ratio(self.residual_ns as f64, self.wall_ns as f64)
    }

    /// The layer with the largest self-time share, with that share.
    pub fn largest(&self) -> Option<(&'static str, f64)> {
        self.layer_ns
            .iter()
            .max_by_key(|(_, ns)| **ns)
            .map(|(name, _)| (*name, self.share(name)))
    }
}

/// Spans summarised by layer and by operation kind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Per-layer totals, by layer name.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Per-kind totals, by operation kind.
    pub kinds: BTreeMap<&'static str, Kind>,
}

impl Profile {
    /// Summarises `spans` (as recorded by a [`Tracer`]).
    pub fn of(spans: &[Span]) -> Self {
        let self_ns = self_times(spans);
        let mut root = vec![0usize; spans.len()];
        let mut profile = Profile::default();
        let mut residual_by_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            // Parents precede children, so the parent's root is known.
            root[i] = span.parent.map_or(i, |p| root[p]);
            let kind_name = spans[root[i]].name;
            let kind = profile.kinds.entry(kind_name).or_default();
            match span.parent {
                None => {
                    kind.wall_ns += span.end_ns - span.start_ns;
                    kind.residual_ns += self_ns[i];
                    *residual_by_op.entry((kind_name, span.op)).or_default() += self_ns[i];
                }
                Some(_) => {
                    *kind.layer_ns.entry(span.name).or_default() += self_ns[i];
                    let layer = profile.layers.entry(span.name).or_default();
                    layer.calls += 1;
                    layer.self_ms.push(self_ns[i] as f64 / 1e6);
                    layer.self_ns += self_ns[i];
                    layer.bytes += span.bytes;
                    layer.kinds.insert(kind_name);
                }
            }
        }
        for ((kind_name, _), ns) in residual_by_op {
            let kind = profile.kinds.get_mut(kind_name).expect("kind seen above");
            kind.ops += 1;
            kind.residual_ms.push(ns as f64 / 1e6);
        }
        profile
    }

    /// Share of its operations' traced wall time that `layer` spent in
    /// its own code: the most a faster layer could save them.
    pub fn share(&self, layer: &str) -> f64 {
        let Some(stats) = self.layers.get(layer) else {
            return 0.0;
        };
        let wall: u64 = stats.kinds.iter().map(|k| self.kinds[k].wall_ns).sum();
        crate::stats::ratio(stats.self_ns as f64, wall as f64)
    }
}

/// Writes every span as one JSON object per line.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
            s.op, s.name, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    out.flush()
}

/// Wall time of a closure, for untimed set-up steps that are measured
/// as a whole.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            op,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            bytes: 0,
        }
    }

    /// An operation [0, 100) with children A [10, 40) — holding a
    /// grandchild [20, 30) — and B [50, 90).
    fn nested() -> Vec<Span> {
        vec![
            span(7, None, "prepare", 0, 100),
            span(7, Some(0), "diff", 10, 40),
            span(7, Some(1), "codec.encode", 20, 30),
            span(7, Some(0), "convert", 50, 90),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&nested()), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = vec![
            span(1, None, "op", 100, 200),
            span(1, Some(0), "a", 90, 130),
            span(1, Some(0), "b", 120, 150),
            span(1, Some(0), "c", 140, 145),
            span(1, Some(0), "d", 190, 260),
        ];
        // Covered: [100, 150) and [190, 200) = 60 of 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn profile_shares_add_up_to_one_per_kind() {
        let profile = Profile::of(&nested());
        let kind = &profile.kinds["prepare"];
        assert_eq!((kind.ops, kind.wall_ns, kind.residual_ns), (1, 100, 30));
        assert_eq!(kind.residual_ms, vec![30.0 / 1e6]);
        let total: f64 = ["diff", "codec.encode", "convert"]
            .iter()
            .map(|l| profile.share(l))
            .sum::<f64>()
            + kind.residual_share();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        assert_eq!(profile.share("convert"), 0.4);
        assert_eq!(kind.largest(), Some(("convert", 0.4)));
        assert_eq!(profile.share("apply"), 0.0);
    }

    #[test]
    fn segments_of_one_operation_sum_into_one_residual() {
        let spans = vec![
            span(3, None, "reconstruct", 0, 10),
            span(3, Some(0), "remote.sign", 0, 8),
            span(4, None, "prepare", 10, 30),
            span(3, None, "reconstruct", 30, 50),
            span(3, Some(3), "apply", 35, 50),
        ];
        let profile = Profile::of(&spans);
        let kind = &profile.kinds["reconstruct"];
        assert_eq!((kind.ops, kind.wall_ns, kind.residual_ns), (1, 30, 7));
        assert_eq!(profile.kinds["prepare"].residual_ns, 20);
        assert_eq!(profile.layers["apply"].kinds.len(), 1);
    }

    #[test]
    fn tracer_records_only_while_enabled() {
        let mut tracer = Tracer::new();
        let (x, _) = tracer.op("prepare", 0, |t| t.call("diff", 5, || 2 + 2));
        assert_eq!(x, 4);
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        tracer.op("prepare", 1, |t| t.call("diff", 5, || ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[1].parent, spans[1].op, spans[1].bytes),
            (Some(0), 1, 5)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
