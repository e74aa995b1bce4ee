//! The built-in aggregating recorder and its diffable report.

use crate::Recorder;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// Bucket count of a [`Histogram`]: bucket `i ≥ 1` counts values whose
/// bit length is `i` (i.e. `2^(i-1) <= v < 2^i`), bucket 0 counts zeros.
/// 65 buckets cover the whole `u64` range in fixed memory.
const HISTOGRAM_BUCKETS: usize = 65;

/// Aggregate of one span name: how often it ran and for how long.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// Completions recorded.
    pub count: u64,
    /// Total monotonic nanoseconds across completions.
    pub total_ns: u64,
    /// Shortest completion.
    pub min_ns: u64,
    /// Longest completion.
    pub max_ns: u64,
    /// Smallest nesting depth observed (0 = ran as an outermost span).
    pub depth: usize,
}

impl SpanStat {
    fn record(&mut self, depth: usize, nanos: u64) {
        self.count += 1;
        self.total_ns += nanos;
        self.min_ns = self.min_ns.min(nanos);
        self.max_ns = self.max_ns.max(nanos);
        self.depth = self.depth.min(depth);
    }
}

/// A bounded power-of-two histogram: fixed memory however many samples
/// are recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending bound order. Bucket bounds are `0, 1, 3, 7, …, 2^k - 1`.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let bound = match i {
                    0 => 0,
                    64 => u64::MAX,
                    i => (1u64 << i) - 1,
                };
                (bound, c)
            })
            .collect()
    }

    /// Mean sample value, zero when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Default)]
struct Inner {
    spans: BTreeMap<&'static str, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// The built-in aggregating [`Recorder`]: accumulates span timings,
/// counters, gauges and histograms, all keyed by name, and snapshots
/// them into a [`StatsReport`].
///
/// Thread-safe via a single mutex; events are phase- or chunk-grained in
/// this codebase, so contention is negligible. Maps are ordered
/// (`BTreeMap`) so reports — and their JSON — are deterministic and
/// diffable.
#[derive(Default)]
pub struct StatsRecorder {
    inner: Mutex<Inner>,
}

impl StatsRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots everything recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn report(&self) -> StatsReport {
        let inner = self.inner.lock().expect("stats lock poisoned");
        StatsReport {
            spans: inner
                .spans
                .iter()
                .map(|(&name, &stat)| (name.to_string(), stat))
                .collect(),
            counters: inner
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&name, h)| HistogramEntry {
                    name: name.to_string(),
                    histogram: h.clone(),
                })
                .collect(),
        }
    }
}

impl Recorder for StatsRecorder {
    fn span_end(&self, name: &'static str, depth: usize, nanos: u64) {
        let mut inner = self.inner.lock().expect("stats lock poisoned");
        inner
            .spans
            .entry(name)
            .or_insert(SpanStat {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
                depth: usize::MAX,
            })
            .record(depth, nanos);
    }

    fn add(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().expect("stats lock poisoned");
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: u64) {
        let mut inner = self.inner.lock().expect("stats lock poisoned");
        inner.gauges.insert(name, value);
    }

    fn observe(&self, name: &'static str, value: u64) {
        let mut inner = self.inner.lock().expect("stats lock poisoned");
        inner.histograms.entry(name).or_default().record(value);
    }
}

/// A named histogram in a [`StatsReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramEntry {
    /// The histogram's name.
    pub name: String,
    /// The aggregated samples.
    pub histogram: Histogram,
}

/// A point-in-time snapshot of a [`StatsRecorder`], ready to print or
/// serialize. All collections are sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Per-span aggregates, `(name, stat)`.
    pub spans: Vec<(String, SpanStat)>,
    /// Counters, `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauges, `(name, value)`.
    pub gauges: Vec<(String, u64)>,
    /// Histograms.
    pub histograms: Vec<HistogramEntry>,
}

/// Identifies the JSON layout emitted by [`StatsReport::to_json`];
/// bumped on any incompatible change.
pub const STATS_SCHEMA: &str = "ipr-stats/1";

impl StatsReport {
    /// The value of counter `name`, if recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if recorded.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The aggregate of span `name`, if it completed at least once.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The histogram `name`, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.histogram)
    }

    /// Serializes the report to the stable `ipr-stats/1` JSON layout:
    /// objects keyed by event name, keys in sorted order, two-space
    /// indentation — the same bytes for the same measurements, so checked
    /// in reports diff cleanly across PRs.
    #[must_use]
    pub fn to_json(&self) -> String {
        use crate::json::escape;
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{STATS_SCHEMA}\",\n"));

        out.push_str("  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"depth\": {}}}",
                escape(name),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns,
                s.depth
            ));
        }
        out.push_str(if self.spans.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        for (key, pairs) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            out.push_str(&format!("  \"{key}\": {{"));
            for (i, (name, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n    {}: {}", escape(name), v));
            }
            out.push_str(if pairs.is_empty() { "},\n" } else { "\n  },\n" });
        }

        out.push_str("  \"histograms\": {");
        for (i, e) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let h = &e.histogram;
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|(bound, count)| format!("[{bound}, {count}]"))
                .collect();
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"buckets\": [{}]}}",
                escape(&e.name),
                h.count,
                h.sum,
                h.min,
                h.max,
                buckets.join(", ")
            ));
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out
    }
}

/// Human-readable per-phase report (the CLI's plain `--stats` output).
impl fmt::Display for StatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.spans.is_empty() {
            writeln!(f, "spans (count, total, min..max):")?;
            for (name, s) in &self.spans {
                writeln!(
                    f,
                    "  {:indent$}{name:<32} {:>6}  {:>12}  {}..{}",
                    "",
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.min_ns),
                    fmt_ns(s.max_ns),
                    indent = 2 * s.depth,
                )?;
            }
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, v) in &self.counters {
                writeln!(f, "  {name:<40} {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, v) in &self.gauges {
                writeln!(f, "  {name:<40} {v}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms (count, mean, min..max):")?;
            for e in &self.histograms {
                let h = &e.histogram;
                writeln!(
                    f,
                    "  {:<40} {:>6}  {:>12}  {}..{}",
                    e.name,
                    h.count,
                    fmt_ns(h.mean()),
                    fmt_ns(h.min),
                    fmt_ns(h.max)
                )?;
            }
        }
        Ok(())
    }
}

/// Formats nanoseconds with a readable unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, span};
    use std::sync::Arc;

    #[test]
    fn counters_aggregate_across_threads() {
        let stats = Arc::new(StatsRecorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stats = Arc::clone(&stats);
                s.spawn(move || {
                    let _g = install(stats);
                    for _ in 0..1000 {
                        crate::add("work.items", 1);
                    }
                    crate::add("work.bytes", 250);
                });
            }
        });
        let report = stats.report();
        assert_eq!(report.counter("work.items"), Some(4000));
        assert_eq!(report.counter("work.bytes"), Some(1000));
    }

    #[test]
    fn span_stats_track_min_max_depth() {
        let stats = Arc::new(StatsRecorder::new());
        let g = install(stats.clone());
        for _ in 0..3 {
            let _outer = span("outer");
            let _inner = span("leaf");
        }
        {
            // `leaf` also runs once as an outermost span: depth records
            // the smallest observed.
            let _top = span("leaf");
        }
        drop(g);
        let report = stats.report();
        let leaf = report.span("leaf").unwrap();
        assert_eq!(leaf.count, 4);
        assert_eq!(leaf.depth, 0);
        assert!(leaf.min_ns <= leaf.max_ns);
        assert!(leaf.total_ns >= leaf.max_ns);
        assert_eq!(report.span("outer").unwrap().depth, 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let stats = StatsRecorder::new();
        stats.gauge("threads", 2);
        stats.gauge("threads", 8);
        assert_eq!(stats.report().gauge("threads"), Some(8));
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        let buckets = h.nonzero_buckets();
        // 0 → bound 0; 1 → bound 1; 2,3 → bound 3; 4 → bound 7;
        // 1000 → bound 1023; u64::MAX → top bucket.
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1), (u64::MAX, 1)]
        );
        // The sum saturates at u64::MAX rather than wrapping.
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.mean(), u64::MAX / 7);
    }

    #[test]
    fn json_is_stable_and_parses() {
        let stats = StatsRecorder::new();
        stats.add("b.counter", 2);
        stats.add("a.counter", 1);
        stats.span_end("phase", 0, 1234);
        stats.observe("lat", 100);
        let report = stats.report();
        let json = report.to_json();
        assert_eq!(json, report.to_json(), "serialization is deterministic");
        // Counters are name-sorted regardless of insertion order.
        assert!(json.find("a.counter").unwrap() < json.find("b.counter").unwrap());

        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(STATS_SCHEMA));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("a.counter")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            v.get("spans")
                .unwrap()
                .get("phase")
                .unwrap()
                .get("total_ns")
                .unwrap()
                .as_u64(),
            Some(1234)
        );
    }

    #[test]
    fn empty_report_serializes() {
        let report = StatsRecorder::new().report();
        let v = crate::json::parse(&report.to_json()).unwrap();
        assert!(v.get("spans").is_some());
        assert_eq!(format!("{report}"), "");
    }

    #[test]
    fn display_mentions_every_section() {
        let stats = StatsRecorder::new();
        stats.span_end("phase", 1, 2_500_000);
        stats.add("c", 1);
        stats.gauge("g", 2);
        stats.observe("h", 3);
        let text = format!("{}", stats.report());
        for needle in ["spans", "counters", "gauges", "histograms", "2.50ms"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
