//! Turns a finished [`Run`] into the printed notes and the result line.

use crate::run::{Run, COMPACT, PREPARE, RECONSTRUCT};
use crate::stats::{self, percentile, Quantile};
use crate::trace::Profile;
use std::fmt::Write;

/// Layers timed from outside, with whether bytes are natural for them.
/// The order is the order the metrics print in.
const LAYERS: [(&str, bool); 13] = [
    ("diff", true),
    ("convert", true),
    ("codec.encode", true),
    ("codec.decode", true),
    ("checksum", true),
    ("remote.sign", true),
    ("remote.wire", false),
    ("remote.generate", true),
    ("apply", true),
    ("stream.install", true),
    ("store.put", true),
    ("store.get", true),
    ("store.compact", false),
];

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn describe(label: &str, samples: &[f64], q: f64) -> String {
    let n = samples.len();
    match percentile(samples, q) {
        Some(Quantile { value, samples }) => format!("{label} {value:.3} ms (n={samples})"),
        None => format!("{label} suppressed (n={n} < {})", stats::min_samples(q)),
    }
}

/// Latency lines: every percentile with its sample count, or why it is
/// suppressed.
pub fn latency_notes(run: &Run) -> Vec<String> {
    let mut notes = Vec::new();
    for kind in [PREPARE, RECONSTRUCT, COMPACT] {
        for traced in [false, true] {
            let samples = run.samples(kind, traced);
            if samples.is_empty() {
                continue;
            }
            let t = if traced { "traced" } else { "untraced" };
            notes.push(format!(
                "{kind}_ms ({t}): {}, {}",
                describe("p50", samples, 0.5),
                describe("p90", samples, 0.9)
            ));
        }
    }
    notes
}

/// The end-to-end metrics of an untraced run, or the names of those
/// that lack the samples to be reported.
pub fn end_to_end(run: &Run) -> Result<Vec<Metric>, Vec<String>> {
    let quantiles = [
        ("prepare_ms_p50", PREPARE, 0.5),
        ("reconstruct_ms_p50", RECONSTRUCT, 0.5),
        ("reconstruct_ms_p90", RECONSTRUCT, 0.9),
    ];
    let mut missing = Vec::new();
    let mut metrics = vec![
        metric("setup_s", "s", run.setup_s()),
        metric("prepare_mib_s", "MiB/s", run.prepare_mib_s()),
    ];
    for (name, kind, q) in quantiles {
        match percentile(run.samples(kind, false), q) {
            Some(p) => metrics.push(metric(name, "ms", p.value)),
            None => missing.push(name.to_string()),
        }
    }
    metrics.push(metric("bytes_ratio", "ratio", run.bytes_ratio()));
    metrics.push(metric("peak_heap_mib", "MiB", run.peak_heap_mib()));
    if missing.is_empty() {
        Ok(metrics)
    } else {
        Err(missing)
    }
}

fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |q| q.value)
}

/// The per-layer metrics of a traced run, plus notes naming each
/// operation's largest layer. Layers the workload never calls read 0.
pub fn per_layer(run: &Run, profile: &Profile) -> (Vec<Metric>, Vec<String>) {
    let mut metrics = Vec::new();
    for (name, has_bytes) in LAYERS {
        let layer = profile.layers.get(name);
        let calls = layer.map_or(0, |l| l.calls);
        metrics.push(metric(format!("{name}.calls"), "count", calls as f64));
        metrics.push(metric(
            format!("{name}.self_ms_p50"),
            "ms",
            layer.map_or(0.0, |l| p50(&l.self_ms)),
        ));
        metrics.push(metric(
            format!("{name}.share"),
            "ratio",
            profile.share(name),
        ));
        if has_bytes {
            let mib_s = layer.map_or(0.0, |l| stats::mib_per_s(l.bytes, l.self_ns as f64 / 1e9));
            metrics.push(metric(format!("{name}.mib_s"), "MiB/s", mib_s));
        }
    }

    let residual: Vec<f64> = profile
        .kinds
        .values()
        .flat_map(|k| k.residual_ms.iter().copied())
        .collect();
    let worst_residual = profile
        .kinds
        .values()
        .map(|k| k.residual_share())
        .fold(0.0, f64::max);
    metrics.push(metric("pipeline.calls", "count", residual.len() as f64));
    metrics.push(metric("pipeline.self_ms_p50", "ms", p50(&residual)));
    metrics.push(metric("pipeline.share", "ratio", worst_residual));

    let x = &run.extras;
    let store_get = profile.layers.get("store.get");
    let (overhead_ratio, overhead_note) = overhead(run);
    let extras = [
        (
            "diff.copy_frac",
            "ratio",
            stats::ratio(x.diff_copied as f64, x.diff_target as f64),
        ),
        (
            "convert.edges_per_byte",
            "ratio",
            stats::ratio(x.edges as f64, x.convert_target as f64),
        ),
        (
            "convert.cycles_broken",
            "count",
            stats::ratio(x.cycles_broken as f64, x.converts as f64),
        ),
        (
            "convert.loss_frac",
            "ratio",
            stats::ratio(x.conversion_cost as f64, x.convert_target as f64),
        ),
        (
            "convert.nodes_per_cycle",
            "count",
            stats::ratio(x.cycle_nodes as f64, x.cycles_broken as f64),
        ),
        (
            "remote.sign.bytes_frac",
            "ratio",
            stats::ratio(x.signature_bytes as f64, x.signed_bytes as f64),
        ),
        (
            "remote.generate.copy_frac",
            "ratio",
            stats::ratio(x.generate_copied as f64, x.generate_target as f64),
        ),
        (
            "stream.install.high_water_bytes",
            "bytes",
            x.install_high_water as f64,
        ),
        (
            "stream.install.pre_eof_frac",
            "ratio",
            stats::ratio(x.install_pre_eof as f64, x.install_commands as f64),
        ),
        (
            "store.get.self_ms_p90",
            "ms",
            store_get
                .and_then(|l| percentile(&l.self_ms, 0.9))
                .map_or(0.0, |q| q.value),
        ),
        ("store.get.depth_p50", "count", p50(&x.get_depths)),
        ("trace.overhead_frac", "ratio", overhead_ratio),
    ];
    metrics.extend(extras.into_iter().map(|(n, u, v)| metric(n, u, v)));

    let mut notes = Vec::new();
    for (kind, k) in &profile.kinds {
        let (largest, share) = k.largest().unwrap_or(("none", 0.0));
        notes.push(format!(
            "{kind}: {} traced ops, largest layer {largest} (share {share:.4}), \
             pipeline residual share {:.4}",
            k.ops,
            k.residual_share()
        ));
    }
    notes.push(overhead_note);
    (metrics, notes)
}

/// Traced over untraced operation median, the larger of prepare and
/// reconstruct, with a note giving both.
fn overhead(run: &Run) -> (f64, String) {
    let mut worst = 0.0f64;
    let mut note = String::from("trace overhead (traced / untraced median):");
    for kind in [PREPARE, RECONSTRUCT] {
        let traced = stats::median(run.samples(kind, true));
        let plain = stats::median(run.samples(kind, false));
        if let (Some(t), Some(p)) = (traced, plain) {
            let r = stats::ratio(t, p);
            worst = worst.max(r);
            let _ = write!(note, " {kind} {r:.4}");
        }
    }
    (worst, note)
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let rest = entry.split(&format!("\"{key}\": \"")).nth(1)?;
            Some(rest.split('"').next()?.to_string())
        };
        body.split("{")
            .skip(1)
            .map(|entry| {
                let name = field(entry, "name").expect("every metric has a name");
                (name, field(entry, "unit").expect("every metric has a unit"))
            })
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let mut run = Run::new(0.0, false);
        for _ in 0..100 {
            run.record(PREPARE, false, Duration::from_millis(2), 1 << 20);
            run.record(RECONSTRUCT, false, Duration::from_millis(1), 1 << 20);
        }
        let e2e = end_to_end(&run).expect("100 samples report every percentile");
        assert_eq!(printed(&e2e), declared("end_to_end"));
        let (layers, _) = per_layer(&run, &Profile::default());
        assert_eq!(printed(&layers), declared("per_layer"));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(true, 3, 0, &[metric("setup_s", "s", 0.123_456_789_012_345)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn suppressed_percentiles_say_why() {
        let samples: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(describe("p50", &samples, 0.5), "p50 15.000 ms (n=30)");
        assert_eq!(
            describe("p90", &samples, 0.9),
            "p90 suppressed (n=30 < 100)"
        );
    }
}
