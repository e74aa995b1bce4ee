//! Per-phase pipeline breakdown via the `ipr-trace` observability layer.
//!
//! Drives the full pipeline — diff → encode → decode → convert → in-place
//! apply — over the experiment corpus with a
//! [`ipr_trace::StatsRecorder`] installed, then reports where the time
//! went. Unlike the other experiment binaries, nothing here is timed by
//! hand: every number comes from the same spans and counters that
//! `ipr --stats` exposes, so this doubles as an end-to-end check that the
//! instrumentation covers the whole pipeline.
//!
//! Results land in `results/BENCH_phase_breakdown.json` in the
//! `ipr-stats/1` schema (see docs/OBSERVABILITY.md), diffable across PRs.
//!
//! Run: `cargo run -p ipr-bench --release --bin phases`
//!
//! With `--compare <baseline.json>` the run instead gates itself against
//! a previously written breakdown: a phase fails when its *share of
//! total pipeline time* grows past [`REGRESSION_FACTOR`] times its
//! baseline share. Shares, not absolute times, so the gate is
//! machine-independent; the generous factor plus the
//! [`MIN_BASELINE_SHARE`] floor keep CI noise from tripping it. Phases
//! under that floor, and phases the baseline lacks, are informational.
//! The baseline file is left untouched in this mode.

use ipr_bench::baseline::{self, Baseline, Bound, Ledger};
use ipr_bench::{experiment_corpus, host_parallelism, pct, Table};
use ipr_core::{apply_in_place, convert_to_in_place, required_capacity, ConversionConfig};
use ipr_delta::codec::{decode, encode, Format};
use ipr_delta::diff::{Differ, GreedyDiffer};
use std::sync::Arc;

/// A phase regresses when its share of total time grows past this factor.
const REGRESSION_FACTOR: f64 = 3.0;
/// Phases below this baseline share are too small to gate on: their shares
/// are dominated by timer noise, not by the code under test.
const MIN_BASELINE_SHARE: f64 = 0.02;

fn main() {
    let compare = baseline::compare_arg("phases");
    let corpus = experiment_corpus();
    let recorder = Arc::new(ipr_trace::StatsRecorder::new());
    let _guard = ipr_trace::install(recorder.clone());

    // Recorded so readers of the JSON know the host the shares came from.
    ipr_trace::gauge("host.parallelism", host_parallelism() as u64);

    let differ = GreedyDiffer::default();
    for pair in &corpus {
        let script = differ.diff(&pair.reference, &pair.version);
        let wire = encode(&script, Format::InPlace).expect("encodable script");
        let decoded = decode(&wire).expect("round-trip");
        let out = convert_to_in_place(
            &decoded.script,
            &pair.reference,
            &ConversionConfig::default(),
        )
        .expect("conversion cannot fail");
        let cap = usize::try_from(required_capacity(&out.script)).expect("fits usize");
        let mut buf = vec![0u8; cap];
        buf[..pair.reference.len()].copy_from_slice(&pair.reference);
        apply_in_place(&out.script, &mut buf).expect("serial apply");
    }

    let report = recorder.report();

    // Phase share table: top-level spans as a fraction of total traced time.
    let phases = [
        ("diff", "diff"),
        ("codec.encode", "encode"),
        ("codec.decode", "decode"),
        ("convert", "convert"),
        ("apply.serial", "apply"),
    ];
    let total_ns: u64 = phases
        .iter()
        .filter_map(|(name, _)| report.span(name))
        .map(|s| s.total_ns)
        .sum();
    println!(
        "Pipeline phase breakdown: {} pairs, all numbers from ipr-trace spans\n",
        corpus.len()
    );
    let span = |name| report.span(name).expect("phase span recorded");
    let share = |name| span(name).total_ns as f64 / total_ns as f64;
    let mut t = Table::new(vec!["phase", "calls", "total ms", "share"]);
    for (name, label) in phases {
        let s = span(name);
        t.row(vec![
            label.into(),
            s.count.to_string(),
            format!("{:.2}", s.total_ns as f64 / 1e6),
            pct(share(name)),
        ]);
    }
    t.print();

    println!("\nFull span tree and counters:\n\n{report}");

    let Some(path) = compare else {
        baseline::write_stats("phase_breakdown", &report);
        return;
    };
    let base = Baseline::load(&path);
    let base_ns = |name: &str| base.get("spans").get(name).get("total_ns").try_f64();
    let base_total: f64 = phases
        .iter()
        .filter_map(|(name, _)| base_ns(name).ok())
        .sum();
    assert!(
        base_total > 0.0,
        "baseline {path} records none of the pipeline phases"
    );
    let mut gates = Ledger::new(&base);
    for (name, label) in phases {
        let share = share(name);
        let Ok(ns) = base_ns(name) else {
            gates.info(label, &format!("share {}, new phase", pct(share)));
            continue;
        };
        let base_share = ns / base_total;
        let ratio = share / base_share;
        gates.bound_if(
            base_share >= MIN_BASELINE_SHARE,
            label,
            ratio,
            Bound::AtMost(REGRESSION_FACTOR),
            &format!(
                "share {} vs baseline {} ({ratio:.2}x)",
                pct(share),
                pct(base_share)
            ),
        );
    }
    gates.finish();
}
