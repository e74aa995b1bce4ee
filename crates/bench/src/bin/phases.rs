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
//! With `--compare <baseline.json>` the run instead diffs itself against a
//! previously written breakdown and exits non-zero only when a phase's
//! *share of total pipeline time* grows by more than [`REGRESSION_FACTOR`].
//! Shares, not absolute times, so the gate is machine-independent; the
//! generous factor plus the [`MIN_BASELINE_SHARE`] floor keep CI noise from
//! tripping it. The baseline file is left untouched in this mode.

use ipr_bench::{experiment_corpus, pct, Table};
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
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--compare" => {
                baseline_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--compare needs a baseline JSON path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument `{other}`; usage: phases [--compare <baseline.json>]");
                std::process::exit(2);
            }
        }
    }

    let corpus = experiment_corpus();
    let recorder = Arc::new(ipr_trace::StatsRecorder::new());
    let _guard = ipr_trace::install(recorder.clone());

    // Recorded so readers of the JSON know the host the shares came from.
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    ipr_trace::gauge("host.parallelism", host as u64);

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
    let mut t = Table::new(vec!["phase", "calls", "total ms", "share"]);
    for (name, label) in phases {
        let s = report.span(name).expect("phase span recorded");
        t.row(vec![
            label.into(),
            s.count.to_string(),
            format!("{:.2}", s.total_ns as f64 / 1e6),
            pct(s.total_ns as f64 / total_ns as f64),
        ]);
    }
    t.print();

    println!("\nFull span tree and counters:\n\n{report}");

    if let Some(path) = baseline_path {
        let breaches = compare_to_baseline(&report, &phases, total_ns, &path);
        if breaches > 0 {
            eprintln!("\n{breaches} phase(s) regressed past {REGRESSION_FACTOR}x");
            std::process::exit(1);
        }
        return;
    }

    // `host_parallelism` rides at the top level (the convention shared
    // by every BENCH_*.json), not just as a recorded gauge: splice it
    // in right after the opening brace of the stats report.
    let json = report
        .to_json()
        .strip_prefix("{\n")
        .map(|rest| format!("{{\n  \"host_parallelism\": {host},\n{rest}"))
        .expect("stats report opens with a brace");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_phase_breakdown.json", json).expect("write results");
    println!("wrote results/BENCH_phase_breakdown.json");
}

/// Diffs the current run's phase shares against a stored breakdown and
/// prints the comparison table; returns the number of gated regressions.
fn compare_to_baseline(
    report: &ipr_trace::StatsReport,
    phases: &[(&str, &str)],
    total_ns: u64,
    path: &str,
) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let baseline = ipr_trace::json::parse(&text)
        .unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"));
    let baseline_ns =
        |name: &str| -> Option<u64> { baseline.get("spans")?.get(name)?.get("total_ns")?.as_u64() };
    let baseline_total: u64 = phases
        .iter()
        .filter_map(|(name, _)| baseline_ns(name))
        .sum();
    assert!(
        baseline_total > 0,
        "baseline {path} records none of the pipeline phases"
    );

    println!("\nPhase-share comparison against {path} (gate: {REGRESSION_FACTOR}x growth, phases under {:.0}% baseline share ungated)\n", MIN_BASELINE_SHARE * 100.0);
    let mut t = Table::new(vec!["phase", "baseline", "current", "ratio", "status"]);
    let mut breaches = 0;
    for &(name, label) in phases {
        let current =
            report.span(name).expect("phase span recorded").total_ns as f64 / total_ns as f64;
        let Some(base_ns) = baseline_ns(name) else {
            t.row(vec![
                label.into(),
                "—".into(),
                pct(current),
                "—".into(),
                "new phase (ungated)".into(),
            ]);
            continue;
        };
        let base = base_ns as f64 / baseline_total as f64;
        let ratio = if base > 0.0 {
            current / base
        } else {
            f64::INFINITY
        };
        let status = if base < MIN_BASELINE_SHARE {
            "ungated (tiny baseline share)"
        } else if ratio > REGRESSION_FACTOR {
            breaches += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        t.row(vec![
            label.into(),
            pct(base),
            pct(current),
            format!("{ratio:.2}x"),
            status.into(),
        ]);
    }
    t.print();
    breaches
}
