//! Differencing throughput: serial vs parallel shared-index diff.
//!
//! Differencing dominates the pipeline (~97% of end-to-end time in
//! `results/BENCH_phase_breakdown.json`), so this benchmark tracks the
//! phase directly: every differ family is run serially and wrapped in
//! [`ParallelDiffer`] at 1/2/4/8 threads over the experiment corpus,
//! reporting MiB/s of version bytes differenced and the encoded delta
//! size (the compression cost of chunked scanning — bounded by seam
//! stitching). The `greedy` rows index every reference offset, as the
//! paper reproduction does; the `sampled-greedy` rows are the Engine's
//! differ, [`GreedyDiffer::sampled`], which indexes and probes only
//! checkpoint seeds. A shared [`DiffScratch`] arena is reused across every
//! call, so steady state measures the algorithms, not the allocator.
//!
//! Results land in `results/BENCH_diff_throughput.json`.
//! `host_parallelism` records how many cores the numbers were taken on:
//! speedups above it are not physically possible on that host.
//!
//! Run: `cargo run -p ipr-bench --release --bin diff_throughput`
//!
//! With `--compare <baseline.json>` the run instead gates against a
//! previously written report and exits non-zero on a regression:
//!
//! * **compression** — any configuration's summed encoded delta bytes
//!   exceed the baseline's *at all* (diff output is deterministic, so on
//!   the synthetic corpus a single extra byte is a real algorithmic
//!   change, not noise), or any parallel configuration's delta bytes
//!   exceed the same-run serial engine's by more than [`SEAM_TOLERANCE`]
//!   (a corpus-size-independent seam-stitching gate that holds even on
//!   the quick CI corpus);
//! * **overhead** — single-threaded parallel falls behind the serial
//!   engine by more than [`OVERHEAD_FACTOR`] (a machine-independent
//!   within-run ratio; absolute times are never gated);
//! * **sampling** — the sampled serial row's delta bytes exceed the same
//!   run's full-index greedy serial row's by more than
//!   [`SAMPLED_BYTES_FACTOR`], or its MiB/s fall below
//!   [`SAMPLED_SPEED_FACTOR`] times that row's: checkpointing must keep
//!   paying for the bytes it costs.
//!
//! Timing rows at thread counts above the host's parallelism are printed
//! for the record but carry no information — on a single-core runner
//! every multi-thread row is just the 1-thread row plus scheduling
//! noise, so compare mode flags them as informational and gates nothing
//! on them until a multi-core baseline run lands.
//!
//! The baseline file is left untouched in this mode.

use ipr_bench::experiment_corpus;
use ipr_delta::codec::{encode, Format};
use ipr_delta::diff::{
    CorrectingDiffer, DiffScratch, GreedyDiffer, IndexedDiffer, OnePassDiffer, ParallelDiffer,
};
use ipr_workloads::corpus::FilePair;
use std::time::Instant;

/// Gate: a parallel configuration's encoded delta bytes may exceed the
/// same-run serial engine's by at most this much (2%, the documented
/// seam-stitching bound). The cross-run baseline gate is stricter:
/// deterministic output means delta bytes must not grow *at all*.
const SEAM_TOLERANCE: f64 = 1.02;
/// Gate: single-threaded parallel may cost at most this much of serial.
const OVERHEAD_FACTOR: f64 = 2.0;
/// Gate: the sampled differ's serial delta bytes may exceed the full
/// index's by at most this factor. Measured: 1.0003 on the full 200-pair
/// corpus, 1.0010 on CI's 40-pair quick corpus (pairs of at most 64 KiB).
const SAMPLED_BYTES_FACTOR: f64 = 1.005;
/// Gate: the sampled differ's serial MiB/s must reach at least this
/// multiple of the full index's. Measured on a 2-core x86-64 host: 2.4 to
/// 3.3 on the full corpus, 2.6 to 2.9 on the quick one.
const SAMPLED_SPEED_FACTOR: f64 = 1.5;

struct Row {
    differ: &'static str,
    config: &'static str,
    threads: usize,
    total_ns: u128,
    mib_per_s: f64,
    speedup: f64,
    delta_bytes: u64,
}

fn best_of(reps: usize, mut f: impl FnMut() -> u128) -> u128 {
    let mut best = f();
    for _ in 1..reps {
        best = best.min(f());
    }
    best
}

/// One timed pass of `diff` over the corpus; delta bytes are summed once
/// outside the timed region.
fn corpus_pass(corpus: &[FilePair], mut diff: impl FnMut(&FilePair)) -> u128 {
    let t = Instant::now();
    for pair in corpus {
        diff(pair);
    }
    t.elapsed().as_nanos()
}

/// Serial + 1/2/4/8-thread parallel rows for one differ family.
fn bench_differ<D: IndexedDiffer + Clone>(
    name: &'static str,
    inner: D,
    corpus: &[FilePair],
    reps: usize,
    mib: f64,
) -> Vec<Row> {
    let throughput = |ns: u128| mib / (ns as f64 / 1e9);

    let serial_ns = best_of(reps, || {
        corpus_pass(corpus, |p| {
            std::hint::black_box(inner.diff(&p.reference, &p.version));
        })
    });
    let serial_delta: u64 = corpus
        .iter()
        .map(|p| {
            let script = inner.diff(&p.reference, &p.version);
            encode(&script, Format::Ordered)
                .expect("encodable script")
                .len() as u64
        })
        .sum();
    let mut rows = vec![Row {
        differ: name,
        config: "serial",
        threads: 1,
        total_ns: serial_ns,
        mib_per_s: throughput(serial_ns),
        speedup: 1.0,
        delta_bytes: serial_delta,
    }];

    let mut scratch = DiffScratch::new();
    for threads in [1usize, 2, 4, 8] {
        let differ = ParallelDiffer::new(inner.clone()).with_threads(threads);
        let ns = best_of(reps, || {
            corpus_pass(corpus, |p| {
                std::hint::black_box(differ.diff_with(&mut scratch, &p.reference, &p.version));
            })
        });
        let delta_bytes: u64 = corpus
            .iter()
            .map(|p| {
                let script = differ.diff_with(&mut scratch, &p.reference, &p.version);
                encode(&script, Format::Ordered)
                    .expect("encodable script")
                    .len() as u64
            })
            .sum();
        rows.push(Row {
            differ: name,
            config: "parallel",
            threads,
            total_ns: ns,
            mib_per_s: throughput(ns),
            speedup: serial_ns as f64 / ns as f64,
            delta_bytes,
        });
    }
    rows
}

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
                eprintln!(
                    "unknown argument `{other}`; usage: diff_throughput [--compare <baseline.json>]"
                );
                std::process::exit(2);
            }
        }
    }

    let corpus = experiment_corpus();
    let reps: usize = std::env::var("IPR_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let version_bytes: u64 = corpus.iter().map(|p| p.version.len() as u64).sum();
    let mib = version_bytes as f64 / (1024.0 * 1024.0);

    let mut rows = Vec::new();
    rows.extend(bench_differ(
        "greedy",
        GreedyDiffer::default(),
        &corpus,
        reps,
        mib,
    ));
    rows.extend(bench_differ(
        "sampled-greedy",
        GreedyDiffer::sampled(),
        &corpus,
        reps,
        mib,
    ));
    rows.extend(bench_differ(
        "one-pass",
        OnePassDiffer::default(),
        &corpus,
        reps,
        mib,
    ));
    rows.extend(bench_differ(
        "correcting",
        CorrectingDiffer::default(),
        &corpus,
        reps,
        mib,
    ));

    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "Diff throughput: {} pairs, {:.1} MiB of version data, {} reps, host has {} core(s)\n",
        corpus.len(),
        mib,
        reps,
        host
    );
    println!(
        "{:<15} {:<9} {:>8} {:>12} {:>10} {:>9} {:>13}",
        "differ", "config", "threads", "total ms", "MiB/s", "speedup", "delta bytes"
    );
    for r in &rows {
        println!(
            "{:<15} {:<9} {:>8} {:>12.2} {:>10.1} {:>8.2}x {:>13}",
            r.differ,
            r.config,
            r.threads,
            r.total_ns as f64 / 1e6,
            r.mib_per_s,
            r.speedup,
            r.delta_bytes
        );
    }

    if let Some(path) = baseline_path {
        let breaches = compare_to_baseline(&rows, &path, corpus.len(), version_bytes);
        if breaches > 0 {
            eprintln!("\n{breaches} regression(s) past the gates");
            std::process::exit(1);
        }
        return;
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"diff_throughput\",\n");
    json.push_str("  \"command\": \"cargo run -p ipr-bench --release --bin diff_throughput\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"pairs\": {},\n", corpus.len()));
    json.push_str(&format!("  \"version_bytes\": {version_bytes},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"differ\": \"{}\", \"config\": \"{}\", \"threads\": {}, \"total_ns\": {}, \
             \"mib_per_s\": {:.1}, \"speedup_vs_serial\": {:.3}, \"delta_bytes\": {}}}{}\n",
            r.differ,
            r.config,
            r.threads,
            r.total_ns,
            r.mib_per_s,
            r.speedup,
            r.delta_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_diff_throughput.json", &json).expect("write results");
    println!("\nwrote results/BENCH_diff_throughput.json");
}

/// Gates the current rows against a stored report; returns breach count.
fn compare_to_baseline(rows: &[Row], path: &str, pairs: usize, version_bytes: u64) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let baseline = ipr_trace::json::parse(&text)
        .unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"));
    let results = baseline
        .get("results")
        .and_then(|r| r.as_array())
        .unwrap_or_else(|| panic!("baseline {path} has no results array"));
    let baseline_delta = |differ: &str, config: &str, threads: usize| -> Option<u64> {
        results
            .iter()
            .find(|r| {
                r.get("differ").and_then(|v| v.as_str()) == Some(differ)
                    && r.get("config").and_then(|v| v.as_str()) == Some(config)
                    && r.get("threads").and_then(ipr_trace::json::Value::as_u64)
                        == Some(threads as u64)
            })?
            .get("delta_bytes")?
            .as_u64()
    };

    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "\nComparison against {path} (gates: delta bytes ≤ baseline, parallel delta bytes \
         ≤ {SEAM_TOLERANCE}x serial, 1-thread parallel ≤ {OVERHEAD_FACTOR}x serial, sampled \
         serial delta bytes ≤ {SAMPLED_BYTES_FACTOR}x and MiB/s ≥ {SAMPLED_SPEED_FACTOR}x \
         greedy serial)\n"
    );
    if host == 1 {
        println!(
            "note: host has 1 core — timing rows at threads > 1 are informational only \
             (no speedup is physically possible; nothing is gated on them)\n"
        );
    }
    let mut breaches = 0;
    // Cross-run delta bytes are only comparable when both runs saw the
    // same corpus; a quick-corpus CI run against a full-corpus baseline
    // would trivially "pass" every row, which is worse than saying so.
    let get_u64 = |key: &str| {
        baseline
            .get(key)
            .and_then(ipr_trace::json::Value::as_u64)
            .unwrap_or(0)
    };
    let same_corpus = get_u64("pairs") == pairs as u64 && get_u64("version_bytes") == version_bytes;
    if same_corpus {
        for r in rows {
            let Some(base) = baseline_delta(r.differ, r.config, r.threads) else {
                println!(
                    "{}/{}/t{}: no baseline row (ungated)",
                    r.differ, r.config, r.threads
                );
                continue;
            };
            let status = if r.delta_bytes > base {
                breaches += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{}/{}/t{}: delta bytes {} vs baseline {} {status}",
                r.differ, r.config, r.threads, r.delta_bytes, base
            );
        }
    } else {
        println!(
            "baseline corpus differs ({} pairs / {} bytes vs this run's {pairs} / \
             {version_bytes}) — cross-run delta gates skipped; within-run gates still apply",
            get_u64("pairs"),
            get_u64("version_bytes")
        );
    }
    // Within-run gates: these compare rows from the same run, so corpus
    // size and machine speed cancel — they hold on the quick CI corpus
    // even when the baseline was taken on the full one.
    let serial_row = |differ: &str| {
        rows.iter()
            .find(|r| r.differ == differ && r.config == "serial")
            .expect("serial row present")
    };
    for differ in ["greedy", "sampled-greedy", "one-pass", "correcting"] {
        let serial = serial_row(differ);
        let par1 = rows
            .iter()
            .find(|r| r.differ == differ && r.config == "parallel" && r.threads == 1)
            .expect("1-thread parallel row present");
        let ratio = par1.total_ns as f64 / serial.total_ns as f64;
        let status = if ratio > OVERHEAD_FACTOR {
            breaches += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("{differ}: 1-thread parallel is {ratio:.2}x serial {status}");
        for par in rows
            .iter()
            .filter(|r| r.differ == differ && r.config == "parallel")
        {
            let ratio = par.delta_bytes as f64 / serial.delta_bytes.max(1) as f64;
            let status = if ratio > SEAM_TOLERANCE {
                breaches += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{differ}: t{} parallel delta bytes are {ratio:.4}x serial {status}",
                par.threads
            );
        }
    }
    let (full, sampled) = (serial_row("greedy"), serial_row("sampled-greedy"));
    let bytes = sampled.delta_bytes as f64 / full.delta_bytes.max(1) as f64;
    let speed = sampled.mib_per_s / full.mib_per_s;
    for (what, ratio, pass) in [
        ("delta bytes", bytes, bytes <= SAMPLED_BYTES_FACTOR),
        ("MiB/s", speed, speed >= SAMPLED_SPEED_FACTOR),
    ] {
        let status = if pass {
            "ok"
        } else {
            breaches += 1;
            "REGRESSED"
        };
        println!("sampled-greedy: serial {what} are {ratio:.4}x greedy serial {status}");
    }
    breaches
}
