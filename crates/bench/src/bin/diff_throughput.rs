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
//! * **compression** — on the baseline's corpus (same `pairs` and
//!   `version_bytes`), any configuration's summed encoded delta bytes
//!   exceed the baseline's *at all* (diff output is deterministic, so a
//!   single extra byte is a real algorithmic change, not noise); on any
//!   other corpus these lines are informational. Within the run, any
//!   parallel configuration's delta bytes exceed the serial engine's by
//!   more than [`SEAM_TOLERANCE`] (seam stitching; holds on the quick CI
//!   corpus too);
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
//! for the record and gate nothing. The baseline file is left untouched
//! in this mode.

use ipr_bench::baseline::{self, fixed, Baseline, Bound, Ledger};
use ipr_bench::{best_of, env_usize, experiment_corpus, host_parallelism, object};
use ipr_delta::codec::{encoded_size, Format};
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
            encoded_size(&script, Format::Ordered).expect("encodable script")
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
                encoded_size(&script, Format::Ordered).expect("encodable script")
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
    let compare = baseline::compare_arg("diff_throughput");
    let corpus = experiment_corpus();
    let reps = env_usize("IPR_BENCH_REPS", 3);
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

    println!(
        "Diff throughput: {} pairs, {:.1} MiB of version data, {} reps, host has {} core(s)\n",
        corpus.len(),
        mib,
        reps,
        host_parallelism()
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

    let Some(path) = compare else {
        let results = rows.iter().map(|r| {
            object! {
                "differ": r.differ,
                "config": r.config,
                "threads": r.threads,
                "total_ns": r.total_ns,
                "mib_per_s": fixed(r.mib_per_s, 1),
                "speedup_vs_serial": fixed(r.speedup, 3),
                "delta_bytes": r.delta_bytes,
            }
        });
        baseline::write(
            "diff_throughput",
            object! {
                "pairs": corpus.len(),
                "version_bytes": version_bytes,
                "reps": reps,
                "results": results.collect::<Vec<_>>(),
            },
        );
        return;
    };
    let base = Baseline::load(&path);
    // Cross-run delta bytes compare only on the same corpus; a quick CI
    // corpus against the full-corpus baseline would trivially "pass".
    let same_corpus = base.same_corpus(&[
        ("pairs", corpus.len() as u64),
        ("version_bytes", version_bytes),
    ]);
    let mut gates = Ledger::new(&base);
    for r in &rows {
        let label = format!("{}/{}/t{}", r.differ, r.config, r.threads);
        let threads = r.threads.to_string();
        let row = base.get("results").row(&[
            ("differ", r.differ),
            ("config", r.config),
            ("threads", &threads),
        ]);
        match row.get("delta_bytes").try_f64() {
            Ok(want) => gates.bound_if(
                same_corpus,
                &label,
                r.delta_bytes as f64,
                Bound::AtMost(want),
                &format!("delta bytes {} vs baseline {want}", r.delta_bytes),
            ),
            Err(missing) => gates.info(&label, &missing),
        };
    }
    // Within-run gates: rows of the same run, so corpus size and machine
    // speed cancel.
    let serial = |differ: &str| {
        rows.iter()
            .find(|r| r.differ == differ && r.config == "serial")
            .expect("serial row present")
    };
    for differ in ["greedy", "sampled-greedy", "one-pass", "correcting"] {
        let serial = serial(differ);
        for par in rows
            .iter()
            .filter(|r| r.differ == differ && r.config == "parallel")
        {
            if par.threads == 1 {
                let ratio = par.total_ns as f64 / serial.total_ns as f64;
                gates.bound(
                    &format!("{differ}: 1-thread parallel time"),
                    ratio,
                    Bound::AtMost(OVERHEAD_FACTOR),
                    &format!("{ratio:.2}x serial"),
                );
            }
            let ratio = par.delta_bytes as f64 / serial.delta_bytes.max(1) as f64;
            gates.bound(
                &format!("{differ}: t{} parallel delta bytes", par.threads),
                ratio,
                Bound::AtMost(SEAM_TOLERANCE),
                &format!("{ratio:.4}x serial"),
            );
        }
    }
    let (full, sampled) = (serial("greedy"), serial("sampled-greedy"));
    let bytes = sampled.delta_bytes as f64 / full.delta_bytes.max(1) as f64;
    gates.bound(
        "sampled-greedy: serial delta bytes",
        bytes,
        Bound::AtMost(SAMPLED_BYTES_FACTOR),
        &format!("{bytes:.4}x greedy serial"),
    );
    let speed = sampled.mib_per_s / full.mib_per_s;
    gates.bound(
        "sampled-greedy: serial MiB/s",
        speed,
        Bound::AtLeast(SAMPLED_SPEED_FACTOR),
        &format!("{speed:.4}x greedy serial"),
    );
    gates.finish();
}
