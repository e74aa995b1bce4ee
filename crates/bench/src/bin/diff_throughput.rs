//! Differencing throughput of each differ family.
//!
//! Differencing dominates the pipeline (~97% of end-to-end time in
//! `results/BENCH_phase_breakdown.json`), so this benchmark tracks the
//! phase directly: every differ family diffs the experiment corpus,
//! reporting MiB/s of version bytes differenced and the encoded delta
//! size. The `greedy` row indexes every reference offset, as the paper
//! reproduction does; the `sampled-greedy` row is the Engine's differ,
//! [`GreedyDiffer::sampled`], which indexes and probes only checkpoint
//! seeds. Each diff runs on the calling thread's reused arena, so steady
//! state measures the algorithms, not the allocator.
//!
//! Results land in `results/BENCH_diff_throughput.json`.
//!
//! Run: `cargo run -p ipr-bench --release --bin diff_throughput`
//!
//! With `--compare <baseline.json>` the run instead gates against a
//! previously written report and exits non-zero on a regression:
//!
//! * **compression** — on the baseline's corpus (same `pairs` and
//!   `version_bytes`), any differ's summed encoded delta bytes exceed
//!   the baseline's *at all* (diff output is deterministic, so a single
//!   extra byte is a real algorithmic change, not noise); on any other
//!   corpus these lines are informational;
//! * **sampling** — the sampled row's delta bytes exceed the same run's
//!   full-index greedy row's by more than [`SAMPLED_BYTES_FACTOR`], or
//!   its MiB/s fall below [`SAMPLED_SPEED_FACTOR`] times that row's:
//!   checkpointing must keep paying for the bytes it costs (a
//!   machine-independent within-run ratio; absolute times are never
//!   gated).
//!
//! The baseline file is left untouched in this mode.

use ipr_bench::baseline::{self, fixed, Baseline, Bound, Ledger};
use ipr_bench::{best_of, env_usize, experiment_corpus, object};
use ipr_delta::codec::{encoded_size, Format};
use ipr_delta::diff::{CorrectingDiffer, Differ, GreedyDiffer, OnePassDiffer};
use ipr_workloads::corpus::FilePair;
use std::time::Instant;

/// Gate: the sampled differ's delta bytes may exceed the full
/// index's by at most this factor. Measured: 1.0003 on the full 200-pair
/// corpus, 1.0010 on CI's 40-pair quick corpus (pairs of at most 64 KiB).
const SAMPLED_BYTES_FACTOR: f64 = 1.005;
/// Gate: the sampled differ's MiB/s must reach at least this
/// multiple of the full index's. Measured on a 2-core x86-64 host: 2.4 to
/// 3.3 on the full corpus, 2.6 to 2.9 on the quick one.
const SAMPLED_SPEED_FACTOR: f64 = 1.5;

struct Row {
    differ: &'static str,
    total_ns: u128,
    mib_per_s: f64,
    delta_bytes: u64,
}

/// The row of one differ family: the best of `reps` timed passes over
/// the corpus, and the delta bytes summed once outside the timed region.
fn bench_differ(
    name: &'static str,
    differ: &dyn Differ,
    corpus: &[FilePair],
    reps: usize,
    mib: f64,
) -> Row {
    let total_ns = best_of(reps, || {
        let t = Instant::now();
        for p in corpus {
            std::hint::black_box(differ.diff(&p.reference, &p.version));
        }
        t.elapsed().as_nanos()
    });
    let delta_bytes = corpus
        .iter()
        .map(|p| {
            let script = differ.diff(&p.reference, &p.version);
            encoded_size(&script, Format::Ordered).expect("encodable script")
        })
        .sum();
    Row {
        differ: name,
        total_ns,
        mib_per_s: mib / (total_ns as f64 / 1e9),
        delta_bytes,
    }
}

fn main() {
    let compare = baseline::compare_arg("diff_throughput");
    let corpus = experiment_corpus();
    let reps = env_usize("IPR_BENCH_REPS", 3);
    let version_bytes: u64 = corpus.iter().map(|p| p.version.len() as u64).sum();
    let mib = version_bytes as f64 / (1024.0 * 1024.0);

    let differs: [(&str, &dyn Differ); 4] = [
        ("greedy", &GreedyDiffer::default()),
        ("sampled-greedy", &GreedyDiffer::sampled()),
        ("one-pass", &OnePassDiffer::default()),
        ("correcting", &CorrectingDiffer::default()),
    ];
    let rows: Vec<Row> = differs
        .into_iter()
        .map(|(name, differ)| bench_differ(name, differ, &corpus, reps, mib))
        .collect();

    println!(
        "Diff throughput: {} pairs, {:.1} MiB of version data, {} reps\n",
        corpus.len(),
        mib,
        reps
    );
    println!(
        "{:<15} {:>12} {:>10} {:>13}",
        "differ", "total ms", "MiB/s", "delta bytes"
    );
    for r in &rows {
        println!(
            "{:<15} {:>12.2} {:>10.1} {:>13}",
            r.differ,
            r.total_ns as f64 / 1e6,
            r.mib_per_s,
            r.delta_bytes
        );
    }

    let Some(path) = compare else {
        let results = rows.iter().map(|r| {
            object! {
                "differ": r.differ,
                "total_ns": r.total_ns,
                "mib_per_s": fixed(r.mib_per_s, 1),
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
        let row = base.get("results").row(&[("differ", r.differ)]);
        match row.get("delta_bytes").try_f64() {
            Ok(want) => gates.bound_if(
                same_corpus,
                r.differ,
                r.delta_bytes as f64,
                Bound::AtMost(want),
                &format!("delta bytes {} vs baseline {want}", r.delta_bytes),
            ),
            Err(missing) => gates.info(r.differ, &missing),
        };
    }
    // Within-run gates: rows of the same run, so corpus size and machine
    // speed cancel.
    let row = |differ: &str| {
        rows.iter()
            .find(|r| r.differ == differ)
            .expect("row present")
    };
    let (full, sampled) = (row("greedy"), row("sampled-greedy"));
    let bytes = sampled.delta_bytes as f64 / full.delta_bytes.max(1) as f64;
    gates.bound(
        "sampled-greedy: delta bytes",
        bytes,
        Bound::AtMost(SAMPLED_BYTES_FACTOR),
        &format!("{bytes:.4}x greedy"),
    );
    let speed = sampled.mib_per_s / full.mib_per_s;
    gates.bound(
        "sampled-greedy: MiB/s",
        speed,
        Bound::AtLeast(SAMPLED_SPEED_FACTOR),
        &format!("{speed:.4}x greedy"),
    );
    gates.finish();
}
