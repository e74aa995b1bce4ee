//! §7 timing — in-place conversion vs delta compression run time.
//!
//! Paper findings to reproduce in shape:
//!
//! * conversion completed in **56%** of the time differencing took,
//!   aggregated over all inputs;
//! * conversion was slower than differencing on only **0.1%** of inputs
//!   and never took more than **2×** as long;
//! * the locally-minimum policy costs about the same time as the
//!   constant-time policy on average (occasionally up to ~25% slower).
//!
//! Run: `cargo run -p ipr-bench --release --bin timing`

use ipr_bench::{experiment_corpus, fastest, pct, timed, Table};
use ipr_core::{convert_to_in_place, ConversionConfig, CyclePolicy};
use ipr_delta::diff::{Differ, GreedyDiffer, OnePassDiffer};
use std::time::Duration;

fn main() {
    // The paper pairs in-place conversion with its linear-time differencing
    // algorithm; the one-pass differ is our equivalent. The greedy differ
    // is reported as well to show the ratio against a heavier compressor.
    run(&OnePassDiffer::default());
    println!();
    run(&GreedyDiffer::default());
}

fn run(differ: &dyn Differ) {
    let corpus = experiment_corpus();

    let mut diff_total = Duration::ZERO;
    let mut lm_total = Duration::ZERO;
    let mut ct_total = Duration::ZERO;
    let mut slower = 0usize;
    let mut max_ratio = 0.0f64;
    let mut per_pair_ratios = Vec::new();

    for pair in &corpus {
        let (script, diff_time) = timed(|| differ.diff(&pair.reference, &pair.version));
        let convert = |policy| {
            convert_to_in_place(
                &script,
                &pair.reference,
                &ConversionConfig::with_policy(policy),
            )
            .expect("conversion cannot fail")
        };
        // One unmeasured warm-up run per pair, then best-of-3: the first
        // conversion after a large diff otherwise absorbs allocator and
        // cache effects that have nothing to do with the algorithm.
        let _ = convert(CyclePolicy::LocallyMinimum);
        let lm_time = fastest(3, || convert(CyclePolicy::LocallyMinimum));
        let ct_time = fastest(3, || convert(CyclePolicy::ConstantTime));
        diff_total += diff_time;
        lm_total += lm_time;
        ct_total += ct_time;
        let ratio = lm_time.as_secs_f64() / diff_time.as_secs_f64().max(1e-9);
        per_pair_ratios.push(ratio);
        if ratio > 1.0 {
            slower += 1;
        }
        max_ratio = max_ratio.max(ratio);
    }

    let n = corpus.len();
    let agg_ratio = lm_total.as_secs_f64() / diff_total.as_secs_f64();
    let ct_vs_lm = lm_total.as_secs_f64() / ct_total.as_secs_f64().max(1e-9);
    per_pair_ratios.sort_by(f64::total_cmp);
    let median = per_pair_ratios[n / 2];

    println!(
        "§7 timing: in-place conversion vs delta compression ({n} pairs, {} differ)\n",
        differ.name()
    );
    let mut t = Table::new(vec!["metric", "measured", "paper"]);
    t.row(vec![
        "conversion time / differencing time (aggregate)".into(),
        pct(agg_ratio),
        "56%".into(),
    ]);
    t.row(vec![
        "conversion time / differencing time (median pair)".into(),
        pct(median),
        "-".into(),
    ]);
    t.row(vec![
        "pairs where conversion was slower".into(),
        format!("{slower}/{n} ({})", pct(slower as f64 / n as f64)),
        "0.1%".into(),
    ]);
    t.row(vec![
        "worst-case conversion/differencing ratio".into(),
        format!("{max_ratio:.2}x"),
        "< 2x".into(),
    ]);
    t.row(vec![
        "local-min time / constant-time time".into(),
        format!("{ct_vs_lm:.2}x"),
        "~1x".into(),
    ]);
    t.print();

    println!();
    let shape = [
        (
            "conversion faster than differencing overall",
            agg_ratio < 1.0,
        ),
        (
            "local-min run time comparable to constant-time (within 25%)",
            ct_vs_lm < 1.25,
        ),
    ];
    for (what, ok) in shape {
        println!("  [{}] {what}", if ok { "ok" } else { "MISMATCH" });
    }
}
