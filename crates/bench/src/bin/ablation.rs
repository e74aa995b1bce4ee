//! Ablations motivated by §5 and §7:
//!
//! 1. **Policy optimality gap** — constant-time vs locally-minimum vs the
//!    exhaustive (NP-hard) optimum on small cyclic inputs. The paper can
//!    only bound the gap (local-min loses ≤ 0.5%); with the exact solver
//!    we measure it.
//! 2. **Codec redesign** — the paper attributes most lost compression to
//!    codeword inefficiency and suggests a redesign; we compare the
//!    paper-faithful codewords, the plain varint in-place codewords and
//!    the chained "improved" format on converted deltas.
//! 3. **Copy buffer granularity** — §4.1's directional copies work with
//!    "a read/write buffer of any size"; we verify equivalence and time
//!    the device-style bounce-buffer applier across chunk sizes.
//!
//! Run: `cargo run -p ipr-bench --release --bin ablation`

use ipr_bench::{bytes, experiment_corpus, pct, quartiles, timed, Table};
use ipr_core::{
    apply_in_place, apply_in_place_buffered, convert_to_in_place, required_capacity,
    ConversionConfig, CyclePolicy,
};
use ipr_delta::codec::{encoded_size, Format};
use ipr_delta::diff::{Differ, GreedyDiffer};
use ipr_workloads::corpus::CorpusSpec;
use std::time::Duration;

/// Timed passes over the corpus per differ in ablation 4.
const DIFF_PASSES: usize = 7;

fn main() {
    policy_gap();
    codec_redesign();
    buffer_granularity();
    differ_comparison();
    spill_curve();
}

/// Cycle loss as a function of device scratch budget: budget 0 is the
/// paper's no-scratch algorithm; enough budget eliminates the loss.
fn spill_curve() {
    use ipr_core::spill::{convert_with_spill, SpillConfig};
    println!("\n== Ablation 5: scratch budget vs cycle loss (spilled conversion) ==\n");
    let corpus = experiment_corpus();
    let differ = GreedyDiffer::default();
    let mut version_total = 0u64;
    let scripts: Vec<_> = corpus
        .iter()
        .map(|pair| {
            version_total += pair.version.len() as u64;
            (differ.diff(&pair.reference, &pair.version), pair)
        })
        .collect();
    let mut t = Table::new(vec![
        "scratch budget",
        "copies stashed",
        "copies converted",
        "cycle loss (B)",
        "loss vs original",
    ]);
    for budget in [0u64, 256, 1024, 4096, 64 * 1024, u64::MAX] {
        let mut stashed = 0usize;
        let mut converted = 0usize;
        let mut loss = 0u64;
        for (script, pair) in &scripts {
            let out = convert_with_spill(
                script,
                &pair.reference,
                &SpillConfig {
                    conversion: ConversionConfig::default(),
                    scratch_budget: budget,
                },
            )
            .expect("conversion cannot fail");
            stashed += out.stashed.len();
            converted += out.copies_converted;
            loss += out.conversion_cost;
        }
        t.row(vec![
            if budget == u64::MAX {
                "unbounded".into()
            } else {
                bytes(budget)
            },
            stashed.to_string(),
            converted.to_string(),
            bytes(loss),
            pct(loss as f64 / version_total as f64),
        ]);
    }
    t.print();
    println!(
        "\n  a few KiB of device scratch recovers most of the paper's cycle\n\
         loss while still avoiding a full second image."
    );
}

/// Compression/time trade-off of the three differencing engines — the
/// §2 lineage: quadratic-greedy quality vs linear-time algorithms, and
/// how much of the gap the correcting pass recovers.
fn differ_comparison() {
    use ipr_delta::diff::{CorrectingDiffer, OnePassDiffer};
    println!("\n== Ablation 4: differencing engines (median of {DIFF_PASSES} passes) ==\n");
    let corpus = experiment_corpus();
    let differs: [&dyn Differ; 3] = [
        &GreedyDiffer::default(),
        &OnePassDiffer::default(),
        &CorrectingDiffer::default(),
    ];
    let mut t = Table::new(vec![
        "differ",
        "delta bytes",
        "compression",
        "diff time",
        "p25–p75",
    ]);
    let mut version_total = 0u64;
    for pair in &corpus {
        version_total += pair.version.len() as u64;
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for differ in differs {
        let diff_all = || {
            corpus
                .iter()
                .map(|pair| differ.diff(&pair.reference, &pair.version))
                .collect::<Vec<_>>()
        };
        let delta: u64 = diff_all()
            .iter()
            .map(|script| encoded_size(script, Format::Ordered).expect("write-ordered"))
            .sum();
        // Only the diffs are timed: each pass's scripts drop untimed.
        let [p25, p50, p75] = quartiles(DIFF_PASSES, diff_all);
        t.row(vec![
            differ.name().into(),
            bytes(delta),
            pct(delta as f64 / version_total as f64),
            format!("{:.0} ms", ms(p50)),
            format!("{:.0}–{:.0} ms", ms(p25), ms(p75)),
        ]);
    }
    t.print();
    println!(
        "\n  the correcting pass recovers much of greedy's quality at\n\
         one-pass speed — the trade the paper's differencing lineage makes."
    );
}

/// Small corpus with aggressive block moves so cycles are common, sized so
/// the exhaustive solver stays feasible.
fn policy_gap() {
    println!("== Ablation 1: cycle-breaking policy vs exact optimum ==\n");
    let corpus = CorpusSpec {
        pairs: 40,
        min_len: 2 * 1024,
        max_len: 8 * 1024,
        seed: 7,
        ..CorpusSpec::default()
    }
    .build();
    let differ = GreedyDiffer::default();
    let format = Format::InPlace;

    let mut totals = [0u64; 3]; // constant, local-min, exhaustive
    let mut solved = 0usize;
    let mut cyclic = 0usize;
    for pair in &corpus {
        let script = differ.diff(&pair.reference, &pair.version);
        let run = |policy| {
            convert_to_in_place(
                &script,
                &pair.reference,
                &ConversionConfig {
                    policy,
                    cost_format: format,
                },
            )
        };
        let ct = run(CyclePolicy::ConstantTime).expect("heuristics cannot fail");
        let lm = run(CyclePolicy::LocallyMinimum).expect("heuristics cannot fail");
        let Ok(exact) = run(CyclePolicy::Exhaustive { limit: 18 }) else {
            continue; // a component too large for exact search
        };
        solved += 1;
        if ct.report.cycles_broken > 0 {
            cyclic += 1;
        }
        totals[0] += ct.report.conversion_cost;
        totals[1] += lm.report.conversion_cost;
        totals[2] += exact.report.conversion_cost;
    }

    let mut t = Table::new(vec!["policy", "total cycle cost (B)", "vs optimum"]);
    let opt = totals[2].max(1) as f64;
    t.row(vec![
        "constant-time".into(),
        bytes(totals[0]),
        format!("{:.2}x", totals[0] as f64 / opt),
    ]);
    t.row(vec![
        "locally-minimum".into(),
        bytes(totals[1]),
        format!("{:.2}x", totals[1] as f64 / opt),
    ]);
    t.row(vec![
        "exhaustive optimum".into(),
        bytes(totals[2]),
        "1.00x".into(),
    ]);
    t.print();
    println!(
        "\n  {solved} pairs exactly solvable, {cyclic} of them cyclic; local-min\n\
         captures most of the gap between constant-time and the NP-hard optimum.\n"
    );
    assert!(
        totals[1] <= totals[0],
        "local-min must not lose more than constant-time"
    );
    assert!(totals[2] <= totals[1], "optimum must be at least as good");
}

fn codec_redesign() {
    println!("== Ablation 2: codeword redesign for in-place deltas ==\n");
    let corpus = experiment_corpus();
    let differ = GreedyDiffer::default();
    let config = ConversionConfig::default();

    let mut version_total = 0u64;
    let mut sizes = [0u64; 3]; // paper-in-place, in-place, improved
    for pair in &corpus {
        let script = differ.diff(&pair.reference, &pair.version);
        let out =
            convert_to_in_place(&script, &pair.reference, &config).expect("conversion cannot fail");
        version_total += pair.version.len() as u64;
        for (i, format) in [Format::PaperInPlace, Format::InPlace, Format::Improved]
            .into_iter()
            .enumerate()
        {
            sizes[i] += encoded_size(&out.script, format).expect("in-place formats encode");
        }
    }
    let mut t = Table::new(vec!["codec", "delta bytes", "compression"]);
    for (name, s) in [
        ("paper codewords (4B offsets, 1B add len)", sizes[0]),
        ("varint in-place codewords", sizes[1]),
        ("improved (chained write offsets)", sizes[2]),
    ] {
        t.row(vec![
            name.into(),
            bytes(s),
            pct(s as f64 / version_total as f64),
        ]);
    }
    t.print();
    println!(
        "\n  the redesign the paper proposes recovers {} of delta size vs the\n\
         paper codewords on the same converted scripts.\n",
        pct((sizes[0] - sizes[2]) as f64 / sizes[0] as f64)
    );
    assert!(
        sizes[2] <= sizes[1],
        "improved codec must not lose to plain varint"
    );
}

fn buffer_granularity() {
    println!("== Ablation 3: bounce-buffer granularity of in-place apply ==\n");
    let corpus = CorpusSpec {
        pairs: 6,
        min_len: 256 * 1024,
        max_len: 512 * 1024,
        seed: 11,
        ..CorpusSpec::default()
    }
    .build();
    let differ = GreedyDiffer::default();
    let config = ConversionConfig::default();

    let prepared: Vec<_> = corpus
        .iter()
        .map(|pair| {
            let script = differ.diff(&pair.reference, &pair.version);
            let out = convert_to_in_place(&script, &pair.reference, &config)
                .expect("conversion cannot fail");
            (pair, out.script)
        })
        .collect();

    let mut t = Table::new(vec!["chunk size", "total apply time", "correct"]);
    // Baseline: unbuffered memmove-style apply.
    let (ok, base_time) = timed(|| {
        prepared.iter().all(|(pair, script)| {
            let mut buf = pair.reference.clone();
            buf.resize(required_capacity(script) as usize, 0);
            apply_in_place(script, &mut buf).expect("capacity checked");
            buf[..pair.version.len()] == pair.version[..]
        })
    });
    t.row(vec![
        "memmove (unbuffered)".into(),
        format!("{:.2} ms", base_time.as_secs_f64() * 1e3),
        ok.to_string(),
    ]);
    for chunk in [1usize, 16, 256, 4096, 65536] {
        let (ok, time) = timed(|| {
            prepared.iter().all(|(pair, script)| {
                let mut buf = pair.reference.clone();
                buf.resize(required_capacity(script) as usize, 0);
                apply_in_place_buffered(script, &mut buf, chunk).expect("capacity checked");
                buf[..pair.version.len()] == pair.version[..]
            })
        });
        assert!(ok, "chunk {chunk} produced wrong bytes");
        t.row(vec![
            format!("{chunk} B"),
            format!("{:.2} ms", time.as_secs_f64() * 1e3),
            ok.to_string(),
        ]);
    }
    t.print();
    println!("\n  every granularity reconstructs identical bytes (invariant I8).");
}
