//! Ablations motivated by §5 and §7:
//!
//! 1. **Policy optimality gap** — constant-time vs locally-minimum vs the
//!    exhaustive (NP-hard) optimum on small cyclic inputs. The paper can
//!    only bound the gap (local-min loses ≤ 0.5%); with the exact solver
//!    we measure it.
//! 2. **Codec redesign** — the paper attributes most lost compression to
//!    codeword inefficiency and suggests a redesign; we compare the
//!    paper-faithful codewords, the plain varint in-place codewords and
//!    the chained "improved" format on converted deltas, and time every
//!    format's encode and decode (the write-ordered ones on the diffs).
//! 3. **Copy buffer granularity** — §4.1's directional copies work with
//!    "a read/write buffer of any size"; we verify equivalence and time
//!    the device-style bounce-buffer applier across chunk sizes, and the
//!    journaled (resumable) applier at one chunk size.
//!
//! Run: `cargo run -p ipr-bench --release --bin ablation`

use ipr_bench::{bytes, experiment_corpus, pct, quartiles, Table};
use ipr_core::resumable::{resume_in_place, Journal, Progress};
use ipr_core::{
    apply_in_place, apply_in_place_buffered, convert_to_in_place, required_capacity,
    ConversionConfig, CyclePolicy,
};
use ipr_delta::codec::{decode, encode, encoded_size, Format};
use ipr_delta::diff::{Differ, GreedyDiffer};
use ipr_delta::DeltaScript;
use ipr_workloads::corpus::{CorpusSpec, FilePair};
use std::time::Duration;

/// Timed passes over the corpus per format in ablation 2.
const CODEC_PASSES: usize = 7;
/// Timed passes over the prepared scripts per applier in ablation 3.
const APPLY_PASSES: usize = 7;
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
    println!("== Ablation 2: codeword redesign for in-place deltas (codec time: median of {CODEC_PASSES} passes) ==\n");
    let corpus = experiment_corpus();
    let differ = GreedyDiffer::default();
    let config = ConversionConfig::default();

    let mut version_total = 0u64;
    let (diffs, converted): (Vec<_>, Vec<_>) = corpus
        .iter()
        .map(|pair| {
            version_total += pair.version.len() as u64;
            let script = differ.diff(&pair.reference, &pair.version);
            let out = convert_to_in_place(&script, &pair.reference, &config)
                .expect("conversion cannot fail");
            (script, out.script)
        })
        .collect();
    let mut t = Table::new(vec![
        "codec",
        "delta bytes",
        "compression",
        "encode",
        "decode",
    ]);
    let ms = |d: Duration| format!("{:.2} ms", d.as_secs_f64() * 1e3);
    let mut sizes = [0u64; 5];
    // The in-place formats encode the converted scripts; the write-ordered
    // ones (what `ipr diff` writes) can only encode the diffs.
    for (i, (name, format, scripts)) in [
        (
            "paper codewords (4B offsets, 1B add len)",
            Format::PaperInPlace,
            &converted,
        ),
        ("varint in-place codewords", Format::InPlace, &converted),
        (
            "improved (chained write offsets)",
            Format::Improved,
            &converted,
        ),
        (
            "paper write-ordered (unconverted)",
            Format::PaperOrdered,
            &diffs,
        ),
        (
            "varint write-ordered (unconverted)",
            Format::Ordered,
            &diffs,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let encode_all = || {
            scripts
                .iter()
                .map(|script| encode(script, format).expect("every script encodes"))
                .collect::<Vec<_>>()
        };
        let encoded = encode_all();
        sizes[i] = encoded.iter().map(|bytes| bytes.len() as u64).sum();
        // Only the codec is timed: each pass's output drops untimed.
        let [_, encode_time, _] = quartiles(CODEC_PASSES, encode_all);
        let [_, decode_time, _] = quartiles(CODEC_PASSES, || {
            encoded
                .iter()
                .map(|bytes| decode(bytes).expect("well-formed"))
                .collect::<Vec<_>>()
        });
        t.row(vec![
            name.into(),
            bytes(sizes[i]),
            pct(sizes[i] as f64 / version_total as f64),
            ms(encode_time),
            ms(decode_time),
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
    println!(
        "== Ablation 3: bounce-buffer granularity of in-place apply (median of {APPLY_PASSES} passes) ==\n"
    );
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
            (pair, script, out.script)
        })
        .collect();

    let mut t = Table::new(vec!["applier", "total apply time", "correct"]);
    // Each applier rebuilds every version once, checked, then is timed;
    // each pass's rebuilt files drop untimed.
    let mut row =
        |name: String, apply: &dyn Fn(&FilePair, &DeltaScript, &DeltaScript) -> Vec<u8>| {
            let ok = prepared
                .iter()
                .all(|(pair, diff, converted)| apply(pair, diff, converted) == pair.version);
            assert!(ok, "{name} produced wrong bytes");
            let [_, time, _] = quartiles(APPLY_PASSES, || {
                prepared
                    .iter()
                    .map(|(pair, diff, converted)| apply(pair, diff, converted))
                    .collect::<Vec<_>>()
            });
            t.row(vec![
                name,
                format!("{:.2} ms", time.as_secs_f64() * 1e3),
                ok.to_string(),
            ]);
        };
    // The in-place appliers rebuild inside the reference's own buffer,
    // grown to the script's capacity.
    let in_place = |pair: &FilePair, script: &DeltaScript, apply: &dyn Fn(&mut [u8])| {
        let mut buf = pair.reference.clone();
        buf.resize(required_capacity(script) as usize, 0);
        apply(&mut buf);
        buf.truncate(pair.version.len());
        buf
    };
    // Reference point: `ipr apply` keeps the reference and writes the
    // version into a second buffer.
    row("scratch (second buffer)".into(), &|pair, diff, _| {
        ipr_delta::apply(diff, &pair.reference).expect("lengths match")
    });
    row("memmove (unbuffered)".into(), &|pair, _, script| {
        in_place(pair, script, &|buf| {
            apply_in_place(script, buf).expect("capacity checked");
        })
    });
    for chunk in [1usize, 16, 256, 4096, 65536] {
        row(format!("{chunk} B"), &|pair, _, script| {
            in_place(pair, script, &|buf| {
                apply_in_place_buffered(script, buf, chunk).expect("capacity checked");
            })
        });
    }
    // The journaled applier stages every chunk so a power loss can resume.
    row("resumable, 4096 B chunks".into(), &|pair, _, script| {
        in_place(pair, script, &|buf| {
            let progress = resume_in_place(script, buf, &mut Journal::new(), 4096, u64::MAX)
                .expect("capacity checked");
            assert_eq!(progress, Progress::Complete);
        })
    });
    t.print();
    println!("\n  every granularity reconstructs identical bytes (invariant I8).");
}
