//! §4.3 — asymptotic behaviour: the conversion algorithm runs in
//! `O(n log n + L_V)` time and `O(n + L_V)` space for a delta of `n`
//! commands encoding a version of `L_V` bytes.
//!
//! We verify the shape empirically: doubling the input size should
//! roughly double conversion time (the log factor is invisible at these
//! scales), on both realistic corpora and the quadratic-edge adversarial
//! input (where `|E| = Θ(L_V)` dominates).
//!
//! Each conversion is timed [`REPS`] times; a row prints the median and
//! the p25–p75 range, and the time ratio is the ratio of medians.
//!
//! Run: `cargo run -p ipr-bench --release --bin scaling`

use ipr_bench::{bytes, quartiles, Table};
use ipr_core::{convert_to_in_place, ConversionConfig, CrwiGraph};
use ipr_delta::diff::{Differ, GreedyDiffer};
use ipr_workloads::adversarial::quadratic_edges;
use ipr_workloads::content::{generate, ContentKind};
use ipr_workloads::mutate::{mutate, MutationProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Timed runs per row.
const REPS: usize = 21;

/// The median and p25–p75 cells of a row, in µs.
fn time_cells([p25, p50, p75]: [Duration; 3]) -> [String; 2] {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    [
        format!("{:.1} µs", us(p50)),
        format!("{:.1}–{:.1} µs", us(p25), us(p75)),
    ]
}

fn main() {
    println!("§4.3 scaling: conversion time vs input size (median of {REPS} runs)\n");

    println!("Realistic corpus pairs (moderate revisions):\n");
    let mut t = Table::new(vec![
        "version size",
        "copies",
        "edges",
        "convert median",
        "p25–p75",
        "time ratio",
    ]);
    let mut prev: Option<f64> = None;
    for exp in 14..=21u32 {
        let len = 1usize << exp;
        let mut rng = StdRng::seed_from_u64(exp as u64);
        let reference = generate(&mut rng, ContentKind::BinaryLike, len);
        let version = mutate(&mut rng, &reference, &MutationProfile::default());
        let script = GreedyDiffer::default().diff(&reference, &version);
        let config = ConversionConfig::default();
        let out = convert_to_in_place(&script, &reference, &config).expect("cannot fail");
        let times = quartiles(REPS, || {
            convert_to_in_place(&script, &reference, &config).expect("ok")
        });
        let secs = times[1].as_secs_f64();
        let [median, range] = time_cells(times);
        t.row(vec![
            bytes(len as u64),
            script.copy_count().to_string(),
            out.report.edges.to_string(),
            median,
            range,
            prev.map_or("-".into(), |p| format!("{:.2}x", secs / p)),
        ]);
        prev = Some(secs);
    }
    t.print();

    println!("\nAdversarial quadratic-edge input (|E| = Θ(L_V) dominates):\n");
    let mut t = Table::new(vec![
        "L_V",
        "commands",
        "edges",
        "build+sort median",
        "p25–p75",
        "time ratio",
    ]);
    let mut prev: Option<f64> = None;
    for b in [64u64, 128, 256, 512, 1024] {
        let case = quadratic_edges(b);
        let copies = case.script.copies();
        let crwi = CrwiGraph::build(copies.clone());
        let config = ConversionConfig::default();
        let times = quartiles(REPS, || {
            convert_to_in_place(&case.script, &case.reference, &config).expect("ok")
        });
        let secs = times[1].as_secs_f64();
        let [median, range] = time_cells(times);
        t.row(vec![
            bytes(case.script.target_len()),
            copies.len().to_string(),
            crwi.edge_count().to_string(),
            median,
            range,
            prev.map_or("-".into(), |p| format!("{:.2}x", secs / p)),
        ]);
        prev = Some(secs);
    }
    t.print();
    println!(
        "\nEach row quadruples L_V (and the edge count), and the median time\n\
         grows about 3-4x per row: linear in L_V, the O(n log n + L_V) bound\n\
         with the edge term dominating on this input. A ratio is only as\n\
         steady as the p25-p75 ranges of its two rows."
    );
}
