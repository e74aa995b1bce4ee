//! §2/§7 — delta compression compresses distributed software "by a factor
//! of 4 to 10" and shrinks transmission time accordingly; in-place
//! conversion keeps almost all of that benefit.
//!
//! Reports the corpus compression-factor distribution and the end-to-end
//! transfer-time speedup of in-place deltas over full images on three
//! channel models.
//!
//! Run: `cargo run -p ipr-bench --release --bin transfer`

use ipr_bench::{bytes, experiment_corpus, pct, Table};
use ipr_delta::diff::GreedyDiffer;
use ipr_device::Channel;
use ipr_pipeline::{Engine, EngineConfig};
use std::time::Duration;

fn main() {
    let corpus = experiment_corpus();
    let mut engine = Engine::with_differ(GreedyDiffer::default(), EngineConfig::default());

    let mut factors = Vec::new();
    let mut total_full = 0u64;
    let mut total_delta = 0u64;
    for pair in &corpus {
        let update = engine
            .update(&pair.reference, &pair.version)
            .expect("preparation cannot fail on corpus pairs");
        total_full += pair.version.len() as u64;
        total_delta += update.payload.len() as u64;
        factors.push(pair.version.len() as f64 / update.payload.len() as f64);
    }
    factors.sort_by(f64::total_cmp);
    let n = factors.len();

    println!("Compression factors of in-place deltas over {n} pairs\n");
    let mut t = Table::new(vec!["percentile", "factor"]);
    for (label, idx) in [
        ("p10", n / 10),
        ("p25", n / 4),
        ("median", n / 2),
        ("p75", 3 * n / 4),
        ("p90", 9 * n / 10),
    ] {
        t.row(vec![label.into(), format!("{:.1}x", factors[idx])]);
    }
    t.row(vec![
        "aggregate".into(),
        format!("{:.1}x", total_full as f64 / total_delta as f64),
    ]);
    t.print();
    let in_band = factors.iter().filter(|&&f| f >= 4.0).count();
    println!(
        "\n  {} of {} pairs compress 4x or better (paper: \"a factor of 4 to 10\")",
        in_band, n
    );

    println!(
        "\nTransfer time: full image vs in-place delta ({} B vs {} B total)\n",
        bytes(total_full),
        bytes(total_delta)
    );
    let mut t = Table::new(vec!["channel", "full image", "in-place delta", "saved"]);
    for channel in [Channel::dialup(), Channel::isdn(), Channel::cellular()] {
        let full = channel.transfer_time(total_full);
        let delta = channel.transfer_time(total_delta);
        t.row(vec![
            channel.to_string(),
            fmt_duration(full),
            fmt_duration(delta),
            pct(1.0 - delta.as_secs_f64() / full.as_secs_f64()),
        ]);
    }
    t.print();

    println!("\nLossy dial-up (stop-and-wait ARQ, 576 B frames):\n");
    let mut t = Table::new(vec!["frame loss", "full image", "in-place delta", "saved"]);
    for loss in [0.0f64, 0.05, 0.2] {
        let ch = ipr_device::LossyChannel::new(Channel::dialup(), loss, 1998);
        let full = ch.simulate_transfer(0, total_full, 576).time;
        let delta = ch.simulate_transfer(0, total_delta, 576).time;
        t.row(vec![
            pct(loss),
            fmt_duration(full),
            fmt_duration(delta),
            pct(1.0 - delta.as_secs_f64() / full.as_secs_f64()),
        ]);
    }
    t.print();

    distribution_images(&mut engine);
}

/// Packaged-distribution images (the paper's actual artifact shape): one
/// container of many member files per release, members shifting whenever
/// an earlier member changes size.
fn distribution_images(engine: &mut Engine<GreedyDiffer>) {
    use ipr_workloads::archive::distribution_pair;
    println!("\nPackaged distribution images (container of member files per release):\n");
    let mut t = Table::new(vec![
        "distribution",
        "image size",
        "edited members",
        "delta size",
        "factor",
    ]);
    for (i, (members, lo, hi)) in [
        (30usize, 2_000usize, 8_000usize),
        (80, 4_000, 16_000),
        (150, 8_000, 32_000),
    ]
    .iter()
    .enumerate()
    {
        let pair = distribution_pair(100 + i as u64, *members, *lo..*hi);
        let update = engine
            .update(&pair.old, &pair.new)
            .expect("preparation cannot fail");
        t.row(vec![
            format!("{members} members"),
            bytes(pair.new.len() as u64),
            pair.edited_members.to_string(),
            bytes(update.payload.len() as u64),
            format!(
                "{:.1}x",
                pair.new.len() as f64 / update.payload.len() as f64
            ),
        ]);
    }
    t.print();
    println!(
        "\nMember-level edits shift every following byte of the container,\n\
         yet the differ re-finds the unchanged members at their new offsets:\n\
         patch-release distribution deltas compress at or beyond the paper's\n\
         4-10x band."
    );
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 3600.0 {
        format!("{:.1} h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{s:.1} s")
    }
}
