//! Streaming install vs download-then-apply over lossy channels.
//!
//! One firmware hop (`IPR_BENCH_STREAM_BYTES` bytes, drifted the same
//! way every run) is shipped as a chunked delta stream through every
//! channel preset (dialup / ISDN / cellular) at loss rates 0, 1% and
//! 5%, and installed two ways:
//!
//! * **streaming** — [`ipr_device::stream_install`] pulls chunks through
//!   the lossy channel and applies commands while the tail of the delta
//!   is still on the wire; *time to first reconstructed byte* is the
//!   simulated instant the first command lands in flash;
//! * **download-then-apply** — the whole payload crosses the same
//!   channel first, so its first reconstructed byte cannot land before
//!   the transfer completes.
//!
//! Every cell asserts byte-identity with an offline apply and that the
//! decoder's resident buffer stayed under the frame+chunk bound; a
//! kill/resume leg on the worst channel checks the checkpoint path end
//! to end. All reported times are *simulated* (pure functions of the
//! payload, the channel model and the loss seed), so they are identical
//! on every machine and `--compare` gates them exactly.
//!
//! Results land in `results/BENCH_streaming_install.json`.
//!
//! Run: `cargo run -p ipr-bench --release --bin streaming_install`
//!
//! With `--compare <baseline.json>` the run gates instead of writing:
//!
//! * byte-identity and the buffer bound (asserted in every run);
//! * streaming TTFB is below download-then-apply on every dialup cell
//!   (that is the point of streaming; the other channels are
//!   informational);
//! * `wire_len`, the cell count and six fields of every cell (simulated
//!   times, retransmissions, chunks, commands) equal the baseline's.

use ipr_bench::baseline::{self, Baseline, Bound, Ledger};
use ipr_bench::{env_usize, object};
use ipr_device::{stream_install, Channel, Device, LossyChannel, StreamProgress, StreamReport};
use ipr_pipeline::{DeltaStream, Engine};
use ipr_workloads::content::{self, ContentKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const LOSS_RATES: [f64; 3] = [0.0, 0.01, 0.05];
const LOSS_SEED: u64 = 9;

fn presets() -> [(&'static str, Channel); 3] {
    [
        ("dialup", Channel::dialup()),
        ("isdn", Channel::isdn()),
        ("cellular", Channel::cellular()),
    ]
}

/// One channel × loss measurement.
struct Cell {
    channel: &'static str,
    loss: f64,
    ttfb_ns: u64,
    total_ns: u64,
    download_ns: u64,
    retransmissions: u64,
    chunks: u64,
    commands: u64,
    commands_pre_eof: u64,
    buffered_high_water: u64,
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("simulated time fits in u64 nanoseconds")
}

fn fresh_device(reference: &[u8], version: &[u8]) -> Device {
    let mut device = Device::new(reference.len().max(version.len()));
    device.flash(reference).expect("flash reference");
    device
}

fn complete(
    device: &mut Device,
    stream: &DeltaStream,
    channel: LossyChannel,
    mtu: usize,
) -> StreamReport {
    match stream_install(device, stream, channel, mtu, None, None).expect("streaming install") {
        StreamProgress::Complete(report) => report,
        StreamProgress::Killed { .. } => unreachable!("no kill requested"),
    }
}

fn main() {
    let compare = baseline::compare_arg("streaming_install");
    let bytes = env_usize("IPR_BENCH_STREAM_BYTES", 256 * 1024);
    let chunk = env_usize("IPR_BENCH_STREAM_CHUNK", 1024);
    let mtu = env_usize("IPR_BENCH_STREAM_MTU", 576);

    // One firmware hop with moderate drift: the shipped release keeps
    // most of the image (block moves the differ turns into copies) but
    // rewrites ~10% with fresh content scattered across sixteen sites,
    // so the delta compresses well yet still spans many chunks.
    let mut rng = StdRng::seed_from_u64(777);
    let reference = content::generate(&mut rng, ContentKind::BinaryLike, bytes);
    let mut version = reference.clone();
    version.rotate_left(bytes / 16);
    for i in 0..16 {
        let at = i * bytes / 16;
        let fresh = content::generate(&mut rng, ContentKind::BinaryLike, bytes / 160);
        let end = (at + fresh.len()).min(version.len());
        version[at..end].copy_from_slice(&fresh[..end - at]);
    }

    let delta = Engine::new()
        .update(&reference, &version)
        .expect("prepare streaming update");

    // Offline ground truth and the decoder's resident-memory bound:
    // the largest possible buffered suffix is one maximal command frame
    // (tag + three ten-byte varints + the largest add literal) plus one
    // not-yet-drained chunk.
    let max_literal = delta
        .script
        .commands()
        .iter()
        .map(|c| match c {
            ipr_delta::Command::Add(a) => a.len(),
            ipr_delta::Command::Copy(_) => 0,
        })
        .max()
        .unwrap_or(0);
    let buffer_bound = max_literal + 31 + chunk as u64;
    let stream = DeltaStream::from_wire(delta.payload, chunk);
    let wire_len = stream.wire_len();
    let offline = {
        let mut device = fresh_device(&reference, &version);
        let report = complete(
            &mut device,
            &stream,
            LossyChannel::new(Channel::isdn(), 0.0, 1),
            mtu,
        );
        assert!(report.crc_verified, "offline reference run must verify");
        device.image().to_vec()
    };
    assert_eq!(offline, version, "stream decodes to the shipped version");

    println!(
        "Streaming install: {} KiB image, {wire_len} B wire, {chunk} B chunks, {mtu} B MTU\n",
        bytes / 1024
    );
    println!(
        "{:<10} {:>6} {:>14} {:>14} {:>14} {:>7} {:>8}",
        "channel", "loss", "ttfb ms", "total ms", "download ms", "ratio", "retx"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for (name, base) in presets() {
        for loss in LOSS_RATES {
            let channel = LossyChannel::new(base, loss, LOSS_SEED);
            let mut device = fresh_device(&reference, &version);
            let report = complete(&mut device, &stream, channel, mtu);
            assert!(report.crc_verified, "{name}/{loss}: CRC must verify");
            assert_eq!(
                device.image(),
                &offline[..],
                "{name}/{loss}: streaming differs from offline apply"
            );
            assert!(
                report.buffered_high_water <= buffer_bound,
                "{name}/{loss}: high water {} exceeds bound {buffer_bound}",
                report.buffered_high_water
            );
            let download_ns = duration_ns(channel.simulate_transfer(0, wire_len, mtu).time);
            let ttfb_ns = duration_ns(
                report
                    .time_to_first_byte
                    .expect("install applies at least one command"),
            );
            let cell = Cell {
                channel: name,
                loss,
                ttfb_ns,
                total_ns: duration_ns(report.transfer_time),
                download_ns,
                retransmissions: report.retransmissions,
                chunks: report.chunks,
                commands: report.commands_applied,
                commands_pre_eof: report.commands_pre_eof,
                buffered_high_water: report.buffered_high_water,
            };
            println!(
                "{:<10} {:>5.0}% {:>14.1} {:>14.1} {:>14.1} {:>7.3} {:>8}",
                cell.channel,
                cell.loss * 100.0,
                cell.ttfb_ns as f64 / 1e6,
                cell.total_ns as f64 / 1e6,
                cell.download_ns as f64 / 1e6,
                cell.ttfb_ns as f64 / cell.download_ns as f64,
                cell.retransmissions
            );
            cells.push(cell);
        }
    }

    // Kill/resume leg on the worst channel: die mid-stream, persist the
    // checkpoint through its wire form, resume, and land byte-identical.
    let resume_channel = LossyChannel::new(Channel::dialup(), 0.05, LOSS_SEED);
    let total_chunks = wire_len.div_ceil(chunk as u64);
    let kill_at = total_chunks / 2;
    let mut device = fresh_device(&reference, &version);
    let resumes = match stream_install(
        &mut device,
        &stream,
        resume_channel,
        mtu,
        None,
        Some(kill_at),
    )
    .expect("killed install")
    {
        StreamProgress::Killed { checkpoint, .. } => {
            let restored = ipr_device::InstallCheckpoint::decode(
                &checkpoint.expect("kill lands past the header").encode(),
            )
            .expect("checkpoint round-trips");
            match stream_install(
                &mut device,
                &stream,
                resume_channel,
                mtu,
                Some(&restored),
                None,
            )
            .expect("resumed install")
            {
                StreamProgress::Complete(report) => report.resumes,
                StreamProgress::Killed { .. } => unreachable!("no kill on resume"),
            }
        }
        StreamProgress::Complete(_) => unreachable!("kill point is mid-stream"),
    };
    assert_eq!(
        device.image(),
        &offline[..],
        "resumed install differs from offline apply"
    );
    println!(
        "\nkill/resume on dialup @5%: killed after chunk {kill_at}/{total_chunks}, \
         {resumes} resume(s), byte-identical"
    );

    let Some(path) = compare else {
        let cells = cells.iter().map(|c| {
            object! {
                "channel": c.channel,
                "loss": c.loss,
                "ttfb_ns": c.ttfb_ns,
                "total_ns": c.total_ns,
                "download_ns": c.download_ns,
                "retransmissions": c.retransmissions,
                "chunks": c.chunks,
                "commands": c.commands,
                "commands_pre_eof": c.commands_pre_eof,
                "buffered_high_water": c.buffered_high_water,
            }
        });
        baseline::write(
            "streaming_install",
            object! {
                "image_bytes": bytes,
                "chunk_bytes": chunk,
                "mtu_bytes": mtu,
                "wire_len": wire_len,
                "buffer_bound": buffer_bound,
                "resume_kill_at": kill_at,
                "resumes": resumes,
                "cells": cells.collect::<Vec<_>>(),
            },
        );
        return;
    };
    // Simulated times are exact functions of the payload and the channel
    // model, so drift is a behavioural change in the differ, the codec
    // or the channel.
    let base = Baseline::load(&path);
    let mut gates = Ledger::new(&base);
    gates.exact("wire_len", wire_len, base.get("wire_len").u64());
    gates.exact("cell count", cells.len(), base.get("cells").count());
    for cell in &cells {
        let label = format!("{}@{:.0}%", cell.channel, cell.loss * 100.0);
        // Streaming must reach the first reconstructed byte before
        // download-then-apply on dialup, the channel the paper's "low
        // bandwidth" argument is about.
        let ratio = cell.ttfb_ns as f64 / cell.download_ns as f64;
        gates.bound_if(
            cell.channel == "dialup",
            &format!("{label} ttfb / download"),
            ratio,
            Bound::Below(1.0),
            &format!("{ratio:.3}"),
        );
        let row = base
            .get("cells")
            .row(&[("channel", cell.channel), ("loss", &cell.loss.to_string())]);
        for (key, got) in [
            ("ttfb_ns", cell.ttfb_ns),
            ("total_ns", cell.total_ns),
            ("download_ns", cell.download_ns),
            ("retransmissions", cell.retransmissions),
            ("chunks", cell.chunks),
            ("commands", cell.commands),
        ] {
            gates.exact(&format!("{label} {key}"), got, row.get(key).u64());
        }
    }
    gates.finish();
}
