//! End-to-end resumable streaming installs: kill-at-every-chunk-boundary
//! crash sweeps (mirroring `store_crash.rs` for the OTA path), lossy
//! channel determinism and retransmission accounting, and proptests over
//! random image pairs.

use ipr::device::{
    stream_install, Channel, Device, InstallCheckpoint, LossyChannel, StreamProgress,
};
use ipr::pipeline::DeltaStream;
use ipr::Engine;
use proptest::prelude::*;
use std::time::Duration;

fn pair() -> (Vec<u8>, Vec<u8>) {
    let v1: Vec<u8> = (0..24_000u32).map(|i| (i * 31 % 253) as u8).collect();
    let mut v2 = v1.clone();
    v2.rotate_left(3000);
    for i in (0..v2.len()).step_by(151) {
        v2[i] = v2[i].wrapping_add(17);
    }
    (v1, v2)
}

fn prepared(reference: &[u8], version: &[u8], chunk: usize) -> DeltaStream {
    let delta = Engine::new()
        .update(reference, version)
        .expect("prepare streaming update");
    DeltaStream::from_wire(delta.payload, chunk)
}

fn flashed(reference: &[u8], version: &[u8]) -> Device {
    let mut device = Device::new(reference.len().max(version.len()));
    device.flash(reference).expect("flash reference");
    device
}

#[test]
fn lossy_channel_is_deterministic_per_seed() {
    let base = Channel::dialup();
    for loss in [0.0, 0.1, 0.4] {
        for seed in [0u64, 7, 0xdead_beef] {
            let a = LossyChannel::new(base, loss, seed).simulate_transfer(0, 100_000, 576);
            let b = LossyChannel::new(base, loss, seed).simulate_transfer(0, 100_000, 576);
            assert_eq!(a, b, "loss {loss} seed {seed}");
        }
    }
    // Different seeds explore different loss patterns (at a rate where
    // at least one retransmission is effectively certain).
    let a = LossyChannel::new(base, 0.4, 1).simulate_transfer(0, 1_000_000, 576);
    let b = LossyChannel::new(base, 0.4, 2).simulate_transfer(0, 1_000_000, 576);
    assert_ne!(
        (a.time, a.retransmissions),
        (b.time, b.retransmissions),
        "independent seeds produced identical loss patterns"
    );
}

#[test]
fn retransmission_accounting_matches_the_report() {
    // With the payload a multiple of the MTU every frame costs the same,
    // so the report must satisfy the exact identity
    //   time == (frames + retransmissions) * transfer_time(mtu).
    let base = Channel::isdn();
    let mtu = 500usize;
    let bytes = 50_000u64; // 100 full frames
    for (loss, seed) in [(0.0, 1u64), (0.05, 2), (0.25, 3), (0.6, 4)] {
        let report = LossyChannel::new(base, loss, seed).simulate_transfer(0, bytes, mtu);
        assert_eq!(report.frames, bytes / mtu as u64, "loss {loss}");
        let per_frame = base.transfer_time(mtu as u64);
        assert_eq!(
            report.time,
            per_frame * u32::try_from(report.frames + report.retransmissions).unwrap(),
            "loss {loss}: time does not match per-frame accounting"
        );
        if loss == 0.0 {
            assert_eq!(report.retransmissions, 0);
        }
    }
}

#[test]
fn streamed_install_retransmissions_track_the_loss_rate() {
    // Each chunk draws its losses at its own wire offset, so over a
    // whole streamed install the frames are lost independently and the
    // retransmissions per frame track stop-and-wait's p/(1-p).
    let mut state = 0x2545_f491u32;
    let mut noise = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    };
    let v1 = noise(16_384);
    let v2 = noise(160_000); // unrelated bytes: the wire is mostly literals
    let (chunk, mtu, loss) = (512usize, 128usize, 0.05);
    let stream = prepared(&v1, &v2, chunk);
    let channel = LossyChannel::new(Channel::dialup(), loss, 11);
    let mut device = flashed(&v1, &v2);
    let stats = std::sync::Arc::new(ipr::trace::StatsRecorder::new());
    let progress = {
        let _guard = ipr::trace::install(stats.clone());
        stream_install(&mut device, &stream, channel, mtu, None, None).expect("install")
    };
    let StreamProgress::Complete(report) = progress else {
        panic!("no kill requested");
    };
    assert_eq!(device.image(), &v2[..]);
    let counters = stats.report();
    let frames = counters.counter("device.channel.frames").expect("frames");
    assert!(frames >= 1_000, "only {frames} frames");
    assert_eq!(
        counters.counter("device.channel.retransmissions"),
        Some(report.retransmissions)
    );
    let expected = loss / (1.0 - loss);
    let rate = report.retransmissions as f64 / frames as f64;
    assert!(
        (0.5 * expected..=2.0 * expected).contains(&rate),
        "{} retransmissions over {frames} frames in {} chunks: {rate:.4} per frame, \
         expected about {expected:.4}",
        report.retransmissions,
        report.chunks
    );
}

#[test]
fn kill_at_every_chunk_boundary_resumes_byte_identical() {
    let (v1, v2) = pair();
    let chunk = 96usize;
    let stream = prepared(&v1, &v2, chunk);
    let total_chunks = stream.wire_len().div_ceil(chunk as u64);
    assert!(total_chunks > 8, "sweep needs several boundaries");
    let channel = LossyChannel::new(Channel::dialup(), 0.05, 9);

    for kill_at in 1..=total_chunks {
        let mut device = flashed(&v1, &v2);
        let progress = stream_install(&mut device, &stream, channel, 576, None, Some(kill_at))
            .expect("first power cycle");
        if let StreamProgress::Killed { checkpoint, .. } = progress {
            // Round-trip the checkpoint through its wire form, as a
            // device persisting it to flash would.
            let restored = checkpoint
                .map(|c| InstallCheckpoint::decode(&c.encode()).expect("checkpoint round-trips"));
            let resumed =
                stream_install(&mut device, &stream, channel, 576, restored.as_ref(), None)
                    .expect("resumed power cycle");
            assert!(
                matches!(resumed, StreamProgress::Complete(_)),
                "kill at {kill_at}: resume did not complete"
            );
        }
        assert_eq!(device.image(), &v2[..], "kill at {kill_at}");
    }
}

#[test]
fn streaming_beats_download_then_apply_to_first_byte() {
    // The whole point of streaming: reconstruction starts while the
    // delta is still on the wire. Time-to-first-reconstructed-byte must
    // come in under the full transfer time of download-then-apply.
    let (v1, v2) = pair();
    let stream = prepared(&v1, &v2, 512);
    let channel = LossyChannel::new(Channel::dialup(), 0.0, 1);
    let mut device = flashed(&v1, &v2);
    let StreamProgress::Complete(report) =
        stream_install(&mut device, &stream, channel, 576, None, None).expect("install")
    else {
        panic!("no kill requested");
    };
    let download_then_apply = channel.simulate_transfer(0, stream.wire_len(), 576).time;
    let ttfb = report.time_to_first_byte.expect("commands were applied");
    assert!(
        ttfb < download_then_apply,
        "streaming first byte at {ttfb:?}, download-then-apply needs {download_then_apply:?}"
    );
    assert!(report.commands_pre_eof > 0);
    assert!(report.transfer_time > Duration::ZERO);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random image pairs, chunkings and loss rates: a kill at every
    /// chunk boundary, resumed through a serialized checkpoint, must
    /// converge to the same bytes as an uninterrupted install — and
    /// replaying a checkpoint on a copy of the flash is idempotent.
    #[test]
    fn random_pairs_survive_boundary_kills(
        reference in proptest::collection::vec(any::<u8>(), 1..2048),
        edits in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..24),
        rotate in any::<prop::sample::Index>(),
        chunk in 16usize..256,
        loss_seed in any::<u64>(),
        lossy_run in any::<bool>(),
    ) {
        let mut version = reference.clone();
        let pivot = rotate.index(version.len().max(1));
        version.rotate_left(pivot);
        for (at, value) in &edits {
            let i = at.index(version.len());
            version[i] = *value;
        }
        let stream = prepared(&reference, &version, chunk);
        let loss = if lossy_run { 0.05 } else { 0.0 };
        let channel = LossyChannel::new(Channel::cellular(), loss, loss_seed);
        let total_chunks = stream.wire_len().div_ceil(chunk as u64).max(1);

        for kill_at in 1..=total_chunks {
            let mut device = flashed(&reference, &version);
            let progress =
                stream_install(&mut device, &stream, channel, 576, None, Some(kill_at))
                    .expect("first power cycle");
            if let StreamProgress::Killed { checkpoint, .. } = progress {
                let restored = checkpoint.map(|c| {
                    InstallCheckpoint::decode(&c.encode()).expect("round trip")
                });
                // Checkpoint replay is idempotent: the same
                // checkpoint driven over two copies of the same flash
                // converges to identical images.
                let mut replica = device.clone();
                for dev in [&mut device, &mut replica] {
                    let done =
                        stream_install(dev, &stream, channel, 576, restored.as_ref(), None)
                            .expect("resumed power cycle");
                    prop_assert!(matches!(done, StreamProgress::Complete(_)));
                }
                prop_assert_eq!(device.image(), replica.image());
            }
            prop_assert_eq!(device.image(), &version[..], "kill at {}", kill_at);
        }
    }
}
