//! Resumable streaming installs: one path from lossy channel to
//! committed flash.
//!
//! The paper's device cannot hold two images — and on a slow, lossy
//! link it should not have to hold two *downloads* either.
//! [`stream_install`] ties the pieces built in earlier layers into one
//! install:
//!
//! * the incremental [`StreamDecoder`] pulls commands out of wire
//!   chunks with memory bounded by one command frame;
//! * each complete command is applied immediately through the
//!   [`UpdateSession`] write-before-read discipline, so
//!   reconstruction overlaps the transfer;
//! * every chunk boundary is a durable checkpoint: the decoder's
//!   [`StreamCheckpoint`] and the session's written spans and running
//!   statistics serialize into one [`InstallCheckpoint`]. Power loss
//!   at any chunk boundary resumes from the checkpoint — re-requesting
//!   the wire from the checkpointed offset, not from byte 0.
//!
//! The install state machine:
//!
//! ```text
//!            chunks              header parsed
//! Waiting ───────────► Waiting ───────────────► Installing
//!   │                                               │  ▲
//!   │ power cut (no checkpoint yet:                 │  │ resume
//!   │ restart from byte 0)                power cut │  │ (InstallCheckpoint)
//!   ▼                                               ▼  │
//! fresh start                                   checkpointed ──► Committed
//! ```
//!
//! [`stream_install`] pulls chunks from a [`DeltaStream`] through
//! [`LossyChannel::simulate_transfer`] and can simulate a power cut
//! after any number of chunks.

use crate::channel::LossyChannel;
use crate::device::{Device, UpdateSession, UpdateStats};
use crate::update::{verify_image_crc, InstallError};
use ipr_delta::checksum::crc32;
use ipr_delta::codec::stream::{StreamCheckpoint, StreamDecoder};
use ipr_delta::codec::DecodeError;
use ipr_pipeline::DeltaStream;
use std::fmt;
use std::time::Duration;

/// Error deserializing an [`InstallCheckpoint`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes end before the checkpoint record does.
    Truncated,
    /// The bytes do not start with the checkpoint magic (including a
    /// checkpoint written in an older format).
    BadMagic,
    /// The CRC-32 seal does not match (torn or corrupted write).
    Checksum {
        /// CRC recorded in the checkpoint.
        expected: u32,
        /// CRC of the bytes actually read.
        actual: u32,
    },
    /// The embedded decoder checkpoint is malformed.
    Decoder(DecodeError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "install checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not an install checkpoint"),
            CheckpointError::Checksum { expected, actual } => {
                write!(
                    f,
                    "install checkpoint CRC mismatch: {expected:#010x} != {actual:#010x}"
                )
            }
            CheckpointError::Decoder(e) => write!(f, "embedded decoder checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Magic prefix of a serialized [`InstallCheckpoint`].
const INSTALL_CHECKPOINT_MAGIC: [u8; 4] = *b"IPC2";

/// Durable snapshot of a streaming install at a chunk boundary.
///
/// Holds the two progress records a mid-stream power cut needs, each
/// kept once: the decoder's wire position ([`StreamCheckpoint`]) and
/// the update session's write-before-read state (the written spans as
/// coalesced intervals, with the running statistics). A device
/// persists this (a few dozen bytes plus the interval list) alongside
/// its storage; resuming cross-checks the two records before touching
/// flash and rebuilds the session's span set from the intervals.
#[derive(Clone, Debug, PartialEq)]
pub struct InstallCheckpoint {
    /// Decoder state at the last command boundary.
    pub decoder: StreamCheckpoint,
    /// Written regions as coalesced `[start, end)` intervals, all
    /// within the target.
    pub written: Vec<(u64, u64)>,
    /// Running update statistics (carried across power cycles).
    pub stats: UpdateStats,
    /// Power cycles this install has already survived.
    pub resumes: u64,
}

impl InstallCheckpoint {
    /// Serializes the checkpoint (fixed-width little-endian fields,
    /// CRC-32 sealed).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(&INSTALL_CHECKPOINT_MAGIC);
        let decoder = self.decoder.encode();
        out.extend_from_slice(&(decoder.len() as u64).to_le_bytes());
        out.extend_from_slice(&decoder);
        for v in [
            self.stats.commands as u64,
            self.stats.bytes_written,
            self.stats.bytes_read,
            self.stats.scratch_bytes,
            self.resumes,
            self.written.len() as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &(start, end) in &self.written {
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&end.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes a checkpoint written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on truncation, bad magic, CRC mismatch, or a
    /// malformed decoder record.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < INSTALL_CHECKPOINT_MAGIC.len() + 4 {
            return Err(CheckpointError::Truncated);
        }
        if bytes[..4] != INSTALL_CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let expected = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let actual = crc32(body);
        if expected != actual {
            return Err(CheckpointError::Checksum { expected, actual });
        }
        let mut at = 4usize;
        let read_u64 = |at: &mut usize| -> Result<u64, CheckpointError> {
            let end = at.checked_add(8).ok_or(CheckpointError::Truncated)?;
            let raw = body.get(*at..end).ok_or(CheckpointError::Truncated)?;
            *at = end;
            Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
        };
        let read_block = |at: &mut usize| -> Result<&[u8], CheckpointError> {
            let len = usize::try_from(read_u64(at)?).map_err(|_| CheckpointError::Truncated)?;
            let end = at.checked_add(len).ok_or(CheckpointError::Truncated)?;
            let raw = body.get(*at..end).ok_or(CheckpointError::Truncated)?;
            *at = end;
            Ok(raw)
        };
        let decoder =
            StreamCheckpoint::decode(read_block(&mut at)?).map_err(CheckpointError::Decoder)?;
        let stats = UpdateStats {
            commands: read_u64(&mut at)? as usize,
            bytes_written: read_u64(&mut at)?,
            bytes_read: read_u64(&mut at)?,
            scratch_bytes: read_u64(&mut at)?,
        };
        let resumes = read_u64(&mut at)?;
        let intervals = read_u64(&mut at)?;
        let mut written = Vec::new();
        for _ in 0..intervals {
            let start = read_u64(&mut at)?;
            let end = read_u64(&mut at)?;
            written.push((start, end));
        }
        if at != body.len() {
            return Err(CheckpointError::Truncated);
        }
        Ok(Self {
            decoder,
            written,
            stats,
            resumes,
        })
    }

    /// The wire offset a resuming device re-requests from.
    #[must_use]
    pub fn stream_offset(&self) -> u64 {
        self.decoder.byte_offset
    }

    /// Cross-checks the decoder's record against the session's;
    /// returns a human-readable reason if they disagree (corrupted or
    /// hand-forged checkpoint). Every decoded command was applied, and
    /// the session's writes are disjoint, so the spans sum to the
    /// bytes written.
    fn validate(&self) -> Result<(), String> {
        if self.stats.commands as u64 != self.decoder.commands_decoded {
            return Err(format!(
                "session applied {} commands, decoder checkpoint decoded {}",
                self.stats.commands, self.decoder.commands_decoded
            ));
        }
        let target_len = self.decoder.header.target_len;
        let mut previous_end = 0u64;
        let mut total = 0u64;
        for &(start, end) in &self.written {
            if start >= end || end > target_len || (previous_end > 0 && start < previous_end) {
                return Err(format!("bad written interval [{start}, {end})"));
            }
            previous_end = end;
            total += end - start;
        }
        if total != self.stats.bytes_written {
            return Err(format!(
                "written intervals cover {total} bytes, session wrote {}",
                self.stats.bytes_written
            ));
        }
        Ok(())
    }
}

/// Accounting for one [`stream_install`] power cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Wire bytes received this power cycle.
    pub received_bytes: u64,
    /// Simulated channel time this power cycle (includes
    /// retransmissions).
    pub transfer_time: Duration,
    /// Simulated time at which the first target byte was reconstructed
    /// this cycle, if any command was applied — the streaming path's
    /// headline metric against download-then-apply.
    pub time_to_first_byte: Option<Duration>,
    /// Frames re-sent by the lossy channel this cycle.
    pub retransmissions: u64,
    /// Chunks transferred this cycle.
    pub chunks: u64,
    /// Commands applied to flash (cumulative across power cycles).
    pub commands_applied: u64,
    /// Commands applied while wire bytes were still outstanding —
    /// "waves applied pre-EOF", the overlap the streaming path buys.
    pub commands_pre_eof: u64,
    /// Power cycles survived (cumulative).
    pub resumes: u64,
    /// Decoder resident-buffer high water this cycle.
    pub buffered_high_water: u64,
    /// Final update statistics; present only on completion.
    pub stats: Option<UpdateStats>,
    /// Whether a CRC was present and verified (completion only).
    pub crc_verified: bool,
}

impl StreamReport {
    /// Counts one `len`-byte chunk sent from wire offset `offset`.
    fn transfer(&mut self, channel: &LossyChannel, offset: u64, len: usize, mtu: usize) {
        let frames = channel.simulate_transfer(offset, len as u64, mtu);
        self.transfer_time += frames.time;
        self.retransmissions += frames.retransmissions;
        self.chunks += 1;
        self.received_bytes += len as u64;
    }

    /// Publishes this cycle's `stream.*` counters and gauge.
    fn record(&self) {
        ipr_trace::with(|r| {
            r.add("stream.chunks", self.chunks);
            r.add("stream.commands_pre_eof", self.commands_pre_eof);
            r.gauge("stream.buffered_high_water", self.buffered_high_water);
        });
    }
}

/// Outcome of one [`stream_install`] power cycle.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamProgress {
    /// The update committed (and, if a CRC was embedded, verified).
    Complete(StreamReport),
    /// Simulated power cut after the requested number of chunks. The
    /// checkpoint is `None` when the cut landed before the header
    /// finished arriving — there is nothing to resume; start over.
    Killed {
        /// Snapshot to persist and pass to the next power cycle.
        checkpoint: Option<InstallCheckpoint>,
        /// Accounting for this (truncated) cycle.
        report: StreamReport,
    },
}

/// Runs one power cycle of a streaming install: pulls chunks from
/// `stream` through [`LossyChannel::simulate_transfer`] (frame drops
/// retransmit inside a chunk; they never restart the stream, and each
/// chunk draws its losses at its own wire offset), applies
/// commands as they complete, and — if `kill_after_chunks` is set —
/// simulates a power cut after that many chunk transfers.
///
/// Fresh installs pass `resume_from: None`; after a
/// [`StreamProgress::Killed`] outcome, persist the checkpoint and call
/// again with it. The resumed cycle re-requests the wire from the
/// checkpointed offset, not from byte 0.
///
/// Emits `stream.install` span plus `stream.chunks`,
/// `stream.resumes`, `stream.commands_pre_eof` counters and the
/// `stream.buffered_high_water` gauge.
///
/// # Errors
///
/// See [`InstallError`]; a resume checkpoint whose two records disagree
/// is [`InstallError::Checkpoint`], refused before flash is touched. On
/// any other error the device image may be partially updated, exactly
/// as on real interrupted hardware.
///
/// # Panics
///
/// Panics if `mtu == 0` (the channel model requires a frame size).
pub fn stream_install(
    device: &mut Device,
    stream: &DeltaStream,
    channel: LossyChannel,
    mtu: usize,
    resume_from: Option<&InstallCheckpoint>,
    kill_after_chunks: Option<u64>,
) -> Result<StreamProgress, InstallError> {
    let _span = ipr_trace::span("stream.install");
    let mut report = StreamReport::default();

    let (mut session, mut decoder) = match resume_from {
        Some(checkpoint) => {
            checkpoint.validate().map_err(InstallError::Checkpoint)?;
            let header = checkpoint.decoder.header;
            let session = device.resume_session(
                header.source_len,
                header.target_len,
                &checkpoint.written,
                checkpoint.stats,
            )?;
            ipr_trace::add("stream.resumes", 1);
            report.resumes = checkpoint.resumes + 1;
            (session, StreamDecoder::resume(checkpoint.decoder))
        }
        None => {
            // Waiting state: pull chunks until the header parses. No
            // checkpoint exists yet — a power cut here restarts from
            // byte 0 (the header is a handful of bytes; nothing of
            // value is lost).
            let mut decoder = StreamDecoder::new();
            let header = loop {
                let offset = next_wire_byte(&decoder);
                let Some(chunk) = stream.chunk_at(offset) else {
                    return Err(InstallError::Decode(DecodeError::Truncated));
                };
                report.transfer(&channel, offset, chunk.len(), mtu);
                decoder.push(chunk);
                if let Some(header) = decoder.poll_header()? {
                    break *header;
                }
                if kill_after_chunks.is_some_and(|k| report.chunks >= k) {
                    ipr_trace::add("stream.chunks", report.chunks);
                    report.buffered_high_water = decoder.buffered_high_water() as u64;
                    return Ok(StreamProgress::Killed {
                        checkpoint: None,
                        report,
                    });
                }
            };
            let mut session = device.begin_update(header.source_len, header.target_len)?;
            drain(&mut session, &mut decoder)?;
            (session, decoder)
        }
    };

    // Installing state: the loop invariant is that every iteration
    // boundary is a durable checkpoint (whole commands applied, any
    // partial command only buffered).
    let wire_len = stream.wire_len();
    loop {
        let applied = session.commands_applied() as u64;
        if applied > 0 {
            report
                .time_to_first_byte
                .get_or_insert(report.transfer_time);
            if next_wire_byte(&decoder) < wire_len {
                report.commands_pre_eof = applied;
            }
        }
        // The device's counts, current at every exit below.
        report.commands_applied = applied;
        report.buffered_high_water = decoder.buffered_high_water() as u64;
        if decoder.is_complete() {
            break;
        }
        if kill_after_chunks.is_some_and(|k| report.chunks >= k) {
            report.record();
            let checkpoint = InstallCheckpoint {
                decoder: decoder
                    .checkpoint()
                    .expect("installing starts after the header"),
                written: session.written_intervals(),
                stats: session.stats_so_far(),
                resumes: report.resumes,
            };
            return Ok(StreamProgress::Killed {
                checkpoint: Some(checkpoint),
                report,
            });
        }
        let offset = next_wire_byte(&decoder);
        let Some(chunk) = stream.chunk_at(offset) else {
            // Wire exhausted before the declared command count: let
            // the decoder's finish report the truncation.
            break;
        };
        report.transfer(&channel, offset, chunk.len(), mtu);
        decoder.push(chunk);
        drain(&mut session, &mut decoder)?;
    }

    // Commit: the stream must be complete (no missing or trailing
    // bytes) and the commands must cover the declared target exactly;
    // only then does the device's image length change.
    let header = decoder.finish()?;
    let stats = session.commit()?;
    report.crc_verified = verify_image_crc(device, header.target_crc)?;
    report.stats = Some(stats);
    report.record();
    Ok(StreamProgress::Complete(report))
}

/// The next wire byte the install needs: everything received so far,
/// including buffered partial-command residue.
fn next_wire_byte(decoder: &StreamDecoder) -> u64 {
    decoder.stream_offset() + decoder.buffered_bytes() as u64
}

/// Applies every command the decoder holds in full. A partial
/// command's bytes stay buffered (the decoder checkpoints only at
/// command edges), so each return is a checkpointable boundary.
fn drain(session: &mut UpdateSession<'_>, decoder: &mut StreamDecoder) -> Result<(), InstallError> {
    while let Some(cmd) = decoder.next_command()? {
        session.apply_command(&cmd)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use ipr_delta::codec::Format;
    use ipr_delta::diff::GreedyDiffer;
    use ipr_pipeline::{Engine, EngineConfig};

    fn pair() -> (Vec<u8>, Vec<u8>) {
        let v1: Vec<u8> = (0..16_384u32).map(|i| (i * 13 % 251) as u8).collect();
        let mut v2 = v1.clone();
        v2.rotate_left(2048);
        for i in (0..v2.len()).step_by(777) {
            v2[i] ^= 0x5a;
        }
        (v1, v2)
    }

    fn lossy(loss: f64, seed: u64) -> LossyChannel {
        LossyChannel::new(Channel::dialup(), loss, seed)
    }

    /// The `Engine::update` payload of `v1 → v2`, served in
    /// `chunk_len`-byte chunks.
    fn served(v1: &[u8], v2: &[u8], chunk_len: usize) -> DeltaStream {
        DeltaStream::from_wire(Engine::new().update(v1, v2).unwrap().payload, chunk_len)
    }

    #[test]
    fn uninterrupted_stream_install_matches_offline_apply() {
        let (v1, v2) = pair();
        let stream = served(&v1, &v2, 1024);

        let mut dev = Device::new(v1.len().max(v2.len()));
        dev.flash(&v1).unwrap();
        let progress = stream_install(&mut dev, &stream, lossy(0.1, 7), 576, None, None).unwrap();
        let StreamProgress::Complete(report) = progress else {
            panic!("no kill requested");
        };
        assert_eq!(dev.image(), &v2[..]);
        assert!(report.crc_verified);
        assert_eq!(report.received_bytes, stream.wire_len());
        assert_eq!(report.resumes, 0);
        // Streaming means work happened before the last byte arrived.
        assert!(report.commands_pre_eof > 0);
        let ttfb = report.time_to_first_byte.unwrap();
        assert!(ttfb < report.transfer_time);
    }

    #[test]
    fn kill_and_resume_at_every_chunk_boundary() {
        let (v1, v2) = pair();
        let stream = served(&v1, &v2, 64);
        let total_chunks = stream.wire_len().div_ceil(64);
        assert!(total_chunks > 10, "want a real boundary sweep");

        for kill_at in 1..=total_chunks {
            let mut dev = Device::new(v1.len().max(v2.len()));
            dev.flash(&v1).unwrap();
            let channel = lossy(0.05, kill_at);
            match stream_install(&mut dev, &stream, channel, 576, None, Some(kill_at)).unwrap() {
                StreamProgress::Complete(_) => {
                    assert_eq!(kill_at, total_chunks, "only the last chunk completes");
                }
                StreamProgress::Killed { checkpoint, report } => {
                    assert_eq!(report.chunks, kill_at);
                    // Round-trip the checkpoint through serialization,
                    // as a device writing it to flash would.
                    let restored = checkpoint
                        .map(|c| InstallCheckpoint::decode(&c.encode()).expect("round trip"));
                    let resumed =
                        stream_install(&mut dev, &stream, channel, 576, restored.as_ref(), None)
                            .unwrap();
                    let StreamProgress::Complete(done) = resumed else {
                        panic!("no second kill");
                    };
                    if restored.is_some() {
                        assert_eq!(done.resumes, 1, "kill at {kill_at}");
                    }
                    assert!(done.crc_verified);
                }
            }
            assert_eq!(dev.image(), &v2[..], "kill at {kill_at}");
        }
    }

    #[test]
    fn resume_is_idempotent_from_the_same_checkpoint() {
        // Replaying the same checkpoint against two copies of the same
        // mid-update storage must converge to identical images.
        let (v1, v2) = pair();
        let stream = served(&v1, &v2, 64);
        let mut dev = Device::new(v1.len().max(v2.len()));
        dev.flash(&v1).unwrap();
        let StreamProgress::Killed { checkpoint, .. } =
            stream_install(&mut dev, &stream, lossy(0.0, 1), 576, None, Some(5)).unwrap()
        else {
            panic!("killed at chunk 5");
        };
        let checkpoint = checkpoint.expect("header fits in five chunks");
        let mut replica = dev.clone();
        for d in [&mut dev, &mut replica] {
            let progress =
                stream_install(d, &stream, lossy(0.0, 1), 576, Some(&checkpoint), None).unwrap();
            assert!(matches!(progress, StreamProgress::Complete(_)));
        }
        assert_eq!(dev.image(), replica.image());
        assert_eq!(dev.image(), &v2[..]);
    }

    #[test]
    fn forged_checkpoint_rejected() {
        let (v1, v2) = pair();
        let stream = served(&v1, &v2, 64);
        let mut dev = Device::new(v1.len().max(v2.len()));
        dev.flash(&v1).unwrap();
        let StreamProgress::Killed { checkpoint, .. } =
            stream_install(&mut dev, &stream, lossy(0.0, 1), 576, None, Some(4)).unwrap()
        else {
            panic!("killed at chunk 4");
        };
        let good = checkpoint.expect("header arrived");

        let mut wrong_count = good.clone();
        wrong_count.decoder.commands_decoded += 1;
        let mut wrong_cover = good.clone();
        wrong_cover.stats.bytes_written += 1;
        for bad in [wrong_count, wrong_cover] {
            let err = stream_install(&mut dev, &stream, lossy(0.0, 1), 576, Some(&bad), None)
                .unwrap_err();
            assert!(matches!(err, InstallError::Checkpoint(_)), "{err}");
        }
        // A shrinking install whose last written interval is moved past
        // the new end but stays inside the old image: the spans still
        // sum to the bytes written, and only the target bound catches it.
        let short = &v2[..12_000];
        let shrinking = served(&v1, short, 64);
        let mut dev = Device::new(v1.len());
        dev.flash(&v1).unwrap();
        let StreamProgress::Killed { checkpoint, .. } =
            stream_install(&mut dev, &shrinking, lossy(0.0, 1), 576, None, Some(2)).unwrap()
        else {
            panic!("killed at chunk 2");
        };
        let mut past_target = checkpoint.expect("header arrived");
        let (start, end) = past_target.written.pop().expect("commands applied");
        let moved = (12_100, 12_100 + end - start);
        assert!(moved.1 <= v1.len() as u64, "inside the old image");
        past_target.written.push(moved);
        let err = stream_install(
            &mut dev,
            &shrinking,
            lossy(0.0, 1),
            576,
            Some(&past_target),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, InstallError::Checkpoint(_)), "{err}");
        // Corrupted serialized form is caught by the CRC seal.
        let mut bytes = good.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            InstallCheckpoint::decode(&bytes),
            Err(CheckpointError::Checksum { .. })
        ));
    }

    #[test]
    fn previous_format_checkpoint_refused_by_magic() {
        let (v1, v2) = pair();
        let stream = served(&v1, &v2, 64);
        let mut dev = Device::new(v1.len().max(v2.len()));
        dev.flash(&v1).unwrap();
        let StreamProgress::Killed { checkpoint, .. } =
            stream_install(&mut dev, &stream, lossy(0.0, 1), 576, None, Some(4)).unwrap()
        else {
            panic!("killed at chunk 4");
        };
        // A record under the previous magic, resealed so that only the
        // magic is wrong.
        let mut bytes = checkpoint.expect("header arrived").encode();
        bytes[..4].copy_from_slice(b"IPC1");
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        let err = InstallCheckpoint::decode(&bytes).unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
        assert_eq!(err.to_string(), "not an install checkpoint");
    }

    #[test]
    fn kill_before_header_restarts_from_scratch() {
        let (v1, v2) = pair();
        // One-byte chunks: the header needs several chunks to arrive.
        let stream = served(&v1, &v2, 1);
        let mut dev = Device::new(v1.len().max(v2.len()));
        dev.flash(&v1).unwrap();
        let StreamProgress::Killed { checkpoint, report } =
            stream_install(&mut dev, &stream, lossy(0.0, 3), 576, None, Some(2)).unwrap()
        else {
            panic!("killed at chunk 2");
        };
        assert!(checkpoint.is_none(), "no checkpoint before the header");
        assert_eq!(report.chunks, 2);
        assert_eq!(dev.image(), &v1[..], "device untouched");
        // Restart from byte 0 (resume_from: None) and finish.
        let progress = stream_install(&mut dev, &stream, lossy(0.0, 3), 576, None, None).unwrap();
        assert!(matches!(progress, StreamProgress::Complete(_)));
        assert_eq!(dev.image(), &v2[..]);
    }

    #[test]
    fn loss_rate_changes_time_not_bytes() {
        let (v1, v2) = pair();
        let stream = served(&v1, &v2, 64);
        let mut times = Vec::new();
        for loss in [0.0, 0.2, 0.6] {
            let mut dev = Device::new(v1.len().max(v2.len()));
            dev.flash(&v1).unwrap();
            let StreamProgress::Complete(report) =
                stream_install(&mut dev, &stream, lossy(loss, 11), 16, None, None).unwrap()
            else {
                panic!("no kill");
            };
            assert_eq!(dev.image(), &v2[..], "loss {loss}");
            assert_eq!(report.received_bytes, stream.wire_len(), "loss {loss}");
            times.push(report.transfer_time);
        }
        // Same bytes on every run; only the time changes with loss.
        assert!(times[0] <= times[1] && times[1] <= times[2]);
        assert!(times[0] < times[2], "{times:?}");
    }

    /// One uninterrupted install of `payload`, fed in `chunk`-byte
    /// pieces over a lossless channel.
    fn install_wire(
        dev: &mut Device,
        payload: &[u8],
        chunk: usize,
    ) -> Result<StreamReport, InstallError> {
        let stream = DeltaStream::from_wire(payload.to_vec(), chunk);
        match stream_install(dev, &stream, lossy(0.0, 1), 576, None, None)? {
            StreamProgress::Complete(report) => Ok(report),
            StreamProgress::Killed { .. } => unreachable!("no kill requested"),
        }
    }

    fn prepared(format: Format) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let (v1, v2) = pair();
        let config = EngineConfig {
            format,
            ..EngineConfig::default()
        };
        let update = Engine::with_differ(GreedyDiffer::default(), config)
            .update(&v1, &v2)
            .unwrap();
        (v1, v2, update.payload)
    }

    #[test]
    fn any_chunking_matches_the_batch_install() {
        let (v1, v2, payload) = prepared(Format::Improved);
        for chunk in [1usize, 13, 512, payload.len()] {
            let mut dev = Device::new(v1.len().max(v2.len()));
            dev.flash(&v1).unwrap();
            let report = install_wire(&mut dev, &payload, chunk).unwrap();
            assert_eq!(dev.image(), &v2[..], "chunk {chunk}");
            assert!(report.crc_verified);
            assert_eq!(report.received_bytes, payload.len() as u64);
        }
    }

    #[test]
    fn unsafe_order_faults_mid_stream() {
        // An unconverted swap: the second command must fault during the
        // stream, before the transfer completes.
        let reference: Vec<u8> = (0u8..16).collect();
        let script = ipr_delta::DeltaScript::new(
            16,
            16,
            vec![
                ipr_delta::Command::copy(0, 8, 8),
                ipr_delta::Command::copy(8, 0, 8),
            ],
        )
        .unwrap();
        let payload = ipr_delta::codec::encode(&script, Format::InPlace).unwrap();
        let mut dev = Device::new(16);
        dev.flash(&reference).unwrap();
        let err = install_wire(&mut dev, &payload, 4).unwrap_err();
        assert!(matches!(
            err,
            InstallError::Device(crate::DeviceError::WriteBeforeRead { .. })
        ));
        // The image length is untouched (content may be partially new, as
        // on real hardware).
        assert_eq!(dev.image().len(), 16);
    }

    #[test]
    fn truncated_stream_rejected() {
        let (v1, v2, payload) = prepared(Format::InPlace);
        let cut = &payload[..payload.len() / 2];
        let mut dev = Device::new(v1.len().max(v2.len()));
        dev.flash(&v1).unwrap();
        let err = install_wire(&mut dev, cut, 64).unwrap_err();
        assert!(matches!(err, InstallError::Decode(_)), "{err:?}");
    }

    #[test]
    fn garbage_rejected_before_the_device_is_touched() {
        let mut dev = Device::new(64);
        dev.flash(b"image").unwrap();
        let err = install_wire(&mut dev, b"garbage!", 8).unwrap_err();
        assert!(matches!(err, InstallError::Decode(_)));
        assert_eq!(dev.image(), b"image");
    }

    #[test]
    fn decoder_memory_stays_bounded() {
        let (v1, v2) = pair();
        let chunk_len = 512usize;
        // Largest possible command frame: tag + 3 ten-byte varints +
        // the largest add literal in the delta.
        let delta = Engine::new().update(&v1, &v2).unwrap();
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
        let stream = DeltaStream::from_wire(delta.payload, chunk_len);
        let mut dev = Device::new(v1.len().max(v2.len()));
        dev.flash(&v1).unwrap();
        let StreamProgress::Complete(report) =
            stream_install(&mut dev, &stream, lossy(0.0, 1), 576, None, None).unwrap()
        else {
            panic!("no kill");
        };
        let bound = max_literal + 31 + chunk_len as u64;
        assert!(
            report.buffered_high_water <= bound,
            "high water {} exceeds frame+chunk bound {bound}",
            report.buffered_high_water
        );
    }
}
