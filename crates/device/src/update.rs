//! End-to-end over-the-air update sessions: server-side preparation and
//! device-side installation of in-place reconstructible deltas.

use crate::channel::Channel;
use crate::device::{Device, DeviceError, UpdateStats};
use ipr_core::{convert_to_in_place, ConversionConfig, ConversionReport, ConvertError};
use ipr_delta::checksum::crc32;
use ipr_delta::codec::{self, DecodeError, EncodeError, Format};
use ipr_delta::diff::Differ;
use std::fmt;
use std::time::Duration;

/// A serialized in-place update ready for transmission.
#[derive(Clone, Debug)]
pub struct PreparedUpdate {
    /// The encoded delta file (wire bytes).
    pub payload: Vec<u8>,
    /// Conversion measurements from the server-side post-processing.
    pub report: ConversionReport,
    /// Size of the full new image, for speedup accounting.
    pub version_len: u64,
}

impl PreparedUpdate {
    /// Compression ratio: payload bytes over full-image bytes.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.version_len == 0 {
            0.0
        } else {
            self.payload.len() as f64 / self.version_len as f64
        }
    }
}

/// Error preparing an update on the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrepareError {
    /// In-place conversion failed.
    Convert(ConvertError),
    /// Encoding the converted script failed.
    Encode(EncodeError),
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepareError::Convert(e) => write!(f, "conversion failed: {e}"),
            PrepareError::Encode(e) => write!(f, "encoding failed: {e}"),
        }
    }
}

impl std::error::Error for PrepareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PrepareError::Convert(e) => Some(e),
            PrepareError::Encode(e) => Some(e),
        }
    }
}

impl From<ConvertError> for PrepareError {
    fn from(e: ConvertError) -> Self {
        PrepareError::Convert(e)
    }
}

impl From<EncodeError> for PrepareError {
    fn from(e: EncodeError) -> Self {
        PrepareError::Encode(e)
    }
}

/// Server side: difference `version` against `reference`, post-process for
/// in-place reconstruction and serialize with an embedded target CRC.
///
/// `format` must be an explicit-write-offset format
/// ([`Format::supports_out_of_order`]); the converted command order is the
/// safety property and must survive serialization.
///
/// # Errors
///
/// See [`PrepareError`].
///
/// # Example
///
/// ```
/// use ipr_delta::diff::GreedyDiffer;
/// use ipr_delta::codec::Format;
/// use ipr_core::ConversionConfig;
/// use ipr_device::update::prepare_update;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let v1 = vec![1u8; 4096];
/// let mut v2 = v1.clone(); v2[0] = 9;
/// let update = prepare_update(
///     &GreedyDiffer::default(), &v1, &v2,
///     &ConversionConfig::default(), Format::InPlace,
/// )?;
/// assert!(update.payload.len() < v2.len());
/// # Ok(())
/// # }
/// ```
pub fn prepare_update(
    differ: &dyn Differ,
    reference: &[u8],
    version: &[u8],
    config: &ConversionConfig,
    format: Format,
) -> Result<PreparedUpdate, PrepareError> {
    let _span = ipr_trace::span("device.prepare");
    let script = differ.diff(reference, version);
    let outcome = convert_to_in_place(&script, reference, config)?;
    let payload = codec::encode_checked(&outcome.script, format, version)?;
    Ok(PreparedUpdate {
        payload,
        report: outcome.report,
        version_len: version.len() as u64,
    })
}

/// Engine-reusing variant of [`prepare_update`]: drives an
/// [`ipr_pipeline::Engine`] session, so a server preparing many updates
/// reuses one set of diff/convert arenas instead of reallocating per
/// call. The payload is byte-identical to [`prepare_update`] with the
/// same differ, conversion config and format (the engine's
/// [`EngineConfig`](ipr_pipeline::EngineConfig) carries both).
///
/// # Errors
///
/// See [`PrepareError`].
///
/// # Example
///
/// ```
/// use ipr_device::update::prepare_update_with;
/// use ipr_pipeline::Engine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let v1 = vec![1u8; 4096];
/// let mut v2 = v1.clone(); v2[0] = 9;
/// let mut engine = Engine::new();
/// let update = prepare_update_with(&mut engine, &v1, &v2)?;
/// assert!(update.payload.len() < v2.len());
/// # Ok(())
/// # }
/// ```
pub fn prepare_update_with<D: ipr_delta::diff::IndexedDiffer>(
    engine: &mut ipr_pipeline::Engine<D>,
    reference: &[u8],
    version: &[u8],
) -> Result<PreparedUpdate, PrepareError> {
    let _span = ipr_trace::span("device.prepare");
    let delta = engine.update(reference, version).map_err(|e| match e {
        ipr_pipeline::EngineError::Convert(e) => PrepareError::Convert(e),
        ipr_pipeline::EngineError::Encode(e) => PrepareError::Encode(e),
        // `Engine::update` only converts and encodes.
        other => unreachable!("unexpected engine error preparing an update: {other}"),
    })?;
    let prepared = PreparedUpdate {
        payload: delta.payload,
        report: delta.report,
        version_len: delta.version_len,
    };
    engine.recycle_script(delta.script);
    Ok(prepared)
}

/// Error installing an update on the device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstallError {
    /// The payload is not a valid delta file.
    Decode(DecodeError),
    /// The device rejected or faulted on the update.
    Device(DeviceError),
    /// The rebuilt image failed its CRC check.
    ChecksumMismatch {
        /// CRC carried in the delta header.
        expected: u32,
        /// CRC of the rebuilt image.
        actual: u32,
    },
    /// A resume checkpoint's records disagree with each other.
    Checkpoint(String),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Decode(e) => write!(f, "payload rejected: {e}"),
            InstallError::Device(e) => write!(f, "device error: {e}"),
            InstallError::ChecksumMismatch { expected, actual } => write!(
                f,
                "rebuilt image crc32 {actual:#010x} != expected {expected:#010x}"
            ),
            InstallError::Checkpoint(reason) => {
                write!(f, "invalid install checkpoint: {reason}")
            }
        }
    }
}

impl std::error::Error for InstallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InstallError::Decode(e) => Some(e),
            InstallError::Device(e) => Some(e),
            InstallError::ChecksumMismatch { .. } | InstallError::Checkpoint(_) => None,
        }
    }
}

impl From<DecodeError> for InstallError {
    fn from(e: DecodeError) -> Self {
        InstallError::Decode(e)
    }
}

impl From<DeviceError> for InstallError {
    fn from(e: DeviceError) -> Self {
        InstallError::Device(e)
    }
}

/// Result of a successful installation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstallReport {
    /// Bytes received over the channel.
    pub received_bytes: u64,
    /// Time the payload spent on the wire.
    pub transfer_time: Duration,
    /// Device-side application statistics.
    pub stats: UpdateStats,
    /// Whether a CRC was present and verified.
    pub crc_verified: bool,
}

/// Device side: receive `payload` over `channel`, decode it, apply it in
/// place with write-before-read checking and verify the embedded CRC.
///
/// # Errors
///
/// See [`InstallError`]. On a device fault the storage may hold a
/// partially applied image, as on a real interrupted update.
pub fn install_update(
    device: &mut Device,
    payload: &[u8],
    channel: Channel,
) -> Result<InstallReport, InstallError> {
    let _span = ipr_trace::span("device.install");
    ipr_trace::add("device.transfer_bytes", payload.len() as u64);
    let transfer_time = channel.transfer_time(payload.len() as u64);
    let decoded = codec::decode(payload)?;
    let stats = device.apply_update(&decoded.script)?;
    let crc_verified = match decoded.target_crc {
        Some(expected) => {
            let actual = crc32(device.image());
            if actual != expected {
                return Err(InstallError::ChecksumMismatch { expected, actual });
            }
            true
        }
        None => false,
    };
    Ok(InstallReport {
        received_bytes: payload.len() as u64,
        transfer_time,
        stats,
        crc_verified,
    })
}

/// Device side, streaming: decode and apply the update *while it
/// arrives*, command by command, with memory bounded by one command —
/// no buffering of the whole delta file.
///
/// `chunks` yields the payload as it comes off the wire (any chunking).
/// Every command passes the device's write-before-read and disjointness
/// checks as it is applied; the embedded CRC is verified after the last
/// command.
///
/// # Errors
///
/// See [`InstallError`]. On failure mid-stream the device image is left
/// partially updated (as a real interrupted install would be) and its
/// previous image length is retained.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::GreedyDiffer;
/// use ipr_delta::codec::Format;
/// use ipr_core::ConversionConfig;
/// use ipr_device::update::{install_update_streaming, prepare_update};
/// use ipr_device::{Channel, Device};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let v1 = vec![1u8; 4096];
/// let mut v2 = v1.clone(); v2[7] = 9;
/// let upd = prepare_update(&GreedyDiffer::default(), &v1, &v2,
///                          &ConversionConfig::default(), Format::InPlace)?;
/// let mut dev = Device::new(4096);
/// dev.flash(&v1)?;
/// install_update_streaming(&mut dev, upd.payload.chunks(64), Channel::dialup())?;
/// assert_eq!(dev.image(), &v2[..]);
/// # Ok(())
/// # }
/// ```
pub fn install_update_streaming<'a>(
    device: &mut Device,
    chunks: impl IntoIterator<Item = &'a [u8]>,
    channel: Channel,
) -> Result<InstallReport, InstallError> {
    use crate::stream::StreamingInstall;
    use ipr_delta::codec::stream::StreamDecoder;

    let mut chunks = chunks.into_iter();
    let mut received = 0u64;

    // Waiting phase: buffer chunks on a bare decoder until the header
    // parses; the device is untouched until then, so garbage or a
    // too-short stream rejects before any flash write.
    let mut decoder = StreamDecoder::new();
    let mut install = loop {
        if decoder.poll_header()?.is_some() {
            break StreamingInstall::start(device, decoder)?;
        }
        let Some(chunk) = chunks.next() else {
            decoder.finish()?;
            return Err(InstallError::Decode(DecodeError::Truncated));
        };
        received += chunk.len() as u64;
        decoder.push(chunk);
    };

    // Installing phase: the session holds the device borrow and applies
    // each command the moment it completes.
    for chunk in chunks {
        received += chunk.len() as u64;
        install.feed(chunk)?;
    }
    let (header, stats) = install.commit()?;
    let crc_verified = crate::stream::verify_image_crc(device, &header)?;
    Ok(InstallReport {
        received_bytes: received,
        transfer_time: channel.transfer_time(received),
        stats,
        crc_verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipr_delta::diff::GreedyDiffer;

    fn pair() -> (Vec<u8>, Vec<u8>) {
        let v1: Vec<u8> = (0..16_384u32).map(|i| (i * 13 % 251) as u8).collect();
        let mut v2 = v1.clone();
        v2.rotate_left(2048);
        for i in (0..v2.len()).step_by(777) {
            v2[i] ^= 0x5a;
        }
        (v1, v2)
    }

    #[test]
    fn engine_prepared_update_matches_legacy_and_installs() {
        let (v1, v2) = pair();
        // The legacy path diffs through the same sampled greedy differ
        // the engine wraps; pin the engine to one thread for the
        // comparison (parallel diff output is thread-count invariant
        // anyway).
        let mut engine =
            ipr_pipeline::Engine::with_config(ipr_pipeline::EngineConfig::with_threads(1));
        let legacy = prepare_update(
            &ipr_delta::diff::ParallelDiffer::new(GreedyDiffer::sampled()),
            &v1,
            &v2,
            &ConversionConfig::default(),
            Format::InPlace,
        )
        .unwrap();
        // Two rounds: the warm second round must be identical too.
        for round in 0..2 {
            let update = prepare_update_with(&mut engine, &v1, &v2).unwrap();
            assert_eq!(update.payload, legacy.payload, "round {round}");
            assert_eq!(update.version_len, legacy.version_len);
            let mut dev = Device::new(v1.len().max(v2.len()));
            dev.flash(&v1).unwrap();
            install_update(&mut dev, &update.payload, Channel::dialup()).unwrap();
            assert_eq!(dev.image(), &v2[..]);
        }
    }

    #[test]
    fn full_ota_round_trip() {
        let (v1, v2) = pair();
        let update = prepare_update(
            &GreedyDiffer::default(),
            &v1,
            &v2,
            &ConversionConfig::default(),
            Format::InPlace,
        )
        .unwrap();
        assert!(update.ratio() < 0.7, "ratio {}", update.ratio());

        let mut dev = Device::new(v1.len().max(v2.len()));
        dev.flash(&v1).unwrap();
        let report = install_update(&mut dev, &update.payload, Channel::dialup()).unwrap();
        assert_eq!(dev.image(), &v2[..]);
        assert!(report.crc_verified);
        assert_eq!(report.received_bytes, update.payload.len() as u64);
        assert!(report.transfer_time > Duration::ZERO);
        assert_eq!(report.stats.scratch_bytes, 0);
    }

    #[test]
    fn all_in_place_formats_install() {
        let (v1, v2) = pair();
        for format in [Format::InPlace, Format::PaperInPlace, Format::Improved] {
            let update = prepare_update(
                &GreedyDiffer::default(),
                &v1,
                &v2,
                &ConversionConfig::default(),
                format,
            )
            .unwrap();
            let mut dev = Device::new(v1.len().max(v2.len()));
            dev.flash(&v1).unwrap();
            install_update(&mut dev, &update.payload, Channel::isdn()).unwrap();
            assert_eq!(dev.image(), &v2[..], "{format}");
        }
    }

    #[test]
    fn garbage_payload_rejected() {
        let mut dev = Device::new(64);
        dev.flash(b"image").unwrap();
        let err = install_update(&mut dev, b"not a delta", Channel::dialup()).unwrap_err();
        assert!(matches!(err, InstallError::Decode(_)));
        assert_eq!(dev.image(), b"image", "device untouched");
    }

    #[test]
    fn corrupted_payload_detected() {
        let (v1, v2) = pair();
        let mut update = prepare_update(
            &GreedyDiffer::default(),
            &v1,
            &v2,
            &ConversionConfig::default(),
            Format::InPlace,
        )
        .unwrap();
        // Flip a literal byte deep in the payload: decoding still succeeds
        // but the rebuilt image no longer matches the CRC.
        let n = update.payload.len();
        update.payload[n - 3] ^= 0x01;
        let mut dev = Device::new(v1.len().max(v2.len()));
        dev.flash(&v1).unwrap();
        let err = install_update(&mut dev, &update.payload, Channel::dialup()).unwrap_err();
        assert!(
            matches!(
                err,
                InstallError::ChecksumMismatch { .. } | InstallError::Decode(_)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn streaming_install_matches_batch_for_any_chunking() {
        let (v1, v2) = pair();
        let update = prepare_update(
            &GreedyDiffer::default(),
            &v1,
            &v2,
            &ConversionConfig::default(),
            Format::Improved,
        )
        .unwrap();
        for chunk in [1usize, 13, 512, update.payload.len()] {
            let mut dev = Device::new(v1.len().max(v2.len()));
            dev.flash(&v1).unwrap();
            let report =
                install_update_streaming(&mut dev, update.payload.chunks(chunk), Channel::isdn())
                    .unwrap();
            assert_eq!(dev.image(), &v2[..], "chunk {chunk}");
            assert!(report.crc_verified);
            assert_eq!(report.received_bytes, update.payload.len() as u64);
        }
    }

    #[test]
    fn streaming_install_rejects_unsafe_order_midway() {
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
        let payload = codec::encode(&script, Format::InPlace).unwrap();
        let mut dev = Device::new(16);
        dev.flash(&reference).unwrap();
        let err =
            install_update_streaming(&mut dev, payload.chunks(4), Channel::dialup()).unwrap_err();
        assert!(matches!(
            err,
            InstallError::Device(crate::DeviceError::WriteBeforeRead { .. })
        ));
        // The image length is untouched (content may be partially new, as
        // on real hardware).
        assert_eq!(dev.image().len(), 16);
    }

    #[test]
    fn streaming_install_rejects_truncated_stream() {
        let (v1, v2) = pair();
        let update = prepare_update(
            &GreedyDiffer::default(),
            &v1,
            &v2,
            &ConversionConfig::default(),
            Format::InPlace,
        )
        .unwrap();
        let cut = &update.payload[..update.payload.len() / 2];
        let mut dev = Device::new(v1.len().max(v2.len()));
        dev.flash(&v1).unwrap();
        let err =
            install_update_streaming(&mut dev, cut.chunks(64), Channel::dialup()).unwrap_err();
        assert!(matches!(err, InstallError::Decode(_)), "{err:?}");
    }

    #[test]
    fn streaming_install_garbage_rejected_early() {
        let mut dev = Device::new(64);
        dev.flash(b"image").unwrap();
        let err = install_update_streaming(&mut dev, [b"garbage!".as_slice()], Channel::dialup())
            .unwrap_err();
        assert!(matches!(err, InstallError::Decode(_)));
        assert_eq!(dev.image(), b"image");
    }

    #[test]
    fn delta_update_faster_than_full_image() {
        let (v1, v2) = pair();
        let update = prepare_update(
            &GreedyDiffer::default(),
            &v1,
            &v2,
            &ConversionConfig::default(),
            Format::InPlace,
        )
        .unwrap();
        let ch = Channel::dialup();
        let full = ch.transfer_time(v2.len() as u64);
        let delta = ch.transfer_time(update.payload.len() as u64);
        assert!(delta < full);
    }
}
