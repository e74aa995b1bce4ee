//! Download-then-apply installation of an in-place reconstructible
//! delta: the device receives the whole payload, decodes it, applies it
//! in place and checks the rebuilt image's CRC. A server prepares the
//! payload with [`Engine::update`](ipr_pipeline::Engine::update).

use crate::channel::Channel;
use crate::device::{Device, DeviceError, UpdateStats};
use ipr_delta::checksum::crc32;
use ipr_delta::codec::{self, DecodeError};
use std::fmt;
use std::time::Duration;

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
    let crc_verified = verify_image_crc(device, decoded.target_crc)?;
    Ok(InstallReport {
        received_bytes: payload.len() as u64,
        transfer_time,
        stats,
        crc_verified,
    })
}

/// Checks the device image against `expected`, the CRC a delta header
/// carried: `Ok(true)` when it matches, `Ok(false)` when there was none.
pub(crate) fn verify_image_crc(
    device: &Device,
    expected: Option<u32>,
) -> Result<bool, InstallError> {
    let Some(expected) = expected else {
        return Ok(false);
    };
    let actual = crc32(device.image());
    if actual != expected {
        return Err(InstallError::ChecksumMismatch { expected, actual });
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipr_delta::codec::Format;
    use ipr_delta::diff::GreedyDiffer;
    use ipr_pipeline::{Engine, EngineConfig, InPlaceDelta};

    fn pair() -> (Vec<u8>, Vec<u8>) {
        let v1: Vec<u8> = (0..16_384u32).map(|i| (i * 13 % 251) as u8).collect();
        let mut v2 = v1.clone();
        v2.rotate_left(2048);
        for i in (0..v2.len()).step_by(777) {
            v2[i] ^= 0x5a;
        }
        (v1, v2)
    }

    fn prepare(v1: &[u8], v2: &[u8], format: Format) -> InPlaceDelta {
        let config = EngineConfig {
            format,
            ..EngineConfig::default()
        };
        Engine::with_differ(GreedyDiffer::default(), config)
            .update(v1, v2)
            .unwrap()
    }

    #[test]
    fn full_ota_round_trip() {
        let (v1, v2) = pair();
        let update = prepare(&v1, &v2, Format::InPlace);
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
            let update = prepare(&v1, &v2, format);
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
        let mut update = prepare(&v1, &v2, Format::InPlace);
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
    fn delta_update_faster_than_full_image() {
        let (v1, v2) = pair();
        let update = prepare(&v1, &v2, Format::InPlace);
        let ch = Channel::dialup();
        let full = ch.transfer_time(v2.len() as u64);
        let delta = ch.transfer_time(update.payload.len() as u64);
        assert!(delta < full);
    }
}
