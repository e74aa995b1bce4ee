//! End-to-end distribution of packaged archives — the paper's actual
//! artifact shape — through every transport the toolkit offers.

use ipr::core::ConversionConfig;
use ipr::delta::codec::Format;
use ipr::delta::diff::{Differ, GreedyDiffer};
use ipr::device::flash::{FlashStorage, FlashUpdater};
use ipr::device::update::install_update;
use ipr::device::{stream_install, Channel, Device, LossyChannel, StreamProgress};
use ipr::pipeline::DeltaStream;
use ipr::workloads::archive::{distribution_pair, parse_archive};
use ipr::{Engine, EngineConfig};

#[test]
fn archive_release_installs_over_every_transport() {
    let pair = distribution_pair(41, 40, 2_000..8_000);
    let config = EngineConfig {
        format: Format::Improved,
        ..EngineConfig::default()
    };
    let update = Engine::with_differ(GreedyDiffer::default(), config)
        .update(&pair.old, &pair.new)
        .unwrap();
    assert!(
        update.payload.len() * 4 < pair.new.len(),
        "distribution delta should compress at least 4x"
    );
    let capacity = pair.old.len().max(pair.new.len());

    // Batch install.
    let mut dev = Device::new(capacity);
    dev.flash(&pair.old).unwrap();
    install_update(&mut dev, &update.payload, Channel::dialup()).unwrap();
    assert_eq!(dev.image(), &pair.new[..]);
    assert!(
        parse_archive(dev.image()).is_some(),
        "image is a valid archive"
    );

    // Streaming install in MTU-sized chunks.
    let mut dev = Device::new(capacity);
    dev.flash(&pair.old).unwrap();
    let stream = DeltaStream::from_wire(update.payload.clone(), 576);
    let lossless = LossyChannel::new(Channel::isdn(), 0.0, 0);
    let progress = stream_install(&mut dev, &stream, lossless, 576, None, None).unwrap();
    assert!(matches!(progress, StreamProgress::Complete(r) if r.crc_verified));
    assert_eq!(dev.image(), &pair.new[..]);

    // Lossy-channel accounting: the delta wins harder as loss grows.
    let lossy = LossyChannel::new(Channel::dialup(), 0.1, 5);
    let delta_t = lossy
        .simulate_transfer(0, update.payload.len() as u64, 576)
        .time;
    let full_t = lossy.simulate_transfer(0, pair.new.len() as u64, 576).time;
    assert!(delta_t * 3 < full_t);
}

#[test]
fn archive_release_patches_flash_in_place() {
    let pair = distribution_pair(43, 24, 2_000..6_000);
    let script = GreedyDiffer::default().diff(&pair.old, &pair.new);
    let converted =
        ipr::core::convert_to_in_place(&script, &pair.old, &ConversionConfig::default()).unwrap();

    let block_size = 4096;
    let capacity = pair.old.len().max(pair.new.len());
    let mut flash = FlashStorage::new(capacity.div_ceil(block_size) + 1, block_size);
    let mut updater = FlashUpdater::new(&mut flash, 0);
    updater.reflash(&pair.old).unwrap();
    let stats = updater.apply_update(&converted.script).unwrap();
    assert_eq!(updater.image(), &pair.new[..]);
    assert!(parse_archive(updater.image()).is_some());
    assert!(stats.erases >= 1);
}

#[test]
fn consecutive_distribution_releases_compose() {
    // Build a 3-release history by re-mutating: release B of pair(seed) is
    // release A of the next hop only if contents line up, so instead chain
    // via diffs of the same artifacts.
    let pair1 = distribution_pair(47, 20, 1_000..4_000);
    // Derive a third image by re-running the generator on the new image's
    // members through a second pair is not possible directly; emulate a
    // second hop by member-level reversal: old <- new (a rollback delta).
    let differ = GreedyDiffer::default();
    let d_forward = differ.diff(&pair1.old, &pair1.new);
    let d_back = differ.diff(&pair1.new, &pair1.old);
    let round_trip = ipr::delta::compose(&d_forward, &d_back).unwrap();
    assert_eq!(
        ipr::delta::apply(&round_trip, &pair1.old).unwrap(),
        pair1.old,
        "forward then rollback composes to identity semantics"
    );
}
