//! Resilient in-place updating: streaming installation, power-failure
//! recovery and flash wear — the extensions a production update engine
//! layers over the paper's algorithm.
//!
//! Run: `cargo run --release --example resilient_update`

use ipr::core::resumable::{resume_in_place, Journal, Progress};
use ipr::core::{convert_to_in_place, required_capacity, ConversionConfig};
use ipr::delta::codec::Format;
use ipr::delta::diff::{CorrectingDiffer, Differ};
use ipr::device::flash::{FlashStorage, FlashUpdater};
use ipr::device::{stream_install, Channel, Device, LossyChannel, StreamProgress};
use ipr::pipeline::DeltaStream;
use ipr::workloads::content::{generate, ContentKind};
use ipr::workloads::mutate::{mutate, MutationProfile};
use ipr::{Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(77);
    let v1 = generate(&mut rng, ContentKind::BinaryLike, 256 * 1024);
    // A fixed-layout patch (edits without length changes): the flash-wear
    // sweet spot, since unshifted bytes keep their blocks intact.
    let v2 = mutate(&mut rng, &v1, &MutationProfile::aligned());
    let differ = CorrectingDiffer::default();

    // --- 1. Streaming install: apply while the payload arrives. --------
    let config = EngineConfig {
        format: Format::Improved,
        ..EngineConfig::default()
    };
    let update = Engine::with_differ(differ.clone(), config).update(&v1, &v2)?;
    let mut device = Device::new(512 * 1024);
    device.flash(&v1)?;
    // The payload arrives in 1 KiB network chunks; commands are applied
    // as soon as they are complete — no buffering of the whole delta.
    let stream = DeltaStream::from_wire(update.payload, 1024);
    let channel = LossyChannel::new(Channel::cellular(), 0.0, 0);
    let StreamProgress::Complete(report) =
        stream_install(&mut device, &stream, channel, 1024, None, None)?
    else {
        unreachable!("no power cut requested");
    };
    assert_eq!(device.image(), &v2[..]);
    println!(
        "streaming install: {} B payload in 1 KiB chunks, {} commands applied on the fly, crc {}",
        report.received_bytes,
        report.commands_applied,
        if report.crc_verified {
            "verified"
        } else {
            "absent"
        }
    );

    // --- 2. Power-failure recovery with a journal. ----------------------
    let script = differ.diff(&v1, &v2);
    let converted = convert_to_in_place(&script, &v1, &ConversionConfig::default())?;
    let mut storage = v1.clone();
    storage.resize(required_capacity(&converted.script) as usize, 0);
    let mut journal = Journal::new();
    let mut outages = 0;
    // Power fails every 10 000 applied bytes; journal + storage survive.
    while resume_in_place(&converted.script, &mut storage, &mut journal, 4096, 10_000)?
        == Progress::Suspended
    {
        outages += 1;
    }
    storage.truncate(v2.len());
    assert_eq!(storage, v2);
    println!("resumable install: survived {outages} power failures, image intact");

    // --- 3. Flash wear accounting. ---------------------------------------
    let block_size = 4096;
    let blocks = storage.len().div_ceil(block_size) + 1;
    let mut flash = FlashStorage::new(blocks, block_size);
    let mut updater = FlashUpdater::new(&mut flash, 0);
    updater.reflash(&v1)?;
    let stats = updater.apply_update(&converted.script)?;
    assert_eq!(updater.image(), &v2[..]);
    println!(
        "flash update: {} erases ({} blocks would burn on a full reflash), write amplification {:.2}x",
        stats.erases,
        v2.len().div_ceil(block_size),
        stats.write_amplification(),
    );
    Ok(())
}
