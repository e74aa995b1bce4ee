//! Over-the-air firmware update to a storage-constrained device — the
//! paper's motivating scenario end to end.
//!
//! A 768 KiB device holds a 640 KiB firmware image; the new release moves
//! code sections around (cycles!) and grows slightly. The server prepares
//! an in-place reconstructible delta; the device installs it over a
//! 56 kbit/s link with no scratch storage, faulting on any
//! write-before-read hazard and verifying a CRC at the end.
//!
//! Run: `cargo run --release --example firmware_update`

use ipr::delta::diff::{Differ, GreedyDiffer};
use ipr::device::update::install_update;
use ipr::device::{Channel, Device};
use ipr::workloads::content::{generate, ContentKind};
use ipr::workloads::mutate::{mutate, MutationProfile};
use ipr::{Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build firmware v1 and v2 (v2 = v1 with moved/edited/inserted blocks).
    let mut rng = StdRng::seed_from_u64(2024);
    let v1 = generate(&mut rng, ContentKind::BinaryLike, 640 * 1024);
    let v2 = mutate(&mut rng, &v1, &MutationProfile::default());
    println!("firmware v1: {} B, v2: {} B", v1.len(), v2.len());

    // Server side: diff + in-place conversion + serialization.
    let update =
        Engine::with_differ(GreedyDiffer::default(), EngineConfig::default()).update(&v1, &v2)?;
    println!(
        "update payload: {} B ({:.1}% of a full image); {} cycles broken, {} copies converted",
        update.payload.len(),
        100.0 * update.ratio(),
        update.report.cycles_broken,
        update.report.copies_converted,
    );

    // Device side: flash v1, then install the delta over dial-up.
    let mut device = Device::new(768 * 1024);
    device.flash(&v1)?;
    let channel = Channel::dialup();
    let report = install_update(&mut device, &update.payload, channel)?;
    assert_eq!(device.image(), &v2[..]);
    println!(
        "installed in place: {} commands, {} B written, {} B scratch used, crc {}",
        report.stats.commands,
        report.stats.bytes_written,
        report.stats.scratch_bytes,
        if report.crc_verified {
            "verified"
        } else {
            "absent"
        },
    );
    println!(
        "transfer over {}: {:.1} s (full image would take {:.1} s — {:.1}x speedup)",
        channel,
        report.transfer_time.as_secs_f64(),
        channel.transfer_time(v2.len() as u64).as_secs_f64(),
        channel.speedup(v2.len() as u64, update.payload.len() as u64),
    );

    // What the paper's algorithm prevents: applying the *unconverted*
    // delta in place. The device's write-before-read detector trips.
    let raw_script = GreedyDiffer::default().diff(&v1, &v2);
    let mut naive = Device::new(768 * 1024);
    naive.flash(&v1)?;
    match naive.apply_update(&raw_script) {
        Err(e) => println!("unconverted delta rejected as expected: {e}"),
        Ok(_) => {
            // Rare but possible: this particular delta happened to be
            // conflict-free already.
            assert_eq!(naive.image(), &v2[..]);
            println!("unconverted delta happened to be conflict-free");
        }
    }
    Ok(())
}
