//! Edge-case coverage for the streaming update session, the flash
//! updater's eviction paths and channel arithmetic.

use ipr_core::{convert_to_in_place, ConversionConfig};
use ipr_delta::diff::{Differ, GreedyDiffer};
use ipr_delta::{Command, DeltaScript};
use ipr_device::flash::{FlashStorage, FlashUpdater};
use ipr_device::{Channel, Device, DeviceError};
use std::time::Duration;

#[test]
fn session_rejects_overlapping_writes() {
    let mut dev = Device::new(16);
    dev.flash(&[7u8; 16]).unwrap();
    let mut s = dev.begin_update(16, 16).unwrap();
    s.apply_command(&Command::copy(0, 0, 8)).unwrap();
    let err = s.apply_command(&Command::copy(8, 4, 8)).unwrap_err();
    assert!(matches!(err, DeviceError::InvalidCommand { command: 1 }));
}

#[test]
fn session_rejects_out_of_bounds_reads_and_writes() {
    let mut dev = Device::new(32);
    dev.flash(&[1u8; 16]).unwrap();
    let mut s = dev.begin_update(16, 20).unwrap();
    // Write past the declared target.
    assert!(matches!(
        s.apply_command(&Command::copy(0, 16, 8)),
        Err(DeviceError::InvalidCommand { .. })
    ));
    // Read past the installed image.
    assert!(matches!(
        s.apply_command(&Command::copy(10, 0, 8)),
        Err(DeviceError::InvalidCommand { .. })
    ));
    // Offset overflow must not panic.
    assert!(matches!(
        s.apply_command(&Command::copy(0, u64::MAX - 2, 8)),
        Err(DeviceError::InvalidCommand { .. })
    ));
}

#[test]
fn session_commit_requires_full_coverage() {
    let mut dev = Device::new(16);
    dev.flash(&[2u8; 16]).unwrap();
    let mut s = dev.begin_update(16, 16).unwrap();
    s.apply_command(&Command::copy(0, 0, 8)).unwrap();
    let err = s.commit().unwrap_err();
    assert_eq!(
        err,
        DeviceError::IncompleteUpdate {
            covered: 8,
            target_len: 16
        }
    );
    // The image length must be unchanged after the failed commit.
    assert_eq!(dev.image().len(), 16);
}

#[test]
fn session_counts_commands() {
    let mut dev = Device::new(8);
    dev.flash(&[3u8; 8]).unwrap();
    let mut s = dev.begin_update(8, 8).unwrap();
    assert_eq!(s.commands_applied(), 0);
    s.apply_command(&Command::copy(0, 0, 8)).unwrap();
    assert_eq!(s.commands_applied(), 1);
    let stats = s.commit().unwrap();
    assert_eq!(stats.commands, 1);
    assert_eq!(stats.bytes_read, 8);
}

#[test]
fn session_wrong_dimensions_rejected_up_front() {
    let mut dev = Device::new(16);
    dev.flash(&[4u8; 8]).unwrap();
    assert_eq!(
        dev.begin_update(9, 8).unwrap_err(),
        DeviceError::ImageMismatch {
            expected: 9,
            actual: 8
        }
    );
    assert!(matches!(
        dev.begin_update(8, 17),
        Err(DeviceError::CapacityExceeded { .. })
    ));
    let mut fresh = Device::new(16);
    assert!(matches!(
        fresh.begin_update(0, 0),
        Err(DeviceError::NotFlashed)
    ));
}

#[test]
fn flash_single_ram_block_still_correct() {
    // The tightest RAM budget forces an eviction on every block change;
    // correctness must be unaffected.
    let reference: Vec<u8> = (0..20_000u32).map(|i| (i * 23 % 251) as u8).collect();
    let mut version = reference.clone();
    version.rotate_left(6_000);
    let script = GreedyDiffer::default().diff(&reference, &version);
    let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();

    let mut flash = FlashStorage::new(6, 4096);
    let mut updater = FlashUpdater::new(&mut flash, 0).with_ram_blocks(1);
    updater.reflash(&reference).unwrap();
    let tight = updater.apply_update(&out.script).unwrap();
    assert_eq!(updater.image(), &version[..]);

    let mut flash2 = FlashStorage::new(6, 4096);
    let mut updater2 = FlashUpdater::new(&mut flash2, 0).with_ram_blocks(1024);
    updater2.reflash(&reference).unwrap();
    let roomy = updater2.apply_update(&out.script).unwrap();
    assert_eq!(updater2.image(), &version[..]);
    assert!(tight.erases >= roomy.erases, "less RAM cannot erase less");
}

#[test]
fn flash_block_boundary_straddling_commands() {
    // A copy crossing several erase blocks, written backwards.
    let block = 16usize;
    let script = DeltaScript::new(
        60,
        64,
        vec![
            Command::copy(0, 4, 60), // shifts right across 4 block boundaries
            Command::add(0, vec![0xCC; 4]),
        ],
    )
    .unwrap();
    assert!(ipr_core::is_in_place_safe(&script));
    let reference: Vec<u8> = (0u8..60).collect();
    let expected = ipr_delta::apply(&script, &reference).unwrap();
    let mut flash = FlashStorage::new(4, block);
    let mut updater = FlashUpdater::new(&mut flash, 0);
    updater.reflash(&reference).unwrap();
    updater.apply_update(&script).unwrap();
    assert_eq!(updater.image(), &expected[..]);
}

#[test]
fn channel_saturating_on_huge_transfers() {
    let c = Channel::new(1, Duration::ZERO); // 1 bit/s
                                             // Must not overflow; just become enormous.
    let t = c.transfer_time(u64::MAX / 16);
    assert!(t > Duration::from_secs(1_000_000));
}

#[test]
fn device_clone_is_independent() {
    let mut a = Device::new(8);
    a.flash(b"aaaa").unwrap();
    let b = a.clone();
    a.flash(b"bbbb").unwrap();
    assert_eq!(b.image(), b"aaaa");
    assert_eq!(a.image(), b"bbbb");
}
