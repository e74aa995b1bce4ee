//! Sequential release chains applied hop by hop to a single device: the
//! realistic distribution pattern (a device several releases behind
//! catches up through consecutive in-place updates).

use ipr::delta::diff::{CorrectingDiffer, GreedyDiffer, IndexedDiffer};
use ipr::device::update::install_update;
use ipr::device::{Channel, Device};
use ipr::workloads::chain::{ChainPattern, VersionChain};
use ipr::workloads::content::ContentKind;
use ipr::{Engine, EngineConfig};

fn run_chain<D: IndexedDiffer>(chain: &VersionChain, differ: D) {
    let capacity = chain.releases().iter().map(Vec::len).max().unwrap() + 4096;
    let mut device = Device::new(capacity);
    device.flash(chain.release(0)).unwrap();
    let mut engine = Engine::with_differ(differ, EngineConfig::default());
    for (hop, (old, new)) in chain.hops().enumerate() {
        assert_eq!(device.image(), old, "device out of sync before hop {hop}");
        let update = engine.update(old, new).unwrap();
        let report = install_update(&mut device, &update.payload, Channel::cellular()).unwrap();
        assert!(report.crc_verified, "hop {hop}");
        assert_eq!(device.image(), new, "hop {hop} corrupted the image");
    }
}

#[test]
fn patch_chain_applies_hop_by_hop() {
    let chain = VersionChain::generate(
        11,
        ContentKind::BinaryLike,
        48 * 1024,
        6,
        ChainPattern::Patches,
    );
    run_chain(&chain, GreedyDiffer::default());
}

#[test]
fn escalating_chain_with_correcting_differ() {
    let chain = VersionChain::generate(
        12,
        ContentKind::SourceLike,
        32 * 1024,
        7,
        ChainPattern::Escalating,
    );
    run_chain(&chain, CorrectingDiffer::default());
}

#[test]
fn major_release_chain() {
    let chain = VersionChain::generate(
        13,
        ContentKind::BinaryLike,
        64 * 1024,
        5,
        ChainPattern::MajorEvery(2),
    );
    run_chain(&chain, GreedyDiffer::default());
}

#[test]
fn chain_totals_beat_full_images() {
    // The aggregate payload over a patch chain must be far below shipping
    // each release in full.
    let chain = VersionChain::generate(
        14,
        ContentKind::SourceLike,
        128 * 1024,
        8,
        ChainPattern::Patches,
    );
    let mut engine = Engine::with_differ(GreedyDiffer::default(), EngineConfig::default());
    let mut delta_total = 0usize;
    let mut full_total = 0usize;
    for (old, new) in chain.hops() {
        let update = engine.update(old, new).unwrap();
        delta_total += update.payload.len();
        full_total += new.len();
    }
    assert!(
        delta_total * 3 < full_total,
        "chain deltas {delta_total} vs full {full_total}"
    );
}
