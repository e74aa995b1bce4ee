//! Cross-crate integration: the full pipeline — difference, convert,
//! serialize, transmit, rebuild in place on a checked device — over the
//! seeded corpus, for every differ, policy and wire format combination.

use ipr::core::{
    apply_in_place, apply_in_place_buffered, check_in_place_safe, convert_to_in_place,
    count_wr_conflicts, required_capacity, ConversionConfig, CyclePolicy,
};
use ipr::delta::codec::{decode, encode, encode_checked, Format};
use ipr::delta::diff::{Differ, GreedyDiffer, OnePassDiffer};
use ipr::device::update::install_update;
use ipr::device::{Channel, Device};
use ipr::workloads::corpus::CorpusSpec;
use ipr::{Engine, EngineConfig};

fn corpus() -> Vec<ipr::workloads::FilePair> {
    CorpusSpec {
        pairs: 12,
        min_len: 2 * 1024,
        max_len: 32 * 1024,
        ..CorpusSpec::default()
    }
    .build()
}

#[test]
fn differs_reconstruct_every_pair() {
    let differs: [&dyn Differ; 2] = [&GreedyDiffer::default(), &OnePassDiffer::default()];
    for pair in &corpus() {
        for differ in differs {
            let script = differ.diff(&pair.reference, &pair.version);
            assert_eq!(
                ipr::delta::apply(&script, &pair.reference).unwrap(),
                pair.version,
                "{} on {}",
                differ.name(),
                pair.name
            );
        }
    }
}

#[test]
fn conversion_is_safe_and_equivalent_for_all_policies() {
    let differ = GreedyDiffer::default();
    for pair in &corpus() {
        let script = differ.diff(&pair.reference, &pair.version);
        for policy in [CyclePolicy::ConstantTime, CyclePolicy::LocallyMinimum] {
            let out = convert_to_in_place(
                &script,
                &pair.reference,
                &ConversionConfig::with_policy(policy),
            )
            .unwrap();
            check_in_place_safe(&out.script)
                .unwrap_or_else(|v| panic!("{policy} unsafe on {}: {v}", pair.name));
            assert_eq!(count_wr_conflicts(&out.script), 0, "{policy} {}", pair.name);

            let mut buf = pair.reference.clone();
            buf.resize(required_capacity(&out.script) as usize, 0);
            apply_in_place(&out.script, &mut buf).unwrap();
            assert_eq!(
                &buf[..pair.version.len()],
                &pair.version[..],
                "{policy} {}",
                pair.name
            );
        }
    }
}

#[test]
fn wire_formats_preserve_safety_and_content() {
    let differ = OnePassDiffer::default();
    for pair in corpus().iter().take(6) {
        let script = differ.diff(&pair.reference, &pair.version);
        let out =
            convert_to_in_place(&script, &pair.reference, &ConversionConfig::default()).unwrap();
        for format in [Format::InPlace, Format::PaperInPlace, Format::Improved] {
            let wire = encode_checked(&out.script, format, &pair.version).unwrap();
            let decoded = decode(&wire).unwrap();
            assert!(
                check_in_place_safe(&decoded.script).is_ok(),
                "{format} broke command order on {}",
                pair.name
            );
            let mut buf = pair.reference.clone();
            buf.resize(required_capacity(&decoded.script) as usize, 0);
            apply_in_place(&decoded.script, &mut buf).unwrap();
            assert_eq!(
                &buf[..pair.version.len()],
                &pair.version[..],
                "{format} {}",
                pair.name
            );
        }
    }
}

#[test]
fn device_installs_every_pair() {
    let mut engine = Engine::with_differ(GreedyDiffer::default(), EngineConfig::default());
    for pair in &corpus() {
        let update = engine.update(&pair.reference, &pair.version).unwrap();
        let capacity = pair.reference.len().max(pair.version.len());
        let mut device = Device::new(capacity);
        device.flash(&pair.reference).unwrap();
        let report = install_update(&mut device, &update.payload, Channel::cellular()).unwrap();
        assert_eq!(device.image(), &pair.version[..], "{}", pair.name);
        assert!(report.crc_verified);
        assert_eq!(report.stats.scratch_bytes, 0);
    }
}

#[test]
fn buffered_apply_matches_unbuffered_on_corpus() {
    let differ = GreedyDiffer::default();
    for pair in corpus().iter().take(4) {
        let script = differ.diff(&pair.reference, &pair.version);
        let out =
            convert_to_in_place(&script, &pair.reference, &ConversionConfig::default()).unwrap();
        let capacity = required_capacity(&out.script) as usize;
        let mut expected = pair.reference.clone();
        expected.resize(capacity, 0);
        apply_in_place(&out.script, &mut expected).unwrap();
        for chunk in [1usize, 7, 64, 4096] {
            let mut buf = pair.reference.clone();
            buf.resize(capacity, 0);
            apply_in_place_buffered(&out.script, &mut buf, chunk).unwrap();
            assert_eq!(buf, expected, "chunk {chunk} on {}", pair.name);
        }
    }
}

#[test]
fn in_place_scripts_also_apply_with_scratch_space() {
    // An in-place delta is still an ordinary delta: scratch application
    // must give the same bytes (§3: any permutation works with scratch).
    let differ = GreedyDiffer::default();
    for pair in corpus().iter().take(6) {
        let script = differ.diff(&pair.reference, &pair.version);
        let out =
            convert_to_in_place(&script, &pair.reference, &ConversionConfig::default()).unwrap();
        assert_eq!(
            ipr::delta::apply(&out.script, &pair.reference).unwrap(),
            pair.version,
            "{}",
            pair.name
        );
    }
}

#[test]
fn ordered_format_roundtrips_unconverted_scripts() {
    let differ = GreedyDiffer::default();
    for pair in corpus().iter().take(6) {
        let script = differ.diff(&pair.reference, &pair.version);
        let wire = encode(&script, Format::Ordered).unwrap();
        let decoded = decode(&wire).unwrap();
        assert_eq!(decoded.script, script, "{}", pair.name);
    }
}

#[test]
fn shrinking_and_growing_versions_round_trip_in_place() {
    let reference: Vec<u8> = (0..50_000u32).map(|i| (i * 19 % 251) as u8).collect();
    for version_len in [1_000usize, 49_999, 50_000, 90_000] {
        let mut version: Vec<u8> = reference
            .iter()
            .copied()
            .cycle()
            .take(version_len)
            .collect();
        if version_len > 2_000 {
            version[1_500] ^= 0xff; // make it a real edit
        }
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        let mut buf = reference.clone();
        buf.resize(required_capacity(&out.script) as usize, 0);
        apply_in_place(&out.script, &mut buf).unwrap();
        assert_eq!(&buf[..version.len()], &version[..], "len {version_len}");
    }
}
