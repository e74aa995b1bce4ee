//! Long-running randomized differential stress across the whole pipeline.
//!
//! Ignored by default; run with
//! `cargo test --test stress -- --ignored --nocapture` (or set
//! `IPR_STRESS_ITERS` to scale the workload). Every iteration draws a
//! seeded random file pair and drives diff → convert (all policies) →
//! encode (all formats) → decode → apply (scratch, in-place, buffered,
//! resumable, spilled, device) and cross-checks every path byte-for-byte.

use ipr::core::resumable::{resume_in_place, Journal, Progress};
use ipr::core::spill::{apply_in_place_spilled, convert_with_spill, SpillConfig};
use ipr::core::{
    apply_in_place, apply_in_place_buffered, check_in_place_safe, convert_to_in_place,
    required_capacity, ConversionConfig, CyclePolicy,
};
use ipr::delta::codec::{decode, encode, Format};
use ipr::delta::diff::{CorrectingDiffer, Differ, GreedyDiffer, OnePassDiffer};
use ipr::device::Device;
use ipr::workloads::content::{generate, ContentKind};
use ipr::workloads::mutate::{mutate, MutationProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn iterations() -> u64 {
    std::env::var("IPR_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

#[test]
#[ignore = "long-running; opt in with --ignored"]
fn full_pipeline_differential_stress() {
    let iters = iterations();
    for seed in 0..iters {
        stress_one(seed);
        if seed % 10 == 9 {
            println!("stress: {}/{iters} seeds OK", seed + 1);
        }
    }
}

fn stress_one(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let kind = if rng.random_bool(0.5) {
        ContentKind::SourceLike
    } else {
        ContentKind::BinaryLike
    };
    let len = rng.random_range(256..64 * 1024);
    let reference = generate(&mut rng, kind, len);
    let profile = match seed % 4 {
        0 => MutationProfile::aligned(),
        1 => MutationProfile::light(),
        2 => MutationProfile::default(),
        _ => MutationProfile::heavy(),
    };
    let version = mutate(&mut rng, &reference, &profile);

    let differs: [&dyn Differ; 4] = [
        &GreedyDiffer::default(),
        &OnePassDiffer::default(),
        &CorrectingDiffer::default(),
        &GreedyDiffer::sampled(),
    ];
    let differ = differs[(seed % 4) as usize];
    let script = differ.diff(&reference, &version);
    assert_eq!(
        ipr::delta::apply(&script, &reference).unwrap(),
        version,
        "seed {seed}: {} differ wrong",
        differ.name()
    );

    let policy = if seed.is_multiple_of(2) {
        CyclePolicy::LocallyMinimum
    } else {
        CyclePolicy::ConstantTime
    };
    let out =
        convert_to_in_place(&script, &reference, &ConversionConfig::with_policy(policy)).unwrap();
    check_in_place_safe(&out.script).unwrap();
    let capacity = required_capacity(&out.script) as usize;

    // In-place and buffered appliers.
    let mut a = reference.clone();
    a.resize(capacity, 0);
    apply_in_place(&out.script, &mut a).unwrap();
    assert_eq!(&a[..version.len()], &version[..], "seed {seed}: in-place");
    let chunk = rng.random_range(1..4096);
    let mut b = reference.clone();
    b.resize(capacity, 0);
    apply_in_place_buffered(&out.script, &mut b, chunk).unwrap();
    assert_eq!(a, b, "seed {seed}: buffered chunk {chunk}");

    // Resumable applier with random fuel.
    let mut c = reference.clone();
    c.resize(capacity, 0);
    let mut journal = Journal::new();
    let fuel = rng.random_range(1..10_000u64);
    while resume_in_place(&out.script, &mut c, &mut journal, 512, fuel).unwrap()
        == Progress::Suspended
    {}
    assert_eq!(a, c, "seed {seed}: resumable fuel {fuel}");

    // Spilled conversion with a random budget.
    let budget = rng.random_range(0..8 * 1024u64);
    let spilled = convert_with_spill(
        &script,
        &reference,
        &SpillConfig {
            conversion: ConversionConfig::with_policy(policy),
            scratch_budget: budget,
        },
    )
    .unwrap();
    let mut d = reference.clone();
    d.resize(required_capacity(&spilled.script) as usize, 0);
    apply_in_place_spilled(&spilled.script, &spilled.stashed, &mut d, budget).unwrap();
    assert_eq!(
        &d[..version.len()],
        &version[..],
        "seed {seed}: spilled {budget}"
    );

    // Codec round trip of the converted delta.
    let format = [Format::InPlace, Format::PaperInPlace, Format::Improved][(seed % 3) as usize];
    let wire = encode(&out.script, format).unwrap();
    let decoded = decode(&wire).unwrap();
    let mut e = reference.clone();
    e.resize(required_capacity(&decoded.script) as usize, 0);
    apply_in_place(&decoded.script, &mut e).unwrap();
    assert_eq!(&e[..version.len()], &version[..], "seed {seed}: {format}");

    // Checked device application.
    let mut device = Device::new(capacity);
    device.flash(&reference).unwrap();
    device.apply_update(&out.script).unwrap();
    assert_eq!(device.image(), &version[..], "seed {seed}: device");
}

#[test]
fn short_stress_smoke() {
    // A cut-down always-on version so regressions surface in CI even when
    // nobody runs --ignored.
    for seed in [0u64, 1, 2, 3] {
        stress_one(seed);
    }
}
