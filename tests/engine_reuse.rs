//! Property tests for the [`ipr::Engine`] session layer: a reused
//! engine — arenas warm, pools full of recycled storage — must behave
//! exactly like a fresh engine built per call, across heterogeneous
//! input sequences, for every cycle policy; and its diff must do work
//! bounded by one pass over the version.

use ipr::core::{check_in_place_safe, required_capacity, CyclePolicy};
use ipr::delta::apply;
use ipr::pipeline::{Engine, EngineConfig, EngineError};
use ipr::trace::StatsRecorder;
use ipr::Stage;
use proptest::prelude::*;
use std::sync::Arc;

/// Cycle policies the reuse property is checked under.
const POLICIES: [CyclePolicy; 3] = [
    CyclePolicy::ConstantTime,
    CyclePolicy::LocallyMinimum,
    CyclePolicy::Exhaustive { limit: 10 },
];

/// A version derived from a reference by random edit operations, so the
/// pair is realistically delta-compressible.
fn edited_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let reference = proptest::collection::vec(any::<u8>(), 0..1024);
    let edits = proptest::collection::vec(
        (
            0u8..4,                       // op
            any::<prop::sample::Index>(), // position
            1usize..128,                  // length
            any::<u8>(),                  // value seed
        ),
        0..6,
    );
    (reference, edits).prop_map(|(reference, edits)| {
        let mut version = reference.clone();
        for (op, pos, len, val) in edits {
            if version.is_empty() {
                version.extend(std::iter::repeat_n(val, len));
                continue;
            }
            let at = pos.index(version.len());
            match op {
                0 => version[at] = val,
                1 => {
                    let block: Vec<u8> = (0..len).map(|i| val.wrapping_add(i as u8)).collect();
                    version.splice(at..at, block);
                }
                2 => {
                    let end = (at + len).min(version.len());
                    version.drain(at..end);
                }
                _ => {
                    let end = (at + len).min(version.len());
                    let block: Vec<u8> = version[at..end].to_vec();
                    version.extend(block);
                }
            }
        }
        (reference, version)
    })
}

/// An engine config for one cycle policy.
fn config_for(policy: CyclePolicy) -> EngineConfig {
    EngineConfig {
        policy,
        ..EngineConfig::default()
    }
}

/// One update on `engine`, compared against a fresh engine with the same
/// configuration; returns whether the update succeeded.
fn step_matches_fresh(
    engine: &mut Engine,
    config: EngineConfig,
    reference: &[u8],
    version: &[u8],
) -> Result<bool, TestCaseError> {
    let warm = engine.update(reference, version);
    let cold = Engine::with_config(config).update(reference, version);
    match (warm, cold) {
        (Ok(warm), Ok(cold)) => {
            prop_assert_eq!(
                warm.script.commands(),
                cold.script.commands(),
                "reused engine emitted different commands"
            );
            prop_assert_eq!(
                &warm.payload,
                &cold.payload,
                "reused engine emitted different wire bytes"
            );
            prop_assert_eq!(warm.version_len, cold.version_len);

            // The reused engine's applier must also rebuild the version.
            let mut buf = reference.to_vec();
            buf.resize((required_capacity(&warm.script) as usize).max(buf.len()), 0);
            engine
                .apply_in_place(&warm.script, &mut buf)
                .expect("converted script applies");
            prop_assert_eq!(
                &buf[..version.len()],
                version,
                "reused engine rebuilt a different file"
            );
            engine.recycle(warm);
            Ok(true)
        }
        // The exhaustive policy may refuse oversized components — but it
        // must refuse identically whether the engine is warm or cold.
        (Err(EngineError::Convert(w)), Err(EngineError::Convert(c))) => {
            prop_assert_eq!(w, c, "warm and cold engines failed differently");
            Ok(false)
        }
        (warm, cold) => {
            prop_assert!(
                false,
                "warm and cold engines disagreed: {:?} vs {:?}",
                warm.map(|d| d.payload.len()),
                cold.map(|d| d.payload.len())
            );
            Ok(false)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One engine reused across a heterogeneous sequence of inputs is
    /// indistinguishable from a fresh engine per call, for every policy.
    #[test]
    fn reused_engine_matches_fresh_per_call(
        pairs in proptest::collection::vec(edited_pair(), 2..5),
    ) {
        for policy in POLICIES {
            let config = config_for(policy);
            let mut engine = Engine::with_config(config);
            for (reference, version) in &pairs {
                step_matches_fresh(&mut engine, config, reference, version)?;
            }
        }
    }

    /// Many updates on one engine walking a version chain, each hop
    /// diffed against the previous version, equal one fresh engine per
    /// hop, and each hop's delta rebuilds its version in place.
    #[test]
    fn update_many_matches_fresh_per_hop(
        reference in proptest::collection::vec(any::<u8>(), 0..512),
        versions in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 1..4),
    ) {
        let config = config_for(CyclePolicy::LocallyMinimum);
        let mut engine = Engine::with_config(config);
        let mut prev: &[u8] = &reference;
        for version in &versions {
            let converted = step_matches_fresh(&mut engine, config, prev, version)?;
            prop_assert!(converted, "the default policy never refuses");
            prev = version;
        }
    }

    /// A warm engine's `compose` of the chain its own `diff` stage
    /// produced rebuilds the chain's final version from the reference
    /// under scratch-space application — the object store's read path.
    #[test]
    fn composed_chain_rebuilds_final_version(
        reference in proptest::collection::vec(any::<u8>(), 0..512),
        versions in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 1..4),
    ) {
        let config = config_for(CyclePolicy::LocallyMinimum);
        let mut engine = Engine::with_config(config);
        // Warm the engine up first so compose sees reused arenas.
        for version in &versions {
            let delta = engine.update(&reference, version).expect("update succeeds");
            engine.recycle(delta);
        }
        let mut scripts = Vec::new();
        let mut prev: &[u8] = &reference;
        for version in &versions {
            scripts.push(engine.diff(prev, version));
            prev = version;
        }
        let composed = engine.compose(&scripts).expect("chain is consecutive");
        let rebuilt = apply(&composed, &reference).expect("composed chain applies");
        prop_assert_eq!(&rebuilt, versions.last().unwrap());
    }
}

/// `Engine::apply_in_place` checks Equation 2 before writing: a
/// write-ordered script that clobbers one of its own later reads is
/// rejected with the verifier's violation and the buffer is left
/// byte-identical; the converted script then rebuilds the version.
#[test]
fn apply_in_place_rejects_unsafe_script_untouched() {
    let mut state = 0x1234_5678u32;
    let reference: Vec<u8> = (0..16_384)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 24) as u8
        })
        .collect();
    let mut version = reference.clone();
    version.rotate_left(4_096); // a block move: write order reads what it wrote
    let mut engine = Engine::new();
    let diffed = engine.diff(&reference, &version);
    let violation = check_in_place_safe(&diffed).expect_err("write order conflicts");

    let mut buf = reference.clone();
    buf.resize(required_capacity(&diffed) as usize, 0);
    let before = buf.clone();
    let err = engine
        .apply_in_place(&diffed, &mut buf)
        .expect_err("unsafe script rejected");
    assert_eq!(err, EngineError::Unsafe(violation));
    assert_eq!(buf, before, "a rejected script wrote to the buffer");
    assert_eq!(ipr::Error::from(err).stage(), Stage::Application);

    let converted = engine.convert(diffed, &reference).expect("converts");
    engine
        .apply_in_place(&converted.script, &mut buf)
        .expect("converted script applies");
    assert_eq!(&buf[..version.len()], &version[..]);
}

/// The default engine's diff is one scan, so an unchanged byte is
/// compared about once: on a 1 MiB image diffed against itself and
/// against its rotation by a third, the scan verifies one candidate per
/// copy it emits and extends over at most the version's length.
#[test]
fn default_diff_work_stays_within_one_pass() {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let image: Vec<u8> = (0..1 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 56) as u8
        })
        .collect();
    let mut rotated = image.clone();
    rotated.rotate_left(image.len() / 3);
    for (name, version, copies) in [("identical", &image, 1), ("rotated", &rotated, 2)] {
        let stats = Arc::new(StatsRecorder::new());
        let script = {
            let _guard = ipr::trace::install(stats.clone());
            Engine::new().diff(&image, version)
        };
        let report = stats.report();
        let counter = |counter: &str| report.counter(counter).unwrap_or(0);
        assert_eq!(script.copy_count(), copies, "{name}");
        assert_eq!(script.added_bytes(), 0, "{name}");
        assert!(counter("diff.probes") <= 2, "{name}: {report:?}");
        let extend = counter("diff.extend_bytes");
        assert!(
            extend <= version.len() as u64,
            "{name}: extended over {extend} bytes, {:.2} x |V|",
            extend as f64 / version.len() as f64
        );
    }
}
