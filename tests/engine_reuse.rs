//! Property tests for the [`ipr::Engine`] session layer: a reused
//! engine — arenas warm, pools full of recycled storage, the reference
//! index kept — must behave exactly like a fresh engine built per call,
//! across heterogeneous input sequences, for every cycle policy; its
//! diff must do work bounded by one pass over the version; and it must
//! index a reference once while the references it gets stay byte-equal,
//! and rebuild on any other.

use ipr::core::{check_in_place_safe, required_capacity, CyclePolicy};
use ipr::delta::apply;
use ipr::delta::diff::{CorrectingDiffer, GreedyDiffer, IndexedDiffer, OnePassDiffer};
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

/// `len` xorshift bytes from `seed`: every seed window is unique.
fn noise(len: usize, mut seed: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 56) as u8
        })
        .collect()
}

/// Runs `f` under a fresh [`StatsRecorder`]; returns its result, and the
/// `diff.index_build` spans and `diff.index_reuses` it recorded.
fn recorded<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let stats = Arc::new(StatsRecorder::new());
    let out = {
        let _guard = ipr::trace::install(stats.clone());
        f()
    };
    let report = stats.report();
    let builds = report.span("diff.index_build").map_or(0, |s| s.count);
    let reuses = report.counter("diff.index_reuses").unwrap_or(0);
    (out, builds, reuses)
}

/// An engine differencing with `differ` under the default config.
fn engine_for<D: IndexedDiffer + Clone>(differ: &D) -> Engine<D> {
    Engine::with_differ(differ.clone(), EngineConfig::default())
}

/// Updates `version` over `reference` on the warm `engine`, asserts that
/// the commands and wire bytes equal a fresh engine's, and returns the
/// index builds and reuses the warm update recorded.
fn update_matches_fresh<D: IndexedDiffer + Clone>(
    engine: &mut Engine<D>,
    differ: &D,
    reference: &[u8],
    version: &[u8],
    what: &str,
) -> (u64, u64) {
    let cold = engine_for(differ)
        .update(reference, version)
        .expect("fresh update");
    let (warm, builds, reuses) = recorded(|| engine.update(reference, version));
    let warm = warm.expect("warm update");
    let name = differ.name();
    assert_eq!(
        warm.script.commands(),
        cold.script.commands(),
        "{name}, {what}: commands differ from a fresh engine's"
    );
    assert_eq!(
        warm.payload, cold.payload,
        "{name}, {what}: wire bytes differ from a fresh engine's"
    );
    engine.recycle(warm);
    (builds, reuses)
}

/// Versions of `reference` a release server fans out: point edits, an
/// insertion, a deletion, a block move, a truncation and an extension.
fn releases(reference: &[u8]) -> Vec<Vec<u8>> {
    let len = reference.len();
    let mut edited = reference.to_vec();
    for at in [len / 9, len / 2, 7 * len / 8] {
        edited[at] ^= 0x5a;
    }
    let mut inserted = reference.to_vec();
    inserted.splice(len / 3..len / 3, noise(300, 3));
    let mut deleted = reference.to_vec();
    deleted.drain(len / 4..len / 4 + 2_000);
    let mut moved = reference.to_vec();
    moved.rotate_left(len / 3);
    let truncated = [&reference[..len / 2], &noise(1_000, 4)[..]].concat();
    let extended = [reference, &noise(5_000, 5)[..]].concat();
    vec![edited, inserted, deleted, moved, truncated, extended]
}

/// One engine per differ family diffs and updates several releases
/// against one reference: each script and payload equals a fresh
/// engine's, and the whole fan-out builds the reference index once.
#[test]
fn fan_out_indexes_the_reference_once() {
    let reference = noise(96 << 10, 0x5eed_1234);
    let versions = releases(&reference);
    check_fan_out(&GreedyDiffer::sampled(), &reference, &versions);
    check_fan_out(&OnePassDiffer::default(), &reference, &versions);
    check_fan_out(&CorrectingDiffer::default(), &reference, &versions);
}

fn check_fan_out<D: IndexedDiffer + Clone>(differ: &D, reference: &[u8], versions: &[Vec<u8>]) {
    let name = differ.name();
    let cold: Vec<_> = versions
        .iter()
        .map(|version| engine_for(differ).diff(reference, version))
        .collect();
    let mut engine = engine_for(differ);
    let mut builds = 0;
    let mut reuses = 0;
    for (i, (version, cold)) in versions.iter().zip(&cold).enumerate() {
        let (script, b, r) = recorded(|| engine.diff(reference, version));
        assert_eq!(&script, cold, "{name}: diff of release {i}");
        engine.recycle_script(script);
        let (b2, r2) = update_matches_fresh(
            &mut engine,
            differ,
            reference,
            version,
            &format!("update of release {i}"),
        );
        builds += b + b2;
        reuses += r + r2;
    }
    assert_eq!(builds, 1, "{name}: index builds over the fan-out");
    assert_eq!(
        reuses,
        2 * versions.len() as u64 - 1,
        "{name}: index reuses over the fan-out"
    );
}

/// A warm engine whose next reference is not byte-equal to the one it
/// indexed rebuilds the index and matches a fresh engine: the same
/// length with one byte flipped, a prefix, an extension, the caller's
/// buffer changed in place, a version shorter than a seed (which builds
/// nothing) before a full version, and an empty reference.
#[test]
fn stale_references_rebuild_the_index() {
    check_stale(&GreedyDiffer::sampled());
    check_stale(&OnePassDiffer::default());
    check_stale(&CorrectingDiffer::default());
}

fn check_stale<D: IndexedDiffer + Clone>(differ: &D) {
    let name = differ.name();
    let reference = noise(64 << 10, 0x2545_f491);
    let mut version = reference.clone();
    version[1_000] ^= 0x01;
    version.splice(30_000..30_000, noise(200, 9));
    let mut flipped = reference.clone();
    flipped[40_000] ^= 0x80;
    let prefix = &reference[..reference.len() / 2];
    let extended = [&reference[..], &noise(8 << 10, 11)[..]].concat();
    let mut extension_first = extended.clone();
    extension_first.rotate_right(8 << 10);
    let short = &version[..differ.seed_len() - 1];
    let warm = || {
        let mut engine = engine_for(differ);
        let (builds, _) =
            update_matches_fresh(&mut engine, differ, &reference, &version, "warm-up");
        assert_eq!(builds, 1, "{name}: warm-up builds the index");
        engine
    };

    // A stale index would miss the extension, and probe offsets past the
    // end of the prefix.
    let cases: [(&str, &[u8], &[u8], u64); 4] = [
        ("one byte flipped", &flipped, &version, 1),
        ("a prefix", prefix, &reference, 1),
        ("an extension", &extended, &extension_first, 1),
        ("an empty reference", &[], &version, 0),
    ];
    for (case, next, next_version, want_builds) in cases {
        let mut engine = warm();
        let (builds, reuses) = update_matches_fresh(&mut engine, differ, next, next_version, case);
        assert_eq!((builds, reuses), (want_builds, 0), "{name}: {case}");
    }

    let mut engine = warm();
    let (builds, _) = update_matches_fresh(&mut engine, differ, &flipped, short, "short version");
    assert_eq!(
        builds, 0,
        "{name}: a version shorter than a seed builds nothing"
    );
    let (builds, reuses) = update_matches_fresh(
        &mut engine,
        differ,
        &flipped,
        &version,
        "full version after it",
    );
    assert_eq!(
        (builds, reuses),
        (1, 0),
        "{name}: full version after a short one"
    );

    let mut buf = reference.clone();
    let mut engine = engine_for(differ);
    update_matches_fresh(
        &mut engine,
        differ,
        &buf,
        &version,
        "buffer before the change",
    );
    buf[40_000] ^= 0x80;
    let (builds, reuses) = update_matches_fresh(
        &mut engine,
        differ,
        &buf,
        &version,
        "buffer changed in place",
    );
    assert_eq!((builds, reuses), (1, 0), "{name}: buffer changed in place");
    // Byte-equal again: the index is reused.
    let (builds, reuses) = update_matches_fresh(&mut engine, differ, &buf, &version, "again");
    assert_eq!((builds, reuses), (0, 1), "{name}: the same bytes again");
}
