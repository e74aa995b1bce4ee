//! Engine stage equivalence and session-reuse behaviour.

use ipr_core::{apply_in_place, convert_to_in_place, ConversionConfig, CyclePolicy};
use ipr_delta::codec::{self, Format};
use ipr_delta::diff::{Differ, GreedyDiffer, OnePassDiffer};
use ipr_delta::{apply, compose_chain};
use ipr_pipeline::{Engine, EngineConfig, EngineError};

fn corpus_pair(len: usize, rot: usize) -> (Vec<u8>, Vec<u8>) {
    let reference: Vec<u8> = (0..len as u32).map(|i| (i * 31 % 251) as u8).collect();
    let mut version = reference.clone();
    version.rotate_left(rot.min(len));
    if len > 64 {
        version[len / 2] ^= 0x5A;
        version.extend_from_slice(&[7u8; 33]);
    }
    (reference, version)
}

/// The engine's one-call path must match the legacy free-function
/// pipeline byte for byte: same commands, same wire bytes. Checked for
/// the Engine's default differ, `sampled()`, and for the full index,
/// `default()`.
#[test]
fn update_matches_legacy_pipeline() {
    let (reference, version) = corpus_pair(200_000, 25_000);
    for differ in [GreedyDiffer::sampled(), GreedyDiffer::default()] {
        let legacy_script = differ.diff(&reference, &version);
        for policy in [
            CyclePolicy::ConstantTime,
            CyclePolicy::LocallyMinimum,
            CyclePolicy::Exhaustive { limit: 24 },
        ] {
            let config = EngineConfig {
                policy,
                ..EngineConfig::default()
            };
            let mut engine = Engine::with_differ(differ.clone(), config);

            let legacy = convert_to_in_place(
                &legacy_script,
                &reference,
                &ConversionConfig::with_policy(policy),
            )
            .unwrap();
            let legacy_payload =
                codec::encode_checked(&legacy.script, Format::InPlace, &version).unwrap();

            // Two updates through the same engine: the second runs on a
            // warm, recycled arena and must still be identical.
            for round in 0..2 {
                let delta = engine.update(&reference, &version).unwrap();
                let tag = format!("{differ:?} {policy} round={round}");
                assert_eq!(delta.script.commands(), legacy.script.commands(), "{tag}");
                assert_eq!(delta.payload, legacy_payload, "{tag}");
                assert_eq!(delta.report.cycles_broken, legacy.report.cycles_broken);
                assert_eq!(delta.version_len, version.len() as u64);

                let mut buf = reference.clone();
                buf.resize(buf.len().max(version.len()), 0);
                engine.apply_in_place(&delta.script, &mut buf).unwrap();
                buf.truncate(version.len());
                assert_eq!(buf, version);
                engine.recycle(delta);
            }
        }
    }
}

#[test]
fn stage_methods_compose_like_the_one_call_path() {
    let (reference, version) = corpus_pair(20_000, 1_234);
    let mut engine = Engine::new();
    let one_call = engine.update(&reference, &version).unwrap();

    let script = engine.diff(&reference, &version);
    let outcome = engine.convert(script, &reference).unwrap();
    assert_eq!(outcome.script, one_call.script);

    let mut free = reference.clone();
    free.resize(free.len().max(version.len()), 0);
    let mut staged = free.clone();
    apply_in_place(&outcome.script, &mut free).unwrap();
    engine.apply_in_place(&outcome.script, &mut staged).unwrap();
    assert_eq!(staged, free);
    free.truncate(version.len());
    assert_eq!(free, version);
}

#[test]
fn updates_walk_the_chain_hop_by_hop() {
    let v0: Vec<u8> = (0..9_000u32).map(|i| (i * 17 % 249) as u8).collect();
    let mut v1 = v0.clone();
    v1.rotate_left(700);
    let mut v2 = v1.clone();
    v2.truncate(8_000);
    let mut v3 = v2.clone();
    v3.extend_from_slice(&[0xAB; 444]);

    // One engine diffs each hop against the previous image, and each
    // hop applies in place over it.
    let mut engine = Engine::new();
    let images: [&[u8]; 4] = [&v0, &v1, &v2, &v3];
    for (i, hop) in images.windows(2).enumerate() {
        let (prev, next) = (hop[0], hop[1]);
        let delta = engine.update(prev, next).unwrap();
        let mut buf = prev.to_vec();
        buf.resize(buf.len().max(next.len()), 0);
        engine.apply_in_place(&delta.script, &mut buf).unwrap();
        buf.truncate(next.len());
        assert_eq!(buf, next, "hop {i}");
        engine.recycle(delta);
    }
}

/// `Engine::compose` returns exactly what `compose_chain` does, and the
/// composed script rebuilds the chain's last version from its first
/// under scratch-space application.
#[test]
fn compose_matches_compose_chain() {
    let v0: Vec<u8> = (0..12_000u32).map(|i| (i * 29 % 253) as u8).collect();
    let mut v1 = v0.clone();
    v1.rotate_left(900);
    let mut v2 = v1.clone();
    v2.extend_from_slice(&[3u8; 100]);
    v2[40] = 0xFF;

    let differ = GreedyDiffer::default();
    let chain = [differ.diff(&v0, &v1), differ.diff(&v1, &v2)];
    let mut engine = Engine::new();
    let composed = engine.compose(&chain).unwrap();
    assert_eq!(composed, compose_chain(&chain).unwrap());
    assert_eq!(apply(&composed, &v0).unwrap(), v2);
    // A one-hop chain composes to the hop itself.
    assert_eq!(engine.compose(&chain[..1]).unwrap(), chain[0]);
}

#[test]
fn compose_rejects_non_consecutive_deltas() {
    let (a, b) = corpus_pair(2_000, 100);
    let d = GreedyDiffer::default().diff(&a, &b);
    let mut engine = Engine::new();
    let err = engine.compose(&[d.clone(), d]).unwrap_err();
    assert!(matches!(err, EngineError::Compose(_)), "{err}");
    assert!(!err.to_string().is_empty());
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn custom_differ_sessions_work() {
    let (reference, version) = corpus_pair(30_000, 2_222);
    let mut engine = Engine::with_differ(OnePassDiffer::default(), EngineConfig::default());
    let delta = engine.update(&reference, &version).unwrap();
    let legacy_script = OnePassDiffer::default().diff(&reference, &version);
    let legacy =
        convert_to_in_place(&legacy_script, &reference, &ConversionConfig::default()).unwrap();
    assert_eq!(delta.script, legacy.script);
}

#[test]
fn degenerate_inputs_round_trip() {
    let mut engine = Engine::new();
    for (r, v) in [
        (&b""[..], &b""[..]),
        (&b""[..], &b"brand new"[..]),
        (&b"all gone"[..], &b""[..]),
        (&b"same"[..], &b"same"[..]),
    ] {
        let delta = engine.update(r, v).unwrap();
        let mut buf = r.to_vec();
        buf.resize(r.len().max(v.len()), 0);
        engine.apply_in_place(&delta.script, &mut buf).unwrap();
        buf.truncate(v.len());
        assert_eq!(buf, v);
        engine.recycle(delta);
    }
}
