//! The differential oracles.
//!
//! Each oracle is a *deterministic* predicate over a generated input —
//! no internal randomness — so a failing input found under one seed
//! fails identically when regenerated, and every shrinking candidate is
//! judged by exactly the same criterion.
//!
//! * [`check_codec_case`] — every codec round-trips a valid script
//!   bit-exactly (re-encoding the decoded script reproduces the wire
//!   bytes), semantically (applying the decoded script reproduces the
//!   version file), and through the streaming decoder.
//! * [`check_decoder_robustness`] — an arbitrary byte string fed to the
//!   decoders either parses or yields a typed [`DecodeError`]; panics
//!   are caught and reported as violations.
//! * [`check_convert_case`] — scratch-space application is the ground
//!   truth; conversion under every cycle policy must reproduce it via
//!   the serial, resumable (including a simulated mid-chunk power cut
//!   with a torn write), and spilled engines.
//! * [`check_crwi_case`] — the independent Equation 2 checker
//!   ([`crate::check`]) agrees with both of `ipr_core`'s verifiers on
//!   random permutations, the engine's checked applier rejects exactly
//!   the unsafe orders without writing, the device's run-time detector
//!   faults on exactly those orders at the first clobbered byte, and
//!   safety implies in-place application correctness.
//! * [`check_diff_case`] — every differ family and the checkpointed
//!   greedy differ produce scripts that apply back to the version file
//!   and are deterministic (repeated runs emit identical command
//!   sequences), and the scan's work counters stay within their bounds:
//!   `diff.probes` within the per-position candidate limit k times the
//!   version length, `diff.extend_bytes` within (k + 1) times it.
//! * [`check_engine_case`] — the session-layer
//!   [`Engine`](ipr_pipeline::Engine) one-call path
//!   (diff through owned arenas → pooled conversion → checked encoding →
//!   checked serial apply) is byte-identical to the legacy free-function
//!   pipeline, including on the second run of the *same* engine, whose
//!   arenas now hold recycled storage from the first; every conversion
//!   also keeps Lemma 1 (CRWI edges ≤ version length).
//! * [`check_remote_case`] — the signature-based streaming generator:
//!   `apply(generate_delta(sign(r), v), r) == v` byte for byte across a
//!   salt-swept set of fixed block sizes and CDC parameters, with the
//!   signature surviving its wire round-trip, the streaming signature
//!   builder agreeing with the in-memory one, and the generator's
//!   output invariant under hostile read granularities.
//! * [`check_store_case`] — the versioned object store: a drifting
//!   version history put into a throwaway on-disk store reads back
//!   byte-identically after every put, after compaction under a
//!   salt-chosen depth cap, and after a fresh reopen, with a full
//!   `fsck` sweep clean at every checkpoint.

use crate::check;
use crate::gen::FuzzCase;
use ipr_core::resumable::{resume_in_place_observed, Journal, Progress};
use ipr_core::spill::{convert_with_spill, SpillConfig};
use ipr_core::{
    apply_in_place, check_in_place_safe, check_in_place_safe_with, convert_to_in_place,
    required_capacity, ConversionConfig, CyclePolicy,
};
use ipr_delta::codec::stream::StreamDecoder;
use ipr_delta::codec::{decode, encode, encode_checked, DecodeError, EncodeError, Format};
use ipr_delta::diff::{CorrectingDiffer, Differ, GreedyDiffer, OnePassDiffer};
use ipr_delta::remote::{
    generate_delta, generate_delta_bytes, generate_delta_scalar, CdcParams, Chunking, Signature,
};
use ipr_delta::{Command, DeltaScript};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Largest strongly-connected component the exhaustive policy is asked to
/// solve during fuzzing; cases with more copies skip that policy.
const EXHAUSTIVE_LIMIT: usize = 10;
const EXHAUSTIVE_MAX_COPIES: usize = 24;

/// Scratch budgets swept by the spill leg of the conversion oracle.
const SPILL_BUDGETS: [u64; 3] = [0, 13, 1 << 20];

type CheckResult = Result<(), String>;

fn fail(msg: String) -> CheckResult {
    Err(msg)
}

/// Scratch-space ground truth for a valid case.
fn scratch_apply(case: &FuzzCase) -> Result<Vec<u8>, String> {
    ipr_delta::apply(&case.script, &case.reference)
        .map_err(|e| format!("scratch apply rejected a generated case: {e}"))
}

/// A buffer holding the reference, padded to in-place capacity.
fn in_place_buf(case: &FuzzCase, script: &DeltaScript) -> Vec<u8> {
    let mut buf = case.reference.clone();
    buf.resize(required_capacity(script) as usize, 0);
    buf
}

// ---------------------------------------------------------------------------
// Oracle 1: codec round-trip
// ---------------------------------------------------------------------------

/// Checks the codec round-trip oracle on one valid case.
///
/// For each of the five formats: encode (write-ordering the script first
/// when the format demands it), decode, assert the decoded script is
/// semantically identical (same version file) and that *re-encoding it
/// reproduces the wire bytes bit-exactly* — this holds even for the paper
/// formats, whose fixed-width fields split long commands, because the
/// split is idempotent. The streaming decoder must agree with the batch
/// decoder on every wire, and a CRC-carrying wire must round-trip its
/// checksum.
pub fn check_codec_case(case: &FuzzCase) -> CheckResult {
    let expected = scratch_apply(case)?;
    for format in Format::ALL {
        let script = if format.supports_out_of_order() || case.script.is_write_ordered() {
            case.script.clone()
        } else {
            // The offset-free formats must reject out-of-order scripts
            // with the typed error, not scramble the output.
            match encode(&case.script, format) {
                Err(EncodeError::NotWriteOrdered) => {}
                other => {
                    return fail(format!(
                        "{format:?}: encoding a shuffled script gave {other:?}, \
                         expected Err(NotWriteOrdered)"
                    ));
                }
            }
            case.script.clone().into_write_ordered()
        };

        let wire = encode(&script, format)
            .map_err(|e| format!("{format:?}: encode rejected a valid script: {e}"))?;
        let decoded =
            decode(&wire).map_err(|e| format!("{format:?}: decode rejected own wire: {e}"))?;
        if decoded.format != format {
            return fail(format!(
                "{format:?}: decoded format tag is {:?}",
                decoded.format
            ));
        }
        if decoded.target_crc.is_some() {
            return fail(format!("{format:?}: CRC materialized from nowhere"));
        }
        if decoded.script.source_len() != script.source_len()
            || decoded.script.target_len() != script.target_len()
        {
            return fail(format!(
                "{format:?}: lengths changed in flight: {}→{} vs {}→{}",
                script.source_len(),
                script.target_len(),
                decoded.script.source_len(),
                decoded.script.target_len()
            ));
        }
        let applied = ipr_delta::apply(&decoded.script, &case.reference)
            .map_err(|e| format!("{format:?}: decoded script no longer applies: {e}"))?;
        if applied != expected {
            return fail(format!(
                "{format:?}: decoded script builds a different file"
            ));
        }
        let rewire = encode(&decoded.script, format)
            .map_err(|e| format!("{format:?}: re-encode of decoded script failed: {e}"))?;
        if rewire != wire {
            return fail(format!(
                "{format:?}: re-encode not bit-exact ({} vs {} bytes)",
                rewire.len(),
                wire.len()
            ));
        }
        // The varint formats have no width limits, so they must also
        // preserve the command sequence verbatim (paper formats may
        // split long commands).
        if matches!(format, Format::Ordered | Format::InPlace | Format::Improved)
            && decoded.script.commands() != script.commands()
        {
            return fail(format!("{format:?}: command sequence changed in flight"));
        }

        stream_matches_batch(&wire, &decoded.script, format)?;

        // CRC round-trip: the checksum must survive, and the whole
        // checked wire must be reproducible from what came out of it.
        let checked = encode_checked(&script, format, &expected)
            .map_err(|e| format!("{format:?}: encode_checked failed: {e}"))?;
        let cdec = decode(&checked)
            .map_err(|e| format!("{format:?}: decode of checked wire failed: {e}"))?;
        if cdec.target_crc.is_none() {
            return fail(format!("{format:?}: embedded CRC lost in decode"));
        }
        let rechecked = encode_checked(&cdec.script, format, &expected)
            .map_err(|e| format!("{format:?}: re-encode_checked failed: {e}"))?;
        if rechecked != checked {
            return fail(format!("{format:?}: checked wire not bit-exact"));
        }
    }
    Ok(())
}

/// Feeds `wire` to the streaming decoder in ragged chunks and asserts it
/// yields exactly the batch decoder's command sequence.
fn stream_matches_batch(wire: &[u8], batch: &DeltaScript, format: Format) -> CheckResult {
    // Deterministic ragged chunk sizes — small primes exercise every
    // partial-header and partial-command resume path.
    const CHUNKS: [usize; 6] = [1, 3, 7, 2, 13, 5];
    let mut dec = StreamDecoder::new();
    let mut commands: Vec<Command> = Vec::new();
    let mut pos = 0usize;
    let mut turn = 0usize;
    while pos < wire.len() {
        let n = CHUNKS[turn % CHUNKS.len()].min(wire.len() - pos);
        turn += 1;
        dec.push(&wire[pos..pos + n]);
        pos += n;
        loop {
            match dec.next_command() {
                Ok(Some(cmd)) => commands.push(cmd),
                Ok(None) => break,
                Err(e) => return fail(format!("{format:?}: stream decoder error mid-wire: {e}")),
            }
        }
    }
    if !dec.is_complete() {
        return fail(format!(
            "{format:?}: stream decoder incomplete after full wire"
        ));
    }
    let header = dec
        .finish()
        .map_err(|e| format!("{format:?}: stream finish rejected own wire: {e}"))?;
    if header.format != format
        || header.source_len != batch.source_len()
        || header.target_len != batch.target_len()
    {
        return fail(format!("{format:?}: stream header disagrees with batch"));
    }
    if commands != batch.commands() {
        return fail(format!(
            "{format:?}: stream decoded {} commands, batch {}, or contents differ",
            commands.len(),
            batch.commands().len()
        ));
    }
    Ok(())
}

/// Checks the decoder-robustness half of the codec oracle on one
/// arbitrary byte string.
///
/// Both decoders must return — never panic — and when the batch decoder
/// *accepts* the input, the result must behave like any other decoded
/// delta: re-encodable, and re-decodable to the same script.
pub fn check_decoder_robustness(bytes: &[u8]) -> CheckResult {
    let batch = catch_unwind(AssertUnwindSafe(|| decode(bytes)))
        .map_err(|_| "batch decoder panicked".to_string())?;

    let streamed = catch_unwind(AssertUnwindSafe(|| {
        let mut dec = StreamDecoder::new();
        dec.push(bytes);
        loop {
            match dec.next_command() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => return Err(e),
            }
        }
        dec.finish().map(|_header| ())
    }))
    .map_err(|_| "stream decoder panicked".to_string())?;

    match (&batch, &streamed) {
        (Ok(d), Err(e)) => {
            // The streaming decoder defers validation it cannot do
            // incrementally, but it must never be *stricter* than batch.
            return fail(format!(
                "stream decoder rejected ({e}) what batch accepted ({:?})",
                d.format
            ));
        }
        (Err(DecodeError::Truncated | DecodeError::Varint(_)), Ok(())) => {
            // Expected asymmetry: a truncated wire is `Ok(None)` (feed
            // more bytes) for the stream decoder unless finish() is
            // strict. finish() *is* called above, so this arm means
            // finish accepted a truncation — only legal when the header
            // never completed.
        }
        _ => {}
    }

    if let Ok(d) = batch {
        let rewire = encode(&d.script, d.format)
            .map_err(|e| format!("accepted hostile input re-encodes with error: {e}"))?;
        let again = decode(&rewire)
            .map_err(|e| format!("re-encoded accepted input no longer decodes: {e}"))?;
        if again.script != d.script {
            return fail("accepted hostile input is not decode-stable".to_string());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle 2: conversion equivalence
// ---------------------------------------------------------------------------

/// Checks the conversion-equivalence oracle on one valid case.
///
/// `salt` varies deterministic details (power-cut position, chunk size)
/// from case to case; pass the case seed.
pub fn check_convert_case(case: &FuzzCase, salt: u64) -> CheckResult {
    let expected = scratch_apply(case)?;

    let mut policies = vec![CyclePolicy::ConstantTime, CyclePolicy::LocallyMinimum];
    if case.script.copy_count() <= EXHAUSTIVE_MAX_COPIES {
        policies.push(CyclePolicy::Exhaustive {
            limit: EXHAUSTIVE_LIMIT,
        });
    }

    for policy in policies {
        let config = ConversionConfig::with_policy(policy);
        let outcome = match convert_to_in_place(&case.script, &case.reference, &config) {
            Ok(outcome) => outcome,
            // The exhaustive solver documents this refusal: an SCC larger
            // than its limit is not a violation, just out of its reach.
            Err(ipr_core::ConvertError::ComponentTooLarge(_))
                if matches!(policy, CyclePolicy::Exhaustive { .. }) =>
            {
                continue;
            }
            Err(e) => return fail(format!("{policy}: conversion failed: {e}")),
        };
        let script = &outcome.script;

        if let Err(v) = check_in_place_safe(script) {
            return fail(format!("{policy}: converted script unsafe (ipr-core): {v}"));
        }
        if let Some(v) = check::eq2_violation(script) {
            return fail(format!(
                "{policy}: converted script violates Eq. 2 per the independent checker: {v}"
            ));
        }

        // Serial engine.
        let mut buf = in_place_buf(case, script);
        apply_in_place(script, &mut buf).map_err(|e| format!("{policy}: serial apply: {e}"))?;
        if buf[..expected.len()] != expected[..] {
            return fail(format!("{policy}: serial in-place output differs"));
        }

        check_resumable(case, script, &expected, salt).map_err(|e| format!("{policy}: {e}"))?;
        check_spilled(case, &config, &expected).map_err(|e| format!("{policy}: {e}"))?;
    }
    Ok(())
}

/// Resumable engine: clean multi-reboot replay, then a power cut in the
/// middle of a staged chunk with the target region corrupted (a torn
/// write), recovered via the journal's redo record.
fn check_resumable(
    case: &FuzzCase,
    script: &DeltaScript,
    expected: &[u8],
    salt: u64,
) -> CheckResult {
    let chunk_size = 1 + (salt % 61) as usize;
    let reboot_budget = 1 + (salt % 97);

    // Clean reboots: suspend every `reboot_budget` bytes.
    let mut buf = in_place_buf(case, script);
    let mut journal = Journal::new();
    let mut spins = 0u32;
    loop {
        let progress = resume_in_place_observed(
            script,
            &mut buf,
            &mut journal,
            chunk_size,
            reboot_budget,
            &mut |_| {},
        )
        .map_err(|e| format!("resumable apply: {e}"))?;
        if progress == Progress::Complete {
            break;
        }
        spins += 1;
        if spins > 4_000_000 {
            return fail("resumable apply failed to make progress".to_string());
        }
    }
    if buf[..expected.len()] != expected[..] {
        return fail("resumable (clean reboots) output differs".to_string());
    }

    // Torn-write power cut. First run to completion recording the
    // journal at every durable point; pick one with a staged chunk.
    let mut staged: Vec<Journal> = Vec::new();
    let mut buf = in_place_buf(case, script);
    let mut journal = Journal::new();
    resume_in_place_observed(
        script,
        &mut buf,
        &mut journal,
        chunk_size,
        u64::MAX,
        &mut |j| {
            if j.has_pending_chunk() {
                staged.push(j.clone());
            }
        },
    )
    .map_err(|e| format!("resumable observe run: {e}"))?;
    if staged.is_empty() {
        return Ok(()); // empty script: nothing to cut
    }
    let crash = staged[(salt % staged.len() as u64) as usize].clone();

    // Rebuild the buffer exactly as it stood when that chunk was staged:
    // all payload bytes before it were applied, and budgets cut at chunk
    // boundaries, so replaying with that byte budget lands on the same
    // durable state.
    let commands = script.commands();
    let bytes_before: u64 = commands[..crash.command_index()]
        .iter()
        .map(ipr_delta::Command::len)
        .sum::<u64>()
        + crash.bytes_done_in_command();
    let mut buf = in_place_buf(case, script);
    let mut replay = Journal::new();
    if bytes_before > 0 {
        resume_in_place_observed(
            script,
            &mut buf,
            &mut replay,
            chunk_size,
            bytes_before,
            &mut |_| {},
        )
        .map_err(|e| format!("resumable rebuild run: {e}"))?;
    }

    // Power fails mid-write: the staged chunk's target region holds
    // arbitrary garbage (worse than any real torn write). Recovery must
    // overwrite the whole region from the redo record.
    let (to, data) = crash.pending_chunk().expect("picked a staged snapshot");
    let torn = 1 + (salt as usize % data.len());
    for (i, b) in buf[to as usize..to as usize + torn].iter_mut().enumerate() {
        *b = 0xA5u8.wrapping_add(i as u8);
    }

    let mut journal = crash.clone();
    let progress = resume_in_place_observed(
        script,
        &mut buf,
        &mut journal,
        chunk_size,
        u64::MAX,
        &mut |_| {},
    )
    .map_err(|e| format!("resumable recovery: {e}"))?;
    if progress != Progress::Complete {
        return fail("resumable recovery suspended on an unbounded budget".to_string());
    }
    if buf[..expected.len()] != expected[..] {
        return fail(format!(
            "power cut at command {} + {} bytes not recovered: output differs",
            crash.command_index(),
            crash.bytes_done_in_command()
        ));
    }
    Ok(())
}

/// Spilled conversion across a sweep of scratch budgets.
fn check_spilled(case: &FuzzCase, config: &ConversionConfig, expected: &[u8]) -> CheckResult {
    for budget in SPILL_BUDGETS {
        let spill = SpillConfig {
            conversion: *config,
            scratch_budget: budget,
        };
        let out = convert_with_spill(&case.script, &case.reference, &spill)
            .map_err(|e| format!("spill(budget={budget}): conversion failed: {e}"))?;
        if out.scratch_used > budget {
            return fail(format!(
                "spill(budget={budget}): stashed {} bytes over budget",
                out.scratch_used
            ));
        }
        if !ipr_core::spill::is_spill_safe(&out.script, &out.stashed) {
            return fail(format!("spill(budget={budget}): output not spill-safe"));
        }
        let mut buf = in_place_buf(case, &out.script);
        ipr_core::spill::apply_in_place_spilled(&out.script, &out.stashed, &mut buf, budget)
            .map_err(|e| format!("spill(budget={budget}): apply: {e}"))?;
        if buf[..expected.len()] != expected[..] {
            return fail(format!("spill(budget={budget}): output differs"));
        }
        if budget == 0 && !out.stashed.is_empty() {
            return fail("spill(budget=0): stashed copies with zero scratch".to_string());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle 3: CRWI invariant checker
// ---------------------------------------------------------------------------

/// Number of random permutations tried per case.
const CRWI_TRIALS: usize = 8;

/// Checks the CRWI oracle on one valid case.
///
/// On random command orders, the independent Equation 2 checker must
/// agree with `ipr_core`'s verifier, and the allocation-free
/// [`check_in_place_safe_with`] must report exactly what
/// [`check_in_place_safe`] reports.
/// [`Engine::apply_in_place`](ipr_pipeline::Engine::apply_in_place) must
/// reject exactly the unsafe orders with the verifier's violation,
/// leaving the buffer byte-identical, and must rebuild the scratch-space
/// output on the safe ones — Eq. 2 is not just an invariant, it is
/// *the* condition under which in-place application is correct.
/// [`Device::apply_update`](ipr_device::Device::apply_update) must do
/// the same at run time: rebuild the output on the safe orders, and on
/// the rest fault at the independent checker's command, on the first
/// clobbered byte of its read.
pub fn check_crwi_case(case: &FuzzCase, salt: u64) -> CheckResult {
    let expected = scratch_apply(case)?;
    let mut rng = crate::gen::rng_for(salt ^ 0x43525749); // "CRWI"
    let n = case.script.len();

    let mut orders: Vec<DeltaScript> = vec![case.script.clone()];
    for _ in 0..CRWI_TRIALS {
        let perm = crate::gen::permutation(&mut rng, n);
        orders.push(case.script.permuted(&perm));
    }

    let mut engine = ipr_pipeline::Engine::new();
    let mut writes = Vec::new();
    for (trial, script) in orders.iter().enumerate() {
        let ours = check::eq2_violation(script);
        let theirs = check_in_place_safe(script);
        match (&ours, &theirs) {
            (None, Err(v)) => {
                return fail(format!(
                    "trial {trial}: independent checker says safe, ipr-core says {v}"
                ));
            }
            (Some(v), Ok(())) => {
                return fail(format!(
                    "trial {trial}: ipr-core says safe, independent checker found {v}"
                ));
            }
            _ => {}
        }
        let scratch = check_in_place_safe_with(script, &mut writes);
        if scratch != theirs {
            return fail(format!(
                "trial {trial}: allocation-free check gave {scratch:?}, \
                 check_in_place_safe gave {theirs:?}"
            ));
        }
        // The engine's checked applier rejects exactly the unsafe
        // orders, before writing a byte.
        let mut buf = in_place_buf(case, script);
        let before = buf.clone();
        match (engine.apply_in_place(script, &mut buf), theirs) {
            (Ok(()), Ok(())) => {
                if buf[..expected.len()] != expected[..] {
                    return fail(format!(
                        "trial {trial}: order passed Eq. 2 but in-place output differs"
                    ));
                }
            }
            (Err(ipr_pipeline::EngineError::Unsafe(got)), Err(want)) if got == want => {
                if buf != before {
                    return fail(format!(
                        "trial {trial}: engine rejected an unsafe order but wrote to the buffer"
                    ));
                }
            }
            (got, want) => {
                return fail(format!(
                    "trial {trial}: engine apply gave {got:?} where the verifier gave {want:?}"
                ));
            }
        }
        // The device's run-time detector faults on exactly the unsafe
        // orders, at the first clobbered byte of the first bad read.
        let mut device = ipr_device::Device::new(required_capacity(script) as usize);
        device
            .flash(&case.reference)
            .map_err(|e| format!("trial {trial}: device flash: {e}"))?;
        match (device.apply_update(script), &ours) {
            (Ok(_), None) => {
                if device.image() != &expected[..] {
                    return fail(format!(
                        "trial {trial}: device passed a safe order but its image differs"
                    ));
                }
            }
            (Err(got), Some(v)) => {
                let want = ipr_device::DeviceError::WriteBeforeRead {
                    command: v.command,
                    offset: v.read_start.max(v.written.0),
                };
                if got != want {
                    return fail(format!(
                        "trial {trial}: device gave {got:?} where the checker found {v}"
                    ));
                }
            }
            (got, want) => {
                return fail(format!(
                    "trial {trial}: device gave {got:?} where the checker gave {want:?}"
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle 4: diff correctness, determinism and bounded work
// ---------------------------------------------------------------------------

/// Checks the diff oracle on one valid case.
///
/// The generated reference/version pair is diffed by each differ family
/// and by the greedy differ at the checkpoint interval of
/// [`GreedyDiffer::sampled`]. Three properties must hold for each:
///
/// 1. **correctness** — the emitted script applies back to the version
///    file (`apply(diff(r, v), r) == v`);
/// 2. **determinism** — running the same differ again, on the arena the
///    first run warmed, emits an identical command sequence;
/// 3. **bounded work** — under the oracle's own
///    [`ipr_trace::StatsRecorder`], the `diff.probes` counter is at most
///    the differ's per-position candidate limit k times the version
///    length, and `diff.extend_bytes` at most (k + 1) times it (k is
///    `max_probes` for greedy, 1 for one-pass, 2 for correcting).
///
/// The `diff` salt is unused: every case runs every differ.
pub fn check_diff_case(case: &FuzzCase, _salt: u64) -> CheckResult {
    let version = scratch_apply(case)?;
    let greedy = GreedyDiffer::new(4).with_max_probes(GREEDY_MAX_PROBES);
    let sampled = greedy
        .clone()
        .with_checkpoint_interval(GreedyDiffer::sampled().checkpoint_interval());
    let (one_pass, correcting) = (OnePassDiffer::new(4, 10), CorrectingDiffer::new(4, 10));

    check_diff_engine(&greedy, GREEDY_MAX_PROBES, case, &version)?;
    check_diff_engine(&sampled, GREEDY_MAX_PROBES, case, &version)
        .map_err(|e| format!("sampled {e}"))?;
    check_diff_engine(&one_pass, 1, case, &version)?;
    check_diff_engine(&correcting, 2, case, &version)
}

/// The greedy differ's candidate limit in the diff oracle (its default).
const GREEDY_MAX_PROBES: usize = 64;

/// Runs the three diff-oracle properties for one differ, which verifies
/// at most `max_probes` candidates per version position.
fn check_diff_engine(
    differ: &dyn Differ,
    max_probes: usize,
    case: &FuzzCase,
    version: &[u8],
) -> CheckResult {
    let name = differ.name();
    let stats = std::sync::Arc::new(ipr_trace::StatsRecorder::new());
    let script = {
        let _guard = ipr_trace::install(stats.clone());
        differ.diff(&case.reference, version)
    };
    let report = stats.report();

    let applied = ipr_delta::apply(&script, &case.reference)
        .map_err(|e| format!("{name}: apply failed: {e}"))?;
    if applied != version {
        return fail(format!("{name}: applied output differs from version"));
    }

    let again = differ.diff(&case.reference, version);
    if again.commands() != script.commands() {
        return fail(format!("{name}: repeated run emitted different commands"));
    }

    let v_len = version.len() as u64;
    let probes = report.counter("diff.probes").unwrap_or(0);
    let bound = max_probes as u64 * v_len;
    if probes > bound {
        return fail(format!(
            "{name}: {probes} probes exceed {max_probes} per version byte ({bound})"
        ));
    }
    // Each probed candidate extends forward at most as far as the match
    // the scan then takes and steps over, so forward extension sums to
    // at most k steps per version byte; backward extension reclaims a
    // literal byte into a copy at most once, one more |V|.
    let extend_bytes = report.counter("diff.extend_bytes").unwrap_or(0);
    let bound = (max_probes as u64 + 1) * v_len;
    if extend_bytes > bound {
        return fail(format!(
            "{name}: {extend_bytes} extended bytes exceed {} per version byte ({bound})",
            max_probes + 1
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle 5: engine session layer vs the legacy free-function pipeline
// ---------------------------------------------------------------------------

/// Wire formats the engine oracle sweeps (each must carry out-of-order
/// scripts, since conversion emits them).
const ENGINE_FORMATS: [Format; 3] = [Format::InPlace, Format::Improved, Format::PaperInPlace];

/// Checks the engine-equivalence oracle on one valid case.
///
/// The salt picks a cycle policy and wire format. An
/// [`Engine`](ipr_pipeline::Engine) configured with them must produce — twice in a row, so the
/// second run exercises recycled arenas and the kept reference index —
/// exactly the commands, wire bytes and applied buffer of the legacy
/// free-function pipeline ([`GreedyDiffer::sampled`]'s `diff` →
/// [`convert_to_in_place`] → [`encode_checked`] → [`apply_in_place`]),
/// and its conversion report must keep Lemma 1: at most one CRWI edge
/// per version byte. A third round through the same engine diffs the
/// version against a salt-chosen edit of the reference (one byte
/// flipped, truncated or extended), which must rebuild the index: its
/// commands, wire bytes and applied buffer must equal a fresh engine's.
pub fn check_engine_case(case: &FuzzCase, salt: u64) -> CheckResult {
    let version = scratch_apply(case)?;
    let policy = if salt.is_multiple_of(2) {
        CyclePolicy::ConstantTime
    } else {
        CyclePolicy::LocallyMinimum
    };
    let format = ENGINE_FORMATS[(salt / 2 % ENGINE_FORMATS.len() as u64) as usize];

    let config = ipr_pipeline::EngineConfig {
        policy,
        format,
        ..ipr_pipeline::EngineConfig::default()
    };
    let tag = format!("engine(policy={policy},format={format:?})");

    // The legacy path, from the same primitives the engine wraps.
    let script = GreedyDiffer::sampled().diff(&case.reference, &version);
    let conversion = ConversionConfig {
        policy,
        cost_format: format,
    };
    let legacy = convert_to_in_place(&script, &case.reference, &conversion)
        .map_err(|e| format!("{tag}: legacy conversion failed: {e}"))?;
    let legacy_wire = encode_checked(&legacy.script, format, &version)
        .map_err(|e| format!("{tag}: legacy encode failed: {e}"))?;

    let mut engine = ipr_pipeline::Engine::with_config(config);
    for round in 0..2 {
        let delta = engine
            .update(&case.reference, &version)
            .map_err(|e| format!("{tag} round {round}: update failed: {e}"))?;
        if delta.script.commands() != legacy.script.commands() {
            return fail(format!(
                "{tag} round {round}: engine commands differ from the legacy pipeline"
            ));
        }
        if delta.payload != legacy_wire {
            return fail(format!(
                "{tag} round {round}: engine wire bytes differ ({} vs {} bytes)",
                delta.payload.len(),
                legacy_wire.len()
            ));
        }
        // The conversion measurements must agree too.
        if delta.report != legacy.report {
            return fail(format!(
                "{tag} round {round}: conversion reports differ: {:?} vs {:?}",
                delta.report, legacy.report
            ));
        }
        // Lemma 1: the CRWI digraph has at most one edge per version byte.
        if delta.report.edges > version.len() {
            return fail(format!(
                "{tag} round {round}: {} CRWI edges exceed the {}-byte version (Lemma 1)",
                delta.report.edges,
                version.len()
            ));
        }
        let mut buf = in_place_buf(case, &delta.script);
        engine
            .apply_in_place(&delta.script, &mut buf)
            .map_err(|e| format!("{tag} round {round}: engine apply failed: {e}"))?;
        if buf[..version.len()] != version[..] {
            return fail(format!(
                "{tag} round {round}: engine-applied buffer differs from the version file"
            ));
        }
        engine.recycle(delta);
    }

    // Round 2: a reference one edit away from the one the engine
    // indexed, which any check weaker than an exact compare could take
    // for it.
    let mut edited = case.reference.clone();
    let at = (salt >> 8) as usize;
    let edit = match (salt / 6 % 3, edited.len()) {
        (0, n) if n > 0 => {
            edited[at % n] ^= 0x80;
            "one byte flipped"
        }
        (1, n) if n > 0 => {
            edited.truncate(at % n);
            "truncated"
        }
        _ => {
            edited.push(salt as u8);
            "extended"
        }
    };
    let tag = format!("{tag} round 2 ({edit} reference)");
    let warm = engine
        .update(&edited, &version)
        .map_err(|e| format!("{tag}: update failed: {e}"))?;
    let cold = ipr_pipeline::Engine::with_config(config)
        .update(&edited, &version)
        .map_err(|e| format!("{tag}: fresh update failed: {e}"))?;
    if warm.script.commands() != cold.script.commands() {
        return fail(format!(
            "{tag}: engine commands differ from a fresh engine's"
        ));
    }
    if warm.payload != cold.payload {
        return fail(format!(
            "{tag}: engine wire bytes differ from a fresh engine's ({} vs {} bytes)",
            warm.payload.len(),
            cold.payload.len()
        ));
    }
    let mut buf = edited;
    buf.resize(required_capacity(&warm.script) as usize, 0);
    engine
        .apply_in_place(&warm.script, &mut buf)
        .map_err(|e| format!("{tag}: engine apply failed: {e}"))?;
    if buf[..version.len()] != version[..] {
        return fail(format!(
            "{tag}: engine-applied buffer differs from the version file"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle 6: remote signature-based streaming diff
// ---------------------------------------------------------------------------

/// Chunkings swept by the remote oracle. Fixed sizes run from
/// single-byte blocks (every window is a candidate) past most generated
/// files; the CDC entries include degenerate bounds (`min = 1`) the
/// stability guarantee does not cover — reconstruction must hold anyway.
const REMOTE_CHUNKINGS: [Chunking; 8] = [
    Chunking::Fixed(1),
    Chunking::Fixed(3),
    Chunking::Fixed(16),
    Chunking::Fixed(64),
    Chunking::Fixed(512),
    Chunking::Cdc(CdcParams {
        min: 1,
        avg: 8,
        max: 32,
    }),
    Chunking::Cdc(CdcParams {
        min: 16,
        avg: 64,
        max: 256,
    }),
    Chunking::Cdc(CdcParams {
        min: 64,
        avg: 256,
        max: 1024,
    }),
];

/// Read granularities the remote oracle streams the version at.
const REMOTE_TRICKLES: [usize; 4] = [1, 7, 64, 4096];

/// A reader that serves at most `step` bytes per `read` call, however
/// large the caller's buffer — the hostile end of what an arbitrary
/// `Read` implementation is allowed to do.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    step: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Checks the remote-diff oracle on one valid case.
///
/// The case's reference is signed with a salt-chosen chunking and the
/// (scratch-applied) version streamed against the signature at a
/// salt-chosen read granularity. Five properties must hold:
///
/// 1. **reconstruction** — the generated script applies back to the
///    version byte-identically, like any local diff;
/// 2. **wire round-trip** — `decode(encode(sig)) == sig`, and the
///    decoded signature drives the generator to the same commands;
/// 3. **streaming signature** — [`Signature::build_streaming`] over a
///    trickle reader equals [`Signature::build`] over the slice;
/// 4. **read-granularity independence** — the generator emits identical
///    commands whether the version arrives one byte or 4 KiB at a time;
/// 5. **consistency envelope** — matched + literal bytes in the script
///    cover the version exactly (no command is lost or duplicated),
///    enforced implicitly by 1 plus the codec's target-length check;
/// 6. **batched == scalar** — the batched weak-scan generator
///    ([`generate_delta`]) and its byte-at-a-time reference
///    ([`generate_delta_scalar`]) emit identical command streams.
pub fn check_remote_case(case: &FuzzCase, salt: u64) -> CheckResult {
    let version = scratch_apply(case)?;
    let chunking = REMOTE_CHUNKINGS[(salt % REMOTE_CHUNKINGS.len() as u64) as usize];
    let trickle = REMOTE_TRICKLES
        [(salt / REMOTE_CHUNKINGS.len() as u64 % REMOTE_TRICKLES.len() as u64) as usize];
    let tag = format!("remote(chunking={chunking},trickle={trickle})");

    let signature = Signature::build(&case.reference, chunking)
        .map_err(|e| format!("{tag}: signature build failed: {e}"))?;

    // Streaming build over a hostile reader must agree byte-for-byte.
    let streamed = Signature::build_streaming(
        Trickle {
            data: &case.reference,
            pos: 0,
            step: trickle,
        },
        chunking.resolve(case.reference.len() as u64),
    )
    .map_err(|e| format!("{tag}: streaming signature build failed: {e}"))?;
    if streamed != signature {
        return fail(format!(
            "{tag}: streaming signature differs from the in-memory build"
        ));
    }

    // Wire round-trip.
    let decoded = Signature::decode(&signature.encode())
        .map_err(|e| format!("{tag}: signature wire round-trip failed: {e}"))?;
    if decoded != signature {
        return fail(format!(
            "{tag}: decoded signature differs from the original"
        ));
    }

    // Generate from the decoded signature over a trickle reader …
    let script = generate_delta(
        &decoded,
        Trickle {
            data: &version,
            pos: 0,
            step: trickle,
        },
    )
    .map_err(|e| format!("{tag}: generate_delta failed: {e}"))?;

    // … and it must reconstruct the version exactly.
    let rebuilt = ipr_delta::apply(&script, &case.reference)
        .map_err(|e| format!("{tag}: generated script failed to apply: {e}"))?;
    if rebuilt != version {
        return fail(format!(
            "{tag}: reconstruction differs from the version file \
             ({} vs {} bytes)",
            rebuilt.len(),
            version.len()
        ));
    }

    // Read granularity must not leak into the output.
    let whole = generate_delta_bytes(&signature, &version);
    if whole.commands() != script.commands() {
        return fail(format!(
            "{tag}: trickle-fed generator emitted different commands than \
             the whole-slice generator"
        ));
    }

    // The batched weak-scan kernel must be a pure speedup: the
    // byte-at-a-time scalar generator emits the identical command
    // stream on every input, batch-boundary straddles included.
    let scalar = generate_delta_scalar(&signature, &version[..])
        .map_err(|e| format!("{tag}: generate_delta_scalar failed: {e}"))?;
    if scalar.commands() != script.commands() {
        return fail(format!(
            "{tag}: batched generator emitted different commands than the \
             byte-at-a-time scalar generator"
        ));
    }
    Ok(())
}

/// Checks the object-store oracle on one valid case.
///
/// The case spawns a small drifting version history (the reference, the
/// scratch-applied version, then salt-driven mutations of it) written
/// into a throwaway on-disk store with a salt-chosen depth cap. The
/// in-memory history is ground truth; the store must agree with it at
/// every step:
///
/// 1. **round-trip** — after every `put`, `get` of *every* version so
///    far is byte-identical to the in-memory copy (reads compose the
///    stored delta chain and apply it out of place);
/// 2. **dedup** — re-putting an existing version is a no-op that
///    commits nothing;
/// 3. **fsck-clean** — after every mutation batch (all puts, then
///    compaction) a full `fsck` sweep reports zero findings;
/// 4. **compaction** — `compact` caps every chain at the depth bound
///    and changes no reconstructed byte;
/// 5. **persistence** — a fresh `open` of the directory reconstructs
///    the same bytes (nothing lived only in session state).
pub fn check_store_case(case: &FuzzCase, salt: u64) -> CheckResult {
    use rand::Rng;
    let version = scratch_apply(case)?;
    let depth_cap = 1 + (salt % 4) as u32;
    let tag = format!("store(depth_cap={depth_cap})");

    // Ground truth: reference, version, and two salt-driven drifts.
    let mut rng = crate::gen::rng_for(salt ^ 0x73746f7265); // "store"
    let mut history = vec![case.reference.clone(), version];
    for _ in 0..2 {
        let mut next = history.last().unwrap().clone();
        for _ in 0..rng.random_range(1u32..8) {
            if next.is_empty() || rng.random_range(0u32..4) == 0 {
                let extra = rng.random_range(1usize..64);
                next.extend((0..extra).map(|_| rng.random_range(0u32..256) as u8));
            } else {
                let at = rng.random_range(0usize..next.len());
                next[at] ^= 1 + rng.random_range(0u32..255) as u8;
            }
        }
        history.push(next);
    }
    history.dedup_by(|a, b| a == b); // identical neighbours would dedup in the store

    let dir = ipr_store::scratch_dir(&std::env::temp_dir(), "fuzz");
    let result = (|| -> CheckResult {
        let mut store = ipr_store::Store::init(&dir, depth_cap)
            .map_err(|e| format!("{tag}: init failed: {e}"))?;
        let mut oids = Vec::new();
        for (i, bytes) in history.iter().enumerate() {
            let out = store
                .put(bytes, None)
                .map_err(|e| format!("{tag}: put #{i} failed: {e}"))?;
            oids.push(out.oid);
            for (j, (oid, want)) in oids.iter().zip(&history).enumerate() {
                let got = store
                    .get(*oid)
                    .map_err(|e| format!("{tag}: get #{j} after put #{i} failed: {e}"))?;
                if &got != want {
                    return fail(format!(
                        "{tag}: version #{j} read back {} bytes, expected {}",
                        got.len(),
                        want.len()
                    ));
                }
            }
            let gen_before = store.manifest().gen;
            let replay = store
                .put(bytes, None)
                .map_err(|e| format!("{tag}: duplicate put #{i} failed: {e}"))?;
            if replay.created || store.manifest().gen != gen_before {
                return fail(format!("{tag}: duplicate put #{i} was not a no-op"));
            }
        }
        let report = ipr_store::fsck(&dir, false)
            .map_err(|e| format!("{tag}: fsck after puts failed: {e}"))?;
        if !report.is_clean() {
            return fail(format!(
                "{tag}: fsck after puts found {:?}",
                report.findings
            ));
        }
        let compact = store
            .compact()
            .map_err(|e| format!("{tag}: compact failed: {e}"))?;
        if compact.max_depth_after > depth_cap {
            return fail(format!(
                "{tag}: compaction left depth {} over the cap",
                compact.max_depth_after
            ));
        }
        drop(store);
        // A fresh session over the same directory must agree.
        let mut reopened =
            ipr_store::Store::open(&dir).map_err(|e| format!("{tag}: reopen failed: {e}"))?;
        for (j, (oid, want)) in oids.iter().zip(&history).enumerate() {
            let got = reopened
                .get(*oid)
                .map_err(|e| format!("{tag}: get #{j} after compaction failed: {e}"))?;
            if &got != want {
                return fail(format!(
                    "{tag}: version #{j} changed across compaction + reopen"
                ));
            }
        }
        let report = ipr_store::fsck(&dir, false)
            .map_err(|e| format!("{tag}: fsck after compaction failed: {e}"))?;
        if !report.is_clean() {
            return fail(format!(
                "{tag}: fsck after compaction found {:?}",
                report.findings
            ));
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Wire formats swept by the streaming-install oracle (in-place capable).
const STREAMING_FORMATS: [Format; 3] = [Format::InPlace, Format::Improved, Format::PaperInPlace];
/// Serving chunk sizes swept by the streaming-install oracle.
const STREAMING_CHUNKS: [usize; 5] = [1, 7, 64, 250, 1024];
/// Channel MTUs swept by the streaming-install oracle.
const STREAMING_MTUS: [usize; 3] = [16, 576, 1400];
/// Frame loss rates swept by the streaming-install oracle.
const STREAMING_LOSS: [f64; 4] = [0.0, 0.01, 0.05, 0.3];

/// Checks the resumable streaming-install oracle on one valid case.
///
/// Offline scratch apply of the engine-converted delta is ground truth.
/// Over a salt-chosen (format, chunk size, MTU, loss rate) point:
///
/// 1. **uninterrupted** — a streaming install over the lossy channel
///    reconstructs the offline bytes exactly, with its embedded CRC
///    verified, and the decoder never buffers more than one maximal
///    command frame plus one chunk: `buffered_high_water ≤ largest add
///    literal on the wire + 31 + chunk` (31 = tag + three ten-byte
///    varints);
/// 2. **kill + resume** — the install killed at a salt-chosen chunk
///    boundary and resumed from its checkpoint (round-tripped through
///    [`ipr_device::InstallCheckpoint::encode`]) converges to the same
///    bytes;
/// 3. **idempotent replay** — resuming the *same* checkpoint against
///    two copies of the same mid-update flash yields identical images
///    (the checkpoint contract: replaying a checkpoint is harmless).
pub fn check_streaming_case(case: &FuzzCase, salt: u64) -> CheckResult {
    use ipr_device::{stream_install, Channel, Device, InstallCheckpoint, StreamProgress};

    let format = STREAMING_FORMATS[(salt % STREAMING_FORMATS.len() as u64) as usize];
    let chunk = STREAMING_CHUNKS[(salt / 3 % STREAMING_CHUNKS.len() as u64) as usize];
    let mtu = STREAMING_MTUS[(salt / 15 % STREAMING_MTUS.len() as u64) as usize];
    let loss = STREAMING_LOSS[(salt / 45 % STREAMING_LOSS.len() as u64) as usize];
    let tag = format!("streaming(format={format:?},chunk={chunk},mtu={mtu},loss={loss})");
    let channel = ipr_device::LossyChannel::new(Channel::dialup(), loss, salt);

    // Ground truth: the target the delta declares, applied offline.
    let version = scratch_apply(case)?;
    let delta = ipr_pipeline::Engine::with_config(ipr_pipeline::EngineConfig {
        format,
        ..ipr_pipeline::EngineConfig::default()
    })
    .update(&case.reference, &version)
    .map_err(|e| format!("{tag}: update failed: {e}"))?;
    let stream = ipr_pipeline::DeltaStream::from_wire(delta.payload, chunk);
    let capacity = case.reference.len().max(version.len());
    let wire = decode(stream.payload())
        .map_err(|e| format!("{tag}: streamed wire does not decode: {e}"))?;
    let max_literal = wire
        .script
        .commands()
        .iter()
        .map(|c| match c {
            Command::Add(a) => a.len(),
            Command::Copy(_) => 0,
        })
        .max()
        .unwrap_or(0);
    let buffer_bound = max_literal + 31 + chunk as u64;

    let fresh_device = || -> Result<Device, String> {
        let mut device = Device::new(capacity);
        device
            .flash(&case.reference)
            .map_err(|e| format!("{tag}: flash failed: {e}"))?;
        Ok(device)
    };
    let check_image = |device: &Device, leg: &str| -> CheckResult {
        if device.image() != version {
            return fail(format!(
                "{tag}: {leg} image differs from offline apply ({} vs {} bytes)",
                device.image().len(),
                version.len()
            ));
        }
        Ok(())
    };

    // Leg 1: uninterrupted streaming install.
    let mut device = fresh_device()?;
    match stream_install(&mut device, &stream, channel, mtu, None, None)
        .map_err(|e| format!("{tag}: uninterrupted install failed: {e}"))?
    {
        StreamProgress::Complete(report) => {
            if !report.crc_verified {
                return fail(format!("{tag}: embedded CRC was not verified"));
            }
            if report.received_bytes != stream.wire_len() {
                return fail(format!(
                    "{tag}: received {} wire bytes, stream has {}",
                    report.received_bytes,
                    stream.wire_len()
                ));
            }
            if report.buffered_high_water > buffer_bound {
                return fail(format!(
                    "{tag}: decoder buffered {} bytes, over the {buffer_bound}-byte bound \
                     (largest literal {max_literal} + 31 + chunk)",
                    report.buffered_high_water
                ));
            }
        }
        StreamProgress::Killed { .. } => {
            return fail(format!("{tag}: install killed without a kill request"));
        }
    }
    check_image(&device, "uninterrupted")?;

    // Leg 2: kill at a salt-chosen chunk boundary, then resume. The cut
    // may land before the header (tiny chunks): resuming is then a
    // restart from byte 0 — still expected to converge.
    let total_chunks = stream.wire_len().div_ceil(chunk as u64).max(1);
    let kill_at = 1 + salt / 180 % total_chunks;
    let mut device = fresh_device()?;
    let first = stream_install(&mut device, &stream, channel, mtu, None, Some(kill_at))
        .map_err(|e| format!("{tag}: killed install (kill_at={kill_at}) failed: {e}"))?;
    match first {
        StreamProgress::Complete(_) => {
            // The stream finished before the kill point (short streams).
            check_image(&device, "kill leg (completed early)")?;
        }
        StreamProgress::Killed { checkpoint, .. } => {
            let checkpoint = match checkpoint {
                Some(cp) => {
                    let encoded = cp.encode();
                    let decoded = InstallCheckpoint::decode(&encoded)
                        .map_err(|e| format!("{tag}: checkpoint wire round-trip failed: {e}"))?;
                    if decoded != cp {
                        return fail(format!("{tag}: checkpoint changed across round-trip"));
                    }
                    Some(decoded)
                }
                None => None, // killed before the header: restart fresh
            };
            // Leg 3: the same checkpoint replayed on two copies of the
            // same mid-update flash must converge identically.
            let mut replica = device.clone();
            for (leg, dev) in [("resume", &mut device), ("replay", &mut replica)] {
                let done = stream_install(dev, &stream, channel, mtu, checkpoint.as_ref(), None)
                    .map_err(|e| format!("{tag}: {leg} (kill_at={kill_at}) failed: {e}"))?;
                match done {
                    StreamProgress::Complete(report) => {
                        if checkpoint.is_some() && report.resumes != 1 {
                            return fail(format!(
                                "{tag}: {leg} reported {} resumes, expected 1",
                                report.resumes
                            ));
                        }
                    }
                    StreamProgress::Killed { .. } => {
                        return fail(format!("{tag}: {leg} killed without a kill request"));
                    }
                }
                check_image(dev, leg)?;
            }
            if device.image() != replica.image() {
                return fail(format!("{tag}: checkpoint replay diverged between devices"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{case, hostile_bytes, rng_for};

    #[test]
    fn codec_oracle_clean_on_seeds() {
        for seed in 0..40u64 {
            let c = case(&mut rng_for(seed));
            check_codec_case(&c).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn robustness_oracle_clean_on_seeds() {
        for seed in 0..80u64 {
            let bytes = hostile_bytes(&mut rng_for(seed));
            check_decoder_robustness(&bytes).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn convert_oracle_clean_on_seeds() {
        for seed in 0..25u64 {
            let c = case(&mut rng_for(seed));
            check_convert_case(&c, seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn crwi_oracle_clean_on_seeds() {
        for seed in 0..25u64 {
            let c = case(&mut rng_for(seed));
            check_crwi_case(&c, seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn diff_oracle_clean_on_seeds() {
        for seed in 0..25u64 {
            let c = case(&mut rng_for(seed));
            check_diff_case(&c, seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn engine_oracle_clean_on_seeds() {
        // 24 consecutive seeds cover every (policy, format) combination
        // the salt sweep can pick.
        for seed in 0..24u64 {
            let c = case(&mut rng_for(seed));
            check_engine_case(&c, seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn remote_oracle_clean_on_seeds() {
        // 32 consecutive seeds cover every (chunking, trickle) pair the
        // salt sweep can pick.
        for seed in 0..32u64 {
            let c = case(&mut rng_for(seed));
            check_remote_case(&c, seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn store_oracle_clean_on_seeds() {
        // 8 consecutive seeds cover every depth cap (1..=4) the salt
        // sweep can pick, twice; each case does real disk I/O.
        for seed in 0..8u64 {
            let c = case(&mut rng_for(seed));
            check_store_case(&c, seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn remote_oracle_catches_a_corrupted_signature() {
        // Tampering with one strong hash must surface as a violation
        // (the generator matches a block whose content changed).
        let mut hits = 0;
        for seed in 0..20u64 {
            let c = case(&mut rng_for(seed));
            let Ok(version) = ipr_delta::apply(&c.script, &c.reference) else {
                continue;
            };
            let chunking = Chunking::Fixed(16);
            let signature = Signature::build(&c.reference, chunking).unwrap();
            if signature.blocks().is_empty() || version.is_empty() {
                continue;
            }
            // Rebuild a signature whose first block lies about its
            // content: claim the weak/strong of the version's first
            // 16 bytes while the reference holds something else.
            let window = &version[..version.len().min(16)];
            if window.len() < 16 || c.reference.len() < 16 || c.reference[..16] == *window {
                continue;
            }
            let mut forged = c.reference.clone();
            forged[..16].copy_from_slice(window);
            let lying = Signature::build(&forged, chunking).unwrap();
            let script = generate_delta_bytes(&lying, &version);
            let rebuilt = ipr_delta::apply(&script, &c.reference).unwrap();
            if rebuilt != version {
                hits += 1;
            }
        }
        assert!(hits > 0, "no forged signature produced a detectable miss");
    }

    #[test]
    fn convert_oracle_catches_a_wrong_converter() {
        // A "converter" that forgets to reorder: the original shuffled
        // script usually violates Eq. 2 and the oracle must object.
        let mut hits = 0;
        for seed in 0..50u64 {
            let c = case(&mut rng_for(seed));
            if check_in_place_safe(&c.script).is_err() {
                hits += 1;
                assert!(
                    check::eq2_violation(&c.script).is_some(),
                    "seed {seed}: independent checker missed a violation"
                );
            }
        }
        assert!(hits > 5, "generator produced too few conflicting scripts");
    }
}
