//! `remote_sync`: devices on the fielded image sync to a release through
//! remote differencing, so the server never holds the device's file.
//!
//! Why this workload: it bypasses `diff` entirely, so index work is
//! predicted not to move it; it runs `convert` on the device; and CRC-32
//! (the device's final check and the checked encode) is a large share of
//! both sides. It also shows the unbounded growth of the engines' script
//! pools: `remote_diff` never draws from the pool and decoded scripts are
//! fresh allocations, yet both are handed back as the Engine docs direct.

use crate::alloc;
use crate::ota::{lemma1, Fleet, RELEASES};
use crate::run::{Run, PREPARE, RECONSTRUCT};
use crate::stats::{self, MIB};
use crate::trace::timed;
use ipr_core::{apply_in_place, ConversionReport};
use ipr_delta::checksum::crc32;
use ipr_delta::codec;
use ipr_delta::remote::Signature;
use ipr_pipeline::{Engine, EngineConfig, InPlaceDelta};
use std::time::Duration;

/// Syncs between fresh engines: the pools grow without bound within a
/// session, so a fixed session length keeps `peak_heap_mib` a property
/// of the program rather than of how many syncs fit in the time.
const SESSION_SYNCS: usize = 2 * RELEASES;

/// One server and one device, each with its own engine.
struct Session {
    server: Engine,
    device: Engine,
    /// The device's storage: its image, then the rebuilt release.
    storage: Vec<u8>,
}

/// What one sync measured.
struct Synced {
    prepare: Duration,
    reconstruct: Duration,
    signature_bytes: u64,
    payload_bytes: u64,
}

/// Program set-up: both engines plus one warm-up sync.
fn set_up(fleet: &Fleet) -> Result<Session, String> {
    let mut session = Session {
        server: Engine::with_config(EngineConfig::default()),
        device: Engine::with_config(EngineConfig::default()),
        storage: Vec::with_capacity(fleet.capacity()),
    };
    let mut scratch = Run::new(0.0, false);
    sync(
        &mut session,
        &mut scratch,
        &fleet.fielded,
        &fleet.releases[0],
        0,
    )?;
    match scratch.failures().first() {
        Some(e) => Err(format!("warm-up sync: {e}")),
        None => Ok(session),
    }
}

/// Runs the workload until `run` is done; a pass is one session: fresh
/// engines, then every release synced twice.
pub fn run(seed: u64, run: &mut Run) -> Result<(), String> {
    let fleet = Fleet::generate(seed);
    if run.traced {
        for traced in [false, true] {
            run.require(PREPARE, traced, 20);
            run.require(RECONSTRUCT, traced, 20);
        }
    } else {
        run.require(PREPARE, false, 20);
        run.require(RECONSTRUCT, false, 100);
    }
    run.begin();
    let mut growth = Vec::new();
    while !run.done() {
        let (built, took) = timed(|| set_up(&fleet));
        let mut session = built?;
        run.setup(took);
        let start = alloc::live();
        for i in 0..SESSION_SYNCS {
            let r = i % RELEASES;
            let version = &fleet.releases[r];
            // Flip the parity every round over the releases, so each
            // release is traced as often as not.
            let traced = run.traced && (i + i / RELEASES) % 2 == 1;
            let op = run.op_id();
            run.tracer.set_enabled(traced);
            let synced = sync(&mut session, run, &fleet.fielded, version, op);
            run.tracer.set_enabled(false);
            match synced {
                Ok(s) => {
                    let len = version.len() as u64;
                    run.record(PREPARE, traced, s.prepare, len);
                    run.record(RECONSTRUCT, traced, s.reconstruct, len);
                    if i < RELEASES {
                        run.moved(s.signature_bytes + s.payload_bytes, len);
                    }
                }
                Err(e) => run.attempt_failed(format!("sync to release {r}: {e}")),
            }
        }
        growth.push((alloc::live() as f64 - start as f64) / MIB / SESSION_SYNCS as f64);
        drop(session);
        run.pass_done();
    }
    run.finish();
    run.notes.push(format!(
        "remote_sync: {} sessions of {SESSION_SYNCS} syncs; heap growth per sync within a \
         session: {} MiB (median over sessions)",
        run.passes(),
        stats::median(&growth).map_or("n/a".into(), |g| format!("{g:.3}")),
    ));
    Ok(())
}

/// One device syncing `fielded` to `version`: sign → (server) generate
/// and encode → decode, convert, apply in place, CRC check. Content
/// checks run outside the timers.
fn sync(
    s: &mut Session,
    run: &mut Run,
    fielded: &[u8],
    version: &[u8],
    op: u64,
) -> Result<Synced, String> {
    let (ref_len, len) = (fielded.len() as u64, version.len() as u64);
    // Device, before: sign its image and send the signature.
    let (wire, before) = run.tracer.op(RECONSTRUCT, op, |t| {
        let signature = t
            .call("remote.sign", ref_len, || s.device.sign(fielded))
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(t.call("remote.wire", 0, || signature.encode()))
    });
    let wire = wire?;
    // Server: a delta against the signature alone.
    let (served, prepare) = run.tracer.op(PREPARE, op, |t| {
        let signature = t
            .call("remote.wire", wire.len() as u64, || {
                Signature::decode(&wire)
            })
            .map_err(|e| e.to_string())?;
        let script = t
            .call("remote.generate", len, || {
                s.server.remote_diff(&signature, version)
            })
            .map_err(|e| e.to_string())?;
        let payload = t
            .call("codec.encode", len, || s.server.encode(&script, version))
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((script, payload))
    });
    let (script, payload) = served?;
    let copied = script.copied_bytes();
    // Device, after: its storage holds its image; rebuild in place.
    s.storage.clear();
    s.storage.extend_from_slice(fielded);
    s.storage.resize(fielded.len().max(version.len()), 0);
    let (rebuilt, after) = run.tracer.op(RECONSTRUCT, op, |t| {
        let decoded = t
            .call("codec.decode", payload.len() as u64, || {
                codec::decode(&payload)
            })
            .map_err(|e| e.to_string())?;
        let outcome = t
            .call("convert", len, || s.device.convert(decoded.script, fielded))
            .map_err(|e| e.to_string())?;
        t.call("apply", len, || {
            apply_in_place(&outcome.script, &mut s.storage)
        })
        .map_err(|e| e.to_string())?;
        let crc = t.call("checksum", len, || crc32(&s.storage[..version.len()]));
        Ok::<_, String>((outcome, decoded.target_crc, crc))
    });
    let (outcome, target_crc, crc) = rebuilt?;
    if target_crc != Some(crc) {
        run.fail(format!(
            "CRC {crc:#010x} differs from target {target_crc:?}"
        ));
    }
    if &s.storage[..version.len()] != version {
        run.fail("rebuilt image differs from the release".into());
    }
    lemma1(run, outcome.report.edges, len);
    if run.tracer.enabled() {
        let x = &mut run.extras;
        x.signature_bytes += wire.len() as u64;
        x.signed_bytes += ref_len;
        x.generate_copied += copied;
        x.generate_target += len;
        x.converts += 1;
        x.edges += outcome.report.edges as u64;
        x.convert_target += len;
        x.cycles_broken += outcome.report.cycles_broken as u64;
        x.cycle_nodes += outcome.report.cycle_nodes_examined as u64;
        x.conversion_cost += outcome.report.conversion_cost;
    }
    let payload_bytes = payload.len() as u64;
    s.device.recycle_script(outcome.script);
    s.server.recycle(InPlaceDelta {
        script,
        payload,
        report: ConversionReport::default(),
        version_len: len,
    });
    Ok(Synced {
        prepare,
        reconstruct: before + after,
        signature_bytes: wire.len() as u64,
        payload_bytes,
    })
}
