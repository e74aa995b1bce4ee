//! `ota_firmware`: one server prepares releases for a fleet of devices
//! that all run the same fielded image, and each device streams the
//! update into its only copy of the firmware.
//!
//! Why this workload: the fielded image is 4 MiB, so `diff` indexes a
//! reference far larger than L2 and is almost all of prepare time; the
//! relocated sections force long crossing copies, so conversion breaks
//! real CRWI cycles. The device's checked streaming rebuild is all of
//! reconstruct.

use crate::run::{Run, PREPARE, RECONSTRUCT};
use crate::trace::timed;
use ipr_device::{stream_install, Channel, Device, LossyChannel, StreamProgress};
use ipr_pipeline::{DeltaStream, Engine, EngineConfig, InPlaceDelta};
use ipr_workloads::content::{self, ContentKind};
use ipr_workloads::mutate::{mutate, MutationProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size of the fielded image.
const IMAGE_BYTES: usize = 4 << 20;
/// Releases derived from the fielded image.
pub const RELEASES: usize = 12;
/// Devices installing each release.
const DEVICES: usize = 16;
/// Serving chunk and frame size: the `ipr install --stream` defaults.
const CHUNK_BYTES: usize = 1024;
const MTU_BYTES: usize = 576;

/// A fielded image and the releases derived from it.
pub struct Fleet {
    /// The image every device runs.
    pub fielded: Vec<u8>,
    /// Releases, each derived from `fielded` alone.
    pub releases: Vec<Vec<u8>>,
}

impl Fleet {
    /// Builds the fleet's inputs from `seed`: two light (patch) releases
    /// for every default one, and every second release also moves an
    /// eighth of the image elsewhere. Light and default releases cost
    /// the server differently; with as many of each, the median would
    /// fall in the gap between the two and jump from run to run.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let fielded = content::generate(&mut rng, ContentKind::BinaryLike, IMAGE_BYTES);
        let releases = (0..RELEASES)
            .map(|k| {
                let profile = if k % 3 == 2 {
                    MutationProfile::default()
                } else {
                    MutationProfile::light()
                };
                let mut v = mutate(&mut rng, &fielded, &profile);
                if k % 2 == 1 {
                    relocate(&mut rng, &mut v, IMAGE_BYTES / 8);
                }
                v
            })
            .collect();
        Self { fielded, releases }
    }

    /// Bytes a device needs to hold any release over the fielded image.
    pub fn capacity(&self) -> usize {
        self.releases
            .iter()
            .map(Vec::len)
            .chain([self.fielded.len()])
            .max()
            .expect("the fielded image is always present")
    }
}

/// Cuts a `len`-byte section out of `image` and reinserts it a quarter
/// of the image away. The distance is fixed because the bytes that
/// conversion must re-send grow with it: a random distance would make
/// `bytes_ratio` mostly a property of the seed.
fn relocate(rng: &mut StdRng, image: &mut Vec<u8>, len: usize) {
    let len = len.min(image.len() / 2);
    let from = rng.random_range(0..=image.len() - len);
    let section: Vec<u8> = image.drain(from..from + len).collect();
    let distance = (image.len() + len) / 4;
    let to = if from + distance <= image.len() {
        from + distance
    } else {
        from.saturating_sub(distance)
    };
    image.splice(to..to, section);
}

struct Server {
    engine: Engine,
    devices: Vec<Device>,
}

/// Program set-up: the server's engine, the fleet's devices, and one
/// warm-up update that sizes the engine's arenas.
fn set_up(fleet: &Fleet, warm_release: usize) -> Result<Server, String> {
    let mut engine = Engine::with_config(EngineConfig::default());
    let mut devices = Vec::with_capacity(DEVICES);
    for _ in 0..DEVICES {
        let mut device = Device::new(fleet.capacity());
        device.flash(&fleet.fielded).map_err(|e| e.to_string())?;
        devices.push(device);
    }
    let delta = engine
        .update(&fleet.fielded, &fleet.releases[warm_release])
        .map_err(|e| format!("warm-up update: {e}"))?;
    engine.recycle(delta);
    Ok(Server { engine, devices })
}

/// Independent set-ups timed before the loop, so `setup_s` is a median.
/// The first one is kept: an engine built after others were dropped
/// diffs markedly slower, a cost no single-engine server or CLI call pays.
const SETUPS: usize = 3;

/// Runs the workload until `run` is done; a pass prepares every release
/// once, then installs each on every device.
pub fn run(seed: u64, run: &mut Run) -> Result<(), String> {
    let fleet = Fleet::generate(seed);
    let channel = LossyChannel::new(Channel::cellular(), 0.0, seed);
    let (server, took) = timed(|| set_up(&fleet, 0));
    let Server {
        mut engine,
        mut devices,
    } = server?;
    run.setup(took);
    for s in 1..SETUPS {
        let (extra, took) = timed(|| set_up(&fleet, s % RELEASES));
        drop(extra?);
        run.setup(took);
    }
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
    while !run.done() {
        // The server prepares the whole batch of releases back to back,
        // then the fleet installs them.
        let deltas: Vec<_> = fleet
            .releases
            .iter()
            .enumerate()
            .map(|(r, version)| prepare(run, &mut engine, &fleet.fielded, version, r))
            .collect();
        for (delta, version) in deltas.into_iter().zip(&fleet.releases) {
            let Some(delta) = delta else {
                continue;
            };
            run.moved(delta.payload.len() as u64, version.len() as u64);
            let InPlaceDelta {
                script,
                payload,
                report,
                version_len,
            } = delta;
            let stream = DeltaStream::from_wire(payload, CHUNK_BYTES);
            for (d, device) in devices.iter_mut().enumerate() {
                install(run, device, &stream, channel, version, d % 2 == 1);
                if let Err(e) = device.flash(&fleet.fielded) {
                    run.fail(format!("re-flash device {d}: {e}"));
                }
            }
            engine.recycle(InPlaceDelta {
                script,
                payload: stream.into_payload(),
                report,
                version_len,
            });
        }
        run.pass_done();
    }
    run.finish();
    run.notes.push(format!(
        "ota_firmware: {} passes over {RELEASES} releases of a {IMAGE_BYTES} B image, \
         {DEVICES} devices each, {CHUNK_BYTES} B chunks over {} with a {MTU_BYTES} B MTU",
        run.passes(),
        channel.base()
    ));
    Ok(())
}

/// Prepares release `r`. The untraced run uses `Engine::update`; the
/// traced run also times the same prepare through the stage methods,
/// alternating which goes first, and requires identical payloads.
fn prepare(
    run: &mut Run,
    engine: &mut Engine,
    fielded: &[u8],
    version: &[u8],
    r: usize,
) -> Option<InPlaceDelta> {
    let len = version.len() as u64;
    let update = |run: &mut Run, engine: &mut Engine| {
        let op = run.op_id();
        let (delta, took) = run
            .tracer
            .op(PREPARE, op, |_| engine.update(fielded, version));
        match delta {
            Ok(delta) => {
                run.record(PREPARE, false, took, len);
                lemma1(run, delta.report.edges, len);
                Some(delta)
            }
            Err(e) => {
                run.attempt_failed(format!("update of release {r}: {e}"));
                None
            }
        }
    };
    if !run.traced {
        return update(run, engine);
    }
    let plain_first = r.is_multiple_of(2);
    let first = if plain_first {
        update(run, engine)
    } else {
        None
    };
    let staged = staged(run, engine, fielded, version, r);
    let second = if plain_first {
        None
    } else {
        update(run, engine)
    };
    let (Some(plain), Some(staged)) = (first.or(second), staged) else {
        return None;
    };
    if plain.payload != staged.payload {
        run.fail(format!(
            "release {r}: staged prepare differs from Engine::update"
        ));
    }
    engine.recycle(plain);
    Some(staged)
}

/// The traced prepare: `diff` → `convert` → `encode`, one span each.
fn staged(
    run: &mut Run,
    engine: &mut Engine,
    fielded: &[u8],
    version: &[u8],
    r: usize,
) -> Option<InPlaceDelta> {
    let len = version.len() as u64;
    run.tracer.set_enabled(true);
    let op = run.op_id();
    let (out, took) = run.tracer.op(PREPARE, op, |t| {
        let script = t.call("diff", len, || engine.diff(fielded, version));
        let copied = script.copied_bytes();
        let outcome = t
            .call("convert", len, || engine.convert(script, fielded))
            .map_err(|e| e.to_string())?;
        let payload = t
            .call("codec.encode", len, || {
                engine.encode(&outcome.script, version)
            })
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((copied, outcome, payload))
    });
    run.tracer.set_enabled(false);
    let (copied, outcome, payload) = match out {
        Ok(parts) => parts,
        Err(e) => {
            run.attempt_failed(format!("staged prepare of release {r}: {e}"));
            return None;
        }
    };
    run.record(PREPARE, true, took, len);
    lemma1(run, outcome.report.edges, len);
    let x = &mut run.extras;
    x.diff_copied += copied;
    x.diff_target += len;
    x.converts += 1;
    x.edges += outcome.report.edges as u64;
    x.convert_target += len;
    x.cycles_broken += outcome.report.cycles_broken as u64;
    x.cycle_nodes += outcome.report.cycle_nodes_examined as u64;
    x.conversion_cost += outcome.report.conversion_cost;
    Some(InPlaceDelta {
        script: outcome.script,
        payload,
        report: outcome.report,
        version_len: len,
    })
}

/// Lemma 1: a CRWI digraph has at most one edge per version byte.
pub fn lemma1(run: &mut Run, edges: usize, version_len: u64) {
    if edges as u64 > version_len {
        run.fail(format!(
            "Lemma 1 violated: {edges} CRWI edges for a {version_len} B version"
        ));
    }
}

/// One device's streaming install, checked outside the timer.
fn install(
    run: &mut Run,
    device: &mut Device,
    stream: &DeltaStream,
    channel: LossyChannel,
    version: &[u8],
    traced: bool,
) {
    let traced = traced && run.traced;
    run.tracer.set_enabled(traced);
    let op = run.op_id();
    let len = version.len() as u64;
    let (progress, took) = run.tracer.op(RECONSTRUCT, op, |t| {
        t.call("stream.install", len, || {
            stream_install(device, stream, channel, MTU_BYTES, None, None)
        })
    });
    run.tracer.set_enabled(false);
    run.record(RECONSTRUCT, traced, took, len);
    match progress {
        Ok(StreamProgress::Complete(report)) => {
            if !report.crc_verified {
                run.fail("install completed without a verified CRC".into());
            }
            if device.image() != version {
                run.fail("installed image differs from the release".into());
            }
            if traced {
                let x = &mut run.extras;
                x.install_high_water = x.install_high_water.max(report.buffered_high_water);
                x.install_pre_eof += report.commands_pre_eof;
                x.install_commands += report.commands_applied;
            }
        }
        Ok(StreamProgress::Killed { .. }) => run.fail("uninterrupted install was killed".into()),
        Err(e) => run.fail(format!("install: {e}")),
    }
}
