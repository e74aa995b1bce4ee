//! `store_history`: a versioned object store receives a release history
//! while clients read recent versions back.
//!
//! Why this workload: writes beside reads on the same layers, on 256 KiB
//! inputs whose index fits in cache (the other side of `ota_firmware`'s
//! diff); every read walks the store's read path (compose → convert →
//! wave apply) with the store's own default engine, which cannot be set
//! from outside. Read cost grows with history length, so the run scales
//! by storing more independent histories, never longer ones.

use crate::run::{Run, COMPACT, PREPARE, RECONSTRUCT};
use crate::trace::timed;
use ipr_store::{Oid, Store};
use ipr_workloads::chain::{ChainPattern, VersionChain};
use ipr_workloads::content::ContentKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Size of each history's first version.
const VERSION_BYTES: usize = 256 << 10;
/// Versions per history: a warm-up put, then four compactions' worth.
const VERSIONS: usize = 33;
/// Reconstruction chains longer than this are compacted.
const DEPTH_CAP: u32 = 8;
const GETS_PER_PUT: usize = 4;
/// Reads are drawn from this many newest versions.
const NEWEST: usize = 16;
const COMPACT_EVERY: usize = 8;
/// Histories stored side by side, each from its own chain into its own
/// store. Delta sizes and read costs are properties of a chain's text,
/// so several chains per run keep a seed's result close to the others'.
const HISTORIES: usize = 6;

/// One history's store, holding the versions put so far.
struct Open {
    store: Store,
    dir: PathBuf,
    oids: Vec<Oid>,
    reads: StdRng,
}

/// Program set-up: a fresh store plus one warm-up put of the history's
/// first version.
fn set_up(dir: PathBuf, chain: &VersionChain, seed: u64) -> Result<Open, String> {
    let store = Store::init(&dir, DEPTH_CAP).map_err(|e| format!("init {}: {e}", dir.display()));
    let mut store = store?;
    let base = store
        .put(chain.release(0), None)
        .map_err(|e| format!("warm-up put: {e}"))?
        .oid;
    Ok(Open {
        store,
        dir,
        oids: vec![base],
        reads: StdRng::seed_from_u64(seed),
    })
}

fn close(open: Open) {
    let Open { store, dir, .. } = open;
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

/// Puts, reads and compactions done, for the notes.
#[derive(Default)]
struct Counts {
    puts: usize,
    gets: usize,
    compactions: usize,
}

/// Runs the workload until `run` is done, with stores under `work`. A
/// pass opens a fresh store per history and stores every history in
/// rounds, one version of each per round.
pub fn run(seed: u64, run: &mut Run, work: &Path) -> Result<(), String> {
    let chains: Vec<VersionChain> = (0..HISTORIES as u64)
        .map(|h| {
            VersionChain::generate(
                seed.wrapping_mul(HISTORIES as u64).wrapping_add(h),
                ContentKind::SourceLike,
                VERSION_BYTES,
                VERSIONS,
                ChainPattern::Patches,
            )
        })
        .collect();
    if run.traced {
        for traced in [false, true] {
            run.require(PREPARE, traced, 20);
            run.require(RECONSTRUCT, traced, 20);
        }
        run.require(RECONSTRUCT, true, 100);
        run.require(COMPACT, true, 20);
    } else {
        run.require(PREPARE, false, 20);
        run.require(RECONSTRUCT, false, 100);
    }
    run.begin();
    let mut counts = Counts::default();
    let mut stores = 0usize;
    let mut result = Ok(());
    while result.is_ok() && !run.done() {
        let mut open = Vec::with_capacity(HISTORIES);
        for (h, chain) in chains.iter().enumerate() {
            stores += 1;
            let dir = work.join(format!("store-{stores}"));
            // A leftover of an interrupted earlier run would make init fail.
            let _ = std::fs::remove_dir_all(&dir);
            let (store, took) = timed(|| set_up(dir, chain, seed.wrapping_add(h as u64)));
            run.setup(took);
            match store {
                Ok(store) => open.push(store),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        'rounds: for round in 1..VERSIONS {
            if result.is_err() {
                break;
            }
            for (h, current) in open.iter_mut().enumerate() {
                // Alternate by round, so each history is traced as often
                // as not.
                let traced = run.traced && (round + h) % 2 == 1;
                if let Err(e) = step(run, current, &chains[h], traced, &mut counts) {
                    result = Err(e);
                    break 'rounds;
                }
            }
        }
        for current in open {
            close(current);
        }
        if result.is_ok() {
            run.pass_done();
        }
    }
    run.finish();
    run.notes.push(format!(
        "store_history: {} passes over {HISTORIES} histories of {VERSIONS} x {VERSION_BYTES} B \
         versions (depth cap {DEPTH_CAP}); {} puts, {} gets, {} compactions",
        run.passes(),
        counts.puts,
        counts.gets,
        counts.compactions
    ));
    result
}

/// Puts a history's next version, reads four recent versions back and
/// compacts every eighth version.
fn step(
    run: &mut Run,
    open: &mut Open,
    chain: &VersionChain,
    traced: bool,
    counts: &mut Counts,
) -> Result<(), String> {
    let i = open.oids.len();
    let version = chain.release(i);
    let len = version.len() as u64;
    counts.puts += 1;
    run.tracer.set_enabled(traced);
    let op = run.op_id();
    let (put, took) = run.tracer.op(PREPARE, op, |t| {
        t.call("store.put", len, || open.store.put(version, None))
    });
    run.tracer.set_enabled(false);
    match put {
        Ok(outcome) if outcome.created => {
            run.record(PREPARE, traced, took, len);
            run.moved(outcome.stored_bytes, len);
            open.oids.push(outcome.oid);
        }
        Ok(_) => {
            run.attempt_failed(format!("put of version {i} was a no-op"));
            return Err("a put failed; history abandoned".into());
        }
        Err(e) => {
            run.attempt_failed(format!("put of version {i}: {e}"));
            return Err("a put failed; history abandoned".into());
        }
    }
    for _ in 0..GETS_PER_PUT {
        let newest = open.oids.len();
        let j = open
            .reads
            .random_range(newest.saturating_sub(NEWEST)..newest);
        get(run, open, j, chain.release(j), counts);
    }
    if open.oids.len().is_multiple_of(COMPACT_EVERY) {
        compact(run, open, counts);
    }
    Ok(())
}

/// One read, checked against the generated version outside the timer.
fn get(run: &mut Run, open: &mut Open, j: usize, expected: &[u8], counts: &mut Counts) {
    let traced = run.traced && counts.gets % 2 == 1;
    counts.gets += 1;
    let oid = open.oids[j];
    let depth = open.store.manifest().depth(oid).unwrap_or(0);
    let len = expected.len() as u64;
    run.tracer.set_enabled(traced);
    let op = run.op_id();
    let (got, took) = run.tracer.op(RECONSTRUCT, op, |t| {
        t.call("store.get", len, || open.store.get(oid))
    });
    run.tracer.set_enabled(false);
    run.record(RECONSTRUCT, traced, took, len);
    match got {
        Ok(bytes) if bytes == expected => {}
        Ok(_) => run.fail(format!("get of {oid} differs from the generated version")),
        Err(e) => run.fail(format!("get of {oid}: {e}")),
    }
    if traced {
        run.extras.get_depths.push(f64::from(depth));
    }
}

/// One compaction; every chain must end within the depth cap.
fn compact(run: &mut Run, open: &mut Open, counts: &mut Counts) {
    counts.compactions += 1;
    run.tracer.set_enabled(run.traced);
    let op = run.op_id();
    let (report, took) = run.tracer.op(COMPACT, op, |t| {
        t.call("store.compact", 0, || open.store.compact())
    });
    run.tracer.set_enabled(false);
    run.record(COMPACT, run.traced, took, 0);
    match report {
        Ok(report) if report.max_depth_after <= DEPTH_CAP => {}
        Ok(report) => run.fail(format!(
            "compaction left depth {} above the cap",
            report.max_depth_after
        )),
        Err(e) => run.fail(format!("compact: {e}")),
    }
}
