//! Deterministic crash-injection sweep over the object store's
//! transaction layer, with real process kills.
//!
//! The transaction layer brackets every fsync and rename with numbered
//! durability boundaries (`ipr::store::fault`). This test re-executes
//! its own binary as a child per kill point: the child opens a
//! pristine copy of a prepared store, performs one operation (`put` or
//! `compact`) with `IPR_STORE_KILL=<n>` armed, and is killed by
//! `process::exit` at the n-th boundary — no unwinding, no destructors,
//! exactly what a power cut leaves behind. The parent then requires of
//! every crashed copy:
//!
//! * `fsck` runs, and two consecutive runs print identical findings
//!   (repair advice is reproducible);
//! * `fsck --repair` converges: no corruption, everything repairable
//!   repaired, and a rerun is clean;
//! * every version committed before the operation reconstructs
//!   byte-identically;
//! * if the crash landed past the commit point (the manifest swap),
//!   the new state is complete too — no committed object is ever lost.
//!
//! The sweep ends when a kill point lies beyond the operation's last
//! boundary and the child exits cleanly. CI runs this as the
//! `store-smoke` job.

use ipr::store::fault::{KILL_ENV, KILL_EXIT_CODE};
use ipr::store::{fsck, scratch_dir, Oid, Store};
use std::path::Path;
use std::process::Command;

const DIR_ENV: &str = "IPR_STORE_CRASH_DIR";
const OP_ENV: &str = "IPR_STORE_CRASH_OP";

/// The history both parent and child derive independently: enough
/// versions for real chains, drifting content so deltas pay off.
fn history() -> Vec<Vec<u8>> {
    (0u8..5)
        .map(|v| {
            (0..8192u32)
                .map(|i| {
                    let base = (i as u8).wrapping_mul(31).wrapping_add(7);
                    // Each version rewrites a sliding window and appends
                    // a version-tagged tail.
                    if i % 11 == u32::from(v) % 11 {
                        base ^ v.wrapping_mul(5)
                    } else {
                        base
                    }
                })
                .chain((0..64).map(|i| v.wrapping_add(i)))
                .collect()
        })
        .collect()
}

/// The child's half: run one operation on the prepared store with the
/// kill armed via the environment. Runs only when spawned by the sweep
/// (the guard env var is absent under a normal `cargo test`).
#[test]
#[ignore = "crash-sweep child; spawned by the sweep tests with IPR_STORE_CRASH_DIR set"]
fn crash_child() {
    let Some(dir) = std::env::var_os(DIR_ENV) else {
        return;
    };
    let op = std::env::var(OP_ENV).expect("sweep sets the operation");
    let mut store = Store::open(Path::new(&dir)).expect("child opens the prepared store");
    match op.as_str() {
        "put" => {
            let last = history().pop().expect("non-empty history");
            store
                .put(&last, None)
                .expect("put completes when not killed");
        }
        "compact" => {
            store.compact().expect("compact completes when not killed");
        }
        other => panic!("unknown crash op {other}"),
    }
}

/// Recursively copies the pristine store so every kill point starts
/// from the identical pre-operation state.
fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy root");
    for entry in std::fs::read_dir(from).expect("read store dir") {
        let entry = entry.expect("dir entry");
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_store(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).expect("copy store file");
        }
    }
}

fn render_findings(report: &ipr::store::FsckReport) -> Vec<String> {
    report.findings.iter().map(ToString::to_string).collect()
}

/// Everything the parent demands of one crashed store copy.
fn assert_crash_recoverable(root: &Path, kill: u64, committed: &[(Oid, Vec<u8>)]) {
    // Repair advice must be reproducible: two sweeps, identical lines.
    let first = fsck(root, false).unwrap_or_else(|e| panic!("kill {kill}: fsck failed: {e}"));
    let second =
        fsck(root, false).unwrap_or_else(|e| panic!("kill {kill}: fsck rerun failed: {e}"));
    assert_eq!(
        render_findings(&first),
        render_findings(&second),
        "kill {kill}: fsck findings not reproducible"
    );
    assert!(
        !first.has_corruption(),
        "kill {kill}: a crash mid-transaction corrupted committed state: {:?}",
        first.findings
    );

    // Repair converges to a clean store.
    let repair = fsck(root, true).unwrap_or_else(|e| panic!("kill {kill}: repair failed: {e}"));
    assert!(
        repair.fully_repaired() && !repair.has_corruption(),
        "kill {kill}: repair did not converge: {:?}",
        repair.findings
    );
    let clean = fsck(root, false).unwrap_or_else(|e| panic!("kill {kill}: post-repair: {e}"));
    assert!(
        clean.is_clean(),
        "kill {kill}: store not clean after repair: {:?}",
        clean.findings
    );

    // No committed object lost: everything durable before the crash
    // reads back byte-identically; anything the crashed operation got
    // far enough to commit does too (fsck's reconstruction sweep above
    // already walked every version the manifest knows).
    let mut store = Store::open(root).unwrap_or_else(|e| panic!("kill {kill}: reopen failed: {e}"));
    for (oid, want) in committed {
        let got = store
            .get(*oid)
            .unwrap_or_else(|e| panic!("kill {kill}: committed version {oid} lost: {e}"));
        assert_eq!(&got, want, "kill {kill}: committed version {oid} drifted");
    }
}

/// Drives the sweep for one operation: prepare a pristine store, then
/// kill a fresh copy's child at boundary 1, 2, … until the child
/// outruns the kill. Returns the number of kill points exercised.
fn sweep(op: &str, prepare: impl Fn(&mut Store) -> Vec<(Oid, Vec<u8>)>) -> u64 {
    let pristine = scratch_dir(&std::env::temp_dir(), &format!("crash-{op}-pristine"));
    let committed = {
        let mut store = Store::init(&pristine, 2).expect("init pristine store");
        prepare(&mut store)
    };

    let exe = std::env::current_exe().expect("own test binary");
    let mut kill = 0u64;
    loop {
        kill += 1;
        assert!(
            kill < 200,
            "sweep did not terminate; boundary counting broken?"
        );
        let copy = scratch_dir(&std::env::temp_dir(), &format!("crash-{op}-{kill}"));
        copy_store(&pristine, &copy);

        // Output is captured so the sweep's own log stays readable; it
        // resurfaces in the panic message when a child misbehaves.
        let out = Command::new(&exe)
            .args(["--exact", "crash_child", "--ignored"])
            .env(KILL_ENV, kill.to_string())
            .env(DIR_ENV, &copy)
            .env(OP_ENV, op)
            .output()
            .expect("spawn crash child");

        match out.status.code() {
            Some(code) if code == KILL_EXIT_CODE => {
                assert_crash_recoverable(&copy, kill, &committed);
                std::fs::remove_dir_all(&copy).ok();
            }
            Some(0) => {
                // The operation finished before boundary `kill`: the
                // sweep has covered every crash point. The completed
                // copy must simply be a healthy store.
                let report = fsck(&copy, false).expect("fsck of completed store");
                assert!(
                    report.is_clean(),
                    "completed run not clean: {:?}",
                    report.findings
                );
                std::fs::remove_dir_all(&copy).ok();
                break;
            }
            other => panic!(
                "kill {kill}: child exited with {other:?}, not a kill or success\n\
                 --- child stdout ---\n{}\n--- child stderr ---\n{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            ),
        }
    }
    std::fs::remove_dir_all(&pristine).ok();
    kill - 1
}

#[test]
fn put_survives_a_kill_at_every_boundary() {
    let swept = sweep("put", |store| {
        let mut history = history();
        history.pop(); // the child puts the last version
        history
            .iter()
            .map(|v| (store.put(v, None).expect("prepare put").oid, v.clone()))
            .collect()
    });
    // Sanity floor: a put commits through object stage + publish, a
    // manifest swap and directory syncs — if the sweep saw almost no
    // boundaries, the instrumentation is broken.
    assert!(swept >= 10, "put crossed only {swept} boundaries");
}

#[test]
fn compact_survives_a_kill_at_every_boundary() {
    let swept = sweep("compact", |store| {
        history()
            .iter()
            .map(|v| (store.put(v, None).expect("prepare put").oid, v.clone()))
            .collect()
    });
    assert!(swept >= 10, "compact crossed only {swept} boundaries");
}
