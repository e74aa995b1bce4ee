//! Engine session reuse: cold vs warm pipeline latency and allocator
//! traffic over a version chain.
//!
//! The [`Engine`] exists to amortize per-update
//! overhead — diff index arenas, CRWI adjacency/interval buffers, the
//! Equation 2 check's write buffer, script/payload storage — across many
//! updates. This
//! benchmark measures exactly that, over a 100-hop release chain
//! (`IPR_BENCH_HOPS` hops of `IPR_BENCH_CHAIN_BYTES` bytes each):
//!
//! * **cold** — a fresh engine per update, the free-function cost model;
//! * **warm_fill** — one engine reused across the chain, first pass
//!   (arenas and pools still growing to the high-water mark);
//! * **warm_steady** — the same engine on a second pass over the chain
//!   (every buffer already sized; the production steady state);
//! * **stages_steady** — a third pass driving the stage methods
//!   ([`diff`](ipr_pipeline::Engine::diff) →
//!   [`convert`](ipr_pipeline::Engine::convert) →
//!   [`apply_in_place`](ipr_pipeline::Engine::apply_in_place) → encode)
//!   separately, so allocator traffic is attributed per stage. The apply
//!   stage is the engine's checked serial applier run on the converted
//!   script, into a buffer prepared outside the measured region;
//! * **fan-out** — one reference, the chain's first release, with every
//!   later release diffed against it, as a server prepares updates for
//!   one fielded image. Cold is a fresh engine per update, so each one
//!   builds the reference index and cold builds stay measured; warm is
//!   one engine over two passes (fill, then steady), which indexes the
//!   reference once and scans it for every release after.
//!
//! Allocations are counted by a `#[global_allocator]` wrapper around the
//! system allocator. The contract: at steady state **every** stage —
//! diff, convert, apply and encode — performs **zero** heap
//! allocations per update. The encode stage draws its wire buffer from
//! the engine's pool ([`Engine::encode`]) and [`Engine::recycle`]
//! returns it, so even the caller-visible payload costs nothing once
//! warm.
//!
//! Results land in `results/BENCH_pipeline_reuse.json`.
//!
//! Run: `cargo run -p ipr-bench --release --bin pipeline_reuse`
//!
//! With `--compare <baseline.json>` the run gates instead of writing:
//!
//! * **steady-stage allocations** — any allocation in the steady-state
//!   diff/convert/apply/encode stages fails the run (an absolute,
//!   within-run gate: it holds on any host and any chain size);
//! * **allocator traffic** — steady-state allocations per update may not
//!   exceed the baseline's by more than [`ALLOC_TOLERANCE`] (counts are
//!   deterministic, so growth is a real buffering regression, not noise);
//! * **fan-out** (within the run) — every warm payload is byte-identical
//!   to the cold one for the same release; a fresh engine's warm pass,
//!   run on its own under a [`StatsRecorder`](ipr_trace::StatsRecorder)
//!   so the measured passes stay unrecorded, builds exactly one index;
//!   and the steady warm fan-out makes no allocation.
//!
//! Absolute times are printed but never gated. The baseline file is left
//! untouched in this mode.

use ipr_bench::baseline::{self, fixed, Baseline, Bound, Json, Ledger};
use ipr_bench::{env_usize, object};
use ipr_core::required_capacity;
use ipr_pipeline::{Engine, InPlaceDelta};
use ipr_workloads::chain::{ChainPattern, VersionChain};
use ipr_workloads::content::ContentKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Gate: steady-state allocations per update may grow at most this much
/// over the baseline.
const ALLOC_TOLERANCE: f64 = 1.5;

/// System-allocator wrapper that counts every allocation. `realloc` and
/// `alloc_zeroed` count too: a growing arena is allocator traffic even
/// when the old block is recycled in place.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Wall time plus allocator traffic of one measured region.
#[derive(Clone, Copy, Default)]
struct Measure {
    total_ns: u128,
    allocs: u64,
    alloc_bytes: u64,
}

impl Measure {
    fn add(&mut self, other: Measure) {
        self.total_ns += other.total_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }

    fn json(&self) -> Json {
        object! {
            "total_ns": self.total_ns,
            "allocs": self.allocs,
            "alloc_bytes": self.alloc_bytes,
        }
    }
}

/// Runs `f`, returning its result plus the region's measurements.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Measure) {
    let calls = ALLOC_CALLS.load(Relaxed);
    let bytes = ALLOC_BYTES.load(Relaxed);
    let t = Instant::now();
    let out = f();
    let total_ns = t.elapsed().as_nanos();
    (
        out,
        Measure {
            total_ns,
            allocs: ALLOC_CALLS.load(Relaxed) - calls,
            alloc_bytes: ALLOC_BYTES.load(Relaxed) - bytes,
        },
    )
}

fn main() {
    let compare = baseline::compare_arg("pipeline_reuse");
    let hops = env_usize("IPR_BENCH_HOPS", 100);
    let chain_bytes = env_usize("IPR_BENCH_CHAIN_BYTES", 256 * 1024);
    let chain = VersionChain::generate(
        99,
        ContentKind::BinaryLike,
        chain_bytes,
        hops + 1,
        ChainPattern::Patches,
    );

    // Cold: a fresh engine per update — every arena built from nothing.
    let mut cold = Measure::default();
    for (reference, version) in chain.hops() {
        let (_, m) = measured(|| {
            let mut engine = Engine::new();
            engine.update(reference, version).expect("update succeeds")
        });
        cold.add(m);
    }

    // Warm, first pass: one engine, arenas growing to the high-water mark.
    let mut engine = Engine::new();
    let warm_fill = warm_pass(&mut engine, chain.hops(), |_, _| {});

    // Warm, steady state: second pass over the chain — every buffer the
    // pipeline needs has already reached its final size.
    let warm_steady = warm_pass(&mut engine, chain.hops(), |_, _| {});

    // Stage attribution at steady state: drive the stages separately so
    // each one's allocator traffic is measured on its own. Two passes —
    // `update` never applies, so the first pass grows the Equation 2
    // check's buffer to its high-water mark; only the second is steady
    // state. The in-place buffer is refilled outside the measured region.
    let mut stages = [Measure::default(); 4];
    let mut buf = Vec::new();
    for _pass in 0..2 {
        stages = [Measure::default(); 4];
        for (reference, version) in chain.hops() {
            let (script, m_diff) = measured(|| engine.diff(reference, version));
            let (outcome, m_convert) = measured(|| {
                engine
                    .convert(script, reference)
                    .expect("conversion succeeds")
            });
            buf.clear();
            buf.extend_from_slice(reference);
            buf.resize(required_capacity(&outcome.script) as usize, 0);
            let (_, m_apply) = measured(|| {
                engine
                    .apply_in_place(&outcome.script, &mut buf)
                    .expect("converted script applies");
            });
            assert_eq!(
                &buf[..version.len()],
                version,
                "apply stage rebuilt the version"
            );
            let (payload, m_encode) = measured(|| {
                engine
                    .encode(&outcome.script, version)
                    .expect("encodable script")
            });
            engine.recycle(InPlaceDelta {
                script: outcome.script,
                payload,
                report: outcome.report,
                version_len: version.len() as u64,
            });
            for (slot, m) in stages
                .iter_mut()
                .zip([m_diff, m_convert, m_apply, m_encode])
            {
                slot.add(m);
            }
        }
    }
    let [diff, convert, apply, encode] = stages;

    // Fan-out: every later release against the first. The cold payloads
    // are what each warm pass must reproduce.
    let (fielded, releases) = chain
        .releases()
        .split_first()
        .expect("the chain has a first release");
    let mut fan_cold = Measure::default();
    let mut cold_payloads = Vec::with_capacity(releases.len());
    for version in releases {
        let (delta, m) = measured(|| {
            let mut engine = Engine::new();
            engine.update(fielded, version).expect("update succeeds")
        });
        cold_payloads.push(delta.payload);
        fan_cold.add(m);
    }
    let fan_out = || releases.iter().map(|version| (&fielded[..], &version[..]));
    let mut fan_differ = 0;
    let mut check = |i: usize, delta: &InPlaceDelta| {
        fan_differ += usize::from(delta.payload != cold_payloads[i]);
    };
    let mut engine = Engine::new();
    let fan_fill = warm_pass(&mut engine, fan_out(), &mut check);
    let fan_steady = warm_pass(&mut engine, fan_out(), &mut check);
    let recorder = Arc::new(ipr_trace::StatsRecorder::new());
    {
        let _guard = ipr_trace::install(recorder.clone());
        warm_pass(&mut Engine::new(), fan_out(), &mut check);
    }
    let fan_builds = recorder
        .report()
        .span("diff.index_build")
        .map_or(0, |span| span.count);
    let fan_speedup = fan_cold.total_ns as f64 / fan_steady.total_ns.max(1) as f64;

    let per_update = |m: &Measure| m.allocs as f64 / hops as f64;
    let speedup = cold.total_ns as f64 / warm_steady.total_ns.max(1) as f64;
    println!(
        "Pipeline reuse: {hops} hops of {} KiB, engine vs fresh-engine-per-update\n",
        chain_bytes / 1024
    );
    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>14}",
        "pass", "total ms", "allocs", "allocs/update", "alloc KiB"
    );
    for (label, m) in [
        ("cold", &cold),
        ("warm fill", &warm_fill),
        ("warm steady", &warm_steady),
    ] {
        println!(
            "{:<14} {:>12.2} {:>12} {:>14.1} {:>14}",
            label,
            m.total_ns as f64 / 1e6,
            m.allocs,
            per_update(m),
            m.alloc_bytes / 1024
        );
    }
    println!("\nwarm steady is {speedup:.2}x cold\n");
    println!(
        "{:<14} {:>12} {:>12} {:>14}",
        "steady stage", "total ms", "allocs", "allocs/update"
    );
    for (label, m) in [
        ("diff", &diff),
        ("convert", &convert),
        ("apply", &apply),
        ("encode", &encode),
    ] {
        println!(
            "{:<14} {:>12.2} {:>12} {:>14.1}",
            label,
            m.total_ns as f64 / 1e6,
            m.allocs,
            per_update(m)
        );
    }
    println!("\nFan-out: {} releases against the first\n", releases.len());
    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>14}",
        "pass", "total ms", "allocs", "allocs/update", "alloc KiB"
    );
    for (label, m) in [
        ("cold", &fan_cold),
        ("warm fill", &fan_fill),
        ("warm steady", &fan_steady),
    ] {
        println!(
            "{:<14} {:>12.2} {:>12} {:>14.1} {:>14}",
            label,
            m.total_ns as f64 / 1e6,
            m.allocs,
            m.allocs as f64 / releases.len() as f64,
            m.alloc_bytes / 1024
        );
    }
    println!(
        "\nwarm steady fan-out is {fan_speedup:.2}x cold; a warm pass builds {fan_builds} index(es)"
    );

    let Some(path) = compare else {
        baseline::write(
            "pipeline_reuse",
            object! {
                "hops": hops,
                "chain_bytes": chain_bytes,
                "warm_steady_speedup": fixed(speedup, 3),
                "cold": cold.json(),
                "warm_fill": warm_fill.json(),
                "warm_steady": warm_steady.json(),
                "stages_steady": object! {
                    "diff": diff.json(),
                    "convert": convert.json(),
                    "apply": apply.json(),
                    "encode": encode.json(),
                },
                "fan_out": object! {
                    "releases": releases.len(),
                    "warm_index_builds": fan_builds,
                    "warm_steady_speedup": fixed(fan_speedup, 3),
                    "cold": fan_cold.json(),
                    "warm_fill": fan_fill.json(),
                    "warm_steady": fan_steady.json(),
                },
            },
        );
        return;
    };
    let base = Baseline::load(&path);
    let mut gates = Ledger::new(&base);
    // Absolute within-run gate: the acceptance contract of the engine.
    for (label, m) in [
        ("diff", &diff),
        ("convert", &convert),
        ("apply", &apply),
        ("encode", &encode),
    ] {
        gates.bound(
            &format!("steady {label} allocations"),
            m.allocs as f64,
            Bound::AtMost(0.0),
            &m.allocs.to_string(),
        );
    }
    // Relative gate: steady allocator traffic per update vs the baseline.
    let base_rate =
        base.get("warm_steady").get("allocs").u64() as f64 / base.get("hops").u64().max(1) as f64;
    let rate = per_update(&warm_steady);
    gates.bound(
        "steady allocs/update",
        rate,
        Bound::AtMost(base_rate * ALLOC_TOLERANCE),
        &format!("{rate:.1} vs baseline {base_rate:.1} x {ALLOC_TOLERANCE}"),
    );
    // Fan-out, within the run: reuse changes no byte, indexes once and
    // allocates nothing once warm.
    gates.bound(
        "fan-out warm payloads differing from cold",
        fan_differ as f64,
        Bound::AtMost(0.0),
        &format!("{fan_differ} of {}", 3 * releases.len()),
    );
    gates.expect("fan-out warm index builds", fan_builds, 1);
    gates.bound(
        "steady fan-out allocations",
        fan_steady.allocs as f64,
        Bound::AtMost(0.0),
        &fan_steady.allocs.to_string(),
    );
    gates.finish();
}

/// One pass of `pairs` through `engine`, each delta shown to `check`
/// with its index outside the measured region, then recycled.
fn warm_pass<'a>(
    engine: &mut Engine,
    pairs: impl Iterator<Item = (&'a [u8], &'a [u8])>,
    mut check: impl FnMut(usize, &InPlaceDelta),
) -> Measure {
    let mut total = Measure::default();
    for (i, (reference, version)) in pairs.enumerate() {
        let (delta, m) = measured(|| engine.update(reference, version).expect("update succeeds"));
        check(i, &delta);
        engine.recycle(delta);
        total.add(m);
    }
    total
}
