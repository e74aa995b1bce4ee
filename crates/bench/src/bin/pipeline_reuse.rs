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
//!   script, into a buffer prepared outside the measured region.
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
//!   deterministic, so growth is a real buffering regression, not noise).
//!
//! Absolute times are printed but never gated. The baseline file is left
//! untouched in this mode.

use ipr_core::required_capacity;
use ipr_pipeline::{Engine, EngineConfig, InPlaceDelta};
use ipr_workloads::chain::{ChainPattern, VersionChain};
use ipr_workloads::content::ContentKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
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

    fn json(&self) -> String {
        format!(
            "{{\"total_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
            self.total_ns, self.allocs, self.alloc_bytes
        )
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

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The engine configuration under test: one worker, so stage costs are
/// the algorithms' own (thread spawning is the scaling benches' topic).
fn bench_config() -> EngineConfig {
    EngineConfig::with_threads(1)
}

fn main() {
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--compare" => {
                baseline_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--compare needs a baseline JSON path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: pipeline_reuse [--compare <baseline.json>]"
                );
                std::process::exit(2);
            }
        }
    }

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
            let mut engine = Engine::with_config(bench_config());
            engine.update(reference, version).expect("update succeeds")
        });
        cold.add(m);
    }

    // Warm, first pass: one engine, arenas growing to the high-water mark.
    let mut engine = Engine::with_config(bench_config());
    let warm_fill = warm_pass(&mut engine, &chain);

    // Warm, steady state: second pass over the chain — every buffer the
    // pipeline needs has already reached its final size.
    let warm_steady = warm_pass(&mut engine, &chain);

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

    if let Some(path) = baseline_path {
        let breaches = gate(&path, &warm_steady, &diff, &convert, &apply, &encode, hops);
        if breaches > 0 {
            eprintln!("\n{breaches} regression(s) past the gates");
            std::process::exit(1);
        }
        return;
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"pipeline_reuse\",\n");
    json.push_str("  \"command\": \"cargo run -p ipr-bench --release --bin pipeline_reuse\",\n");
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"hops\": {hops},\n"));
    json.push_str(&format!("  \"chain_bytes\": {chain_bytes},\n"));
    json.push_str(&format!("  \"warm_steady_speedup\": {speedup:.3},\n"));
    for (key, m) in [
        ("cold", &cold),
        ("warm_fill", &warm_fill),
        ("warm_steady", &warm_steady),
    ] {
        json.push_str(&format!("  \"{key}\": {},\n", m.json()));
    }
    json.push_str("  \"stages_steady\": {\n");
    let stage_rows = [
        ("diff", &diff),
        ("convert", &convert),
        ("apply", &apply),
        ("encode", &encode),
    ];
    for (i, (key, m)) in stage_rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{key}\": {}{}\n",
            m.json(),
            if i + 1 < stage_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_pipeline_reuse.json", &json).expect("write results");
    println!("\nwrote results/BENCH_pipeline_reuse.json");
}

/// Gates the run against a stored report; returns the breach count.
fn gate(
    path: &str,
    warm_steady: &Measure,
    diff: &Measure,
    convert: &Measure,
    apply: &Measure,
    encode: &Measure,
    hops: usize,
) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let baseline = ipr_trace::json::parse(&text)
        .unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"));
    let mut breaches = 0;

    println!(
        "\nComparison against {path} (gates: zero steady diff/convert/apply/encode \
         allocations, steady allocs/update ≤ {ALLOC_TOLERANCE}x baseline)\n"
    );
    // Absolute within-run gate: the acceptance contract of the engine.
    for (label, m) in [
        ("diff", diff),
        ("convert", convert),
        ("apply", apply),
        ("encode", encode),
    ] {
        let status = if m.allocs > 0 {
            breaches += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("steady {label}: {} allocation(s) {status}", m.allocs);
    }
    // Relative gate: steady allocator traffic per update vs the baseline.
    let base_hops = baseline
        .get("hops")
        .and_then(ipr_trace::json::Value::as_u64)
        .unwrap_or_else(|| panic!("baseline {path} has no hops field"));
    let base_allocs = baseline
        .get("warm_steady")
        .and_then(|m| m.get("allocs"))
        .and_then(ipr_trace::json::Value::as_u64)
        .unwrap_or_else(|| panic!("baseline {path} has no warm_steady.allocs"));
    let base_rate = base_allocs as f64 / base_hops.max(1) as f64;
    let rate = warm_steady.allocs as f64 / hops as f64;
    let status = if rate > base_rate * ALLOC_TOLERANCE {
        breaches += 1;
        "REGRESSED"
    } else {
        "ok"
    };
    println!("steady allocs/update: {rate:.1} vs baseline {base_rate:.1} {status}");
    breaches
}

/// One full pass of the chain through `engine`, deltas recycled.
fn warm_pass(engine: &mut Engine, chain: &VersionChain) -> Measure {
    let mut total = Measure::default();
    for (reference, version) in chain.hops() {
        let (delta, m) = measured(|| engine.update(reference, version).expect("update succeeds"));
        engine.recycle(delta);
        total.add(m);
    }
    total
}
