//! A warm engine's heap stops growing: when it holds several deltas at
//! once and then recycles them all, round after round, the script pool's
//! spare storage converges instead of ratcheting upward.
//!
//! Six 1 MiB pairs (seeded inserts of mixed lengths; every second pair
//! also moves an eighth of the image, so conversion turns copies into
//! adds) are updated together and then recycled, twelve times. Live heap
//! is counted by a `#[global_allocator]` wrapper, so this file holds a
//! single test: a second one running on another thread would count into
//! the same total.

use ipr_pipeline::Engine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// System-allocator wrapper that tracks the bytes currently allocated.
struct LiveAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic only.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: LiveAlloc = LiveAlloc;

const IMAGE: usize = 1 << 20;
const PAIRS: u64 = 6;
const ROUNDS: usize = 12;
/// Rounds at the end that must leave live heap exactly where it was.
const STEADY: usize = 4;

/// Deterministic xorshift64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() >> 56) as u8).collect()
    }
}

/// A reference and a version of it: 48 inserts from a few bytes to
/// 32 KiB in the second half, and with `relocate`, a section of 1/8 of
/// the image in the first quarter moved by half its length, so its copy
/// and the copy of the bytes it moves over each read what the other
/// writes.
fn pair(seed: u64, relocate: bool) -> (Vec<u8>, Vec<u8>) {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let reference = rng.bytes(IMAGE);
    let mut version = reference.clone();
    if relocate {
        let len = IMAGE / 8;
        let from = rng.below(IMAGE / 4);
        let section: Vec<u8> = version.drain(from..from + len).collect();
        let to = from + len / 2;
        version.splice(to..to, section);
    }
    for k in 0..48 {
        let len = 1 + rng.below([16, 256, 4096, 32 << 10][k % 4]);
        let at = IMAGE / 2 + rng.below(version.len() - IMAGE / 2);
        let insert = rng.bytes(len);
        version.splice(at..at, insert);
    }
    (reference, version)
}

#[test]
fn warm_engine_heap_stops_growing() {
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..PAIRS).map(|s| pair(s, s % 2 == 1)).collect();
    let mut engine = Engine::new();
    let mut live = Vec::with_capacity(ROUNDS);
    let mut deltas = Vec::with_capacity(pairs.len());
    for _ in 0..ROUNDS {
        for (reference, version) in &pairs {
            deltas.push(engine.update(reference, version).expect("update"));
        }
        for (k, delta) in deltas.iter().enumerate() {
            let converted = delta.report.copies_converted;
            assert_eq!(
                converted > 0,
                k % 2 == 1,
                "pair {k} converted {converted} copies"
            );
        }
        for delta in deltas.drain(..) {
            engine.recycle(delta);
        }
        live.push(LIVE_BYTES.load(Relaxed));
    }
    let mib: Vec<String> = live
        .iter()
        .map(|&b| format!("{:.2}", b as f64 / f64::from(1 << 20)))
        .collect();
    let settled = &live[ROUNDS - STEADY - 1..];
    assert!(
        settled.iter().all(|&b| b == settled[0]),
        "live heap after each round (MiB): {}",
        mib.join(", ")
    );
}
