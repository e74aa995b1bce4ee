//! Match-kernel and checksum microbenchmark: wide-word compare kernels
//! and the CRC-32 kernels vs the naive byte loops they replaced.
//!
//! The differ inner loops were rebuilt on `ipr_delta::diff::kernel`
//! (forward/backward extension via `u64` XOR + `trailing_zeros`, word-
//! wide seed verify). This binary measures those primitives in
//! isolation, away from hash-table noise, over three match profiles:
//!
//! * **long** — megabyte-scale common runs (identical-file diffs, long
//!   unchanged stretches), where word loads dominate;
//! * **short** — 24-byte matches at every alignment phase (typical
//!   post-seed extension), where per-call overhead dominates;
//! * **verify** — 16-byte seed windows, hit and miss (the candidate
//!   filter in front of every extension).
//!
//! The `crc32` rows time `ipr_delta::checksum::crc32`, the kernel the
//! host dispatches to (printed first: the carry-less-multiply fold or
//! the table loop), on the long profile's 4 MiB buffer and on 24-byte
//! messages at every alignment phase, against a byte-at-a-time table
//! loop; the `crc32-table` row times the portable table loop
//! (`crc32_portable`) on the same 4 MiB. Before timing, both inputs are
//! also checksummed in two streamed pieces split at every phase from 0
//! to 64 bytes from either end, across the 16-byte block and the fold's
//! 64-byte floor, and each result must equal the byte loop's.
//!
//! Every timed input is first cross-checked against the naive loop and
//! the run exits non-zero on any disagreement, so the bench doubles as a
//! smoke-level equivalence gate in CI. Throughput numbers are printed
//! for humans and are not gated, with one exception: where `crc32`
//! folds, its 4 MiB row must run at least [`FOLD_MIN_SPEEDUP`] times the
//! table loop timed in the same run, or the run exits non-zero. That is
//! a ratio within one run, and the fold's measured margin (about 9× on
//! a 2-core x86-64 host) leaves room for shared-runner noise; the
//! `diff_throughput` gate covers the match kernels' end-to-end effect.
//!
//! Run: `cargo run -p ipr-bench --release --bin kernel_bench`

use ipr_bench::{best_of, env_usize, mib_per_s};
use ipr_delta::checksum::{crc32, crc32_portable, uses_fold, Crc32};
use ipr_delta::diff::kernel::{common_prefix, common_suffix, windows_eq};
use std::time::Instant;

fn naive_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

fn naive_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[a.len() - 1 - i] == b[b.len() - 1 - i] {
        i += 1;
    }
    i
}

fn naive_eq(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && (0..a.len()).all(|i| a[i] == b[i])
}

/// Least speed-up of the dispatched `crc32` over the table loop on the
/// 4 MiB buffer, where the host folds with carry-less multiplies.
const FOLD_MIN_SPEEDUP: f64 = 4.0;

/// Byte-at-a-time CRC-32 (IEEE, reflected), the loop `crc32` replaced.
fn naive_crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut state = u32::MAX;
    for &byte in data {
        state = (state >> 8) ^ TABLE[usize::from(state as u8 ^ byte)];
    }
    !state
}

/// Counts the split points in `0..=64` (and as far from the end) at
/// which two streamed `Crc32::update` calls disagree with the byte loop.
fn crc_split_mismatches(data: &[u8], what: &str) -> usize {
    let expected = naive_crc32(data);
    let mut mismatches = 0;
    for phase in 0..=64.min(data.len()) {
        for split in [phase, data.len() - phase] {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            let got = crc.finish();
            if got != expected {
                eprintln!(
                    "MISMATCH: {what} crc32 split at {split}: {got:#010x} vs {expected:#010x}"
                );
                mismatches += 1;
            }
        }
    }
    mismatches
}

/// Deterministic xorshift fill, independent of any RNG crate.
fn fill(buf: &mut [u8], mut state: u64) {
    for b in buf {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *b = (state >> 56) as u8;
    }
}

struct Row {
    profile: &'static str,
    kernel: &'static str,
    bytes: u64,
    naive_ns: u128,
    wide_ns: u128,
}

fn main() {
    let reps = env_usize("IPR_BENCH_REPS", 5);
    let mut rows = Vec::new();
    let mut mismatches = 0usize;

    // --- long profile: 4 MiB buffers, mismatch planted near the end ---
    let long = 4 * 1024 * 1024;
    let mut a = vec![0u8; long];
    fill(&mut a, 0x2545_f491_4f6c_dd1d);
    let mut b = a.clone();
    b[long - 3] ^= 0x40; // prefix scan runs ~4 MiB before this
    let mut c = a.clone();
    c[2] ^= 0x40; // suffix scan runs ~4 MiB before this
    for (dir, naive, wide, x, y) in [
        (
            "prefix",
            naive_prefix as fn(&[u8], &[u8]) -> usize,
            common_prefix as fn(&[u8], &[u8]) -> usize,
            &a[..],
            &b[..],
        ),
        ("suffix", naive_suffix, common_suffix, &a[..], &c[..]),
    ] {
        if naive(x, y) != wide(x, y) {
            eprintln!(
                "MISMATCH: long/{dir}: naive {} wide {}",
                naive(x, y),
                wide(x, y)
            );
            mismatches += 1;
        }
        let processed = wide(x, y) as u64;
        let naive_ns = best_of(reps, || {
            let t = Instant::now();
            std::hint::black_box(naive(std::hint::black_box(x), std::hint::black_box(y)));
            t.elapsed().as_nanos()
        });
        let wide_ns = best_of(reps, || {
            let t = Instant::now();
            std::hint::black_box(wide(std::hint::black_box(x), std::hint::black_box(y)));
            t.elapsed().as_nanos()
        });
        rows.push(Row {
            profile: "long",
            kernel: dir,
            bytes: processed,
            naive_ns,
            wide_ns,
        });
    }

    // --- short profile: 24-byte matches at every alignment phase ---
    // One call per phase per iteration; throughput counts matched bytes.
    let short_match = 24usize;
    let iters = 100_000usize;
    let mut sa = vec![0u8; 4096];
    fill(&mut sa, 0x9e37_79b9_7f4a_7c15);
    let mut sb = sa.clone();
    for i in (short_match..sb.len()).step_by(short_match + 1) {
        sb[i] ^= 0x10; // mismatch every short_match+1 bytes
    }
    for off in 0..8 {
        let (x, y) = (&sa[off..], &sb[off..]);
        if naive_prefix(x, y) != common_prefix(x, y) {
            eprintln!("MISMATCH: short offset {off}");
            mismatches += 1;
        }
    }
    let short_pass = |f: fn(&[u8], &[u8]) -> usize, sa: &[u8], sb: &[u8]| -> (u128, u64) {
        let t = Instant::now();
        let mut total = 0u64;
        for i in 0..iters {
            let off = (i * 7) % 64;
            total += f(
                std::hint::black_box(&sa[off..]),
                std::hint::black_box(&sb[off..]),
            ) as u64;
        }
        (t.elapsed().as_nanos(), std::hint::black_box(total))
    };
    let (_, short_bytes) = short_pass(common_prefix, &sa, &sb);
    let naive_ns = best_of(reps, || short_pass(naive_prefix, &sa, &sb).0);
    let wide_ns = best_of(reps, || short_pass(common_prefix, &sa, &sb).0);
    rows.push(Row {
        profile: "short",
        kernel: "prefix",
        bytes: short_bytes,
        naive_ns,
        wide_ns,
    });

    // --- verify profile: 16-byte seed windows, ~50% hit rate ---
    let seed_len = 16usize;
    let verify_iters = 200_000usize;
    let mut va = vec![0u8; 8192];
    fill(&mut va, 0xd6e8_feb8_6659_fd93);
    let mut vb = va.clone();
    for i in (0..vb.len()).step_by(2 * seed_len) {
        vb[i + seed_len / 2] ^= 0x20; // half the windows differ mid-seed
    }
    let verify_pass = |f: fn(&[u8], &[u8]) -> bool, va: &[u8], vb: &[u8]| -> (u128, u64) {
        let t = Instant::now();
        let mut hits = 0u64;
        for i in 0..verify_iters {
            let off = (i * seed_len) % (va.len() - seed_len);
            hits += u64::from(f(
                std::hint::black_box(&va[off..off + seed_len]),
                std::hint::black_box(&vb[off..off + seed_len]),
            ));
        }
        (t.elapsed().as_nanos(), std::hint::black_box(hits))
    };
    let (_, naive_hits) = verify_pass(naive_eq, &va, &vb);
    let (_, wide_hits) = verify_pass(windows_eq, &va, &vb);
    if naive_hits != wide_hits {
        eprintln!("MISMATCH: verify hits {naive_hits} vs {wide_hits}");
        mismatches += 1;
    }
    let naive_ns = best_of(reps, || verify_pass(naive_eq, &va, &vb).0);
    let wide_ns = best_of(reps, || verify_pass(windows_eq, &va, &vb).0);
    rows.push(Row {
        profile: "verify",
        kernel: "windows_eq",
        bytes: (verify_iters * seed_len) as u64,
        naive_ns,
        wide_ns,
    });

    // --- crc32: the long buffer, then 24-byte messages at every phase ---
    mismatches += crc_split_mismatches(&a, "long");
    if crc32_portable(&a) != naive_crc32(&a) {
        eprintln!("MISMATCH: long crc32_portable");
        mismatches += 1;
    }
    let crc_long = |f: fn(&[u8]) -> u32| {
        best_of(reps, || {
            let t = Instant::now();
            std::hint::black_box(f(std::hint::black_box(&a)));
            t.elapsed().as_nanos()
        })
    };
    let naive_ns = crc_long(naive_crc32);
    let table_ns = crc_long(crc32_portable);
    let dispatched_ns = crc_long(crc32);
    for (kernel, wide_ns) in [("crc32-table", table_ns), ("crc32", dispatched_ns)] {
        rows.push(Row {
            profile: "long",
            kernel,
            bytes: a.len() as u64,
            naive_ns,
            wide_ns,
        });
    }
    for off in 0..16 {
        mismatches += crc_split_mismatches(&sa[off..off + short_match], "short");
    }
    let crc_pass = |f: fn(&[u8]) -> u32, sa: &[u8]| -> u128 {
        let t = Instant::now();
        for i in 0..iters {
            let off = (i * 7) % 64;
            std::hint::black_box(f(std::hint::black_box(&sa[off..off + short_match])));
        }
        t.elapsed().as_nanos()
    };
    let naive_ns = best_of(reps, || crc_pass(naive_crc32, &sa));
    let wide_ns = best_of(reps, || crc_pass(crc32, &sa));
    rows.push(Row {
        profile: "short",
        kernel: "crc32",
        bytes: (iters * short_match) as u64,
        naive_ns,
        wide_ns,
    });

    let folds = uses_fold();
    println!("Match-kernel microbench: {reps} reps, best-of timing (naive = byte loop)");
    println!(
        "crc32 dispatches to: {}\n",
        if folds {
            "carry-less-multiply fold (PCLMULQDQ)"
        } else {
            "table loop (slicing-by-16)"
        }
    );
    println!(
        "{:<8} {:<11} {:>12} {:>12} {:>12} {:>9}",
        "profile", "kernel", "bytes", "naive MiB/s", "wide MiB/s", "speedup"
    );
    for r in &rows {
        let naive = mib_per_s(r.bytes, r.naive_ns);
        let wide = mib_per_s(r.bytes, r.wide_ns);
        println!(
            "{:<8} {:<11} {:>12} {:>12.0} {:>12.0} {:>8.2}x",
            r.profile,
            r.kernel,
            r.bytes,
            naive,
            wide,
            r.naive_ns as f64 / r.wide_ns as f64
        );
    }

    let fold_speedup = table_ns as f64 / dispatched_ns as f64;
    let slow_fold = folds && fold_speedup < FOLD_MIN_SPEEDUP;
    println!(
        "\ncrc32 vs table loop on 4 MiB: {fold_speedup:.2}x ({})",
        match (folds, slow_fold) {
            (false, _) => "no fold on this host, not gated".to_string(),
            (true, false) => format!("gate >= {FOLD_MIN_SPEEDUP}x ok"),
            (true, true) => format!("gate >= {FOLD_MIN_SPEEDUP}x REGRESSED"),
        }
    );

    if mismatches > 0 {
        eprintln!("\n{mismatches} kernel/naive disagreement(s)");
    }
    if mismatches > 0 || slow_fold {
        std::process::exit(1);
    }
}
