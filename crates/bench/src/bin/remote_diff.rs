//! Remote differencing: signature-based streaming delta generation vs
//! the local greedy differ.
//!
//! The remote path trades delta size for memory: the generator never
//! sees the reference, only its signature, so its working set is the
//! signature plus the match table plus one streaming window — constant
//! in the version length. This benchmark measures what that trade
//! costs on a synthetic ≥64 MiB pair (size set by `IPR_BENCH_REMOTE_MIB`,
//! default 64): for fixed 1 KiB / 8 KiB blocks and default
//! content-defined chunking it reports signing throughput, encoded
//! signature bytes, peak resident signature-side bytes
//! (signature + match table), generation MiB/s, the emitted delta size
//! and its overhead over the local greedy differ that reads both files.
//! Every generated delta is applied back and verified byte-identical
//! before a row is reported.
//!
//! Results land in `results/BENCH_remote_diff.json`.
//!
//! Run: `cargo run -p ipr-bench --release --bin remote_diff`
//!
//! With `--compare <baseline.json>` the run gates against a stored
//! report and exits non-zero on regression:
//!
//! * **compression** — on the baseline's pair (same `reference_mib` and
//!   `version_bytes`), any chunking's delta bytes exceed the baseline's
//!   at all (the generator is deterministic, so a single extra byte is an
//!   algorithmic change, not noise);
//! * **throughput** — on the baseline's pair, any chunking's generation
//!   MiB/s falls below [`THROUGHPUT_FLOOR_RATIO`] of the baseline's
//!   (loose enough for machine noise, tight enough to catch the batched
//!   scan kernel silently degrading to the scalar path);
//! * **overhead** — a chunking's delta exceeds [`OVERHEAD_CAP`] times
//!   the same-run local greedy delta (a within-run gate that holds on
//!   the quick CI pair too);
//! * **memory** — resident signature-side bytes exceed
//!   [`RESIDENT_FIXED_ALLOWANCE`] plus [`RESIDENT_CAP_PER_BLOCK`] bytes
//!   per signature block, the constant-memory contract (docs/REMOTE.md).
//!
//! On any other pair (such as the quick CI pair against the committed
//! 64 MiB baseline) the two cross-run gates are informational.
//!
//! Every row also regenerates its delta through the byte-at-a-time
//! scalar generator and asserts the command streams identical: the
//! batched kernel must be a pure speedup, never an output change.

use ipr_bench::baseline::{self, fixed, Baseline, Bound, Ledger};
use ipr_bench::{env_usize, mib_per_s, object};
use ipr_delta::codec::{encoded_size, Format};
use ipr_delta::diff::{Differ, GreedyDiffer};
use ipr_delta::remote::{generate_delta, generate_delta_scalar, Chunking, MatchTable, Signature};
use std::time::Instant;

/// Within-run gate: remote delta bytes may cost at most this many times
/// the local greedy delta on the synthetic pair. Generous — the remote
/// generator matches at block granularity while greedy matches at byte
/// granularity, so each edit costs up to a block of literals — but a
/// breach means block matching broke, not that the corpus got unlucky.
const OVERHEAD_CAP: f64 = 50.0;

/// Within-run gate: signature + match table may cost at most
/// [`RESIDENT_FIXED_ALLOWANCE`] plus this many bytes per block. A
/// `BlockSignature` is 32 bytes and its sorted-index entry 4, with
/// `Vec` growth doubling on top; 96 leaves headroom while still
/// catching an accidental O(reference) allocation instantly (the
/// smallest block here is 1024 bytes).
const RESIDENT_CAP_PER_BLOCK: usize = 96;

/// Block-count-independent part of the memory gate: the match table's
/// presence filter plus struct overhead.
const RESIDENT_FIXED_ALLOWANCE: usize = 16 * 1024;

/// Same-corpus throughput gate: generation MiB/s may fall to at most
/// this fraction of the baseline's before the run fails. The scan
/// rework (batched kernel + full-digest filter + bucketed candidates)
/// bought ~2.8x on small blocks; regressing to the old per-byte
/// saturated-filter loop lands near 0.35x baseline — well under this
/// floor — while ordinary machine noise stays well above it.
const THROUGHPUT_FLOOR_RATIO: f64 = 0.6;

struct Row {
    label: String,
    blocks: usize,
    sign_ns: u128,
    sig_bytes: usize,
    resident_bytes: usize,
    gen_ns: u128,
    gen_mib_s: f64,
    scalar_gen_mib_s: f64,
    delta_bytes: u64,
    overhead: f64,
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A reference of `mib` MiB and a version derived from it by a spread
/// of realistic edits: byte overwrites, short insertions and deletions
/// roughly every half MiB, so most blocks survive and the interesting
/// work is re-aligning after shifts.
fn synthesize(mib: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let len = mib * 1024 * 1024;
    let mut x = seed;
    let mut reference = Vec::with_capacity(len);
    while reference.len() < len {
        reference.extend_from_slice(&splitmix64(&mut x).to_le_bytes());
    }
    reference.truncate(len);

    let mut version = Vec::with_capacity(len + len / 64);
    let mut pos = 0usize;
    let mut edit = 0u64;
    while pos < len {
        let span = 256 * 1024 + (splitmix64(&mut x) as usize % (512 * 1024));
        let end = (pos + span).min(len);
        version.extend_from_slice(&reference[pos..end]);
        pos = end;
        if pos >= len {
            break;
        }
        let amount = 64 + (splitmix64(&mut x) as usize % 4032);
        match edit % 3 {
            0 => {
                // Insert a run of new bytes (shifts everything after).
                for _ in 0..amount.div_ceil(8) {
                    version.extend_from_slice(&splitmix64(&mut x).to_le_bytes());
                }
            }
            1 => {
                // Delete the next run.
                pos = (pos + amount).min(len);
            }
            _ => {
                // Overwrite in place (no shift).
                for _ in 0..amount.div_ceil(8) {
                    version.extend_from_slice(&splitmix64(&mut x).to_le_bytes());
                }
                pos = (pos + amount.div_ceil(8) * 8).min(len);
            }
        }
        edit += 1;
    }
    (reference, version)
}

fn bench_chunking(
    chunking: Chunking,
    reference: &[u8],
    version: &[u8],
    local_delta_bytes: u64,
) -> Row {
    let t = Instant::now();
    let signature = Signature::build(reference, chunking).expect("valid chunking");
    let sign_ns = t.elapsed().as_nanos();
    let sig_bytes = signature.encoded_len();

    // Everything the receiving side keeps resident while it streams:
    // the decoded signature plus the derived match table. The stream
    // window (≤ max block + 64 KiB) is excluded here because it is
    // version-side and bounded by the chunking, not the file.
    let table = MatchTable::build(&signature);
    let resident_bytes = signature.resident_bytes() + table.resident_bytes();
    drop(table);

    let t = Instant::now();
    let script = generate_delta(&signature, version).expect("in-memory reader cannot fail");
    let gen_ns = t.elapsed().as_nanos();
    let gen_mib_s = mib_per_s(version.len() as u64, gen_ns);

    // The batched scan kernel must be a pure speedup: the byte-at-a-time
    // reference generator has to emit the identical command stream.
    let t = Instant::now();
    let scalar = generate_delta_scalar(&signature, version).expect("in-memory reader cannot fail");
    let scalar_gen_ns = t.elapsed().as_nanos();
    let scalar_gen_mib_s = mib_per_s(version.len() as u64, scalar_gen_ns);
    assert_eq!(
        script.commands(),
        scalar.commands(),
        "{chunking}: batched and scalar generators diverged"
    );
    drop(scalar);

    let rebuilt = ipr_delta::apply(&script, reference).expect("generated script applies");
    assert_eq!(rebuilt, version, "{chunking}: reconstruction differs");

    let delta_bytes = encoded_size(&script, Format::Ordered).expect("encodable script");

    Row {
        label: chunking.to_string(),
        blocks: signature.blocks().len(),
        sign_ns,
        sig_bytes,
        resident_bytes,
        gen_ns,
        gen_mib_s,
        scalar_gen_mib_s,
        delta_bytes,
        overhead: delta_bytes as f64 / local_delta_bytes.max(1) as f64,
    }
}

fn main() {
    let compare = baseline::compare_arg("remote_diff");
    let mib = env_usize("IPR_BENCH_REMOTE_MIB", 64);
    let (reference, version) = synthesize(mib, 0x5eed_0007);

    // The local baseline reads both files; its delta is the size to
    // beat-or-approach and its working set (reference + index) is what
    // the remote path's constant memory buys its way out of.
    let t = Instant::now();
    let local_script = GreedyDiffer::default().diff(&reference, &version);
    let local_ns = t.elapsed().as_nanos();
    let local_delta_bytes = encoded_size(&local_script, Format::Ordered).expect("encodable script");
    drop(local_script);

    let chunkings = [
        Chunking::Fixed(1024),
        Chunking::Fixed(8 * 1024),
        Chunking::Cdc(Default::default()),
    ];
    let rows: Vec<Row> = chunkings
        .iter()
        .map(|&c| bench_chunking(c, &reference, &version, local_delta_bytes))
        .collect();

    println!(
        "Remote diff: {mib} MiB reference, {} B version, local greedy delta {} B \
         ({:.1} MiB/s)\n",
        version.len(),
        local_delta_bytes,
        mib_per_s(version.len() as u64, local_ns),
    );
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>12} {:>10} {:>12} {:>12} {:>9}",
        "chunking",
        "blocks",
        "sign ms",
        "sig bytes",
        "resident B",
        "gen MiB/s",
        "scalar MiB/s",
        "delta bytes",
        "overhead"
    );
    for r in &rows {
        println!(
            "{:<22} {:>8} {:>10.1} {:>10} {:>12} {:>10.1} {:>12.1} {:>12} {:>8.2}x",
            r.label,
            r.blocks,
            r.sign_ns as f64 / 1e6,
            r.sig_bytes,
            r.resident_bytes,
            r.gen_mib_s,
            r.scalar_gen_mib_s,
            r.delta_bytes,
            r.overhead
        );
    }

    let Some(path) = compare else {
        let results = rows.iter().map(|r| {
            object! {
                "chunking": r.label.as_str(),
                "blocks": r.blocks,
                "sign_ns": r.sign_ns,
                "sig_bytes": r.sig_bytes,
                "resident_bytes": r.resident_bytes,
                "gen_ns": r.gen_ns,
                "gen_mib_per_s": fixed(r.gen_mib_s, 1),
                "scalar_gen_mib_per_s": fixed(r.scalar_gen_mib_s, 1),
                "delta_bytes": r.delta_bytes,
                "overhead_vs_local": fixed(r.overhead, 4),
            }
        });
        baseline::write(
            "remote_diff",
            object! {
                "reference_mib": mib,
                "version_bytes": version.len(),
                "local_greedy_delta_bytes": local_delta_bytes,
                "local_greedy_total_ns": local_ns,
                "results": results.collect::<Vec<_>>(),
            },
        );
        return;
    };
    let base = Baseline::load(&path);
    // Deterministic output and absolute MiB/s compare only on the same
    // synthetic pair.
    let same_corpus = base.same_corpus(&[
        ("reference_mib", mib as u64),
        ("version_bytes", version.len() as u64),
    ]);
    let mut gates = Ledger::new(&base);
    for r in &rows {
        let row = base.get("results").row(&[("chunking", &r.label)]);
        match row.get("delta_bytes").try_f64() {
            Ok(want) => gates.bound_if(
                same_corpus,
                &format!("{}: delta bytes", r.label),
                r.delta_bytes as f64,
                Bound::AtMost(want),
                &format!("{} vs baseline {want}", r.delta_bytes),
            ),
            Err(missing) => gates.info(&r.label, &missing),
        };
        if let Ok(want) = row.get("gen_mib_per_s").try_f64() {
            let ratio = r.gen_mib_s / want.max(f64::MIN_POSITIVE);
            gates.bound_if(
                same_corpus,
                &format!("{}: generation MiB/s", r.label),
                ratio,
                Bound::AtLeast(THROUGHPUT_FLOOR_RATIO),
                &format!("{:.1} vs baseline {want:.1} ({ratio:.2}x)", r.gen_mib_s),
            );
        }
        gates.bound(
            &format!("{}: delta vs local greedy", r.label),
            r.overhead,
            Bound::AtMost(OVERHEAD_CAP),
            &format!("{:.2}x", r.overhead),
        );
        let cap = RESIDENT_FIXED_ALLOWANCE + r.blocks * RESIDENT_CAP_PER_BLOCK;
        gates.bound(
            &format!("{}: resident bytes", r.label),
            r.resident_bytes as f64,
            Bound::AtMost(cap as f64),
            &format!("{} over {} blocks", r.resident_bytes, r.blocks),
        );
    }
    gates.finish();
}
