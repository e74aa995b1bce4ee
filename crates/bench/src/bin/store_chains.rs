//! Versioned object store: chain depth vs reconstruct latency,
//! compaction ratio, fsck throughput.
//!
//! A drifting release history (`IPR_BENCH_STORE_VERSIONS` versions of
//! `IPR_BENCH_STORE_BYTES` bytes each) is put into a throwaway
//! [`Store`] whose chain-depth cap (`IPR_BENCH_STORE_DEPTH_CAP`) is
//! deliberately smaller than the history, so compaction has work to do.
//! Three regions are measured:
//!
//! * **put** — delta-or-full staging plus the fsynced commit of every
//!   version (the write path, including all durability barriers);
//! * **get** — reconstruction of every version, bucketed by chain
//!   depth, before and after compaction (the paper's access-time /
//!   storage trade-off, here as delta-chain depth vs read latency).
//!   Each version is read five times and counts at its median read,
//!   so a bucket's `total_ns` sums per-version medians;
//! * **fsck** — the full CRC + reachability sweep over the compacted
//!   store, reported as bytes verified per second.
//!
//! Results land in `results/BENCH_store_chains.json`. Timing numbers
//! are host-dependent and never gated; the structural numbers (object
//! counts, chain depths, stored byte totals, fsck findings) are
//! deterministic functions of the seed and the differ, identical on
//! every machine.
//!
//! Run: `cargo run -p ipr-bench --release --bin store_chains`
//!
//! With `--compare <baseline.json>` the run gates instead of writing,
//! checking only machine-independent invariants, each exactly:
//!
//! * `max_depth_after` ≤ the depth cap (absolute, within-run);
//! * fsck finds nothing;
//! * the twelve structural keys (version and object counts, depths,
//!   collapsed chains, stored and live byte totals) equal the
//!   baseline's.

use ipr_bench::baseline::{self, Baseline, Bound, Json, Ledger};
use ipr_bench::{env_usize, mib_per_s, object};
use ipr_store::{fsck, Store};
use ipr_workloads::chain::{ChainPattern, VersionChain};
use ipr_workloads::content::ContentKind;
use std::time::Instant;

/// Per-depth reconstruct latency bucket.
#[derive(Clone, Copy, Default)]
struct DepthBucket {
    versions: u64,
    total_ns: u128,
    bytes: u64,
}

/// Timed reads of each version; its latency is their median, so one
/// slow read does not move a depth's row.
const READS_PER_VERSION: usize = 5;

/// Reads back every version, bucketing latency by chain depth.
/// Returns buckets indexed by depth (index 0 = full images).
fn read_sweep(store: &mut Store) -> Vec<DepthBucket> {
    let log: Vec<_> = store.log().to_vec();
    let mut buckets: Vec<DepthBucket> = Vec::new();
    for record in log {
        let depth = store
            .manifest()
            .depth(record.oid)
            .expect("logged version has a depth") as usize;
        if buckets.len() <= depth {
            buckets.resize(depth + 1, DepthBucket::default());
        }
        let mut samples = [0u128; READS_PER_VERSION];
        for sample in &mut samples {
            let t = Instant::now();
            let bytes = store.get(record.oid).expect("version reconstructs");
            *sample = t.elapsed().as_nanos();
            assert_eq!(bytes.len() as u64, record.len, "length drift");
        }
        samples.sort_unstable();
        let bucket = &mut buckets[depth];
        bucket.versions += 1;
        bucket.total_ns += samples[READS_PER_VERSION / 2];
        bucket.bytes += record.len;
    }
    buckets
}

fn print_buckets(label: &str, buckets: &[DepthBucket]) {
    println!("\n{label}:");
    println!(
        "{:<7} {:>9} {:>14} {:>14}",
        "depth", "versions", "avg µs/get", "MiB/s"
    );
    for (depth, b) in buckets.iter().enumerate() {
        if b.versions == 0 {
            continue;
        }
        let avg_us = b.total_ns as f64 / b.versions as f64 / 1e3;
        let mib_s = mib_per_s(b.bytes, b.total_ns);
        println!("{depth:<7} {:>9} {avg_us:>14.1} {mib_s:>14.1}", b.versions);
    }
}

fn buckets_json(buckets: &[DepthBucket]) -> Json {
    let rows = buckets.iter().enumerate().filter(|(_, b)| b.versions > 0);
    rows.map(|(depth, b)| {
        object! {
            "depth": depth,
            "versions": b.versions,
            "total_ns": b.total_ns,
            "bytes": b.bytes,
        }
    })
    .collect::<Vec<_>>()
    .into()
}

fn main() {
    let compare = baseline::compare_arg("store_chains");
    let versions = env_usize("IPR_BENCH_STORE_VERSIONS", 48);
    let version_bytes = env_usize("IPR_BENCH_STORE_BYTES", 64 * 1024);
    let depth_cap = env_usize("IPR_BENCH_STORE_DEPTH_CAP", 8) as u32;
    let chain = VersionChain::generate(
        4242,
        ContentKind::BinaryLike,
        version_bytes,
        versions,
        ChainPattern::Patches,
    );

    let root = ipr_store::scratch_dir(&std::env::temp_dir(), "bench");
    let mut store = Store::init(&root, depth_cap).expect("store init");

    // Put the whole history, head-chained: every version deltas off
    // the previous one, so the chain grows one hop per put until
    // compaction enforces the cap.
    let mut put_ns: u128 = 0;
    let mut delta_bytes_put: u64 = 0;
    let mut full_bytes_put: u64 = 0;
    for release in chain.releases() {
        let t = Instant::now();
        let outcome = store.put(release, None).expect("put succeeds");
        put_ns += t.elapsed().as_nanos();
        assert!(outcome.created, "workload versions are distinct");
        match outcome.kind {
            ipr_store::ObjectKind::Delta => delta_bytes_put += outcome.stored_bytes,
            ipr_store::ObjectKind::Full => full_bytes_put += outcome.stored_bytes,
        }
    }
    let objects_before = store.manifest().objects.len();
    let max_depth_before = store.manifest().max_depth();

    // Read path before compaction: latency as a function of depth.
    let buckets_before = read_sweep(&mut store);

    // Compact down to the cap, then read again.
    let t = Instant::now();
    let report = store.compact().expect("compact succeeds");
    let compact_ns = t.elapsed().as_nanos();
    let objects_after = store.manifest().objects.len();
    let buckets_after = read_sweep(&mut store);

    // fsck throughput over the compacted store.
    drop(store);
    let t = Instant::now();
    let fsck_report = fsck(&root, false).expect("fsck runs");
    let fsck_ns = t.elapsed().as_nanos();
    let fsck_mib_s = mib_per_s(fsck_report.bytes_checked, fsck_ns);

    println!(
        "Store chains: {versions} versions of {} KiB, depth cap {depth_cap}\n",
        version_bytes / 1024
    );
    println!(
        "put: {:.2} ms total ({} B delta + {} B full stored)",
        put_ns as f64 / 1e6,
        delta_bytes_put,
        full_bytes_put
    );
    print_buckets("reconstruct before compaction", &buckets_before);
    print_buckets("reconstruct after compaction", &buckets_after);
    let ratio = report.bytes_after as f64 / report.bytes_before.max(1) as f64;
    println!(
        "\ncompact: {:.2} ms, depth {} -> {}, {} chains collapsed, \
         {} objects dropped, {} -> {} live bytes ({ratio:.3}x)",
        compact_ns as f64 / 1e6,
        report.max_depth_before,
        report.max_depth_after,
        report.collapsed,
        report.dropped_objects,
        report.bytes_before,
        report.bytes_after
    );
    println!(
        "fsck: {} findings, {} versions, {} objects, {} B in {:.2} ms ({fsck_mib_s:.1} MiB/s)",
        fsck_report.findings.len(),
        fsck_report.versions_checked,
        fsck_report.objects_checked,
        fsck_report.bytes_checked,
        fsck_ns as f64 / 1e6
    );

    let _ = std::fs::remove_dir_all(&root);

    let structure = [
        ("versions", versions as u64),
        ("depth_cap", u64::from(depth_cap)),
        ("delta_bytes_put", delta_bytes_put),
        ("full_bytes_put", full_bytes_put),
        ("objects_before", objects_before as u64),
        ("objects_after", objects_after as u64),
        ("max_depth_before", u64::from(max_depth_before)),
        ("max_depth_after", u64::from(report.max_depth_after)),
        ("chains_collapsed", report.collapsed as u64),
        ("objects_dropped", report.dropped_objects as u64),
        ("live_bytes_before", report.bytes_before),
        ("live_bytes_after", report.bytes_after),
    ];
    let Some(path) = compare else {
        let mut body = Json::Object(
            structure
                .iter()
                .map(|&(key, value)| (key.to_string(), value.into()))
                .collect(),
        );
        body.append(object! {
            "version_bytes": version_bytes,
            "put_total_ns": put_ns,
            "compact_ns": compact_ns,
            "reconstruct_before": buckets_json(&buckets_before),
            "reconstruct_after": buckets_json(&buckets_after),
            "fsck": object! {
                "findings": fsck_report.findings.len(),
                "versions_checked": fsck_report.versions_checked,
                "objects_checked": fsck_report.objects_checked,
                "bytes_checked": fsck_report.bytes_checked,
                "total_ns": fsck_ns,
            },
        });
        baseline::write("store_chains", body);
        return;
    };
    // Counts, depths and stored byte totals are exact functions of the
    // seed and the differ, so any drift is a behavioural change.
    let base = Baseline::load(&path);
    let mut gates = Ledger::new(&base);
    gates.bound(
        "depth cap honoured",
        f64::from(report.max_depth_after),
        Bound::AtMost(f64::from(depth_cap)),
        &format!("max depth {}", report.max_depth_after),
    );
    gates.expect("fsck findings", fsck_report.findings.len() as u64, 0);
    for (key, got) in structure {
        gates.exact(key, got, base.get(key).u64());
    }
    gates.finish();
}
