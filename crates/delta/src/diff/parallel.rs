//! Parallel differencing over a shared immutable reference index:
//! scoped threads, disjoint `&mut` slices, no locks and no `unsafe`.
//! The phases:
//!
//! 1. **Index build** (`diff.index_build` span) — one immutable index over
//!    the reference. The footprint family shards the build by *slot
//!    range* across scoped threads (each worker owns a disjoint slice of
//!    the table, scans the whole reference and keeps only its slots —
//!    re-rolling the hash is a few arithmetic ops per byte, while the
//!    random table stores that dominate the build now hit a per-worker
//!    slice that fits lower in the cache hierarchy), which yields the
//!    same table for any worker count. The greedy family builds serially:
//!    it sorts its entries by seed hash with a radix partition and
//!    per-partition counting sorts that stay in L2, so it has no random
//!    table stores to spread across workers. With every offset indexed it
//!    rolls the hash over the reference twice; with checkpoints it rolls
//!    once and sorts only the offsets it keeps. The
//!    `diff.index_bytes` gauge reports what the arena holds afterwards.
//! 2. **Chunked scan** (`diff.scan` span) — the version file is cut into
//!    fixed-size chunks (a function of the version length only, never of
//!    the thread count, so output is identical for every `--threads`
//!    value) and chunks are scanned concurrently against the shared
//!    index, each emitting compact [`Seg`] runs into its own reused
//!    buffer. Matches are truncated at the chunk boundary. Workers
//!    re-install the caller's trace recorder, so their probe counters
//!    reach the same report at every thread count.
//! 3. **Seam stitching** (`diff.stitch` span) — a serial pass merges the
//!    per-chunk segments into one script: the last copy before a seam is
//!    re-extended forward across the boundary (recovering matches the
//!    truncation split), the first copy after a seam is extended backward
//!    over pending literals (the correcting differ's reclaim, applied
//!    across chunks), and adjacent runs coalesce through
//!    [`ScriptBuilder`]. The `diff.seam_bytes` counter reports how many
//!    version bytes stitching re-covered.
//!
//! Compression: a seam can only lose bytes where a chunk's fresh scan
//! resynchronizes differently than the serial scan would have, and
//! stitching re-extends through the common case (a match straddling the
//! boundary). The documented bound — checked by `tests/parallel_diff.rs`
//! and the `diff` fuzz oracle's bench gate — is `added_bytes(parallel) ≤
//! added_bytes(serial) + seams × 2 × seed_len` on non-adversarial inputs,
//! and the bench regression gate holds encoded parallel deltas within 2%
//! of serial on the experiment corpus.

use super::scratch::{self, DiffScratch, IndexScratch, Seg, EMPTY};
use super::{Differ, RollingHash, ScriptBuilder};
use crate::script::DeltaScript;
use std::ops::Range;

/// Default version-chunk size for the parallel scan. Small enough that
/// the 512 KiB experiment corpus fans out across 8 workers, large enough
/// that per-chunk overhead (rolling-hash warmup, one seam) is noise.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Versions smaller than this are scanned inline on the calling thread:
/// spawning workers to diff a few kilobytes costs more than the diff.
/// Chunk boundaries are unaffected, so the output does not change.
const INLINE_SCAN_BYTES: usize = 32 * 1024;

/// A differencing engine that can run under [`ParallelDiffer`]: its
/// reference index is built once into a [`DiffScratch`] and shared
/// immutably across concurrent chunk scans.
///
/// Implemented by [`GreedyDiffer`](super::GreedyDiffer),
/// [`OnePassDiffer`](super::OnePassDiffer) and
/// [`CorrectingDiffer`](super::CorrectingDiffer). The contract ties the
/// three methods together: `scan_chunk` over the full version range with
/// an index built by `build_index` must reproduce the engine's serial
/// scan decisions exactly, for any shard count.
pub trait IndexedDiffer: Differ + Sync {
    /// The shared immutable reference index the scan probes. Borrows the
    /// arena it was built into.
    type Index<'s>: Sync
    where
        Self: 's;

    /// Seed (minimum match) length.
    fn seed_len(&self) -> usize;

    /// Builds the reference index into `scratch`, optionally
    /// partitioning construction across up to `shards` scoped threads.
    /// The resulting index must not depend on `shards`.
    fn build_index<'s>(
        &self,
        reference: &[u8],
        shards: usize,
        scratch: &'s mut IndexScratch,
    ) -> Self::Index<'s>;

    /// Scans `version[range]` against the index, appending [`Seg`]s that
    /// exactly tile the range. Matches may be *verified* against bytes
    /// beyond `range.end` but must be truncated at it.
    fn scan_chunk(
        &self,
        index: &Self::Index<'_>,
        reference: &[u8],
        version: &[u8],
        range: Range<usize>,
        segs: &mut Vec<Seg>,
    );
}

/// Shared footprint-table index (one-pass and correcting differs).
///
/// `lasts` is empty for the one-pass differ, which keeps only the
/// first-writer candidate.
pub struct FootprintIndex<'s> {
    firsts: &'s [u32],
    lasts: &'s [u32],
    mask: u64,
}

impl FootprintIndex<'_> {
    /// First reference offset whose footprint landed in `hash`'s slot,
    /// or [`EMPTY`].
    #[inline]
    pub(crate) fn first(&self, hash: u64) -> u32 {
        self.firsts[(hash & self.mask) as usize]
    }

    /// Most recent reference offset for `hash`'s slot, or [`EMPTY`].
    /// Only meaningful when built with `with_lasts`.
    #[inline]
    pub(crate) fn last(&self, hash: u64) -> u32 {
        self.lasts[(hash & self.mask) as usize]
    }
}

/// Builds the footprint table shared by the constant-space differs.
///
/// Serial semantics per slot — `first` is the smallest reference offset
/// hashing there, `last` the largest — are order-free, so the parallel
/// build shards by *slot range*: each worker scans the whole reference
/// and stores only the slots it owns, via disjoint `&mut` slices.
pub(crate) fn build_footprint_index<'s>(
    reference: &[u8],
    seed_len: usize,
    table_bits: u32,
    with_lasts: bool,
    shards: usize,
    scratch: &'s mut IndexScratch,
) -> FootprintIndex<'s> {
    let size = 1usize << table_bits;
    let mask = (size - 1) as u64;
    scratch.firsts.clear();
    scratch.firsts.resize(size, EMPTY);
    scratch.lasts.clear();
    if with_lasts {
        scratch.lasts.resize(size, EMPTY);
    }
    // Offsets are u32 below the EMPTY sentinel: a reference past 4 GiB is
    // indexed up to the last offset that fits.
    let n = scratch::indexed_len((reference.len() + 1).saturating_sub(seed_len));
    if n > 0 {
        let shards = shards.clamp(1, size);
        let fill = |slot_lo: usize, firsts: &mut [u32], mut lasts: Option<&mut [u32]>| {
            let slot_hi = slot_lo + firsts.len();
            let mut h = RollingHash::new(&reference[..seed_len]);
            for (i, offset) in (0..n).zip(0u32..) {
                if i > 0 {
                    h.roll(reference[i - 1], reference[i + seed_len - 1]);
                }
                let slot = (h.hash() & mask) as usize;
                if slot < slot_lo || slot >= slot_hi {
                    continue;
                }
                if firsts[slot - slot_lo] == EMPTY {
                    firsts[slot - slot_lo] = offset;
                }
                if let Some(lasts) = lasts.as_deref_mut() {
                    lasts[slot - slot_lo] = offset;
                }
            }
        };
        if shards == 1 {
            fill(
                0,
                &mut scratch.firsts,
                with_lasts.then_some(&mut scratch.lasts),
            );
        } else {
            let per = size.div_ceil(shards);
            let fill = &fill;
            let mut lasts_slices: Vec<Option<&mut [u32]>> = if with_lasts {
                scratch.lasts.chunks_mut(per).map(Some).collect()
            } else {
                (0..shards).map(|_| None).collect()
            };
            std::thread::scope(|s| {
                for (t, firsts) in scratch.firsts.chunks_mut(per).enumerate() {
                    let lasts = lasts_slices[t].take();
                    s.spawn(move || fill(t * per, firsts, lasts));
                }
            });
        }
    }
    scratch.record_bytes();
    FootprintIndex {
        firsts: &scratch.firsts,
        lasts: &scratch.lasts,
        mask,
    }
}

/// Joins scoped workers explicitly. The end of a scope waits only for
/// their closures; a join also waits for each thread to exit and free
/// what it held, so the caller's heap is settled when the scope ends.
fn join_all<'s, T>(workers: impl IntoIterator<Item = std::thread::ScopedJoinHandle<'s, T>>) {
    for worker in workers {
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// Runs a differ serially through the shared-index machinery: one chunk,
/// one shard, segments emitted straight into the script. This is the code
/// path behind every engine's plain [`Differ::diff`], which is what routes
/// the serial differs through the reusable arena.
pub(super) fn diff_serial<D: IndexedDiffer>(
    differ: &D,
    scratch: &mut DiffScratch,
    reference: &[u8],
    version: &[u8],
) -> DeltaScript {
    let source_len = reference.len() as u64;
    let DiffScratch { index, segs, pool } = scratch;
    let mut builder = ScriptBuilder::from_pool(pool);
    if version.len() < differ.seed_len() || reference.len() < differ.seed_len() {
        builder.push_literal(version);
        return builder.finish_into_pool(source_len, pool);
    }
    let idx = differ.build_index(reference, 1, index);
    if segs.is_empty() {
        segs.push(Vec::new());
    }
    let buf = &mut segs[0];
    buf.clear();
    differ.scan_chunk(&idx, reference, version, 0..version.len(), buf);
    let mut pos = 0usize;
    for seg in buf.iter() {
        match *seg {
            Seg::Literal { len } => {
                builder.push_literal(&version[pos..pos + len as usize]);
                pos += len as usize;
            }
            Seg::Copy { from, len } => {
                builder.push_copy(from, len);
                pos += len as usize;
            }
        }
    }
    debug_assert_eq!(pos, version.len());
    builder.finish_into_pool(source_len, pool)
}

/// Parallel wrapper around an [`IndexedDiffer`].
///
/// Produces scripts that satisfy the same invariant as the wrapped engine
/// (`apply(diff(r, v), r) == v`, write-ordered, exactly tiling) and —
/// because chunk boundaries depend only on the version length — the
/// *identical* script for every thread count, including 1.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::{Differ, GreedyDiffer, ParallelDiffer};
/// use ipr_delta::apply;
///
/// let r: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
/// let mut v = r.clone();
/// v[100_000] ^= 0xff;
/// let differ = ParallelDiffer::new(GreedyDiffer::default()).with_threads(2);
/// let script = differ.diff(&r, &v);
/// assert_eq!(apply(&script, &r).unwrap(), v);
/// ```
#[derive(Clone, Debug)]
pub struct ParallelDiffer<D> {
    inner: D,
    threads: usize,
    chunk_bytes: usize,
}

impl<D: IndexedDiffer> ParallelDiffer<D> {
    /// Wraps `inner` with automatic thread count and the default chunk
    /// size.
    #[must_use]
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            threads: 0,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }

    /// Sets the worker thread count; `0` means
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the scan chunk size. Smaller chunks expose more parallelism
    /// and more seams; the output changes (deterministically) with this
    /// knob, never with the thread count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes == 0`.
    #[must_use]
    pub fn with_chunk_bytes(mut self, chunk_bytes: usize) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// The wrapped serial engine.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The worker count actually used: `threads`, or the host's available
    /// parallelism when `threads == 0` (minimum 1).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }

    /// Diffs `version` against `reference` using an explicit arena —
    /// the zero-allocation serving entry point.
    #[must_use]
    pub fn diff_with(
        &self,
        scratch: &mut DiffScratch,
        reference: &[u8],
        version: &[u8],
    ) -> DeltaScript {
        let _span = ipr_trace::span("diff");
        ipr_trace::with(|r| {
            r.add("diff.reference_bytes", reference.len() as u64);
            r.add("diff.version_bytes", version.len() as u64);
        });
        let source_len = reference.len() as u64;
        let seed_len = self.inner.seed_len();
        let DiffScratch { index, segs, pool } = scratch;
        if version.len() < seed_len || reference.len() < seed_len {
            let mut builder = ScriptBuilder::from_pool(pool);
            builder.push_literal(version);
            return builder.finish_into_pool(source_len, pool);
        }
        let nchunks = version.len().div_ceil(self.chunk_bytes);
        let threads = self.effective_threads().min(nchunks).max(1);
        ipr_trace::with(|r| {
            r.gauge("diff.threads", threads as u64);
            r.add("diff.chunks", nchunks as u64);
        });

        let idx = {
            let _span = ipr_trace::span("diff.index_build");
            // Sharding the build of a small reference costs more in thread
            // spawns than it saves; the index content is shard-invariant,
            // so this only changes execution, never output.
            let build_shards = if reference.len() < INLINE_SCAN_BYTES {
                1
            } else {
                threads
            };
            self.inner.build_index(reference, build_shards, index)
        };

        {
            let _span = ipr_trace::span("diff.scan");
            if segs.len() < nchunks {
                segs.resize_with(nchunks, Vec::new);
            }
            for buf in segs[..nchunks].iter_mut() {
                buf.clear();
            }
            let chunk_bytes = self.chunk_bytes;
            let chunk_range = |k: usize| -> Range<usize> {
                k * chunk_bytes..((k + 1) * chunk_bytes).min(version.len())
            };
            if threads == 1 || version.len() < INLINE_SCAN_BYTES {
                for (k, buf) in segs[..nchunks].iter_mut().enumerate() {
                    self.inner
                        .scan_chunk(&idx, reference, version, chunk_range(k), buf);
                }
            } else {
                let per = nchunks.div_ceil(threads);
                let idx = &idx;
                let inner = &self.inner;
                let chunk_range = &chunk_range;
                // Recorders are installed per thread: each worker
                // re-installs the caller's so its counters reach the same
                // report.
                let recorder = ipr_trace::installed();
                std::thread::scope(|s| {
                    let workers: Vec<_> = segs[..nchunks]
                        .chunks_mut(per)
                        .enumerate()
                        .map(|(t, bufs)| {
                            let recorder = recorder.clone();
                            s.spawn(move || {
                                let _guard = recorder.map(ipr_trace::install);
                                for (j, buf) in bufs.iter_mut().enumerate() {
                                    let k = t * per + j;
                                    inner.scan_chunk(idx, reference, version, chunk_range(k), buf);
                                }
                            })
                        })
                        .collect();
                    join_all(workers);
                });
            }
        }

        let _span = ipr_trace::span("diff.stitch");
        let (script, seam_bytes) =
            stitch(reference, version, self.chunk_bytes, &segs[..nchunks], pool);
        ipr_trace::add("diff.seam_bytes", seam_bytes);
        script
    }
}

impl<D: IndexedDiffer> Differ for ParallelDiffer<D> {
    fn diff(&self, reference: &[u8], version: &[u8]) -> DeltaScript {
        scratch::with_thread_scratch(|scratch| self.diff_with(scratch, reference, version))
    }

    fn name(&self) -> &'static str {
        match self.inner.name() {
            "greedy" => "parallel-greedy",
            "one-pass" => "parallel-one-pass",
            "correcting" => "parallel-correcting",
            _ => "parallel",
        }
    }
}

/// Merges per-chunk segments into the final script, re-extending matches
/// across seams. Returns the script and the number of version bytes the
/// seam extensions re-covered.
fn stitch(
    reference: &[u8],
    version: &[u8],
    chunk_bytes: usize,
    chunks: &[Vec<Seg>],
    pool: &mut crate::ScriptPool,
) -> (DeltaScript, u64) {
    let mut builder = ScriptBuilder::from_pool(pool);
    let mut v = 0usize; // absolute version cursor
                        // Reference offset one past the most recently pushed copy, while no
                        // literal has been pushed since (the forward-extension anchor).
    let mut last_copy_end: Option<u64> = None;
    let mut seam_bytes = 0u64;
    for (k, segs) in chunks.iter().enumerate() {
        let start = k * chunk_bytes;
        // Forward seam extension: continue the pre-seam copy while bytes
        // keep matching — this rejoins matches the chunk cut truncated.
        if k > 0 && v == start {
            if let Some(r) = last_copy_end {
                let ext =
                    super::kernel::common_prefix(&version[v..], &reference[r as usize..]) as u64;
                if ext > 0 {
                    builder.push_copy(r, ext);
                    v += ext as usize;
                    last_copy_end = Some(r + ext);
                    seam_bytes += ext;
                }
            }
        }
        // Bytes of this chunk already covered by a previous seam
        // extension; trim them off the front of the chunk's segments.
        let mut skip = (v.saturating_sub(start)) as u64;
        let mut seam_copy = k > 0; // first copy after the seam
        for seg in segs {
            match *seg {
                Seg::Literal { len } => {
                    let trimmed = skip.min(len);
                    skip -= trimmed;
                    let len = (len - trimmed) as usize;
                    if len == 0 {
                        continue;
                    }
                    builder.push_literal(&version[v..v + len]);
                    v += len;
                    last_copy_end = None;
                }
                Seg::Copy { from, len } => {
                    let trimmed = skip.min(len);
                    skip -= trimmed;
                    let (mut from, len) = (from + trimmed, len - trimmed);
                    if len == 0 {
                        continue;
                    }
                    let mut push_len = len;
                    if seam_copy && builder.pending_len() > 0 {
                        // Backward seam extension: reclaim pending
                        // literals (possibly from earlier chunks) that
                        // match the bytes just before this copy's source.
                        let reclaimable = builder.pending_len().min(from as usize).min(v);
                        let back = super::kernel::common_suffix(
                            &reference[from as usize - reclaimable..from as usize],
                            &version[v - reclaimable..v],
                        );
                        if back > 0 {
                            builder.reclaim_pending(back);
                            from -= back as u64;
                            push_len += back as u64;
                            seam_bytes += back as u64;
                        }
                    }
                    seam_copy = false;
                    builder.push_copy(from, push_len);
                    last_copy_end = Some(from + push_len);
                    v += len as usize;
                }
            }
        }
    }
    debug_assert_eq!(v, version.len(), "chunk segments must tile the version");
    (
        builder.finish_into_pool(reference.len() as u64, pool),
        seam_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;
    use crate::diff::{CorrectingDiffer, GreedyDiffer, OnePassDiffer};

    fn pair(len: usize) -> (Vec<u8>, Vec<u8>) {
        let reference: Vec<u8> = (0..len as u32).map(|i| (i * 17 % 251) as u8).collect();
        let mut version = reference.clone();
        for pos in [len / 7, len / 3, len / 2, 5 * len / 6] {
            version[pos] ^= 0x5a;
        }
        version.splice(len / 4..len / 4, (0..40u8).map(|b| b ^ 0xc3));
        (reference, version)
    }

    fn check_all<D: IndexedDiffer + Clone>(inner: D) {
        let (reference, version) = pair(10_000);
        let serial = inner.diff(&reference, &version);
        let mut scripts = Vec::new();
        for threads in [1usize, 2, 3, 8] {
            let differ = ParallelDiffer::new(inner.clone())
                .with_threads(threads)
                .with_chunk_bytes(1024);
            let script = differ.diff(&reference, &version);
            assert_eq!(
                apply(&script, &reference).unwrap(),
                version,
                "{} threads={threads}",
                differ.name()
            );
            scripts.push(script);
        }
        // Identical output for every thread count.
        for script in &scripts[1..] {
            assert_eq!(script.commands(), scripts[0].commands());
        }
        // Seam bound: 10 chunks → 9 seams.
        let seams = 9u64;
        assert!(
            scripts[0].added_bytes() <= serial.added_bytes() + seams * 2 * inner.seed_len() as u64,
            "parallel added {} vs serial {}",
            scripts[0].added_bytes(),
            serial.added_bytes()
        );
    }

    #[test]
    fn parallel_matches_serial_result_for_every_engine() {
        check_all(GreedyDiffer::default());
        check_all(OnePassDiffer::default());
        check_all(CorrectingDiffer::default());
    }

    #[test]
    fn single_chunk_is_bit_identical_to_serial() {
        let (reference, version) = pair(4_000);
        for threads in [1usize, 4] {
            let inner = GreedyDiffer::default();
            let serial = inner.diff(&reference, &version);
            let parallel = ParallelDiffer::new(inner)
                .with_threads(threads)
                .with_chunk_bytes(1 << 20)
                .diff(&reference, &version);
            assert_eq!(serial.commands(), parallel.commands());
        }
    }

    #[test]
    fn one_byte_chunks_still_tile() {
        let (reference, version) = pair(400);
        let differ = ParallelDiffer::new(OnePassDiffer::new(4, 10))
            .with_threads(3)
            .with_chunk_bytes(1);
        let script = differ.diff(&reference, &version);
        assert_eq!(apply(&script, &reference).unwrap(), version);
    }

    #[test]
    fn degenerate_inputs() {
        let differ = ParallelDiffer::new(GreedyDiffer::default()).with_threads(4);
        for (r, v) in [
            (&b""[..], &b""[..]),
            (&b""[..], &b"entirely new data, no reference"[..]),
            (&b"everything deleted"[..], &b""[..]),
            (&b"tiny"[..], &b"tiny"[..]),
        ] {
            let script = differ.diff(r, v);
            assert_eq!(apply(&script, r).unwrap(), v);
        }
    }

    #[test]
    fn identical_inputs_stitch_back_to_one_copy() {
        // Non-repeating data: every seed window is unique, so the greedy
        // probe limit cannot hide the full-length match at offset 0.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let differ = ParallelDiffer::new(GreedyDiffer::default()).with_threads(4);
        let script = differ.diff(&data, &data);
        // Seam stitching must merge the per-chunk copies back together.
        assert_eq!(script.copy_count(), 1, "{script:?}");
        assert_eq!(script.added_bytes(), 0);
    }

    #[test]
    fn names_report_the_wrapped_engine() {
        assert_eq!(
            ParallelDiffer::new(GreedyDiffer::default()).name(),
            "parallel-greedy"
        );
        assert_eq!(
            ParallelDiffer::new(OnePassDiffer::default()).name(),
            "parallel-one-pass"
        );
        assert_eq!(
            ParallelDiffer::new(CorrectingDiffer::default()).name(),
            "parallel-correcting"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_size_rejected() {
        let _ = ParallelDiffer::new(GreedyDiffer::default()).with_chunk_bytes(0);
    }

    #[test]
    fn recycling_scripts_into_the_pool_keeps_output_identical() {
        let (reference, version) = pair(5_000);
        let differ = ParallelDiffer::new(GreedyDiffer::default())
            .with_threads(2)
            .with_chunk_bytes(1024);
        let baseline = differ.diff_with(&mut DiffScratch::new(), &reference, &version);
        let mut scratch = DiffScratch::new();
        for _ in 0..3 {
            let script = differ.diff_with(&mut scratch, &reference, &version);
            assert_eq!(script, baseline);
            scratch.pool_mut().recycle(script);
        }
        assert!(scratch.pool_mut().spare_commands() > 0);
    }

    #[test]
    fn explicit_scratch_is_reusable_across_engines() {
        let mut scratch = DiffScratch::new();
        let (reference, version) = pair(5_000);
        let g = ParallelDiffer::new(GreedyDiffer::default()).with_threads(2);
        let c = ParallelDiffer::new(CorrectingDiffer::default()).with_threads(2);
        for _ in 0..3 {
            let sg = g.diff_with(&mut scratch, &reference, &version);
            let sc = c.diff_with(&mut scratch, &reference, &version);
            assert_eq!(apply(&sg, &reference).unwrap(), version);
            assert_eq!(apply(&sc, &reference).unwrap(), version);
        }
    }
}
