//! The streaming delta generator: version reader + reference signature
//! → [`DeltaScript`], in constant memory.
//!
//! This is the rsync generator recast to emit this workspace's delta
//! commands. The version file is consumed through a bounded
//! [`StreamWindow`] (one block plus one read-chunk of look-ahead), the
//! reference is represented *only* by its [`Signature`] — the full
//! reference is never resident — and matches become `copy` commands
//! against the reference offsets recorded in the signature. The
//! resulting script is write-ordered and exactly tiling (built through
//! [`ScriptBuilder`]), so it feeds the scratch applier, the in-place
//! converter and the engine unchanged.
//!
//! Two match strategies, picked by the signature's [`Layout`]:
//!
//! * **Fixed blocks** — the classic two-level rolling match: slide a
//!   block-sized window one byte at a time, maintain the weak checksum
//!   in O(1) per step, and only on a weak hit compute the strong hash
//!   to confirm. Consecutive block matches coalesce into one long copy
//!   (block-granular match extension) inside the builder. At end of
//!   stream the window shrinks byte by byte (the weak checksum also
//!   shrinks in O(1)) so a short final reference block still matches.
//! * **CDC chunks** — chunk the version with the same Gear parameters
//!   the signature used and look whole chunks up by weak-then-strong
//!   hash. Boundaries re-align after insertions/deletions, so matching
//!   never needs to slide.
//!
//! Negative weak lookups — almost every position when files diverge —
//! cost one bit probe in a scaled [`WeakFilter`] before touching the
//! block table (rsync's tag table), and the batched kernel in
//! [`super::scan`] probes eight positions per word pair so miss-runs
//! skip in bulk.

use super::cdc::CdcParams;
use super::scan::{self, WeakFilter, LANES};
use super::signature::{BlockSignature, Layout, Signature};
use super::strong::strong_of;
use super::weak::{weak_of, RollingWeak};
use crate::diff::ScriptBuilder;
use crate::script::DeltaScript;
use std::io::Read;

/// Read granularity of the streaming window.
const READ_CHUNK: usize = 64 * 1024;

/// Weak-checksum lookup structure over a signature's blocks.
///
/// A scaled [`WeakFilter`] rejects almost every non-matching window in
/// one probe; survivors binary-search an equal range inside a small
/// bucket of a contiguous key table (bucketed by the top weak bits, so
/// the search never chases the block table through an indirection).
/// Candidates preserve reference order within equal checksums, so the
/// generator deterministically prefers the earliest matching block.
#[derive(Clone, Debug)]
pub struct MatchTable<'a> {
    signature: &'a Signature,
    filter: WeakFilter,
    /// Block indices sorted by (weak, index).
    sorted: Vec<u32>,
    /// `keys[k]` is the weak checksum of block `sorted[k]` — contiguous
    /// and ascending, so equal-range searches touch only this array.
    keys: Vec<u32>,
    /// Bucket boundaries over `keys`: bucket `q` spans
    /// `keys[starts[q]..starts[q + 1]]`, where `q = weak >> bucket_shift`
    /// (monotone in the sort order).
    starts: Vec<u32>,
    bucket_shift: u32,
}

impl<'a> MatchTable<'a> {
    /// Indexes `signature` for matching.
    #[must_use]
    pub fn build(signature: &'a Signature) -> Self {
        let blocks = signature.blocks();
        let mut filter = WeakFilter::with_capacity(blocks.len());
        let mut sorted: Vec<u32> = (0..blocks.len() as u32).collect();
        sorted.sort_by_key(|&i| blocks[i as usize].weak);
        let keys: Vec<u32> = sorted.iter().map(|&i| blocks[i as usize].weak).collect();
        for block in blocks {
            filter.insert(block.weak);
        }
        // ~8 keys per bucket: the equal-range search stays within a
        // couple of cache lines while the boundary table stays small
        // relative to the per-block residency cap.
        let buckets = (blocks.len() / 8)
            .next_power_of_two()
            .clamp(1 << 10, 1 << 16);
        let bucket_shift = 32 - buckets.trailing_zeros();
        let mut starts = vec![0u32; buckets + 1];
        for &k in &keys {
            starts[(k >> bucket_shift) as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        Self {
            signature,
            filter,
            sorted,
            keys,
            starts,
            bucket_shift,
        }
    }

    /// The blocks whose weak checksum equals `weak`, in reference
    /// order. Usually empty, decided by one filter probe.
    #[must_use]
    pub fn candidates(&self, weak: u32) -> &[u32] {
        if !self.filter.contains(weak) {
            return &[];
        }
        let bucket = (weak >> self.bucket_shift) as usize;
        let lo = self.starts[bucket] as usize;
        let hi = self.starts[bucket + 1] as usize;
        // One shared slice: both equal-range bounds come off the same
        // contiguous key run instead of re-deriving the start bound.
        let keys = &self.keys[lo..hi];
        let start = keys.partition_point(|&k| k < weak);
        let end = start + keys[start..].partition_point(|&k| k == weak);
        &self.sorted[lo + start..lo + end]
    }

    /// The presence filter the batched scan kernel probes.
    #[must_use]
    pub fn filter(&self) -> &WeakFilter {
        &self.filter
    }

    /// In-memory footprint of signature + lookup structures — the
    /// generator's whole per-reference residency.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.signature.resident_bytes()
            + self.filter.resident_bytes()
            + (self.sorted.capacity() + self.keys.capacity() + self.starts.capacity()) * 4
    }
}

/// A bounded look-ahead window over a reader.
///
/// Holds at most `window + READ_CHUNK` bytes: the generator's memory is
/// independent of both file sizes. `make_available(n)` refills from the
/// reader and compacts consumed bytes in amortised O(1) per byte.
struct StreamWindow<R: Read> {
    reader: R,
    buf: Vec<u8>,
    start: usize,
    eof: bool,
}

impl<R: Read> StreamWindow<R> {
    fn new(reader: R, window: usize) -> Self {
        Self {
            reader,
            buf: Vec::with_capacity(window + 2 * READ_CHUNK),
            start: 0,
            eof: false,
        }
    }

    /// Bytes currently readable without touching the reader.
    fn available(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Tries to make `n` bytes available; fewer only at end of stream.
    fn make_available(&mut self, n: usize) -> std::io::Result<&[u8]> {
        while !self.eof && self.buf.len() - self.start < n {
            // Compact before growing past the high-water mark.
            if self.start > 0 && self.buf.len() + READ_CHUNK > self.buf.capacity() {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let old_len = self.buf.len();
            self.buf.resize(old_len + READ_CHUNK, 0);
            let got = self.reader.read(&mut self.buf[old_len..])?;
            self.buf.truncate(old_len + got);
            if got == 0 {
                self.eof = true;
            }
        }
        Ok(self.available())
    }

    /// Consumes `n` bytes from the front of the window.
    fn consume(&mut self, n: usize) {
        debug_assert!(self.start + n <= self.buf.len());
        self.start += n;
    }
}

/// Generates a delta script for the version streamed by `version`
/// against the reference described by `signature`.
///
/// Resident memory is the match table (≈ signature size) plus one
/// block-sized window — never the reference, never the whole version.
/// The emitted script is write-ordered, exactly tiling and valid
/// against `signature.source_len()`, so it plugs directly into
/// `apply`, `convert_to_in_place` and the [`Engine`] stages.
///
/// Emits a `remote.diff` span and the `remote.weak_hits` /
/// `remote.strong_matches` / `remote.false_weak` /
/// `remote.matched_bytes` / `remote.literal_bytes` /
/// `remote.scan_batches` / `remote.skip_bytes` counters.
///
/// [`Engine`]: https://docs.rs/ipr-pipeline
///
/// # Errors
///
/// Propagates reader errors; generation itself cannot fail.
///
/// # Example
///
/// ```
/// use ipr_delta::remote::{generate_delta, Chunking, Signature};
///
/// let reference = b"the quick brown fox jumps over the lazy dog".repeat(20);
/// let version = [&reference[..400], b" (annotated)", &reference[400..]].concat();
///
/// let signature = Signature::build(&reference, Chunking::Fixed(64)).unwrap();
/// let script = generate_delta(&signature, &version[..]).unwrap();
///
/// assert_eq!(ipr_delta::apply(&script, &reference).unwrap(), version);
/// // Almost everything matched; only the edit region ships literally.
/// assert!(script.added_bytes() < 200);
/// ```
pub fn generate_delta<R: Read>(signature: &Signature, version: R) -> std::io::Result<DeltaScript> {
    generate(signature, version, true)
}

/// Byte-at-a-time reference implementation of [`generate_delta`].
///
/// Identical to [`generate_delta`] except that the fixed-block path
/// never enters the batched [`scan`] kernel: every window position is
/// probed by one scalar [`RollingWeak::roll`]. The two must emit
/// byte-identical command streams — `tests/remote_scan.rs`, the
/// `remote` fuzz oracle and the `remote_diff` bench all pin the batched
/// path to this one.
///
/// # Errors
///
/// Propagates reader errors; generation itself cannot fail.
pub fn generate_delta_scalar<R: Read>(
    signature: &Signature,
    version: R,
) -> std::io::Result<DeltaScript> {
    generate(signature, version, false)
}

fn generate<R: Read>(
    signature: &Signature,
    version: R,
    batched: bool,
) -> std::io::Result<DeltaScript> {
    let _span = ipr_trace::span("remote.diff");
    let table = MatchTable::build(signature);
    let mut builder = ScriptBuilder::new();
    match signature.layout() {
        Layout::Fixed(block_len) => {
            generate_fixed(&table, version, block_len, &mut builder, batched)?;
        }
        Layout::Cdc(params) => generate_cdc(&table, version, params, &mut builder)?,
    }
    Ok(builder.finish(signature.source_len()))
}

/// [`generate_delta`] over in-memory bytes (infallible).
///
/// Produces exactly the same script as the streaming form; the `remote`
/// fuzz oracle holds the two equal across read granularities.
#[must_use]
pub fn generate_delta_bytes(signature: &Signature, version: &[u8]) -> DeltaScript {
    generate_delta(signature, version).expect("slice reads cannot fail")
}

/// The fixed-block rolling two-level match.
fn generate_fixed<R: Read>(
    table: &MatchTable<'_>,
    version: R,
    block_len: usize,
    builder: &mut ScriptBuilder,
    batched: bool,
) -> std::io::Result<()> {
    let mut window = StreamWindow::new(version, block_len);
    let mut weak = RollingWeak::new();
    let mut seeded = false;
    let mut stats = MatchStats::default();
    loop {
        // One byte beyond the window so a miss can roll instead of
        // reseeding.
        let avail = window.make_available(block_len + 1)?;
        if avail.is_empty() {
            break;
        }
        let win_len = avail.len().min(block_len);
        if !seeded || weak.len() as usize != win_len {
            weak.reseed(&avail[..win_len]);
            seeded = true;
        }
        if batched && avail.len() >= win_len + LANES {
            // Full window with ≥ one stride of look-ahead: let the
            // batched kernel skip the miss-run in bulk. It stops with
            // the rolling state exactly where the scalar loop would be,
            // so everything below is unchanged.
            let skip = scan::skip_misses(&mut weak, avail, table.filter());
            stats.scan_batches += skip.batches as u64;
            if skip.skipped > 0 {
                builder.push_literal(&avail[..skip.skipped]);
                stats.literal += skip.skipped as u64;
                stats.skip_bytes += skip.skipped as u64;
                window.consume(skip.skipped);
                continue;
            }
        }
        if let Some(block) = confirm(table, weak.digest(), &avail[..win_len], &mut stats) {
            builder.push_copy(block.offset, u64::from(block.len));
            stats.matched += u64::from(block.len);
            window.consume(win_len);
            seeded = false; // reseed over the next window
        } else {
            builder.push_byte(avail[0]);
            stats.literal += 1;
            if avail.len() > win_len {
                // Full window with look-ahead: slide.
                weak.roll(avail[0], avail[win_len]);
            } else {
                // End of stream: the window shrinks instead of sliding,
                // chasing a possible short final reference block.
                weak.shrink_front(avail[0]);
            }
            window.consume(1);
        }
    }
    stats.flush();
    Ok(())
}

/// The CDC whole-chunk match: re-chunk the version with the signature's
/// parameters, then match chunks by weak + strong hash.
fn generate_cdc<R: Read>(
    table: &MatchTable<'_>,
    version: R,
    params: CdcParams,
    builder: &mut ScriptBuilder,
) -> std::io::Result<()> {
    let mut chunker = super::cdc::Chunker::new(params);
    let mut window = StreamWindow::new(version, params.max);
    let mut stats = MatchStats::default();
    loop {
        let avail = window.make_available(params.max)?;
        if avail.is_empty() {
            break;
        }
        // Find this chunk's cut within the (max-bounded) look-ahead.
        let mut cut = avail.len();
        for (i, &b) in avail.iter().enumerate() {
            if chunker.push(b) {
                cut = i + 1;
                break;
            }
        }
        let chunk = &avail[..cut];
        if let Some(block) = confirm(table, weak_of(chunk), chunk, &mut stats) {
            builder.push_copy(block.offset, u64::from(block.len));
            stats.matched += u64::from(block.len);
        } else {
            builder.push_literal(chunk);
            stats.literal += chunk.len() as u64;
        }
        // A cut found at the end of a partial final window still leaves
        // the chunker mid-chunk state correct: `push` reset it on cut,
        // and an EOF chunk without a cut never recurs.
        window.consume(cut);
    }
    stats.flush();
    Ok(())
}

/// Weak hit → strong confirmation. Returns the earliest matching block.
fn confirm<'a>(
    table: &'a MatchTable<'_>,
    weak: u32,
    window: &[u8],
    stats: &mut MatchStats,
) -> Option<&'a BlockSignature> {
    let candidates = table.candidates(weak);
    if candidates.is_empty() {
        return None;
    }
    stats.weak_hits += 1;
    let blocks = table.signature.blocks();
    let mut strong = None;
    for &i in candidates {
        let block = &blocks[i as usize];
        if block.len as usize != window.len() {
            continue;
        }
        let strong = *strong.get_or_insert_with(|| strong_of(window));
        if block.strong == strong {
            stats.strong_matches += 1;
            return Some(block);
        }
    }
    stats.false_weak += 1;
    None
}

/// Locally accumulated counters, flushed once per generation so the
/// per-byte hot loop never crosses the recorder.
#[derive(Default)]
struct MatchStats {
    weak_hits: u64,
    strong_matches: u64,
    false_weak: u64,
    matched: u64,
    literal: u64,
    scan_batches: u64,
    skip_bytes: u64,
}

impl MatchStats {
    fn flush(&self) {
        ipr_trace::with(|r| {
            r.add("remote.weak_hits", self.weak_hits);
            r.add("remote.strong_matches", self.strong_matches);
            r.add("remote.false_weak", self.false_weak);
            r.add("remote.matched_bytes", self.matched);
            r.add("remote.literal_bytes", self.literal);
            r.add("remote.scan_batches", self.scan_batches);
            r.add("remote.skip_bytes", self.skip_bytes);
        });
    }
}

/// A [`Read`] adaptor that CRC-32s and counts everything passing
/// through — how the CLI computes the delta trailer checksum of a
/// version it never holds in memory.
///
/// # Example
///
/// ```
/// use ipr_delta::remote::CrcReader;
/// use std::io::Read;
///
/// let mut tee = CrcReader::new(&b"stream me"[..]);
/// let mut out = Vec::new();
/// tee.read_to_end(&mut out).unwrap();
/// assert_eq!(tee.crc(), ipr_delta::checksum::crc32(b"stream me"));
/// assert_eq!(tee.bytes_read(), 9);
/// ```
pub struct CrcReader<R> {
    inner: R,
    crc: crate::checksum::Crc32,
    bytes: u64,
}

impl<R: Read> CrcReader<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            crc: crate::checksum::Crc32::new(),
            bytes: 0,
        }
    }

    /// CRC-32 of the bytes read so far.
    #[must_use]
    pub fn crc(&self) -> u32 {
        self.crc.finish()
    }

    /// Number of bytes read so far.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;
    use crate::remote::Chunking;

    fn pseudo(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect()
    }

    /// A reader delivering at most `chunk` bytes per call.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.data.len().min(buf.len()).min(self.chunk);
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn check(reference: &[u8], version: &[u8], chunking: Chunking) -> DeltaScript {
        let sig = Signature::build(reference, chunking).unwrap();
        let script = generate_delta_bytes(&sig, version);
        assert_eq!(
            apply(&script, reference).unwrap(),
            version,
            "{chunking} failed on {}B -> {}B",
            reference.len(),
            version.len()
        );
        assert!(script.is_write_ordered());
        // The batched scan must emit the scalar scan's command stream.
        let scalar = generate_delta_scalar(&sig, version).unwrap();
        assert_eq!(
            scalar.commands(),
            script.commands(),
            "{chunking} batched scan diverged from scalar"
        );
        // Stream granularity must not change the output.
        for chunk in [1, 7, 1024] {
            let streamed = generate_delta(
                &sig,
                Trickle {
                    data: version,
                    chunk,
                },
            )
            .unwrap();
            assert_eq!(
                streamed.commands(),
                script.commands(),
                "{chunking} differs at read chunk {chunk}"
            );
        }
        script
    }

    fn chunkings() -> [Chunking; 4] {
        [
            Chunking::Fixed(64),
            Chunking::Fixed(1000),
            Chunking::Cdc(CdcParams {
                min: 16,
                avg: 64,
                max: 256,
            }),
            Chunking::Cdc(CdcParams {
                min: 64,
                avg: 512,
                max: 2048,
            }),
        ]
    }

    #[test]
    fn identical_files_are_pure_copies() {
        let data = pseudo(30_000, 1);
        for chunking in chunkings() {
            let script = check(&data, &data, chunking);
            assert_eq!(script.added_bytes(), 0, "{chunking}");
            // All blocks coalesce into one copy.
            assert_eq!(script.len(), 1, "{chunking}");
        }
    }

    #[test]
    fn disjoint_files_are_pure_literals() {
        let reference = pseudo(10_000, 2);
        let version = pseudo(9_000, 3);
        for chunking in chunkings() {
            let script = check(&reference, &version, chunking);
            assert_eq!(script.added_bytes(), 9_000, "{chunking}");
        }
    }

    #[test]
    fn edits_ship_mostly_copies() {
        let reference = pseudo(40_000, 4);
        // Insert near the front, delete in the middle, mutate the tail.
        let mut version = reference.clone();
        version.splice(1000..1000, pseudo(100, 5));
        version.drain(20_000..21_000);
        let n = version.len();
        version[n - 500..].copy_from_slice(&pseudo(500, 6));
        for chunking in chunkings() {
            let script = check(&reference, &version, chunking);
            let max_block = chunking.resolve(reference.len() as u64).max_block_len() as u64;
            // Each of the three edit sites can spoil at most a couple of
            // blocks around it.
            assert!(
                script.added_bytes() < 1600 + 8 * max_block,
                "{chunking}: {} literal bytes",
                script.added_bytes()
            );
        }
    }

    #[test]
    fn degenerate_shapes() {
        for chunking in chunkings() {
            check(b"", b"", chunking);
            check(b"", b"brand new content", chunking);
            check(b"all gone", b"", chunking);
            check(b"x", b"x", chunking);
            let run = vec![9u8; 5_000];
            check(&run, &run, chunking);
            check(&run, &pseudo(5_000, 7), chunking);
        }
    }

    #[test]
    fn short_final_block_matches_at_stream_tail() {
        // Reference tail block is 10 bytes; a version sharing the tail
        // must copy it, exercising the shrinking-window path.
        let reference = pseudo(1_034, 8); // 16×64 + 10
        let version = [&pseudo(50, 9)[..], &reference[..]].concat();
        let sig = Signature::build(&reference, Chunking::Fixed(64)).unwrap();
        let script = generate_delta_bytes(&sig, &version);
        assert_eq!(apply(&script, &reference).unwrap(), version);
        // 50 prefix literals + one coalesced whole-reference copy.
        assert_eq!(script.added_bytes(), 50);
        let copied: u64 = script.copies().iter().map(|c| c.len).sum();
        assert_eq!(copied, 1_034);
    }

    #[test]
    fn match_table_candidates_agree_with_scan() {
        let data = pseudo(8_192, 10);
        let sig = Signature::build(&data, Chunking::Fixed(32)).unwrap();
        let table = MatchTable::build(&sig);
        for block in sig.blocks() {
            let c = table.candidates(block.weak);
            assert!(c
                .iter()
                .any(|&i| sig.blocks()[i as usize].offset == block.offset));
        }
        assert!(table.resident_bytes() > sig.resident_bytes());
    }

    #[test]
    fn candidates_return_the_exact_equal_range() {
        // A reference of repeated pages: many blocks share one weak
        // checksum, and `candidates` must return all of them, in
        // reference order, with nothing else — the equal-range bounds
        // off the hoisted bucket slice.
        let page = pseudo(64, 11);
        let reference: Vec<u8> = page
            .iter()
            .copied()
            .cycle()
            .take(64 * 37)
            .chain(pseudo(64 * 5, 12))
            .collect();
        let sig = Signature::build(&reference, Chunking::Fixed(64)).unwrap();
        let table = MatchTable::build(&sig);
        for weak in sig.blocks().iter().map(|b| b.weak) {
            let expected: Vec<u32> = (0..sig.blocks().len() as u32)
                .filter(|&i| sig.blocks()[i as usize].weak == weak)
                .collect();
            assert_eq!(table.candidates(weak), expected, "weak {weak:#010x}");
        }
        // The repeated page shares one equal range of 37 entries.
        assert_eq!(table.candidates(sig.blocks()[0].weak).len(), 37);
        // An absent checksum that may pass the filter still resolves to
        // an empty range through the same bucket search.
        let absent = (0..u32::MAX)
            .find(|w| sig.blocks().iter().all(|b| b.weak != *w))
            .unwrap();
        assert!(table.candidates(absent).is_empty());
    }
}
