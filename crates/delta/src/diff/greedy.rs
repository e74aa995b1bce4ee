//! Greedy differencing: index the reference's seed offsets, take the
//! longest match at each version position.
//!
//! By default every offset is indexed and every version position probed.
//! With a checkpoint interval p > 1 (ABFLS checkpointing, DESIGN.md §3)
//! both sides keep only the seeds whose value passes one test, so the
//! index and its build shrink p-fold and most positions skip the lookup.
//! The test depends on content, not on offset, so the reference and the
//! version pick the same seeds around an insertion or a deletion, and a
//! match found at a checkpoint is extended backward over the literal run
//! before it. Content with no checkpoint for a long stretch, such as a
//! fill whose few distinct windows all fail the test, is still indexed at
//! a bounded gap and probed at every position.

use super::indexed::{extend_back, IndexedDiffer};
use super::kernel;
use super::rolling::RollingHash;
use super::scratch::{self, IndexScratch};
use super::{Differ, ScriptBuilder};
use crate::script::DeltaScript;

/// Greedy byte-granularity differencing (after Reichenberger '91).
///
/// Indexes the `seed_len`-byte window at every reference offset (or at
/// every checkpoint, see [`GreedyDiffer::with_checkpoint_interval`]),
/// sorted by seed hash, then scans the version file byte by byte,
/// extending the longest verified match at each position. Compression is
/// strong; time and memory are proportional to the reference size with
/// worst cases quadratic in pathological self-similar inputs (bounded by
/// `max_probes`).
///
/// # Example
///
/// ```
/// use ipr_delta::diff::{Differ, GreedyDiffer};
/// use ipr_delta::apply;
///
/// let r = b"the quick brown fox jumps over the lazy dog".to_vec();
/// let v = b"the quick red fox jumps over the lazy dog".to_vec();
/// let script = GreedyDiffer::default().diff(&r, &v);
/// assert_eq!(apply(&script, &r).unwrap(), v);
/// ```
#[derive(Clone, Debug)]
pub struct GreedyDiffer {
    seed_len: usize,
    max_probes: usize,
    /// Checkpoint interval p, a power of two; 1 indexes every offset.
    interval: usize,
}

impl Default for GreedyDiffer {
    /// 16-byte seeds, at most 64 probed candidates per position, every
    /// reference offset indexed.
    fn default() -> Self {
        Self {
            seed_len: 16,
            max_probes: 64,
            interval: 1,
        }
    }
}

/// The [`GreedyDiffer::sampled`] checkpoint interval, chosen by the sweep
/// in DESIGN.md §8.
const SAMPLED_INTERVAL: usize = 8;

/// The longest run of seed offsets, in checkpoint intervals, that a
/// sampled index leaves without an entry. Random content has such a run
/// about once in e^8 ≈ 3000 offsets, so the cap costs it almost nothing.
const GAP_INTERVALS: usize = 8;

impl GreedyDiffer {
    /// Creates a differ with a custom seed (minimum match) length.
    ///
    /// # Panics
    ///
    /// Panics if `seed_len == 0`.
    #[must_use]
    pub fn new(seed_len: usize) -> Self {
        assert!(seed_len > 0, "seed length must be positive");
        Self {
            seed_len,
            ..Self::default()
        }
    }

    /// The differ of every `ipr_pipeline::Engine` built without an
    /// explicit one: the default seeds and probe limit, indexing and
    /// probing one seed in about 8.
    #[must_use]
    pub fn sampled() -> Self {
        Self::default().with_checkpoint_interval(SAMPLED_INTERVAL)
    }

    /// Limits how many candidate offsets are verified per position.
    #[must_use]
    pub fn with_max_probes(mut self, max_probes: usize) -> Self {
        self.max_probes = max_probes.max(1);
        self
    }

    /// Indexes and probes only checkpoint seeds: those whose mixed hash
    /// has `(key >> 8) & (interval - 1) == 0`, about one in `interval`.
    /// A found match is extended backward over the literal bytes the
    /// scan skipped. A fill of period k (erased flash, a repeated word)
    /// has only k distinct windows, which may all fail the test; so the
    /// index never skips more than `8 × interval` offsets in a row, and
    /// once the scan has passed that many non-checkpoints in a row it
    /// probes every position. At 1, every seed is a checkpoint and the
    /// output is the full index's.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not a power of two.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: usize) -> Self {
        assert!(
            interval.is_power_of_two(),
            "checkpoint interval must be a power of two"
        );
        self.interval = interval;
        self
    }

    /// The configured seed length.
    #[must_use]
    pub fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// The configured checkpoint interval.
    #[must_use]
    pub fn checkpoint_interval(&self) -> usize {
        self.interval
    }

    /// Whether the seed with mixed hash `key` is a checkpoint. The bits
    /// tested are above the filter's and below the bucket number's.
    #[inline]
    fn is_checkpoint(&self, key: u64) -> bool {
        (key >> 8) & (self.interval as u64 - 1) == 0
    }

    /// The longest run of seed offsets the index leaves without an entry,
    /// and the number of non-checkpoints in a row after which the scan
    /// probes every position.
    fn max_gap(&self) -> usize {
        GAP_INTERVALS * self.interval
    }
}

/// Entries per radix partition, log2. A partition holds 16–32 Ki
/// `(key, offset)` entries, 192–384 KiB, so it and the buffer it is
/// counting-sorted through both stay in L2.
const PARTITION_LOG2: u32 = 14;

/// Moves per entry the insertion sort of one bucket may make before the
/// bucket is heap-sorted instead, so no bucket costs more than
/// `O(k log k)`.
const INSERTION_MOVES: usize = 32;

/// Extra key bits the partition's counting sort orders by below the
/// bucket number, so buckets come out nearly sorted.
const SUB_BITS: u32 = 2;

/// Bucket-number bits of an index of `n` entries: about n/4 buckets, a
/// power of two in (n/6, n/3]. A key's bucket is its top this-many bits.
fn bucket_bits(n: usize) -> u32 {
    (n / 3).max(2).ilog2()
}

/// The splitmix64 finalizer. It is a bijection on `u64`, so two offsets
/// share a key exactly when they share a seed hash; and its top bits,
/// which pick the partition and bucket, are uniform where the
/// Karp–Rabin polynomial's are not.
#[inline]
fn mix(hash: u64) -> u64 {
    let mut z = hash;
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The filter bits a key sets in its bucket's filter word: two of 16,
/// from key bits the bucket number does not use.
#[inline]
fn filter_bits(key: u64) -> u16 {
    (1 << (key & 15)) | (1 << (key >> 4 & 15))
}

/// Shared greedy reference index: every reference offset, or every
/// checkpoint, sorted by seed hash.
///
/// Each indexed offset is a `(key, offset)` entry with `key = mix(hash)`, held in
/// two parallel arrays sorted by key, offsets descending within a key.
/// The key's top bits pick a bucket, which has a start in `starts` and a
/// 16-bit filter of its keys. Most version positions probe a hash the
/// reference lacks, and the filter, two bytes per bucket, rules most of
/// those out alone. Otherwise the lookup searches the bucket's few
/// contiguous keys; the offsets of the key's run are the candidates,
/// newest first — the order the chain index this replaced produced, so
/// probe windows and output are unchanged.
pub struct GreedyIndex<'s> {
    keys: &'s [u64],
    offsets: &'s [u32],
    starts: &'s [u32],
    filters: &'s [u16],
    /// A key's bucket is `key >> shift`.
    shift: u32,
}

impl GreedyIndex<'_> {
    /// Iterates candidate offsets for the mixed seed hash `key`, most
    /// recent first. The run is walked lazily: the scan takes at most
    /// `max_probes` of it.
    fn candidates(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let bucket = (key >> self.shift) as usize;
        let bits = filter_bits(key);
        let (first, end) = if self.filters[bucket] & bits == bits {
            let lo = self.starts[bucket] as usize;
            let hi = self.starts[bucket + 1] as usize;
            (lo + self.keys[lo..hi].partition_point(|&k| k < key), hi)
        } else {
            (0, 0)
        };
        self.keys[first..end]
            .iter()
            .zip(&self.offsets[first..end])
            .take_while(move |&(&k, _)| k == key)
            .map(|(_, &offset)| offset as usize)
    }
}

/// Sorts one bucket by key, keeping equal keys in their current
/// (newest-first) order.
///
/// The counting sort leaves buckets nearly sorted, and insertion sort
/// costs one move per inversion: nothing for a long run of one key (the
/// buckets self-similar references fill), little for a few other keys
/// among it. Many inversions — several long runs interleaved — hand
/// the bucket to a heap sort. Offsets are distinct, so (key ascending,
/// offset descending) is a total order and the heap sort lands on the
/// same result the stable insertion sort would.
fn sort_bucket(keys: &mut [u64], offsets: &mut [u32]) {
    let len = keys.len();
    let mut budget = len.saturating_mul(INSERTION_MOVES);
    for i in 1..len {
        let (key, offset) = (keys[i], offsets[i]);
        let mut j = i;
        while j > 0 && keys[j - 1] > key {
            keys[j] = keys[j - 1];
            offsets[j] = offsets[j - 1];
            j -= 1;
        }
        keys[j] = key;
        offsets[j] = offset;
        budget = match budget.checked_sub(i - j) {
            Some(left) => left,
            None => return heap_sort(keys, offsets),
        };
    }
}

/// Sorts by (key ascending, offset descending) in `O(k log k)`.
fn heap_sort(keys: &mut [u64], offsets: &mut [u32]) {
    let len = keys.len();
    for root in (0..len / 2).rev() {
        sift_down(keys, offsets, root, len);
    }
    for end in (1..len).rev() {
        keys.swap(0, end);
        offsets.swap(0, end);
        sift_down(keys, offsets, 0, end);
    }
}

/// Restores the max-heap property below `root` within `..end`.
fn sift_down(keys: &mut [u64], offsets: &mut [u32], mut root: usize, end: usize) {
    let before = |keys: &[u64], offsets: &[u32], a: usize, b: usize| {
        keys[a] < keys[b] || (keys[a] == keys[b] && offsets[a] > offsets[b])
    };
    loop {
        let mut child = 2 * root + 1;
        if child >= end {
            return;
        }
        if child + 1 < end && before(keys, offsets, child, child + 1) {
            child += 1;
        }
        if !before(keys, offsets, root, child) {
            return;
        }
        keys.swap(root, child);
        offsets.swap(root, child);
        root = child;
    }
}

/// Calls `f(key, offset)` for the first `n` seed offsets of `reference`,
/// in offset order. Re-rolling the hash is cheaper than storing every key
/// and reading it back, so each build pass that needs the keys rolls.
fn for_each_key(reference: &[u8], seed_len: usize, n: usize, mut f: impl FnMut(u64, u32)) {
    if n == 0 {
        return;
    }
    let mut h = RollingHash::new(&reference[..seed_len]);
    for (i, offset) in (0..n).zip(0u32..) {
        if i > 0 {
            h.roll(reference[i - 1], reference[i + seed_len - 1]);
        }
        f(mix(h.hash()), offset);
    }
}

/// The entries an index holds, in offset order.
enum Entries<'a> {
    /// Every seed offset below `n`, rolled afresh on each pass.
    Every {
        reference: &'a [u8],
        seed_len: usize,
        n: usize,
    },
    /// The offsets kept, rolled once into the partition buffer.
    Sampled { keys: &'a [u64], offsets: &'a [u32] },
}

impl Entries<'_> {
    fn for_each(&self, mut f: impl FnMut(u64, u32)) {
        match *self {
            Entries::Every {
                reference,
                seed_len,
                n,
            } => for_each_key(reference, seed_len, n, f),
            Entries::Sampled { keys, offsets } => {
                for (&key, &offset) in keys.iter().zip(offsets) {
                    f(key, offset);
                }
            }
        }
    }
}

impl GreedyDiffer {
    /// Rolls the hash over the first `n` seed offsets of `reference` once
    /// and keeps, in offset order, every checkpoint and, where none comes
    /// sooner, the offset [`Self::max_gap`] past the last one kept.
    fn roll_checkpoints(
        &self,
        reference: &[u8],
        n: usize,
        keys: &mut Vec<u64>,
        offsets: &mut Vec<u32>,
    ) {
        // About one seed in `interval` is a checkpoint; an eighth more
        // room absorbs the spread without regrowing.
        let room = n / self.interval;
        let room = room + room / 8;
        keys.clear();
        keys.reserve(room);
        offsets.clear();
        offsets.reserve(room);
        let max_gap = self.max_gap();
        let mut run = 0;
        for_each_key(reference, self.seed_len, n, |key, offset| {
            run += 1;
            if self.is_checkpoint(key) || run == max_gap {
                run = 0;
                keys.push(key);
                offsets.push(offset);
            }
        });
    }
}

impl IndexedDiffer for GreedyDiffer {
    type Index<'s> = GreedyIndex<'s>;

    fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// Builds the sorted index. At checkpoint interval 1 it rolls the
    /// hash twice, and every other pass streams through memory or stays
    /// within one L2-sized partition. Above 1 it rolls once into the
    /// partition buffer and sorts only what it kept. Each phase is a
    /// child span of `diff.index_build`: `.roll` (above 1 only; at 1 the
    /// hash is rolled inside the scatter), `.scatter` and `.sort`.
    fn build_index(&self, reference: &[u8], scratch: &mut IndexScratch) {
        let seed_len = self.seed_len;
        let positions = scratch::indexed_len((reference.len() + 1).saturating_sub(seed_len));
        let IndexScratch {
            keys,
            offsets,
            starts,
            filters,
            part_keys,
            part_offsets,
            counts,
            ..
        } = scratch;
        let (entries, n) = if self.interval == 1 {
            let every = Entries::Every {
                reference,
                seed_len,
                n: positions,
            };
            (every, positions)
        } else {
            let _span = ipr_trace::span("diff.index_build.roll");
            self.roll_checkpoints(reference, positions, part_keys, part_offsets);
            let sampled = Entries::Sampled {
                keys: part_keys,
                offsets: part_offsets,
            };
            (sampled, part_keys.len())
        };
        // About n/4 buckets, in partitions of 16–32 Ki entries; each
        // partition owns `1 << local_bits` consecutive buckets.
        let bucket_bits = bucket_bits(n);
        let part_bits = (n >> PARTITION_LOG2).max(1).ilog2().min(bucket_bits);
        let local_bits = bucket_bits - part_bits;
        let (parts, per_part) = (1usize << part_bits, 1usize << local_bits);
        let shift = 64 - bucket_bits;
        let part_of = |key: u64| (key >> shift) as usize >> local_bits;
        counts.clear();
        counts.resize(parts.max(per_part << SUB_BITS), 0);
        let scatter = ipr_trace::span("diff.index_build.scatter");

        // 1. Count each partition's entries.
        entries.for_each(|key, _| counts[part_of(key)] += 1);

        // 2. Radix-partition by the top key bits into `keys`/`offsets`;
        //    offsets stay ascending within a partition. Each partition's
        //    start goes into `starts` at its first bucket, which step 3
        //    writes there anyway. Every entry is overwritten before it
        //    is read, and resizing a warm arena to the same length
        //    touches nothing.
        keys.resize(n, 0);
        offsets.resize(n, 0);
        starts.resize((1 << bucket_bits) + 1, 0);
        filters.resize(1 << bucket_bits, 0);
        let largest = counts[..parts].iter().max().map_or(0, |&c| c as usize);
        let mut at = 0u32;
        for (p, count) in counts[..parts].iter_mut().enumerate() {
            starts[p << local_bits] = at;
            at += std::mem::replace(count, at);
        }
        starts[parts << local_bits] = at;
        entries.for_each(|key, offset| {
            let cursor = &mut counts[part_of(key)];
            keys[*cursor as usize] = key;
            offsets[*cursor as usize] = offset;
            *cursor += 1;
        });
        drop(scatter);
        let _span = ipr_trace::span("diff.index_build.sort");

        // 3. Counting-sort each partition through the partition buffer
        //    into its buckets, order each bucket by key, and copy it back.
        //    Sampled entries are scattered by now, so the buffer that held
        //    them is free.
        part_keys.resize(largest, 0);
        part_offsets.resize(largest, 0);
        let sub_shift = shift - SUB_BITS;
        let sub_mask = (per_part << SUB_BITS) - 1;
        for p in 0..parts {
            let base = p << local_bits;
            let (lo, hi) = (starts[base] as usize, starts[base + per_part] as usize);
            let cursors = &mut counts[..per_part << SUB_BITS];
            cursors.fill(0);
            for &key in &keys[lo..hi] {
                cursors[(key >> sub_shift) as usize & sub_mask] += 1;
            }
            let mut at = 0u32;
            for (s, cursor) in cursors.iter_mut().enumerate() {
                if s & ((1 << SUB_BITS) - 1) == 0 {
                    starts[base + (s >> SUB_BITS)] = lo as u32 + at;
                }
                at += std::mem::replace(cursor, at);
            }
            // Walking the partition backwards fills every bucket newest
            // offset first.
            for j in (lo..hi).rev() {
                let key = keys[j];
                let cursor = &mut cursors[(key >> sub_shift) as usize & sub_mask];
                part_keys[*cursor as usize] = key;
                part_offsets[*cursor as usize] = offsets[j];
                *cursor += 1;
            }
            for b in base..base + per_part {
                let (from, end) = (starts[b] as usize - lo, starts[b + 1] as usize - lo);
                sort_bucket(&mut part_keys[from..end], &mut part_offsets[from..end]);
                filters[b] = part_keys[from..end]
                    .iter()
                    .fold(0, |f, &k| f | filter_bits(k));
            }
            keys[lo..hi].copy_from_slice(&part_keys[..hi - lo]);
            offsets[lo..hi].copy_from_slice(&part_offsets[..hi - lo]);
        }
        scratch.record_bytes();
    }

    /// The four tables, and the bucket shift their entry count fixes.
    fn index<'s>(&self, scratch: &'s IndexScratch) -> GreedyIndex<'s> {
        GreedyIndex {
            keys: &scratch.keys,
            offsets: &scratch.offsets,
            starts: &scratch.starts,
            filters: &scratch.filters,
            shift: 64 - bucket_bits(scratch.keys.len()),
        }
    }

    fn scan(
        &self,
        index: &GreedyIndex<'_>,
        reference: &[u8],
        version: &[u8],
        out: &mut ScriptBuilder,
    ) {
        let seed_len = self.seed_len;
        let last_window = version.len() - seed_len;
        let mut v = 0;
        let mut lit_start = 0; // where the pending literal run starts
        let mut probes = 0u64;
        let mut extend_bytes = 0u64;
        // Non-checkpoints in a row since the version start, the last
        // checkpoint or the last copy. From `max_gap` on the reference
        // may hold a gap entry for this content, so every position is
        // probed.
        let max_gap = self.max_gap();
        let mut run = 0;
        let mut h = RollingHash::new(&version[..seed_len]);
        let mut hash_pos = v; // position the rolling hash currently covers
        while v <= last_window {
            h.slide(version, hash_pos, v);
            hash_pos = v;
            let key = mix(h.hash());
            run = if self.is_checkpoint(key) { 0 } else { run + 1 };
            if run > 0 && run < max_gap {
                v += 1;
                continue;
            }
            let mut best_from = 0usize;
            let mut best_len = 0usize;
            let v_room = version.len() - v;
            for c in index.candidates(key).take(self.max_probes) {
                probes += 1;
                if best_len > 0 {
                    // One-load prune: a candidate can only beat `best_len`
                    // if its match covers index `best_len` too, so bytes
                    // there must be equal. Rejects dominated candidates
                    // without touching their seed windows. (`v + best_len`
                    // is in bounds: probing stops once a match reaches the
                    // end of the version.)
                    if reference.len() - c <= best_len
                        || reference[c + best_len] != version[v + best_len]
                    {
                        continue;
                    }
                }
                if !kernel::windows_eq(&reference[c..c + seed_len], &version[v..v + seed_len]) {
                    continue; // hash collision
                }
                let len = seed_len
                    + kernel::common_prefix(&reference[c + seed_len..], &version[v + seed_len..]);
                extend_bytes += (len - seed_len) as u64;
                if len > best_len {
                    best_len = len;
                    best_from = c;
                    if best_len == v_room {
                        break; // nothing can beat a match to the end
                    }
                }
            }
            if best_len >= seed_len {
                // Between checkpoints the scan passed literals without
                // looking; the match extends backward over them. At
                // interval 1 every byte before the match was probed
                // already; the full index skips this, so its output stays
                // what it was.
                let back = if self.interval > 1 {
                    extend_back(reference, best_from, version, lit_start, v)
                } else {
                    0
                };
                extend_bytes += back as u64;
                out.push_literal_then_copy(
                    &version[lit_start..v - back],
                    (best_from - back) as u64,
                    (best_len + back) as u64,
                );
                v += best_len;
                lit_start = v;
                run = 0;
            } else {
                v += 1;
            }
        }
        // The pending literal run, with the tail shorter than a seed.
        out.end_literal_run(&version[lit_start..]);
        if probes > 0 {
            ipr_trace::with(|r| {
                r.add("diff.probes", probes);
                r.add("diff.extend_bytes", extend_bytes);
            });
        }
    }
}

impl Differ for GreedyDiffer {
    fn diff(&self, reference: &[u8], version: &[u8]) -> DeltaScript {
        scratch::with_thread_scratch(|s| self.diff_with(s, reference, version))
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;
    use crate::diff::hash_of;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Reference model of the index: every seed hash's indexed offsets in
    /// a chain, newest first — the hash-chain index the sorted one
    /// replaced, keeping only checkpoints, and any offset whose
    /// `max_gap - 1` predecessors were all left out.
    fn naive_index(differ: &GreedyDiffer, reference: &[u8]) -> HashMap<u64, Vec<usize>> {
        let mut chains: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut kept = Vec::new();
        let gap = differ.max_gap() - 1;
        for (offset, window) in reference.windows(differ.seed_len).enumerate() {
            let indexed = differ.is_checkpoint(mix(hash_of(window)))
                || (offset >= gap && !kept[offset - gap..].contains(&true));
            kept.push(indexed);
            let chain = chains.entry(hash_of(window)).or_default();
            if indexed {
                chain.push(offset);
            }
        }
        for chain in chains.values_mut() {
            chain.reverse();
        }
        chains
    }

    /// Builds the index of `reference` at checkpoint interval `interval`
    /// into `scratch` and checks it against the model: every seed hash
    /// yields its exact chain (none if no offset of it was kept), and
    /// `absent`, unless the reference has it, yields nothing.
    fn matches_model(
        scratch: &mut IndexScratch,
        reference: &[u8],
        seed_len: usize,
        interval: usize,
        absent: u64,
    ) -> Result<(), TestCaseError> {
        let differ = GreedyDiffer::new(seed_len).with_checkpoint_interval(interval);
        let model = naive_index(&differ, reference);
        differ.build_index(reference, scratch);
        let index = differ.index(scratch);
        for (&hash, chain) in &model {
            let got: Vec<usize> = index.candidates(mix(hash)).collect();
            prop_assert_eq!(&got, chain, "seed hash {:#x} at p = {}", hash, interval);
        }
        if !model.contains_key(&absent) {
            prop_assert_eq!(index.candidates(mix(absent)).count(), 0);
        }
        Ok(())
    }

    /// `len` bytes repeating `period`.
    fn periodic(period: &[u8], len: usize) -> Vec<u8> {
        period.iter().copied().cycle().take(len).collect()
    }

    /// `len` xorshift bytes from `seed`.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sort_bucket_matches_a_stable_sort_by_key() {
        // Keys drawn from a few values (`distinct == 1`: one run,
        // already in order), offsets descending as the counting sort
        // leaves them. The 1000-entry buckets with several keys run
        // out of insertion moves and take the heap sort.
        for len in [0, 1, 2, 15, 16, 17, 100, 1000] {
            for distinct in [1, 3, 64] {
                let mut keys: Vec<u64> = noise(len, len as u64 + distinct)
                    .into_iter()
                    .map(|b| u64::from(b) % distinct)
                    .collect();
                let mut offsets: Vec<u32> = (0..len as u32).rev().collect();
                let mut expected: Vec<(u64, u32)> =
                    keys.iter().copied().zip(offsets.iter().copied()).collect();
                expected.sort_by_key(|&(key, _)| key);
                sort_bucket(&mut keys, &mut offsets);
                let got: Vec<(u64, u32)> = keys.into_iter().zip(offsets).collect();
                assert_eq!(got, expected, "len {len}, {distinct} distinct keys");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arbitrary references, over a two-letter alphabet half the
        /// time so windows repeat and buckets fill with runs of equal
        /// keys, each at checkpoint intervals 1, 2 and 16. Each build
        /// reuses an arena that last indexed another reference.
        #[test]
        fn index_matches_chain_model(
            bytes in proptest::collection::vec(any::<u8>(), 0..3000),
            previous in proptest::collection::vec(any::<u8>(), 0..500),
            narrow in any::<bool>(),
            seed_len in 1usize..20,
            absent in any::<u64>(),
        ) {
            let reference: Vec<u8> = if narrow {
                bytes.iter().map(|b| b & 1).collect()
            } else {
                bytes
            };
            let mut scratch = IndexScratch::default();
            for interval in [1, 2, 16] {
                matches_model(&mut scratch, &previous, seed_len, interval, absent)?;
                matches_model(&mut scratch, &reference, seed_len, interval, absent)?;
            }
        }
    }

    #[test]
    fn index_matches_chain_model_on_self_similar_references() {
        let mut scratch = IndexScratch::default();
        for interval in [1, 2, 16] {
            for seed_len in [1, 2, 3, 4, 16] {
                for period in [&b"\0"[..], b"ab", b"abc"] {
                    for len in [0, seed_len - 1, seed_len, 1000, 70_000] {
                        let reference = periodic(period, len);
                        matches_model(&mut scratch, &reference, seed_len, interval, 0x5eed)
                            .unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn index_matches_chain_model_across_partitions() {
        // Over 32 Ki indexed offsets at every interval, so the build uses
        // several partitions, with random stretches and long periodic
        // ones in one reference.
        let mut reference = noise(1_200_000, 0x9e37_79b9_7f4a_7c15);
        reference[20_000..60_000].fill(0);
        reference.splice(90_000..90_000, periodic(b"xyz", 30_000));
        let mut scratch = IndexScratch::default();
        for interval in [1, 2, 16] {
            matches_model(&mut scratch, &reference, 16, interval, 1).unwrap();
        }
    }

    /// The bytes the arena holds after building `differ`'s index of a
    /// 1 MiB reference, per reference byte; the `diff.index_bytes` gauge
    /// reports the same total.
    fn index_bytes_per_reference_byte(differ: &GreedyDiffer) -> f64 {
        let reference = noise(1 << 20, 0x2545_f491_4f6c_dd1d);
        let stats = std::sync::Arc::new(ipr_trace::StatsRecorder::new());
        let mut scratch = IndexScratch::default();
        {
            let _guard = ipr_trace::install(stats.clone());
            differ.build_index(&reference, &mut scratch);
        }
        let bytes = stats.report().gauge("diff.index_bytes");
        assert_eq!(bytes, Some(scratch.retained_bytes()));
        scratch.retained_bytes() as f64 / reference.len() as f64
    }

    /// The full index with its build scratch: 12 B of entries per offset,
    /// about 1.5 B of bucket starts and filters, and one partition's
    /// sort buffer — against 40 B for the hash-chain index.
    #[test]
    fn index_bytes_stay_under_16_per_reference_byte() {
        let per_byte = index_bytes_per_reference_byte(&GreedyDiffer::default());
        assert!(per_byte <= 16.0, "{per_byte:.2} B per reference byte");
    }

    /// The sampled index holds an eighth of the entries, 1.7 B per
    /// reference byte with its starts and filters, and the checkpoint
    /// list it sorts them out of, which is also the partition buffer.
    #[test]
    fn sampled_index_bytes_stay_under_4_per_reference_byte() {
        let per_byte = index_bytes_per_reference_byte(&GreedyDiffer::sampled());
        assert!(per_byte <= 4.0, "{per_byte:.2} B per reference byte");
    }

    fn check(reference: &[u8], version: &[u8]) -> DeltaScript {
        let script = GreedyDiffer::default().diff(reference, version);
        assert_eq!(apply(&script, reference).unwrap(), version);
        script
    }

    #[test]
    fn identical_files_one_copy() {
        let data = b"0123456789abcdef0123456789abcdef".repeat(8);
        let script = check(&data, &data);
        assert_eq!(script.copy_count(), 1);
        assert_eq!(script.add_count(), 0);
        assert_eq!(script.copied_bytes(), data.len() as u64);
    }

    #[test]
    fn point_edit_three_commands() {
        let reference: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let mut version = reference.clone();
        version[100] ^= 0xff;
        let script = check(&reference, &version);
        // copy, small add (1 byte), copy
        assert!(script.copy_count() >= 2, "{script:?}");
        assert!(script.added_bytes() <= 2);
    }

    #[test]
    fn insertion_detected() {
        let reference = b"A common prefix string here. And a common suffix string too!".to_vec();
        let mut version = reference.clone();
        version.splice(29..29, b"<<<INSERTED MATERIAL>>>".iter().copied());
        let script = check(&reference, &version);
        assert!(script.copied_bytes() > 40);
    }

    #[test]
    fn block_move_found() {
        let a: Vec<u8> = (0..100u32).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..100u32).map(|i| ((i * 7 + 3) % 251) as u8).collect();
        let reference = [a.clone(), b.clone()].concat();
        let version = [b, a].concat();
        let script = check(&reference, &version);
        // Both halves should be found as copies, nearly nothing literal.
        assert!(script.added_bytes() < 20, "{}", script.added_bytes());
    }

    #[test]
    fn unrelated_files_mostly_adds() {
        let reference = vec![0u8; 500];
        let version: Vec<u8> = (0..500u32).map(|i| (i * 37 % 251) as u8).collect();
        let script = check(&reference, &version);
        assert!(script.added_bytes() > 400);
    }

    #[test]
    fn custom_seed_len() {
        let d = GreedyDiffer::new(4);
        assert_eq!(d.seed_len(), 4);
        let reference = b"abcdefgh".to_vec();
        let version = b"xxabcdefghxx".to_vec();
        let script = d.diff(&reference, &version);
        assert_eq!(apply(&script, &reference).unwrap(), version);
        assert!(script.copied_bytes() >= 8);
    }

    /// A point edit and an insertion, both far from the file ends: the
    /// sampled scan emits the bytes between checkpoints as literals and
    /// backward extension reclaims them, so it adds exactly the bytes the
    /// full index adds.
    #[test]
    fn sampled_scan_adds_what_the_full_index_adds() {
        let reference = noise(64 << 10, 0x1234_5678_9abc_def1);
        let mut version = reference.clone();
        version[20_000] ^= 0x55;
        version.splice(40_000..40_000, noise(300, 99));
        let full = check(&reference, &version);
        let sampled = GreedyDiffer::sampled().diff(&reference, &version);
        assert_eq!(apply(&sampled, &reference).unwrap(), version);
        assert_eq!(full.added_bytes(), 301);
        assert_eq!(sampled.added_bytes(), full.added_bytes());
    }

    /// Fills of period 1, 2 and 4, with and without a checkpoint among
    /// their windows: a whole image of the fill with one byte edited,
    /// and a fill moved between two noise blocks and shifted by a byte.
    /// Without the gap cap a fill with no checkpoint was all literal
    /// (65,536 B added against the full index's 1 for `55 aa`). Now the
    /// sampled differ adds at most a seed and a period more: a copy that
    /// ends just before an edit can leave windows whose only checkpoints
    /// overlap the edit.
    #[test]
    fn sampled_scan_finds_periodic_fills() {
        let sampled = GreedyDiffer::sampled();
        let no_checkpoint = |period: &[u8]| {
            let windows = periodic(period, period.len() + sampled.seed_len);
            windows
                .windows(sampled.seed_len)
                .all(|w| !sampled.is_checkpoint(mix(hash_of(w))))
        };
        let periods: [&[u8]; 7] = [
            &[0x00],
            &[0xff],
            &[0x55, 0xaa],
            &[0x12, 0x34],
            &[0xde, 0xad, 0xbe, 0xef],
            &[0x00, 0x00, 0x00, 0x01],
            &[0x01, 0x00, 0x02, 0x00],
        ];
        let without = periods.iter().filter(|p| no_checkpoint(p)).count();
        assert!(without >= 2, "the case the gap cap is for is covered");
        let (a, b) = (noise(24 << 10, 1), noise(24 << 10, 2));
        for period in periods {
            let image = periodic(period, 64 << 10);
            let mut edited = image.clone();
            edited[40_000] ^= 0x5a;
            let fill = periodic(period, 8 << 10);
            let reference = [&a[..], &fill, &b].concat();
            let moved = [&b[..], &a, &fill[1..]].concat();
            for (reference, version) in [(&image, &edited), (&reference, &moved)] {
                let full = check(reference, version);
                let script = sampled.diff(reference, version);
                assert_eq!(&apply(&script, reference).unwrap(), version);
                assert!(
                    script.added_bytes()
                        <= full.added_bytes() + (sampled.seed_len + period.len()) as u64,
                    "{period:02x?}: sampled adds {}, full {}",
                    script.added_bytes(),
                    full.added_bytes()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn checkpoint_interval_must_be_a_power_of_two() {
        let _ = GreedyDiffer::default().with_checkpoint_interval(12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_seed_rejected() {
        let _ = GreedyDiffer::new(0);
    }
}
