//! Greedy differencing: index every reference offset, take the longest
//! match at each version position.

use super::kernel;
use super::parallel::IndexedDiffer;
use super::rolling::RollingHash;
use super::scratch::{self, IndexScratch, Seg};
use super::Differ;
use crate::script::DeltaScript;
use std::ops::Range;

/// Greedy byte-granularity differencing (after Reichenberger '91).
///
/// Indexes the `seed_len`-byte window at *every* reference offset, sorted
/// by seed hash, then scans the version file byte by byte, extending the
/// longest verified match at each position. Compression is strong; time
/// and memory are proportional to the reference size with worst cases
/// quadratic in pathological self-similar inputs (bounded by
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
}

impl Default for GreedyDiffer {
    /// 16-byte seeds, at most 64 probed candidates per position.
    fn default() -> Self {
        Self {
            seed_len: 16,
            max_probes: 64,
        }
    }
}

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

    /// Limits how many candidate offsets are verified per position.
    #[must_use]
    pub fn with_max_probes(mut self, max_probes: usize) -> Self {
        self.max_probes = max_probes.max(1);
        self
    }

    /// The configured seed length.
    #[must_use]
    pub fn seed_len(&self) -> usize {
        self.seed_len
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

/// Shared greedy reference index: every reference offset, sorted by seed
/// hash.
///
/// Each offset is a `(key, offset)` entry with `key = mix(hash)`, held in
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
    /// Iterates candidate offsets for `hash`, most recent first. The
    /// run is walked lazily: the scan takes at most `max_probes` of it.
    fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let key = mix(hash);
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

impl IndexedDiffer for GreedyDiffer {
    type Index<'s> = GreedyIndex<'s>;

    fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// Builds the sorted index serially; `shards` is ignored. Every pass
    /// streams through memory or stays within one L2-sized partition, so
    /// splitting the build across threads does not pay.
    fn build_index<'s>(
        &self,
        reference: &[u8],
        _shards: usize,
        scratch: &'s mut IndexScratch,
    ) -> GreedyIndex<'s> {
        let seed_len = self.seed_len;
        let n = scratch::indexed_len((reference.len() + 1).saturating_sub(seed_len));
        // About n/4 buckets (a power of two in (n/6, n/3]), in
        // partitions of 16–32 Ki entries; each partition owns
        // `1 << local_bits` consecutive buckets.
        let bucket_bits = (n / 3).max(2).ilog2();
        let part_bits = (n >> PARTITION_LOG2).max(1).ilog2().min(bucket_bits);
        let local_bits = bucket_bits - part_bits;
        let (parts, per_part) = (1usize << part_bits, 1usize << local_bits);
        let shift = 64 - bucket_bits;
        let part_of = |key: u64| (key >> shift) as usize >> local_bits;
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
        counts.clear();
        counts.resize(parts.max(per_part << SUB_BITS), 0);

        // 1. Count each partition's entries.
        for_each_key(reference, seed_len, n, |key, _| counts[part_of(key)] += 1);

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
        part_keys.resize(largest, 0);
        part_offsets.resize(largest, 0);
        let mut at = 0u32;
        for (p, count) in counts[..parts].iter_mut().enumerate() {
            starts[p << local_bits] = at;
            at += std::mem::replace(count, at);
        }
        starts[parts << local_bits] = at;
        for_each_key(reference, seed_len, n, |key, offset| {
            let cursor = &mut counts[part_of(key)];
            keys[*cursor as usize] = key;
            offsets[*cursor as usize] = offset;
            *cursor += 1;
        });

        // 3. Counting-sort each partition through the partition buffer
        //    into its buckets, order each bucket by key, and copy it back.
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
        GreedyIndex {
            keys: &scratch.keys,
            offsets: &scratch.offsets,
            starts: &scratch.starts,
            filters: &scratch.filters,
            shift,
        }
    }

    fn scan_chunk(
        &self,
        index: &GreedyIndex<'_>,
        reference: &[u8],
        version: &[u8],
        range: Range<usize>,
        segs: &mut Vec<Seg>,
    ) {
        let seed_len = self.seed_len;
        let last_window = version.len() - seed_len;
        let (mut v, end) = (range.start, range.end);
        if v >= end {
            return;
        }
        if v > last_window {
            scratch::push_lit(segs, (end - v) as u64);
            return;
        }
        let mut probes = 0u64;
        let mut extend_bytes = 0u64;
        let mut h = RollingHash::new(&version[v..v + seed_len]);
        let mut hash_pos = v; // position the rolling hash currently covers
        while v < end && v <= last_window {
            // Advance the rolling hash to position v: roll byte by byte
            // for short hops, re-seed in O(seed_len) after a long copy
            // (the catch-up would otherwise cost O(copy_len)).
            if hash_pos < v {
                if v - hash_pos >= seed_len {
                    h.reseed(&version[v..v + seed_len]);
                    hash_pos = v;
                } else {
                    while hash_pos < v {
                        h.roll(version[hash_pos], version[hash_pos + seed_len]);
                        hash_pos += 1;
                    }
                }
            }
            let mut best_from = 0usize;
            let mut best_len = 0usize;
            let v_room = version.len() - v;
            for c in index.candidates(h.hash()).take(self.max_probes) {
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
                // Truncate at the chunk boundary; stitching re-extends.
                let emit = best_len.min(end - v);
                scratch::push_copy(segs, best_from as u64, emit as u64);
                v += emit;
            } else {
                scratch::push_lit(segs, 1);
                v += 1;
            }
        }
        // Tail shorter than a seed: emit literally.
        if v < end {
            scratch::push_lit(segs, (end - v) as u64);
        }
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
        let _span = ipr_trace::span("diff");
        ipr_trace::with(|r| {
            r.add("diff.reference_bytes", reference.len() as u64);
            r.add("diff.version_bytes", version.len() as u64);
        });
        scratch::with_thread_scratch(|s| super::parallel::diff_serial(self, s, reference, version))
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

    /// Reference model of the index: every seed hash's offsets in a
    /// chain, newest first — the hash-chain index the sorted one
    /// replaced.
    fn naive_index(reference: &[u8], seed_len: usize) -> HashMap<u64, Vec<usize>> {
        let mut chains: HashMap<u64, Vec<usize>> = HashMap::new();
        for (offset, window) in reference.windows(seed_len).enumerate() {
            chains.entry(hash_of(window)).or_default().push(offset);
        }
        for chain in chains.values_mut() {
            chain.reverse();
        }
        chains
    }

    /// Builds the index of `reference` into `scratch` and checks it
    /// against the model: every seed hash yields its exact chain, and
    /// `absent`, unless the reference has it, yields nothing.
    fn matches_model(
        scratch: &mut IndexScratch,
        reference: &[u8],
        seed_len: usize,
        absent: u64,
    ) -> Result<(), TestCaseError> {
        let model = naive_index(reference, seed_len);
        let index = GreedyDiffer::new(seed_len).build_index(reference, 1, scratch);
        for (&hash, chain) in &model {
            let got: Vec<usize> = index.candidates(hash).collect();
            prop_assert_eq!(&got, chain, "seed hash {:#x}", hash);
        }
        if !model.contains_key(&absent) {
            prop_assert_eq!(index.candidates(absent).count(), 0);
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
        /// keys. Each build reuses an arena that last indexed another
        /// reference.
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
            matches_model(&mut scratch, &previous, seed_len, absent)?;
            matches_model(&mut scratch, &reference, seed_len, absent)?;
        }
    }

    #[test]
    fn index_matches_chain_model_on_self_similar_references() {
        let mut scratch = IndexScratch::default();
        for seed_len in [1, 2, 3, 4, 16] {
            for period in [&b"\0"[..], b"ab", b"abc"] {
                for len in [0, seed_len - 1, seed_len, 1000, 70_000] {
                    let reference = periodic(period, len);
                    matches_model(&mut scratch, &reference, seed_len, 0x5eed).unwrap();
                }
            }
        }
    }

    #[test]
    fn index_matches_chain_model_across_partitions() {
        // Over 32 Ki offsets, so the build uses several partitions, with
        // random stretches and long periodic ones in one reference.
        let mut reference = noise(150_000, 0x9e37_79b9_7f4a_7c15);
        reference[20_000..60_000].fill(0);
        reference.splice(90_000..90_000, periodic(b"xyz", 30_000));
        matches_model(&mut IndexScratch::default(), &reference, 16, 1).unwrap();
    }

    /// The index with its build scratch: 12 B of entries per offset,
    /// about 1.5 B of bucket starts and filters, and one partition's
    /// sort buffer — against 40 B for the hash-chain index.
    #[test]
    fn index_bytes_stay_under_16_per_reference_byte() {
        let reference = noise(1 << 20, 0x2545_f491_4f6c_dd1d);
        let stats = std::sync::Arc::new(ipr_trace::StatsRecorder::new());
        let mut scratch = IndexScratch::default();
        {
            let _guard = ipr_trace::install(stats.clone());
            let _ = GreedyDiffer::default().build_index(&reference, 1, &mut scratch);
        }
        let bytes = stats.report().gauge("diff.index_bytes");
        assert_eq!(bytes, Some(scratch.retained_bytes()));
        let per_byte = scratch.retained_bytes() as f64 / reference.len() as f64;
        assert!(per_byte <= 16.0, "{per_byte:.2} B per reference byte");
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

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_seed_rejected() {
        let _ = GreedyDiffer::new(0);
    }
}
