//! Shared match kernels: the byte-comparison primitives every differ's
//! inner loop is built from.
//!
//! The three differ families spend most of their time answering the same
//! three questions — *does this seed window match?*, *how far does the
//! match extend forward?*, *how far does it extend backward?* — and the
//! natural byte-at-a-time loops answer them one compare-and-branch per
//! byte. The kernels here answer them a word at a time: load `u64`
//! chunks from both sides, XOR them, and read the first differing byte
//! off `trailing_zeros` (forward) or `leading_zeros` (backward). On a
//! match-heavy workload this turns 8 compare/branch pairs into one
//! load/load/xor/test, the same shape of win as rsync's block compare
//! and zstd's `ZSTD_count`.
//!
//! # Why word-wide compares are safe at buffer tails
//!
//! All kernels take plain slices and never read past them: the word loop
//! runs over `chunks_exact(8)` / `rchunks_exact(8)` of the *shorter*
//! slice and the sub-word remainder is compared bytewise. There is no
//! padding, no alignment requirement (Rust's `from_le_bytes` on a
//! 8-byte slice compiles to an unaligned load on every target we care
//! about) and no `unsafe`. A caller holding `&reference[c..]` can pass
//! the slice tail directly; the kernel stops at the end on its own.
//!
//! Byte order: `from_le_bytes` maps the *lowest-indexed* byte of a chunk
//! to the least significant byte of the word, so the first differing
//! byte in slice order is the lowest non-zero byte of the XOR —
//! `trailing_zeros() / 8`. For backward scans over `rchunks_exact` the
//! highest-indexed byte is most significant, so the count of matching
//! bytes from the end is `leading_zeros() / 8`.

/// Length of the common prefix of `a` and `b`, in bytes.
///
/// Equivalent to the naive loop
/// `while i < min && a[i] == b[i] { i += 1 }` — asserted against it on
/// arbitrary slices by this module's `kernels_match_naive_loops`
/// property test — but compares eight bytes per iteration.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::kernel::common_prefix;
///
/// assert_eq!(common_prefix(b"delta compression", b"delta compaction"), 10);
/// assert_eq!(common_prefix(b"abc", b"abcdef"), 3);
/// assert_eq!(common_prefix(b"", b"anything"), 0);
/// ```
#[inline]
#[must_use]
pub fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut i = 0usize;
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
        let x = load_le(wa) ^ load_le(wb);
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    for (&pa, &pb) in ca.remainder().iter().zip(cb.remainder()) {
        if pa != pb {
            break;
        }
        i += 1;
    }
    i
}

/// Length of the common suffix of `a` and `b`, in bytes.
///
/// Equivalent to the naive loop comparing `a[a.len() - 1 - i]` against
/// `b[b.len() - 1 - i]` — the correcting differ's backward extension —
/// but compares eight bytes per iteration.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::kernel::common_suffix;
///
/// assert_eq!(common_suffix(b"in-place reconstruction", b"deconstruction"), 13);
/// assert_eq!(common_suffix(b"xyz", b"z"), 1);
/// assert_eq!(common_suffix(b"ab", b"cd"), 0);
/// ```
#[inline]
#[must_use]
pub fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut i = 0usize;
    let mut ca = a.rchunks_exact(8);
    let mut cb = b.rchunks_exact(8);
    for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
        let x = load_le(wa) ^ load_le(wb);
        if x != 0 {
            return i + (x.leading_zeros() / 8) as usize;
        }
        i += 8;
    }
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let mut j = 0usize;
    while j < ra.len() && ra[ra.len() - 1 - j] == rb[rb.len() - 1 - j] {
        j += 1;
    }
    i + j
}

/// Whether `a` and `b` are byte-identical windows of the same length —
/// the seed-verification kernel.
///
/// Slices of unequal length are never equal. Compares a word at a time
/// with an early exit on the first differing word, so a failing verify
/// (the common case when probing hash candidates) costs one or two
/// loads instead of a `memcmp` call.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::kernel::windows_eq;
///
/// assert!(windows_eq(b"0123456789abcdef", b"0123456789abcdef"));
/// assert!(!windows_eq(b"0123456789abcdef", b"0123456789abcdeX"));
/// assert!(!windows_eq(b"abc", b"abcd"));
/// ```
#[inline]
#[must_use]
pub fn windows_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
        if load_le(wa) != load_le(wb) {
            return false;
        }
    }
    ca.remainder() == cb.remainder()
}

/// Loads one little-endian `u64` from an 8-byte chunk.
///
/// This is the word-load discipline every kernel above is built on;
/// [`crate::remote`]'s strong block hash reuses it so signature hashing
/// consumes eight bytes per multiply instead of one.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::kernel::load_le;
///
/// assert_eq!(load_le(&[1, 0, 0, 0, 0, 0, 0, 0]), 1);
/// ```
///
/// # Panics
///
/// Panics if `chunk` is not exactly 8 bytes (callers iterate
/// `chunks_exact(8)`, which guarantees it).
#[inline]
#[must_use]
pub fn load_le(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// Running byte sums of one little-endian word: `sums[k]` is the sum of
/// the first `k` bytes in slice order (`sums[0] == 0`, `sums[8]` is the
/// whole-word byte sum).
///
/// This is the building block of the multi-byte Adler/Fletcher roll in
/// [`crate::remote::scan`]: both checksum components advance `k`
/// positions in closed form from the prefix sums of the bytes leaving
/// and entering the window, so the weak scan consumes eight bytes per
/// word load instead of one per roll. The maximum value is `8 × 255`,
/// far below `u32`, so the sums are exact.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::kernel::{load_le, prefix_sums};
///
/// let sums = prefix_sums(load_le(&[1, 2, 3, 4, 5, 6, 7, 8]));
/// assert_eq!(sums[0], 0);
/// assert_eq!(sums[3], 1 + 2 + 3);
/// assert_eq!(sums[8], 36);
/// ```
#[inline]
#[must_use]
pub fn prefix_sums(word: u64) -> [u32; 9] {
    let mut sums = [0u32; 9];
    let mut acc = 0u32;
    for k in 0..8 {
        acc += ((word >> (8 * k)) & 0xff) as u32;
        sums[k + 1] = acc;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn prefix_at_every_mismatch_position() {
        // A mismatch planted at every offset of a 40-byte window crosses
        // word boundaries, the sub-word remainder, and both ends.
        let a: Vec<u8> = (0..40u8).collect();
        for pos in 0..a.len() {
            let mut b = a.clone();
            b[pos] ^= 0x80;
            assert_eq!(common_prefix(&a, &b), pos, "mismatch at {pos}");
            assert_eq!(common_suffix(&a, &b), a.len() - 1 - pos);
            assert!(!windows_eq(&a, &b));
        }
    }

    #[test]
    fn unequal_lengths_clamp_to_shorter() {
        let long: Vec<u8> = (0..100u8).collect();
        for cut in [0, 1, 7, 8, 9, 63, 64, 65, 99] {
            let short = &long[..cut];
            assert_eq!(common_prefix(&long, short), cut);
            assert_eq!(common_prefix(short, &long), cut);
            assert_eq!(common_suffix(&long[100 - cut..], &long), cut);
        }
    }

    #[test]
    fn identical_slices_match_fully() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 100] {
            let a: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            assert_eq!(common_prefix(&a, &a), len);
            assert_eq!(common_suffix(&a, &a), len);
            assert!(windows_eq(&a, &a));
        }
    }

    #[test]
    fn matches_naive_on_unaligned_subslices() {
        // Offsets that put the word loop at every alignment phase.
        let base: Vec<u8> = (0..256usize).map(|i| (i * 31 % 253) as u8).collect();
        let mut tweaked = base.clone();
        tweaked[200] ^= 1;
        for off_a in [0usize, 1, 3, 5, 7] {
            for off_b in [0usize, 2, 4, 6] {
                let (a, b) = (&base[off_a..], &tweaked[off_b..]);
                assert_eq!(common_prefix(a, b), naive_prefix(a, b));
                assert_eq!(common_suffix(a, b), naive_suffix(a, b));
                assert_eq!(windows_eq(a, b), a == b);
            }
        }
    }

    #[test]
    fn windows_eq_rejects_length_mismatch() {
        assert!(!windows_eq(b"12345678", b"1234567"));
        assert!(windows_eq(b"", b""));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Each kernel equals its naive loop on arbitrary slices. `a` is
        /// an arbitrary window of a small-alphabet buffer and `b` the
        /// same window of a copy with one planted difference, shifted
        /// inward at either end by 0–2 bytes: an unshifted end shares a
        /// long run with `a`, so matches stop at the edit, at a sub-word
        /// remainder or at the shorter slice's end, at every word phase.
        #[test]
        fn kernels_match_naive_loops(
            base in proptest::collection::vec(0u8..4, 0..300),
            edit in any::<usize>(),
            flip in any::<u8>(),
            ends in (any::<usize>(), any::<usize>()),
            shifts in (0usize..3, 0usize..3),
        ) {
            let mut other = base.clone();
            if let Some(byte) = other.get_mut(edit % base.len().max(1)) {
                *byte ^= flip;
            }
            let (x, y) = (ends.0 % (base.len() + 1), ends.1 % (base.len() + 1));
            let (start, end) = (x.min(y), x.max(y));
            let b_start = (start + shifts.0).min(end);
            let b_end = end.saturating_sub(shifts.1).max(b_start);
            let (a, b) = (&base[start..end], &other[b_start..b_end]);
            prop_assert_eq!(common_prefix(a, b), naive_prefix(a, b));
            prop_assert_eq!(common_suffix(a, b), naive_suffix(a, b));
            prop_assert_eq!(windows_eq(a, b), a == b);
        }
    }

    #[test]
    fn prefix_sums_match_naive() {
        let bytes = [255u8, 0, 17, 255, 1, 2, 254, 128];
        let sums = prefix_sums(load_le(&bytes));
        for k in 0..=8 {
            let naive: u32 = bytes[..k].iter().map(|&x| u32::from(x)).sum();
            assert_eq!(sums[k], naive, "prefix {k}");
        }
    }
}
