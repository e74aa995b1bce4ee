//! CRC-32 (IEEE 802.3) checksums, implemented in-tree to keep the
//! dependency set minimal.
//!
//! Delta-file headers carry the CRC of the version file so an applier can
//! detect a corrupted reconstruction — particularly valuable for in-place
//! application, where a wrongly ordered delta silently corrupts the target.
//!
//! The checksum runs over every byte of every version on every read and
//! write path, so [`Crc32::update`] picks the fastest of two kernels the
//! host can run. Both give the values of the byte-at-a-time loop.
//!
//! * **Carry-less-multiply fold** (x86-64 with PCLMULQDQ and SSE4.1, on
//!   any update of at least 64 bytes): four 128-bit accumulators each
//!   absorb one 16-byte block per step, multiplied forward by constants
//!   of the reflected polynomial; they are then folded into one, reduced
//!   to 64 bits and taken to the 32-bit state by a Barrett reduction
//!   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction", Intel, 2009). The last bytes, fewer than
//!   16, go to the table loop. The state between calls is one `u32`, so
//!   nothing is carried over and any split of the input gives the same
//!   value.
//! * **Table loop** (every other host, and updates shorter than 64
//!   bytes): sixteen bytes at a time ("slicing-by-16", after Kounavis &
//!   Berry, "A Systematic Approach to Building High Performance
//!   Software-Based CRC Generators", ISCC 2005). Table `k` maps a byte
//!   to its CRC contribution when `k` zero bytes follow it, so one step
//!   XORs the state into the first four bytes of a 16-byte block and
//!   XORs sixteen independent table lookups, in place of sixteen
//!   dependent byte steps; bytes past the last whole block take the
//!   byte-at-a-time step. [`crc32_portable`] runs it alone, as the
//!   reference the fold is tested and timed against.
//!
//! The fold is a safe function compiled with
//! `#[target_feature(enable = "pclmulqdq,sse4.1")]`: it reads its input
//! through safe slice operations only, and the intrinsics it calls are
//! safe inside it. Calling it is the crate's one `unsafe` block, sound
//! because [`uses_fold`] has just found both features on the running CPU
//! with `is_x86_feature_detected!`, so every instruction it was compiled
//! to is one the CPU executes. `kernel_bench` checksums 4 MiB at
//! 15,400–16,400 MiB/s through the fold and 1,670–1,740 MiB/s through
//! the table loop (9.2–9.7×) on a 2-core 2.1 GHz x86-64 Xeon.

/// Streaming CRC-32 (IEEE polynomial, reflected).
///
/// # Example
///
/// ```
/// use ipr_delta::checksum::Crc32;
///
/// let mut crc = Crc32::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xcbf4_3926); // the canonical check value
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

const POLY: u32 = 0xedb8_8320;

/// Bytes folded per step of the main loop.
const SLICES: usize = 16;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k]` is
/// `TABLES[k - 1]` advanced by one zero byte. Generated at compile time.
static TABLES: [[u32; 256]; SLICES] = {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

impl Crc32 {
    /// Creates a fresh checksum state.
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xffff_ffff }
    }

    /// Feeds `data` into the checksum: through the carry-less-multiply
    /// fold when [`uses_fold`] and `data` holds at least 64 bytes, else
    /// through the table loop. Either way the value is the same.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= fold::MIN_LEN && uses_fold() {
            // SAFETY: `fold::blocks` is compiled for PCLMULQDQ and
            // SSE4.1, and `uses_fold` has just found both on the running
            // CPU with `is_x86_feature_detected!`. That is the call's only
            // requirement: the function itself is safe code.
            #[allow(unsafe_code)]
            let (state, tail) = unsafe { fold::blocks(self.state, data) };
            self.state = slice16(state, tail);
            return;
        }
        self.state = slice16(self.state, data);
    }

    /// Returns the final checksum value.
    #[must_use]
    pub fn finish(self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `data`.
///
/// # Example
///
/// ```
/// assert_eq!(ipr_delta::checksum::crc32(b""), 0);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// One-shot CRC-32 of `data` through the table loop alone
/// (slicing-by-16), on any host: the portable kernel [`Crc32::update`]
/// falls back on, and the reference the fold is tested and timed
/// against.
///
/// # Example
///
/// ```
/// use ipr_delta::checksum::{crc32, crc32_portable};
///
/// let data = vec![0xa5; 1000];
/// assert_eq!(crc32_portable(&data), crc32(&data));
/// ```
#[must_use]
pub fn crc32_portable(data: &[u8]) -> u32 {
    slice16(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Whether [`Crc32::update`] folds with carry-less multiplies on this
/// host: an x86-64 CPU on which `is_x86_feature_detected!` finds
/// PCLMULQDQ and SSE4.1. Where it is `false`, every byte goes through
/// the table loop of [`crc32_portable`].
#[must_use]
pub fn uses_fold() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The table loop: advances the raw (un-inverted) `state` over `data`.
fn slice16(mut state: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(SLICES);
    for block in &mut blocks {
        let head = state.to_le_bytes();
        let mut next = 0;
        for (k, &byte) in block.iter().enumerate() {
            let byte = if k < 4 { byte ^ head[k] } else { byte };
            next ^= TABLES[SLICES - 1 - k][usize::from(byte)];
        }
        state = next;
    }
    for &byte in blocks.remainder() {
        state = (state >> 8) ^ TABLES[0][usize::from(state as u8 ^ byte)];
    }
    state
}

/// The carry-less-multiply fold (Gopal et al., Intel, 2009), for the
/// reflected IEEE polynomial.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The fold runs on updates of at least one step of its four
    /// 16-byte accumulators.
    pub(super) const MIN_LEN: usize = 64;

    // x^n mod P(x), bit-reflected, for the fold distances: K1 and K2
    // carry an accumulator forward 512 bits (four blocks), K3 and K4
    // 128 bits (one block), and K5 takes 96 bits to 64. P is the
    // polynomial with its x^32 term and MU is floor(x^64 / P(x)), both
    // reflected, for the Barrett reduction.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Advances the raw `state` over every whole 16-byte block of `data`
    /// (at least [`MIN_LEN`] bytes) and returns the new state with the
    /// bytes left over, fewer than 16.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn blocks(state: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let (first, rest) = blocks.split_at(4);
        // The state enters as the first 32 bits of the message.
        let mut x0 = _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&first[1]);
        let mut x2 = load(&first[2]);
        let mut x3 = load(&first[3]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(4);
        for quad in &mut quads {
            x0 = fold(x0, load(&quad[0]), k1k2);
            x1 = fold(x1, load(&quad[1]), k1k2);
            x2 = fold(x2, load(&quad[2]), k1k2);
            x3 = fold(x3, load(&quad[3]), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(fold(fold(x0, x1, k3k4), x2, k3k4), x3, k3k4);
        for block in quads.remainder() {
            x = fold(x, load(block), k3k4);
        }

        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, 64 bits to 32: T1 = (R mod x^32) * MU,
        // T2 = (T1 mod x^32) * P, and the state is the high half of the
        // low 64 bits of R ^ T2.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        (_mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32, tail)
    }

    /// Carries `acc` forward by the distance `keys` encodes and adds
    /// `next`: `next ^ acc.lo * keys.lo ^ acc.hi * keys.hi`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(next, _mm_clmulepi64_si128::<0x00>(acc, keys)),
            _mm_clmulepi64_si128::<0x11>(acc, keys),
        )
    }

    /// A 16-byte block as a vector, first byte lowest.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let bits = u128::from_le_bytes(*block);
        _mm_set_epi64x((bits >> 64) as i64, bits as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop, kept as the reference.
    fn bytewise(data: &[u8]) -> u32 {
        let mut state = 0xffff_ffff_u32;
        for &byte in data {
            state = (state >> 8) ^ TABLES[0][usize::from(state as u8 ^ byte)];
        }
        state ^ 0xffff_ffff
    }

    /// Deterministic xorshift bytes.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(crc32(b"abc"), 0x3524_41c2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut crc = Crc32::new();
        for chunk in data.chunks(37) {
            crc.update(chunk);
        }
        assert_eq!(crc.finish(), crc32(&data));
    }

    /// Every length up to 160 and every split point, so the two
    /// updates fall on both sides of the 16-byte block and of the
    /// fold's 64-byte floor, with each possible remainder.
    #[test]
    fn splits_around_the_block_boundary_match_bytewise() {
        let data = noise(160, 0x9e37_79b9_7f4a_7c15);
        for len in 0..=data.len() {
            let data = &data[..len];
            let expected = bytewise(data);
            assert_eq!(crc32(data), expected, "len {len}");
            for split in 0..=len {
                let mut crc = Crc32::new();
                crc.update(&data[..split]);
                crc.update(&data[split..]);
                assert_eq!(crc.finish(), expected, "len {len}, split {split}");
            }
        }
    }

    /// The dispatched kernel at every length from 0 to 4096: each count
    /// of whole fold steps, 16-byte blocks and tail bytes.
    #[test]
    fn every_length_to_4096_matches_bytewise() {
        let data = noise(4096, 0x2545_f491_4f6c_dd1d);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    /// The table loop run directly, so the fallback stays covered on
    /// hosts where `update` folds.
    #[test]
    fn portable_table_loop_matches_bytewise() {
        assert_eq!(crc32_portable(b"123456789"), 0xcbf4_3926);
        let data = noise(1000, 0xd6e8_feb8_6659_fd93);
        for len in 0..=data.len() {
            assert_eq!(
                crc32_portable(&data[..len]),
                bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(crc32(b"abcd"), crc32(b"abce"));
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(Crc32::default(), Crc32::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary data fed through several `update` calls, split at
        /// arbitrary points, equals the byte-at-a-time reference.
        #[test]
        fn streamed_updates_match_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                crc.update(&data[start..cut]);
                start = cut;
            }
            prop_assert_eq!(crc.finish(), bytewise(&data));
        }
    }
}
