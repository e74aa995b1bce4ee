//! CRC-32 (IEEE 802.3) checksums, implemented in-tree to keep the
//! dependency set minimal.
//!
//! Delta-file headers carry the CRC of the version file so an applier can
//! detect a corrupted reconstruction — particularly valuable for in-place
//! application, where a wrongly ordered delta silently corrupts the target.
//!
//! The checksum runs over every byte of every version on every read and
//! write path, so it is computed sixteen bytes at a time ("slicing-by-16",
//! after Kounavis & Berry, "A Systematic Approach to Building High
//! Performance Software-Based CRC Generators", ISCC 2005). Table `k`
//! maps a byte to its CRC contribution when `k` zero bytes follow it, so
//! one step XORs the state into the first four bytes of a 16-byte block
//! and XORs sixteen independent table lookups, in place of sixteen
//! dependent byte steps. Bytes past the last whole block take the
//! byte-at-a-time step. Both give the same values.

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

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut state = self.state;
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
        self.state = state;
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

    /// Every length and every split point around the 16-byte block
    /// boundary, so each update sees each possible remainder.
    #[test]
    fn splits_around_the_block_boundary_match_bytewise() {
        let data = noise(33, 0x9e37_79b9_7f4a_7c15);
        for len in 0..=data.len() {
            let data = &data[..len];
            assert_eq!(crc32(data), bytewise(data), "len {len}");
            for split in 0..=len {
                let mut crc = Crc32::new();
                crc.update(&data[..split]);
                crc.update(&data[split..]);
                assert_eq!(crc.finish(), bytewise(data), "len {len}, split {split}");
            }
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
