//! Karp–Rabin rolling hash over fixed-size byte windows ("footprints" in
//! the differencing literature).

/// Multiplier for the polynomial hash; an arbitrary odd 64-bit constant
/// with good bit dispersion (the FNV-1a prime).
const BASE: u64 = 0x0000_0100_0000_01b3;

/// A Karp–Rabin hash of a sliding window of fixed width.
///
/// The hash of window bytes `b_0 … b_{w-1}` is
/// `Σ b_i · BASE^(w-1-i) (mod 2^64)`; sliding one byte right updates it in
/// O(1).
///
/// # Example
///
/// ```
/// use ipr_delta::diff::RollingHash;
///
/// let data = b"abcdefgh";
/// let mut h = RollingHash::new(&data[0..4]);
/// h.roll(data[0], data[4]);
/// assert_eq!(h.hash(), RollingHash::new(&data[1..5]).hash());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RollingHash {
    hash: u64,
    /// BASE^(w-1), used to remove the outgoing byte.
    msb_weight: u64,
    /// Window width in bytes; [`RollingHash::reseed`] windows must match.
    width: usize,
}

impl RollingHash {
    /// Hashes the initial window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is empty.
    #[must_use]
    pub fn new(window: &[u8]) -> Self {
        assert!(!window.is_empty(), "rolling hash window must be non-empty");
        let mut hash = 0u64;
        for &b in window {
            hash = hash.wrapping_mul(BASE).wrapping_add(u64::from(b));
        }
        let mut msb_weight = 1u64;
        for _ in 1..window.len() {
            msb_weight = msb_weight.wrapping_mul(BASE);
        }
        Self {
            hash,
            msb_weight,
            width: window.len(),
        }
    }

    /// Re-initializes the hash over a new window of the *same width*,
    /// reusing the precomputed `BASE^(w-1)` weight.
    ///
    /// This is the fast re-seed after a long copy: catching up byte by
    /// byte costs one [`RollingHash::roll`] per skipped byte — O(copy
    /// length) — while re-seeding costs O(window width) regardless of
    /// how far the scan jumped.
    ///
    /// # Panics
    ///
    /// Panics if `window.len()` differs from the width the hash was
    /// created with.
    pub fn reseed(&mut self, window: &[u8]) {
        assert_eq!(
            window.len(),
            self.width,
            "reseed window width must match the original window"
        );
        let mut hash = 0u64;
        for &b in window {
            hash = hash.wrapping_mul(BASE).wrapping_add(u64::from(b));
        }
        self.hash = hash;
    }

    /// Moves the window from `data[from..]` to `data[to..]`, `from <= to`:
    /// rolls over a hop shorter than the window, and re-seeds after a
    /// longer one, such as a copy, where rolling would cost one step per
    /// skipped byte.
    #[inline]
    pub(crate) fn slide(&mut self, data: &[u8], from: usize, to: usize) {
        if to - from >= self.width {
            self.reseed(&data[to..to + self.width]);
        } else {
            let incoming = &data[from + self.width..to + self.width];
            for (&outgoing, &incoming) in data[from..to].iter().zip(incoming) {
                self.roll(outgoing, incoming);
            }
        }
    }

    /// Current hash value.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Slides the window one byte: removes `outgoing` (the leftmost byte)
    /// and appends `incoming`.
    pub fn roll(&mut self, outgoing: u8, incoming: u8) {
        self.hash = self
            .hash
            .wrapping_sub(u64::from(outgoing).wrapping_mul(self.msb_weight))
            .wrapping_mul(BASE)
            .wrapping_add(u64::from(incoming));
    }
}

/// One-shot hash of `window`, equal to `RollingHash::new(window).hash()`.
///
/// # Panics
///
/// Panics if `window` is empty.
#[must_use]
pub fn hash_of(window: &[u8]) -> u64 {
    RollingHash::new(window).hash()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_matches_direct_everywhere() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 31 % 251) as u8).collect();
        let w = 16;
        let mut h = RollingHash::new(&data[0..w]);
        for i in 1..=data.len() - w {
            h.roll(data[i - 1], data[i + w - 1]);
            assert_eq!(h.hash(), hash_of(&data[i..i + w]), "window {i}");
        }
    }

    #[test]
    fn window_of_one() {
        let mut h = RollingHash::new(b"a");
        assert_eq!(h.hash(), u64::from(b'a'));
        h.roll(b'a', b'z');
        assert_eq!(h.hash(), u64::from(b'z'));
    }

    #[test]
    fn distinct_windows_usually_differ() {
        assert_ne!(hash_of(b"abcdabcd"), hash_of(b"abcdabce"));
        assert_ne!(hash_of(b"aaaaaaab"), hash_of(b"baaaaaaa"));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_panics() {
        let _ = hash_of(b"");
    }

    #[test]
    fn reseed_equals_fresh_hash() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 13 % 251) as u8).collect();
        let mut h = RollingHash::new(&data[0..16]);
        h.reseed(&data[40..56]);
        assert_eq!(h.hash(), hash_of(&data[40..56]));
        // Rolling continues correctly from the reseeded window.
        h.roll(data[40], data[56]);
        assert_eq!(h.hash(), hash_of(&data[41..57]));
    }

    #[test]
    fn slide_equals_fresh_hash_over_any_hop() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 29 % 251) as u8).collect();
        for hop in [0, 1, 7, 15, 16, 17, 60] {
            let mut h = RollingHash::new(&data[3..19]);
            h.slide(&data, 3, 3 + hop);
            assert_eq!(h.hash(), hash_of(&data[3 + hop..19 + hop]), "hop {hop}");
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn reseed_width_mismatch_panics() {
        let mut h = RollingHash::new(b"abcdefgh");
        h.reseed(b"abc");
    }
}
