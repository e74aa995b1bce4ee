//! Correcting one-pass differencing (after the Ajtai–Burns–Fagin–Long–
//! Stockmeyer "correcting" family — the algorithm the paper pairs with
//! in-place conversion).
//!
//! Keeps the linear-time, constant-space profile of
//! [`OnePassDiffer`](super::OnePassDiffer) but recovers much of the
//! compression the single-candidate table loses, two ways:
//!
//! * **two candidates per footprint slot** — the *first* and the *most
//!   recent* reference offset with that footprint; both are verified and
//!   the longer match wins (first-seen catches stable prefixes, last-seen
//!   catches locality);
//! * **backward extension** — a verified match is grown leftwards into
//!   the pending literal run, *correcting* bytes that were provisionally
//!   classified as adds before the match was discovered.

use super::indexed::{
    build_footprint_index, extend_back, footprint_index, FootprintIndex, IndexedDiffer,
};
use super::kernel;
use super::rolling::RollingHash;
use super::scratch::{self, IndexScratch, EMPTY};
use super::{Differ, ScriptBuilder};
use crate::script::DeltaScript;

/// Linear-time differencing with match correction.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::{CorrectingDiffer, Differ};
/// use ipr_delta::apply;
///
/// let r = b"a long stable prefix | moving part | a long stable suffix".to_vec();
/// let v = b"a long stable prefix | CHANGED! | a long stable suffix".to_vec();
/// let script = CorrectingDiffer::default().diff(&r, &v);
/// assert_eq!(apply(&script, &r).unwrap(), v);
/// ```
#[derive(Clone, Debug)]
pub struct CorrectingDiffer {
    seed_len: usize,
    table_bits: u32,
}

impl Default for CorrectingDiffer {
    /// 16-byte seeds and a 2^16-slot footprint table.
    fn default() -> Self {
        Self {
            seed_len: 16,
            table_bits: 16,
        }
    }
}

impl CorrectingDiffer {
    /// Creates a differ with the given seed length and footprint-table
    /// size (in bits).
    ///
    /// # Panics
    ///
    /// Panics if `seed_len == 0` or `table_bits` is 0 or exceeds 30.
    #[must_use]
    pub fn new(seed_len: usize, table_bits: u32) -> Self {
        assert!(seed_len > 0, "seed length must be positive");
        assert!(
            (1..=30).contains(&table_bits),
            "table bits must be in 1..=30"
        );
        Self {
            seed_len,
            table_bits,
        }
    }

    /// The configured seed length.
    #[must_use]
    pub fn seed_len(&self) -> usize {
        self.seed_len
    }
}

impl IndexedDiffer for CorrectingDiffer {
    type Index<'s> = FootprintIndex<'s>;

    fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// Footprint table with first-seen and last-seen offsets per slot.
    fn build_index(&self, reference: &[u8], scratch: &mut IndexScratch) {
        build_footprint_index(reference, self.seed_len, self.table_bits, true, scratch);
    }

    fn index<'s>(&self, scratch: &'s IndexScratch) -> FootprintIndex<'s> {
        footprint_index(self.table_bits, scratch)
    }

    fn scan(
        &self,
        index: &FootprintIndex<'_>,
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
        let mut h = RollingHash::new(&version[..seed_len]);
        let mut hash_pos = v;
        while v <= last_window {
            h.slide(version, hash_pos, v);
            hash_pos = v;
            let hash = h.hash();
            let mut best_from = 0usize;
            let mut best_len = 0usize;
            for cand in [index.first(hash), index.last(hash)] {
                if cand == EMPTY {
                    continue;
                }
                let c = cand as usize;
                if c == best_from && best_len > 0 {
                    continue; // first == last
                }
                probes += 1;
                if !kernel::windows_eq(&reference[c..c + seed_len], &version[v..v + seed_len]) {
                    continue;
                }
                let len = seed_len
                    + kernel::common_prefix(&reference[c + seed_len..], &version[v + seed_len..]);
                extend_bytes += (len - seed_len) as u64;
                if len > best_len {
                    best_len = len;
                    best_from = c;
                }
            }
            if best_len >= seed_len {
                // Correction: extend the match backwards over the pending
                // literal run.
                let back = extend_back(reference, best_from, version, lit_start, v);
                extend_bytes += back as u64;
                out.push_literal_then_copy(
                    &version[lit_start..v - back],
                    (best_from - back) as u64,
                    (best_len + back) as u64,
                );
                v += best_len;
                lit_start = v;
            } else {
                v += 1;
            }
        }
        out.end_literal_run(&version[lit_start..]);
        if probes > 0 {
            ipr_trace::with(|r| {
                r.add("diff.probes", probes);
                r.add("diff.extend_bytes", extend_bytes);
            });
        }
    }
}

impl Differ for CorrectingDiffer {
    fn diff(&self, reference: &[u8], version: &[u8]) -> DeltaScript {
        scratch::with_thread_scratch(|s| self.diff_with(s, reference, version))
    }

    fn name(&self) -> &'static str {
        "correcting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;
    use crate::diff::OnePassDiffer;

    fn check(reference: &[u8], version: &[u8]) -> DeltaScript {
        let script = CorrectingDiffer::default().diff(reference, version);
        assert_eq!(apply(&script, reference).unwrap(), version);
        script
    }

    #[test]
    fn identical_files_fully_copied() {
        let data: Vec<u8> = (0..8_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let script = check(&data, &data);
        assert_eq!(script.added_bytes(), 0);
    }

    #[test]
    fn backward_extension_reclaims_unaligned_match_start() {
        // The version prefixes a match with bytes that also match, but the
        // footprint only fires `seed_len` bytes in; backward extension
        // must reclaim the reclaimable prefix.
        let differ = CorrectingDiffer::new(8, 12);
        let reference = b"0123456789abcdefghijklmnop".to_vec();
        // New head, then a copy of reference[4..] — the first 4 bytes of
        // that copy are covered only via backward extension.
        let version = [b"XY".to_vec(), reference[4..].to_vec()].concat();
        let script = differ.diff(&reference, &version);
        assert_eq!(apply(&script, &reference).unwrap(), version);
        assert_eq!(
            script.added_bytes(),
            2,
            "only the genuinely new bytes are literal"
        );
    }

    #[test]
    fn never_worse_than_one_pass_on_locality_workload() {
        // Repetition defeats the first-wins single-slot table; the
        // last-seen candidate restores locality.
        let block: Vec<u8> = (0..199u32).map(|i| (i * 3 % 251) as u8).collect();
        let reference: Vec<u8> = block.repeat(40);
        let mut version = reference.clone();
        version.rotate_left(3_333);
        let one = OnePassDiffer::default().diff(&reference, &version);
        let cor = check(&reference, &version);
        assert!(
            cor.added_bytes() <= one.added_bytes(),
            "correcting {} vs one-pass {}",
            cor.added_bytes(),
            one.added_bytes()
        );
    }

    #[test]
    fn corrects_point_edits_tightly() {
        let reference: Vec<u8> = (0..10_000u32).map(|i| (i * 11 % 251) as u8).collect();
        let mut version = reference.clone();
        version[5_000] ^= 0x80;
        let script = check(&reference, &version);
        // One flipped byte: literal bytes must stay tiny thanks to
        // backward extension on the resynchronized match.
        assert!(script.added_bytes() <= 2, "{}", script.added_bytes());
    }

    #[test]
    fn degenerate_inputs() {
        check(b"", b"");
        check(b"", b"everything is new here......");
        check(b"all gone", b"");
        check(b"short", b"short");
    }

    #[test]
    #[should_panic(expected = "seed length")]
    fn zero_seed_rejected() {
        let _ = CorrectingDiffer::new(0, 10);
    }
}
