//! Linear-time, constant-space differencing (after Burns & Long '97).

use super::indexed::{build_footprint_index, footprint_index, FootprintIndex, IndexedDiffer};
use super::kernel;
use super::rolling::RollingHash;
use super::scratch::{self, IndexScratch, EMPTY};
use super::{Differ, ScriptBuilder};
use crate::script::DeltaScript;

/// One-pass differencing with a fixed-size footprint table.
///
/// The reference file's seed hashes ("footprints") are dropped into a
/// table of `2^table_bits` slots, first writer wins; the version file is
/// scanned once, extending a verified match whenever its footprint hits a
/// stored reference offset. Time is linear in the input sizes and memory
/// is constant (the table), at some cost in compression relative to
/// [`GreedyDiffer`](super::GreedyDiffer) — the trade the paper's delta
/// algorithm makes.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::{Differ, OnePassDiffer};
/// use ipr_delta::apply;
///
/// let r = vec![42u8; 4096];
/// let mut v = r.clone();
/// v[2048] = 7;
/// let script = OnePassDiffer::default().diff(&r, &v);
/// assert_eq!(apply(&script, &r).unwrap(), v);
/// ```
#[derive(Clone, Debug)]
pub struct OnePassDiffer {
    seed_len: usize,
    table_bits: u32,
}

impl Default for OnePassDiffer {
    /// 16-byte seeds and a 2^16-slot footprint table.
    fn default() -> Self {
        Self {
            seed_len: 16,
            table_bits: 16,
        }
    }
}

impl OnePassDiffer {
    /// Creates a differ with the given seed length and footprint-table
    /// size (in bits; the table has `2^table_bits` slots).
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

impl IndexedDiffer for OnePassDiffer {
    type Index<'s> = FootprintIndex<'s>;

    fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// Footprint table: slot -> reference offset (first writer wins, as
    /// in the constant-space algorithm's forward scan).
    fn build_index(&self, reference: &[u8], scratch: &mut IndexScratch) {
        build_footprint_index(reference, self.seed_len, self.table_bits, false, scratch);
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
            let cand = index.first(h.hash());
            if cand != EMPTY {
                probes += 1;
                let c = cand as usize;
                if kernel::windows_eq(&reference[c..c + seed_len], &version[v..v + seed_len]) {
                    let len = seed_len
                        + kernel::common_prefix(
                            &reference[c + seed_len..],
                            &version[v + seed_len..],
                        );
                    extend_bytes += (len - seed_len) as u64;
                    out.push_literal_then_copy(&version[lit_start..v], c as u64, len as u64);
                    v += len;
                    lit_start = v;
                    continue;
                }
            }
            v += 1;
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

impl Differ for OnePassDiffer {
    fn diff(&self, reference: &[u8], version: &[u8]) -> DeltaScript {
        scratch::with_thread_scratch(|s| self.diff_with(s, reference, version))
    }

    fn name(&self) -> &'static str {
        "one-pass"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;
    use crate::diff::GreedyDiffer;

    fn check(reference: &[u8], version: &[u8]) -> DeltaScript {
        let script = OnePassDiffer::default().diff(reference, version);
        assert_eq!(apply(&script, reference).unwrap(), version);
        script
    }

    #[test]
    fn identical_files_compress_fully() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let script = check(&data, &data);
        assert_eq!(script.added_bytes(), 0);
    }

    #[test]
    fn point_edits_stay_small() {
        let reference: Vec<u8> = (0..5_000u32).map(|i| (i * 13 % 251) as u8).collect();
        let mut version = reference.clone();
        for pos in [100, 2_000, 4_500] {
            version[pos] ^= 0x55;
        }
        let script = check(&reference, &version);
        assert!(script.added_bytes() < 100, "{}", script.added_bytes());
    }

    #[test]
    fn never_worse_than_all_literal() {
        let reference = b"completely different".to_vec();
        let version: Vec<u8> = (0..300u32).map(|i| (i * 97 % 256) as u8).collect();
        let script = check(&reference, &version);
        assert_eq!(script.added_bytes(), version.len() as u64);
    }

    #[test]
    fn usually_compresses_less_than_greedy() {
        // Repetitive reference: the single-slot table loses candidates that
        // greedy keeps. Greedy must be at least as good.
        let block: Vec<u8> = (0..64u32).map(|i| (i % 251) as u8).collect();
        let reference: Vec<u8> = block.repeat(50);
        let mut version = reference.clone();
        version.rotate_left(1000);
        let g = GreedyDiffer::default().diff(&reference, &version);
        let o = OnePassDiffer::default().diff(&reference, &version);
        assert_eq!(apply(&o, &reference).unwrap(), version);
        assert!(o.added_bytes() >= g.added_bytes());
    }

    #[test]
    fn custom_table_size() {
        let d = OnePassDiffer::new(8, 10);
        assert_eq!(d.seed_len(), 8);
        let reference: Vec<u8> = (0..2_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut version = reference.clone();
        version.truncate(1500);
        let script = d.diff(&reference, &version);
        assert_eq!(apply(&script, &reference).unwrap(), version);
    }

    #[test]
    #[should_panic(expected = "table bits")]
    fn oversized_table_rejected() {
        let _ = OnePassDiffer::new(8, 31);
    }
}
