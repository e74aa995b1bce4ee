//! The one differencing path every engine runs: index the reference
//! once, then scan the whole version against that index in one forward
//! pass that writes the script. The phases:
//!
//! 1. **Index build** (`diff.index_build` span) — one immutable index over
//!    the reference, built serially into the arena. The footprint family
//!    rolls the hash over the reference once and stores each slot's
//!    first (and, for the correcting differ, last) offset. The greedy
//!    family sorts its entries by seed hash with a radix partition and
//!    per-partition counting sorts that stay in L2. With every offset
//!    indexed it rolls the hash over the reference twice; with
//!    checkpoints it rolls once and sorts only the offsets it keeps. The
//!    `diff.index_bytes` gauge reports what the arena holds afterwards.
//!    A caller that knows the arena already holds this differ's index of
//!    the same bytes skips the build
//!    ([`IndexedDiffer::diff_indexed`]).
//! 2. **Scan** (`diff.scan` span) — one forward pass over the version
//!    file against the index the arena holds
//!    ([`IndexedDiffer::index`]). It pushes each literal run and each
//!    copy, as it finds them, into a [`ScriptBuilder`] that draws its
//!    storage from the arena's script pool. A match runs to its true end,
//!    so no unchanged byte is compared twice.

use super::scratch::{self, DiffScratch, IndexScratch, EMPTY};
use super::{kernel, Differ, RollingHash, ScriptBuilder};
use crate::script::DeltaScript;

/// A differencing engine split into *build an index of the reference*
/// and *scan a version against it*, run by
/// [`IndexedDiffer::diff_with`].
///
/// Implemented by [`GreedyDiffer`](super::GreedyDiffer),
/// [`OnePassDiffer`](super::OnePassDiffer) and
/// [`CorrectingDiffer`](super::CorrectingDiffer); each one's
/// [`Differ::diff`] is `diff_with` on a per-thread arena.
pub trait IndexedDiffer: Differ {
    /// The immutable reference index the scan probes. Borrows the arena
    /// it was built into.
    type Index<'s>
    where
        Self: 's;

    /// Seed (minimum match) length.
    fn seed_len(&self) -> usize;

    /// Whether a diff of `version` against `reference` builds or scans an
    /// index: only when both files hold a seed. Otherwise the version is
    /// one literal run and the arena's index is left as it was.
    fn uses_index(&self, reference: &[u8], version: &[u8]) -> bool {
        reference.len() >= self.seed_len() && version.len() >= self.seed_len()
    }

    /// Builds the reference index into `scratch`, replacing any index it
    /// held.
    fn build_index(&self, reference: &[u8], scratch: &mut IndexScratch);

    /// Views the index this differ's last
    /// [`build_index`](IndexedDiffer::build_index) left in `scratch`.
    /// The tables belong to whichever differ built into the arena last,
    /// so only that differ may view them.
    fn index<'s>(&self, scratch: &'s IndexScratch) -> Self::Index<'s>;

    /// Scans the whole of `version` against the index, pushing literal
    /// runs and copies that exactly tile it into `out`. Both files are
    /// at least [`seed_len`](IndexedDiffer::seed_len) bytes long.
    fn scan(
        &self,
        index: &Self::Index<'_>,
        reference: &[u8],
        version: &[u8],
        out: &mut ScriptBuilder,
    );

    /// Diffs `version` against `reference` through an explicit arena:
    /// one index build, then one scan that writes the script. A warm
    /// arena allocates nothing.
    #[must_use]
    fn diff_with(
        &self,
        scratch: &mut DiffScratch,
        reference: &[u8],
        version: &[u8],
    ) -> DeltaScript {
        self.diff_indexed(scratch, reference, version, false)
    }

    /// The method behind [`diff_with`](IndexedDiffer::diff_with). With
    /// `indexed`, the scan probes the index already in `scratch` and no
    /// index is built (the `diff.index_reuses` counter counts it).
    ///
    /// Pass `indexed` only when this differ's last
    /// [`build_index`](IndexedDiffer::build_index) into `scratch` indexed
    /// bytes equal to `reference`; `ipr_pipeline::Engine` checks that
    /// against a copy of them. Candidates are verified against the
    /// bytes, so an index of other bytes never yields a wrong script, but
    /// it loses matches, and an offset past the end of a shorter
    /// reference panics. Where [`uses_index`](IndexedDiffer::uses_index)
    /// is false, nothing is built or probed either way.
    #[must_use]
    fn diff_indexed(
        &self,
        scratch: &mut DiffScratch,
        reference: &[u8],
        version: &[u8],
        indexed: bool,
    ) -> DeltaScript {
        let _span = ipr_trace::span("diff");
        let uses_index = self.uses_index(reference, version);
        ipr_trace::with(|r| {
            r.add("diff.reference_bytes", reference.len() as u64);
            r.add("diff.version_bytes", version.len() as u64);
            if indexed && uses_index {
                r.add("diff.index_reuses", 1);
            }
        });
        let DiffScratch { index, pool } = scratch;
        let mut builder = ScriptBuilder::from_pool(pool);
        if !uses_index {
            builder.end_literal_run(version);
        } else {
            if !indexed {
                let _span = ipr_trace::span("diff.index_build");
                self.build_index(reference, index);
            }
            let _span = ipr_trace::span("diff.scan");
            self.scan(&self.index(index), reference, version, &mut builder);
        }
        builder.finish_into_pool(reference.len() as u64, pool)
    }
}

/// How far a match of `version[v..]` against `reference[from..]` extends
/// backward over the literal run `version[lit_start..v]` before it: the
/// bytes a scan passed as literal before it found the match.
#[inline]
pub(crate) fn extend_back(
    reference: &[u8],
    from: usize,
    version: &[u8],
    lit_start: usize,
    v: usize,
) -> usize {
    let reclaimable = (v - lit_start).min(from);
    kernel::common_suffix(
        &reference[from - reclaimable..from],
        &version[v - reclaimable..v],
    )
}

/// Footprint-table index (one-pass and correcting differs).
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

/// Builds the footprint table shared by the constant-space differs: per
/// slot, the smallest reference offset hashing there and, `with_lasts`,
/// the largest.
pub(crate) fn build_footprint_index(
    reference: &[u8],
    seed_len: usize,
    table_bits: u32,
    with_lasts: bool,
    scratch: &mut IndexScratch,
) {
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
        let mut h = RollingHash::new(&reference[..seed_len]);
        for (i, offset) in (0..n).zip(0u32..) {
            if i > 0 {
                h.roll(reference[i - 1], reference[i + seed_len - 1]);
            }
            let slot = (h.hash() & mask) as usize;
            if scratch.firsts[slot] == EMPTY {
                scratch.firsts[slot] = offset;
            }
            if with_lasts {
                scratch.lasts[slot] = offset;
            }
        }
    }
    scratch.record_bytes();
}

/// Views the footprint table [`build_footprint_index`] left in `scratch`
/// at `table_bits`.
pub(crate) fn footprint_index(table_bits: u32, scratch: &IndexScratch) -> FootprintIndex<'_> {
    FootprintIndex {
        firsts: &scratch.firsts,
        lasts: &scratch.lasts,
        mask: (1u64 << table_bits) - 1,
    }
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

    #[test]
    fn recycling_scripts_into_the_pool_keeps_output_identical() {
        let (reference, version) = pair(5_000);
        let differ = GreedyDiffer::default();
        let baseline = differ.diff_with(&mut DiffScratch::new(), &reference, &version);
        let mut scratch = DiffScratch::new();
        for _ in 0..3 {
            let script = differ.diff_with(&mut scratch, &reference, &version);
            assert_eq!(script, baseline);
            scratch.pool_mut().recycle(script);
        }
        assert!(scratch.pool_mut().spare_commands() > 0);
    }

    /// Scanning the index a build left in the arena, with no build, gives
    /// the script a fresh build gives, for every family; the reuse is
    /// counted and no build is timed.
    #[test]
    fn indexed_diff_equals_a_fresh_build() {
        fn check<D: IndexedDiffer>(d: &D, reference: &[u8], version: &[u8]) {
            let mut scratch = DiffScratch::new();
            let built = d.diff_with(&mut scratch, reference, version);
            let stats = std::sync::Arc::new(ipr_trace::StatsRecorder::new());
            let reused = {
                let _guard = ipr_trace::install(stats.clone());
                d.diff_indexed(&mut scratch, reference, version, true)
            };
            assert_eq!(reused, built, "{}", d.name());
            let report = stats.report();
            assert_eq!(report.counter("diff.index_reuses"), Some(1), "{}", d.name());
            assert!(report.span("diff.index_build").is_none(), "{}", d.name());
        }
        let (reference, version) = pair(5_000);
        check(&GreedyDiffer::default(), &reference, &version);
        check(&GreedyDiffer::sampled(), &reference, &version);
        check(&OnePassDiffer::default(), &reference, &version);
        check(&CorrectingDiffer::default(), &reference, &version);
    }

    #[test]
    fn explicit_scratch_is_reusable_across_engines() {
        let mut scratch = DiffScratch::new();
        let (reference, version) = pair(5_000);
        let (g, c) = (GreedyDiffer::default(), CorrectingDiffer::default());
        for _ in 0..3 {
            let sg = g.diff_with(&mut scratch, &reference, &version);
            let sc = c.diff_with(&mut scratch, &reference, &version);
            assert_eq!(apply(&sg, &reference).unwrap(), version);
            assert_eq!(apply(&sc, &reference).unwrap(), version);
        }
    }
}
