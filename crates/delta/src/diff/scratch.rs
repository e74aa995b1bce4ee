//! Reusable differencing scratch: the arena behind zero-allocation
//! steady-state diffing.
//!
//! Every differ needs per-call working storage — footprint tables for the
//! constant-space family, the sorted seed-hash index for the greedy
//! family, and the storage of the script the scan builds.
//! Allocating those on every `diff` call puts the allocator on the
//! critical path of the pipeline's dominant phase (differencing is ~97%
//! of end-to-end time in `results/BENCH_phase_breakdown.json`). A
//! [`DiffScratch`] owns all of it and is reused across calls: buffers
//! are cleared or overwritten, never freed, so a warmed-up arena
//! performs no table or buffer allocations at all.
//!
//! Callers can hold an explicit arena and pass it to
//! [`IndexedDiffer::diff_with`](super::IndexedDiffer::diff_with); the
//! plain [`Differ::diff`](super::Differ) entry points of every engine
//! route through a per-thread arena automatically.

use std::cell::RefCell;

/// Sentinel for an empty footprint-table slot.
pub(crate) const EMPTY: u32 = u32::MAX;

/// How many of a reference's `positions` seed offsets an index holds.
///
/// Stored offsets (and the greedy index's bucket starts) are `u32`, so a
/// reference with more than `u32::MAX` positions is indexed up to the
/// first offset whose count no longer fits, instead of wrapping. The
/// largest stored offset is then `u32::MAX - 1`, below [`EMPTY`].
/// Candidates are verified against the bytes, so stopping early only
/// costs compression.
pub(crate) fn indexed_len(positions: usize) -> usize {
    u32::try_from(positions).map_or(u32::MAX as usize, |_| positions)
}

/// Storage backing the shared reference index (all differ families).
#[derive(Debug, Default)]
pub struct IndexScratch {
    /// Footprint table: first reference offset per slot.
    pub(crate) firsts: Vec<u32>,
    /// Footprint table: most recent reference offset per slot (the
    /// correcting differ's second candidate; left empty otherwise).
    pub(crate) lasts: Vec<u32>,
    /// Greedy index: every offset's mixed seed hash, in ascending order.
    pub(crate) keys: Vec<u64>,
    /// Greedy index: the reference offset of each key, descending within
    /// a run of equal keys.
    pub(crate) offsets: Vec<u32>,
    /// Greedy index: bucket `b` holds entries `starts[b]..starts[b + 1]`.
    pub(crate) starts: Vec<u32>,
    /// Greedy index: per bucket, a filter of the key bits present in it.
    pub(crate) filters: Vec<u16>,
    /// Greedy build scratch: one partition's keys while it is
    /// counting-sorted into buckets.
    pub(crate) part_keys: Vec<u64>,
    /// Greedy build scratch: the offsets of `part_keys`.
    pub(crate) part_offsets: Vec<u32>,
    /// Greedy build scratch: partition and bucket cursors.
    pub(crate) counts: Vec<u32>,
}

impl IndexScratch {
    /// Heap bytes the arena retains for reference indexes, build scratch
    /// included (the `diff.index_bytes` gauge).
    pub(crate) fn retained_bytes(&self) -> u64 {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let total = bytes(&self.firsts)
            + bytes(&self.lasts)
            + bytes(&self.keys)
            + bytes(&self.offsets)
            + bytes(&self.starts)
            + bytes(&self.filters)
            + bytes(&self.part_keys)
            + bytes(&self.part_offsets)
            + bytes(&self.counts);
        total as u64
    }

    /// Publishes [`IndexScratch::retained_bytes`] as the
    /// `diff.index_bytes` gauge; every index build ends with this.
    pub(crate) fn record_bytes(&self) {
        ipr_trace::with(|r| r.gauge("diff.index_bytes", self.retained_bytes()));
    }
}

/// Reusable differencing arena; see the module docs.
///
/// A `DiffScratch` is plain storage — it carries no configuration, so one
/// arena serves any mix of differs and input sizes, growing to the
/// high-water mark and staying there. That holds for its script pool
/// too, even while the caller keeps several produced scripts alive at
/// once, because the pool hands each demand the smallest spare that
/// fits.
#[derive(Debug, Default)]
pub struct DiffScratch {
    /// Reference-index storage.
    pub(crate) index: IndexScratch,
    /// Recycled script storage the produced script is built from.
    pub(crate) pool: crate::ScriptPool,
}

impl DiffScratch {
    /// Creates an empty arena. Storage is grown on first use and reused
    /// afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The script-storage pool scripts produced from this arena draw on.
    ///
    /// [Recycle](crate::ScriptPool::recycle) finished scripts here and
    /// subsequent diffs through this arena build their output out of the
    /// returned storage instead of allocating.
    #[must_use]
    pub fn pool_mut(&mut self) -> &mut crate::ScriptPool {
        &mut self.pool
    }
}

thread_local! {
    /// Per-thread arena behind the allocation-free `Differ::diff` entry
    /// points.
    static THREAD_SCRATCH: RefCell<DiffScratch> = RefCell::new(DiffScratch::new());
}

/// Runs `f` with this thread's shared arena (or a fresh one on re-entrant
/// use, which only happens if a differ is invoked from inside another
/// diff on the same thread).
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut DiffScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut DiffScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_length_stops_where_offsets_stop_fitting() {
        assert_eq!(indexed_len(0), 0);
        assert_eq!(indexed_len(12_345), 12_345);
        assert_eq!(indexed_len(u32::MAX as usize), u32::MAX as usize);
        let mut lengths = vec![1, 12_345, u32::MAX as usize];
        if let Some(past) = (u32::MAX as usize).checked_add(1) {
            assert_eq!(indexed_len(past), u32::MAX as usize);
            assert_eq!(indexed_len(usize::MAX), u32::MAX as usize);
            lengths.extend([past, usize::MAX]);
        }
        // Offsets run 0..indexed_len(n): the largest one fits a u32 and
        // never collides with the empty-slot sentinel.
        for positions in lengths {
            let largest = u32::try_from(indexed_len(positions) - 1).expect("fits u32");
            assert!(
                largest < EMPTY,
                "{positions} positions store offset {largest}"
            );
        }
    }

    #[test]
    fn thread_scratch_reuses_capacity() {
        with_thread_scratch(|s| {
            s.index.firsts.resize(1024, EMPTY);
        });
        with_thread_scratch(|s| {
            assert!(s.index.firsts.capacity() >= 1024);
        });
    }
}
