//! Half-open byte intervals and interval query structures.
//!
//! The paper reasons about inclusive intervals `[f, f + l - 1]`; we use the
//! equivalent half-open form `[start, end)` which avoids `- 1` underflow for
//! empty intervals and composes cleanly with Rust range conventions.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// A half-open byte interval `[start, end)`.
///
/// The paper's inclusive interval `[f, f + l - 1]` corresponds to
/// `Interval::from_offset_len(f, l)`.
///
/// # Example
///
/// ```
/// use ipr_digraph::Interval;
///
/// let read = Interval::from_offset_len(10, 4); // bytes 10..14
/// let write = Interval::from_offset_len(12, 8); // bytes 12..20
/// assert!(read.intersects(write));
/// assert_eq!(read.intersection(write), Some(Interval::new(12, 14)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    start: u64,
    end: u64,
}

impl Interval {
    /// Creates the interval `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    #[must_use]
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "interval start {start} exceeds end {end}");
        Self { start, end }
    }

    /// Creates the interval `[offset, offset + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` overflows `u64`.
    #[must_use]
    pub fn from_offset_len(offset: u64, len: u64) -> Self {
        let end = offset.checked_add(len).expect("interval end overflows u64");
        Self { start: offset, end }
    }

    /// The empty interval `[0, 0)`.
    #[must_use]
    pub fn empty() -> Self {
        Self { start: 0, end: 0 }
    }

    /// Inclusive lower bound.
    #[must_use]
    pub fn start(self) -> u64 {
        self.start
    }

    /// Exclusive upper bound.
    #[must_use]
    pub fn end(self) -> u64 {
        self.end
    }

    /// Number of bytes covered.
    #[must_use]
    pub fn len(self) -> u64 {
        self.end - self.start
    }

    /// Whether the interval covers no bytes.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Whether `byte` lies inside the interval.
    #[must_use]
    pub fn contains(self, byte: u64) -> bool {
        self.start <= byte && byte < self.end
    }

    /// Whether the two intervals share at least one byte.
    ///
    /// Empty intervals intersect nothing, matching the paper's convention
    /// that zero-length commands cannot conflict.
    #[must_use]
    pub fn intersects(self, other: Interval) -> bool {
        self.start.max(other.start) < self.end.min(other.end)
    }

    /// The common bytes of both intervals, if any.
    #[must_use]
    pub fn intersection(self, other: Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(Interval { start, end })
    }

    /// The interval translated by `delta` bytes.
    ///
    /// # Panics
    ///
    /// Panics on `u64` overflow.
    #[must_use]
    pub fn shifted(self, delta: u64) -> Self {
        Interval::new(
            self.start
                .checked_add(delta)
                .expect("interval shift overflows"),
            self.end
                .checked_add(delta)
                .expect("interval shift overflows"),
        )
    }

    /// Converts to a `Range<u64>`.
    #[must_use]
    pub fn as_range(self) -> Range<u64> {
        self.start..self.end
    }

    /// Converts to a `Range<usize>` for slice indexing.
    ///
    /// # Panics
    ///
    /// Panics if either bound does not fit in `usize`.
    #[must_use]
    pub fn as_usize_range(self) -> Range<usize> {
        let start = usize::try_from(self.start).expect("interval start exceeds usize");
        let end = usize::try_from(self.end).expect("interval end exceeds usize");
        start..end
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl From<Range<u64>> for Interval {
    fn from(r: Range<u64>) -> Self {
        Interval::new(r.start, r.end)
    }
}

/// Intersection queries against a *sorted, pairwise-disjoint* sequence of
/// intervals.
///
/// This is the data structure behind CRWI edge construction: the write
/// intervals of the copy commands in a well-formed delta file are disjoint,
/// so once sorted, the set of write intervals intersecting any query read
/// interval is a *contiguous index range*, found with two binary searches in
/// `O(log n)`.
///
/// # Example
///
/// ```
/// use ipr_digraph::{Interval, IntervalIndex};
///
/// let idx = IntervalIndex::new(vec![
///     Interval::new(0, 10),
///     Interval::new(10, 20),
///     Interval::new(25, 30),
/// ]).unwrap();
/// assert_eq!(idx.overlapping(Interval::new(5, 26)), 0..3);
/// assert_eq!(idx.overlapping(Interval::new(20, 25)), 2..2); // gap
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalIndex {
    intervals: Vec<Interval>,
}

/// Error returned by [`IntervalIndex::new`] when the input intervals are not
/// sorted and pairwise disjoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlapError {
    /// Index of the first interval that starts before its predecessor ends.
    pub index: usize,
}

impl fmt::Display for OverlapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interval at index {} overlaps or precedes its predecessor",
            self.index
        )
    }
}

impl std::error::Error for OverlapError {}

impl IntervalIndex {
    /// Builds an index over intervals that must already be sorted by start
    /// and pairwise disjoint. Empty intervals are rejected as they can never
    /// participate in an intersection.
    ///
    /// # Errors
    ///
    /// Returns [`OverlapError`] if any interval is empty, starts before its
    /// predecessor ends, or the sequence is unsorted.
    pub fn new(intervals: Vec<Interval>) -> Result<Self, OverlapError> {
        for i in 0..intervals.len() {
            if intervals[i].is_empty() {
                return Err(OverlapError { index: i });
            }
            if i > 0 && intervals[i].start() < intervals[i - 1].end() {
                return Err(OverlapError { index: i });
            }
        }
        Ok(Self { intervals })
    }

    /// Number of indexed intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the index holds no intervals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The interval stored at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn interval(&self, i: usize) -> Interval {
        self.intervals[i]
    }

    /// Index range of all stored intervals intersecting `query`.
    ///
    /// Because the stored intervals are sorted and disjoint, the result is a
    /// contiguous (possibly empty) range of indices. Runs in `O(log n)`.
    #[must_use]
    pub fn overlapping(&self, query: Interval) -> Range<usize> {
        if query.is_empty() {
            return 0..0;
        }
        // First interval whose end is strictly greater than query.start.
        let lo = self
            .intervals
            .partition_point(|iv| iv.end() <= query.start());
        // First interval whose start is at or past query.end.
        let hi = self
            .intervals
            .partition_point(|iv| iv.start() < query.end());
        if lo >= hi {
            lo..lo
        } else {
            lo..hi
        }
    }
}

/// A coalescing set of byte intervals: the union of everything inserted.
///
/// Used by the write-before-read verifier, which incrementally unions the
/// write intervals of applied commands and asks whether any later read
/// interval touches the union (Equation 2 of the paper).
///
/// # Example
///
/// ```
/// use ipr_digraph::{Interval, IntervalSet};
///
/// let mut set = IntervalSet::new();
/// set.insert(Interval::new(0, 10));
/// set.insert(Interval::new(10, 20)); // coalesces with the first
/// assert_eq!(set.span_count(), 1);
/// assert!(set.intersects(Interval::new(5, 6)));
/// assert!(!set.intersects(Interval::new(20, 30)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Maps span start to span end; spans are disjoint and non-adjacent.
    spans: BTreeMap<u64, u64>,
    /// Total bytes covered.
    covered: u64,
}

impl IntervalSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of maximal disjoint spans currently stored.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Total number of bytes covered by the union.
    #[must_use]
    pub fn covered_bytes(&self) -> u64 {
        self.covered
    }

    /// Whether nothing has been inserted (or only empty intervals).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Inserts `iv` into the union, coalescing with abutting or overlapping
    /// spans. Empty intervals are ignored.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        let mut start = iv.start();
        let mut end = iv.end();
        // Absorb a span beginning at or before `start` that reaches it.
        if let Some((&s, &e)) = self.spans.range(..=start).next_back() {
            if e >= start {
                start = s;
                end = end.max(e);
                self.covered -= e - s;
                self.spans.remove(&s);
            }
        }
        // Absorb every span starting inside (or abutting) the new one.
        loop {
            let next = self.spans.range(start..=end).next().map(|(&s, &e)| (s, e));
            match next {
                Some((s, e)) => {
                    end = end.max(e);
                    self.covered -= e - s;
                    self.spans.remove(&s);
                }
                None => break,
            }
        }
        self.covered += end - start;
        self.spans.insert(start, end);
    }

    /// The lowest byte of `iv` inside the union, if any.
    #[must_use]
    pub fn first_overlap(&self, iv: Interval) -> Option<u64> {
        if iv.is_empty() {
            return None;
        }
        if let Some((_, &e)) = self.spans.range(..=iv.start()).next_back() {
            if e > iv.start() {
                return Some(iv.start());
            }
        }
        self.spans
            .range(iv.start()..iv.end())
            .next()
            .map(|(&s, _)| s)
    }

    /// Whether `iv` shares at least one byte with the union.
    #[must_use]
    pub fn intersects(&self, iv: Interval) -> bool {
        self.first_overlap(iv).is_some()
    }

    /// Total bytes of `iv` covered by the union.
    #[must_use]
    pub fn intersection_len(&self, iv: Interval) -> u64 {
        if iv.is_empty() {
            return 0;
        }
        let mut total = 0;
        if let Some((&s, &e)) = self.spans.range(..=iv.start()).next_back() {
            if let Some(x) = Interval::new(s, e).intersection(iv) {
                total += x.len();
            }
        }
        for (&s, &e) in self.spans.range(iv.start() + 1..iv.end()) {
            if let Some(x) = Interval::new(s, e).intersection(iv) {
                total += x.len();
            }
        }
        total
    }

    /// Iterates the maximal disjoint spans in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Interval> + '_ {
        self.spans.iter().map(|(&s, &e)| Interval::new(s, e))
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut set = IntervalSet::new();
        for iv in iter {
            set.insert(iv);
        }
        set
    }
}

impl Extend<Interval> for IntervalSet {
    fn extend<I: IntoIterator<Item = Interval>>(&mut self, iter: I) {
        for iv in iter {
            self.insert(iv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let iv = Interval::from_offset_len(10, 5);
        assert_eq!(iv.start(), 10);
        assert_eq!(iv.end(), 15);
        assert_eq!(iv.len(), 5);
        assert!(!iv.is_empty());
        assert!(iv.contains(10));
        assert!(iv.contains(14));
        assert!(!iv.contains(15));
    }

    #[test]
    fn empty_interval_has_no_bytes() {
        let iv = Interval::empty();
        assert!(iv.is_empty());
        assert_eq!(iv.len(), 0);
        assert!(!iv.contains(0));
    }

    #[test]
    #[should_panic(expected = "exceeds end")]
    fn inverted_interval_panics() {
        let _ = Interval::new(5, 4);
    }

    #[test]
    fn intersection_cases() {
        let a = Interval::new(0, 10);
        assert!(a.intersects(Interval::new(9, 20)));
        assert!(!a.intersects(Interval::new(10, 20)));
        assert!(!a.intersects(Interval::new(10, 10)));
        assert_eq!(
            a.intersection(Interval::new(5, 30)),
            Some(Interval::new(5, 10))
        );
        assert_eq!(a.intersection(Interval::new(10, 30)), None);
    }

    #[test]
    fn empty_intersects_nothing() {
        let e = Interval::new(5, 5);
        assert!(!e.intersects(Interval::new(0, 10)));
        assert!(!Interval::new(0, 10).intersects(e));
    }

    #[test]
    fn shifted_moves_both_bounds() {
        assert_eq!(Interval::new(1, 4).shifted(10), Interval::new(11, 14));
    }

    #[test]
    fn index_rejects_overlap_and_disorder() {
        assert!(IntervalIndex::new(vec![Interval::new(0, 5), Interval::new(4, 8)]).is_err());
        assert!(IntervalIndex::new(vec![Interval::new(5, 8), Interval::new(0, 2)]).is_err());
        assert!(IntervalIndex::new(vec![Interval::new(3, 3)]).is_err());
        assert!(IntervalIndex::new(vec![]).is_ok());
    }

    #[test]
    fn index_overlapping_ranges() {
        let idx = IntervalIndex::new(vec![
            Interval::new(0, 10),
            Interval::new(10, 20),
            Interval::new(25, 30),
            Interval::new(40, 41),
        ])
        .unwrap();
        assert_eq!(idx.overlapping(Interval::new(0, 1)), 0..1);
        assert_eq!(idx.overlapping(Interval::new(9, 11)), 0..2);
        assert_eq!(idx.overlapping(Interval::new(20, 25)), 2..2);
        assert_eq!(idx.overlapping(Interval::new(5, 41)), 0..4);
        assert_eq!(idx.overlapping(Interval::new(41, 50)), 4..4);
        assert_eq!(idx.overlapping(Interval::new(3, 3)), 0..0);
    }

    #[test]
    fn index_overlapping_on_empty_index() {
        let idx = IntervalIndex::default();
        assert_eq!(idx.overlapping(Interval::new(0, 100)), 0..0);
    }

    #[test]
    fn set_coalesces_adjacent_spans() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(0, 10));
        s.insert(Interval::new(20, 30));
        assert_eq!(s.span_count(), 2);
        s.insert(Interval::new(10, 20));
        assert_eq!(s.span_count(), 1);
        assert_eq!(s.covered_bytes(), 30);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Interval::new(0, 30)]);
    }

    #[test]
    fn set_overlapping_inserts_count_once() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(0, 10));
        s.insert(Interval::new(5, 15));
        s.insert(Interval::new(0, 3));
        assert_eq!(s.covered_bytes(), 15);
        assert_eq!(s.span_count(), 1);
    }

    #[test]
    fn set_insert_bridging_many_spans() {
        let mut s = IntervalSet::new();
        for i in 0..5u64 {
            s.insert(Interval::new(i * 10, i * 10 + 2));
        }
        assert_eq!(s.span_count(), 5);
        s.insert(Interval::new(1, 45));
        assert_eq!(s.span_count(), 1);
        assert_eq!(s.covered_bytes(), 45);
    }

    #[test]
    fn set_intersects_and_length() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(10, 20));
        s.insert(Interval::new(30, 40));
        assert!(s.intersects(Interval::new(19, 31)));
        assert!(!s.intersects(Interval::new(20, 30)));
        assert!(!s.intersects(Interval::new(0, 10)));
        assert_eq!(s.first_overlap(Interval::new(19, 31)), Some(19));
        assert_eq!(s.first_overlap(Interval::new(0, 35)), Some(10));
        assert_eq!(s.first_overlap(Interval::new(25, 35)), Some(30));
        assert_eq!(s.first_overlap(Interval::new(20, 30)), None);
        assert_eq!(s.first_overlap(Interval::new(15, 15)), None);
        assert_eq!(s.intersection_len(Interval::new(15, 35)), 10);
        assert_eq!(s.intersection_len(Interval::new(0, 100)), 20);
        assert_eq!(s.intersection_len(Interval::new(20, 30)), 0);
    }

    #[test]
    fn set_ignores_empty_inserts() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(7, 7));
        assert!(s.is_empty());
        assert_eq!(s.covered_bytes(), 0);
    }

    #[test]
    fn set_from_iterator() {
        let s: IntervalSet = [Interval::new(0, 5), Interval::new(5, 9)]
            .into_iter()
            .collect();
        assert_eq!(s.covered_bytes(), 9);
        assert_eq!(s.span_count(), 1);
    }
}
