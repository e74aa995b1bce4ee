//! Differencing engines: produce a [`DeltaScript`] encoding a version file
//! against a reference file.
//!
//! Three engines cover the trade-off the paper's lineage explores:
//!
//! * [`GreedyDiffer`] — indexes every reference offset and picks the
//!   longest match at each version position. Better compression, more
//!   time and memory (after Reichenberger '91).
//! * [`OnePassDiffer`] — a fixed-size footprint table and a single forward
//!   scan: linear time, constant space (after Burns & Long '97, the
//!   algorithm the paper pairs with in-place conversion).
//! * [`CorrectingDiffer`] — one-pass costs with two candidates per slot
//!   and backward match extension.
//!
//! All emit scripts in write order whose commands exactly tile the
//! version file, so `apply(diff(r, v), r) == v` always holds.
//!
//! Each engine also implements [`IndexedDiffer`], splitting differencing
//! into *build a reference index* and *scan the version against it*.
//! Every diff runs the same method, [`IndexedDiffer::diff_with`]: one
//! index build, then one forward scan over the whole version on the
//! calling thread. Per-call working storage lives in a reusable
//! [`DiffScratch`] arena, so steady-state diffing performs no table or
//! buffer allocations.
//!
//! All engines share the [`kernel`] match primitives — word-wide seed
//! verification and forward/backward match extension — so the inner
//! loops compare eight bytes per instruction instead of one.

mod correcting;
mod greedy;
mod indexed;
pub mod kernel;
mod onepass;
mod rolling;
mod scratch;

pub use correcting::CorrectingDiffer;
pub use greedy::{GreedyDiffer, GreedyIndex};
pub use indexed::{FootprintIndex, IndexedDiffer};
pub use onepass::OnePassDiffer;
pub use rolling::{hash_of, RollingHash};
pub use scratch::{DiffScratch, IndexScratch};

use crate::command::Command;
use crate::script::DeltaScript;

/// A differencing algorithm.
///
/// Implementations must produce a write-ordered script that reconstructs
/// `version` from `reference` (invariant I2 of DESIGN.md).
pub trait Differ {
    /// Computes a delta script encoding `version` against `reference`.
    fn diff(&self, reference: &[u8], version: &[u8]) -> DeltaScript;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Incrementally builds a write-ordered, exactly-tiling [`DeltaScript`].
///
/// Literal bytes pushed back-to-back coalesce into a single add command;
/// back-to-back copies from contiguous reference ranges coalesce into a
/// single copy. Coalescing goes through a run buffer, so a literal byte
/// is copied twice on its way into its add's payload, except in a run
/// ended by [`ScriptBuilder::end_literal_run`] or
/// [`ScriptBuilder::push_literal_then_copy`] while none was pending.
///
/// # Example
///
/// ```
/// use ipr_delta::diff::ScriptBuilder;
///
/// let mut b = ScriptBuilder::new();
/// b.push_copy(10, 4);
/// b.push_literal(b"ab");
/// b.push_literal(b"cd"); // coalesces with the previous literal
/// let script = b.finish(100);
/// assert_eq!(script.len(), 2);
/// assert_eq!(script.target_len(), 8);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ScriptBuilder {
    commands: Vec<Command>,
    /// The literal run being accumulated; it keeps its capacity from run
    /// to run, and each finished run is copied into a payload that fits.
    pending: Vec<u8>,
    cursor: u64,
    /// Where add payloads are drawn from (empty unless the builder was
    /// created from a [`ScriptPool`](crate::ScriptPool)).
    pool: crate::ScriptPool,
}

impl ScriptBuilder {
    /// Creates an empty builder positioned at version offset 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder whose command and payload storage, and literal
    /// run buffer, are drawn from `pool`, so building allocates nothing
    /// once the pool is warm. The builder holds the pool's storage until
    /// it is finished.
    ///
    /// Finish with [`ScriptBuilder::finish_into_pool`] to hand it back.
    pub(crate) fn from_pool(pool: &mut crate::ScriptPool) -> Self {
        let mut pool = std::mem::take(pool);
        let commands = pool.take_commands();
        let mut pending = std::mem::take(&mut pool.run);
        pending.clear();
        Self {
            commands,
            pending,
            cursor: 0,
            pool,
        }
    }

    /// Current version-file offset (total bytes emitted so far).
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor + self.pending.len() as u64
    }

    /// Appends literal bytes at the cursor.
    pub fn push_literal(&mut self, data: &[u8]) {
        self.pending.extend_from_slice(data);
    }

    /// Appends one literal byte at the cursor.
    pub fn push_byte(&mut self, byte: u8) {
        self.pending.push(byte);
    }

    /// Appends the literal run `data`, then a copy of `len` reference
    /// bytes starting at `from`: [`push_literal`](Self::push_literal)
    /// then [`push_copy`](Self::push_copy), in the order a scan finds
    /// them. The copy ends the run ([`end_literal_run`](Self::end_literal_run)).
    pub fn push_literal_then_copy(&mut self, data: &[u8], from: u64, len: u64) {
        if len > 0 {
            self.end_literal_run(data);
        } else {
            self.push_literal(data);
        }
        self.push_copy(from, len);
    }

    /// Appends `data` as the end of the literal run: the same script as
    /// [`push_literal`](Self::push_literal), provided only a copy or a
    /// finish follows. A run ended while no literal is pending goes
    /// straight into its payload, one copy of each byte where
    /// `push_literal` takes two.
    pub fn end_literal_run(&mut self, data: &[u8]) {
        if self.pending.is_empty() {
            self.push_add(data);
        } else {
            self.push_literal(data);
        }
    }

    /// Appends a copy of `len` reference bytes starting at `from`.
    ///
    /// Zero-length copies are ignored.
    pub fn push_copy(&mut self, from: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.flush_pending();
        // Coalesce with a directly preceding contiguous copy.
        if let Some(Command::Copy(prev)) = self.commands.last_mut() {
            if prev.from + prev.len == from && prev.to + prev.len == self.cursor {
                prev.len += len;
                self.cursor += len;
                return;
            }
        }
        self.commands.push(Command::copy(from, self.cursor, len));
        self.cursor += len;
    }

    /// Appends an add command of `data` at the cursor (nothing if it is
    /// empty), its payload drawn from the pool to fit.
    fn push_add(&mut self, data: &[u8]) {
        if !data.is_empty() {
            let mut payload = self.pool.take_bytes(data.len());
            payload.extend_from_slice(data);
            self.commands.push(Command::add(self.cursor, payload));
            self.cursor += data.len() as u64;
        }
    }

    fn flush_pending(&mut self) {
        if !self.pending.is_empty() {
            let mut pending = std::mem::take(&mut self.pending);
            self.push_add(&pending);
            pending.clear();
            self.pending = pending;
        }
    }

    /// Finishes the script against a `source_len`-byte reference.
    ///
    /// The target length is the number of bytes pushed.
    ///
    /// # Panics
    ///
    /// Panics if the pushed commands do not validate (impossible unless a
    /// copy read out of the reference bounds).
    #[must_use]
    pub fn finish(mut self, source_len: u64) -> DeltaScript {
        self.flush_pending();
        let target_len = self.cursor;
        DeltaScript::new(source_len, target_len, self.commands)
            .expect("builder emits tiling write-ordered commands")
    }

    /// Like [`ScriptBuilder::finish`], but hands the pool's storage back
    /// first (the counterpart of [`ScriptBuilder::from_pool`]).
    pub(crate) fn finish_into_pool(
        mut self,
        source_len: u64,
        pool: &mut crate::ScriptPool,
    ) -> DeltaScript {
        self.flush_pending();
        self.pool.run = self.pending;
        *pool = self.pool;
        let target_len = self.cursor;
        DeltaScript::new(source_len, target_len, self.commands)
            .expect("builder emits tiling write-ordered commands")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;

    #[test]
    fn builder_coalesces_literals() {
        let mut b = ScriptBuilder::new();
        b.push_byte(1);
        b.push_byte(2);
        b.push_literal(&[3, 4]);
        let s = b.finish(0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.added_bytes(), 4);
    }

    #[test]
    fn builder_coalesces_contiguous_copies() {
        let mut b = ScriptBuilder::new();
        b.push_copy(10, 4);
        b.push_copy(14, 4);
        b.push_copy(30, 4); // not contiguous
        let s = b.finish(100);
        assert_eq!(s.copy_count(), 2);
        assert_eq!(s.commands()[0], Command::copy(10, 0, 8));
    }

    #[test]
    fn builder_interleaves() {
        let mut b = ScriptBuilder::new();
        b.push_copy(0, 2);
        b.push_literal(b"xy");
        b.push_copy(2, 2);
        let s = b.finish(4);
        assert_eq!(s.len(), 3);
        assert!(s.is_write_ordered());
        assert_eq!(apply(&s, b"abcd").unwrap(), b"abxycd");
    }

    /// The one-copy paths emit what the plain pushes do: straight after
    /// a copy, after pending literals, with an empty run, with a run that
    /// coalesces with the copy before it, and with a zero-length copy
    /// the next literal still joins; so does the run that ends the
    /// script, the whole script included.
    #[test]
    fn literal_then_copy_equals_separate_pushes() {
        type Step = (&'static [u8], u64, u64);
        let cases: [&[Step]; 6] = [
            &[(b"ab", 0, 2), (b"cd", 4, 3)],
            &[(b"", 0, 2), (b"", 2, 2), (b"x", 9, 1)],
            &[(b"xy", 5, 0), (b"z", 1, 2)],
            &[(b"", 3, 0), (b"q", 3, 4)],
            &[(b"long literal run", 1, 8)],
            &[],
        ];
        for (case, steps) in cases.iter().enumerate() {
            for lead in [&b""[..], b"pending"] {
                let (mut one, mut two) = (ScriptBuilder::new(), ScriptBuilder::new());
                one.push_literal(lead);
                two.push_literal(lead);
                for &(data, from, len) in *steps {
                    one.push_literal_then_copy(data, from, len);
                    two.push_literal(data);
                    two.push_copy(from, len);
                }
                one.end_literal_run(b"the end");
                two.push_literal(b"the end");
                assert_eq!(one.finish(16), two.finish(16), "case {case}, lead {lead:?}");
            }
        }
    }

    #[test]
    fn builder_ignores_zero_len_copy() {
        let mut b = ScriptBuilder::new();
        b.push_copy(5, 0);
        let s = b.finish(10);
        assert!(s.is_empty());
    }

    #[test]
    fn cursor_tracks_pending() {
        let mut b = ScriptBuilder::new();
        assert_eq!(b.cursor(), 0);
        b.push_literal(b"abc");
        assert_eq!(b.cursor(), 3);
        b.push_copy(0, 2);
        assert_eq!(b.cursor(), 5);
    }

    /// Differs must be behaviourally interchangeable.
    fn check_differ(d: &dyn Differ, reference: &[u8], version: &[u8]) -> DeltaScript {
        let script = d.diff(reference, version);
        assert_eq!(
            apply(&script, reference).unwrap(),
            version,
            "{} failed on {} -> {} bytes",
            d.name(),
            reference.len(),
            version.len()
        );
        assert!(script.is_write_ordered());
        script
    }

    #[test]
    fn differs_handle_degenerate_inputs() {
        let differs: [&dyn Differ; 3] = [
            &GreedyDiffer::default(),
            &OnePassDiffer::default(),
            &CorrectingDiffer::default(),
        ];
        // 32 KiB of xorshift bytes: every seed window is unique.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let noise: Vec<u8> = (0..32 * 1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let zeros = vec![0u8; 8 * 1024];
        let unrelated: Vec<u8> = (0..8 * 1024u32).map(|i| (i * 37 % 251) as u8 | 1).collect();
        for d in differs {
            check_differ(d, b"", b"");
            check_differ(d, b"", b"hello world, entirely new data");
            check_differ(d, b"all of this disappears", b"");
            check_differ(d, b"tiny", b"tiny");
            check_differ(d, b"abc", b"xyz");
            let same = vec![7u8; 10_000];
            check_differ(d, &same, &same);
            // Identical inputs add nothing.
            let script = check_differ(d, &noise, &noise);
            assert_eq!(script.added_bytes(), 0, "{} on identical inputs", d.name());
            // A version sharing nothing with the reference is one add.
            let script = check_differ(d, &zeros, &unrelated);
            assert_eq!(script.added_bytes(), unrelated.len() as u64, "{}", d.name());
            assert_eq!(script.add_count(), 1, "{}: adds must coalesce", d.name());
        }
    }
}
