//! The delta script: a validated sequence of commands encoding one file
//! version against another.

use crate::command::{Add, Command, Copy};
use std::fmt;

/// Error returned when a command sequence does not form a well-formed delta
/// script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScriptError {
    /// A command writes zero bytes; empty commands are forbidden so that
    /// interval reasoning stays non-degenerate.
    EmptyCommand {
        /// Index of the offending command.
        index: usize,
    },
    /// A copy command reads past the end of the reference file.
    ReadOutOfBounds {
        /// Index of the offending command.
        index: usize,
        /// Length of the reference file.
        source_len: u64,
    },
    /// A command writes past the end of the version file.
    WriteOutOfBounds {
        /// Index of the offending command.
        index: usize,
        /// Length of the version file.
        target_len: u64,
    },
    /// Two commands write overlapping version intervals; §3 requires the
    /// write intervals of a delta file to be disjoint.
    OverlappingWrites {
        /// Indices of the two conflicting commands (in input order).
        first: usize,
        /// Second conflicting command.
        second: usize,
    },
    /// The write intervals do not cover the whole version file.
    IncompleteCoverage {
        /// Bytes covered by all write intervals.
        covered: u64,
        /// Length of the version file.
        target_len: u64,
    },
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::EmptyCommand { index } => {
                write!(f, "command {index} writes zero bytes")
            }
            ScriptError::ReadOutOfBounds { index, source_len } => {
                write!(
                    f,
                    "command {index} reads past the reference file (length {source_len})"
                )
            }
            ScriptError::WriteOutOfBounds { index, target_len } => {
                write!(
                    f,
                    "command {index} writes past the version file (length {target_len})"
                )
            }
            ScriptError::OverlappingWrites { first, second } => {
                write!(
                    f,
                    "commands {first} and {second} write overlapping intervals"
                )
            }
            ScriptError::IncompleteCoverage {
                covered,
                target_len,
            } => {
                write!(
                    f,
                    "write intervals cover {covered} of {target_len} version bytes"
                )
            }
        }
    }
}

impl std::error::Error for ScriptError {}

/// A validated delta script: an ordered sequence of commands that encodes a
/// `target_len`-byte version file against a `source_len`-byte reference
/// file.
///
/// Invariants enforced at construction (the paper's §3 requirements):
///
/// * every command writes at least one byte;
/// * every copy reads inside `[0, source_len)`;
/// * every command writes inside `[0, target_len)`;
/// * the write intervals are pairwise disjoint and exactly tile
///   `[0, target_len)`.
///
/// Because the write intervals are disjoint and complete, *any* permutation
/// of the commands materializes the same version file when scratch space is
/// available; the order only matters for in-place reconstruction.
///
/// # Example
///
/// ```
/// use ipr_delta::{Command, DeltaScript};
///
/// let script = DeltaScript::new(3, 6, vec![
///     Command::copy(0, 0, 3),
///     Command::add(3, b"xyz".to_vec()),
/// ])?;
/// assert_eq!(script.copy_count(), 1);
/// assert_eq!(script.add_count(), 1);
/// # Ok::<(), ipr_delta::ScriptError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaScript {
    source_len: u64,
    target_len: u64,
    commands: Vec<Command>,
}

impl DeltaScript {
    /// Validates `commands` and builds a script.
    ///
    /// # Errors
    ///
    /// Returns a [`ScriptError`] describing the first violated invariant.
    pub fn new(
        source_len: u64,
        target_len: u64,
        commands: Vec<Command>,
    ) -> Result<Self, ScriptError> {
        check_bounds(&commands, source_len, target_len)?;
        if commands.windows(2).all(|w| w[0].to() <= w[1].to()) {
            // Already write-ordered (every builder-produced script is):
            // validate in place without materializing a sort permutation.
            // A stable sort of a non-strictly ordered sequence is the
            // identity, so this walk visits the same pairs in the same
            // order as the sorting path below.
            check_tiling(&commands, 0..commands.len(), target_len)?;
        } else {
            let mut order: Vec<usize> = (0..commands.len()).collect();
            order.sort_by_key(|&i| commands[i].to());
            check_tiling(&commands, order.iter().copied(), target_len)?;
        }
        Ok(Self {
            source_len,
            target_len,
            commands,
        })
    }

    /// Validates `commands` and builds a script, reusing `order_scratch`
    /// for the sort permutation so steady-state construction performs no
    /// heap allocation.
    ///
    /// Behaviour matches [`DeltaScript::new`], except that when several
    /// commands share a write offset (always an error) the reported
    /// [`ScriptError::OverlappingWrites`] pair may differ: the sort here is
    /// unstable. In valid scripts write offsets are unique, so the two
    /// constructors accept and reject exactly the same inputs.
    ///
    /// # Errors
    ///
    /// Returns a [`ScriptError`] describing the first violated invariant.
    pub fn new_with_scratch(
        source_len: u64,
        target_len: u64,
        commands: Vec<Command>,
        order_scratch: &mut Vec<usize>,
    ) -> Result<Self, ScriptError> {
        check_bounds(&commands, source_len, target_len)?;
        if commands.windows(2).all(|w| w[0].to() <= w[1].to()) {
            check_tiling(&commands, 0..commands.len(), target_len)?;
        } else {
            order_scratch.clear();
            order_scratch.extend(0..commands.len());
            order_scratch.sort_unstable_by_key(|&i| commands[i].to());
            check_tiling(&commands, order_scratch.iter().copied(), target_len)?;
        }
        Ok(Self {
            source_len,
            target_len,
            commands,
        })
    }

    /// Length of the reference (old) file.
    #[must_use]
    pub fn source_len(&self) -> u64 {
        self.source_len
    }

    /// Length of the version (new) file.
    #[must_use]
    pub fn target_len(&self) -> u64 {
        self.target_len
    }

    /// The commands in application order.
    #[must_use]
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Number of commands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether the script has no commands (only possible for an empty
    /// version file).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Number of copy commands.
    #[must_use]
    pub fn copy_count(&self) -> usize {
        self.commands.iter().filter(|c| c.is_copy()).count()
    }

    /// Number of add commands.
    #[must_use]
    pub fn add_count(&self) -> usize {
        self.commands.iter().filter(|c| c.is_add()).count()
    }

    /// Total bytes materialized by copy commands.
    #[must_use]
    pub fn copied_bytes(&self) -> u64 {
        self.commands
            .iter()
            .filter(|c| c.is_copy())
            .map(Command::len)
            .sum()
    }

    /// Total literal bytes carried by add commands.
    #[must_use]
    pub fn added_bytes(&self) -> u64 {
        self.commands
            .iter()
            .filter(|c| c.is_add())
            .map(Command::len)
            .sum()
    }

    /// The copy commands, in application order.
    #[must_use]
    pub fn copies(&self) -> Vec<Copy> {
        self.commands
            .iter()
            .filter_map(|c| c.as_copy().copied())
            .collect()
    }

    /// The add commands, in application order.
    #[must_use]
    pub fn adds(&self) -> Vec<Add> {
        self.commands
            .iter()
            .filter_map(|c| c.as_add().cloned())
            .collect()
    }

    /// Whether the commands are listed in write order (ascending `to`),
    /// which the offset-free [ordered codec](crate::codec::Format::Ordered)
    /// requires.
    #[must_use]
    pub fn is_write_ordered(&self) -> bool {
        self.commands.windows(2).all(|w| w[0].to() <= w[1].to())
    }

    /// Returns the same script with commands sorted into write order.
    #[must_use]
    pub fn into_write_ordered(mut self) -> DeltaScript {
        self.commands.sort_by_key(Command::to);
        self
    }

    /// Returns a script with the same commands in the given permutation.
    ///
    /// Since write intervals are disjoint and complete, the permuted script
    /// materializes the same version file under scratch-space application.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..len()`.
    #[must_use]
    pub fn permuted(&self, order: &[usize]) -> DeltaScript {
        assert_eq!(
            order.len(),
            self.commands.len(),
            "permutation length mismatch"
        );
        let mut seen = vec![false; self.commands.len()];
        let mut commands = Vec::with_capacity(self.commands.len());
        for &i in order {
            assert!(!seen[i], "duplicate index {i} in permutation");
            seen[i] = true;
            commands.push(self.commands[i].clone());
        }
        DeltaScript {
            source_len: self.source_len,
            target_len: self.target_len,
            commands,
        }
    }

    /// Merges adjacent compatible commands of a write-ordered script:
    /// back-to-back adds coalesce, and copies whose source and
    /// destination are both contiguous coalesce.
    ///
    /// The main use is undoing the splits forced by fixed-width codecs
    /// ([`Format::PaperOrdered`](crate::codec::Format::PaperOrdered)
    /// caps adds at 255 bytes): decode, then normalize, and the original
    /// command boundaries are restored.
    ///
    /// # Panics
    ///
    /// Panics if the script is not write-ordered — for out-of-order
    /// (in-place) scripts the command order is the safety property and
    /// must not be resorted implicitly; call
    /// [`DeltaScript::into_write_ordered`] first if that is really what
    /// you want.
    #[must_use]
    pub fn normalized(&self) -> DeltaScript {
        assert!(
            self.is_write_ordered(),
            "normalization requires a write-ordered script"
        );
        let mut builder = crate::diff::ScriptBuilder::new();
        for cmd in &self.commands {
            match cmd {
                Command::Copy(c) => builder.push_copy(c.from, c.len),
                Command::Add(a) => builder.push_literal(&a.data),
            }
        }
        let normalized = builder.finish(self.source_len);
        debug_assert_eq!(normalized.target_len(), self.target_len);
        normalized
    }

    /// Decomposes the script into `(source_len, target_len, commands)`.
    #[must_use]
    pub fn into_parts(self) -> (u64, u64, Vec<Command>) {
        (self.source_len, self.target_len, self.commands)
    }
}

/// Bounds and non-emptiness checks shared by the constructors. Offsets come
/// straight off the wire, so `to + len` may overflow u64: use checked
/// arithmetic rather than interval construction (which would panic).
fn check_bounds(commands: &[Command], source_len: u64, target_len: u64) -> Result<(), ScriptError> {
    for (index, cmd) in commands.iter().enumerate() {
        if cmd.is_empty() {
            return Err(ScriptError::EmptyCommand { index });
        }
        match cmd.to().checked_add(cmd.len()) {
            Some(end) if end <= target_len => {}
            _ => return Err(ScriptError::WriteOutOfBounds { index, target_len }),
        }
        if let Command::Copy(c) = cmd {
            match c.from.checked_add(c.len) {
                Some(end) if end <= source_len => {}
                _ => return Err(ScriptError::ReadOutOfBounds { index, source_len }),
            }
        }
    }
    Ok(())
}

/// Disjointness and coverage over the write intervals, visited in the
/// (start-sorted) index order produced by `order`.
fn check_tiling(
    commands: &[Command],
    order: impl Iterator<Item = usize>,
    target_len: u64,
) -> Result<(), ScriptError> {
    let mut covered = 0u64;
    let mut prev_end = 0u64;
    let mut prev_index = usize::MAX;
    for i in order {
        let w = commands[i].write_interval();
        if prev_index != usize::MAX && w.start() < prev_end {
            let (a, b) = (prev_index.min(i), prev_index.max(i));
            return Err(ScriptError::OverlappingWrites {
                first: a,
                second: b,
            });
        }
        covered += w.len();
        prev_end = w.end();
        prev_index = i;
    }
    if covered != target_len {
        return Err(ScriptError::IncompleteCoverage {
            covered,
            target_len,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmds() -> Vec<Command> {
        vec![
            Command::copy(0, 0, 4),
            Command::add(4, b"abcd".to_vec()),
            Command::copy(4, 8, 2),
        ]
    }

    #[test]
    fn valid_script() {
        let s = DeltaScript::new(10, 10, cmds()).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.copy_count(), 2);
        assert_eq!(s.add_count(), 1);
        assert_eq!(s.copied_bytes(), 6);
        assert_eq!(s.added_bytes(), 4);
        assert!(s.is_write_ordered());
    }

    #[test]
    fn empty_script_for_empty_target() {
        let s = DeltaScript::new(5, 0, vec![]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.target_len(), 0);
    }

    #[test]
    fn rejects_empty_command() {
        let err = DeltaScript::new(10, 4, vec![Command::copy(0, 0, 4), Command::add(4, vec![])])
            .unwrap_err();
        assert_eq!(err, ScriptError::EmptyCommand { index: 1 });
    }

    #[test]
    fn rejects_read_out_of_bounds() {
        let err = DeltaScript::new(3, 4, vec![Command::copy(0, 0, 4)]).unwrap_err();
        assert_eq!(
            err,
            ScriptError::ReadOutOfBounds {
                index: 0,
                source_len: 3
            }
        );
    }

    #[test]
    fn rejects_write_out_of_bounds() {
        let err = DeltaScript::new(10, 3, vec![Command::copy(0, 0, 4)]).unwrap_err();
        assert_eq!(
            err,
            ScriptError::WriteOutOfBounds {
                index: 0,
                target_len: 3
            }
        );
    }

    #[test]
    fn rejects_offset_overflow_without_panicking() {
        // Hostile wire input: to + len overflows u64.
        let err = DeltaScript::new(u64::MAX, u64::MAX, vec![Command::copy(0, u64::MAX - 1, 3)])
            .unwrap_err();
        assert!(matches!(err, ScriptError::WriteOutOfBounds { .. }));
        let err =
            DeltaScript::new(u64::MAX, 4, vec![Command::copy(u64::MAX - 1, 0, 4)]).unwrap_err();
        assert!(matches!(err, ScriptError::ReadOutOfBounds { .. }));
    }

    #[test]
    fn rejects_overlapping_writes() {
        let err = DeltaScript::new(10, 6, vec![Command::copy(0, 0, 4), Command::copy(0, 3, 3)])
            .unwrap_err();
        assert_eq!(
            err,
            ScriptError::OverlappingWrites {
                first: 0,
                second: 1
            }
        );
    }

    #[test]
    fn rejects_incomplete_coverage() {
        let err = DeltaScript::new(10, 6, vec![Command::copy(0, 0, 4)]).unwrap_err();
        assert_eq!(
            err,
            ScriptError::IncompleteCoverage {
                covered: 4,
                target_len: 6
            }
        );
    }

    #[test]
    fn rejects_gap_between_commands() {
        let err = DeltaScript::new(10, 8, vec![Command::copy(0, 0, 3), Command::copy(0, 5, 3)])
            .unwrap_err();
        assert!(matches!(
            err,
            ScriptError::IncompleteCoverage { covered: 6, .. }
        ));
    }

    #[test]
    fn permutation_independent_validity() {
        // Out-of-write-order command sequences are still valid scripts.
        let s =
            DeltaScript::new(10, 6, vec![Command::copy(0, 3, 3), Command::copy(5, 0, 3)]).unwrap();
        assert!(!s.is_write_ordered());
        let ordered = s.clone().into_write_ordered();
        assert!(ordered.is_write_ordered());
        assert_eq!(ordered.commands()[0].to(), 0);
    }

    #[test]
    fn permuted_reorders() {
        let s = DeltaScript::new(10, 10, cmds()).unwrap();
        let p = s.permuted(&[2, 0, 1]);
        assert_eq!(p.commands()[0], Command::copy(4, 8, 2));
        assert_eq!(p.len(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn permuted_rejects_duplicates() {
        let s = DeltaScript::new(10, 10, cmds()).unwrap();
        let _ = s.permuted(&[0, 0, 1]);
    }

    #[test]
    fn normalized_merges_adjacent_commands() {
        let s = DeltaScript::new(
            100,
            20,
            vec![
                Command::copy(10, 0, 4),
                Command::copy(14, 4, 4), // contiguous with the previous copy
                Command::add(8, vec![1, 2]),
                Command::add(10, vec![3, 4]), // contiguous add
                Command::copy(50, 12, 4),
                Command::copy(90, 16, 4), // NOT source-contiguous
            ],
        )
        .unwrap();
        let n = s.normalized();
        assert_eq!(n.len(), 4);
        assert_eq!(n.commands()[0], Command::copy(10, 0, 8));
        assert_eq!(n.commands()[1], Command::add(8, vec![1, 2, 3, 4]));
        assert_eq!(n.target_len(), 20);
    }

    #[test]
    fn normalized_undoes_paper_codec_splits() {
        use crate::codec::{decode, encode, Format};
        let original = DeltaScript::new(0, 700, vec![Command::add(0, vec![7; 700])]).unwrap();
        let wire = encode(&original, Format::PaperOrdered).unwrap();
        let decoded = decode(&wire).unwrap();
        assert_eq!(decoded.script.add_count(), 3, "codec split the add");
        assert_eq!(decoded.script.normalized(), original);
    }

    #[test]
    #[should_panic(expected = "write-ordered")]
    fn normalized_rejects_out_of_order_scripts() {
        let s =
            DeltaScript::new(10, 6, vec![Command::copy(0, 3, 3), Command::copy(5, 0, 3)]).unwrap();
        let _ = s.normalized();
    }

    #[test]
    fn scratch_constructor_matches_plain_constructor() {
        let mut order = Vec::new();
        // Valid ordered, valid unordered, and each error class.
        let cases: Vec<(u64, u64, Vec<Command>)> = vec![
            (10, 10, cmds()),
            (10, 6, vec![Command::copy(0, 3, 3), Command::copy(5, 0, 3)]),
            (5, 0, vec![]),
            (10, 4, vec![Command::copy(0, 0, 4), Command::add(4, vec![])]),
            (3, 4, vec![Command::copy(0, 0, 4)]),
            (10, 3, vec![Command::copy(0, 0, 4)]),
            (10, 6, vec![Command::copy(0, 0, 4), Command::copy(0, 3, 3)]),
            (10, 6, vec![Command::copy(0, 0, 4)]),
        ];
        for (source_len, target_len, commands) in cases {
            let plain = DeltaScript::new(source_len, target_len, commands.clone());
            let scratch =
                DeltaScript::new_with_scratch(source_len, target_len, commands, &mut order);
            assert_eq!(plain, scratch);
        }
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<ScriptError> = vec![
            ScriptError::EmptyCommand { index: 0 },
            ScriptError::ReadOutOfBounds {
                index: 1,
                source_len: 2,
            },
            ScriptError::WriteOutOfBounds {
                index: 1,
                target_len: 2,
            },
            ScriptError::OverlappingWrites {
                first: 0,
                second: 1,
            },
            ScriptError::IncompleteCoverage {
                covered: 0,
                target_len: 2,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
