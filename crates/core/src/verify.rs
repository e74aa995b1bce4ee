//! Write-before-read safety verification (Equation 2 of the paper).
//!
//! A delta script is *in-place safe* when, applied serially to a single
//! buffer, no copy command reads a byte that an earlier command has
//! already written:
//!
//! ```text
//! ∀j:  [f_j, f_j + l_j) ∩ ⋃_{i<j} [t_i, t_i + l_i) = ∅
//! ```
//!
//! Unlike the paper's Equation 1 (which ranges over copy commands only,
//! assuming adds have been moved to the end), this verifier checks *all*
//! commands in their actual order, so it also catches adds that clobber a
//! later read.

use ipr_delta::DeltaScript;
use ipr_digraph::{Interval, IntervalIndex, IntervalSet};
use std::fmt;
use std::ops::ControlFlow;

/// Evidence of a write-before-read conflict in a script's command order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrViolation {
    /// Index (application order) of the copy command whose read is
    /// clobbered.
    pub reader: usize,
    /// The reader's read interval.
    pub read: Interval,
    /// Bytes of the read interval already written by earlier commands.
    pub clobbered_bytes: u64,
}

impl fmt::Display for WrViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "command {} reads {} of which {} bytes were already written",
            self.reader, self.read, self.clobbered_bytes
        )
    }
}

impl std::error::Error for WrViolation {}

/// Checks Equation 2 over the script's command order.
///
/// # Errors
///
/// Returns the first [`WrViolation`] encountered, if any.
///
/// # Example
///
/// ```
/// use ipr_delta::{Command, DeltaScript};
/// use ipr_core::check_in_place_safe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Safe order: each command reads a region no earlier command wrote.
/// let safe = DeltaScript::new(16, 8, vec![
///     Command::copy(4, 0, 4),
///     Command::copy(8, 4, 4),
/// ])?;
/// assert!(check_in_place_safe(&safe).is_ok());
///
/// // Reversed: copy ⟨4, 0, 4⟩ now reads [4, 8) after it was overwritten.
/// let unsafe_ = safe.permuted(&[1, 0]);
/// assert!(check_in_place_safe(&unsafe_).is_err());
/// # Ok(())
/// # }
/// ```
pub fn check_in_place_safe(script: &DeltaScript) -> Result<(), WrViolation> {
    let mut written = IntervalSet::new();
    for (reader, cmd) in script.commands().iter().enumerate() {
        if let Some(read) = cmd.read_interval() {
            let clobbered_bytes = written.intersection_len(read);
            if clobbered_bytes > 0 {
                return Err(WrViolation {
                    reader,
                    read,
                    clobbered_bytes,
                });
            }
        }
        written.insert(cmd.write_interval());
    }
    Ok(())
}

/// [`check_in_place_safe`] through a reusable buffer: the same result,
/// violation included, with no allocation once `writes` has grown to the
/// script's command count. Appliers that take scripts from outside run
/// this before writing a byte.
///
/// Write intervals are pairwise disjoint (a [`DeltaScript`] invariant),
/// so sorting them by start sorts their ends too, and the writes a read
/// overlaps are one binary search and a short walk away. `writes` is
/// overwritten.
///
/// # Errors
///
/// Returns the first [`WrViolation`], exactly as [`check_in_place_safe`]
/// reports it.
///
/// # Example
///
/// ```
/// use ipr_delta::{Command, DeltaScript};
/// use ipr_core::{check_in_place_safe, check_in_place_safe_with};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let swap = DeltaScript::new(16, 16, vec![
///     Command::copy(8, 0, 8),
///     Command::copy(0, 8, 8),
/// ])?;
/// let mut writes = Vec::new();
/// assert_eq!(
///     check_in_place_safe_with(&swap, &mut writes),
///     check_in_place_safe(&swap),
/// );
/// # Ok(())
/// # }
/// ```
pub fn check_in_place_safe_with(
    script: &DeltaScript,
    writes: &mut Vec<(u64, u64, usize)>,
) -> Result<(), WrViolation> {
    writes.clear();
    writes.extend(script.commands().iter().enumerate().map(|(i, cmd)| {
        let w = cmd.write_interval();
        (w.start(), w.end(), i)
    }));
    writes.sort_unstable();
    for (reader, cmd) in script.commands().iter().enumerate() {
        let Some(read) = cmd.read_interval() else {
            continue;
        };
        // The first write that can overlap is the first ending past the
        // read's start.
        let first = writes.partition_point(|&(_, end, _)| end <= read.start());
        let clobbered_bytes: u64 = writes[first..]
            .iter()
            .take_while(|&&(start, _, _)| start < read.end())
            .filter(|&&(_, _, writer)| writer < reader)
            .map(|&(start, end, _)| end.min(read.end()) - start.max(read.start()))
            .sum();
        if clobbered_bytes > 0 {
            return Err(WrViolation {
                reader,
                read,
                clobbered_bytes,
            });
        }
    }
    Ok(())
}

/// Whether the script satisfies Equation 2 (see [`check_in_place_safe`]).
#[must_use]
pub fn is_in_place_safe(script: &DeltaScript) -> bool {
    check_in_place_safe(script).is_ok()
}

/// One write-before-read conflict pair: command `writer` is applied
/// before command `reader` but writes bytes `reader` still needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conflict {
    /// Application-order index of the earlier, writing command.
    pub writer: usize,
    /// Application-order index of the later, reading command.
    pub reader: usize,
    /// The bytes both touch.
    pub overlap: Interval,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "command {} overwrites {} before command {} reads it",
            self.writer, self.overlap, self.reader
        )
    }
}

/// Lists up to `limit` write-before-read conflict pairs in the script's
/// current command order (the diagnostics behind
/// [`count_wr_conflicts`]), ordered by reader index.
///
/// # Example
///
/// ```
/// use ipr_delta::{Command, DeltaScript};
/// use ipr_core::list_wr_conflicts;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let swap = DeltaScript::new(16, 16, vec![
///     Command::copy(8, 0, 8),
///     Command::copy(0, 8, 8),
/// ])?;
/// let conflicts = list_wr_conflicts(&swap, 10);
/// assert_eq!(conflicts.len(), 1);
/// assert_eq!((conflicts[0].writer, conflicts[0].reader), (0, 1));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn list_wr_conflicts(script: &DeltaScript, limit: usize) -> Vec<Conflict> {
    let mut conflicts = Vec::new();
    walk_wr_conflicts(script, |conflict| {
        conflicts.push(conflict);
        if conflicts.len() == limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    conflicts
}

/// Counts write-before-read conflicts in the script's current command
/// order: pairs `(i, j)` with `i < j` where command `i`'s write interval
/// intersects command `j`'s read interval (the paper's Equation 1, over
/// all commands).
///
/// Runs in `O(n log n + conflicts)` and allocates nothing per conflict.
#[must_use]
pub fn count_wr_conflicts(script: &DeltaScript) -> usize {
    let mut conflicts = 0;
    walk_wr_conflicts(script, |_| {
        conflicts += 1;
        ControlFlow::Continue(())
    });
    conflicts
}

/// Visits every write-before-read conflict in the script's current
/// command order, by reader index and then by write offset, until
/// `visit` breaks.
fn walk_wr_conflicts(script: &DeltaScript, mut visit: impl FnMut(Conflict) -> ControlFlow<()>) {
    let commands = script.commands();
    // Sort write intervals (disjoint by construction) for range queries,
    // remembering each command's application position.
    let mut by_write: Vec<usize> = (0..commands.len()).collect();
    by_write.sort_by_key(|&i| commands[i].to());
    let index = IntervalIndex::new(
        by_write
            .iter()
            .map(|&i| commands[i].write_interval())
            .collect(),
    )
    .expect("script write intervals are disjoint and non-empty");
    for (reader, cmd) in commands.iter().enumerate() {
        let Some(read) = cmd.read_interval() else {
            continue;
        };
        for k in index.overlapping(read) {
            let writer = by_write[k];
            if writer < reader {
                let overlap = commands[writer]
                    .write_interval()
                    .intersection(read)
                    .expect("index returned an overlapping interval");
                let conflict = Conflict {
                    writer,
                    reader,
                    overlap,
                };
                if visit(conflict).is_break() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipr_delta::Command;

    /// Chain: command 0 reads [4,8) and writes [0,4); command 1 reads
    /// [8,12) and writes [4,8). Order [0, 1] is safe, [1, 0] is not.
    fn chain_script(order: &[usize]) -> DeltaScript {
        DeltaScript::new(16, 8, vec![Command::copy(4, 0, 4), Command::copy(8, 4, 4)])
            .unwrap()
            .permuted(order)
    }

    #[test]
    fn safe_order_passes() {
        assert!(is_in_place_safe(&chain_script(&[0, 1])));
    }

    #[test]
    fn unsafe_order_detected_with_evidence() {
        let err = check_in_place_safe(&chain_script(&[1, 0])).unwrap_err();
        assert_eq!(err.reader, 1);
        assert_eq!(err.read, Interval::new(4, 8));
        assert_eq!(err.clobbered_bytes, 4);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn two_cycle_unsafe_in_both_orders() {
        // A block swap conflicts whichever way it is ordered: the paper's
        // case where reordering cannot help and a conversion is forced.
        let swap =
            DeltaScript::new(16, 16, vec![Command::copy(8, 0, 8), Command::copy(0, 8, 8)]).unwrap();
        assert!(!is_in_place_safe(&swap));
        assert!(!is_in_place_safe(&swap.permuted(&[1, 0])));
    }

    #[test]
    fn add_clobbering_read_detected() {
        let s = DeltaScript::new(
            8,
            16,
            vec![
                Command::add(0, vec![9; 8]),
                Command::copy(0, 8, 8), // reads [0,8) of the *reference*...
            ],
        )
        .unwrap();
        // ...but in-place, [0,8) of the buffer was just overwritten by the
        // add: unsafe.
        assert!(!is_in_place_safe(&s));
        // Adds last is safe.
        assert!(is_in_place_safe(&s.permuted(&[1, 0])));
    }

    #[test]
    fn self_overlap_is_safe() {
        let s = DeltaScript::new(16, 8, vec![Command::copy(4, 0, 8)]).unwrap();
        assert!(is_in_place_safe(&s));
    }

    #[test]
    fn partial_clobber_reported() {
        let s = DeltaScript::new(
            16,
            16,
            vec![
                Command::copy(12, 0, 4),
                Command::copy(2, 12, 4), // reads [2,6): bytes 2,3 clobbered
                Command::add(4, vec![1; 8]),
            ],
        )
        .unwrap();
        let err = check_in_place_safe(&s).unwrap_err();
        assert_eq!(err.reader, 1);
        assert_eq!(err.clobbered_bytes, 2);
    }

    #[test]
    fn conflict_counting() {
        assert_eq!(count_wr_conflicts(&chain_script(&[0, 1])), 0);
        assert_eq!(count_wr_conflicts(&chain_script(&[1, 0])), 1);
        // A safe straight copy has zero conflicts.
        let s = DeltaScript::new(8, 8, vec![Command::copy(0, 0, 8)]).unwrap();
        assert_eq!(count_wr_conflicts(&s), 0);
    }

    #[test]
    fn conflict_count_counts_pairs_not_bytes() {
        // One big read crossing three writes placed before it.
        let s = DeltaScript::new(
            12,
            20,
            vec![
                Command::add(0, vec![1; 4]),
                Command::add(4, vec![2; 4]),
                Command::add(8, vec![3; 4]),
                Command::copy(2, 12, 8), // reads [2,10): hits all three
            ],
        )
        .unwrap();
        assert_eq!(count_wr_conflicts(&s), 3);
    }

    #[test]
    fn conflict_listing_matches_count_and_respects_limit() {
        let s = DeltaScript::new(
            12,
            20,
            vec![
                Command::add(0, vec![1; 4]),
                Command::add(4, vec![2; 4]),
                Command::add(8, vec![3; 4]),
                Command::copy(2, 12, 8), // reads [2,10): hits all three
            ],
        )
        .unwrap();
        let all = list_wr_conflicts(&s, usize::MAX);
        assert_eq!(all.len(), count_wr_conflicts(&s));
        assert_eq!(all.len(), 3);
        for c in &all {
            assert_eq!(c.reader, 3);
            assert!(!c.overlap.is_empty());
            assert!(!c.to_string().is_empty());
        }
        assert_eq!(list_wr_conflicts(&s, 2).len(), 2);
        assert!(list_wr_conflicts(&chain_script(&[0, 1]), 10).is_empty());
    }

    #[test]
    fn scratch_safety_check_matches_verifier() {
        // The allocation-free check must report exactly what
        // `check_in_place_safe` reports on safe, unsafe and
        // add-clobbering scripts alike, through one reused buffer.
        use crate::convert::{convert_to_in_place, ConversionConfig};
        use ipr_delta::diff::{Differ, GreedyDiffer};

        let reference: Vec<u8> = (0..4_000u32).map(|i| (i * 7 % 233) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(321);
        let diffed = GreedyDiffer::default().diff(&reference, &version);
        let converted = convert_to_in_place(&diffed, &reference, &ConversionConfig::default())
            .unwrap()
            .script;
        let mut scripts = vec![
            diffed,
            converted,
            DeltaScript::new(4, 0, vec![]).unwrap(),
            DeltaScript::new(16, 16, vec![Command::copy(0, 8, 8), Command::copy(8, 0, 8)]).unwrap(),
            // An add clobbering a later read.
            DeltaScript::new(
                8,
                12,
                vec![Command::add(0, vec![1; 4]), Command::copy(0, 4, 8)],
            )
            .unwrap(),
            // A copy whose own read and write overlap: not a violation.
            DeltaScript::new(8, 6, vec![Command::copy(2, 0, 6)]).unwrap(),
            // One read crossing three earlier writes: all bytes counted.
            DeltaScript::new(
                12,
                20,
                vec![
                    Command::add(0, vec![1; 4]),
                    Command::add(4, vec![2; 4]),
                    Command::add(8, vec![3; 4]),
                    Command::copy(2, 12, 8),
                ],
            )
            .unwrap(),
        ];
        // Adversarial permutations of the converted script.
        let safe = scripts[1].clone();
        let order: Vec<usize> = (0..safe.len()).rev().collect();
        scripts.push(safe.permuted(&order));
        let mut writes = Vec::new();
        for script in &scripts {
            assert_eq!(
                check_in_place_safe_with(script, &mut writes),
                check_in_place_safe(script),
                "results diverge on {script:?}"
            );
        }
    }

    #[test]
    fn empty_script_is_safe() {
        let s = DeltaScript::new(4, 0, vec![]).unwrap();
        assert!(is_in_place_safe(&s));
        assert_eq!(count_wr_conflicts(&s), 0);
    }
}
