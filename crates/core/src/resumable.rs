//! Power-fail-safe, resumable in-place application.
//!
//! In-place reconstruction destroys the reference file as it runs, so an
//! interrupted update cannot simply restart from the beginning: the data
//! the early commands read is already gone. This module extends the
//! paper's applier with a small *journal* — the natural companion of
//! in-place patching in real update engines — so an application can be
//! suspended (or killed) at any point and resumed.
//!
//! Correctness argument:
//!
//! * Commands are applied serially in the converted (Equation 2) order,
//!   so a command's source bytes are intact until the command itself
//!   runs; the journal only needs intra-command progress.
//! * Within a copy, chunks are processed directionally (§4.1), so the
//!   not-yet-copied source suffix is never touched by completed chunks.
//! * A chunk interrupted *mid-write* cannot be safely re-executed when
//!   the copy self-overlaps closer than one chunk (its source may be
//!   half-overwritten), so every chunk is staged in the journal as a
//!   redo record before it touches the buffer: replaying the redo record
//!   is always safe and idempotent.
//!
//! The journal is plain data; a device would persist it (and the buffer
//! region it describes) to stable storage at every durable point that
//! [`resume_in_place_observed`] reports. `tests/power_failure.rs` and
//! the `convert` fuzz oracle snapshot it (a `clone`) at each of those
//! points and restart from every snapshot. The streaming install in
//! `ipr-device` applies whole commands and checkpoints its own decoder
//! and written spans instead.

use crate::apply::{required_capacity, InPlaceApplyError};
use ipr_delta::{Command, DeltaScript};
use std::fmt;

/// Durable progress record for a resumable in-place application.
///
/// All fields are plain values so the journal can be serialized to a few
/// bytes of stable storage. A fresh journal starts at the first command.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Journal {
    /// Index of the command currently being applied.
    command: usize,
    /// Bytes of the current command already applied (measured from the
    /// copy direction's starting edge).
    done: u64,
    /// Staged chunk that must be (re)written before anything else: the
    /// write offset and the exact bytes. Present iff a chunk was staged
    /// but its completion was not yet recorded.
    redo: Option<(u64, Vec<u8>)>,
}

impl Journal {
    /// A journal positioned at the start of the script.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the command currently being applied.
    #[must_use]
    pub fn command_index(&self) -> usize {
        self.command
    }

    /// Bytes of the current command already applied.
    #[must_use]
    pub fn bytes_done_in_command(&self) -> u64 {
        self.done
    }

    /// Whether a staged chunk is pending replay.
    #[must_use]
    pub fn has_pending_chunk(&self) -> bool {
        self.redo.is_some()
    }

    /// The staged chunk pending replay, as `(write offset, data)`, if any.
    ///
    /// Fault-injection harnesses use this to simulate torn writes: any
    /// prefix of the chunk may have reached the buffer when power failed,
    /// and replay must overwrite the whole region regardless.
    #[must_use]
    pub fn pending_chunk(&self) -> Option<(u64, &[u8])> {
        self.redo.as_ref().map(|(to, data)| (*to, data.as_slice()))
    }
}

/// Outcome of [`resume_in_place`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// The whole script has been applied; the buffer holds the version.
    Complete,
    /// The byte budget ran out; call again with the same journal.
    Suspended,
}

/// Error from resumable application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// Buffer too small (same condition as the plain applier).
    Apply(InPlaceApplyError),
    /// The journal does not match the script (command index out of
    /// range or intra-command offset past the command length).
    JournalMismatch {
        /// Command index recorded in the journal.
        command: usize,
        /// Number of commands in the script.
        commands: usize,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Apply(e) => e.fmt(f),
            ResumeError::JournalMismatch { command, commands } => {
                write!(f, "journal points at command {command} of {commands}")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<InPlaceApplyError> for ResumeError {
    fn from(e: InPlaceApplyError) -> Self {
        ResumeError::Apply(e)
    }
}

/// Applies `script` to `buf` in place, resuming from `journal`, staging
/// every chunk so the process may be interrupted *between any two
/// mutations* of `buf`/`journal` and later resumed with the same
/// arguments.
///
/// At most `max_bytes` payload bytes are applied before returning
/// [`Progress::Suspended`] (a budget of `u64::MAX` runs to completion);
/// budgets are a simulation stand-in for "the device lost power here".
///
/// `chunk_size` bounds the RAM the device needs beyond the buffer itself.
///
/// # Errors
///
/// [`ResumeError::Apply`] if the buffer is too small;
/// [`ResumeError::JournalMismatch`] if the journal was produced by a
/// different script.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
///
/// # Example
///
/// ```
/// use ipr_delta::{Command, DeltaScript};
/// use ipr_core::resumable::{resume_in_place, Journal, Progress};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let script = DeltaScript::new(4, 4, vec![
///     Command::copy(2, 0, 2),
///     Command::add(2, b"!!".to_vec()),
/// ])?;
/// let mut buf = b"abcd".to_vec();
/// let mut journal = Journal::new();
/// // Apply one byte at a time, "losing power" after each byte.
/// while resume_in_place(&script, &mut buf, &mut journal, 1, 1)? == Progress::Suspended {}
/// assert_eq!(&buf, b"cd!!");
/// # Ok(())
/// # }
/// ```
pub fn resume_in_place(
    script: &DeltaScript,
    buf: &mut [u8],
    journal: &mut Journal,
    chunk_size: usize,
    max_bytes: u64,
) -> Result<Progress, ResumeError> {
    resume_in_place_observed(script, buf, journal, chunk_size, max_bytes, &mut |_| {})
}

/// Like [`resume_in_place`], invoking `persist` at every durable point —
/// immediately after each journal update that a real device would flush
/// to stable storage (chunk staged; chunk completed).
///
/// Between two `persist` calls the buffer sees at most one chunk write,
/// and the staged redo record fully describes it, so a crash anywhere in
/// that window (including a torn, partially written chunk) is recovered
/// by replaying the redo record on resume. The fault-injection tests in
/// `tests/power_failure.rs` snapshot state at every `persist` call and
/// restart from each of them.
///
/// # Errors
///
/// Same as [`resume_in_place`].
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn resume_in_place_observed(
    script: &DeltaScript,
    buf: &mut [u8],
    journal: &mut Journal,
    chunk_size: usize,
    max_bytes: u64,
    persist: &mut dyn FnMut(&Journal),
) -> Result<Progress, ResumeError> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let needed = required_capacity(script);
    if (buf.len() as u64) < needed {
        return Err(InPlaceApplyError::BufferTooSmall {
            needed,
            actual: buf.len() as u64,
        }
        .into());
    }
    let commands = script.commands();
    if journal.command > commands.len() {
        return Err(ResumeError::JournalMismatch {
            command: journal.command,
            commands: commands.len(),
        });
    }
    let _span = ipr_trace::span("apply.resumable");

    let mut budget = max_bytes;

    // Recovery: a staged chunk may or may not have reached the buffer
    // (possibly torn). Replaying it is always safe — the record carries
    // the full data — and completing it is a single journal update.
    if let Some((to, data)) = journal.redo.clone() {
        let start = to as usize;
        buf[start..start + data.len()].copy_from_slice(&data);
        journal.done += data.len() as u64;
        journal.redo = None;
        persist(journal);
        budget = budget.saturating_sub(data.len() as u64);
        ipr_trace::add("resumable.replays", 1);
    }

    while journal.command < commands.len() {
        let cmd = &commands[journal.command];
        let len = cmd.len();
        if journal.done > len {
            return Err(ResumeError::JournalMismatch {
                command: journal.command,
                commands: commands.len(),
            });
        }
        if journal.done == len {
            journal.command += 1;
            journal.done = 0;
            continue;
        }
        if budget == 0 {
            return Ok(Progress::Suspended);
        }
        let n = (len - journal.done).min(chunk_size as u64).min(budget);
        // Chunk placement honours the §4.1 direction rule: left-to-right
        // when the source is at or after the destination, right-to-left
        // otherwise, so completed chunks never overwrite pending source.
        let (read_at, write_at) = match cmd {
            Command::Copy(c) => {
                if c.from >= c.to {
                    (Some(c.from + journal.done), c.to + journal.done)
                } else {
                    let off = len - journal.done - n;
                    (Some(c.from + off), c.to + off)
                }
            }
            Command::Add(a) => (None, a.to + journal.done),
        };
        let data = match (read_at, cmd) {
            (Some(src), _) => buf[src as usize..(src + n) as usize].to_vec(),
            (None, Command::Add(a)) => {
                // For right-to-left this branch is unreachable (adds never
                // self-overlap), so `done` indexes from the left.
                let off = journal.done as usize;
                a.data[off..off + n as usize].to_vec()
            }
            (None, Command::Copy(_)) => unreachable!("copies always read"),
        };
        // Durable point A: chunk staged; buffer untouched so far.
        journal.redo = Some((write_at, data));
        persist(journal);
        ipr_trace::with(|r| {
            r.add("resumable.chunks", 1);
            r.add("resumable.chunk_bytes", n);
        });
        // Crash window: the buffer write below may happen fully,
        // partially, or not at all — the staged record recovers all three.
        let (to, data) = journal.redo.as_ref().expect("just staged");
        let start = *to as usize;
        buf[start..start + data.len()].copy_from_slice(data);
        // Durable point B: chunk complete (one atomic journal update).
        journal.done += n;
        journal.redo = None;
        persist(journal);
        budget -= n;
    }
    Ok(Progress::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_in_place;
    use crate::convert::{convert_to_in_place, ConversionConfig};
    use ipr_delta::diff::{Differ, GreedyDiffer};

    fn converted_pair() -> (DeltaScript, Vec<u8>, Vec<u8>) {
        let reference: Vec<u8> = (0..4096u32).map(|i| (i * 29 % 251) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(777);
        version.extend_from_slice(&[9u8; 100]);
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        (out.script, reference, version)
    }

    #[test]
    fn single_shot_matches_plain_applier() {
        let (script, reference, version) = converted_pair();
        let cap = required_capacity(&script) as usize;
        let mut expected = reference.clone();
        expected.resize(cap, 0);
        apply_in_place(&script, &mut expected).unwrap();

        let mut buf = reference.clone();
        buf.resize(cap, 0);
        let mut journal = Journal::new();
        let p = resume_in_place(&script, &mut buf, &mut journal, 4096, u64::MAX).unwrap();
        assert_eq!(p, Progress::Complete);
        assert_eq!(buf, expected);
        assert_eq!(&buf[..version.len()], &version[..]);
    }

    #[test]
    fn byte_budgets_resume_to_same_result() {
        let (script, reference, version) = converted_pair();
        let cap = required_capacity(&script) as usize;
        for budget in [1u64, 7, 100, 4097] {
            let mut buf = reference.clone();
            buf.resize(cap, 0);
            let mut journal = Journal::new();
            let mut rounds = 0;
            loop {
                match resume_in_place(&script, &mut buf, &mut journal, 64, budget).unwrap() {
                    Progress::Complete => break,
                    Progress::Suspended => rounds += 1,
                }
                assert!(rounds < 1_000_000, "no progress with budget {budget}");
            }
            assert_eq!(&buf[..version.len()], &version[..], "budget {budget}");
        }
    }

    #[test]
    fn crash_replay_of_staged_chunk_is_idempotent() {
        // Simulate the torn state: chunk staged in the journal and written
        // to the buffer, but `done` not advanced (the redo record kept).
        // Replaying must produce the same final bytes.
        let (script, reference, version) = converted_pair();
        let cap = required_capacity(&script) as usize;
        let mut buf = reference.clone();
        buf.resize(cap, 0);
        let mut journal = Journal::new();
        // Advance a little.
        let _ = resume_in_place(&script, &mut buf, &mut journal, 64, 1000).unwrap();
        // Forge the torn state: stage the next chunk manually, "write" it,
        // but leave the redo record in place (as if we crashed between the
        // buffer write and the completion record).
        let cmd = &script.commands()[journal.command];
        let n = (cmd.len() - journal.done).min(64);
        if n > 0 {
            if let Command::Copy(c) = cmd {
                if c.from >= c.to {
                    let src = (c.from + journal.done) as usize;
                    let data = buf[src..src + n as usize].to_vec();
                    let to = c.to + journal.done;
                    buf[to as usize..(to + n) as usize].copy_from_slice(&data);
                    journal.redo = Some((to, data));
                }
            }
        }
        // Resume through the torn state to completion.
        let p = resume_in_place(&script, &mut buf, &mut journal, 64, u64::MAX).unwrap();
        assert_eq!(p, Progress::Complete);
        assert_eq!(&buf[..version.len()], &version[..]);
    }

    #[test]
    fn self_overlapping_copy_resumes_at_one_byte_chunks() {
        // from < to with distance 1: the hardest overlap. Chunked
        // right-to-left with per-chunk staging must still be exact.
        let script = DeltaScript::new(
            8,
            9,
            vec![Command::copy(0, 1, 8), Command::add(0, vec![0xAA])],
        )
        .unwrap();
        let reference: Vec<u8> = (0u8..8).collect();
        let mut expected = reference.clone();
        expected.resize(9, 0);
        apply_in_place(&script, &mut expected).unwrap();

        for budget in [1u64, 2, 3] {
            let mut buf = reference.clone();
            buf.resize(9, 0);
            let mut journal = Journal::new();
            while resume_in_place(&script, &mut buf, &mut journal, 1, budget).unwrap()
                == Progress::Suspended
            {}
            assert_eq!(buf, expected, "budget {budget}");
        }
    }

    #[test]
    fn journal_mismatch_detected() {
        let (script, reference, _) = converted_pair();
        let cap = required_capacity(&script) as usize;
        let mut buf = reference.clone();
        buf.resize(cap, 0);
        let mut journal = Journal {
            command: script.len() + 5,
            ..Journal::default()
        };
        let err = resume_in_place(&script, &mut buf, &mut journal, 64, u64::MAX).unwrap_err();
        assert!(matches!(err, ResumeError::JournalMismatch { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn buffer_too_small_reported() {
        let (script, _, _) = converted_pair();
        let mut buf = vec![0u8; 3];
        let mut journal = Journal::new();
        let err = resume_in_place(&script, &mut buf, &mut journal, 64, u64::MAX).unwrap_err();
        assert!(matches!(err, ResumeError::Apply(_)));
    }

    #[test]
    fn journal_accessors() {
        let j = Journal::new();
        assert_eq!(j.command_index(), 0);
        assert_eq!(j.bytes_done_in_command(), 0);
        assert!(!j.has_pending_chunk());
    }
}
