//! The copy/add command vocabulary of delta files.
//!
//! A delta file is an ordered sequence of *copy* and *add* commands (§3 of
//! the paper). A copy command `⟨f, t, l⟩` copies `l` bytes from offset `f`
//! of the reference file to offset `t` of the version file; an add command
//! `⟨t, l⟩` writes `l` literal bytes, carried in the delta file itself, at
//! offset `t`.

use ipr_digraph::Interval;
use std::fmt;

/// A copy command `⟨f, t, l⟩`: copy `len` bytes from reference offset
/// `from` to version offset `to`.
///
/// # Example
///
/// ```
/// use ipr_delta::Copy;
///
/// let c = Copy { from: 0, to: 100, len: 8 };
/// assert_eq!(c.read_interval().as_range(), 0..8);
/// assert_eq!(c.write_interval().as_range(), 100..108);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Copy {
    /// Offset in the reference file that the command reads from (`f`).
    pub from: u64,
    /// Offset in the version file that the command writes to (`t`).
    pub to: u64,
    /// Number of bytes copied (`l`).
    pub len: u64,
}

impl Copy {
    /// The interval `[f, f + l)` read from the reference file.
    #[must_use]
    pub fn read_interval(&self) -> Interval {
        Interval::from_offset_len(self.from, self.len)
    }

    /// The interval `[t, t + l)` written in the version file.
    #[must_use]
    pub fn write_interval(&self) -> Interval {
        Interval::from_offset_len(self.to, self.len)
    }
}

impl fmt::Display for Copy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "copy ⟨{}, {}, {}⟩", self.from, self.to, self.len)
    }
}

/// An add command `⟨t, l⟩` followed by `l` bytes of literal data.
///
/// # Example
///
/// ```
/// use ipr_delta::Add;
///
/// let a = Add::new(4, b"new!".to_vec());
/// assert_eq!(a.write_interval().as_range(), 4..8);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Add {
    /// Offset in the version file that the command writes to (`t`).
    pub to: u64,
    /// The literal bytes written.
    pub data: Vec<u8>,
}

impl Add {
    /// Creates an add command writing `data` at version offset `to`.
    #[must_use]
    pub fn new(to: u64, data: Vec<u8>) -> Self {
        Self { to, data }
    }

    /// Number of bytes written (`l`).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Whether the command writes no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The interval `[t, t + l)` written in the version file.
    #[must_use]
    pub fn write_interval(&self) -> Interval {
        Interval::from_offset_len(self.to, self.len())
    }
}

impl fmt::Display for Add {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "add ⟨{}, {}⟩", self.to, self.len())
    }
}

/// One delta-file command: either a [`struct@Copy`] or an [`Add`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Command {
    /// Copy bytes from the reference file.
    Copy(Copy),
    /// Write literal bytes carried in the delta file.
    Add(Add),
}

impl Command {
    /// Creates a copy command.
    #[must_use]
    pub fn copy(from: u64, to: u64, len: u64) -> Self {
        Command::Copy(Copy { from, to, len })
    }

    /// Creates an add command.
    #[must_use]
    pub fn add(to: u64, data: Vec<u8>) -> Self {
        Command::Add(Add::new(to, data))
    }

    /// Version-file offset the command writes at (`t`).
    #[must_use]
    pub fn to(&self) -> u64 {
        match self {
            Command::Copy(c) => c.to,
            Command::Add(a) => a.to,
        }
    }

    /// Number of bytes the command writes (`l`).
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            Command::Copy(c) => c.len,
            Command::Add(a) => a.len(),
        }
    }

    /// Whether the command writes no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The interval written in the version file.
    #[must_use]
    pub fn write_interval(&self) -> Interval {
        match self {
            Command::Copy(c) => c.write_interval(),
            Command::Add(a) => a.write_interval(),
        }
    }

    /// The interval read from the reference file; `None` for adds, which
    /// never read the reference (§4.1).
    #[must_use]
    pub fn read_interval(&self) -> Option<Interval> {
        match self {
            Command::Copy(c) => Some(c.read_interval()),
            Command::Add(_) => None,
        }
    }

    /// Returns the inner copy command, if this is one.
    #[must_use]
    pub fn as_copy(&self) -> Option<&Copy> {
        match self {
            Command::Copy(c) => Some(c),
            Command::Add(_) => None,
        }
    }

    /// Returns the inner add command, if this is one.
    #[must_use]
    pub fn as_add(&self) -> Option<&Add> {
        match self {
            Command::Copy(_) => None,
            Command::Add(a) => Some(a),
        }
    }

    /// Whether this is a copy command.
    #[must_use]
    pub fn is_copy(&self) -> bool {
        matches!(self, Command::Copy(_))
    }

    /// Whether this is an add command.
    #[must_use]
    pub fn is_add(&self) -> bool {
        matches!(self, Command::Add(_))
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Copy(c) => c.fmt(f),
            Command::Add(a) => a.fmt(f),
        }
    }
}

impl From<Copy> for Command {
    fn from(c: Copy) -> Self {
        Command::Copy(c)
    }
}

impl From<Add> for Command {
    fn from(a: Add) -> Self {
        Command::Add(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_intervals() {
        let c = Copy {
            from: 5,
            to: 20,
            len: 10,
        };
        assert_eq!(c.read_interval(), Interval::new(5, 15));
        assert_eq!(c.write_interval(), Interval::new(20, 30));
    }

    #[test]
    fn add_basics() {
        let a = Add::new(7, vec![1, 2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.write_interval(), Interval::new(7, 10));
        assert!(Add::new(0, vec![]).is_empty());
    }

    #[test]
    fn command_accessors() {
        let c = Command::copy(1, 2, 3);
        assert_eq!(c.to(), 2);
        assert_eq!(c.len(), 3);
        assert!(c.is_copy());
        assert!(!c.is_add());
        assert!(c.as_copy().is_some());
        assert!(c.as_add().is_none());
        assert_eq!(c.read_interval(), Some(Interval::new(1, 4)));

        let a = Command::add(9, vec![0xff; 4]);
        assert_eq!(a.to(), 9);
        assert_eq!(a.len(), 4);
        assert!(a.is_add());
        assert_eq!(a.read_interval(), None);
        assert_eq!(a.write_interval(), Interval::new(9, 13));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Command::copy(1, 2, 3).to_string(), "copy ⟨1, 2, 3⟩");
        assert_eq!(Command::add(4, vec![7, 7]).to_string(), "add ⟨4, 2⟩");
    }

    #[test]
    fn conversions() {
        let c: Command = Copy {
            from: 0,
            to: 0,
            len: 1,
        }
        .into();
        assert!(c.is_copy());
        let a: Command = Add::new(0, vec![1]).into();
        assert!(a.is_add());
    }
}
