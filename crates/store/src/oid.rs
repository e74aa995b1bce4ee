//! Content-addressed object identifiers.
//!
//! An [`Oid`] is the 128-bit strong hash
//! ([`ipr_delta::remote::strong_of`]) of an object's exact on-disk
//! bytes — the same two-lane hash the remote-differencing block match
//! trusts, reused here so the store and the wire protocol share one
//! collision-resistance argument (docs/REMOTE.md, docs/STORE.md). Two
//! objects with equal bytes always share an id, so writes deduplicate
//! for free, and an object file whose contents drift from its name is
//! detected by rehashing — the cornerstone of `fsck`.

use std::fmt;
use std::str::FromStr;

/// A 128-bit content address, rendered as 32 lowercase hex digits.
///
/// # Example
///
/// ```
/// use ipr_store::Oid;
///
/// let oid = Oid::of(b"some object bytes");
/// let hex = oid.to_string();
/// assert_eq!(hex.len(), 32);
/// assert_eq!(hex.parse::<Oid>().unwrap(), oid);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid(u128);

impl Oid {
    /// The content address of `bytes`.
    #[must_use]
    pub fn of(bytes: &[u8]) -> Self {
        Oid(ipr_delta::remote::strong_of(bytes))
    }

    /// Whether this id's hex rendering starts with `prefix`.
    ///
    /// Used by the CLI so `ipr store get` accepts any unambiguous
    /// abbreviation of a full id.
    #[must_use]
    pub fn matches_prefix(self, prefix: &str) -> bool {
        self.to_string().starts_with(prefix)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oid({:032x})", self.0)
    }
}

/// A malformed object-id string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseOidError {
    /// The offending input.
    pub input: String,
}

impl fmt::Display for ParseOidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` is not an object id (expected 32 hex digits)",
            self.input
        )
    }
}

impl std::error::Error for ParseOidError {}

impl FromStr for Oid {
    type Err = ParseOidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(ParseOidError { input: s.into() });
        }
        u128::from_str_radix(s, 16)
            .map(Oid)
            .map_err(|_| ParseOidError { input: s.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        for bytes in [&b""[..], b"a", b"hello store", &[0u8; 64]] {
            let oid = Oid::of(bytes);
            assert_eq!(oid.to_string().parse::<Oid>().unwrap(), oid);
        }
    }

    #[test]
    fn rendering_is_fixed_width() {
        // Small hash values must keep their leading zeros.
        let oid = Oid(0x2a);
        assert_eq!(oid.to_string(), "0000000000000000000000000000002a");
        assert_eq!(oid.to_string().parse::<Oid>().unwrap(), oid);
    }

    #[test]
    fn distinct_contents_distinct_ids() {
        assert_ne!(Oid::of(b"a"), Oid::of(b"b"));
        assert_ne!(Oid::of(b""), Oid::of(b"\0"));
    }

    #[test]
    fn prefix_matching() {
        let oid = Oid::of(b"prefix test");
        let hex = oid.to_string();
        assert!(oid.matches_prefix(""));
        assert!(oid.matches_prefix(&hex[..6]));
        assert!(oid.matches_prefix(&hex));
        // A prefix that differs in its last digit cannot match.
        let mut wrong = hex[..6].to_string();
        let last = wrong.pop().unwrap();
        wrong.push(if last == '0' { '1' } else { '0' });
        assert!(!oid.matches_prefix(&wrong));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("".parse::<Oid>().is_err());
        assert!("abc".parse::<Oid>().is_err());
        assert!("zz000000000000000000000000000000".parse::<Oid>().is_err());
        assert!("0000000000000000000000000000002a0".parse::<Oid>().is_err());
    }
}
