//! Size accounting for delta scripts and encoded delta files.
//!
//! These are the quantities Table 1 of the paper is built from:
//! compression (delta size over version size), encoding loss (explicit
//! write offsets) and cycle loss (copies converted to adds).

use crate::codec::{self, EncodeError, Format};
use crate::script::DeltaScript;
use std::fmt;

/// Command-level statistics of a [`DeltaScript`].
///
/// # Example
///
/// ```
/// use ipr_delta::{Command, DeltaScript};
/// use ipr_delta::stats::ScriptStats;
///
/// # fn main() -> Result<(), ipr_delta::ScriptError> {
/// let script = DeltaScript::new(8, 12, vec![
///     Command::copy(0, 0, 8),
///     Command::add(8, vec![0; 4]),
/// ])?;
/// let stats = ScriptStats::of(&script);
/// assert_eq!(stats.copied_bytes, 8);
/// assert_eq!(stats.added_bytes, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScriptStats {
    /// Number of copy commands.
    pub copy_count: usize,
    /// Number of add commands.
    pub add_count: usize,
    /// Bytes materialized by copies.
    pub copied_bytes: u64,
    /// Literal bytes carried by adds.
    pub added_bytes: u64,
}

impl ScriptStats {
    /// Computes statistics for `script`.
    #[must_use]
    pub fn of(script: &DeltaScript) -> Self {
        Self {
            copy_count: script.copy_count(),
            add_count: script.add_count(),
            copied_bytes: script.copied_bytes(),
            added_bytes: script.added_bytes(),
        }
    }

    /// Total commands.
    #[must_use]
    pub fn command_count(&self) -> usize {
        self.copy_count + self.add_count
    }
}

impl fmt::Display for ScriptStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} copies ({} B), {} adds ({} B)",
            self.copy_count, self.copied_bytes, self.add_count, self.added_bytes
        )
    }
}

/// Compression achieved by one encoded delta relative to the version file.
///
/// # Example
///
/// ```
/// use ipr_delta::stats::Compression;
///
/// let c = Compression { delta_size: 153, version_size: 1000 };
/// assert!((c.ratio() - 0.153).abs() < 1e-12); // the paper's 15.3%
/// assert!(c.factor() > 6.5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Compression {
    /// Size of the encoded delta file in bytes.
    pub delta_size: u64,
    /// Size of the version (new) file in bytes.
    pub version_size: u64,
}

impl Compression {
    /// Measures the encoded size of `script` under `format`.
    ///
    /// # Errors
    ///
    /// Propagates [`EncodeError`] from the codec.
    pub fn measure(script: &DeltaScript, format: Format) -> Result<Self, EncodeError> {
        Ok(Self {
            delta_size: codec::encoded_size(script, format)?,
            version_size: script.target_len(),
        })
    }

    /// Delta size as a fraction of the version size (the paper reports
    /// "compressed to 15.3% of original size"). Returns `f64::INFINITY`
    /// for an empty version with a non-empty delta.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.version_size == 0 {
            if self.delta_size == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.delta_size as f64 / self.version_size as f64
        }
    }

    /// Compression factor (version size over delta size); the paper quotes
    /// "a factor of 4 to 10".
    #[must_use]
    pub fn factor(&self) -> f64 {
        if self.delta_size == 0 {
            f64::INFINITY
        } else {
            self.version_size as f64 / self.delta_size as f64
        }
    }
}

impl fmt::Display for Compression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} B / {} B = {:.1}%",
            self.delta_size,
            self.version_size,
            self.ratio() * 100.0
        )
    }
}

/// Aggregates compression ratios over a corpus, weighted by version size
/// (total delta bytes over total version bytes), the way the paper's
/// corpus-wide percentages are computed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CorpusCompression {
    total_delta: u64,
    total_version: u64,
    pairs: usize,
}

impl CorpusCompression {
    /// Creates an empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one measured pair.
    pub fn record(&mut self, c: Compression) {
        self.total_delta += c.delta_size;
        self.total_version += c.version_size;
        self.pairs += 1;
    }

    /// Number of pairs recorded.
    #[must_use]
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Total delta bytes over total version bytes.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.total_version == 0 {
            0.0
        } else {
            self.total_delta as f64 / self.total_version as f64
        }
    }

    /// Total encoded delta bytes.
    #[must_use]
    pub fn delta_bytes(&self) -> u64 {
        self.total_delta
    }

    /// Total version bytes.
    #[must_use]
    pub fn version_bytes(&self) -> u64 {
        self.total_version
    }
}

impl Extend<Compression> for CorpusCompression {
    fn extend<I: IntoIterator<Item = Compression>>(&mut self, iter: I) {
        for c in iter {
            self.record(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Command;

    fn script() -> DeltaScript {
        DeltaScript::new(
            100,
            60,
            vec![Command::copy(0, 0, 40), Command::add(40, vec![1; 20])],
        )
        .unwrap()
    }

    #[test]
    fn script_stats() {
        let st = ScriptStats::of(&script());
        assert_eq!(st.copy_count, 1);
        assert_eq!(st.add_count, 1);
        assert_eq!(st.copied_bytes, 40);
        assert_eq!(st.added_bytes, 20);
        assert_eq!(st.command_count(), 2);
        assert!(!st.to_string().is_empty());
    }

    #[test]
    fn compression_ratio_and_factor() {
        let c = Compression {
            delta_size: 15,
            version_size: 100,
        };
        assert!((c.ratio() - 0.15).abs() < 1e-12);
        assert!((c.factor() - 100.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn compression_degenerate_cases() {
        assert_eq!(
            Compression {
                delta_size: 0,
                version_size: 0
            }
            .ratio(),
            0.0
        );
        assert_eq!(
            Compression {
                delta_size: 5,
                version_size: 0
            }
            .ratio(),
            f64::INFINITY
        );
        assert_eq!(
            Compression {
                delta_size: 0,
                version_size: 5
            }
            .factor(),
            f64::INFINITY
        );
    }

    #[test]
    fn measure_uses_codec() {
        let c = Compression::measure(&script(), Format::Ordered).unwrap();
        assert!(c.delta_size > 20); // at least the literal bytes + header
        assert!(c.delta_size < 60); // compresses the copy
    }

    #[test]
    fn corpus_aggregate_weights_by_size() {
        let mut agg = CorpusCompression::new();
        agg.record(Compression {
            delta_size: 10,
            version_size: 100,
        });
        agg.record(Compression {
            delta_size: 90,
            version_size: 100,
        });
        assert_eq!(agg.pairs(), 2);
        assert!((agg.ratio() - 0.5).abs() < 1e-12);
        assert_eq!(agg.delta_bytes(), 100);
        assert_eq!(agg.version_bytes(), 200);
    }

    #[test]
    fn corpus_extend() {
        let mut agg = CorpusCompression::new();
        agg.extend([
            Compression {
                delta_size: 1,
                version_size: 10,
            },
            Compression {
                delta_size: 2,
                version_size: 10,
            },
        ]);
        assert_eq!(agg.pairs(), 2);
    }
}
