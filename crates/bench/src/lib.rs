//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §4 for the index).
//!
//! Each experiment is a binary under `src/bin/`:
//!
//! | binary     | reproduces |
//! |------------|------------|
//! | `table1`   | Table 1 — compression of the four algorithm columns |
//! | `timing`   | §7 — conversion time vs differencing time |
//! | `figure1`  | Fig. 1 — delta encoding illustration |
//! | `figure2`  | Fig. 2 — tree digraph defeating the locally-minimum policy |
//! | `figure3`  | Fig. 3 — quadratic CRWI edge counts |
//! | `lemma1`   | Lemma 1 — edges ≤ L_V over every workload |
//! | `transfer` | §2/§7 — compression factors and transfer-time speedups |
//! | `ablation` | §5/§7 — policy optimality gap, codec redesign, buffer sizes |
//!
//! The gated bins that write `results/BENCH_*.json` share [`baseline`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;

use ipr_workloads::corpus::{CorpusSpec, FilePair};
use std::time::{Duration, Instant};

/// The value of environment variable `key` as a `usize`, or `default`
/// when it is unset or not a number.
#[must_use]
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The host's available parallelism (1 when it cannot be read), which
/// every `BENCH_*.json` records as `host_parallelism`.
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The corpus every experiment binary uses: 200 synthetic pairs,
/// 4 KiB – 512 KiB.
///
/// Override the pair count with `IPR_BENCH_PAIRS` and the maximum size
/// with `IPR_BENCH_MAX_LEN` (bytes) to trade fidelity for speed — or
/// point `IPR_CORPUS_OLD` and `IPR_CORPUS_NEW` at two directory trees of
/// the same software (old and new release) to run every experiment on
/// real data, as the paper did with GNU/BSD distributions.
#[must_use]
pub fn experiment_corpus() -> Vec<FilePair> {
    if let (Ok(old), Ok(new)) = (
        std::env::var("IPR_CORPUS_OLD"),
        std::env::var("IPR_CORPUS_NEW"),
    ) {
        let pairs = ipr_workloads::corpus::from_dirs(old.as_ref(), new.as_ref())
            .expect("IPR_CORPUS_OLD/IPR_CORPUS_NEW must be readable directory trees");
        assert!(
            !pairs.is_empty(),
            "real corpus directories share no file paths"
        );
        return pairs;
    }
    CorpusSpec {
        pairs: env_usize("IPR_BENCH_PAIRS", 200),
        min_len: 4 * 1024,
        max_len: env_usize("IPR_BENCH_MAX_LEN", 512 * 1024),
        ..CorpusSpec::default()
    }
    .build()
}

/// The fastest of `reps` runs of `f`, which returns its own time.
pub fn best_of(reps: usize, mut f: impl FnMut() -> u128) -> u128 {
    (0..reps.max(1))
        .map(|_| f())
        .min()
        .expect("at least one run")
}

/// Throughput of `bytes` processed in `ns` nanoseconds, in MiB/s.
#[must_use]
pub fn mib_per_s(bytes: u64, ns: u128) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / (ns as f64 / 1e9).max(1e-9)
}

/// The fastest of `reps` timed runs of `f`.
pub fn fastest<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    (0..reps.max(1))
        .map(|_| timed(&mut f).1)
        .min()
        .expect("at least one run")
}

/// The 25th, 50th and 75th percentiles (nearest rank) of `reps` timed
/// runs of `f`.
pub fn quartiles<R>(reps: usize, mut f: impl FnMut() -> R) -> [Duration; 3] {
    let mut times: Vec<Duration> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    times.sort_unstable();
    [1, 2, 3].map(|q| times[(times.len() - 1) * q / 4])
}

/// Times a closure.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Formats a ratio as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a byte count with thousands separators.
#[must_use]
pub fn bytes(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A minimal fixed-width table printer for experiment output.
///
/// # Example
///
/// ```
/// use ipr_bench::Table;
///
/// let mut t = Table::new(vec!["metric", "value"]);
/// t.row(vec!["compression".into(), "15.3%".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("compression"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<&str>) -> Self {
        Self {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align numeric-looking cells, left-align the rest.
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("{cell:>w$}"));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.153), "15.3%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn bytes_formats_thousands() {
        assert_eq!(bytes(0), "0");
        assert_eq!(bytes(999), "999");
        assert_eq!(bytes(1000), "1,000");
        assert_eq!(bytes(1234567), "1,234,567");
    }

    #[test]
    fn table_aligns() {
        let mut t = Table::new(vec!["a", "metric"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len().max(lines[0].len()));
    }

    #[test]
    fn timed_returns_value() {
        let (v, d) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn corpus_env_overrides() {
        // Just exercise the default path (env vars unset in tests).
        std::env::remove_var("IPR_BENCH_PAIRS");
        // Not building the full 200-pair corpus in a unit test: only check
        // the spec plumbing via a tiny override.
        std::env::set_var("IPR_BENCH_PAIRS", "2");
        std::env::set_var("IPR_BENCH_MAX_LEN", "8192");
        let corpus = experiment_corpus();
        assert_eq!(corpus.len(), 2);
        std::env::remove_var("IPR_BENCH_PAIRS");
        std::env::remove_var("IPR_BENCH_MAX_LEN");
    }
}
