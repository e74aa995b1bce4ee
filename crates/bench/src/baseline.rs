//! One harness for the gated bench bins: `phases`, `diff_throughput`,
//! `pipeline_reuse`, `remote_diff`, `store_chains` and
//! `streaming_install`.
//!
//! Each bin measures, asserts its own correctness, and then does one of
//! two things, chosen by [`compare_arg`]:
//!
//! * with no argument it writes `results/BENCH_<name>.json` through
//!   [`write()`] (or [`write_stats`] for an `ipr-stats/1` report), under
//!   the shared `bench` / `command` / `host_parallelism` header;
//! * with `--compare PATH` it reads that file as a [`Baseline`] and runs
//!   its gates through a [`Ledger`], which prints one
//!   `label: detail ok|REGRESSED|info` line per gate and exits 1 with
//!   the breach count.
//!
//! A gate is one of three kinds:
//!
//! * exact — the value equals the baseline's ([`Ledger::exact`]);
//! * a bound — the value stays on one side of a constant, a value from
//!   the same run or a baseline value ([`Ledger::bound`]);
//! * informational — printed, never failing ([`Ledger::info`]).
//!
//! Cross-run gates mean something only when both runs saw the same
//! input. [`Baseline::same_corpus`] says whether they did, and
//! [`Ledger::bound_if`] turns a gate informational when they did not.

use crate::host_parallelism;
use ipr_trace::json::{self, Value};
use std::fmt;

/// Parses the bench arguments, `[--compare PATH]`, from the process
/// command line. Any other argument prints a usage line and exits 2.
#[must_use]
pub fn compare_arg(bin: &str) -> Option<String> {
    parse_args(bin, std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

fn parse_args(bin: &str, mut args: impl Iterator<Item = String>) -> Result<Option<String>, String> {
    match (args.next(), args.next(), args.next()) {
        (None, ..) => Ok(None),
        (Some(flag), Some(path), None) if flag == "--compare" => Ok(Some(path)),
        (Some(arg), ..) => Err(format!(
            "unexpected arguments at `{arg}`; usage: {bin} [--compare <baseline.json>]"
        )),
    }
}

/// A JSON value to write. Objects keep their keys in insertion order
/// (the parser's [`Value::Object`] sorts them).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A number or string, already in its JSON form.
    Scalar(String),
    /// An array, written one element per line.
    Array(Vec<Json>),
    /// An object; nested ones whose members are all scalars take one line.
    Object(Vec<(String, Json)>),
}

/// `x` written with `decimals` digits after the point.
#[must_use]
pub fn fixed(x: f64, decimals: usize) -> Json {
    Json::Scalar(format!("{x:.decimals$}"))
}

/// Builds a [`Json::Object`] from `"key": value` pairs, in order.
#[macro_export]
macro_rules! object {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::baseline::Json::Object(vec![
            $(($key.to_string(), $crate::baseline::Json::from($value))),*
        ])
    };
}

macro_rules! number_json {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Self {
                Json::Scalar(n.to_string())
            }
        }
    )*};
}
number_json!(u32, u64, usize, u128, f64);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Scalar(json::escape(s))
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Array(items)
    }
}

impl Json {
    /// Appends the members of object `more` to this object.
    pub fn append(&mut self, more: Json) {
        match (self, more) {
            (Json::Object(members), Json::Object(more)) => members.extend(more),
            _ => panic!("only objects append"),
        }
    }

    fn render(&self, out: &mut String, indent: usize) {
        let items: Vec<(Option<&String>, &Json)> = match self {
            Json::Scalar(text) => return out.push_str(text),
            Json::Array(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Object(members) => members.iter().map(|(k, v)| (Some(k), v)).collect(),
        };
        let object = matches!(self, Json::Object(_));
        let inline =
            object && indent > 0 && items.iter().all(|(_, v)| matches!(v, Json::Scalar(_)));
        out.push(if object { '{' } else { '[' });
        for (i, (key, value)) in items.iter().enumerate() {
            match (inline, i) {
                (true, 0) => {}
                (true, _) => out.push_str(", "),
                (false, _) => {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&" ".repeat(indent + 2));
                }
            }
            if let Some(key) = key {
                out.push_str(&format!("{}: ", json::escape(key)));
            }
            value.render(out, indent + 2);
        }
        if !inline {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
        }
        out.push(if object { '}' } else { ']' });
    }
}

/// The text of `results/BENCH_<bench>.json`: the `bench`, `command` and
/// `host_parallelism` header, then the members of object `body`.
fn report_text(bench: &str, body: Json) -> String {
    let mut report = crate::object! {
        "bench": bench,
        "command": format!("cargo run -p ipr-bench --release --bin {bench}").as_str(),
        "host_parallelism": host_parallelism(),
    };
    report.append(body);
    let mut out = String::new();
    report.render(&mut out, 0);
    out + "\n"
}

/// Writes `results/BENCH_<bench>.json`: the `bench`, `command` and
/// `host_parallelism` header, then the members of object `body`.
pub fn write(bench: &str, body: Json) {
    write_file(bench, &report_text(bench, body));
}

/// Writes an `ipr-stats/1` report to `results/BENCH_<name>.json`, with
/// `host_parallelism` added as its first member.
pub fn write_stats(name: &str, report: &ipr_trace::StatsReport) {
    let stats = report.to_json();
    let rest = stats
        .strip_prefix('{')
        .expect("stats report opens with a brace");
    let host = host_parallelism();
    write_file(name, &format!("{{\n  \"host_parallelism\": {host},{rest}"));
}

fn write_file(name: &str, text: &str) {
    let path = format!("results/BENCH_{name}.json");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nwrote {path}");
}

/// A committed bench report read back for `--compare`.
#[derive(Clone, Debug)]
pub struct Baseline {
    file: String,
    root: Value,
}

impl Baseline {
    /// Reads and parses the baseline at `path`; panics naming the file
    /// if it cannot be read or is not JSON.
    #[must_use]
    pub fn load(path: &str) -> Self {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Self::parse(path, &text)
    }

    /// Parses `text` as the baseline named `file`.
    fn parse(file: &str, text: &str) -> Self {
        let root =
            json::parse(text).unwrap_or_else(|e| panic!("baseline {file} is not valid JSON: {e}"));
        let file = file.to_string();
        Self { file, root }
    }

    /// Member `key` of the top-level object.
    #[must_use]
    pub fn get(&self, key: &str) -> Entry<'_> {
        let root = Entry {
            file: &self.file,
            key: String::new(),
            value: Some(&self.root),
        };
        root.get(key)
    }

    /// Whether the baseline was taken on this run's corpus: every
    /// `(key, value)` pair equals the baseline's. When it was not, says
    /// so on stdout, and the cross-run gates pass `false` to
    /// [`Ledger::bound_if`].
    pub fn same_corpus(&self, keys: &[(&str, u64)]) -> bool {
        let differing: Vec<String> = keys
            .iter()
            .filter_map(|&(key, ours)| {
                let theirs = self.get(key).try_f64();
                let theirs = theirs.map_or_else(|_| "none".into(), |v| v.to_string());
                (theirs != ours.to_string()).then(|| format!("{key} {theirs} vs this run's {ours}"))
            })
            .collect();
        if !differing.is_empty() {
            println!(
                "baseline corpus differs ({}): cross-run gates are informational",
                differing.join(", ")
            );
        }
        differing.is_empty()
    }
}

/// A value reached by a key path in a [`Baseline`], possibly missing.
/// Reading a missing value fails naming the file and the path.
#[derive(Clone, Debug)]
pub struct Entry<'a> {
    file: &'a str,
    key: String,
    value: Option<&'a Value>,
}

impl<'a> Entry<'a> {
    /// Member `key` of this object.
    #[must_use]
    pub fn get(&self, key: &str) -> Entry<'a> {
        let path = if self.key.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.key)
        };
        let value = self.value.and_then(|v| v.get(key));
        Entry {
            key: path,
            value,
            ..*self
        }
    }

    /// The first element of this array whose members equal `matching`,
    /// compared as text (`("threads", "1")` matches `"threads": 1`).
    #[must_use]
    pub fn row(&self, matching: &[(&str, &str)]) -> Entry<'a> {
        let text = |v: &Value| match v {
            Value::String(s) => s.clone(),
            other => other.as_f64().map_or_else(String::new, |n| n.to_string()),
        };
        let rows = self.value.and_then(Value::as_array).unwrap_or_default();
        let value = rows.iter().find(|row| {
            (matching.iter()).all(|&(k, want)| row.get(k).map(text).as_deref() == Some(want))
        });
        let filter: Vec<String> = matching.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let key = format!("{}[{}]", self.key, filter.join(", "));
        Entry {
            key,
            value,
            ..*self
        }
    }

    /// Number of elements of this array (0 when it is missing).
    #[must_use]
    pub fn count(&self) -> usize {
        let rows = self.value.and_then(Value::as_array);
        rows.map_or(0, <[Value]>::len)
    }

    fn missing(&self) -> String {
        format!("baseline {} has no `{}`", self.file, self.key)
    }

    /// The value as a number.
    ///
    /// # Errors
    ///
    /// A message naming the file and the key when there is none.
    pub fn try_f64(&self) -> Result<f64, String> {
        self.value
            .and_then(Value::as_f64)
            .ok_or_else(|| self.missing())
    }

    /// The value as a non-negative integer; panics naming the file and
    /// the key when there is none.
    #[must_use]
    pub fn u64(&self) -> u64 {
        (self.value.and_then(Value::as_u64)).unwrap_or_else(|| panic!("{}", self.missing()))
    }
}

/// One gate's outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound.
    Ok,
    /// Past its bound: counts as a breach.
    Regressed,
    /// Printed for the record, never failing.
    Info,
}

/// The side of a bound a gated value must stay on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// `value ≤ bound`.
    AtMost(f64),
    /// `value ≥ bound`.
    AtLeast(f64),
    /// `value < bound`.
    Below(f64),
}

/// Runs a bin's gates, prints one line per gate and counts breaches.
#[derive(Debug, Default)]
pub struct Ledger {
    breaches: usize,
}

impl Ledger {
    /// A ledger for a comparison against `baseline`; prints the heading.
    #[must_use]
    pub fn new(baseline: &Baseline) -> Self {
        println!("\nComparison against {}\n", baseline.file);
        Self::default()
    }

    fn record(&mut self, label: &str, detail: &str, verdict: Verdict) -> Verdict {
        self.breaches += usize::from(verdict == Verdict::Regressed);
        let word = match verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Info => "info",
        };
        println!("{label}: {detail} {word}");
        verdict
    }

    /// Exact gate: `got` must equal the baseline's `want`.
    pub fn exact<T: PartialEq + fmt::Display>(&mut self, label: &str, got: T, want: T) -> Verdict {
        self.equal(label, got, want, "baseline")
    }

    /// Exact gate on a constant of the run, read from no baseline: `got`
    /// must equal the expected `want`.
    pub fn expect<T: PartialEq + fmt::Display>(&mut self, label: &str, got: T, want: T) -> Verdict {
        self.equal(label, got, want, "expected")
    }

    fn equal<T: PartialEq + fmt::Display>(
        &mut self,
        label: &str,
        got: T,
        want: T,
        source: &str,
    ) -> Verdict {
        let verdict = if got == want {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
        self.record(label, &format!("{got} vs {source} {want}"), verdict)
    }

    /// Bound gate: `value` must satisfy `bound`; `detail` says what was
    /// measured, and the bound is printed after it.
    pub fn bound(&mut self, label: &str, value: f64, bound: Bound, detail: &str) -> Verdict {
        self.bound_if(true, label, value, bound, detail)
    }

    /// [`bound`](Self::bound) when `gated`, else informational: for
    /// cross-run gates on another corpus, or values too small to gate.
    pub fn bound_if(
        &mut self,
        gated: bool,
        label: &str,
        value: f64,
        bound: Bound,
        detail: &str,
    ) -> Verdict {
        let (holds, op, limit) = match bound {
            Bound::AtMost(b) => (value <= b, "≤", b),
            Bound::AtLeast(b) => (value >= b, "≥", b),
            Bound::Below(b) => (value < b, "<", b),
        };
        let verdict = match (gated, holds) {
            (false, _) => Verdict::Info,
            (true, true) => Verdict::Ok,
            (true, false) => Verdict::Regressed,
        };
        self.record(label, &format!("{detail} (gate {op} {limit})"), verdict)
    }

    /// Informational line: printed, never failing.
    pub fn info(&mut self, label: &str, detail: &str) -> Verdict {
        self.record(label, detail, Verdict::Info)
    }

    /// The exit status the gates call for: 1 on any breach, else 0.
    fn status(&self) -> i32 {
        i32::from(self.breaches > 0)
    }

    /// Ends the run: on any breach, prints the count and exits 1.
    pub fn finish(self) {
        if self.breaches > 0 {
            eprintln!("\n{} gate(s) regressed", self.breaches);
            std::process::exit(self.status());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_are_compare_path_or_nothing() {
        let parse = |list: &[&str]| parse_args("b", list.iter().map(|s| s.to_string()));
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--compare", "x.json"]), Ok(Some("x.json".into())));
        for bad in [
            &["--compare"][..],
            &["--threads", "2"],
            &["--compare", "x", "y"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.ends_with("usage: b [--compare <baseline.json>]"),
                "{err}"
            );
        }
    }

    #[test]
    fn gate_kinds_give_each_verdict_and_the_exit_status() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.exact("wire_len", 41_204, 41_204), Verdict::Ok);
        assert_eq!(ledger.info("isdn ttfb", "0.027"), Verdict::Info);
        // A bound far past its limit, but on another corpus.
        let far = ledger.bound_if(false, "MiB/s", 0.0, Bound::AtLeast(0.6), "0x");
        assert_eq!((far, ledger.status()), (Verdict::Info, 0));
        for (value, bound, want) in [
            (2.0, Bound::AtMost(2.0), Verdict::Ok),
            (0.6, Bound::AtLeast(0.6), Verdict::Ok),
            (0.99, Bound::Below(1.0), Verdict::Ok),
        ] {
            assert_eq!(ledger.bound("g", value, bound, "d"), want);
        }
        assert_eq!(ledger.status(), 0);
        for (value, bound) in [
            (2.01, Bound::AtMost(2.0)),
            (0.59, Bound::AtLeast(0.6)),
            (1.0, Bound::Below(1.0)),
        ] {
            assert_eq!(ledger.bound("g", value, bound, "d"), Verdict::Regressed);
        }
        assert_eq!(ledger.exact("wire_len", 41_205, 41_204), Verdict::Regressed);
        assert_eq!((ledger.breaches, ledger.status()), (4, 1));
    }

    #[test]
    fn constants_gate_like_baseline_values() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.expect("fsck findings", 0, 0), Verdict::Ok);
        assert_eq!(ledger.status(), 0);
        assert_eq!(
            ledger.expect("fan-out warm index builds", 8, 1),
            Verdict::Regressed
        );
        assert_eq!(ledger.status(), 1);
    }

    #[test]
    fn same_corpus_compares_every_key() {
        let base = Baseline::parse("b.json", r#"{"pairs": 200, "version_bytes": 20817208}"#);
        assert!(base.same_corpus(&[("pairs", 200), ("version_bytes", 20_817_208)]));
        assert!(!base.same_corpus(&[("pairs", 40), ("version_bytes", 20_817_208)]));
        assert!(!base.same_corpus(&[("pairs", 200), ("version_bytes", 1)]));
        assert!(!base.same_corpus(&[("reference_mib", 64)]), "absent key");
    }

    #[test]
    fn missing_key_names_the_file_and_the_key() {
        let text = r#"{"warm": {"allocs": 0}, "results": [{"differ": "greedy", "threads": 1}]}"#;
        let base = Baseline::parse("results/BENCH_x.json", text);
        assert_eq!(base.get("warm").get("allocs").u64(), 0);
        assert_eq!(
            base.get("warm").get("bytes").try_f64(),
            Err("baseline results/BENCH_x.json has no `warm.bytes`".into())
        );
        let rows = base.get("results");
        let row = rows.row(&[("differ", "greedy"), ("threads", "1")]);
        assert_eq!(row.get("threads").try_f64(), Ok(1.0));
        let row = rows.row(&[("differ", "greedy"), ("threads", "2")]);
        assert_eq!(
            row.get("delta_bytes").try_f64().unwrap_err(),
            "baseline results/BENCH_x.json has no `results[differ=greedy, threads=2].delta_bytes`"
        );
    }

    #[test]
    #[should_panic(expected = "baseline b.json has no `hops`")]
    fn typed_read_of_a_missing_key_fails_the_run() {
        let _ = Baseline::parse("b.json", "{}").get("hops").u64();
    }

    #[test]
    fn write_then_read_keeps_keys_order_and_integers() {
        let text = report_text(
            "remote_diff",
            crate::object! {
                "version_bytes": 67_114_664u64,
                "local_greedy_total_ns": 116_373_519_201u128,
                "cold": crate::object! { "total_ns": 342_512_196u128, "allocs": 16_105u64 },
                "results": vec![
                    crate::object! { "chunking": "fixed/1024", "mib_s": fixed(858.24, 1), "loss": 0.01 },
                    crate::object! { "chunking": "cdc", "mib_s": fixed(1.0, 3), "loss": 0.0 },
                ],
            },
        );
        let keys = "bench command host_parallelism version_bytes local_greedy_total_ns cold \
                    total_ns allocs results chunking mib_s";
        let at: Vec<usize> = (keys.split_whitespace())
            .map(|k| text.find(&format!("\"{k}\"")).expect(k))
            .collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "key order: {text}");
        assert!(text.contains(r#"{"chunking": "fixed/1024", "mib_s": 858.2, "loss": 0.01}"#));
        assert!(text.contains(r#""mib_s": 1.000, "loss": 0}"#), "{text}");

        let base = Baseline::parse("round.json", &text);
        assert_eq!(
            base.get("host_parallelism").u64(),
            host_parallelism() as u64
        );
        assert_eq!(base.get("local_greedy_total_ns").u64(), 116_373_519_201);
        assert_eq!(base.get("cold").get("total_ns").u64(), 342_512_196);
        let results = base.get("results");
        assert_eq!(results.count(), 2);
        let fixed_row = results.row(&[("chunking", "fixed/1024")]);
        assert_eq!(fixed_row.get("mib_s").try_f64(), Ok(858.2));
        assert_eq!(
            results.row(&[("loss", "0")]).get("mib_s").try_f64(),
            Ok(1.0)
        );
    }
}
