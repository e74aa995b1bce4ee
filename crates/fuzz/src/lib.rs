//! Deterministic differential fuzzing and conformance harness.
//!
//! The in-place guarantee (the paper's Equation 2: no command reads a
//! byte an earlier command wrote) is exactly the kind of invariant that
//! survives unit tests and dies on adversarial inputs. This crate
//! generates those inputs — structured delta scripts and hostile wire
//! bytes — from a single `u64` seed with the vendored [`rand`] crate,
//! and judges them with eight differential oracles:
//!
//! * **codec** ([`oracles::check_codec_case`] +
//!   [`oracles::check_decoder_robustness`]): every format round-trips
//!   bit-exactly and no byte string makes a decoder panic;
//! * **convert** ([`oracles::check_convert_case`]): scratch-space apply
//!   is ground truth, and conversion must reproduce it under both cycle
//!   policies across the serial, resumable (with simulated power cuts
//!   and torn writes) and spilled engines;
//! * **crwi** ([`oracles::check_crwi_case`]): a standalone Equation 2
//!   validator ([`check`]) that agrees with the production verifier and
//!   the device's run-time detector on arbitrary command orders;
//! * **diff** ([`oracles::check_diff_case`]): every differ family
//!   produces scripts that apply correctly
//!   (`apply(diff(r, v), r) == v`), emits identical commands when run
//!   again, and keeps its probe and extension counters within the
//!   bounds its candidate limit sets;
//! * **remote** ([`oracles::check_remote_case`]): the signature-based
//!   streaming generator — `apply(generate_delta(sign(r), v), r) == v`
//!   byte for byte, over a seed-driven sweep of fixed block sizes and
//!   CDC parameters, with the signature round-tripped through its wire
//!   encoding and the version streamed at hostile read granularities;
//! * **engine** ([`oracles::check_engine_case`]): the session-layer
//!   [`Engine`](ipr_pipeline::Engine) path — diff through its arenas,
//!   pooled conversion, checked encoding, checked serial apply — emits
//!   byte-identical commands, wire bytes and applied buffers to the
//!   legacy free-function pipeline, over a seed-driven sweep of cycle
//!   policies and wire formats, and stays identical when
//!   the same engine (with its recycled arenas) runs the case again;
//! * **store** ([`oracles::check_store_case`]): the versioned object
//!   store — a drifting version history written into a throwaway
//!   on-disk store reads back byte-identically after every put, after
//!   compaction under a salt-chosen depth cap, and after a fresh
//!   reopen, with a full `fsck` sweep clean at every checkpoint;
//! * **streaming** ([`oracles::check_streaming_case`]): the resumable
//!   streaming install — over a salt-swept grid of chunk sizes, MTUs,
//!   loss rates and kill points, a killed-and-resumed install (with the
//!   checkpoint round-tripped through its wire encoding) reconstructs
//!   the same bytes as offline apply, and resuming the same checkpoint
//!   against two copies of the same mid-update flash is idempotent.
//!
//! Everything is reproducible: iteration `i` of a run seeded `s` uses
//! case seed `s + i`, printed with every failure, so
//! `ipr fuzz --oracle <o> --seed <s+i> --iters 1` rebuilds the failure
//! byte-identically. Failures are [shrunk](shrink) before reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod corpus;
pub mod gen;
pub mod oracles;
pub mod shrink;

use gen::FuzzCase;
use std::fmt;
use std::str::FromStr;

/// Seed-stream salt separating hostile-bytes inputs from structured
/// cases within one case seed.
const HOSTILE_SALT: u64 = 0x686f7374; // "host"

/// One of the eight differential oracles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Oracle {
    /// Codec round-trip + decoder robustness.
    Codec,
    /// Conversion equivalence across engines and policies.
    Convert,
    /// Independent Equation 2 checker vs the production verifier.
    Crwi,
    /// Diff correctness, determinism and bounded work.
    Diff,
    /// Session-layer `Engine` path vs the legacy free-function pipeline.
    Engine,
    /// Signature-based streaming remote diff reconstructs byte-exactly.
    Remote,
    /// Versioned object store round-trips, compacts and fscks clean.
    Store,
    /// Killed-and-resumed streaming installs match offline apply.
    Streaming,
}

impl Oracle {
    /// All oracles, in reporting order.
    pub const ALL: [Oracle; 8] = [
        Oracle::Codec,
        Oracle::Convert,
        Oracle::Crwi,
        Oracle::Diff,
        Oracle::Engine,
        Oracle::Remote,
        Oracle::Store,
        Oracle::Streaming,
    ];

    /// The `ipr-trace` span name covering one iteration of this oracle
    /// (see docs/OBSERVABILITY.md).
    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Oracle::Codec => "fuzz.codec",
            Oracle::Convert => "fuzz.convert",
            Oracle::Crwi => "fuzz.crwi",
            Oracle::Diff => "fuzz.diff",
            Oracle::Engine => "fuzz.engine",
            Oracle::Remote => "fuzz.remote",
            Oracle::Store => "fuzz.store",
            Oracle::Streaming => "fuzz.streaming",
        }
    }
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Oracle::Codec => "codec",
            Oracle::Convert => "convert",
            Oracle::Crwi => "crwi",
            Oracle::Diff => "diff",
            Oracle::Engine => "engine",
            Oracle::Remote => "remote",
            Oracle::Store => "store",
            Oracle::Streaming => "streaming",
        })
    }
}

impl FromStr for Oracle {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "codec" => Ok(Oracle::Codec),
            "convert" => Ok(Oracle::Convert),
            "crwi" => Ok(Oracle::Crwi),
            "diff" => Ok(Oracle::Diff),
            "engine" => Ok(Oracle::Engine),
            "remote" => Ok(Oracle::Remote),
            "store" => Ok(Oracle::Store),
            "streaming" => Ok(Oracle::Streaming),
            other => Err(format!(
                "unknown oracle `{other}` (expected codec, convert, crwi, diff, engine, \
                 remote, store, streaming or all)"
            )),
        }
    }
}

/// Configuration for a fuzz run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Master seed; iteration `i` uses case seed `seed + i` (wrapping).
    pub seed: u64,
    /// Iterations to run (each iteration drives every selected oracle).
    pub iters: u64,
    /// Oracles to drive.
    pub oracles: Vec<Oracle>,
    /// Shrink failing inputs before reporting.
    pub shrink: bool,
    /// Stop after this many violations.
    pub max_failures: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            iters: 1000,
            oracles: Oracle::ALL.to_vec(),
            shrink: true,
            max_failures: 5,
        }
    }
}

/// One oracle violation, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The oracle that objected.
    pub oracle: Oracle,
    /// The case seed (not the master seed) of the failing iteration.
    pub seed: u64,
    /// The oracle's failure message.
    pub detail: String,
    /// Description of the shrunk input and its (possibly different)
    /// failure message, when shrinking was enabled and made progress.
    pub shrunk: Option<String>,
}

impl Violation {
    /// The command line that replays exactly this failure.
    #[must_use]
    pub fn repro(&self) -> String {
        format!(
            "ipr fuzz --oracle {} --seed {} --iters 1",
            self.oracle, self.seed
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] case seed {}: {}\n  repro: {}",
            self.oracle,
            self.seed,
            self.detail,
            self.repro()
        )?;
        if let Some(shrunk) = &self.shrunk {
            write!(f, "\n  shrunk: {shrunk}")?;
        }
        Ok(())
    }
}

/// Outcome of [`run`].
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Iterations completed (each drives every selected oracle).
    pub iters_run: u64,
    /// Violations found, at most `max_failures`.
    pub violations: Vec<Violation>,
}

impl FuzzReport {
    /// Whether the run found no violations.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the configured oracles over `iters` consecutive case seeds.
///
/// Emits `fuzz.iters` / `fuzz.failures` counters and one
/// `fuzz.<oracle>` span per oracle iteration through [`ipr_trace`], so
/// `ipr fuzz --stats=json` reports where the budget went.
#[must_use]
pub fn run(config: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    for iter in 0..config.iters {
        ipr_trace::add("fuzz.iters", 1);
        let seed = gen::case_seed(config.seed, iter);
        for &oracle in &config.oracles {
            let outcome = {
                let _span = ipr_trace::span(oracle.span_name());
                run_case(oracle, seed)
            };
            if let Err(detail) = outcome {
                ipr_trace::add("fuzz.failures", 1);
                let shrunk = config.shrink.then(|| shrink_failure(oracle, seed));
                report.violations.push(Violation {
                    oracle,
                    seed,
                    detail,
                    shrunk,
                });
                if report.violations.len() >= config.max_failures {
                    report.iters_run = iter + 1;
                    return report;
                }
            }
        }
        report.iters_run = iter + 1;
    }
    report
}

/// Runs one oracle on one case seed — the unit both [`run`] and the
/// corpus replayer are built from.
///
/// # Errors
///
/// The oracle's failure message.
pub fn run_case(oracle: Oracle, seed: u64) -> Result<(), String> {
    match oracle {
        Oracle::Codec => {
            oracles::check_codec_case(&case_for(seed))?;
            oracles::check_decoder_robustness(&hostile_for(seed))
                .map_err(|e| format!("hostile input: {e}"))
        }
        Oracle::Convert => oracles::check_convert_case(&case_for(seed), seed),
        Oracle::Crwi => oracles::check_crwi_case(&case_for(seed), seed),
        Oracle::Diff => oracles::check_diff_case(&case_for(seed), seed),
        Oracle::Engine => oracles::check_engine_case(&case_for(seed), seed),
        Oracle::Remote => oracles::check_remote_case(&case_for(seed), seed),
        Oracle::Store => oracles::check_store_case(&case_for(seed), seed),
        Oracle::Streaming => oracles::check_streaming_case(&case_for(seed), seed),
    }
}

/// Replays one corpus entry.
///
/// # Errors
///
/// The failing case seed (or hostile input) and oracle message.
pub fn run_corpus_entry(entry: &corpus::CorpusEntry) -> Result<(), String> {
    match entry {
        corpus::CorpusEntry::Seeded {
            oracle,
            seed,
            iters,
        } => {
            for i in 0..*iters {
                let s = gen::case_seed(*seed, i);
                run_case(*oracle, s).map_err(|e| format!("[{oracle}] case seed {s}: {e}"))?;
            }
            Ok(())
        }
        corpus::CorpusEntry::DecodeBytes(bytes) => oracles::check_decoder_robustness(bytes)
            .map_err(|e| format!("[codec] {} raw bytes: {e}", bytes.len())),
    }
}

/// The structured case for a case seed.
fn case_for(seed: u64) -> FuzzCase {
    gen::case(&mut gen::rng_for(seed))
}

/// The hostile decoder input for a case seed.
fn hostile_for(seed: u64) -> Vec<u8> {
    gen::hostile_bytes(&mut gen::rng_for(seed ^ HOSTILE_SALT))
}

/// Shrinks whichever input of `seed` fails `oracle` and renders it.
fn shrink_failure(oracle: Oracle, seed: u64) -> String {
    let _span = ipr_trace::span("fuzz.shrink");
    match oracle {
        Oracle::Codec => {
            let case = case_for(seed);
            if oracles::check_codec_case(&case).is_err() {
                let (small, detail) = shrink::shrink_case(&case, &oracles::check_codec_case);
                return format!("{} — {detail}", describe_case(&small));
            }
            let (small, detail) =
                shrink::shrink_bytes(&hostile_for(seed), &oracles::check_decoder_robustness);
            format!("{} — {detail}", describe_bytes(&small))
        }
        Oracle::Convert => {
            let check = move |c: &FuzzCase| oracles::check_convert_case(c, seed);
            let (small, detail) = shrink::shrink_case(&case_for(seed), &check);
            format!("{} — {detail}", describe_case(&small))
        }
        Oracle::Crwi => {
            let check = move |c: &FuzzCase| oracles::check_crwi_case(c, seed);
            let (small, detail) = shrink::shrink_case(&case_for(seed), &check);
            format!("{} — {detail}", describe_case(&small))
        }
        Oracle::Diff => {
            let check = move |c: &FuzzCase| oracles::check_diff_case(c, seed);
            let (small, detail) = shrink::shrink_case(&case_for(seed), &check);
            format!("{} — {detail}", describe_case(&small))
        }
        Oracle::Engine => {
            let check = move |c: &FuzzCase| oracles::check_engine_case(c, seed);
            let (small, detail) = shrink::shrink_case(&case_for(seed), &check);
            format!("{} — {detail}", describe_case(&small))
        }
        Oracle::Remote => {
            let check = move |c: &FuzzCase| oracles::check_remote_case(c, seed);
            let (small, detail) = shrink::shrink_case(&case_for(seed), &check);
            format!("{} — {detail}", describe_case(&small))
        }
        Oracle::Store => {
            let check = move |c: &FuzzCase| oracles::check_store_case(c, seed);
            let (small, detail) = shrink::shrink_case(&case_for(seed), &check);
            format!("{} — {detail}", describe_case(&small))
        }
        Oracle::Streaming => {
            let check = move |c: &FuzzCase| oracles::check_streaming_case(c, seed);
            let (small, detail) = shrink::shrink_case(&case_for(seed), &check);
            format!("{} — {detail}", describe_case(&small))
        }
    }
}

/// A compact, paste-into-a-test rendering of a case.
fn describe_case(case: &FuzzCase) -> String {
    const MAX_LISTED: usize = 16;
    let script = &case.script;
    let mut out = format!(
        "case: source_len={} target_len={} commands={}",
        script.source_len(),
        script.target_len(),
        script.len()
    );
    for cmd in script.commands().iter().take(MAX_LISTED) {
        match cmd {
            ipr_delta::Command::Copy(c) => {
                out.push_str(&format!(" copy({},{},{})", c.from, c.to, c.len));
            }
            ipr_delta::Command::Add(a) => {
                out.push_str(&format!(" add({},{}B)", a.to, a.data.len()));
            }
        }
    }
    if script.len() > MAX_LISTED {
        out.push_str(&format!(" … +{}", script.len() - MAX_LISTED));
    }
    out
}

/// Hex rendering of a (shrunk, so short) decoder input.
fn describe_bytes(bytes: &[u8]) -> String {
    const MAX_HEX: usize = 64;
    let hex: String = bytes
        .iter()
        .take(MAX_HEX)
        .map(|b| format!("{b:02x}"))
        .collect();
    if bytes.len() > MAX_HEX {
        format!("bytes[{}]: {hex}…", bytes.len())
    } else {
        format!("bytes[{}]: {hex}", bytes.len())
    }
}

/// Parses a seed argument: decimal or `0x`-prefixed hex.
///
/// # Errors
///
/// A human-readable message naming the bad input.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    corpus::parse_u64(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_parses_and_displays() {
        for oracle in Oracle::ALL {
            assert_eq!(oracle.to_string().parse::<Oracle>().unwrap(), oracle);
        }
        assert!("all".parse::<Oracle>().is_err());
    }

    #[test]
    fn clean_run_over_all_oracles() {
        let report = run(&FuzzConfig {
            seed: 42,
            iters: 15,
            ..FuzzConfig::default()
        });
        assert_eq!(report.iters_run, 15);
        assert!(
            report.is_clean(),
            "violations: {:?}",
            report
                .violations
                .iter()
                .map(Violation::repro)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_case_matches_run_for_each_iteration() {
        // The repro contract: iteration i of a run seeded s is exactly
        // run_case(oracle, s + i).
        let master = 7u64;
        for i in 0..5u64 {
            let seed = gen::case_seed(master, i);
            for oracle in Oracle::ALL {
                assert!(run_case(oracle, seed).is_ok());
            }
        }
    }

    #[test]
    fn violation_report_carries_repro_line() {
        let v = Violation {
            oracle: Oracle::Convert,
            seed: 1234,
            detail: "it broke".to_string(),
            shrunk: Some("case: …".to_string()),
        };
        let text = v.to_string();
        assert!(text.contains("ipr fuzz --oracle convert --seed 1234 --iters 1"));
        assert!(text.contains("it broke"));
        assert!(text.contains("shrunk"));
    }

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert_eq!(parse_seed("0x2a").unwrap(), 42);
        assert!(parse_seed("nope").is_err());
    }
}
