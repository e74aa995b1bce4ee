//! The measured loop every workload shares: its clock, its samples and
//! its correctness record.

use crate::alloc;
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// An operation that produces a delta (or stores one).
pub const PREPARE: &str = "prepare";
/// An operation that rebuilds new bytes from old ones.
pub const RECONSTRUCT: &str = "reconstruct";
/// A store compaction.
pub const COMPACT: &str = "compact";

/// A run never starts another pass after this, whatever its sample
/// counts, so the process ends well inside the benchmark's time limit.
const HARD_CAP: Duration = Duration::from_secs(120);

/// Counts taken from the public return values of traced calls.
#[derive(Clone, Debug, Default)]
pub struct Extras {
    /// Bytes the traced diffs covered with copies.
    pub diff_copied: u64,
    /// Version bytes the traced diffs described.
    pub diff_target: u64,
    /// Traced conversions.
    pub converts: u64,
    /// CRWI edges over every traced conversion.
    pub edges: u64,
    /// Version bytes of every traced conversion.
    pub convert_target: u64,
    /// Cycles broken over every traced conversion.
    pub cycles_broken: u64,
    /// Vertices examined while breaking those cycles.
    pub cycle_nodes: u64,
    /// Delta growth (encoded bytes) caused by breaking cycles.
    pub conversion_cost: u64,
    /// Encoded signature bytes of every traced signing.
    pub signature_bytes: u64,
    /// Reference bytes those signatures describe.
    pub signed_bytes: u64,
    /// Bytes the traced remote generations covered with copies.
    pub generate_copied: u64,
    /// Version bytes the traced remote generations described.
    pub generate_target: u64,
    /// Largest decoder buffer any traced install held.
    pub install_high_water: u64,
    /// Commands traced installs applied before the wire ended.
    pub install_pre_eof: u64,
    /// Commands traced installs applied.
    pub install_commands: u64,
    /// Delta chain depth of every traced store read.
    pub get_depths: Vec<f64>,
}

/// One process's measurements.
#[derive(Debug)]
pub struct Run {
    /// Span recorder; enabled only for traced operations.
    pub tracer: Tracer,
    /// Whether this is the traced run (`--trace 1`).
    pub traced: bool,
    /// Counts from traced calls.
    pub extras: Extras,
    /// Provenance and per-workload notes, printed before the result.
    pub notes: Vec<String>,
    seconds: f64,
    started: Option<Instant>,
    next_op: u64,
    latency_ms: BTreeMap<(&'static str, bool), Vec<f64>>,
    minimum: Vec<(&'static str, bool, usize)>,
    prepared_bytes: u64,
    prepare_s: f64,
    setups_s: Vec<f64>,
    moved_bytes: u64,
    moved_version_bytes: u64,
    passes: usize,
    attempted: u64,
    failures: Vec<String>,
    peak_heap: usize,
}

impl Run {
    /// A run measuring for `seconds`, traced or not.
    pub fn new(seconds: f64, traced: bool) -> Self {
        Self {
            tracer: Tracer::new(),
            traced,
            extras: Extras::default(),
            notes: Vec::new(),
            seconds,
            started: None,
            next_op: 0,
            latency_ms: BTreeMap::new(),
            minimum: Vec::new(),
            prepared_bytes: 0,
            prepare_s: 0.0,
            setups_s: Vec::new(),
            moved_bytes: 0,
            moved_version_bytes: 0,
            passes: 0,
            attempted: 0,
            failures: Vec::new(),
            peak_heap: 0,
        }
    }

    /// Requires `count` samples of `kind` (traced or not) before the run
    /// may end, so every percentile it reports has ten samples beyond it.
    pub fn require(&mut self, kind: &'static str, traced: bool, count: usize) {
        self.minimum.push((kind, traced, count));
    }

    /// Starts the clock and the heap high water: inputs are built and
    /// the program is set up.
    pub fn begin(&mut self) {
        alloc::reset_peak();
        self.started = Some(Instant::now());
    }

    /// Whether to stop before another pass: the time is up and every
    /// required sample count is reached, or the hard cap is hit. Runs end
    /// only between passes, so every run measures whole passes over the
    /// same inputs and the operation mix never depends on the time.
    pub fn done(&self) -> bool {
        let elapsed = self.started.expect("begin() starts the clock").elapsed();
        if elapsed >= HARD_CAP {
            return true;
        }
        elapsed.as_secs_f64() >= self.seconds
            && self.passes > 0
            && self
                .minimum
                .iter()
                .all(|&(kind, traced, n)| self.samples(kind, traced).len() >= n)
    }

    /// Whether the hard cap ended the run before its requirements.
    pub fn starved(&self) -> Vec<String> {
        let mut missing: Vec<String> = self
            .minimum
            .iter()
            .filter(|&&(kind, traced, n)| self.samples(kind, traced).len() < n)
            .map(|&(kind, traced, n)| {
                let t = if traced { "traced" } else { "untraced" };
                format!(
                    "{t} {kind}: {} of {n} samples",
                    self.samples(kind, traced).len()
                )
            })
            .collect();
        if self.passes == 0 {
            missing.push("no complete pass over the inputs".into());
        }
        missing
    }

    /// A fresh operation id.
    pub fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records a timed set-up.
    pub fn setup(&mut self, took: Duration) {
        self.setups_s.push(took.as_secs_f64());
    }

    /// Records one operation's latency. Untraced prepares of
    /// `version_bytes` also feed `prepare_mib_s`.
    pub fn record(&mut self, kind: &'static str, traced: bool, took: Duration, version_bytes: u64) {
        self.attempted += 1;
        self.latency_ms
            .entry((kind, traced))
            .or_default()
            .push(took.as_secs_f64() * 1e3);
        if kind == PREPARE && !traced {
            self.prepared_bytes += version_bytes;
            self.prepare_s += took.as_secs_f64();
        }
    }

    /// Records an operation that failed before it could be timed.
    pub fn attempt_failed(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    /// Records a failed check on an operation already recorded.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Counts bytes moved or stored for `version_bytes` of new versions,
    /// during the first pass over the inputs only, so the ratio depends
    /// on the seed and never on how many passes fit in the time.
    pub fn moved(&mut self, bytes: u64, version_bytes: u64) {
        if self.passes == 0 {
            self.moved_bytes += bytes;
            self.moved_version_bytes += version_bytes;
        }
    }

    /// Marks a pass over the inputs complete.
    pub fn pass_done(&mut self) {
        self.passes += 1;
    }

    /// Complete passes over the inputs.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Captures the heap high water; call once the loop has ended.
    pub fn finish(&mut self) {
        self.peak_heap = alloc::peak();
    }

    /// Latency samples of `kind`, in milliseconds.
    pub fn samples(&self, kind: &'static str, traced: bool) -> &[f64] {
        self.latency_ms
            .get(&(kind, traced))
            .map_or(&[], Vec::as_slice)
    }

    /// Operations attempted, traced or not.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Every failed check, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Median set-up time, in seconds.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setups_s).unwrap_or(0.0)
    }

    /// Set-ups timed.
    pub fn setups(&self) -> usize {
        self.setups_s.len()
    }

    /// Version MiB prepared per second of untraced prepare time.
    pub fn prepare_mib_s(&self) -> f64 {
        stats::mib_per_s(self.prepared_bytes, self.prepare_s)
    }

    /// Bytes moved or stored per version byte over the first pass.
    pub fn bytes_ratio(&self) -> f64 {
        stats::ratio(self.moved_bytes as f64, self.moved_version_bytes as f64)
    }

    /// Peak live heap of the run, in MiB.
    pub fn peak_heap_mib(&self) -> f64 {
        self.peak_heap as f64 / stats::MIB
    }

    /// Seconds since the clock started.
    pub fn elapsed_s(&self) -> f64 {
        self.started.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }
}
