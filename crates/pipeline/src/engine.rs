//! The [`Engine`]: owned scratch state plus composable stage methods.

use crate::error::EngineError;
use ipr_core::{
    apply_in_place, check_in_place_safe_with, convert_in_place_pooled, ConversionConfig,
    ConversionReport, ConvertError, ConvertScratch, CyclePolicy, InPlaceOutcome,
};
use ipr_delta::codec::{self, Format};
use ipr_delta::compose_chain;
use ipr_delta::diff::{DiffScratch, GreedyDiffer, IndexedDiffer};
use ipr_delta::remote::{self, Chunking, Signature, SignatureError};
use ipr_delta::DeltaScript;

/// Configuration shared by every stage of an [`Engine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Cycle-breaking policy of in-place conversion.
    pub policy: CyclePolicy,
    /// Wire format updates are encoded in, and the format conversion
    /// costs the copies it breaks in.
    pub format: Format,
    /// Ignored: every stage runs on the calling thread, the diff as one
    /// scan of the version and application in the script's order (the
    /// paper's §4.1). Defaults to 1, the thread count that describes it.
    pub threads: usize,
    /// Block chunking for [`Engine::sign`] — the remote-differencing
    /// signature path (docs/REMOTE.md). [`Chunking::Auto`] resolves per
    /// reference to the smallest block whose wire signature fits its
    /// byte budget.
    pub chunking: Chunking,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            policy: CyclePolicy::default(),
            format: Format::InPlace,
            threads: 1,
            chunking: Chunking::default(),
        }
    }
}

/// A prepared in-place update: the converted script, its wire encoding,
/// and the conversion measurements.
///
/// Hand finished deltas back to [`Engine::recycle`] so their storage
/// feeds later updates instead of the allocator.
#[derive(Clone, Debug)]
pub struct InPlaceDelta {
    /// The converted script; satisfies Equation 2 and is safe for
    /// [`apply_in_place`](ipr_core::apply_in_place) and
    /// [`Engine::apply_in_place`].
    pub script: DeltaScript,
    /// The encoded delta file (wire bytes, target CRC embedded).
    pub payload: Vec<u8>,
    /// Conversion measurements.
    pub report: ConversionReport,
    /// Size of the full new image, for speedup accounting.
    pub version_len: u64,
}

impl InPlaceDelta {
    /// Compression ratio: payload bytes over full-image bytes.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.version_len == 0 {
            0.0
        } else {
            self.payload.len() as f64 / self.version_len as f64
        }
    }
}

/// A reusable pipeline session: owns every scratch arena of the
/// diff → convert → apply pipeline and exposes the stages as methods
/// (see the [crate docs](crate) for the storage inventory).
///
/// One engine is single-threaded state (`&mut self` methods), and every
/// stage runs on the calling thread. Create one engine per pipeline
/// thread.
///
/// # Index reuse
///
/// A diff indexes the reference, then scans the version against that
/// index. The engine keeps a copy of the reference its index was built
/// from, and a [`diff`](Engine::diff) or [`update`](Engine::update)
/// whose reference bytes equal that copy scans the index already built
/// instead of building it again: a server preparing many releases
/// against one fielded image indexes it once. The check is an exact byte compare (a length
/// compare, then `memcmp`), never a hash or a pointer, so a caller's
/// buffer changed in place since, or any other reference, rebuilds.
/// Reuse changes no output byte.
///
/// In steady state an engine retains the index of its longest reference
/// (about 3.4 B per reference byte for the default differ at p = 8,
/// build scratch included; the `diff.index_bytes` gauge) plus the copy,
/// 1 B per byte of the longest reference it has indexed.
#[derive(Debug)]
pub struct Engine<D: IndexedDiffer = GreedyDiffer> {
    differ: D,
    config: EngineConfig,
    diff_scratch: DiffScratch,
    /// The reference bytes the index in `diff_scratch` was built from;
    /// empty until the first build (every build indexes at least a
    /// seed).
    indexed_reference: Vec<u8>,
    convert_scratch: ConvertScratch,
    /// Sorted write intervals for the Equation 2 check of
    /// [`Engine::apply_in_place`].
    safety_writes: Vec<(u64, u64, usize)>,
}

impl Default for Engine<GreedyDiffer> {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine<GreedyDiffer> {
    /// An engine with the default differ and configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// An engine with the default differ,
    /// [`GreedyDiffer::sampled`], and `config`.
    #[must_use]
    pub fn with_config(config: EngineConfig) -> Self {
        Self::with_differ(GreedyDiffer::sampled(), config)
    }
}

impl<D: IndexedDiffer> Engine<D> {
    /// An engine differencing with `differ` under `config`.
    #[must_use]
    pub fn with_differ(differ: D, config: EngineConfig) -> Self {
        Self {
            differ,
            config,
            diff_scratch: DiffScratch::new(),
            indexed_reference: Vec::new(),
            convert_scratch: ConvertScratch::new(),
            safety_writes: Vec::new(),
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Stage 1: differences `version` against `reference` through the
    /// engine's arena: one index build and one scan, or only the scan
    /// while `reference` equals the bytes the arena's index was built
    /// from ([index reuse](Engine#index-reuse),
    /// [`IndexedDiffer::diff_indexed`]). Output is identical to the
    /// differ's free-standing `diff`.
    pub fn diff(&mut self, reference: &[u8], version: &[u8]) -> DeltaScript {
        // A diff that uses no index leaves the index, and its copy, as
        // they were.
        let uses_index = self.differ.uses_index(reference, version);
        let indexed = uses_index && self.indexed_reference == reference;
        if uses_index && !indexed {
            // Exact capacity: the copy never outgrows the longest
            // reference indexed.
            self.indexed_reference.clear();
            self.indexed_reference.reserve_exact(reference.len());
            self.indexed_reference.extend_from_slice(reference);
        }
        self.differ
            .diff_indexed(&mut self.diff_scratch, reference, version, indexed)
    }

    /// Builds the remote-differencing [`Signature`] of `reference` under
    /// the engine's [`chunking`](EngineConfig::chunking), resolved
    /// against this reference's length ([`Chunking::resolve`]) — the
    /// device side of the signature/streaming flow (docs/REMOTE.md).
    ///
    /// # Errors
    ///
    /// [`SignatureError::BadChunking`] when the configured chunking
    /// parameters are invalid.
    pub fn sign(&mut self, reference: &[u8]) -> Result<Signature, SignatureError> {
        Signature::build(reference, self.config.chunking)
    }

    /// Stage 1, remote flavour: differences a *streamed* version against
    /// a reference known only by its [`Signature`]. Resident memory is
    /// the signature plus one block-sized window — neither file — so
    /// this is the diff stage for references that live on a device.
    ///
    /// The output is an ordinary write-ordered [`DeltaScript`]: feed it
    /// to [`Engine::convert`] / [`Engine::apply_in_place`] exactly like
    /// a local diff.
    ///
    /// # Errors
    ///
    /// Propagates reader errors.
    pub fn remote_diff<R: std::io::Read>(
        &mut self,
        signature: &Signature,
        version: R,
    ) -> std::io::Result<DeltaScript> {
        remote::generate_delta(signature, version)
    }

    /// Stage 2: converts `script` for in-place reconstruction under the
    /// engine's [`policy`](EngineConfig::policy), costing the copies it
    /// breaks in its [`format`](EngineConfig::format), and consumes it
    /// (its storage is recycled into the engine's pool).
    ///
    /// # Errors
    ///
    /// As [`ipr_core::convert_to_in_place`].
    pub fn convert(
        &mut self,
        script: DeltaScript,
        reference: &[u8],
    ) -> Result<InPlaceOutcome, ConvertError> {
        convert_in_place_pooled(
            script,
            reference,
            &ConversionConfig {
                policy: self.config.policy,
                cost_format: self.config.format,
            },
            &mut self.convert_scratch,
            self.diff_scratch.pool_mut(),
        )
    }

    /// Encodes a script into a pool-drawn wire buffer, verifying it
    /// rebuilds `version`. The buffer is drawn with room for
    /// [`codec::encoded_size_bound`] bytes, so encoding never regrows it.
    /// The stage-method twin of the encode inside
    /// [`Engine::update`]: return the buffer through
    /// [`Engine::recycle`] and a warm engine re-serves it, so
    /// steady-state encoding performs no heap allocation.
    ///
    /// # Errors
    ///
    /// [`EngineError::Encode`] as [`ipr_delta::codec::encode_checked`].
    pub fn encode(&mut self, script: &DeltaScript, version: &[u8]) -> Result<Vec<u8>, EngineError> {
        let bound = codec::encoded_size_bound(script, self.config.format);
        let mut payload = self.diff_scratch.pool_mut().take_bytes(bound);
        codec::encode_checked_into(script, self.config.format, version, &mut payload)?;
        Ok(payload)
    }

    /// Stage 3: applies a converted script to `buf` in place. The
    /// script is first checked against Equation 2 through an
    /// engine-owned buffer ([`ipr_core::check_in_place_safe_with`]), so
    /// a script from outside cannot corrupt `buf`; it is then applied
    /// serially, in its own order ([`ipr_core::apply_in_place`]). A warm
    /// engine allocates nothing here.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsafe`] when `script` violates Equation 2,
    /// [`EngineError::Apply`] when `buf` cannot hold both versions.
    /// `buf` is unmodified on either error.
    pub fn apply_in_place(
        &mut self,
        script: &DeltaScript,
        buf: &mut [u8],
    ) -> Result<(), EngineError> {
        let _span = ipr_trace::span("engine.apply");
        check_in_place_safe_with(script, &mut self.safety_writes).map_err(EngineError::Unsafe)?;
        apply_in_place(script, buf)?;
        Ok(())
    }

    /// One-call server path: diff, convert and encode — everything a
    /// device needs to rebuild `version` over `reference` in place, and
    /// the only way to prepare an update. A streaming install serves
    /// the payload through
    /// [`DeltaStream::from_wire`](crate::DeltaStream::from_wire).
    ///
    /// Byte-identical to the free-function pipeline
    /// (`diff` → [`ipr_core::convert_to_in_place`] →
    /// [`ipr_delta::codec::encode_checked`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::Convert`] or [`EngineError::Encode`].
    pub fn update(
        &mut self,
        reference: &[u8],
        version: &[u8],
    ) -> Result<InPlaceDelta, EngineError> {
        let _span = ipr_trace::span("engine.update");
        let script = self.diff(reference, version);
        let outcome = self.convert(script, reference)?;
        // Encode into a pooled buffer: a warm engine's whole update is
        // then allocation-free (the buffer returns via `recycle`).
        let payload = self.encode(&outcome.script, version)?;
        if ipr_trace::enabled() {
            ipr_trace::with(|r| {
                r.add("engine.updates", 1);
                r.add("engine.payload_bytes", payload.len() as u64);
            });
        }
        Ok(InPlaceDelta {
            script: outcome.script,
            payload,
            report: outcome.report,
            version_len: version.len() as u64,
        })
    }

    /// Composes a chain of consecutive deltas into one equivalent
    /// script ([`ipr_delta::compose_chain`]) without applying it. The
    /// object store uses it on both sides of a chain: compaction
    /// collapses a deep reconstruction chain into a single delta, and a
    /// read composes its chain before one scratch-space apply.
    ///
    /// # Panics
    ///
    /// On an empty chain — there is no identity delta without a length.
    ///
    /// # Errors
    ///
    /// [`EngineError::Compose`] when the chain is not consecutive.
    pub fn compose(&mut self, scripts: &[DeltaScript]) -> Result<DeltaScript, EngineError> {
        let _span = ipr_trace::span("engine.compose");
        assert!(!scripts.is_empty(), "cannot compose an empty chain");
        ipr_trace::add("engine.compose_hops", scripts.len() as u64);
        Ok(compose_chain(scripts)?)
    }

    /// Returns a finished delta's storage to the engine's pool, so later
    /// updates build their scripts and payloads out of it instead of
    /// allocating.
    pub fn recycle(&mut self, delta: InPlaceDelta) {
        let pool = self.diff_scratch.pool_mut();
        pool.recycle(delta.script);
        pool.give_bytes(delta.payload);
    }

    /// Returns a finished script's storage to the engine's pool (the
    /// script-only half of [`Engine::recycle`], for callers that keep the
    /// payload).
    pub fn recycle_script(&mut self, script: DeltaScript) {
        self.diff_scratch.pool_mut().recycle(script);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference copy's capacity is exactly the longest reference
    /// the engine has indexed: a shorter one fits in it, and a diff that
    /// builds no index (a version shorter than a seed) copies nothing.
    #[test]
    fn reference_copy_holds_the_longest_reference_indexed() {
        let reference = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 7 % 251) as u8).collect() };
        let mut engine = Engine::new();
        for (len, version_len, capacity) in [
            (5_000, 5_000, 5_000),
            (3_000, 3_000, 5_000),
            (9_000, 4, 5_000),
            (7_000, 7_000, 7_000),
            (6_000, 6_000, 7_000),
        ] {
            let r = reference(len);
            let script = engine.diff(&r, &r[..version_len]);
            engine.recycle_script(script);
            assert_eq!(
                engine.indexed_reference.capacity(),
                capacity,
                "reference of {len} B"
            );
        }
    }
}
