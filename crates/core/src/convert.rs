//! The in-place conversion algorithm (§4 of the paper).
//!
//! Takes an arbitrary delta script and produces an equivalent script that
//! reconstructs the version file correctly when applied serially to the
//! buffer holding the reference file:
//!
//! 1. partition commands into copies and adds (adds go last — they never
//!    read the reference, §4.1);
//! 2. sort the copies by write offset;
//! 3. build the CRWI conflict digraph;
//! 4. topologically sort it, breaking cycles by deleting vertices per the
//!    configured [`CyclePolicy`];
//! 5. emit retained copies in topological order;
//! 6. emit all adds — the original ones plus the deleted copies converted
//!    to adds (their data materialized from the reference file).

use crate::crwi;
use crate::policy::CyclePolicy;
use crate::toposort::{sort_breaking_cycles_into, SortScratch};
use ipr_delta::codec::Format;
use ipr_delta::{Add, Command, Copy, DeltaScript, ScriptPool};
use ipr_digraph::fvs::ComponentTooLarge;
use ipr_digraph::{Digraph, NodeId};
use std::fmt;

/// Configuration for [`convert_to_in_place`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConversionConfig {
    /// Cycle-breaking policy (step 4).
    pub policy: CyclePolicy,
    /// Codeword format used as the *cost model*: deleting vertex `v`
    /// costs `format.conversion_cost(copy_v)` encoded bytes.
    pub cost_format: Format,
}

impl Default for ConversionConfig {
    /// Locally-minimum cycle breaking costed against the in-place varint
    /// format.
    fn default() -> Self {
        Self {
            policy: CyclePolicy::LocallyMinimum,
            cost_format: Format::InPlace,
        }
    }
}

impl ConversionConfig {
    /// Convenience constructor for a policy with the default cost format.
    #[must_use]
    pub fn with_policy(policy: CyclePolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }
}

/// Error returned by [`convert_to_in_place`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConvertError {
    /// The reference buffer does not match the script's source length; the
    /// converter needs the reference to materialize converted adds.
    SourceLenMismatch {
        /// Length the script declares.
        expected: u64,
        /// Length of the buffer supplied.
        actual: u64,
    },
    /// The exhaustive policy met a strongly connected component larger
    /// than its limit.
    ComponentTooLarge(ComponentTooLarge),
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::SourceLenMismatch { expected, actual } => {
                write!(f, "reference is {actual} bytes, script expects {expected}")
            }
            ConvertError::ComponentTooLarge(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ConvertError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConvertError::ComponentTooLarge(e) => Some(e),
            ConvertError::SourceLenMismatch { .. } => None,
        }
    }
}

impl From<ComponentTooLarge> for ConvertError {
    fn from(e: ComponentTooLarge) -> Self {
        ConvertError::ComponentTooLarge(e)
    }
}

/// Measurements from one conversion, the raw material of the paper's
/// Table 1. Every field depends only on the inputs; the
/// `convert.crwi_build` and `convert.toposort` spans time the phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConversionReport {
    /// Copy commands in the input script.
    pub input_copies: usize,
    /// Add commands in the input script.
    pub input_adds: usize,
    /// Edges in the CRWI digraph (potential WR conflicts).
    pub edges: usize,
    /// Cycles broken during the topological sort.
    pub cycles_broken: usize,
    /// Copy commands converted to adds.
    pub copies_converted: usize,
    /// Version bytes carried by converted commands (now literal in the
    /// delta).
    pub bytes_converted: u64,
    /// Delta growth in encoded bytes under the configured cost format
    /// (the "loss from cycles" of Table 1).
    pub conversion_cost: u64,
    /// Vertices examined while scanning cycles (locally-minimum work).
    pub cycle_nodes_examined: usize,
}

impl ConversionReport {
    /// Publishes the report to the installed [`ipr_trace`] recorder (the
    /// `convert.*` counters of `docs/OBSERVABILITY.md`); no-op when
    /// tracing is off.
    fn record(&self) {
        if !ipr_trace::enabled() {
            return;
        }
        ipr_trace::with(|r| {
            r.add("convert.input_copies", self.input_copies as u64);
            r.add("convert.input_adds", self.input_adds as u64);
            r.add("convert.edges", self.edges as u64);
            r.add("convert.cycles_broken", self.cycles_broken as u64);
            r.add("convert.copies_converted", self.copies_converted as u64);
            r.add("convert.bytes_converted", self.bytes_converted);
            r.add("convert.bytes_reencoded", self.conversion_cost);
            r.add(
                "convert.cycle_nodes_examined",
                self.cycle_nodes_examined as u64,
            );
        });
    }
}

impl fmt::Display for ConversionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} copies + {} adds; {} conflict edges; {} cycles broken; \
             {} copies converted ({} B payload, +{} B encoded)",
            self.input_copies,
            self.input_adds,
            self.edges,
            self.cycles_broken,
            self.copies_converted,
            self.bytes_converted,
            self.conversion_cost,
        )
    }
}

/// Reusable working storage for [`convert_in_place_pooled`].
///
/// Owns every buffer the conversion needs — the partitioned command
/// lists, the CRWI digraph, the cost vector, and the cycle-breaking sort
/// scratch — so repeated conversions through one scratch allocate nothing
/// once warm (the exhaustive policy's exact solver excepted).
#[derive(Debug, Default)]
pub struct ConvertScratch {
    copies: Vec<Copy>,
    adds: Vec<Add>,
    graph: Digraph,
    graph_spare: Vec<Vec<NodeId>>,
    costs: Vec<u64>,
    sort: SortScratch,
    order_scratch: Vec<usize>,
}

impl ConvertScratch {
    /// Creates an empty scratch. Storage is grown on first use and reused
    /// afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A converted, in-place reconstructible delta.
#[derive(Clone, Debug)]
pub struct InPlaceOutcome {
    /// The permuted and converted script; satisfies Equation 2 and is safe
    /// for [`apply_in_place`](crate::apply_in_place).
    pub script: DeltaScript,
    /// Conversion measurements.
    pub report: ConversionReport,
}

/// Post-processes `script` so it can reconstruct the version file in the
/// space the reference file occupies.
///
/// `reference` must be the reference file: deleted copy commands are
/// re-encoded as add commands whose literal data is read from it.
///
/// The output script applies its retained copies in conflict-free
/// topological order followed by every add command (sorted by write
/// offset), and always satisfies Equation 2.
///
/// # Errors
///
/// * [`ConvertError::SourceLenMismatch`] — `reference` length differs from
///   `script.source_len()`.
/// * [`ConvertError::ComponentTooLarge`] — only with
///   [`CyclePolicy::Exhaustive`].
///
/// # Example
///
/// ```
/// use ipr_delta::{Command, DeltaScript};
/// use ipr_core::{convert_to_in_place, check_in_place_safe, ConversionConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A block swap: naively ordered, it corrupts in place.
/// let script = DeltaScript::new(16, 16, vec![
///     Command::copy(8, 0, 8),
///     Command::copy(0, 8, 8),
/// ])?;
/// let reference = (0u8..16).collect::<Vec<_>>();
/// let outcome = convert_to_in_place(&script, &reference, &ConversionConfig::default())?;
/// assert!(check_in_place_safe(&outcome.script).is_ok());
/// # Ok(())
/// # }
/// ```
pub fn convert_to_in_place(
    script: &DeltaScript,
    reference: &[u8],
    config: &ConversionConfig,
) -> Result<InPlaceOutcome, ConvertError> {
    let mut scratch = ConvertScratch::new();
    let mut pool = ScriptPool::new();
    convert_in_place_pooled(script.clone(), reference, config, &mut scratch, &mut pool)
}

/// Scratch-based core of [`convert_to_in_place`]: identical results, but
/// the input script is consumed (its storage recycled through `pool`),
/// working buffers live in `scratch`, and the output script is built from
/// pooled storage — so a warm scratch/pool pair converts with no heap
/// allocation at all.
///
/// # Errors
///
/// Exactly as [`convert_to_in_place`]; on [`ConvertError::SourceLenMismatch`]
/// the input script's storage is still recycled into `pool`.
pub fn convert_in_place_pooled(
    script: DeltaScript,
    reference: &[u8],
    config: &ConversionConfig,
    scratch: &mut ConvertScratch,
    pool: &mut ScriptPool,
) -> Result<InPlaceOutcome, ConvertError> {
    if reference.len() as u64 != script.source_len() {
        let expected = script.source_len();
        let actual = reference.len() as u64;
        pool.recycle(script);
        return Err(ConvertError::SourceLenMismatch { expected, actual });
    }
    let _span = ipr_trace::span("convert");
    let ConvertScratch {
        copies,
        adds,
        graph,
        graph_spare,
        costs,
        sort,
        order_scratch,
    } = scratch;

    // Steps 1-3: partition, sort by write offset, build the digraph.
    let build_span = ipr_trace::span("convert.crwi_build");
    let (source_len, target_len, mut commands) = script.into_parts();
    copies.clear();
    adds.clear();
    for cmd in commands.drain(..) {
        match cmd {
            Command::Copy(c) => copies.push(c),
            Command::Add(a) => adds.push(a),
        }
    }
    pool.give_commands(commands);
    let input_copies = copies.len();
    let input_adds = adds.len();
    // Write offsets are unique in a valid script, so the unstable sort is
    // deterministic and matches the legacy stable sort.
    copies.sort_unstable_by_key(|c| c.to);
    graph.reset_with_spare(copies.len(), graph_spare);
    crwi::build_edges_into(copies, graph);
    drop(build_span);

    // Step 4: cycle-breaking topological sort.
    let sort_span = ipr_trace::span("convert.toposort");
    costs.clear();
    costs.extend(copies.iter().map(|c| config.cost_format.conversion_cost(c)));
    let stats = sort_breaking_cycles_into(graph, costs, config.policy, sort)?;
    drop(sort_span);

    // Steps 5-6: emit copies in topological order, then adds.
    let emit_span = ipr_trace::span("convert.emit");
    let mut out_commands = pool.take_commands();
    out_commands.extend(
        sort.order()
            .iter()
            .map(|&v| Command::Copy(copies[v as usize])),
    );
    let mut bytes_converted = 0u64;
    let mut conversion_cost = 0u64;
    for &v in sort.removed() {
        let c = copies[v as usize];
        bytes_converted += c.len;
        conversion_cost += config.cost_format.conversion_cost(&c);
        let start = usize::try_from(c.from).expect("offset fits usize");
        let end = usize::try_from(c.from + c.len).expect("offset fits usize");
        let mut data = pool.take_bytes(end - start);
        data.extend_from_slice(&reference[start..end]);
        adds.push(Add::new(c.to, data));
    }
    // Add write offsets are unique too: unstable sort matches stable.
    adds.sort_unstable_by_key(|a| a.to);
    let copies_converted = sort.removed().len();
    out_commands.extend(adds.drain(..).map(Command::Add));

    let script = DeltaScript::new_with_scratch(source_len, target_len, out_commands, order_scratch)
        .expect("conversion preserves script validity");
    debug_assert!(crate::verify::is_in_place_safe(&script));
    drop(emit_span);

    let report = ConversionReport {
        input_copies,
        input_adds,
        edges: graph.edge_count(),
        cycles_broken: stats.cycles_broken,
        copies_converted,
        bytes_converted,
        conversion_cost,
        cycle_nodes_examined: stats.cycle_nodes_examined,
    };
    report.record();

    Ok(InPlaceOutcome { script, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_in_place;
    use crate::verify::{count_wr_conflicts, is_in_place_safe};
    use ipr_delta::apply;

    fn reference16() -> Vec<u8> {
        (0u8..16).collect()
    }

    fn convert(script: &DeltaScript, reference: &[u8]) -> InPlaceOutcome {
        convert_to_in_place(script, reference, &ConversionConfig::default()).unwrap()
    }

    #[test]
    fn acyclic_swap_reordered_without_conversion() {
        // Swap of two blocks where only one direction conflicts is just a
        // 2-cycle... use a rotation instead: copy [8,16) -> [0,8) and
        // [0,8) -> [8,16) form a 2-cycle, so one conversion is needed.
        let script =
            DeltaScript::new(16, 16, vec![Command::copy(8, 0, 8), Command::copy(0, 8, 8)]).unwrap();
        let reference = reference16();
        let out = convert(&script, &reference);
        assert_eq!(out.report.cycles_broken, 1);
        assert_eq!(out.report.copies_converted, 1);
        assert!(is_in_place_safe(&out.script));
        // Equivalence with scratch-space application.
        let expected = apply(&script, &reference).unwrap();
        let mut buf = reference.clone();
        apply_in_place(&out.script, &mut buf).unwrap();
        assert_eq!(&buf[..16], &expected[..]);
    }

    #[test]
    fn pure_reorder_when_no_cycles() {
        // Shift data toward lower offsets: command i reads block i+1 and
        // writes block i. Conflicts form a path; reordering suffices.
        let cmds: Vec<Command> = (0..7u64)
            .map(|i| Command::copy(2 * (i + 1), 2 * i, 2))
            .collect();
        let script = DeltaScript::new(16, 14, cmds).unwrap();
        let reference = reference16();
        let naive_conflicts = count_wr_conflicts(&script);
        assert_eq!(naive_conflicts, 0, "ascending order already safe here");
        // Reverse it so the naive order is maximally conflicting.
        let reversed = script.permuted(&[6, 5, 4, 3, 2, 1, 0]);
        assert!(count_wr_conflicts(&reversed) > 0);
        assert!(!is_in_place_safe(&reversed));
        let out = convert(&reversed, &reference);
        assert_eq!(out.report.copies_converted, 0, "no cycles: reorder only");
        assert_eq!(out.report.cycles_broken, 0);
        assert!(is_in_place_safe(&out.script));
    }

    #[test]
    fn adds_moved_to_end() {
        let script = DeltaScript::new(
            8,
            12,
            vec![Command::add(0, vec![9; 4]), Command::copy(0, 4, 8)],
        )
        .unwrap();
        let reference: Vec<u8> = (0u8..8).collect();
        assert!(!is_in_place_safe(&script), "add clobbers the copy's read");
        let out = convert(&script, &reference);
        assert!(out.script.commands().last().unwrap().is_add());
        assert!(is_in_place_safe(&out.script));
        assert_eq!(out.report.copies_converted, 0);
    }

    #[test]
    fn converted_add_carries_reference_bytes() {
        let script =
            DeltaScript::new(16, 16, vec![Command::copy(8, 0, 8), Command::copy(0, 8, 8)]).unwrap();
        let reference = reference16();
        let out = convert(&script, &reference);
        let adds = out.script.adds();
        assert_eq!(adds.len(), 1);
        // Whichever copy was converted, its data must equal the reference
        // bytes it would have copied.
        let add = &adds[0];
        let expected: Vec<u8> = if add.to == 0 {
            (8u8..16).collect()
        } else {
            (0u8..8).collect()
        };
        assert_eq!(add.data, expected);
    }

    #[test]
    fn equivalence_on_scrambled_script() {
        // A deliberately nasty permutation: interleaved moves.
        let script = DeltaScript::new(
            32,
            32,
            vec![
                Command::copy(16, 0, 8),
                Command::copy(24, 8, 4),
                Command::add(12, vec![0xEE; 4]),
                Command::copy(0, 16, 8),
                Command::copy(8, 24, 8),
            ],
        )
        .unwrap();
        let reference: Vec<u8> = (0u8..32).collect();
        let expected = apply(&script, &reference).unwrap();
        for policy in [
            CyclePolicy::ConstantTime,
            CyclePolicy::LocallyMinimum,
            CyclePolicy::Exhaustive { limit: 16 },
        ] {
            let out =
                convert_to_in_place(&script, &reference, &ConversionConfig::with_policy(policy))
                    .unwrap();
            assert!(is_in_place_safe(&out.script), "{policy}");
            let mut buf = reference.clone();
            apply_in_place(&out.script, &mut buf).unwrap();
            assert_eq!(&buf[..32], &expected[..], "{policy}");
        }
    }

    #[test]
    fn source_len_mismatch_rejected() {
        let script = DeltaScript::new(16, 16, vec![Command::copy(0, 0, 16)]).unwrap();
        let err =
            convert_to_in_place(&script, &[0u8; 4], &ConversionConfig::default()).unwrap_err();
        assert_eq!(
            err,
            ConvertError::SourceLenMismatch {
                expected: 16,
                actual: 4
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn exhaustive_limit_error_propagates() {
        // A large rotation creates one big cycle.
        let n = 32u64;
        let cmds: Vec<Command> = (0..n)
            .map(|i| Command::copy(((i + 1) % n) * 2, i * 2, 2))
            .collect();
        let script = DeltaScript::new(n * 2, n * 2, cmds).unwrap();
        let reference = vec![7u8; (n * 2) as usize];
        let config = ConversionConfig::with_policy(CyclePolicy::Exhaustive { limit: 4 });
        let err = convert_to_in_place(&script, &reference, &config).unwrap_err();
        assert!(matches!(err, ConvertError::ComponentTooLarge(_)));
    }

    #[test]
    fn diff_then_convert_end_to_end() {
        use ipr_delta::diff::{Differ, GreedyDiffer};
        let reference: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(512); // block move: guaranteed read/write crossings
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert(&script, &reference);
        assert!(is_in_place_safe(&out.script));
        let mut buf = reference.clone();
        apply_in_place(&out.script, &mut buf).unwrap();
        assert_eq!(buf, version);
    }

    #[test]
    fn pooled_conversion_matches_legacy_with_reuse() {
        // One scratch + pool driven across heterogeneous scripts and
        // policies (recycling each output) must match the legacy path
        // byte for byte, report included.
        let reference: Vec<u8> = (0u8..32).collect();
        let scripts = vec![
            DeltaScript::new(
                32,
                32,
                vec![Command::copy(16, 0, 16), Command::copy(0, 16, 16)],
            )
            .unwrap(),
            DeltaScript::new(
                32,
                32,
                vec![
                    Command::copy(16, 0, 8),
                    Command::copy(24, 8, 4),
                    Command::add(12, vec![0xEE; 4]),
                    Command::copy(0, 16, 8),
                    Command::copy(8, 24, 8),
                ],
            )
            .unwrap(),
            DeltaScript::new(32, 4, vec![Command::add(0, vec![1; 4])]).unwrap(),
            DeltaScript::new(32, 0, vec![]).unwrap(),
        ];
        let mut scratch = ConvertScratch::new();
        let mut pool = ScriptPool::new();
        for policy in [
            CyclePolicy::ConstantTime,
            CyclePolicy::LocallyMinimum,
            CyclePolicy::Exhaustive { limit: 16 },
        ] {
            let config = ConversionConfig::with_policy(policy);
            for script in &scripts {
                let legacy = convert_to_in_place(script, &reference, &config).unwrap();
                let pooled = convert_in_place_pooled(
                    script.clone(),
                    &reference,
                    &config,
                    &mut scratch,
                    &mut pool,
                )
                .unwrap();
                assert_eq!(pooled.script, legacy.script, "{policy}");
                assert_eq!(pooled.report, legacy.report, "{policy}");
                pool.recycle(pooled.script);
            }
        }
        assert!(pool.spare_commands() > 0, "recycled storage is retained");

        // The mismatch error still recycles the input script's storage.
        let before = pool.spare_commands();
        let err = convert_in_place_pooled(
            scripts[0].clone(),
            &[0u8; 4],
            &ConversionConfig::default(),
            &mut scratch,
            &mut pool,
        )
        .unwrap_err();
        assert!(matches!(err, ConvertError::SourceLenMismatch { .. }));
        assert!(pool.spare_commands() > before);
    }

    #[test]
    fn growing_file_conversion() {
        // Version larger than reference: writes extend past source length.
        let reference: Vec<u8> = (0u8..8).collect();
        let script = DeltaScript::new(
            8,
            20,
            vec![Command::copy(0, 12, 8), Command::add(0, vec![1; 12])],
        )
        .unwrap();
        let out = convert(&script, &reference);
        assert!(is_in_place_safe(&out.script));
        let expected = apply(&script, &reference).unwrap();
        let mut buf = reference.clone();
        buf.resize(20, 0);
        apply_in_place(&out.script, &mut buf).unwrap();
        assert_eq!(buf, expected);
    }
}
