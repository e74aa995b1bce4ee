//! Property-based tests over the whole stack (invariants I1–I8 of
//! DESIGN.md), driven by proptest.

use ipr::core::{
    apply_in_place, apply_in_place_buffered, check_in_place_safe, convert_to_in_place,
    is_valid_outcome, required_capacity, sort_breaking_cycles, ConversionConfig, CrwiGraph,
    CyclePolicy,
};
use ipr::delta::codec::{decode, encode, Format};
use ipr::delta::diff::{CorrectingDiffer, Differ, GreedyDiffer, OnePassDiffer};
use ipr::delta::{varint, Command, DeltaScript};
use ipr::digraph::{topo, Digraph, Interval, IntervalSet};
use proptest::prelude::*;

/// A version derived from a reference by random edit operations, so the
/// pair is realistically delta-compressible (pure random pairs share no
/// strings and exercise only the all-literal path).
fn edited_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let reference = proptest::collection::vec(any::<u8>(), 0..2048);
    let edits = proptest::collection::vec(
        (
            0u8..5,                       // op
            any::<prop::sample::Index>(), // position
            1usize..200,                  // length
            any::<u8>(),                  // value seed
        ),
        0..8,
    );
    (reference, edits).prop_map(|(reference, edits)| {
        let mut version = reference.clone();
        for (op, pos, len, val) in edits {
            if version.is_empty() {
                version.extend(std::iter::repeat_n(val, len));
                continue;
            }
            let at = pos.index(version.len());
            match op {
                0 => version[at] = val, // point edit
                1 => {
                    // insert
                    let block: Vec<u8> = (0..len).map(|i| val.wrapping_add(i as u8)).collect();
                    version.splice(at..at, block);
                }
                2 => {
                    // delete
                    let end = (at + len).min(version.len());
                    version.drain(at..end);
                }
                3 => {
                    // move
                    let end = (at + len).min(version.len());
                    let block: Vec<u8> = version.drain(at..end).collect();
                    let dst = if version.is_empty() {
                        0
                    } else {
                        pos.index(version.len() + 1)
                    };
                    version.splice(dst..dst, block);
                }
                _ => {
                    // duplicate
                    let end = (at + len).min(version.len());
                    let block: Vec<u8> = version[at..end].to_vec();
                    version.extend(block);
                }
            }
        }
        (reference, version)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// I2: differs always reconstruct the version exactly.
    #[test]
    fn differs_reconstruct((reference, version) in edited_pair()) {
        for differ in [
            &GreedyDiffer::new(8) as &dyn Differ,
            &OnePassDiffer::new(8, 12),
            &CorrectingDiffer::new(8, 12),
        ] {
            let script = differ.diff(&reference, &version);
            prop_assert!(script.is_write_ordered());
            prop_assert_eq!(&ipr::delta::apply(&script, &reference).unwrap(), &version);
        }
    }

    /// I3 + I6: converted scripts satisfy Equation 2 and rebuild in place,
    /// for every policy, matching the scratch-space result byte for byte.
    #[test]
    fn conversion_safe_and_equivalent(
        (reference, version) in edited_pair(),
        constant in any::<bool>(),
    ) {
        let script = GreedyDiffer::new(8).diff(&reference, &version);
        let policy = if constant { CyclePolicy::ConstantTime } else { CyclePolicy::LocallyMinimum };
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::with_policy(policy))
            .unwrap();
        prop_assert!(check_in_place_safe(&out.script).is_ok());
        let mut buf = reference.clone();
        buf.resize(required_capacity(&out.script) as usize, 0);
        apply_in_place(&out.script, &mut buf).unwrap();
        prop_assert_eq!(&buf[..version.len()], &version[..]);
    }

    /// I5 (Lemma 1): CRWI edges never exceed the version length, nor the
    /// total read length.
    #[test]
    fn lemma1_edge_bound((reference, version) in edited_pair()) {
        let script = OnePassDiffer::new(8, 12).diff(&reference, &version);
        let total_read: u64 = script.copies().iter().map(|c| c.len).sum();
        let crwi = CrwiGraph::build(script.copies());
        prop_assert!(crwi.edge_count() as u64 <= script.target_len());
        prop_assert!(crwi.edge_count() as u64 <= total_read);
    }

    /// I8: buffered in-place application is byte-identical at any chunk
    /// granularity.
    #[test]
    fn buffered_apply_equivalence(
        (reference, version) in edited_pair(),
        chunk in 1usize..512,
    ) {
        let script = GreedyDiffer::new(8).diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        let capacity = required_capacity(&out.script) as usize;
        let mut a = reference.clone();
        a.resize(capacity, 0);
        apply_in_place(&out.script, &mut a).unwrap();
        let mut b = reference.clone();
        b.resize(capacity, 0);
        apply_in_place_buffered(&out.script, &mut b, chunk).unwrap();
        prop_assert_eq!(a, b);
    }

    /// I4: codec round trip on differenced scripts, every format.
    #[test]
    fn codec_round_trip((reference, version) in edited_pair()) {
        let script = GreedyDiffer::new(8).diff(&reference, &version);
        for format in Format::ALL {
            let wire = encode(&script, format).unwrap();
            let decoded = decode(&wire).unwrap();
            // Exact command round trip for non-splitting formats; semantic
            // equivalence for all.
            if !matches!(format, Format::PaperOrdered | Format::PaperInPlace) {
                prop_assert_eq!(&decoded.script, &script);
            }
            prop_assert_eq!(
                &ipr::delta::apply(&decoded.script, &reference).unwrap(),
                &version
            );
        }
    }

    /// Corrupting any single byte of an encoded delta never panics the
    /// decoder: it either errors or yields some script.
    #[test]
    fn decoder_total_on_corruption(
        (reference, version) in edited_pair(),
        idx in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let script = GreedyDiffer::new(8).diff(&reference, &version);
        let mut wire = encode(&script, Format::InPlace).unwrap();
        let at = idx.index(wire.len());
        wire[at] ^= xor;
        let _ = decode(&wire); // must not panic
    }

    /// Varint round trip.
    #[test]
    fn varint_round_trip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::encode(v, &mut buf);
        prop_assert_eq!(buf.len(), varint::encoded_len(v));
        let (decoded, used) = varint::decode(&buf).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(used, buf.len());
    }

    /// IntervalSet agrees with a naive bitmap model.
    #[test]
    fn interval_set_model(ops in proptest::collection::vec((0u64..256, 0u64..64), 0..40)) {
        let mut set = IntervalSet::new();
        let mut model = vec![false; 360];
        for (start, len) in ops {
            set.insert(Interval::from_offset_len(start, len));
            for i in start..start + len {
                model[i as usize] = true;
            }
        }
        prop_assert_eq!(set.covered_bytes(), model.iter().filter(|&&b| b).count() as u64);
        for (start, len) in [(0u64, 360u64), (10, 5), (100, 100), (250, 60), (359, 1)] {
            let iv = Interval::from_offset_len(start, len);
            let expected = model[start as usize..(start + len) as usize]
                .iter()
                .filter(|&&b| b)
                .count() as u64;
            prop_assert_eq!(set.intersection_len(iv), expected);
            prop_assert_eq!(set.intersects(iv), expected > 0);
            let first_set = (start..start + len).find(|&i| model[i as usize]);
            prop_assert_eq!(set.first_overlap(iv), first_set);
        }
    }

    /// The cycle-breaking sort yields a valid partition and topological
    /// order on arbitrary digraphs, under every policy.
    #[test]
    fn sort_valid_on_random_digraphs(
        n in 1usize..24,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
        costs in proptest::collection::vec(0u64..1000, 24),
        constant in any::<bool>(),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = Digraph::from_edges(n, edges);
        let cost = &costs[..n];
        let policy = if constant { CyclePolicy::ConstantTime } else { CyclePolicy::LocallyMinimum };
        let out = sort_breaking_cycles(&g, cost, policy).unwrap();
        prop_assert!(is_valid_outcome(&g, &out));
        // Removing the removed set must leave the graph acyclic.
        let mut keep = vec![true; n];
        for &v in &out.removed {
            keep[v as usize] = false;
        }
        prop_assert!(topo::is_acyclic(&g.induced(&keep)));
    }

    /// The exhaustive policy is never worse than the heuristics.
    #[test]
    fn exhaustive_no_worse_than_heuristics(
        n in 1usize..10,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..30),
        costs in proptest::collection::vec(1u64..100, 10),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = Digraph::from_edges(n, edges);
        let cost = &costs[..n];
        let total = |removed: &[u32]| -> u64 {
            removed.iter().map(|&v| cost[v as usize]).sum()
        };
        let exact = sort_breaking_cycles(&g, cost, CyclePolicy::Exhaustive { limit: 12 }).unwrap();
        for policy in [CyclePolicy::ConstantTime, CyclePolicy::LocallyMinimum] {
            let h = sort_breaking_cycles(&g, cost, policy).unwrap();
            prop_assert!(total(&exact.removed) <= total(&h.removed),
                "exhaustive {:?} worse than {policy} {:?}", exact.removed, h.removed);
        }
    }

    /// Spilled conversion is exact at every budget, and its cost is
    /// monotone non-increasing in the budget.
    #[test]
    fn spill_exact_and_monotone(
        (reference, version) in edited_pair(),
        budgets in proptest::collection::vec(0u64..4096, 1..4),
    ) {
        use ipr::core::spill::{apply_in_place_spilled, convert_with_spill, SpillConfig};
        let script = GreedyDiffer::new(8).diff(&reference, &version);
        let mut sorted = budgets.clone();
        sorted.sort_unstable();
        let mut previous_cost = u64::MAX;
        for budget in sorted {
            let out = convert_with_spill(&script, &reference, &SpillConfig {
                conversion: ConversionConfig::default(),
                scratch_budget: budget,
            }).unwrap();
            prop_assert!(out.conversion_cost <= previous_cost);
            previous_cost = out.conversion_cost;
            prop_assert!(out.scratch_used <= budget);
            prop_assert!(ipr::core::spill::is_spill_safe(&out.script, &out.stashed));
            let mut buf = reference.clone();
            buf.resize(required_capacity(&out.script) as usize, 0);
            apply_in_place_spilled(&out.script, &out.stashed, &mut buf, budget).unwrap();
            prop_assert_eq!(&buf[..version.len()], &version[..]);
        }
    }

    /// The greedy differ is exact at any checkpoint interval and seed
    /// length: backward extension never reclaims a byte it cannot copy.
    #[test]
    fn sampled_greedy_exact(
        (reference, version) in edited_pair(),
        interval in any::<prop::sample::Index>(),
        seed_len in 1usize..24,
    ) {
        let interval = *interval.get(&[1, 2, 4, 16, 64]);
        let differ = GreedyDiffer::new(seed_len).with_checkpoint_interval(interval);
        let script = differ.diff(&reference, &version);
        prop_assert_eq!(&ipr::delta::apply(&script, &reference).unwrap(), &version);
    }

    /// Streaming decode over arbitrary chunk boundaries equals batch
    /// decode.
    #[test]
    fn stream_decode_chunking_invariant(
        (reference, version) in edited_pair(),
        chunk in 1usize..64,
    ) {
        use ipr::delta::codec::stream::StreamDecoder;
        use ipr::delta::codec::{decode, encode, Format};
        let script = GreedyDiffer::new(8).diff(&reference, &version);
        let wire = encode(&script, Format::Improved).unwrap();
        let batch = decode(&wire).unwrap();
        let mut d = StreamDecoder::new();
        let mut commands = Vec::new();
        for part in wire.chunks(chunk) {
            d.push(part);
            while let Some(c) = d.next_command().unwrap() {
                commands.push(c);
            }
        }
        d.finish().unwrap();
        prop_assert_eq!(commands.as_slice(), batch.script.commands());
    }

    /// Delta composition is semantically exact: applying the composed
    /// delta equals applying the two hops, and the composed delta still
    /// converts for in-place application.
    #[test]
    fn composition_exact(
        (v1, v2) in edited_pair(),
        extra_edits in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..6),
    ) {
        // Derive v3 from v2 with a few more point edits.
        let mut v3 = v2.clone();
        for (pos, val) in extra_edits {
            if v3.is_empty() { break; }
            let at = pos.index(v3.len());
            v3[at] = val;
        }
        let differ = GreedyDiffer::new(8);
        let d12 = differ.diff(&v1, &v2);
        let d23 = differ.diff(&v2, &v3);
        let d13 = ipr::delta::compose(&d12, &d23).unwrap();
        prop_assert_eq!(&ipr::delta::apply(&d13, &v1).unwrap(), &v3);
        // And it flows through the in-place pipeline.
        let out = convert_to_in_place(&d13, &v1, &ConversionConfig::default()).unwrap();
        prop_assert!(check_in_place_safe(&out.script).is_ok());
        let mut buf = v1.clone();
        buf.resize(required_capacity(&out.script) as usize, 0);
        apply_in_place(&out.script, &mut buf).unwrap();
        prop_assert_eq!(&buf[..v3.len()], &v3[..]);
    }

    /// Any permutation of a script's commands still scratch-applies to the
    /// same version (§3: disjoint writes make order irrelevant off-device).
    #[test]
    fn scratch_apply_order_independent(
        (reference, version) in edited_pair(),
        seed in any::<u64>(),
    ) {
        let script = GreedyDiffer::new(8).diff(&reference, &version);
        let n = script.len();
        if n > 1 {
            // Deterministic Fisher-Yates from the seed.
            let mut order: Vec<usize> = (0..n).collect();
            let mut state = seed | 1;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            let permuted = script.permuted(&order);
            prop_assert_eq!(&ipr::delta::apply(&permuted, &reference).unwrap(), &version);
        }
    }
}

/// Non-proptest sanity: scripts assembled by hand stay rejectable.
#[test]
fn script_validation_catches_hand_rolled_errors() {
    assert!(DeltaScript::new(4, 8, vec![Command::copy(0, 0, 4)]).is_err());
    assert!(DeltaScript::new(4, 4, vec![Command::copy(0, 0, 5)]).is_err());
    assert!(DeltaScript::new(4, 8, vec![Command::copy(0, 0, 4), Command::copy(0, 2, 4)]).is_err());
}
