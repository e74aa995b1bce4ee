//! Property tests for the parallel shared-index diff engine:
//! scripts from [`ParallelDiffer`] must apply back to the version file
//! for every differ family, thread count and chunk size (down to one
//! byte), emit identical commands regardless of thread count, and stay
//! within the documented seam compression bound of the serial engine.

use ipr::delta::apply;
use ipr::delta::diff::{
    CorrectingDiffer, Differ, GreedyDiffer, IndexedDiffer, OnePassDiffer, ParallelDiffer,
};
use proptest::prelude::*;

/// A version derived from a reference by random edit operations (same
/// shape as tests/parallel_apply.rs): realistically compressible pairs.
fn edited_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let reference = proptest::collection::vec(any::<u8>(), 0..2048);
    let edits = proptest::collection::vec(
        (
            0u8..5,
            any::<prop::sample::Index>(),
            1usize..200,
            any::<u8>(),
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
                0 => version[at] = val,
                1 => {
                    let block: Vec<u8> = (0..len).map(|i| val.wrapping_add(i as u8)).collect();
                    version.splice(at..at, block);
                }
                2 => {
                    let end = (at + len).min(version.len());
                    version.drain(at..end);
                }
                3 => {
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
                    let end = (at + len).min(version.len());
                    let block: Vec<u8> = version[at..end].to_vec();
                    version.extend(block);
                }
            }
        }
        (reference, version)
    })
}

/// Correctness + cross-thread-count determinism + seam bound for one
/// wrapped engine at one chunk size.
fn check_engine<D: IndexedDiffer + Clone>(
    inner: D,
    reference: &[u8],
    version: &[u8],
    chunk: usize,
) -> Result<(), TestCaseError> {
    let serial = inner.diff(reference, version);
    prop_assert_eq!(
        &apply(&serial, reference).unwrap(),
        &version.to_vec(),
        "serial oracle rebuilds the version"
    );
    let mut first: Option<ipr::delta::DeltaScript> = None;
    for threads in [1usize, 2, 3, 8] {
        let differ = ParallelDiffer::new(inner.clone())
            .with_threads(threads)
            .with_chunk_bytes(chunk);
        let script = differ.diff(reference, version);
        prop_assert_eq!(
            &apply(&script, reference).unwrap(),
            &version.to_vec(),
            "{} chunk={} threads={}",
            differ.name(),
            chunk,
            threads
        );
        match &first {
            None => first = Some(script),
            Some(f) => prop_assert_eq!(
                f.commands(),
                script.commands(),
                "{} chunk={}: threads=1 and threads={} disagree",
                differ.name(),
                chunk,
                threads
            ),
        }
    }
    // Documented seam bound: each of the (ceil(len/chunk) - 1) seams can
    // cost at most 2 * seed_len literal bytes over the serial script.
    let script = first.expect("at least one thread count ran");
    let seams = version.len().div_ceil(chunk.max(1)).saturating_sub(1) as u64;
    let bound = serial.added_bytes() + seams * 2 * inner.seed_len() as u64;
    prop_assert!(
        script.added_bytes() <= bound,
        "chunk={}: parallel added {} > serial {} + seam bound {}",
        chunk,
        script.added_bytes(),
        serial.added_bytes(),
        seams * 2 * inner.seed_len() as u64
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All three differ families, random chunk sizes down to one byte.
    #[test]
    fn parallel_equals_serial_applied_result(
        (reference, version) in edited_pair(),
        chunk in 1usize..512,
    ) {
        check_engine(GreedyDiffer::new(8), &reference, &version, chunk)?;
        check_engine(OnePassDiffer::new(8, 12), &reference, &version, chunk)?;
        check_engine(CorrectingDiffer::new(8, 12), &reference, &version, chunk)?;
    }

    /// Chunks larger than the version degenerate to the serial scan and
    /// must reproduce its commands bit-exactly.
    #[test]
    fn oversized_chunk_is_bit_identical_to_serial(
        (reference, version) in edited_pair(),
        threads in 1usize..=8,
    ) {
        let inner = GreedyDiffer::new(8);
        let serial = inner.diff(&reference, &version);
        let parallel = ParallelDiffer::new(inner)
            .with_threads(threads)
            .with_chunk_bytes(1 << 20)
            .diff(&reference, &version);
        prop_assert_eq!(serial.commands(), parallel.commands());
    }
}

#[test]
fn degenerate_inputs_across_engines() {
    let cases: [(&[u8], &[u8]); 5] = [
        (b"", b""),
        (b"", b"all of this is new data with no reference at all"),
        (b"everything here is deleted", b""),
        (b"unchanged", b"unchanged"),
        (b"abc", b"zzzzzz"),
    ];
    for chunk in [1usize, 7, 64 * 1024] {
        for (r, v) in cases {
            let engines: [&dyn Differ; 3] = [
                &ParallelDiffer::new(GreedyDiffer::new(4)).with_chunk_bytes(chunk),
                &ParallelDiffer::new(OnePassDiffer::new(4, 10)).with_chunk_bytes(chunk),
                &ParallelDiffer::new(CorrectingDiffer::new(4, 10)).with_chunk_bytes(chunk),
            ];
            for differ in engines {
                let script = differ.diff(r, v);
                assert_eq!(
                    apply(&script, r).unwrap(),
                    v,
                    "{} chunk={chunk} on {}B/{}B",
                    differ.name(),
                    r.len(),
                    v.len()
                );
            }
        }
    }
}

#[test]
fn all_copy_input_stays_all_copy() {
    // Identical 32 KiB files across 1-byte .. 4 KiB chunks: stitching
    // must leave zero literal bytes for every engine.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let data: Vec<u8> = (0..32 * 1024)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 56) as u8
        })
        .collect();
    for chunk in [1usize, 511, 4096] {
        let engines: [&dyn Differ; 3] = [
            &ParallelDiffer::new(GreedyDiffer::default())
                .with_threads(4)
                .with_chunk_bytes(chunk),
            &ParallelDiffer::new(OnePassDiffer::default())
                .with_threads(4)
                .with_chunk_bytes(chunk),
            &ParallelDiffer::new(CorrectingDiffer::default())
                .with_threads(4)
                .with_chunk_bytes(chunk),
        ];
        for differ in engines {
            let script = differ.diff(&data, &data);
            assert_eq!(apply(&script, &data).unwrap(), data);
            assert_eq!(
                script.added_bytes(),
                0,
                "{} chunk={chunk} emitted literals on identical inputs",
                differ.name()
            );
        }
    }
}

#[test]
fn all_add_input_is_one_literal() {
    // Reference shares nothing with the version: the script must be a
    // single add regardless of chunking.
    let reference = vec![0u8; 8 * 1024];
    let version: Vec<u8> = (0..8 * 1024u32).map(|i| (i * 37 % 251) as u8 | 1).collect();
    for chunk in [1usize, 100, 64 * 1024] {
        let differ = ParallelDiffer::new(GreedyDiffer::default())
            .with_threads(3)
            .with_chunk_bytes(chunk);
        let script = differ.diff(&reference, &version);
        assert_eq!(apply(&script, &reference).unwrap(), version);
        assert_eq!(script.added_bytes(), version.len() as u64, "chunk={chunk}");
        assert_eq!(script.add_count(), 1, "chunk={chunk}: adds must coalesce");
    }
}
