//! Edge-case coverage for conversion and resumable apply that the unit
//! tests do not reach.

use ipr_core::resumable::{resume_in_place, Journal, Progress};
use ipr_core::{
    apply_in_place, convert_to_in_place, count_wr_conflicts, is_in_place_safe, required_capacity,
    ConversionConfig, CrwiGraph, CyclePolicy,
};
use ipr_delta::codec::Format;
use ipr_delta::{Command, Copy, DeltaScript};

#[test]
fn single_command_scripts() {
    let reference: Vec<u8> = (0u8..32).collect();
    for script in [
        DeltaScript::new(32, 32, vec![Command::copy(0, 0, 32)]).unwrap(),
        DeltaScript::new(32, 8, vec![Command::copy(24, 0, 8)]).unwrap(),
        DeltaScript::new(32, 4, vec![Command::add(0, vec![1; 4])]).unwrap(),
        DeltaScript::new(32, 16, vec![Command::copy(8, 0, 16)]).unwrap(), // self-overlap
    ] {
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        assert_eq!(out.report.cycles_broken, 0);
        assert!(is_in_place_safe(&out.script));
        let expected = ipr_delta::apply(&script, &reference).unwrap();
        let mut buf = reference.clone();
        buf.resize(required_capacity(&out.script) as usize, 0);
        apply_in_place(&out.script, &mut buf).unwrap();
        assert_eq!(&buf[..expected.len()], &expected[..]);
    }
}

#[test]
fn empty_version_converts() {
    let script = DeltaScript::new(16, 0, vec![]).unwrap();
    let reference = vec![9u8; 16];
    let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
    assert!(out.script.is_empty());
    assert_eq!(out.report.input_copies, 0);
    assert_eq!(out.report.edges, 0);
}

#[test]
fn conversion_report_cost_matches_format_cost_model() {
    // Force conversions via a 2-cycle; the reported cost must equal the
    // cost model's value for the converted copy.
    let script =
        DeltaScript::new(16, 16, vec![Command::copy(8, 0, 8), Command::copy(0, 8, 8)]).unwrap();
    let reference: Vec<u8> = (0u8..16).collect();
    for format in [Format::InPlace, Format::PaperInPlace, Format::Improved] {
        let out = convert_to_in_place(
            &script,
            &reference,
            &ConversionConfig {
                policy: CyclePolicy::LocallyMinimum,
                cost_format: format,
            },
        )
        .unwrap();
        assert_eq!(out.report.copies_converted, 1);
        let adds = out.script.adds();
        assert_eq!(adds.len(), 1);
        let converted_copy = Copy {
            from: if adds[0].to == 0 { 8 } else { 0 },
            to: adds[0].to,
            len: 8,
        };
        assert_eq!(
            out.report.conversion_cost,
            format.conversion_cost(&converted_copy),
            "{format}"
        );
    }
}

#[test]
fn conflicts_eliminated_not_just_reduced() {
    // Dense random-ish move scripts: conversion output must have exactly
    // zero conflicts, whatever the input looked like.
    let mut commands = Vec::new();
    let blocks = 32u64;
    for i in 0..blocks {
        let from = ((i * 17 + 5) % blocks) * 8;
        commands.push(Command::copy(from, i * 8, 8));
    }
    let script = DeltaScript::new(blocks * 8, blocks * 8, commands).unwrap();
    let reference: Vec<u8> = (0..blocks * 8).map(|i| (i % 251) as u8).collect();
    assert!(count_wr_conflicts(&script) > 0);
    for policy in [CyclePolicy::ConstantTime, CyclePolicy::LocallyMinimum] {
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::with_policy(policy))
            .unwrap();
        assert_eq!(count_wr_conflicts(&out.script), 0, "{policy}");
        let expected = ipr_delta::apply(&script, &reference).unwrap();
        let mut buf = reference.clone();
        apply_in_place(&out.script, &mut buf).unwrap();
        assert_eq!(buf, expected, "{policy}");
    }
}

#[test]
fn resumable_chunk_larger_than_any_command() {
    let reference: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
    let mut version = reference.clone();
    version.rotate_left(100);
    let script = ipr_delta::diff::Differ::diff(
        &ipr_delta::diff::GreedyDiffer::default(),
        &reference,
        &version,
    );
    let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
    let mut buf = reference.clone();
    buf.resize(required_capacity(&out.script) as usize, 0);
    let mut journal = Journal::new();
    // Chunk far larger than the whole file: one chunk per command.
    let p = resume_in_place(&out.script, &mut buf, &mut journal, 1 << 20, u64::MAX).unwrap();
    assert_eq!(p, Progress::Complete);
    assert_eq!(&buf[..version.len()], &version[..]);
}

#[test]
fn crwi_graph_empty_and_single() {
    let empty = CrwiGraph::build(vec![]);
    assert_eq!(empty.node_count(), 0);
    assert_eq!(empty.edge_count(), 0);
    let single = CrwiGraph::build(vec![Copy {
        from: 0,
        to: 100,
        len: 4,
    }]);
    assert_eq!(single.node_count(), 1);
    assert_eq!(single.edge_count(), 0);
}

#[test]
fn exhaustive_policy_on_realistic_small_pair_not_worse() {
    let reference: Vec<u8> = (0..3000u32).map(|i| (i * 11 % 251) as u8).collect();
    let mut version = reference.clone();
    version.rotate_left(500);
    let script = ipr_delta::diff::Differ::diff(
        &ipr_delta::diff::GreedyDiffer::default(),
        &reference,
        &version,
    );
    let Ok(exact) = convert_to_in_place(
        &script,
        &reference,
        &ConversionConfig::with_policy(CyclePolicy::Exhaustive { limit: 18 }),
    ) else {
        return; // component too large: nothing to compare
    };
    let lm = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
    assert!(exact.report.conversion_cost <= lm.report.conversion_cost);
    assert!(is_in_place_safe(&exact.script));
}
