//! Command-level tests: every subcommand end to end through tempdirs,
//! error reporting, and the `--stats` contract.

use super::*;

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(ToString::to_string).collect()
}

#[test]
fn fuzz_subcommand_clean_smoke() {
    run(&s(&[
        "fuzz", "--oracle", "all", "--iters", "10", "--seed", "42",
    ]))
    .unwrap();
    run(&s(&[
        "fuzz", "--oracle", "codec", "--iters", "5", "--seed", "0x10",
    ]))
    .unwrap();
    run(&s(&[
        "fuzz", "--oracle", "engine", "--iters", "5", "--seed", "42",
    ]))
    .unwrap();
}

#[test]
fn fuzz_subcommand_rejects_bad_options() {
    assert!(run(&s(&["fuzz", "positional"])).is_err());
    assert!(run(&s(&["fuzz", "--oracle", "psychic"])).is_err());
    assert!(run(&s(&["fuzz", "--iters", "many"])).is_err());
    assert!(run(&s(&["fuzz", "--seed", "whatever"])).is_err());
    assert!(run(&s(&["fuzz", "--shrink", "maybe"])).is_err());
    assert!(run(&s(&["fuzz", "--max-failures", "x"])).is_err());
    assert!(run(&s(&["fuzz", "--bogus", "x"])).is_err());
}

#[test]
fn fuzz_subcommand_emits_stats() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("fuzz-stats.json").to_string_lossy().into_owned();
    run(&s(&[
        "fuzz",
        "--oracle",
        "all",
        "--iters",
        "5",
        "--seed",
        "42",
        "--stats-out",
        &out,
    ]))
    .unwrap();
    let raw = std::fs::read_to_string(&out).unwrap();
    let v = ipr_trace::json::parse(&raw).expect("stats output is valid JSON");
    let counter = |name: &str| {
        v.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|c| c.as_u64())
            .unwrap_or_else(|| panic!("counter {name} missing in {raw}"))
    };
    assert_eq!(counter("fuzz.iters"), 5);
    let spans = v.get("spans").unwrap();
    for name in [
        "fuzz.codec",
        "fuzz.convert",
        "fuzz.crwi",
        "fuzz.diff",
        "fuzz.engine",
    ] {
        let span = spans
            .get(name)
            .unwrap_or_else(|| panic!("span {name} missing in {raw}"));
        assert_eq!(span.get("count").unwrap().as_u64(), Some(5), "{name}");
    }
    assert!(v.get("counters").unwrap().get("fuzz.failures").is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// `ipr store` end to end: init, put a drifting history, get each
/// version back byte-identically, compact under the depth cap, and a
/// clean fsck throughout — plus the error paths.
#[test]
fn store_subcommand_end_to_end() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let store = p("store");

    run(&s(&["store", "init", &store, "--depth-cap", "2"])).unwrap();
    // A drifting three-version history.
    let mut v = (0..4096u32)
        .map(|i| (i * 11 % 239) as u8)
        .collect::<Vec<u8>>();
    let mut files = Vec::new();
    for i in 0..4 {
        v[i * 700] ^= 0x2a;
        v.extend_from_slice(b"more");
        let path = p(&format!("v{i}"));
        std::fs::write(&path, &v).unwrap();
        files.push((path, v.clone()));
    }
    for (path, _) in &files {
        run(&s(&["store", "put", &store, path])).unwrap();
    }
    run(&s(&["store", "log", &store])).unwrap();
    run(&s(&["store", "fsck", &store])).unwrap();
    run(&s(&["store", "compact", &store])).unwrap();
    run(&s(&["store", "fsck", &store])).unwrap();

    // Every version reconstructs byte-identically via its oid.
    let st = ipr_store::Store::open(store.as_ref()).unwrap();
    let oids: Vec<String> = st.log().iter().map(|r| r.oid.to_string()).collect();
    assert!(st.manifest().max_depth() <= 2);
    drop(st);
    for (oid, (_, want)) in oids.iter().zip(&files) {
        let out = p("out");
        // Full id and an abbreviated prefix both resolve.
        run(&s(&["store", "get", &store, oid, &out])).unwrap();
        assert_eq!(&std::fs::read(&out).unwrap(), want);
        run(&s(&["store", "get", &store, &oid[..12], &out])).unwrap();
        assert_eq!(&std::fs::read(&out).unwrap(), want);
    }

    // Error paths: re-init over a live store, unknown id, bad parent,
    // wrong arity, unknown subcommand.
    assert!(run(&s(&["store", "init", &store])).is_err());
    assert!(run(&s(&["store", "get", &store, "ffffffffffff", &p("x")])).is_err());
    assert!(run(&s(&[
        "store",
        "put",
        &store,
        &files[0].0,
        "--parent",
        "not-an-oid"
    ]))
    .is_err());
    assert!(run(&s(&["store", "put", &store])).is_err());
    assert!(run(&s(&["store"])).is_err());
    assert!(run(&s(&["store", "frobnicate", &store])).is_err());
    assert!(run(&s(&["store", "init", &p("capless"), "--depth-cap", "0"])).is_err());

    // Damage an object: fsck reports corruption and exits non-zero.
    let objects = std::path::Path::new(&store).join("objects");
    let victim = std::fs::read_dir(&objects)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "full"))
        .unwrap();
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[0] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();
    assert!(run(&s(&["store", "fsck", &store])).is_err());
    assert!(run(&s(&["store", "fsck", &store, "--repair"])).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_subcommand_errors() {
    assert!(run(&s(&["frobnicate"])).is_err());
    assert!(run(&s(&[])).is_err());
    assert!(run(&s(&["help"])).is_ok());
}

#[test]
fn end_to_end_through_tempdir() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    let reference: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 251) as u8).collect();
    let mut version = reference.clone();
    version.rotate_left(512);
    std::fs::write(p("old"), &reference).unwrap();
    std::fs::write(p("new"), &version).unwrap();

    // diff -> convert -> info/verify -> apply and apply-in-place.
    run(&s(&["diff", &p("old"), &p("new"), &p("delta")])).unwrap();
    run(&s(&["convert", &p("old"), &p("delta"), &p("delta-ip")])).unwrap();
    run(&s(&["info", &p("delta-ip")])).unwrap();
    run(&s(&["stats", &p("delta-ip"), "--dot", &p("graph.dot")])).unwrap();
    let dot = std::fs::read_to_string(p("graph.dot")).unwrap();
    assert!(dot.starts_with("digraph"));
    run(&s(&["dump", &p("delta-ip")])).unwrap();
    run(&s(&["verify", &p("delta-ip")])).unwrap();
    run(&s(&["apply", &p("old"), &p("delta-ip"), &p("rebuilt")])).unwrap();
    assert_eq!(std::fs::read(p("rebuilt")).unwrap(), version);

    // Compose: old -> new -> newer collapsed into old -> newer.
    let mut newer = version.clone();
    newer.rotate_right(100);
    std::fs::write(p("newer"), &newer).unwrap();
    run(&s(&["diff", &p("new"), &p("newer"), &p("delta2")])).unwrap();
    run(&s(&["compose", &p("delta"), &p("delta2"), &p("composed")])).unwrap();
    run(&s(&["apply", &p("old"), &p("composed"), &p("rebuilt2")])).unwrap();
    assert_eq!(std::fs::read(p("rebuilt2")).unwrap(), newer);
    std::fs::copy(p("old"), p("inplace")).unwrap();
    run(&s(&["apply-in-place", &p("inplace"), &p("delta-ip")])).unwrap();
    assert_eq!(std::fs::read(p("inplace")).unwrap(), version);

    // apply-in-place takes no options: `--threads` is reported as
    // unknown before the file is touched.
    std::fs::copy(p("old"), p("inplace-opt")).unwrap();
    let err = run(&s(&[
        "apply-in-place",
        &p("inplace-opt"),
        &p("delta-ip"),
        "--threads",
        "2",
    ]))
    .unwrap_err();
    assert!(
        err.to_string().contains("unknown option --threads"),
        "{err}"
    );
    assert_eq!(std::fs::read(p("inplace-opt")).unwrap(), reference);
    // An unconverted delta fails the Equation 2 check with the clobbered
    // read named, and leaves the file untouched.
    std::fs::copy(p("old"), p("inplace-raw")).unwrap();
    let err = run(&s(&["apply-in-place", &p("inplace-raw"), &p("delta")])).unwrap_err();
    assert!(err.to_string().contains("already written"), "{err}");
    assert_eq!(std::fs::read(p("inplace-raw")).unwrap(), reference);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_paths_reported_not_panicked() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let old: Vec<u8> = (0..256u32).map(|i| (i * 7 % 251) as u8).collect();
    let mut new = old.clone();
    new[128] ^= 0xff; // the delta copies most of the reference
    std::fs::write(p("old"), &old).unwrap();
    std::fs::write(p("new"), &new).unwrap();
    std::fs::write(p("junk"), b"this is not a delta file").unwrap();

    // Missing files.
    assert!(run(&s(&["diff", &p("nope"), &p("new"), &p("d")])).is_err());
    assert!(run(&s(&["apply", &p("old"), &p("nope"), &p("out")])).is_err());
    // Junk delta.
    assert!(run(&s(&["info", &p("junk")])).is_err());
    assert!(run(&s(&["verify", &p("junk")])).is_err());
    assert!(run(&s(&["stats", &p("junk")])).is_err());
    // Wrong arity.
    assert!(run(&s(&["diff", &p("old")])).is_err());
    assert!(run(&s(&["convert", &p("old")])).is_err());
    assert!(run(&s(&["compose", &p("old")])).is_err());
    // Unknown options/values.
    run(&s(&["diff", &p("old"), &p("new"), &p("d")])).unwrap();
    assert!(run(&s(&[
        "diff",
        &p("old"),
        &p("new"),
        &p("d"),
        "--format",
        "bogus"
    ]))
    .is_err());
    assert!(run(&s(&["diff", &p("old"), &p("new"), &p("d"), "--bogus", "x"])).is_err());
    assert!(run(&s(&[
        "convert",
        &p("old"),
        &p("d"),
        &p("o"),
        "--policy",
        "magic"
    ]))
    .is_err());
    // Ordered format cannot carry in-place deltas.
    assert!(run(&s(&[
        "convert",
        &p("old"),
        &p("d"),
        &p("o"),
        "--format",
        "ordered"
    ]))
    .is_err());
    // Applying against the wrong reference fails the CRC.
    std::fs::write(p("wrong"), vec![0x55u8; old.len()]).unwrap();
    assert!(run(&s(&["apply", &p("wrong"), &p("d"), &p("out")])).is_err());
    // Composing non-consecutive deltas fails (d: 256 -> 256 bytes,
    // d2: 28 -> 256 bytes: d's target is not d2's source).
    std::fs::write(p("other"), b"completely unrelated bytes!!").unwrap();
    run(&s(&["diff", &p("other"), &p("old"), &p("d2")])).unwrap();
    assert!(run(&s(&["compose", &p("d"), &p("d2"), &p("dc")])).is_err());
    // Installing onto a truncated image is a wrong base image, offline
    // and streamed: the error names both lengths and the image file is
    // left byte-identical.
    run(&s(&[
        "convert",
        &p("old"),
        &p("d"),
        &p("d.ip"),
        "--format",
        "in-place",
    ]))
    .unwrap();
    for stream in [None, Some("--stream")] {
        std::fs::write(p("short"), &old[..200]).unwrap();
        let mut args = s(&["install", &p("short"), &p("d.ip")]);
        args.extend(stream.map(String::from));
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("256 B") && err.contains("200 B"), "{err}");
        assert_eq!(std::fs::read(p("short")).unwrap(), &old[..200]);
    }
    // Rebuilding a longer or a shorter file in place fails as `apply`
    // does, naming both lengths, and leaves the file byte-identical.
    let longer = [&old[..], &old[..44]].concat();
    for (name, image) in [("longer", &longer[..]), ("shorter", &old[..200])] {
        std::fs::write(p(name), image).unwrap();
        let err = run(&s(&["apply-in-place", &p(name), &p("d.ip")]))
            .unwrap_err()
            .to_string();
        let expected = format!("reference is {} bytes, script expects 256", image.len());
        assert!(err.contains(&expected), "{name}: {err}");
        assert_eq!(std::fs::read(p(name)).unwrap(), image, "{name}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_install_refuses_previous_checkpoint_format() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-ipc1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    let reference: Vec<u8> = (0..8192u32).map(|i| (i * 13 % 251) as u8).collect();
    let mut version = reference.clone();
    version.rotate_left(1000);
    std::fs::write(p("old"), &reference).unwrap();
    std::fs::write(p("new"), &version).unwrap();
    run(&s(&["diff", &p("old"), &p("new"), &p("d")])).unwrap();
    run(&s(&[
        "convert",
        &p("old"),
        &p("d"),
        &p("d.ip"),
        "--format",
        "in-place",
    ]))
    .unwrap();
    std::fs::write(p("dev"), &reference).unwrap();
    let install = |extra: &[&str]| {
        let mut args = s(&[
            "install",
            &p("dev"),
            &p("d.ip"),
            "--stream",
            "--chunk",
            "64",
        ]);
        args.extend(s(extra));
        run(&args)
    };
    install(&["--kill-at", "3"]).unwrap();

    // The state file is `IPRS`, the checkpoint's length (u64) and the
    // checkpoint. Rewrite the checkpoint under the previous magic and
    // reseal its CRC, so that only the magic is wrong.
    let state = std::fs::read(p("dev.state")).unwrap();
    let len = u64::from_le_bytes(state[4..12].try_into().unwrap()) as usize;
    let mut old_format = state.clone();
    let checkpoint = &mut old_format[12..12 + len];
    assert_eq!(&checkpoint[..4], b"IPC2");
    checkpoint[..4].copy_from_slice(b"IPC1");
    let crc = ipr_delta::checksum::crc32(&checkpoint[..len - 4]);
    checkpoint[len - 4..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(p("dev.state"), &old_format).unwrap();

    let image = std::fs::read(p("dev")).unwrap();
    let err = install(&[]).unwrap_err().to_string();
    assert!(err.contains("not an install checkpoint"), "{err}");
    assert_eq!(std::fs::read(p("dev")).unwrap(), image);

    // The same state under the current magic resumes to the version.
    std::fs::write(p("dev.state"), &state).unwrap();
    install(&[]).unwrap();
    assert_eq!(std::fs::read(p("dev")).unwrap(), version);
    assert!(!dir.join("dev.state").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_flags_are_stripped_and_validated() {
    let (opts, rest) = StatsOptions::extract(&s(&["convert", "--stats", "a", "b"])).unwrap();
    assert!(opts.enabled && !opts.json && opts.out.is_none());
    assert_eq!(rest, s(&["convert", "a", "b"]));

    let (opts, rest) = StatsOptions::extract(&s(&["info", "x", "--stats=json"])).unwrap();
    assert!(opts.enabled && opts.json);
    assert_eq!(rest, s(&["info", "x"]));

    let (opts, rest) =
        StatsOptions::extract(&s(&["info", "--stats-out", "report.json", "x"])).unwrap();
    assert_eq!(opts.out.as_deref(), Some("report.json"));
    assert_eq!(rest, s(&["info", "x"]));

    assert!(StatsOptions::extract(&s(&["info", "--stats-out"])).is_err());
}

/// Acceptance check: `--stats=json` on an adversarial (paper Fig. 2)
/// workload emits a parseable report whose cycle-break counters equal
/// the conversion layer's own `ConversionReport`, and whose span
/// timings nest sensibly.
#[test]
fn stats_json_matches_conversion_report_on_adversarial_workload() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    let case = ipr_workloads::adversarial::tree_digraph(4);
    std::fs::write(p("ref"), &case.reference).unwrap();
    let delta = codec::encode(&case.script, Format::InPlace).unwrap();
    std::fs::write(p("delta"), &delta).unwrap();

    // Ground truth straight from the conversion layer.
    let expected = ipr_core::convert_to_in_place(
        &case.script,
        &case.reference,
        &ipr_core::ConversionConfig::default(),
    )
    .unwrap()
    .report;
    assert!(expected.cycles_broken > 0, "workload must exercise cycles");

    run(&s(&[
        "convert",
        &p("ref"),
        &p("delta"),
        &p("delta-ip"),
        "--stats-out",
        &p("stats.json"),
    ]))
    .unwrap();

    let raw = std::fs::read_to_string(p("stats.json")).unwrap();
    let v = ipr_trace::json::parse(&raw).expect("stats output is valid JSON");
    assert_eq!(v.get("schema").unwrap().as_str(), Some("ipr-stats/1"));

    let counter = |name: &str| {
        v.get("counters")
            .unwrap()
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} missing in {raw}"))
            .as_u64()
            .unwrap()
    };
    assert_eq!(
        counter("convert.cycles_broken"),
        expected.cycles_broken as u64
    );
    assert_eq!(counter("convert.bytes_reencoded"), expected.conversion_cost);
    assert_eq!(
        counter("convert.copies_converted"),
        expected.copies_converted as u64
    );
    assert_eq!(counter("convert.edges"), expected.edges as u64);

    // Span timings sum sensibly: the convert span contains its
    // children, and every phase ran exactly once.
    let spans = v.get("spans").unwrap();
    let span_ns = |name: &str| {
        let s = spans
            .get(name)
            .unwrap_or_else(|| panic!("span {name} missing in {raw}"));
        assert_eq!(s.get("count").unwrap().as_u64(), Some(1), "{name} count");
        s.get("total_ns").unwrap().as_u64().unwrap()
    };
    let total = span_ns("convert");
    let children =
        span_ns("convert.crwi_build") + span_ns("convert.toposort") + span_ns("convert.emit");
    assert!(
        total >= children,
        "convert span ({total} ns) contains its phases ({children} ns)"
    );
    assert_eq!(
        spans.get("convert").unwrap().get("depth").unwrap().as_u64(),
        Some(0)
    );
    assert_eq!(
        spans
            .get("convert.toposort")
            .unwrap()
            .get("depth")
            .unwrap()
            .as_u64(),
        Some(1)
    );
    // The codec ran too (decode the input, encode the output).
    assert!(span_ns("codec.decode") > 0);
    assert!(span_ns("codec.encode") > 0);

    // Plain `--stats` (text to stderr) also succeeds end to end.
    run(&s(&["verify", &p("delta-ip"), "--stats"])).unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_stats_show_one_index_build_and_one_scan() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-diff-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let reference: Vec<u8> = (0..160 * 1024u32).map(|i| (i % 251) as u8).collect();
    let mut version = reference.clone();
    version[40_000] ^= 0x2a;
    version[120_000] ^= 0x2a;
    std::fs::write(p("old"), &reference).unwrap();
    std::fs::write(p("new"), &version).unwrap();
    let out = p("diff-stats.json");
    run(&s(&[
        "diff",
        &p("old"),
        &p("new"),
        &p("d"),
        "--stats-out",
        &out,
    ]))
    .unwrap();
    run(&s(&["apply", &p("old"), &p("d"), &p("rebuilt")])).unwrap();
    assert_eq!(std::fs::read(p("rebuilt")).unwrap(), version);
    let raw = std::fs::read_to_string(&out).unwrap();
    let v = ipr_trace::json::parse(&raw).expect("stats output is valid JSON");
    let spans = v.get("spans").unwrap();
    for name in [
        "diff",
        "diff.index_build",
        "diff.index_build.roll",
        "diff.index_build.scatter",
        "diff.index_build.sort",
        "diff.scan",
    ] {
        let span = spans
            .get(name)
            .unwrap_or_else(|| panic!("span {name} missing in {raw}"));
        assert_eq!(span.get("count").unwrap().as_u64(), Some(1), "{name}");
    }
    // The build's phases are its children.
    let depth = |name: &str| spans.get(name).and_then(|s| s.get("depth")?.as_u64());
    for phase in ["roll", "scatter", "sort"] {
        let name = format!("diff.index_build.{phase}");
        assert_eq!(
            depth(&name),
            depth("diff.index_build").map(|d| d + 1),
            "{name} in {raw}"
        );
    }
    let counter = |name: &str| {
        v.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|c| c.as_u64())
            .unwrap_or_else(|| panic!("counter {name} missing in {raw}"))
    };
    // Cross-checks: the counters must agree with the input files.
    assert_eq!(counter("diff.reference_bytes"), reference.len() as u64);
    assert_eq!(counter("diff.version_bytes"), version.len() as u64);
    for name in ["diff.probes", "diff.extend_bytes"] {
        assert!(counter(name) > 0, "{name} in {raw}");
    }
    let index_bytes = v
        .get("gauges")
        .and_then(|g| g.get("diff.index_bytes"))
        .and_then(|g| g.as_u64());
    assert!(index_bytes.is_some_and(|b| b > 0), "{raw}");
    // The diff runs on the calling thread and takes no thread count.
    let err = run(&s(&[
        "diff",
        &p("old"),
        &p("new"),
        &p("d"),
        "--threads",
        "2",
    ]))
    .unwrap_err();
    assert!(
        err.to_string().contains("unknown option --threads"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `ipr signature` + `ipr diff --signature` round trip: the remote
/// delta applies against the reference byte-identically, for both fixed
/// and content-defined chunking, and carries a verifying CRC trailer.
#[test]
fn signature_and_remote_diff_round_trip() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-remote-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let reference: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 31 % 253) as u8).collect();
    let mut version = reference.clone();
    version.splice(20_000..20_000, b"inserted run".iter().copied()); // shifts all later blocks
    version[50_000] ^= 0x2a;
    std::fs::write(p("old"), &reference).unwrap();
    std::fs::write(p("new"), &version).unwrap();

    // Fixed-size blocks.
    run(&s(&["signature", &p("old"), &p("sig"), "--block", "512"])).unwrap();
    run(&s(&[
        "diff",
        "--signature",
        &p("sig"),
        &p("new"),
        &p("delta"),
    ]))
    .unwrap();
    run(&s(&["apply", &p("old"), &p("delta"), &p("rebuilt")])).unwrap();
    assert_eq!(std::fs::read(p("rebuilt")).unwrap(), version);
    let decoded = codec::decode(&std::fs::read(p("delta")).unwrap()).unwrap();
    assert!(decoded.target_crc.is_some(), "remote delta carries a CRC");

    // Content-defined chunking survives the insertion without resigning.
    run(&s(&[
        "signature",
        &p("old"),
        &p("sig-cdc"),
        "--cdc",
        "64:256:2048",
    ]))
    .unwrap();
    run(&s(&[
        "diff",
        "--signature",
        &p("sig-cdc"),
        &p("new"),
        &p("delta-cdc"),
    ]))
    .unwrap();
    run(&s(&[
        "apply",
        &p("old"),
        &p("delta-cdc"),
        &p("rebuilt-cdc"),
    ]))
    .unwrap();
    assert_eq!(std::fs::read(p("rebuilt-cdc")).unwrap(), version);

    // Budget-driven block sizing: a 2 KiB budget over the 64 KiB
    // reference resolves to 1 KiB blocks (512 B blocks would need a
    // ~2.8 KiB signature), and the remote delta still applies cleanly.
    run(&s(&[
        "signature",
        &p("old"),
        &p("sig-auto"),
        "--block",
        "auto:2048",
    ]))
    .unwrap();
    let sig_auto = Signature::decode(&std::fs::read(p("sig-auto")).unwrap()).unwrap();
    assert_eq!(sig_auto.layout(), ipr_delta::remote::Layout::Fixed(1024));
    assert!(std::fs::metadata(p("sig-auto")).unwrap().len() <= 2048);
    run(&s(&[
        "diff",
        "--signature",
        &p("sig-auto"),
        &p("new"),
        &p("delta-auto"),
    ]))
    .unwrap();
    run(&s(&[
        "apply",
        &p("old"),
        &p("delta-auto"),
        &p("rebuilt-auto"),
    ]))
    .unwrap();
    assert_eq!(std::fs::read(p("rebuilt-auto")).unwrap(), version);

    // Error paths: bad chunking flags, junk signature, wrong arity.
    assert!(run(&s(&["signature", &p("old"), &p("x"), "--block", "0"])).is_err());
    assert!(run(&s(&["signature", &p("old"), &p("x"), "--block", "auto:0"])).is_err());
    assert!(run(&s(&[
        "signature",
        &p("old"),
        &p("x"),
        "--block",
        "auto",
        "--cdc",
        "64:256:2048",
    ]))
    .is_err());
    let err = run(&s(&[
        "signature",
        &p("old"),
        &p("x"),
        "--block-size",
        "auto:2048",
    ]))
    .unwrap_err();
    assert!(
        err.to_string().contains("unknown option --block-size"),
        "{err}"
    );
    assert!(run(&s(&[
        "signature",
        &p("old"),
        &p("x"),
        "--block",
        "512",
        "--cdc",
        "64:256:2048",
    ]))
    .is_err());
    assert!(run(&s(&["signature", &p("old")])).is_err());
    std::fs::write(p("junk-sig"), b"not a signature").unwrap();
    assert!(run(&s(&[
        "diff",
        "--signature",
        &p("junk-sig"),
        &p("new"),
        &p("d"),
    ]))
    .is_err());

    std::fs::remove_dir_all(&dir).ok();
}

/// The remote path reports its two-level match work through `--stats`.
#[test]
fn remote_diff_emits_stats() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-remote-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let reference: Vec<u8> = (0..32 * 1024u32).map(|i| (i * 7 % 247) as u8).collect();
    let mut version = reference.clone();
    version[10_000] ^= 1;
    std::fs::write(p("old"), &reference).unwrap();
    std::fs::write(p("new"), &version).unwrap();

    let sig_stats = p("sig-stats.json");
    run(&s(&[
        "signature",
        &p("old"),
        &p("sig"),
        "--block",
        "1024",
        "--stats-out",
        &sig_stats,
    ]))
    .unwrap();
    let raw = std::fs::read_to_string(&sig_stats).unwrap();
    let v = ipr_trace::json::parse(&raw).unwrap();
    let counter = |v: &ipr_trace::json::Value, name: &str| {
        v.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|c| c.as_u64())
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert!(v.get("spans").unwrap().get("remote.sign").is_some());
    assert_eq!(counter(&v, "remote.blocks"), 32);

    let diff_stats = p("diff-stats.json");
    run(&s(&[
        "diff",
        "--signature",
        &p("sig"),
        &p("new"),
        &p("delta"),
        "--stats-out",
        &diff_stats,
    ]))
    .unwrap();
    let raw = std::fs::read_to_string(&diff_stats).unwrap();
    let v = ipr_trace::json::parse(&raw).unwrap();
    assert!(v.get("spans").unwrap().get("remote.diff").is_some());
    // 31 of 32 blocks match; the flipped byte's block becomes literals.
    assert_eq!(counter(&v, "remote.strong_matches"), 31);
    assert_eq!(counter(&v, "remote.matched_bytes"), 31 * 1024);
    assert_eq!(counter(&v, "remote.literal_bytes"), 1024);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_pass_differ_and_policies_selectable() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-test2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let reference = vec![3u8; 4096];
    let mut version = reference.clone();
    version[17] = 4;
    std::fs::write(p("old"), &reference).unwrap();
    std::fs::write(p("new"), &version).unwrap();
    run(&s(&[
        "diff",
        &p("old"),
        &p("new"),
        &p("d"),
        "--differ",
        "one-pass",
    ]))
    .unwrap();
    run(&s(&[
        "convert",
        &p("old"),
        &p("d"),
        &p("d-ip"),
        "--policy",
        "constant",
        "--format",
        "improved",
    ]))
    .unwrap();
    run(&s(&["verify", &p("d-ip")])).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine session layer behind every subcommand: `ipr diff` +
/// `ipr convert` together must equal one `Engine::update`, byte for
/// byte, when configured identically.
#[test]
fn cli_pipeline_matches_engine_update() {
    let dir = std::env::temp_dir().join(format!("ipr-cli-engine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let reference: Vec<u8> = (0..4096u32).map(|i| (i * 13 % 241) as u8).collect();
    let mut version = reference.clone();
    version.rotate_left(128);
    std::fs::write(p("old"), &reference).unwrap();
    std::fs::write(p("new"), &version).unwrap();

    run(&s(&["diff", &p("old"), &p("new"), &p("delta")])).unwrap();
    run(&s(&["convert", &p("old"), &p("delta"), &p("delta-ip")])).unwrap();

    let mut engine = Engine::new();
    let update = engine.update(&reference, &version).unwrap();
    assert_eq!(std::fs::read(p("delta-ip")).unwrap(), update.payload);

    std::fs::remove_dir_all(&dir).ok();
}
