//! `ipr` — create, convert, inspect and apply in-place reconstructible
//! delta files.
//!
//! ```text
//! ipr diff <reference> <version> <delta>      create a delta file
//! ipr convert <reference> <delta> <out>       post-process for in-place
//! ipr apply <reference> <delta> <out>         scratch-space apply
//! ipr apply-in-place <file> <delta>           rebuild <file> in place
//! ipr info <delta>                            print header and statistics
//! ipr verify <delta>                          check Equation 2 safety
//! ipr install <image> <delta> [--stream]      simulated OTA install with
//!             [--kill-at N] [--state FILE]    resumable streaming
//! ipr store <init|put|get|log|compact|fsck>   versioned delta object store
//! ```
//!
//! Every subcommand also accepts `--stats` (human-readable per-phase
//! report on stderr), `--stats=json` (the stable `ipr-stats/1` JSON on
//! stderr) and `--stats-out <file>` (the JSON written to a file); see
//! `docs/OBSERVABILITY.md` for the span/counter name contract.
//!
//! Each `cmd_*` function is a thin wrapper over
//! [`engine_cli::EngineCli`] — shared flag parsing and file/delta IO —
//! and an [`ipr_pipeline::Engine`] session that owns the pipeline's
//! scratch state for the duration of the command.

#![forbid(unsafe_code)]

mod engine_cli;
mod install_cli;
mod store_cli;
#[cfg(test)]
mod tests;

use engine_cli::EngineCli;
use ipr_core::check_in_place_safe;
use ipr_delta::codec::{self, Format};
use ipr_delta::diff::{CorrectingDiffer, GreedyDiffer, IndexedDiffer, OnePassDiffer};
use ipr_delta::remote::{CrcReader, Signature};
use ipr_delta::stats::ScriptStats;
use ipr_delta::DeltaScript;
use ipr_pipeline::Engine;
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ipr: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// What `--stats[=json]` / `--stats-out <file>` asked for.
struct StatsOptions {
    enabled: bool,
    json: bool,
    out: Option<String>,
}

impl StatsOptions {
    /// Strips the stats flags out of `args`. They apply to every
    /// subcommand, so the per-command option parsers never see them.
    fn extract(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut opts = Self {
            enabled: false,
            json: false,
            out: None,
        };
        let mut rest = Vec::with_capacity(args.len());
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--stats" => opts.enabled = true,
                "--stats=json" => {
                    opts.enabled = true;
                    opts.json = true;
                }
                "--stats-out" => {
                    let v = args
                        .get(i + 1)
                        .ok_or("option --stats-out requires a file path")?;
                    opts.enabled = true;
                    opts.json = true;
                    opts.out = Some(v.clone());
                    i += 1;
                }
                _ => rest.push(args[i].clone()),
            }
            i += 1;
        }
        Ok((opts, rest))
    }

    /// Emits `report` where the flags asked for it.
    fn emit(&self, report: &ipr_trace::StatsReport) -> CliResult {
        match (&self.out, self.json) {
            (Some(path), _) => std::fs::write(path, report.to_json() + "\n")?,
            (None, true) => eprintln!("{}", report.to_json()),
            (None, false) => eprint!("{report}"),
        }
        Ok(())
    }
}

fn run(args: &[String]) -> CliResult {
    let (stats, args) = StatsOptions::extract(args)?;
    if !stats.enabled {
        return dispatch(&args);
    }
    let recorder = std::sync::Arc::new(ipr_trace::StatsRecorder::new());
    let guard = ipr_trace::install(recorder.clone());
    let result = dispatch(&args);
    drop(guard);
    stats.emit(&recorder.report())?;
    result
}

fn dispatch(args: &[String]) -> CliResult {
    let Some(cmd) = args.first() else {
        print_usage();
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "diff" => cmd_diff(rest),
        "signature" => cmd_signature(rest),
        "convert" => cmd_convert(rest),
        "apply" => cmd_apply(rest),
        "apply-in-place" => cmd_apply_in_place(rest),
        "info" => cmd_info(rest),
        "compose" => cmd_compose(rest),
        "stats" => cmd_stats(rest),
        "dump" => cmd_dump(rest),
        "verify" => cmd_verify(rest),
        "fuzz" => cmd_fuzz(rest),
        "install" => install_cli::cmd_install(rest),
        "store" => store_cli::cmd_store(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}` (try `ipr help`)").into()),
    }
}

fn print_usage() {
    eprintln!(
        "usage: ipr <subcommand> [...]\n\
         \n\
         subcommands:\n\
         \x20 diff <reference> <version> <delta>  [--differ greedy|one-pass|correcting]\n\
         \x20      [--format F]\n\
         \x20 diff --signature <sig> <version> <delta>  [--format F]\n\
         \x20      (remote diff: stream <version> against a signature, reference not needed)\n\
         \x20 signature <reference> <sig>    [--block N|auto[:BYTES] | --cdc MIN:AVG:MAX]\n\
         \x20      (block signature for remote diffing; auto sizes blocks so the\n\
         \x20      signature fits a byte budget, default 512 KiB)\n\
         \x20 convert <reference> <delta> <out>   [--policy constant|local-min] [--format F]\n\
         \x20 apply <reference> <delta> <out>\n\
         \x20 apply-in-place <file> <delta>\n\
         \x20 info <delta>\n\
         \x20 compose <delta-1-2> <delta-2-3> <out>  [--format F]\n\
         \x20 stats <delta> [--dot <file>]   (CRWI conflict-graph analysis)\n\
         \x20 dump <delta>           (list every command)\n\
         \x20 verify <delta>\n\
         \x20 fuzz  [--oracle all|codec|convert|crwi|diff|engine|remote|store|streaming]\n\
         \x20       [--seed S] [--iters N] [--shrink on|off]\n\
         \x20       (differential fuzzing; failures print a seed)\n\
         \x20 install <image> <delta>  [--stream] [--channel dialup|isdn|cellular]\n\
         \x20       [--loss RATE] [--seed S] [--chunk BYTES] [--mtu BYTES]\n\
         \x20       [--kill-at N] [--state FILE]\n\
         \x20       (simulated OTA install; --stream applies while downloading and\n\
         \x20       --kill-at/--state survive a power cut via resumable checkpoints)\n\
         \x20 store <init|put|get|log|compact|fsck> <dir> [...]\n\
         \x20       (versioned delta object store: crash-safe transactions, chain compaction)\n\
         \n\
         every subcommand accepts: --stats | --stats=json | --stats-out <file>\n\
         \x20 (per-phase spans/counters report, printed to stderr or written as JSON)\n\
         \n\
         formats F: ordered | in-place | paper-ordered | paper-in-place | improved"
    );
}

fn cmd_diff(args: &[String]) -> CliResult {
    let mut cli = EngineCli::parse(args)?;
    cli.config_mut().format = Format::Ordered; // plain deltas by default
    cli.take_format()?;
    if let Some(signature_path) = cli.take("signature") {
        return cmd_diff_signature(cli, &signature_path);
    }
    let differ = cli.take("differ").unwrap_or_else(|| "greedy".to_string());
    cli.finish_options()?;
    let [reference_path, version_path, delta_path] =
        cli.positional("usage: ipr diff <reference> <version> <delta>")?;
    let reference = std::fs::read(reference_path)?;
    let version = std::fs::read(version_path)?;
    let (script, bytes) = match differ.as_str() {
        "greedy" => diff_stage(
            cli.engine_with(GreedyDiffer::sampled()),
            &reference,
            &version,
        )?,
        "one-pass" => diff_stage(
            cli.engine_with(OnePassDiffer::default()),
            &reference,
            &version,
        )?,
        "correcting" => diff_stage(
            cli.engine_with(CorrectingDiffer::default()),
            &reference,
            &version,
        )?,
        other => return Err(format!("unknown differ `{other}`").into()),
    };
    std::fs::write(delta_path, &bytes)?;
    println!(
        "{} -> {}: {} B delta for {} B version ({:.1}%), {}",
        reference_path,
        version_path,
        bytes.len(),
        version.len(),
        100.0 * bytes.len() as f64 / version.len().max(1) as f64,
        ScriptStats::of(&script)
    );
    Ok(())
}

/// `ipr diff --signature <sig> <version> <delta>`: remote diff. The
/// version streams through the generator against the decoded signature
/// — the reference is never opened (it lives wherever the signature was
/// built) and the version is never held in memory. A [`CrcReader`] tee
/// computes the target CRC during the same pass so the emitted delta
/// carries the usual integrity trailer.
fn cmd_diff_signature(cli: EngineCli, signature_path: &str) -> CliResult {
    cli.finish_options()?;
    let [version_path, delta_path] =
        cli.positional("usage: ipr diff --signature <sig> <version> <delta>")?;
    let signature = Signature::decode(&std::fs::read(signature_path)?)?;
    let mut version = CrcReader::new(BufReader::new(std::fs::File::open(version_path)?));
    let mut engine = cli.engine();
    let script = engine.remote_diff(&signature, &mut version)?;
    let bytes = codec::encode_with_crc(&script, engine.config().format, version.crc())?;
    std::fs::write(delta_path, &bytes)?;
    println!(
        "{} ({} blocks) ~ {}: {} B delta for {} B version ({:.1}%), {}",
        signature_path,
        signature.blocks().len(),
        version_path,
        bytes.len(),
        version.bytes_read(),
        100.0 * bytes.len() as f64 / (version.bytes_read().max(1)) as f64,
        ScriptStats::of(&script)
    );
    Ok(())
}

fn cmd_signature(args: &[String]) -> CliResult {
    let mut cli = EngineCli::parse(args)?;
    cli.take_chunking()?;
    cli.finish_options()?;
    let [reference_path, sig_path] = cli.positional(
        "usage: ipr signature <reference> <sig> [--block N|auto[:BYTES] | --cdc MIN:AVG:MAX]",
    )?;
    // The chunking resolves against the reference length (from the
    // file's metadata — the data itself still streams): `auto` picks the
    // smallest power-of-two block whose signature fits the byte budget.
    let layout = cli
        .config()
        .chunking
        .resolve(std::fs::metadata(reference_path)?.len());
    // Stream the reference through the chunker: the signature build
    // never holds more than one block window in memory.
    let reference = BufReader::new(std::fs::File::open(reference_path)?);
    let signature = Signature::build_streaming(reference, layout)?;
    let encoded = signature.encode();
    std::fs::write(sig_path, &encoded)?;
    println!(
        "{}: {} blocks ({}) over {} B -> {} B signature ({:.2}%)",
        reference_path,
        signature.blocks().len(),
        signature.layout(),
        signature.source_len(),
        encoded.len(),
        100.0 * encoded.len() as f64 / (signature.source_len().max(1)) as f64
    );
    Ok(())
}

/// The diff + encode half of the pipeline for one differ family.
fn diff_stage<D: IndexedDiffer>(
    mut engine: Engine<D>,
    reference: &[u8],
    version: &[u8],
) -> Result<(DeltaScript, Vec<u8>), Box<dyn std::error::Error>> {
    let script = engine.diff(reference, version);
    let bytes = codec::encode_checked(&script, engine.config().format, version)?;
    Ok((script, bytes))
}

fn cmd_convert(args: &[String]) -> CliResult {
    let mut cli = EngineCli::parse(args)?;
    cli.take_policy()?;
    if let Some(format) = cli.take_format()? {
        if !format.supports_out_of_order() {
            return Err(format!("format `{format}` cannot carry in-place deltas").into());
        }
    }
    cli.finish_options()?;
    let [reference_path, delta_path, out_path] =
        cli.positional("usage: ipr convert <reference> <delta> <out>")?;
    let reference = std::fs::read(reference_path)?;
    let decoded = EngineCli::read_delta(delta_path)?;
    // Re-apply up front to regenerate the target for checked encoding
    // (the conversion consumes the script).
    let target = match decoded.target_crc {
        Some(_) => Some(ipr_delta::apply(&decoded.script, &reference)?),
        None => None,
    };
    let mut engine = cli.engine();
    let outcome = engine.convert(decoded.script, &reference)?;
    let format = engine.config().format;
    let bytes = match &target {
        Some(target) => codec::encode_checked(&outcome.script, format, target)?,
        None => codec::encode(&outcome.script, format)?,
    };
    std::fs::write(out_path, &bytes)?;
    let r = &outcome.report;
    println!(
        "converted: {} copies, {} adds, {} edges, {} cycles broken, {} copies converted (+{} B)",
        r.input_copies,
        r.input_adds,
        r.edges,
        r.cycles_broken,
        r.copies_converted,
        r.conversion_cost
    );
    Ok(())
}

fn cmd_apply(args: &[String]) -> CliResult {
    let cli = EngineCli::parse(args)?;
    let [reference_path, delta_path, out_path] =
        cli.positional("usage: ipr apply <reference> <delta> <out>")?;
    let reference = std::fs::read(reference_path)?;
    let decoded = EngineCli::read_delta(delta_path)?;
    let target = match decoded.target_crc {
        Some(crc) => ipr_delta::apply_verified(&decoded.script, &reference, crc)?,
        None => ipr_delta::apply(&decoded.script, &reference)?,
    };
    std::fs::write(out_path, &target)?;
    println!("rebuilt {} B into {}", target.len(), out_path);
    Ok(())
}

fn cmd_apply_in_place(args: &[String]) -> CliResult {
    let cli = EngineCli::parse(args)?;
    cli.finish_options()?;
    let [file_path, delta_path] = cli.positional("usage: ipr apply-in-place <file> <delta>")?;
    let decoded = EngineCli::read_delta(delta_path)?;
    let mut buf = std::fs::read(file_path)?;
    // A delta made for another base would rebuild a wrong image; reject
    // it as `ipr apply` does, before the file is touched.
    if buf.len() as u64 != decoded.script.source_len() {
        return Err(ipr_delta::ApplyError::SourceLenMismatch {
            expected: decoded.script.source_len(),
            actual: buf.len() as u64,
        }
        .into());
    }
    // One script per process, so the reference verifier's allocation
    // costs nothing; its error names the clobbered read.
    check_in_place_safe(&decoded.script)?;
    let needed = ipr_core::required_capacity(&decoded.script) as usize;
    buf.resize(buf.len().max(needed), 0);
    ipr_core::apply_in_place(&decoded.script, &mut buf)?;
    buf.truncate(decoded.script.target_len() as usize);
    if let Some(crc) = decoded.target_crc {
        let actual = ipr_delta::checksum::crc32(&buf);
        if actual != crc {
            return Err(format!("crc mismatch: {actual:#010x} != {crc:#010x}").into());
        }
    }
    std::fs::write(file_path, &buf)?;
    println!("rebuilt {} in place ({} B)", file_path, buf.len());
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult {
    let cli = EngineCli::parse(args)?;
    let [delta_path] = cli.positional("usage: ipr info <delta>")?;
    let raw = std::fs::read(delta_path)?;
    let decoded = codec::decode(&raw)?;
    let s = &decoded.script;
    println!("format:       {}", decoded.format);
    println!("source bytes: {}", s.source_len());
    println!("target bytes: {}", s.target_len());
    println!("delta bytes:  {}", raw.len());
    println!("commands:     {}", ScriptStats::of(s));
    println!(
        "target crc32: {}",
        decoded
            .target_crc
            .map_or("absent".to_string(), |c| format!("{c:#010x}"))
    );
    println!(
        "in-place safe: {}",
        if ipr_core::is_in_place_safe(s) {
            "yes"
        } else {
            "no"
        }
    );
    Ok(())
}

fn cmd_compose(args: &[String]) -> CliResult {
    let mut cli = EngineCli::parse(args)?;
    cli.config_mut().format = Format::Ordered;
    cli.take_format()?;
    cli.finish_options()?;
    let [first_path, second_path, out_path] =
        cli.positional("usage: ipr compose <delta-1-2> <delta-2-3> <out>")?;
    let format = cli.config().format;
    let first = EngineCli::read_delta(first_path)?;
    let second = EngineCli::read_delta(second_path)?;
    let composed = ipr_delta::compose(&first.script, &second.script)?;
    // The composed delta produces the second delta's target: its CRC
    // carries over verbatim.
    let bytes = match second.target_crc {
        Some(crc) => codec::encode_with_crc(&composed, format, crc)?,
        None => codec::encode(&composed, format)?,
    };
    std::fs::write(out_path, &bytes)?;
    println!(
        "composed {} ({} cmds) ∘ {} ({} cmds) -> {} ({} cmds, {} B)",
        first_path,
        first.script.len(),
        second_path,
        second.script.len(),
        out_path,
        composed.len(),
        bytes.len()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let mut cli = EngineCli::parse(args)?;
    let dot_path = cli.take("dot");
    cli.finish_options()?;
    let [delta_path] = cli.positional("usage: ipr stats <delta> [--dot <file>]")?;
    let decoded = EngineCli::read_delta(delta_path)?;
    let crwi = ipr_core::CrwiGraph::build(decoded.script.copies());
    if let Some(path) = dot_path {
        let copies = crwi.copies().to_vec();
        let dot = crwi.graph().to_dot(|v| format!("{}", copies[v as usize]));
        std::fs::write(&path, dot)?;
        println!("wrote conflict digraph to {path} (Graphviz DOT)");
    }
    let stats = ipr_core::CrwiStats::analyze(&crwi);
    println!("CRWI conflict digraph of {delta_path}:");
    println!("{stats}");
    if stats.acyclic {
        println!("=> reordering alone yields an in-place reconstructible delta");
    } else {
        println!(
            "=> cycle breaking will convert at most {} copies ({} B)",
            stats.vertices_on_cycles, stats.bytes_at_risk
        );
    }
    Ok(())
}

fn cmd_dump(args: &[String]) -> CliResult {
    let cli = EngineCli::parse(args)?;
    let [delta_path] = cli.positional("usage: ipr dump <delta>")?;
    let decoded = EngineCli::read_delta(delta_path)?;
    println!(
        "# {} format, {} -> {} bytes, {} commands",
        decoded.format,
        decoded.script.source_len(),
        decoded.script.target_len(),
        decoded.script.len()
    );
    for (i, cmd) in decoded.script.commands().iter().enumerate() {
        println!("{i:6}  {cmd}");
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> CliResult {
    let cli = EngineCli::parse(args)?;
    let [delta_path] = cli.positional("usage: ipr verify <delta>")?;
    let decoded = EngineCli::read_delta(delta_path)?;
    match check_in_place_safe(&decoded.script) {
        Ok(()) => {
            println!("ok: delta satisfies Equation 2 (in-place reconstructible)");
            Ok(())
        }
        Err(v) => {
            let conflicts = ipr_core::list_wr_conflicts(&decoded.script, 5);
            for c in &conflicts {
                eprintln!("  conflict: {c}");
            }
            let total = ipr_core::count_wr_conflicts(&decoded.script);
            if total > conflicts.len() {
                eprintln!("  … and {} more", total - conflicts.len());
            }
            Err(format!("NOT in-place safe: {v}").into())
        }
    }
}

fn cmd_fuzz(args: &[String]) -> CliResult {
    let mut cli = EngineCli::parse(args)?;
    let mut config = ipr_fuzz::FuzzConfig::default();
    if let Some(seed) = cli.take("seed") {
        config.seed = ipr_fuzz::parse_seed(&seed)?;
    }
    if let Some(iters) = cli.take_with("iters", |v| {
        v.parse()
            .map_err(|_| format!("--iters needs a number, got `{v}`"))
    })? {
        config.iters = iters;
    }
    if let Some(oracle) = cli.take("oracle") {
        config.oracles = if oracle == "all" {
            ipr_fuzz::Oracle::ALL.to_vec()
        } else {
            vec![oracle.parse::<ipr_fuzz::Oracle>()?]
        };
    }
    if let Some(shrink) = cli.take_with("shrink", |v| match v {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(format!("--shrink takes on|off, got `{v}`")),
    })? {
        config.shrink = shrink;
    }
    if let Some(max_failures) = cli.take_with("max-failures", |v| {
        v.parse()
            .map_err(|_| format!("--max-failures needs a number, got `{v}`"))
    })? {
        config.max_failures = max_failures;
    }
    cli.finish_options()?;
    cli.no_positional(
        "usage: ipr fuzz [--oracle all|codec|convert|crwi|diff|engine|remote|store|streaming] \
         [--seed S] [--iters N] [--shrink on|off] [--max-failures N]",
    )?;
    let report = ipr_fuzz::run(&config);
    for violation in &report.violations {
        eprintln!("{violation}");
    }
    let oracles: Vec<String> = config.oracles.iter().map(ToString::to_string).collect();
    println!(
        "fuzz: {} iteration(s) of [{}] from seed {}: {} violation(s)",
        report.iters_run,
        oracles.join(", "),
        config.seed,
        report.violations.len()
    );
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} oracle violation(s)", report.violations.len()).into())
    }
}
