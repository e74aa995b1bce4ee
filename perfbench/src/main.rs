//! End-to-end and per-layer benchmark of the ipr pipeline.
//!
//! ```text
//! ipr-perfbench --workload ota_firmware|remote_sync|store_history
//!               [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//! ```
//!
//! Each workload is a closed loop with one client: the next operation
//! starts only when the previous one returned. Inputs come from the
//! `ipr-workloads` generators seeded by `--seed` and are built before any
//! timer starts; the program receives only their bytes, through its
//! public API and with its shipped defaults (`EngineConfig::default()`,
//! serial `apply_in_place` on the device). With `--trace 0` the run
//! prints the end-to-end metrics; with `--trace 1` it alternates traced
//! and untraced operations and prints the per-layer metrics. The last
//! line of standard output is the JSON result; any failed check makes
//! the process exit non-zero after printing it.

mod alloc;
mod ota;
mod remote;
mod report;
mod run;
mod stats;
mod store;
mod trace;

use run::Run;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// The workload's seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    OtaFirmware,
    RemoteSync,
    StoreHistory,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "ota_firmware" => Ok(Self::OtaFirmware),
            "remote_sync" => Ok(Self::RemoteSync),
            "store_history" => Ok(Self::StoreHistory),
            _ => Err(format!(
                "unknown workload `{name}` (ota_firmware, remote_sync, store_history)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::OtaFirmware => "ota_firmware",
            Self::RemoteSync => "remote_sync",
            Self::StoreHistory => "store_history",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Workload::OtaFirmware,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            out_dir: PathBuf::from("perfbench/out"),
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} needs {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    parsed.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?;
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--out-dir" => parsed.out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }
}

/// The filesystem type holding `path`, from the mount table.
fn filesystem(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(table) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    table
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = fields.get(4)?.replace("\\040", " ");
            let sep = fields.iter().position(|f| *f == "-")?;
            let fstype = fields.get(sep + 1)?;
            path.starts_with(&mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, fstype)| fstype)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ipr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args.out_dir.join(format!(
        "work-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("ipr-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let config = ipr_pipeline::EngineConfig::default();
    let resolved = if config.threads == 0 {
        threads
    } else {
        config.threads
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "available_parallelism {threads}; engine threads {resolved} \
         (EngineConfig::default().threads = {}); work dir filesystem {}",
        config.threads,
        filesystem(&work)
    );

    let mut run = Run::new(args.seconds, args.trace);
    let outcome = match args.workload {
        Workload::OtaFirmware => ota::run(args.seed, &mut run),
        Workload::RemoteSync => remote::run(args.seed, &mut run),
        Workload::StoreHistory => store::run(args.seed, &mut run, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = outcome {
        run.attempt_failed(e);
    }
    for missing in run.starved() {
        run.fail(format!("run ended at the hard cap: {missing}"));
    }

    for note in &run.notes {
        println!("{note}");
    }
    println!(
        "measured {:.2} s; set-ups {} (median {:.4} s)",
        run.elapsed_s(),
        run.setups(),
        run.setup_s()
    );
    for note in report::latency_notes(&run) {
        println!("{note}");
    }

    let metrics = if args.trace {
        let profile = trace::Profile::of(run.tracer.spans());
        let (metrics, notes) = report::per_layer(&run, &profile);
        for note in notes {
            println!("{note}");
        }
        let path = args.out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match trace::write_spans(run.tracer.spans(), &path) {
            Ok(()) => println!(
                "{} spans written to {}",
                run.tracer.spans().len(),
                path.display()
            ),
            Err(e) => run.fail(format!("writing spans to {}: {e}", path.display())),
        }
        metrics
    } else {
        match report::end_to_end(&run) {
            Ok(metrics) => metrics,
            Err(missing) => {
                for name in missing {
                    run.fail(format!("{name}: too few samples to report"));
                }
                Vec::new()
            }
        }
    };

    let correct = run.failures().is_empty();
    let attempted = run.attempted().max(1);
    // One operation can fail several checks; count it once at most.
    let failed = (run.failures().len() as u64).min(attempted);
    for failure in run.failures() {
        println!("FAILED: {failure}");
    }
    println!(
        "fail_frac {} ({failed} failed of {attempted} attempted)",
        stats::ratio(failed as f64, attempted as f64)
    );
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
