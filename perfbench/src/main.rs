//! `perfbench`: the repository's seeded benchmark.
//!
//! ```text
//! perfbench --cli PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload against the real `noc-cli` binary at `--cli` and
//! prints a report whose last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, timed from outside the program; with
//! `--trace 1` they are the per-layer ones of a separate traced run.
//! `perfbench/run.sh` builds both programs and calls this.
//!
//! Work files (instances, the server socket) live under `.bench_work/`
//! in the current directory; spans and exact-count records stay there
//! after the run.

mod check;
mod cli_run;
mod config;
mod inputs;
mod proc;
mod report;
mod service_mix;
mod stats;
mod trace;
mod traced;

use config::Workload;
use report::Report;
use std::path::{Path, PathBuf};

const USAGE: &str =
    "usage: perfbench --cli PATH --workload table1-small|large-mesh|service-mix --seed N --seconds S --trace 0|1";

/// Directory (relative to the repository root) for work files.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    cli: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key} needs a whole number"))
    };
    Ok(Args {
        cli: PathBuf::from(get("--cli")?),
        workload: Workload::from_name(get("--workload")?)
            .ok_or_else(|| format!("unknown workload `{}`", get("--workload").unwrap_or("")))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
    })
}

/// Writes the traced run's spans as JSON lines under `.bench_work/spans`.
pub fn write_spans(workload: Workload, seed: u64, tracer: &trace::Tracer) -> std::io::Result<()> {
    let dir = Path::new(WORK_ROOT).join("spans");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{}-seed{seed}.jsonl", workload.name())),
        tracer.to_json_lines(),
    )
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work =
        Path::new(WORK_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let mut report = Report::new();
    let outcome = std::fs::create_dir_all(&work).and_then(|()| match args.workload {
        Workload::ServiceMix => service_mix::run(
            &args.cli,
            &work,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        other => cli_run::run(
            &args.cli,
            &work,
            other,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
    });
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload.name());
        std::process::exit(1);
    }
    let key = format!(
        "{}-seed{}-{}s-{}-{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "e2e" },
        report::source_digest(Path::new("."))
    );
    let counts = report.counts().to_vec();
    report.operation(report::check_repeat_counts(
        &Path::new(WORK_ROOT).join("counts"),
        &key,
        &counts,
    ));
    report.print();
}
