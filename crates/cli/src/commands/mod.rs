//! The subcommands: each module builds requests from options and
//! renders results — the work itself happens in `noc-service`.

mod bench;
mod dot;
mod evaluate;
mod explore;
mod generate;
mod info;
mod metrics;
mod serve;
mod solve;
mod submit;
mod suite;
mod watch;

pub(crate) use bench::cmd_bench;
pub(crate) use dot::cmd_dot;
pub(crate) use evaluate::cmd_evaluate;
pub(crate) use explore::cmd_explore;
pub(crate) use generate::cmd_generate;
pub(crate) use info::cmd_info;
pub(crate) use metrics::cmd_metrics;
pub(crate) use serve::cmd_serve;
pub(crate) use solve::cmd_map;
pub(crate) use submit::cmd_submit;
pub(crate) use suite::cmd_suite;
pub(crate) use watch::cmd_watch;
#[cfg(all(unix, test))]
pub(crate) use watch::watch_stream;

use crate::options::Options;
use crate::CliError;
use noc_service::{JobRequest, JobResult, JobState, MappingService, Priority, ServiceConfig};

/// A subcommand: its entry point and the flags it reads, in groups of
/// whitespace-separated names.
type Command = (
    fn(&Options) -> Result<String, CliError>,
    &'static [&'static str],
);

/// The subcommand called `name`, if there is one.
pub(crate) fn command(name: &str) -> Option<Command> {
    use crate::request::{EVALUATE_FLAGS as EVALUATE, FAULT_FLAGS as FAULT, SOLVE_FLAGS as SOLVE};
    const SUBMIT: &str = "--socket --op --job --priority --wait --method";
    Some(match name {
        "generate" => (
            cmd_generate,
            &["--cores --packets --bits --seed --paper-example --out"],
        ),
        "info" => (cmd_info, &["--app"]),
        "map" | "solve" => (cmd_map, &[SOLVE, FAULT, "--method --trace --telemetry"]),
        "evaluate" => (cmd_evaluate, &[EVALUATE]),
        "explore" => (cmd_explore, &[SOLVE, FAULT, "--methods --workers"]),
        "bench" => (cmd_bench, &["--jobs --workers --evals --app --mesh"]),
        "serve" => (cmd_serve, &["--socket --workers --trace"]),
        "submit" => (cmd_submit, &[SUBMIT, SOLVE, EVALUATE]),
        "metrics" => (cmd_metrics, &["--socket --json"]),
        "watch" => (cmd_watch, &["--socket --count"]),
        "suite" => (cmd_suite, &["--row --out"]),
        "dot" => (cmd_dot, &["--app --graph --cwg --out"]),
        _ => return None,
    })
}

/// Builds the service configuration of `map` and `serve`: `workers`
/// threads, plus a line-JSON trace sink when
/// `--trace FILE` is given (every `noc-obs` trace event of every job is
/// appended to `FILE`, one JSON object per line). Tracing never alters
/// results — trajectories are bit-identical with and without `--trace`.
pub(crate) fn service_config(options: &Options, workers: usize) -> Result<ServiceConfig, CliError> {
    let mut config = ServiceConfig::new(workers);
    if let Some(path) = options.get("--trace") {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot open trace file `{path}`: {e}"))?;
        config = config.with_trace_sink(std::sync::Arc::new(noc_service::JsonLinesSink::new(
            Box::new(std::io::BufWriter::new(file)),
        )));
    }
    Ok(config)
}

/// Runs one job on a short-lived service instance built from `config`
/// and returns its result. This is how the one-shot subcommands (`map`,
/// `evaluate`) use the service layer; `serve` keeps an instance alive
/// instead.
pub(crate) fn run_job(request: JobRequest, config: ServiceConfig) -> Result<JobResult, CliError> {
    let service = MappingService::start(config);
    let id = service.submit(request, Priority::Normal);
    match service.wait(id) {
        Some(JobState::Done(result)) => Ok(result),
        Some(JobState::Failed(message)) => Err(message.into()),
        Some(JobState::Cancelled(_)) => Err("job was cancelled".into()),
        Some(JobState::Pending | JobState::Running) | None => Err("service dropped the job".into()),
    }
}
