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

/// A subcommand: its entry point and the usage of each flag it reads,
/// as `noc-cli help` prints it (`[--depth N]`; a required flag is
/// unbracketed). The subcommand refuses any other flag.
type Command = (fn(&Options) -> Result<String, CliError>, Vec<&'static str>);

/// The subcommands in the order `noc-cli help` lists them; `solve` is an
/// alias of `map`.
pub(crate) const NAMES: [&str; 12] = [
    "generate", "info", "map", "evaluate", "explore", "bench", "serve", "submit", "metrics",
    "watch", "suite", "dot",
];

/// The subcommand called `name`, if there is one. The flags of the jobs
/// a subcommand writes come from the job key table.
pub(crate) fn command(name: &str) -> Option<Command> {
    use crate::request::FAULT_FLAGS;
    use noc_service::names::{flag_name, job_flags, split_usage};
    let solve = |own| [job_flags(&["solve"]), vec![FAULT_FLAGS, own]].concat();
    let (run, usage): Command = match name {
        "generate" => (
            cmd_generate,
            vec!["[--cores N] [--packets N] [--bits N] [--seed S] [--out app.json]"],
        ),
        "info" => (cmd_info, vec!["--app app.json"]),
        "map" | "solve" => (cmd_map, solve("[--trace FILE] [--telemetry]")),
        "evaluate" => (cmd_evaluate, job_flags(&["evaluate"])),
        "explore" => (
            cmd_explore,
            solve("[--methods sa,sa-multi,ga,tabu,portfolio] [--workers N]"),
        ),
        "bench" => (
            cmd_bench,
            vec!["[--jobs N] [--workers N] [--evals N] [--app app.json] [--mesh WxH]"],
        ),
        "serve" => (
            cmd_serve,
            vec!["--socket PATH [--workers N] [--trace FILE]"],
        ),
        "submit" => {
            let own = "--socket PATH [--op status|wait|cancel|stats|shutdown|metrics|trace] \
                       [--job N] [--priority high|normal|low] [--wait]";
            (
                cmd_submit,
                [vec![own], job_flags(&["solve", "evaluate"])].concat(),
            )
        }
        "metrics" => (cmd_metrics, vec!["--socket PATH [--json]"]),
        "watch" => (cmd_watch, vec!["--socket PATH [--count N]"]),
        "suite" => (cmd_suite, vec!["[--row N] [--out app.json]"]),
        "dot" => (
            cmd_dot,
            vec!["--app app.json [--graph cdcg|cwg] [--cwg] [--out graph.dot]"],
        ),
        _ => return None,
    };
    // `explore` runs one job per method of `--methods`, so no `--method`.
    let flags = usage.into_iter().flat_map(split_usage);
    let flags = flags.filter(|f| name != "explore" || flag_name(f) != "--method");
    Some((run, flags.collect()))
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
