//! `map` / `solve`: search the best mapping for an application.

use crate::commands::{run_job_with_config, service_config};
use crate::options::Options;
use crate::render::render_solve;
use crate::request::build_solve_request;
use crate::CliError;
use noc_service::JobRequest;

/// `map` (alias `solve`): search the best mapping for an application.
/// Builds a solve request, runs it through the service layer and
/// renders the result. `--trace FILE` appends every trace event of the
/// run (search rounds, SA epochs, walk-memo counters) to `FILE` as
/// JSON lines without changing the trajectory.
///
/// # Errors
///
/// Returns an error on bad options, load failures, infeasible instances
/// (more cores than tiles), or failed jobs.
pub fn cmd_map(options: &Options) -> Result<String, CliError> {
    let request = build_solve_request(options)?;
    let workers: usize = options.get_parsed("--workers", 1)?;
    let config = service_config(options, workers)?;
    let result = run_job_with_config(JobRequest::Solve(Box::new(request)), config)?;
    let result = result
        .as_solve()
        .ok_or("service returned the wrong result kind")?;
    let mut out = String::new();
    render_solve(&mut out, result, options.flag("--telemetry"));
    Ok(out)
}
