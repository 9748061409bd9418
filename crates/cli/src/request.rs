//! Request building: a subcommand's flags, written as the job the wire
//! carries ([`noc_service::names`] declares each key with the flags that
//! spell it) and decoded by `protocol::parse_job`, the server's decoder,
//! so a flag means on the command line what its key means on the
//! socket. What stays here are the checks the CLI runs before a job is
//! queued and the fault experiment, which runs in process only.

use crate::options::{parse_fault_scenario, Options};
use crate::CliError;
use noc_service::names::{job_from_flags, parsed, Flags};
use noc_service::protocol::parse_job;
use noc_service::{EvaluateRequest, JobRequest, SolveRequest};

/// The usage of the fault experiment's flags. The wire carries no fault
/// scenario, so `submit` refuses them.
pub(crate) const FAULT_FLAGS: &str =
    "[--faults K] [--fault-kind link|tsv|region] [--fault-seed S] [--fault-evals N]";

impl Flags for Options {
    fn text(&self, flag: &str) -> Option<&str> {
        self.get(flag)
    }
}

/// Builds the solve request for a `map`/`solve` invocation, taking the
/// method from `--method` (default `sa`), with the fault experiment of
/// the fault flags.
///
/// # Errors
///
/// Returns an error on bad options, load failures, or infeasible
/// instances (more cores than tiles).
pub fn build_solve_request(options: &Options) -> Result<SolveRequest, CliError> {
    let job = job_from_flags("solve", options)?;
    let JobRequest::Solve(mut request) = parse_job(&job)? else {
        return Err("a solve job decoded as an evaluate job".into());
    };
    let (cores, tiles) = (request.app.core_count(), request.mesh.tile_count());
    if cores > tiles {
        return Err(format!("{cores} cores cannot map onto {tiles} tiles").into());
    }
    if let Some(pins) = &request.pins {
        // `Explorer::search` re-checks them in the worker.
        pins.validate(&request.mesh, cores)?;
    }
    request.app.validate()?;
    request.fault_scenario = parse_fault_scenario(options)?;
    request.fault_evals = parsed(options, "--fault-evals", 20_000)?;
    Ok(*request)
}

/// Builds the evaluate request for an `evaluate` invocation.
///
/// # Errors
///
/// Returns an error on bad options or a mapping that does not cover the
/// application's cores.
pub(crate) fn evaluate_request(options: &Options) -> Result<EvaluateRequest, CliError> {
    let job = job_from_flags("evaluate", options)?;
    let JobRequest::Evaluate(request) = parse_job(&job)? else {
        return Err("an evaluate job decoded as a solve job".into());
    };
    let (mapped, cores) = (request.mapping.core_count(), request.app.core_count());
    if mapped != cores {
        let error = format!("mapping covers {mapped} cores but the application has {cores}");
        return Err(error.into());
    }
    request.app.validate()?;
    Ok(*request)
}
