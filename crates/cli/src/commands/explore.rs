//! `explore`: fan one instance out across search methods concurrently.

use crate::options::Options;
use crate::request::build_solve_request_with_method;
use crate::CliError;
use noc_service::{JobRequest, JobState, MappingService, Priority, ServiceConfig, SolveResult};
use std::fmt::Write as _;

/// `explore`: run several search methods over the same instance as
/// concurrent service jobs and tabulate the outcomes. Every method
/// spends the same evaluation budget, so the table is a fair
/// comparison; output is deterministic per seed (no wall-clock column).
///
/// # Errors
///
/// Returns an error on bad options, load failures, or any failed job.
pub(crate) fn cmd_explore(options: &Options) -> Result<String, CliError> {
    let spec = options
        .get("--methods")
        .unwrap_or("sa,sa-multi,ga,tabu,portfolio");
    let names: Vec<&str> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if names.is_empty() {
        return Err(format!("`--methods` lists no methods in `{spec}`").into());
    }
    let workers: usize = options.get_parsed("--workers", names.len().min(4))?;

    let service = MappingService::start(ServiceConfig::new(workers));
    let jobs: Vec<(String, noc_service::JobId)> = names
        .iter()
        .map(|name| {
            let request = build_solve_request_with_method(options, name)?;
            let id = service.submit(JobRequest::Solve(Box::new(request)), Priority::Normal);
            Ok(((*name).to_owned(), id))
        })
        .collect::<Result<_, CliError>>()?;
    service.wait_all();

    let mut results: Vec<(String, SolveResult)> = Vec::with_capacity(jobs.len());
    for (name, id) in jobs {
        match service.status(id) {
            Some(JobState::Done(result)) => {
                let solve = result
                    .as_solve()
                    .ok_or("service returned the wrong result kind")?;
                results.push((name, solve.clone()));
            }
            Some(JobState::Failed(message)) => return Err(format!("{name}: {message}").into()),
            other => {
                return Err(format!(
                    "{name}: job ended in state {}",
                    other.map_or("missing", |s| s.name())
                )
                .into())
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12}  {:>14}  {:>12}  {:>12}",
        "method", "objective (pJ)", "texec (ns)", "evaluations"
    );
    for (name, result) in &results {
        let _ = writeln!(
            out,
            "{:<12}  {:>14.3}  {:>12}  {:>12}",
            name, result.outcome.cost, result.texec_ns, result.outcome.evaluations
        );
    }
    // Ties go to the first listed method (strict less-than keeps it).
    let best = results
        .iter()
        .reduce(|best, next| {
            if next.1.outcome.cost < best.1.outcome.cost {
                next
            } else {
                best
            }
        })
        .expect("at least one method ran");
    let _ = writeln!(
        out,
        "best:         {} ({:.3} pJ)",
        best.0, best.1.outcome.cost
    );
    let stats = service.stats();
    let _ = writeln!(
        out,
        "route cache:  {} builds, {} registry hits",
        stats.registry_misses, stats.registry_hits
    );
    let _ = writeln!(out, "workers:      {workers}");
    Ok(out)
}
