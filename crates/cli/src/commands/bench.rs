//! `bench`: measure service throughput on a batch of small jobs.

use crate::options::{load_app, parse_mesh_options, Options};
use crate::CliError;
use noc_service::{
    JobRequest, MappingService, Priority, SaConfig, SearchMethod, ServiceConfig, SolveRequest,
};
use std::fmt::Write as _;

/// `bench`: submit a batch of seeded solve jobs to one service instance
/// and report throughput, registry reuse and scratch pooling. The
/// per-job results are deterministic; the timing lines are wall clock.
///
/// # Errors
///
/// Returns an error on bad options or any failed job.
pub(crate) fn cmd_bench(options: &Options) -> Result<String, CliError> {
    let jobs: usize = options.get_parsed("--jobs", 64)?;
    let workers: usize = options.get_parsed("--workers", 4)?;
    let evals: u64 = options.get_parsed("--evals", 200)?;
    if jobs == 0 {
        return Err("`--jobs` must be at least 1".into());
    }
    // Default workload: a synthetic 4x4 round-robin app — the point is
    // service overhead, not search quality.
    let app = match options.get("--app") {
        Some(_) => load_app(options)?,
        None => noc_apps::large_mesh_workload(4, 4, 1),
    };
    let mesh = match options.get("--mesh") {
        Some(_) => parse_mesh_options(options)?,
        None => noc_model::Mesh::new(4, 4)?,
    };
    if app.core_count() > mesh.tile_count() {
        return Err(format!(
            "{} cores cannot map onto {} tiles",
            app.core_count(),
            mesh.tile_count()
        )
        .into());
    }

    let service = MappingService::start(ServiceConfig::new(workers));
    let start = std::time::Instant::now();
    for seed in 0..jobs as u64 {
        let mut config = SaConfig::quick(seed);
        config.max_evaluations = evals;
        let mut request =
            SolveRequest::new(app.clone(), mesh, SearchMethod::SimulatedAnnealing(config));
        request.seed = seed;
        service.submit(JobRequest::Solve(Box::new(request)), Priority::Normal);
    }
    let states = service.wait_all();
    let elapsed = start.elapsed().as_secs_f64();
    for state in &states {
        if let noc_service::JobState::Failed(message) = state {
            return Err(format!("bench job failed: {message}").into());
        }
    }

    let stats = service.stats();
    let mut out = String::new();
    let _ = writeln!(out, "jobs:         {jobs} ({workers} workers)");
    let _ = writeln!(out, "budget:       {evals} evaluations per job");
    let _ = writeln!(out, "elapsed:      {elapsed:.3} s");
    let _ = writeln!(out, "throughput:   {:.1} jobs/s", jobs as f64 / elapsed);
    let _ = writeln!(
        out,
        "route cache:  {} builds, {} registry hits",
        stats.registry_misses, stats.registry_hits
    );
    let _ = writeln!(
        out,
        "scratch:      {} pooled runs, {} events",
        stats.scratch_runs, stats.scratch_events
    );
    Ok(out)
}
