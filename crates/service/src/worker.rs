//! Job execution: what one worker thread does with one dequeued job.
//!
//! Execution is a pure function of the request (plus the shared
//! provider registry): workers hold no job state of their own beyond a
//! pooled [`ScheduleScratch`] arena that the final full-model
//! verification of every job reuses. That pooling is why a service
//! processing thousands of small jobs does not allocate per-link tables
//! thousands of times — the arena's [`RunStats`](noc_sim::RunStats)
//! counters are the observable evidence of reuse.

use crate::job::{
    CacheTier, EvaluateRequest, EvaluateResult, JobRequest, JobResult, SolveRequest, SolveResult,
};
use crate::registry::ProviderRegistry;
use noc_energy::total::evaluate_cdcm_with;
use noc_energy::{
    cdcg_dynamic_energy_cached, cwg_dynamic_energy_cached, noc_static_energy, EnergyBreakdown,
};
use noc_mapping::{
    anneal_constrained, CancelToken, CdcmObjective, CwmObjective, Explorer, Strategy,
};
use noc_model::{RouteProvider, RouteSource};
use noc_sim::gantt::GanttChart;
use noc_sim::{schedule_cost_with, ScheduleScratch};
use std::sync::Arc;

/// Executes one job to completion (or to its cancellation checkpoint).
/// Returns a human-readable error string for failed jobs; the service
/// loop wraps it in [`JobState::Failed`](crate::job::JobState::Failed).
pub(crate) fn execute(
    request: &JobRequest,
    registry: &ProviderRegistry,
    scratch: &mut ScheduleScratch,
    cancel: &CancelToken,
) -> Result<JobResult, String> {
    match request {
        JobRequest::Solve(req) => {
            execute_solve(req, registry, scratch, cancel).map(|r| JobResult::Solve(Box::new(r)))
        }
        JobRequest::Evaluate(req) => {
            execute_evaluate(req).map(|r| JobResult::Evaluate(Box::new(r)))
        }
    }
}

/// Resolves a solve request's route provider: the shared registry for
/// the auto tier, a private per-job provider for the explicit tiers
/// (exactly what the CLI always built).
fn resolve_provider(
    req: &SolveRequest,
    registry: &ProviderRegistry,
) -> Result<(Arc<RouteProvider>, bool), String> {
    match req.route_cache {
        CacheTier::Auto => {
            let lease = registry.provider(&req.mesh, req.routing, &req.faults);
            Ok((lease.provider, lease.hit))
        }
        _ if !req.faults.is_empty() => Err(
            "fault sets need the auto route-cache tier (the registry builds fault-aware routes)"
                .to_owned(),
        ),
        CacheTier::Dense => RouteProvider::dense(&req.mesh, req.routing)
            .map(|p| (Arc::new(p), false))
            .map_err(|e| e.to_string()),
        CacheTier::Implicit => Ok((
            Arc::new(RouteProvider::implicit(&req.mesh, req.routing)),
            false,
        )),
    }
}

fn execute_solve(
    req: &SolveRequest,
    registry: &ProviderRegistry,
    scratch: &mut ScheduleScratch,
    cancel: &CancelToken,
) -> Result<SolveResult, String> {
    if req.app.core_count() > req.mesh.tile_count() {
        return Err(format!(
            "{} cores cannot map onto {} tiles",
            req.app.core_count(),
            req.mesh.tile_count()
        ));
    }
    req.app.validate().map_err(|e| e.to_string())?;
    let (provider, registry_hit) = resolve_provider(req, registry)?;
    let route_tier = provider.tier().name().to_owned();
    let explorer = Explorer::with_provider(
        &req.app,
        req.mesh,
        req.tech.clone(),
        req.params,
        Arc::clone(&provider),
    );

    let (outcome, telemetry) = match &req.pins {
        Some(pins) => {
            // Constrained search: pinned cores stay on their tiles. The
            // constrained annealer has no mid-run checkpoints; a cancel
            // that lands before dispatch still stops the job here.
            pins.validate(&req.mesh, req.app.core_count())
                .map_err(|e| e.to_string())?;
            let outcome = match req.strategy {
                Strategy::Cwm => {
                    let objective = CwmObjective::with_provider(
                        explorer.cwg(),
                        &req.mesh,
                        &req.tech,
                        Arc::clone(&provider),
                    );
                    anneal_constrained(
                        &objective,
                        &req.mesh,
                        req.app.core_count(),
                        pins,
                        &req.sa_config,
                    )
                }
                Strategy::Cdcm => {
                    let objective = CdcmObjective::with_provider(
                        &req.app,
                        &req.tech,
                        req.params,
                        Arc::clone(&provider),
                    );
                    anneal_constrained(
                        &objective,
                        &req.mesh,
                        req.app.core_count(),
                        pins,
                        &req.sa_config,
                    )
                }
            };
            (outcome, None)
        }
        None => {
            let run = explorer.explore_with_telemetry_cancellable(req.strategy, req.method, cancel);
            (run.outcome, Some(run.telemetry))
        }
    };

    // Full-model verification of the winner, over the job's provider and
    // this worker's pooled scratch arena (no per-job allocation).
    let texec_cycles = schedule_cost_with(
        &req.app,
        &req.mesh,
        &outcome.mapping,
        &req.params,
        provider.as_ref(),
        scratch,
    )
    .map_err(|e| e.to_string())?;
    let texec_ns = req.params.cycles_to_ns(texec_cycles);
    let dynamic =
        cdcg_dynamic_energy_cached(&req.app, provider.as_ref(), &outcome.mapping, &req.tech);
    let static_energy = noc_static_energy(&req.mesh, &req.tech, texec_ns);
    let cwm_dynamic = cwg_dynamic_energy_cached(
        explorer.cwg(),
        provider.as_ref(),
        &outcome.mapping,
        &req.tech,
    );

    let criticality = req
        .criticality
        .then(|| explorer.link_criticality(&outcome.mapping));
    let remap = req.fault_scenario.map(|scenario| {
        explorer.remap_after_faults(&outcome.mapping, scenario, req.fault_evals, req.seed)
    });

    Ok(SolveResult {
        telemetry,
        breakdown: EnergyBreakdown {
            dynamic,
            static_energy,
        },
        texec_ns,
        texec_cycles,
        cwm_dynamic,
        routing: provider.routing_name().to_owned(),
        route_tier,
        registry_hit,
        criticality,
        remap,
        outcome,
    })
}

fn execute_evaluate(req: &EvaluateRequest) -> Result<EvaluateResult, String> {
    if req.mapping.core_count() != req.app.core_count() {
        return Err(format!(
            "mapping covers {} cores but the application has {}",
            req.mapping.core_count(),
            req.app.core_count()
        ));
    }
    req.app.validate().map_err(|e| e.to_string())?;
    let routing = req.routing.algorithm();
    let eval = evaluate_cdcm_with(
        &req.app,
        &req.mesh,
        &req.mapping,
        &req.tech,
        &req.params,
        routing,
    )
    .map_err(|e| e.to_string())?;
    let gantt = req
        .gantt
        .then(|| GanttChart::from_schedule(&eval.schedule, &req.app).render(100));
    Ok(EvaluateResult {
        mapping: req.mapping.clone(),
        routing: routing.name().to_owned(),
        texec_ns: eval.texec_ns,
        breakdown: eval.breakdown,
        contention_events: eval.schedule.contention_events().len(),
        contention_cycles: eval.schedule.total_contention_cycles(),
        gantt,
    })
}
