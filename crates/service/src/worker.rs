//! Job execution: what one worker thread does with one dequeued job.
//!
//! Execution is a pure function of the request (plus the shared
//! provider registry): workers hold no job state of their own beyond a
//! pooled [`ScheduleScratch`] arena. Every job takes its route provider
//! from the registry, and both job kinds score their mapping through
//! `score`: one cost-only run on that arena, which also counts
//! contention, then the Equation 10 energy terms. That pooling is why a
//! service processing thousands of small jobs does not allocate
//! per-link tables thousands of times — the arena's
//! [`RunStats`](noc_sim::RunStats) counters are the observable evidence
//! of reuse.

use crate::job::{
    check_mesh, EvaluateRequest, EvaluateResult, JobRequest, JobResult, SolveRequest, SolveResult,
};
use crate::registry::{ProviderLease, ProviderRegistry};
use noc_energy::{
    cdcg_dynamic_energy_cached, cwg_dynamic_energy_cached, noc_static_energy, EnergyBreakdown,
    Technology,
};
use noc_mapping::{CancelToken, Explorer, SearchMethod};
use noc_model::{Cdcg, FaultSet, Mapping, Mesh, RouteProvider, RouteSource};
use noc_sim::gantt::GanttChart;
use noc_sim::{
    schedule_contention_with, schedule_with, ContentionCount, ScheduleScratch, SimParams,
};
use std::sync::Arc;

/// Rejects, before any engine runs, a job with a zero flit width, a
/// clock period that is not finite and positive, more than
/// [`MAX_MESH_TILES`](crate::MAX_MESH_TILES) tiles ([`check_mesh`]), or
/// a worst-case horizon beyond `u64`.
///
/// The horizon is Σ_p comp_p + (tiles + 1)·(flits_p·tl + tl + 2·tr).
/// Every event time of a run is at most `texec`, and each cycle before
/// `texec` is spent computing, holding a link, or in a per-hop routing
/// delay: a packet holds at most `tiles + 1` links for `flits·tl` cycles
/// each and spends at most `tl + 2·tr` per hop on the header, the
/// routing decision and a re-arbitration. So `texec` stays below the
/// horizon, and no cycle sum of the run wraps when the horizon fits.
fn admit(app: &Cdcg, mesh: &Mesh, params: &SimParams) -> Result<(), String> {
    if params.flit_width_bits == 0 {
        return Err("params.flit_width_bits must be non-zero".to_owned());
    }
    let clock = params.clock_period_ns;
    if !(clock.is_finite() && clock > 0.0) {
        return Err(format!(
            "params.clock_period_ns must be finite and positive, got {clock}"
        ));
    }
    let tiles = check_mesh(mesh)?;
    let (tl, tr) = (params.link_cycles, params.routing_cycles);
    let horizon = app.packet_ids().try_fold(0u64, |sum, id| {
        let p = app.packet(id);
        let hop = tl.checked_add(tr.checked_mul(2)?)?;
        let per_link = params
            .flits(p.bits)
            .max(1)
            .checked_mul(tl)?
            .checked_add(hop)?;
        let route = (tiles as u64 + 1).checked_mul(per_link)?;
        sum.checked_add(p.comp_cycles)?.checked_add(route)
    });
    match horizon {
        Some(_) => Ok(()),
        None => Err("the worst-case horizon of comp_cycles, params.link_cycles and params.routing_cycles overflows a 64-bit cycle count".to_owned()),
    }
}

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
            execute_evaluate(req, registry, scratch).map(|r| JobResult::Evaluate(Box::new(r)))
        }
    }
}

/// The Equation 10 score of one mapping: what both job kinds report.
struct Score {
    /// `texec` and the contention of the run.
    run: ContentionCount,
    texec_ns: f64,
    breakdown: EnergyBreakdown,
}

/// Scores `mapping` over `provider`: one cost-only run on the worker's
/// pooled `scratch` that also counts contention, then the dynamic energy
/// from the provider's hop counts and the static energy over `texec`.
fn score(
    app: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    tech: &Technology,
    params: &SimParams,
    provider: &RouteProvider,
    scratch: &mut ScheduleScratch,
) -> Result<Score, String> {
    let run = schedule_contention_with(app, mesh, mapping, params, provider, scratch)
        .map_err(|e| e.to_string())?;
    let texec_ns = params.cycles_to_ns(run.texec_cycles);
    let breakdown = EnergyBreakdown {
        dynamic: cdcg_dynamic_energy_cached(app, provider, mapping, tech),
        static_energy: noc_static_energy(mesh, tech, texec_ns),
    };
    Ok(Score {
        run,
        texec_ns,
        breakdown,
    })
}

fn execute_solve(
    req: &SolveRequest,
    registry: &ProviderRegistry,
    scratch: &mut ScheduleScratch,
    cancel: &CancelToken,
) -> Result<SolveResult, String> {
    admit(&req.app, &req.mesh, &req.params)?;
    if req.app.core_count() > req.mesh.tile_count() {
        return Err(format!(
            "{} cores cannot map onto {} tiles",
            req.app.core_count(),
            req.mesh.tile_count()
        ));
    }
    req.app.validate().map_err(|e| e.to_string())?;
    let ProviderLease {
        provider,
        hit: registry_hit,
    } = registry.provider(&req.mesh, req.routing, &req.faults);
    let route_tier = provider.tier().name().to_owned();
    let explorer = Explorer::with_provider(
        &req.app,
        req.mesh,
        req.tech.clone(),
        req.params,
        Arc::clone(&provider),
    );

    // A pinned SA job anneals with the request's `sa_config`.
    let method = match (&req.pins, req.method) {
        (Some(_), SearchMethod::SimulatedAnnealing(_)) => {
            SearchMethod::SimulatedAnnealing(req.sa_config)
        }
        (_, method) => method,
    };
    let run = explorer
        .search(req.strategy, method, req.pins.as_ref(), cancel)
        .map_err(|e| e.to_string())?;
    let outcome = run.outcome;

    // Full-model verification of the winner, over the job's provider and
    // this worker's pooled scratch arena (no per-job allocation).
    let scored = score(
        &req.app,
        &req.mesh,
        &outcome.mapping,
        &req.tech,
        &req.params,
        &provider,
        scratch,
    )?;
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
        telemetry: run.telemetry,
        breakdown: scored.breakdown,
        texec_ns: scored.texec_ns,
        texec_cycles: scored.run.texec_cycles,
        cwm_dynamic,
        routing: provider.routing_name().to_owned(),
        route_tier,
        registry_hit,
        criticality,
        remap,
        outcome,
    })
}

fn execute_evaluate(
    req: &EvaluateRequest,
    registry: &ProviderRegistry,
    scratch: &mut ScheduleScratch,
) -> Result<EvaluateResult, String> {
    admit(&req.app, &req.mesh, &req.params)?;
    if req.mapping.core_count() != req.app.core_count() {
        return Err(format!(
            "mapping covers {} cores but the application has {}",
            req.mapping.core_count(),
            req.app.core_count()
        ));
    }
    req.app.validate().map_err(|e| e.to_string())?;
    let provider = registry
        .provider(&req.mesh, req.routing, &FaultSet::new())
        .provider;
    let scored = score(
        &req.app,
        &req.mesh,
        &req.mapping,
        &req.tech,
        &req.params,
        &provider,
        scratch,
    )?;
    // Only the chart needs the artifacts, so only it builds a schedule.
    let gantt = if req.gantt {
        let routing = req.routing.algorithm();
        let schedule = schedule_with(&req.app, &req.mesh, &req.mapping, &req.params, routing)
            .map_err(|e| e.to_string())?;
        Some(GanttChart::from_schedule(&schedule, &req.app).render(100))
    } else {
        None
    };
    Ok(EvaluateResult {
        mapping: req.mapping.clone(),
        routing: req.routing.name().to_owned(),
        texec_ns: scored.texec_ns,
        breakdown: scored.breakdown,
        contention_events: scored.run.events,
        contention_cycles: scored.run.cycles,
        gantt,
    })
}
