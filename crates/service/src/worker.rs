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
use noc_mapping::{CancelToken, Explorer, SearchMethod};
use noc_model::{Cdcg, Mesh, RouteProvider, RouteSource};
use noc_sim::gantt::GanttChart;
use noc_sim::{schedule_cost_with, ScheduleScratch, SimParams};
use std::sync::Arc;

/// The largest mesh a job may name: 256×256 tiles, 16 times the largest
/// mesh of the benchmark workloads. The engine sizes its per-link tables
/// by the mesh, not by the application, so this bounds a job's memory.
const MAX_MESH_TILES: usize = 65_536;

/// Rejects, before any engine runs, a job with a zero flit width, a
/// clock period that is not finite and positive, more than
/// [`MAX_MESH_TILES`] tiles, or a worst-case horizon beyond `u64`.
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
    let (w, h, d) = (mesh.width(), mesh.height(), mesh.depth());
    let tiles = w.checked_mul(h).and_then(|t| t.checked_mul(d));
    let Some(tiles) = tiles.filter(|&t| t <= MAX_MESH_TILES) else {
        return Err(format!(
            "mesh {w}x{h}x{d} exceeds the limit of {MAX_MESH_TILES} tiles"
        ));
    };
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
    admit(&req.app, &req.mesh, &req.params)?;
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
        telemetry: run.telemetry,
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
    admit(&req.app, &req.mesh, &req.params)?;
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
