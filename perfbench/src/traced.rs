//! The traced run's in-process replay: the same requests the program
//! served, re-run through the library with a span around each call into
//! a layer.
//!
//! * `search` runs the request's strategy config directly (`anneal_delta`,
//!   [`TabuSearch`], [`GeneticSearch`]) over [`Timed`], a timing wrapper
//!   around the request's objective; every objective call becomes a
//!   `mapping` span under the search span.
//! * `energy`, `sim` and `model` replay a deterministic sample of the
//!   mappings the search visited through `schedule_cost_with`, the
//!   energy fold, `CdcmCostEvaluator::evaluate_swap`, the batch
//!   evaluator and `RouteSource::walk_span`.
//!
//! The replayed searches must reproduce the program's results, which the
//! caller checks through the result digest.

use crate::check;
use crate::inputs::Instance;
use crate::report::Report;
use crate::stats;
use crate::trace::{layer_self_times, Layer, Tracer};
use noc_energy::{cdcg_dynamic_energy_cached, noc_static_energy, CdcmCostEvaluator, Technology};
use noc_mapping::{
    anneal_delta, BatchCost, CdcmObjective, CostFunction, CwmObjective, GeneticSearch,
    SearchMethod, SearchOutcome, SearchStrategy, Strategy, SwapDeltaCost, TabuSearch,
};
use noc_model::{Mapping, RouteProvider, RouteSource, TileId};
use noc_service::{
    JobRequest, JobResult, JobState, MappingService, Priority, ServiceConfig, ServiceEvent,
};
use noc_sim::{schedule_cost_with, ScheduleScratch, SimParams};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Visited mappings (and swap moves) kept per request for the replay.
const SAMPLES_PER_REQUEST: usize = 48;
/// Candidates per batch in the walk-memo replay (tabu's neighborhood).
const MEMO_BATCH: usize = 24;

/// Deterministic stride sample of an unbounded stream: keeps items
/// `0, s, 2s, …` and doubles `s` whenever more than the limit are kept.
#[derive(Debug)]
struct Sampler<T> {
    stride: usize,
    seen: usize,
    kept: Vec<T>,
}

impl<T> Sampler<T> {
    fn new() -> Self {
        Self {
            stride: 1,
            seen: 0,
            kept: Vec::new(),
        }
    }

    fn wants_next(&self) -> bool {
        self.seen.is_multiple_of(self.stride)
    }

    fn offer(&mut self, make: impl FnOnce() -> T) {
        if self.wants_next() {
            self.kept.push(make());
            if self.kept.len() > SAMPLES_PER_REQUEST {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }
}

/// One objective call the search made.
#[derive(Debug, Clone, Copy)]
struct Call {
    name: &'static str,
    start: u64,
    end: u64,
    candidates: u64,
}

/// Names of the calls of one objective kind: cost, swap delta,
/// neighborhood swap deltas, batch cost.
struct CallNames([&'static str; 4]);

const CDCM_CALLS: CallNames = CallNames([
    "cdcm.cost",
    "cdcm.swap_delta",
    "cdcm.batch_swap_delta",
    "cdcm.batch_cost",
]);
const CWM_CALLS: CallNames = CallNames([
    "cwm.cost",
    "cwm.swap_delta",
    "cwm.batch_swap_delta",
    "cwm.batch_cost",
]);

/// Timing wrapper around an objective: forwards every call unchanged
/// (so the search trajectory is the program's), records its interval,
/// and samples the mappings visited.
struct Timed<C> {
    inner: C,
    names: CallNames,
    origin: Instant,
    calls: RefCell<Vec<Call>>,
    visited: RefCell<Sampler<Mapping>>,
    swaps: RefCell<Sampler<(Mapping, TileId, TileId)>>,
    /// Intervals spent sampling (cloning mappings), excluded from the
    /// search layer's self time.
    sampling: RefCell<Vec<(u64, u64)>>,
}

impl<C> Timed<C> {
    fn new(inner: C, names: CallNames, origin: Instant) -> Self {
        Self {
            inner,
            names,
            origin,
            calls: RefCell::new(Vec::new()),
            visited: RefCell::new(Sampler::new()),
            swaps: RefCell::new(Sampler::new()),
            sampling: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&self, kind: usize, start: u64, candidates: u64) {
        let end = self.now();
        self.calls.borrow_mut().push(Call {
            name: self.names.0[kind],
            start,
            end,
            candidates,
        });
    }

    fn sample_mapping(&self, mapping: &Mapping, swap: Option<(TileId, TileId)>) {
        let mut visited = self.visited.borrow_mut();
        let mut swaps = self.swaps.borrow_mut();
        let cloning = visited.wants_next() || (swap.is_some() && swaps.wants_next());
        let start = if cloning { self.now() } else { 0 };
        visited.offer(|| {
            let mut m = mapping.clone();
            if let Some((a, b)) = swap {
                m.swap_tiles(a, b);
            }
            m
        });
        if let Some((a, b)) = swap {
            swaps.offer(|| (mapping.clone(), a, b));
        }
        if cloning {
            self.sampling.borrow_mut().push((start, self.now()));
        }
    }
}

impl<C: CostFunction> CostFunction for Timed<C> {
    fn cost(&self, mapping: &Mapping) -> f64 {
        let start = self.now();
        let cost = self.inner.cost(mapping);
        self.record(0, start, 1);
        self.sample_mapping(mapping, None);
        cost
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

impl<C: SwapDeltaCost> SwapDeltaCost for Timed<C> {
    fn swap_delta(&self, mapping: &Mapping, a: TileId, b: TileId) -> f64 {
        let start = self.now();
        let delta = self.inner.swap_delta(mapping, a, b);
        self.record(1, start, 1);
        self.sample_mapping(mapping, Some((a, b)));
        delta
    }

    fn batch_swap_delta(&self, mapping: &Mapping, moves: &[(TileId, TileId)], out: &mut Vec<f64>) {
        let start = self.now();
        self.inner.batch_swap_delta(mapping, moves, out);
        self.record(2, start, moves.len() as u64);
        for &(a, b) in moves {
            self.sample_mapping(mapping, Some((a, b)));
        }
    }
}

impl<C: BatchCost> BatchCost for Timed<C> {
    fn batch_cost(&self, batch: &[Mapping], out: &mut Vec<f64>) {
        let start = self.now();
        self.inner.batch_cost(batch, out);
        self.record(3, start, batch.len() as u64);
        for mapping in batch {
            self.sample_mapping(mapping, None);
        }
    }
}

/// Runs `method` directly on `objective`, as the service's explorer does
/// for the single-threaded methods.
fn run_method<C: SwapDeltaCost + BatchCost>(
    objective: &C,
    instance: &Instance,
    method: &SearchMethod,
) -> Result<SearchOutcome, String> {
    let (mesh, cores) = (&instance.mesh, instance.app.core_count());
    match method {
        SearchMethod::SimulatedAnnealing(config) => {
            Ok(anneal_delta(objective, mesh, cores, config))
        }
        SearchMethod::Tabu(config) => Ok(TabuSearch::new(*config)
            .search(objective, mesh, cores)
            .outcome),
        SearchMethod::Genetic(config) => Ok(GeneticSearch::new(*config)
            .search(objective, mesh, cores)
            .outcome),
        other => Err(format!("method {other:?} is not traced")),
    }
}

/// Sums the traced run accumulates across requests.
#[derive(Debug, Default)]
pub struct Acc {
    /// Per search method: (ns in search self time, billed evaluations).
    search: Vec<(&'static str, u64, u64)>,
    /// Per objective call name: (ns, candidates).
    calls: Vec<(&'static str, u64, u64)>,
    /// Billed evaluations of the replayed searches.
    pub evaluations: u64,
    /// Delta-evaluator counters summed over CDCM searches (the fields
    /// [`add_delta`] adds).
    pub delta: noc_sim::DeltaStats,
    /// Replayed `schedule_cost_with` runs.
    pub runs: u64,
    /// Events of those runs.
    pub events: u64,
    /// Time inside `schedule_cost_with`, ns.
    pub schedule_ns: u64,
    /// Route walks replayed.
    pub walks: u64,
    /// Time inside `walk_span`, ns.
    pub walk_ns: u64,
    /// Walk-memo hits and misses of the batch replay.
    pub memo_hits: u64,
    /// See `memo_hits`.
    pub memo_misses: u64,
    /// Registry hits and misses of the service jobs.
    pub registry_hits: u64,
    /// See `registry_hits`.
    pub registry_misses: u64,
    /// Per request: submit round trip (µs; the in-process `submit` call
    /// for the CLI workloads), queue wait and run overhead (ms), decode
    /// time (µs) and the CLI's own overhead (ms).
    pub submit_us: Vec<f64>,
    /// See `submit_us`.
    pub queue_wait_ms: Vec<f64>,
    /// See `submit_us`.
    pub run_overhead_ms: Vec<f64>,
    /// See `submit_us`.
    pub decode_us: Vec<f64>,
    /// See `submit_us`.
    pub cli_overhead_ms: Vec<f64>,
}

fn bump(table: &mut Vec<(&'static str, u64, u64)>, key: &'static str, a: u64, b: u64) {
    match table.iter_mut().find(|(k, _, _)| *k == key) {
        Some(entry) => {
            entry.1 += a;
            entry.2 += b;
        }
        None => table.push((key, a, b)),
    }
}

fn lookup(table: &[(&'static str, u64, u64)], key: &str) -> (u64, u64) {
    table
        .iter()
        .find(|(k, _, _)| *k == key)
        .map_or((0, 0), |e| (e.1, e.2))
}

/// What a traced search returns.
pub struct Searched {
    /// The search outcome (must match the program's).
    pub outcome: SearchOutcome,
    /// Duration of the search span, less the timing wrapper's own cost.
    pub search_time: Duration,
}

/// Runs one solve request's search directly under a `search` span, with
/// `mapping` spans for every objective call, then replays its visited
/// mappings through the lower layers. The wrapper reads the clock twice
/// per call, one read inside the call's span and one outside; both are
/// subtracted (at the calibrated cost) from the search's own time.
#[allow(clippy::too_many_arguments)]
pub fn traced_search(
    t: &mut Tracer,
    acc: &mut Acc,
    request: usize,
    instance: &Instance,
    provider: &Arc<RouteProvider>,
    strategy: Strategy,
    method_name: &'static str,
    method: &SearchMethod,
) -> Result<Searched, String> {
    let tech = Technology::t007();
    let params = SimParams::new();
    let search_id = t.next_id();
    let origin = t.origin();
    let (outcome, calls, sampling, visited, swaps) = match strategy {
        Strategy::Cdcm => {
            let objective = Timed::new(
                CdcmObjective::with_provider(&instance.app, &tech, params, Arc::clone(provider)),
                CDCM_CALLS,
                origin,
            );
            let outcome = t.span(Layer::Search, method_name, request, |_| {
                run_method(&objective, instance, method)
            })?;
            let stats = objective.inner.delta_stats();
            add_delta(&mut acc.delta, &stats);
            (
                outcome,
                objective.calls.into_inner(),
                objective.sampling.into_inner(),
                objective.visited.into_inner().kept,
                objective.swaps.into_inner().kept,
            )
        }
        Strategy::Cwm => {
            let cwg = instance.app.to_cwg();
            let objective = Timed::new(
                CwmObjective::with_provider(&cwg, &instance.mesh, &tech, Arc::clone(provider)),
                CWM_CALLS,
                origin,
            );
            let outcome = t.span(Layer::Search, method_name, request, |_| {
                run_method(&objective, instance, method)
            })?;
            (
                outcome,
                objective.calls.into_inner(),
                objective.sampling.into_inner(),
                objective.visited.into_inner().kept,
                objective.swaps.into_inner().kept,
            )
        }
    };
    let search_ns = t.spans()[search_id].duration();
    let mut inside = 0;
    for call in &calls {
        inside += call.end - call.start;
        bump(
            &mut acc.calls,
            call.name,
            call.end - call.start,
            call.candidates,
        );
        t.push(
            Layer::Mapping,
            call.name,
            request,
            Some(search_id),
            call.start,
            call.end,
        );
    }
    let sampled: u64 = sampling.iter().map(|(s, e)| e - s).sum();
    for (s, e) in sampling {
        t.push(Layer::Bench, "sample", request, Some(search_id), s, e);
    }
    let clock_ns = (t.clock_ns() * calls.len() as f64) as u64;
    let own = search_ns.saturating_sub(inside + sampled + clock_ns);
    bump(&mut acc.search, method_name, own, outcome.evaluations);
    let search_time = Duration::from_nanos(search_ns.saturating_sub(sampled + 2 * clock_ns));
    acc.evaluations += outcome.evaluations;
    replay(t, acc, request, instance, provider, &visited, &swaps);
    Ok(Searched {
        outcome,
        search_time,
    })
}

/// Adds the counters the per-layer metrics use.
fn add_delta(sum: &mut noc_sim::DeltaStats, s: &noc_sim::DeltaStats) {
    sum.incremental_moves += s.incremental_moves;
    sum.route_unchanged_moves += s.route_unchanged_moves;
    sum.full_path_moves += s.full_path_moves;
    sum.events_replayed += s.events_replayed;
    sum.events_total += s.events_total;
}

/// Replays sampled visited mappings through the sim, energy and model
/// layers, one span per call.
fn replay(
    t: &mut Tracer,
    acc: &mut Acc,
    request: usize,
    instance: &Instance,
    provider: &Arc<RouteProvider>,
    visited: &[Mapping],
    swaps: &[(Mapping, TileId, TileId)],
) {
    let tech = Technology::t007();
    let params = SimParams::new();
    let (app, mesh) = (&instance.app, &instance.mesh);
    let routes: &RouteProvider = provider.as_ref();
    let mut scratch = ScheduleScratch::new();
    let mut buf: Vec<u32> = Vec::new();
    for mapping in visited {
        let before = scratch.run_stats();
        let started = t.now();
        let cycles = t.span(Layer::Sim, "schedule_cost_with", request, |_| {
            schedule_cost_with(app, mesh, mapping, &params, routes, &mut scratch)
        });
        acc.schedule_ns += t.now() - started;
        let Ok(cycles) = cycles else { continue };
        let after = scratch.run_stats();
        acc.runs += after.runs - before.runs;
        acc.events += after.events - before.events;

        let started = t.now();
        t.span(Layer::Model, "walk_span", request, |_| {
            buf.clear();
            for id in app.packet_ids() {
                let p = app.packet(id);
                std::hint::black_box(routes.walk_span(
                    mapping.tile_of(p.src),
                    mapping.tile_of(p.dst),
                    &mut buf,
                ));
            }
        });
        acc.walk_ns += t.now() - started;
        acc.walks += app.packet_count() as u64;

        t.span(Layer::Energy, "fold", request, |_| {
            let dynamic = cdcg_dynamic_energy_cached(app, routes, mapping, &tech);
            let static_energy = noc_static_energy(mesh, &tech, params.cycles_to_ns(cycles));
            std::hint::black_box(dynamic + static_energy)
        });
    }

    let mut evaluator = CdcmCostEvaluator::with_provider(app, &tech, &params, Arc::clone(provider));
    for (mapping, a, b) in swaps {
        if evaluator.evaluate(mapping).is_err() {
            continue;
        }
        t.span(Layer::Energy, "evaluate_swap", request, |_| {
            std::hint::black_box(evaluator.evaluate_swap(mapping, *a, *b).ok())
        });
    }

    let mut batch = CdcmCostEvaluator::with_provider(app, &tech, &params, Arc::clone(provider));
    let mut out = Vec::new();
    for chunk in visited.chunks(MEMO_BATCH) {
        t.span(Layer::Sim, "evaluate_batch", request, |_| {
            out.clear();
            std::hint::black_box(batch.evaluate_batch(chunk, &mut out).is_ok())
        });
    }
    if let Some((_, Some(memo))) = batch.batch_stats() {
        acc.memo_hits += memo.hits;
        acc.memo_misses += memo.misses;
    }
}

/// Builds the request's route provider under a `model` span.
pub fn build_provider(t: &mut Tracer, request: usize, instance: &Instance) -> Arc<RouteProvider> {
    t.span(Layer::Model, "provider_build", request, |_| {
        Arc::new(RouteProvider::auto(&instance.mesh, instance.routing))
    })
}

/// Full CDCM evaluation of a result under an `energy` span; returns the
/// printed objective and texec the digest uses.
pub fn traced_full_eval(
    t: &mut Tracer,
    request: usize,
    instance: &Instance,
    tiles: &[usize],
) -> Result<noc_energy::CdcmEvaluation, String> {
    t.span(Layer::Energy, "evaluate_cdcm", request, |_| {
        check::evaluate_cdcm(instance, tiles)
    })
}

/// What a one-shot service job measured.
pub struct OneShot {
    /// The job's result.
    pub result: JobResult,
    /// The whole one-shot job: service start, submit, wait, shutdown.
    pub wall: Duration,
    /// The `submit` call, µs.
    pub submit_us: f64,
    /// `Submitted` to `Started`, ms.
    pub queue_wait_ms: f64,
    /// `Started` to `Completed`.
    pub run_time: Duration,
    /// Registry hits and misses of the job.
    pub registry: (u64, u64),
}

/// Runs `request` as a one-shot service job (one worker, as `noc-cli
/// map` does) under a `service` span named `name`, timing the submit
/// call and the job's queue wait and run time from the service's own
/// events.
pub fn one_shot_job(
    t: &mut Tracer,
    request_id: usize,
    name: &'static str,
    request: JobRequest,
) -> Result<OneShot, String> {
    let start = Instant::now();
    t.span(Layer::Service, name, request_id, |_| {
        let service = MappingService::start(ServiceConfig::new(1));
        let events = service.subscribe();
        let origin = Instant::now();
        let watcher = std::thread::spawn(move || {
            let mut stamps = Vec::new();
            while let Ok(event) = events.recv() {
                let terminal = !matches!(
                    event,
                    ServiceEvent::Submitted { .. }
                        | ServiceEvent::Started { .. }
                        | ServiceEvent::Progress { .. }
                );
                stamps.push((event_name(&event), origin.elapsed()));
                if terminal {
                    break;
                }
            }
            stamps
        });
        let submit_start = Instant::now();
        let id = service.submit(request, Priority::Normal);
        let submit_us = submit_start.elapsed().as_secs_f64() * 1e6;
        let state = service.wait(id);
        let stamps = watcher
            .join()
            .map_err(|_| "event watcher panicked".to_owned())?;
        let registry = service.handle().registry_stats();
        drop(service);
        let at = |name: &str| stamps.iter().find(|(n, _)| *n == name).map(|(_, d)| *d);
        let (Some(submitted), Some(started), Some(done)) =
            (at("Submitted"), at("Started"), at("Completed"))
        else {
            return Err("one-shot job events incomplete".to_owned());
        };
        match state {
            Some(JobState::Done(result)) => Ok(OneShot {
                result,
                wall: start.elapsed(),
                submit_us,
                queue_wait_ms: (started - submitted).as_secs_f64() * 1e3,
                run_time: done - started,
                registry: (registry.hits, registry.misses),
            }),
            other => Err(format!("one-shot job ended as {other:?}")),
        }
    })
}

/// The variant name of a service event (its key on the `watch` stream).
fn event_name(event: &ServiceEvent) -> &'static str {
    match event {
        ServiceEvent::Submitted { .. } => "Submitted",
        ServiceEvent::Started { .. } => "Started",
        ServiceEvent::Completed { .. } => "Completed",
        ServiceEvent::Cancelled { .. } => "Cancelled",
        ServiceEvent::Failed { .. } => "Failed",
        ServiceEvent::Progress { .. } => "Progress",
    }
}

/// Decodes a submit line as the server does (`serde_json::parse` then
/// `protocol::parse_job`) under a `service` span.
pub fn traced_decode(
    t: &mut Tracer,
    acc: &mut Acc,
    request: usize,
    line: &str,
) -> Result<JobRequest, String> {
    let start = Instant::now();
    let decoded = t.span(Layer::Service, "parse_job", request, |_| {
        let value = serde_json::parse(line).map_err(|e| e.to_string())?;
        let job = value.get_field("job").ok_or("submit line without a job")?;
        noc_service::protocol::parse_job(job)
    });
    acc.decode_us.push(start.elapsed().as_secs_f64() * 1e6);
    decoded
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Mean duration (ms) of spans named `name`.
fn mean_span_ms(t: &Tracer, name: &str) -> f64 {
    let (ns, n) = span_total(t, name);
    per(ns, n) / 1e6
}

/// Total duration (ns) and count of spans named `name`.
fn span_total(t: &Tracer, name: &str) -> (u64, u64) {
    t.spans()
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.duration(), n + 1))
}

/// Reports every per-layer metric from the spans and sums of a traced
/// run; `wall_traced` and `wall_untraced` give the tracing overhead.
pub fn report_layers(
    report: &mut Report,
    t: &Tracer,
    acc: &Acc,
    wall_traced: f64,
    wall_untraced: f64,
) {
    report.metric("cli.load_app_ms", mean_span_ms(t, "load_app"), "ms");
    report.metric("cli.overhead_ms", stats::median(&acc.cli_overhead_ms), "ms");
    report.metric("service.submit_rtt_us", stats::median(&acc.submit_us), "us");
    report.metric("service.decode_us", stats::median(&acc.decode_us), "us");
    report.metric(
        "service.queue_wait_p50_ms",
        stats::percentile(&acc.queue_wait_ms, 50.0),
        "ms",
    );
    report.metric(
        "service.queue_wait_p99_ms",
        stats::percentile(&acc.queue_wait_ms, 99.0),
        "ms",
    );
    report.metric(
        "service.run_overhead_ms",
        stats::median(&acc.run_overhead_ms),
        "ms",
    );
    report.metric("service.registry_hits", acc.registry_hits as f64, "count");
    report.metric(
        "service.registry_misses",
        acc.registry_misses as f64,
        "count",
    );
    for method in ["sa", "tabu", "ga"] {
        let (ns, evals) = lookup(&acc.search, method);
        report.metric(
            &format!("search.{method}.overhead_ns_per_eval"),
            per(ns, evals),
            "ns",
        );
    }
    report.metric("search.evaluations", acc.evaluations as f64, "count");
    let call_us = |names: &[&str]| {
        let (ns, n) = names.iter().fold((0, 0), |(ns, n), name| {
            let (a, b) = lookup(&acc.calls, name);
            (ns + a, n + b)
        });
        per(ns, n) / 1e3
    };
    report.metric("mapping.cost_us", call_us(&["cdcm.cost"]), "us");
    report.metric(
        "mapping.swap_delta_us",
        call_us(&["cdcm.swap_delta", "cdcm.batch_swap_delta"]),
        "us",
    );
    report.metric("mapping.batch_cost_us", call_us(&["cdcm.batch_cost"]), "us");
    report.metric("mapping.cwm_cost_us", call_us(&["cwm.cost"]), "us");
    let (fold_ns, folds) = span_total(t, "fold");
    report.metric("energy.fold_us", per(fold_ns, folds) / 1e3, "us");
    let (swap_ns, swaps) = span_total(t, "evaluate_swap");
    report.metric("energy.swap_us", per(swap_ns, swaps) / 1e3, "us");
    report.metric(
        "energy.full_eval_ms",
        mean_span_ms(t, "evaluate_cdcm"),
        "ms",
    );
    report.metric(
        "sim.schedule_cost_us",
        per(acc.schedule_ns, acc.runs) / 1e3,
        "us",
    );
    report.metric("sim.events_per_run", per(acc.events, acc.runs), "count");
    report.metric(
        "sim.ns_per_event",
        per(acc.schedule_ns.saturating_sub(acc.walk_ns), acc.events),
        "ns",
    );
    let d = &acc.delta;
    let skip = if d.events_total == 0 {
        0.0
    } else {
        1.0 - per(d.events_replayed, d.events_total)
    };
    report.metric("sim.delta_skip_frac", skip, "ratio");
    let moves = d.incremental_moves + d.route_unchanged_moves + d.full_path_moves;
    report.metric(
        "sim.route_unchanged_frac",
        per(d.route_unchanged_moves, moves),
        "ratio",
    );
    report.metric("model.walk_ns", per(acc.walk_ns, acc.walks), "ns");
    report.metric(
        "model.provider_build_ms",
        mean_span_ms(t, "provider_build"),
        "ms",
    );
    report.metric(
        "model.memo_hit_ratio",
        per(acc.memo_hits, acc.memo_hits + acc.memo_misses),
        "ratio",
    );
    let layers = layer_self_times(t.spans());
    let total: u64 = layers.iter().map(|(_, ns)| ns).sum();
    let mut shares = Vec::new();
    for (layer, ns) in layers {
        shares.push(format!(
            "{} {:.1} ms ({:.1}%)",
            layer.name(),
            ms(ns),
            100.0 * per(ns, total)
        ));
        if layer != Layer::Bench {
            report.metric(&format!("layer.{}.self_ms", layer.name()), ms(ns), "ms");
        }
    }
    report.note(format!("layer self time: {}", shares.join(", ")));
    report.metric("trace.wall_s", wall_traced, "s");
    report.metric("trace.overhead_s", wall_traced - wall_untraced, "s");

    report.count("traced_evaluations", acc.evaluations);
    report.count("replay_runs", acc.runs);
    report.count("events", acc.events);
    report.count("walks", acc.walks);
    report.count("route_unchanged_moves", d.route_unchanged_moves);
    report.count("incremental_moves", d.incremental_moves);
    report.count("memo_hits", acc.memo_hits);
    report.count("memo_misses", acc.memo_misses);
    report.count("spans", t.spans().len() as u64);
}
