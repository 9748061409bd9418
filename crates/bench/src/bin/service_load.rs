//! Throughput and latency of the exploration service under load.
//!
//! The experiment the service layer exists for: 1000 small solve jobs,
//! run two ways on the same machine —
//!
//! * **sequential** — one fresh `Explorer` per job, provider built from
//!   scratch each time: exactly what scripting the one-shot CLI in a
//!   shell loop used to cost (minus process startup, so the baseline is
//!   flattered);
//! * **batched** — all jobs submitted up front to one `MappingService`,
//!   a shared provider registry and pooled per-worker scratch arenas
//!   doing the amortisation.
//!
//! Jobs cycle through the three priority classes, so the queue actually
//! exercises class-ordered dispatch and the per-class sojourn
//! histograms (`noc_job_sojourn_us{class}`) fill with distinct
//! distributions — high-priority jobs leave the queue first and it
//! shows in their p50/p99.
//!
//! Reported: jobs/sec for both runs, the speedup, p50/p99 sojourn
//! latency of the batched run — overall (timed at the subscriber, like
//! a client would) and per priority class (from the service's own
//! metrics histograms) — the registry hit counts that explain the win,
//! and the observability overhead (the same batch with the whole
//! tracing/metrics layer disabled via
//! `ServiceConfig::without_observability`, which must cost within a few
//! percent of the instrumented run). The record lands in
//! `target/experiments/service_load.json`.
//!
//! Usage: `cargo run --release -p noc-bench --bin service_load [jobs]`

use noc_bench::{write_record, TextTable};
use noc_energy::Technology;
use noc_model::Mesh;
use noc_service::{
    Explorer, JobRequest, JobState, MappingService, Priority, SaConfig, SearchMethod,
    ServiceConfig, ServiceEvent, SolveRequest, Strategy,
};
use noc_sim::SimParams;
use serde::Serialize;
use std::time::Instant;

const EVALS_PER_JOB: u64 = 150;
const CLASSES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

#[derive(Serialize)]
struct ClassSojourn {
    class: &'static str,
    jobs: u64,
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(Serialize)]
struct Record {
    jobs: usize,
    workers: usize,
    evals_per_job: u64,
    sequential_elapsed_s: f64,
    sequential_jobs_per_s: f64,
    batched_elapsed_s: f64,
    batched_jobs_per_s: f64,
    speedup: f64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    sojourn_by_class: Vec<ClassSojourn>,
    registry_hits: u64,
    registry_misses: u64,
    scratch_runs: u64,
    trace_events: u64,
    unobserved_elapsed_s: f64,
    observability_overhead_percent: f64,
}

fn request(app: &noc_model::Cdcg, mesh: Mesh, seed: u64) -> SolveRequest {
    let mut config = SaConfig::quick(seed);
    config.max_evaluations = EVALS_PER_JOB;
    let mut request =
        SolveRequest::new(app.clone(), mesh, SearchMethod::SimulatedAnnealing(config));
    request.seed = seed;
    request
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs the full batch through one service; returns (elapsed seconds,
/// per-job costs in seed order).
fn run_batch(
    app: &noc_model::Cdcg,
    mesh: Mesh,
    jobs: usize,
    config: ServiceConfig,
) -> (f64, Vec<f64>) {
    let service = MappingService::start(config);
    let start = Instant::now();
    let ids: Vec<_> = (0..jobs as u64)
        .map(|seed| {
            service.submit(
                JobRequest::Solve(Box::new(request(app, mesh, seed))),
                CLASSES[(seed % 3) as usize],
            )
        })
        .collect();
    service.wait_all();
    let elapsed = start.elapsed().as_secs_f64();
    let costs = ids
        .iter()
        .enumerate()
        .map(|(index, id)| match service.status(*id) {
            Some(JobState::Done(result)) => result.as_solve().expect("solve result").outcome.cost,
            other => panic!("job {index} ended in state {other:?}"),
        })
        .collect();
    (elapsed, costs)
}

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2);
    // An 8x8 mesh makes the per-job provider build (the dense route
    // table the auto tier picks here) a real cost, so the registry's
    // build-once amortisation is measurable even on a single core.
    let app = noc_apps::large_mesh_workload(8, 8, 1);
    let mesh = Mesh::new(8, 8).expect("valid mesh");

    // Sequential baseline: a fresh Explorer (and so a fresh route
    // provider) per job, like N one-shot CLI invocations.
    let start = Instant::now();
    let mut sequential_costs = Vec::with_capacity(jobs);
    for seed in 0..jobs as u64 {
        let req = request(&app, mesh, seed);
        let explorer = Explorer::new(&req.app, req.mesh, Technology::t007(), SimParams::new());
        let outcome = explorer.explore(Strategy::Cdcm, req.method);
        sequential_costs.push(outcome.cost);
    }
    let sequential_elapsed = start.elapsed().as_secs_f64();

    // Batched run: everything through one service instance. A
    // subscriber thread timestamps each job's `Completed` event so the
    // sojourn latency distribution (submit → done) is observable from
    // the outside too, not just in the service's own histograms.
    let service = MappingService::start(ServiceConfig::new(workers));
    let events = service.subscribe();
    let collector = std::thread::spawn(move || {
        let mut done_at = Vec::new();
        while let Ok(event) = events.recv() {
            match event {
                ServiceEvent::Completed { job, .. } => done_at.push((job, Instant::now())),
                ServiceEvent::Failed { .. } => panic!("load job failed"),
                _ => {}
            }
        }
        done_at
    });

    let start = Instant::now();
    let mut submitted_at = Vec::with_capacity(jobs);
    let mut ids = Vec::with_capacity(jobs);
    for seed in 0..jobs as u64 {
        let id = service.submit(
            JobRequest::Solve(Box::new(request(&app, mesh, seed))),
            CLASSES[(seed % 3) as usize],
        );
        submitted_at.push((id, Instant::now()));
        ids.push(id);
    }
    service.wait_all();
    let batched_elapsed = start.elapsed().as_secs_f64();
    let stats = service.stats();

    // The batched results must be the sequential results, bit for bit —
    // the speedup is only worth reporting if the answers are identical.
    for (index, id) in ids.iter().enumerate() {
        match service.status(*id) {
            Some(JobState::Done(result)) => {
                let solve = result.as_solve().expect("solve result");
                assert_eq!(
                    solve.outcome.cost.to_bits(),
                    sequential_costs[index].to_bits(),
                    "job {index}: batched cost diverged from the sequential run"
                );
            }
            other => panic!("job {index} ended in state {other:?}"),
        }
    }

    // Per-class sojourn percentiles straight from the service's own
    // log-bucket histograms (microseconds → ms). This is the same data
    // the `metrics` socket op serves.
    let registry = service.handle().metrics();
    let sojourn_by_class: Vec<ClassSojourn> = CLASSES
        .iter()
        .map(|p| {
            let h = registry.histogram(&format!("noc_job_sojourn_us{{class=\"{}\"}}", p.name()));
            ClassSojourn {
                class: p.name(),
                jobs: h.count(),
                p50_ms: h.quantile(0.50) / 1e3,
                p99_ms: h.quantile(0.99) / 1e3,
            }
        })
        .collect();
    let trace_events = registry.counter("noc_trace_events_total").get();

    drop(service); // closes the event stream, ending the collector
    let done_at = collector.join().expect("collector thread");
    let mut latencies_ms: Vec<f64> = submitted_at
        .iter()
        .map(|(id, submitted)| {
            let (_, done) = done_at
                .iter()
                .find(|(done_id, _)| done_id == id)
                .expect("every job completes");
            done.duration_since(*submitted).as_secs_f64() * 1e3
        })
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    // Observability overhead: the identical batch with tracing, the
    // flight recorder and all metrics off. Same seeds, same costs —
    // only the wall clock may move, and barely.
    let (unobserved_elapsed, unobserved_costs) = run_batch(
        &app,
        mesh,
        jobs,
        ServiceConfig::new(workers).without_observability(),
    );
    for (index, (a, b)) in sequential_costs.iter().zip(&unobserved_costs).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "job {index}: disabling observability changed the result"
        );
    }
    let observability_overhead_percent = (batched_elapsed / unobserved_elapsed - 1.0) * 100.0;

    let record = Record {
        jobs,
        workers,
        evals_per_job: EVALS_PER_JOB,
        sequential_elapsed_s: sequential_elapsed,
        sequential_jobs_per_s: jobs as f64 / sequential_elapsed,
        batched_elapsed_s: batched_elapsed,
        batched_jobs_per_s: jobs as f64 / batched_elapsed,
        speedup: sequential_elapsed / batched_elapsed,
        p50_latency_ms: percentile(&latencies_ms, 0.50),
        p99_latency_ms: percentile(&latencies_ms, 0.99),
        sojourn_by_class,
        registry_hits: stats.registry_hits,
        registry_misses: stats.registry_misses,
        scratch_runs: stats.scratch_runs,
        trace_events,
        unobserved_elapsed_s: unobserved_elapsed,
        observability_overhead_percent,
    };

    let mut table = TextTable::new(["run", "elapsed (s)", "jobs/s"]);
    table.row([
        "sequential".to_owned(),
        format!("{:.3}", record.sequential_elapsed_s),
        format!("{:.1}", record.sequential_jobs_per_s),
    ]);
    table.row([
        format!("batched ({workers} workers)"),
        format!("{:.3}", record.batched_elapsed_s),
        format!("{:.1}", record.batched_jobs_per_s),
    ]);
    table.row([
        "batched, no obs".to_owned(),
        format!("{:.3}", record.unobserved_elapsed_s),
        format!("{:.1}", jobs as f64 / record.unobserved_elapsed_s),
    ]);
    println!("{}", table.render());
    println!("speedup:      {:.2}x", record.speedup);
    println!(
        "latency:      p50 {:.2} ms, p99 {:.2} ms (sojourn, all jobs submitted up front)",
        record.p50_latency_ms, record.p99_latency_ms
    );
    for class in &record.sojourn_by_class {
        println!(
            "  {:<8} p50 {:.2} ms, p99 {:.2} ms ({} jobs)",
            format!("{}:", class.class),
            class.p50_ms,
            class.p99_ms,
            class.jobs
        );
    }
    println!(
        "route cache:  {} builds, {} registry hits",
        record.registry_misses, record.registry_hits
    );
    println!("scratch:      {} pooled runs", record.scratch_runs);
    println!(
        "obs overhead: {:+.2}% wall clock for {} trace events + metrics",
        record.observability_overhead_percent, record.trace_events
    );

    assert_eq!(
        record.registry_misses, 1,
        "all jobs share one mesh/routing/faults key — one provider build"
    );
    assert!(
        record.speedup > 1.0,
        "batched service must beat the sequential loop (got {:.2}x)",
        record.speedup
    );
    // Every job records at least job_start/job_end on its flight tape.
    assert!(
        record.trace_events >= 2 * jobs as u64,
        "flight recorder missed jobs: {} events for {} jobs",
        record.trace_events,
        jobs
    );
    // High-priority jobs must not wait longer than low-priority ones in
    // a class-ordered queue (log-bucket quantiles; compare coarsely).
    let (high, low) = (&record.sojourn_by_class[0], &record.sojourn_by_class[2]);
    assert!(
        high.p50_ms <= low.p50_ms,
        "priority inversion: high p50 {:.2} ms > low p50 {:.2} ms",
        high.p50_ms,
        low.p50_ms
    );

    let path = write_record("service_load", &record);
    println!("record:       {}", path.display());
}
