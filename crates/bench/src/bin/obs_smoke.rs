//! CI smoke test for the `noc-obs` observability layer.
//!
//! Four gates, each an assertion (nonzero exit on any failure):
//!
//! * **Metric catalogue** — after a served batch, every catalogued
//!   service metric is present in the Prometheus exposition with sane
//!   values, and the JSON snapshot parses and agrees with it.
//! * **Flight recorder** — every job leaves a tape framed by
//!   `job_start`/`job_end`, and the recorder stays bounded: per-job
//!   rings drop oldest (counted), the job map evicts oldest-id first.
//! * **Determinism** — the same batch with observability disabled is
//!   bit-identical (cost bits per job); tracing only ever reads.
//! * **No-op overhead** — `emit_with` with no trace context installed
//!   must not even build its event: the closure never runs, and a
//!   million no-op emits cost nanoseconds each, cheap enough to leave
//!   in every hot loop unconditionally.
//!
//! The summary lands in `target/experiments/obs_smoke.json`.
//!
//! Usage: `cargo run --release -p noc-bench --bin obs_smoke`

use noc_bench::write_record;
use noc_model::Mesh;
use noc_obs::{FlightRecorder, TraceEvent};
use noc_service::{
    JobId, JobRequest, JobState, MappingService, Priority, SaConfig, SearchMethod, ServiceConfig,
    SolveRequest,
};
use serde::{Serialize, Value};
use std::time::Instant;

const JOBS: usize = 24;

#[derive(Serialize)]
struct Record {
    jobs: usize,
    trace_events: u64,
    search_evaluations: u64,
    tape_events_job0: usize,
    ring_dropped: u64,
    noop_emits: u64,
    noop_ns_per_emit: f64,
}

fn request(seed: u64) -> JobRequest {
    let app = noc_apps::large_mesh_workload(3, 3, 1);
    let mesh = Mesh::new(3, 3).expect("valid mesh");
    let mut config = SaConfig::quick(seed);
    config.max_evaluations = 120;
    let mut request = SolveRequest::new(app, mesh, SearchMethod::SimulatedAnnealing(config));
    request.seed = seed;
    JobRequest::Solve(Box::new(request))
}

fn run_batch(config: ServiceConfig) -> (MappingService, Vec<f64>) {
    let service = MappingService::start(config);
    let ids: Vec<_> = (0..JOBS as u64)
        .map(|seed| service.submit(request(seed), Priority::Normal))
        .collect();
    service.wait_all();
    let costs = ids
        .iter()
        .map(|id| match service.status(*id) {
            Some(JobState::Done(result)) => result.as_solve().expect("solve").outcome.cost,
            other => panic!("job {id:?} ended in state {other:?}"),
        })
        .collect();
    (service, costs)
}

/// Gates 1–3: catalogue, flight recorder, and on/off bit-identity.
fn service_gates() -> (u64, u64, usize) {
    let (service, observed_costs) = run_batch(ServiceConfig::new(2));
    let handle = service.handle();

    // Gate 1: the catalogue is live and the two renderings agree.
    let text = handle.metrics_exposition();
    for needle in [
        "# TYPE noc_jobs_submitted_total counter",
        "noc_jobs_submitted_total{class=\"normal\"} 24",
        "noc_jobs_completed_total 24",
        "noc_queue_depth{class=\"normal\"} 0",
        "noc_workers_busy 0",
        "# TYPE noc_job_sojourn_us histogram",
        "noc_job_sojourn_us_count{class=\"normal\"} 24",
        "noc_registry_misses_total 1",
        "noc_schedule_runs_total",
    ] {
        assert!(
            text.contains(needle),
            "exposition missing `{needle}`:\n{text}"
        );
    }
    let snapshot = serde_json::parse(&handle.metrics_json()).expect("snapshot parses");
    let completed = snapshot
        .get_field("counters")
        .and_then(|c| c.get_field("noc_jobs_completed_total"))
        .unwrap_or_else(|| panic!("snapshot lacks completed counter: {snapshot:?}"));
    assert_eq!(completed, &Value::UInt(24), "snapshot disagrees");

    let registry = handle.metrics();
    let trace_events = registry.counter("noc_trace_events_total").get();
    let evaluations = registry.counter("noc_search_evaluations_total").get();
    assert!(
        evaluations >= JOBS as u64 * 100,
        "evaluations: {evaluations}"
    );

    // Gate 2: every job has a framed tape.
    let mut tape_events_job0 = 0;
    assert_eq!(handle.flight_jobs().len(), JOBS, "one tape per job");
    for id in handle.flight_jobs() {
        let tape = handle.flight_snapshot(id).expect("tape exists");
        let first = tape.events.first().expect("tape not empty");
        let last = tape.events.last().expect("tape not empty");
        assert_eq!(first.kind, "job_start", "job {id:?}: {:?}", first.kind);
        assert_eq!(last.kind, "job_end", "job {id:?}: {:?}", last.kind);
        if id == JobId(0) {
            tape_events_job0 = tape.events.len();
        }
    }

    // Gate 3: observability off → identical results, no tapes.
    let (dark, dark_costs) = run_batch(ServiceConfig::new(2).without_observability());
    assert_eq!(
        observed_costs
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>(),
        dark_costs.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        "observability changed a result"
    );
    assert!(
        dark.handle().flight_jobs().is_empty(),
        "dark service recorded tapes"
    );

    (trace_events, evaluations, tape_events_job0)
}

/// Gate 2b: the recorder's two bounds, driven directly.
fn recorder_bounds() -> u64 {
    let recorder = FlightRecorder::new(4, 2);
    for job in 0..3u64 {
        for round in 0..6u64 {
            let mut event = TraceEvent::new("round");
            event.round = Some(round);
            recorder.push(job, &event);
        }
    }
    // Job map bounded to 2: job 0 (oldest id) evicted.
    assert_eq!(recorder.jobs(), vec![1, 2], "oldest job evicted");
    let tape = recorder.snapshot(2).expect("tape for job 2");
    // Ring bounded to 4: rounds 2..6 survive, 2 dropped (and counted).
    assert_eq!(tape.events.len(), 4, "ring holds 4");
    assert_eq!(tape.events[0].round, Some(2), "oldest events dropped");
    assert_eq!(tape.dropped, 2, "drops are counted");
    tape.dropped
}

/// Gate 4: emit_with without a context never builds the event.
fn noop_overhead() -> (u64, f64) {
    const EMITS: u64 = 1_000_000;
    let start = Instant::now();
    for i in 0..EMITS {
        noc_obs::emit_with(|| {
            // Must never run: no with_job context is installed here.
            panic!("emit_with built an event outside a trace context ({i})")
        });
    }
    let ns_per_emit = start.elapsed().as_nanos() as f64 / EMITS as f64;
    // Generous bound (CI machines vary): a disabled emit is a
    // thread-local flag check, orders of magnitude under 1 µs.
    assert!(
        ns_per_emit < 1_000.0,
        "no-op emit too slow: {ns_per_emit:.1} ns"
    );
    (EMITS, ns_per_emit)
}

fn main() {
    let (trace_events, search_evaluations, tape_events_job0) = service_gates();
    let ring_dropped = recorder_bounds();
    let (noop_emits, noop_ns_per_emit) = noop_overhead();

    let record = Record {
        jobs: JOBS,
        trace_events,
        search_evaluations,
        tape_events_job0,
        ring_dropped,
        noop_emits,
        noop_ns_per_emit,
    };
    println!("metrics:      catalogue live, exposition and snapshot agree");
    println!(
        "flight:       {} tapes, job 0 tape {} events, ring drop test dropped {}",
        JOBS, record.tape_events_job0, record.ring_dropped
    );
    println!(
        "determinism:  {} jobs bit-identical with observability off",
        JOBS
    );
    println!(
        "no-op emit:   {:.1} ns/emit over {} emits",
        record.noop_ns_per_emit, record.noop_emits
    );
    let path = write_record("obs_smoke", &record);
    println!("record:       {}", path.display());
}
