//! Observability must be free of observable effects: turning tracing
//! and metrics on or off cannot change a single result bit.
//!
//! The `noc-obs` layer promises that emission only ever *reads* search
//! state — no RNG draws, no clock reads, no reordering. These repo-level
//! tests pin that contract:
//!
//! 1. for random instances across all three engines and several worker
//!    counts, a fully-observed run (trace sink installed, flight
//!    recorder live) is bit-identical to a `without_observability` run
//!    (property loop, scaled by `NOC_FUZZ_CASES` in the scheduled CI
//!    fuzz job) — and the observed run demonstrably *did* trace, so the
//!    comparison is never vacuous;
//! 2. the Prometheus exposition format is golden: metric naming,
//!    header order, label syntax and histogram bucket rendering are
//!    byte-exact, so dashboards and the `metrics` socket op can rely
//!    on the format across releases.

use noc::model::{Cdcg, Mesh};
use noc_obs::metrics::HISTOGRAM_BUCKETS;
use noc_obs::{MemorySink, MetricsRegistry};
use noc_service::{
    GaConfig, JobRequest, JobState, MappingService, Priority, SaConfig, SearchMethod,
    ServiceConfig, SolveRequest, SolveResult, TabuConfig,
};
use std::sync::Arc;

/// Cases for the property loop; override with `NOC_FUZZ_CASES` (the
/// scheduled CI fuzz job runs hundreds).
fn fuzz_cases() -> u64 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn instance(seed: u64) -> (Cdcg, Mesh) {
    let mut state = seed;
    let cores = 3 + (splitmix(&mut state) % 5) as usize; // 3..=7
    let packets = 8 + (splitmix(&mut state) % 16) as usize; // 8..=23
    let width = 2 + (splitmix(&mut state) % 2) as usize; // 2..=3
    let height = 3;
    let cores = cores.min(width * height);
    let cdcg = noc::apps::generate(&noc::apps::TgffConfig::new(
        cores,
        packets,
        (packets as u64) * 50,
        splitmix(&mut state),
    ));
    (cdcg, Mesh::new(width, height).expect("valid dims"))
}

/// Everything observable about a solve result except wall-clock time,
/// floats as bit patterns: bit-identical means the same arithmetic.
fn fingerprint(result: &SolveResult) -> String {
    format!(
        "{:?}|{:#x}|{}|{:?}|{:?}|{}|{:#x}|{}",
        result.outcome.mapping,
        result.outcome.cost.to_bits(),
        result.outcome.evaluations,
        result.telemetry,
        result.breakdown,
        result.texec_cycles,
        result.texec_ns.to_bits(),
        result.routing,
    )
}

/// One job per engine on the case's instance, all seeded by `case`.
fn batch(case: u64) -> Vec<JobRequest> {
    let (app, mesh) = instance(0x0B5E_0000 + case);
    let mut sa = SaConfig::quick(case);
    sa.max_evaluations = 300;
    let mut ga = GaConfig::new(case);
    ga.budget = 300;
    let mut tabu = TabuConfig::new(case);
    tabu.budget = 300;
    [
        SearchMethod::SimulatedAnnealing(sa),
        SearchMethod::Genetic(ga),
        SearchMethod::Tabu(tabu),
    ]
    .into_iter()
    .map(|method| {
        let mut request = SolveRequest::new(app.clone(), mesh, method);
        request.seed = case;
        JobRequest::Solve(Box::new(request))
    })
    .collect()
}

/// Runs `requests` on a fresh service, returning per-job fingerprints
/// in submission order plus how many trace events the service counted.
fn run(config: ServiceConfig, requests: &[JobRequest]) -> (Vec<String>, u64, usize) {
    let service = MappingService::start(config);
    let ids: Vec<_> = requests
        .iter()
        .map(|request| service.submit(request.clone(), Priority::Normal))
        .collect();
    service.wait_all();
    let fingerprints = ids
        .iter()
        .map(|id| match service.status(*id) {
            Some(JobState::Done(result)) => {
                fingerprint(result.as_solve().expect("solve job yields a solve result"))
            }
            other => panic!("job {id:?} ended in unexpected state {other:?}"),
        })
        .collect();
    let handle = service.handle();
    let trace_events = handle.metrics().counter("noc_trace_events_total").get();
    let tapes = handle.flight_jobs().len();
    (fingerprints, trace_events, tapes)
}

/// Property: observability on (with an external trace sink attached,
/// the most invasive configuration) and observability off produce
/// bit-identical results for every engine and worker count — and the
/// observed run really did emit, so the equality is meaningful.
#[test]
fn tracing_on_and_off_are_bit_identical() {
    for case in 0..fuzz_cases() {
        let requests = batch(case);
        for workers in [1, 2] {
            let sink = Arc::new(MemorySink::new());
            let observed_config = ServiceConfig::new(workers).with_trace_sink(sink.clone());
            let (observed, trace_events, tapes) = run(observed_config, &requests);
            let (dark, dark_events, dark_tapes) = run(
                ServiceConfig::new(workers).without_observability(),
                &requests,
            );

            assert_eq!(
                observed, dark,
                "case {case}, {workers} workers: tracing changed a result"
            );
            // Non-vacuity: the observed run traced every job...
            assert_eq!(tapes, requests.len(), "case {case}: missing tapes");
            assert!(
                trace_events >= 2 * requests.len() as u64,
                "case {case}: too few trace events ({trace_events})"
            );
            assert!(
                !sink.take().is_empty(),
                "case {case}: external sink saw nothing"
            );
            // ...and the dark run really was dark.
            assert_eq!(dark_tapes, 0, "case {case}: dark run recorded tapes");
            assert_eq!(dark_events, 0, "case {case}: dark run counted events");
        }
    }
}

/// A CDCM search (the GA) on a memo-compatible tier must surface its
/// walk-memo counters in the service registry — the source the
/// `metrics` socket op (and `noc-cli metrics`) renders. A 30x30 mesh is
/// the smallest square one the registry serves from the implicit tier.
#[test]
fn batch_and_memo_counters_reach_the_service_registry() {
    let (app, _) = instance(0xBA7C);
    let mesh = Mesh::new(30, 30).expect("valid dims");
    let mut ga = GaConfig::new(3);
    ga.budget = 300;
    let mut request = SolveRequest::new(app, mesh, SearchMethod::Genetic(ga));
    request.seed = 3;
    let service = MappingService::start(ServiceConfig::new(1));
    service.submit(JobRequest::Solve(Box::new(request)), Priority::Normal);
    service.wait_all();
    let registry = service.handle().metrics();
    assert!(registry.counter("noc_walk_memo_hits_total").get() > 0);
    let ratio = registry.gauge("noc_walk_memo_hit_ratio_permille").get();
    assert!(
        (1..=1000).contains(&ratio),
        "hit ratio gauge out of range: {ratio}"
    );
}

/// Golden exposition: the Prometheus text format is byte-exact for a
/// known registry state. Any change to naming, ordering, labels or
/// bucket rendering must show up here as a deliberate diff.
#[test]
fn exposition_format_is_golden() {
    let registry = MetricsRegistry::new();
    registry.describe("jobs_total", "Jobs submitted.");
    registry.counter("jobs_total{class=\"high\"}").inc(2);
    registry.counter("jobs_total{class=\"low\"}").inc(5);
    registry.gauge("queue_depth").set(3);
    let sojourn = registry.histogram("sojourn_us");
    sojourn.observe(1);
    sojourn.observe(3);

    let mut expected = String::from(
        "# HELP jobs_total Jobs submitted.\n\
         # TYPE jobs_total counter\n\
         jobs_total{class=\"high\"} 2\n\
         jobs_total{class=\"low\"} 5\n\
         # TYPE queue_depth gauge\n\
         queue_depth 3\n\
         # TYPE sojourn_us histogram\n\
         sojourn_us_bucket{le=\"1\"} 1\n\
         sojourn_us_bucket{le=\"2\"} 1\n",
    );
    // From the 4-bound up, both observations are inside every bucket.
    for i in 2..HISTOGRAM_BUCKETS {
        expected.push_str(&format!("sojourn_us_bucket{{le=\"{}\"}} 2\n", 1u64 << i));
    }
    expected.push_str(
        "sojourn_us_bucket{le=\"+Inf\"} 2\n\
         sojourn_us_sum 4\n\
         sojourn_us_count 2\n",
    );
    assert_eq!(registry.exposition(), expected);

    // The JSON snapshot renders the same state, also deterministically.
    assert_eq!(
        registry.snapshot_json(),
        "{\"counters\":{\"jobs_total{class=\\\"high\\\"}\":2,\
         \"jobs_total{class=\\\"low\\\"}\":5},\
         \"gauges\":{\"queue_depth\":3},\
         \"histograms\":{\"sojourn_us\":{\"count\":2,\"sum\":4,\
         \"buckets\":[[1,1],[4,2],[\"+Inf\",2]]}}}"
    );
}
