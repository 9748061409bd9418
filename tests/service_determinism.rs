//! Determinism contract of the exploration service layer.
//!
//! The service promises that concurrency is an implementation detail:
//! for a fixed request, the result is a pure function of the request's
//! seed, never of the worker count, the submission interleaving or the
//! scheduling order. These tests pin that contract at the repo level:
//!
//! 1. the same batch run on 1, 2 and 4 workers is bit-identical,
//!    telemetry included;
//! 2. shuffled submission still executes priority classes strictly
//!    high → normal → low, FIFO within a class;
//! 3. for random instances, the service agrees exactly with a direct
//!    [`Explorer`] call on the same seed (property loop, scaled by
//!    `NOC_FUZZ_CASES` in the scheduled CI fuzz job).

use noc::apps::TgffConfig;
use noc::energy::Technology;
use noc::model::{Cdcg, Mesh};
use noc::sim::SimParams;
use noc_service::{
    CancelToken, Explorer, GaConfig, JobRequest, JobState, MappingService, Priority, SaConfig,
    SearchMethod, ServiceConfig, ServiceEvent, SolveRequest, SolveResult, TabuConfig,
};

/// Cases for the property loop; override with `NOC_FUZZ_CASES` (the
/// scheduled CI fuzz job runs hundreds).
fn fuzz_cases() -> u64 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
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
    let packets = 8 + (splitmix(&mut state) % 20) as usize; // 8..=27
    let width = 2 + (splitmix(&mut state) % 2) as usize; // 2..=3
    let height = 3;
    let cores = cores.min(width * height);
    let cdcg = noc::apps::generate(&TgffConfig::new(
        cores,
        packets,
        (packets as u64) * 50,
        splitmix(&mut state),
    ));
    (cdcg, Mesh::new(width, height).expect("valid dims"))
}

/// Everything observable about a solve result except wall-clock time.
/// Floats go in as bit patterns: "deterministic" here means the exact
/// same arithmetic, not approximately the same answer.
fn fingerprint(result: &SolveResult) -> String {
    format!(
        "{:?}|{:#x}|{}|{}|{}|{:?}|{:?}|{:?}|{}|{:#x}|{}|{}",
        result.outcome.mapping,
        result.outcome.cost.to_bits(),
        result.outcome.evaluations,
        result.outcome.method,
        result.outcome.objective,
        result.telemetry,
        result.breakdown,
        result.cwm_dynamic,
        result.texec_cycles,
        result.texec_ns.to_bits(),
        result.routing,
        result.route_tier,
    )
}

/// A mixed batch of solve jobs: three engines, several seeds each, all
/// on the same mesh so the provider registry is genuinely shared.
fn mixed_batch() -> Vec<SolveRequest> {
    let app = noc::apps::large_mesh_workload(3, 3, 1);
    let mesh = Mesh::new(3, 3).expect("valid dims");
    let mut requests = Vec::new();
    for seed in 0..3 {
        let mut sa = SaConfig::quick(seed);
        sa.max_evaluations = 400;
        let mut ga = GaConfig::new(seed);
        ga.budget = 400;
        let mut tabu = TabuConfig::new(seed);
        tabu.budget = 400;
        for method in [
            SearchMethod::SimulatedAnnealing(sa),
            SearchMethod::Genetic(ga),
            SearchMethod::Tabu(tabu),
        ] {
            let mut request = SolveRequest::new(app.clone(), mesh, method);
            request.seed = seed;
            requests.push(request);
        }
    }
    requests
}

/// Runs a batch on one service instance and returns per-job
/// fingerprints in submission order.
fn run_batch(workers: usize, requests: &[SolveRequest]) -> Vec<String> {
    let service = MappingService::start(ServiceConfig::new(workers));
    let ids: Vec<_> = requests
        .iter()
        .map(|request| {
            service.submit(
                JobRequest::Solve(Box::new(request.clone())),
                Priority::Normal,
            )
        })
        .collect();
    service.wait_all();
    ids.iter()
        .map(|id| match service.status(*id) {
            Some(JobState::Done(result)) => {
                fingerprint(result.as_solve().expect("solve job yields a solve result"))
            }
            other => panic!("job {id:?} ended in unexpected state {other:?}"),
        })
        .collect()
}

/// Worker count must be invisible in the results: 1, 2 and 4 workers
/// produce bit-identical outcomes, telemetry, energies and timings.
#[test]
fn results_are_bit_identical_across_worker_counts() {
    let requests = mixed_batch();
    let serial = run_batch(1, &requests);
    for workers in [2, 4] {
        let concurrent = run_batch(workers, &requests);
        assert_eq!(
            serial, concurrent,
            "worker count {workers} changed at least one result"
        );
    }
}

/// Shuffled submission order must not leak into execution order:
/// classes run strictly high → normal → low, FIFO within a class. A
/// single worker pinned on a long blocker job makes dispatch order
/// fully observable through the `Started` event stream.
#[test]
fn shuffled_submission_honors_priority_classes() {
    let app = noc::apps::large_mesh_workload(3, 3, 1);
    let mesh = Mesh::new(3, 3).expect("valid dims");
    let request = |evals: u64| {
        let mut sa = SaConfig::quick(7);
        sa.max_evaluations = evals;
        JobRequest::Solve(Box::new(SolveRequest::new(
            app.clone(),
            mesh,
            SearchMethod::SimulatedAnnealing(sa),
        )))
    };

    let service = MappingService::start(ServiceConfig::new(1));
    let events = service.subscribe();
    // Pin the only worker so every later submission queues up behind it.
    let blocker = service.submit(request(200_000), Priority::High);
    loop {
        match events.recv().expect("service event stream stays open") {
            ServiceEvent::Started { job } if job == blocker => break,
            _ => continue,
        }
    }

    // A deterministic shuffle of three jobs per class.
    let classes = [
        Priority::Low,
        Priority::High,
        Priority::Normal,
        Priority::Low,
        Priority::Normal,
        Priority::High,
        Priority::High,
        Priority::Low,
        Priority::Normal,
    ];
    let mut by_class: Vec<Vec<_>> = vec![Vec::new(); 3];
    for class in classes {
        let id = service.submit(request(50), class);
        by_class[class.class()].push(id);
    }
    let expected: Vec<_> = by_class.into_iter().flatten().collect();

    service.wait_all();
    let mut started = Vec::new();
    while let Ok(event) = events.try_recv() {
        if let ServiceEvent::Started { job } = event {
            if job != blocker {
                started.push(job);
            }
        }
    }
    assert_eq!(
        started, expected,
        "dispatch order must be priority classes in order, FIFO within each"
    );
}

/// Property: for random instances and seeds, the service returns
/// exactly what a direct `Explorer` call returns — same mapping, same
/// cost bits, same evaluation count, same telemetry.
#[test]
fn service_agrees_with_direct_explorer_per_seed() {
    let service = MappingService::start(ServiceConfig::new(2));
    for case in 0..fuzz_cases() {
        let (app, mesh) = instance(0xA5EE_D000 + case);
        let mut sa = SaConfig::quick(case);
        sa.max_evaluations = 600;
        let method = SearchMethod::SimulatedAnnealing(sa);

        let mut request = SolveRequest::new(app.clone(), mesh, method);
        request.seed = case;
        let strategy = request.strategy;
        let id = service.submit(JobRequest::Solve(Box::new(request)), Priority::Normal);
        let state = service.wait(id).expect("job exists");
        let JobState::Done(result) = state else {
            panic!("case {case}: job ended in unexpected state {state:?}");
        };
        let via_service = result.as_solve().expect("solve job yields a solve result");

        let explorer = Explorer::new(&app, mesh, Technology::t007(), SimParams::new());
        let direct = explorer
            .search(strategy, method, None, &CancelToken::new())
            .expect("unpinned search never fails");

        assert_eq!(
            via_service.outcome.mapping, direct.outcome.mapping,
            "case {case}: mapping diverged"
        );
        assert_eq!(
            via_service.outcome.cost.to_bits(),
            direct.outcome.cost.to_bits(),
            "case {case}: cost bits diverged"
        );
        assert_eq!(
            via_service.outcome.evaluations, direct.outcome.evaluations,
            "case {case}: evaluation count diverged"
        );
        assert_eq!(
            via_service.telemetry, direct.telemetry,
            "case {case}: telemetry diverged"
        );
    }
}
