//! Seeded fuzz of solve jobs on the wire.
//!
//! Each case draws a search method with small random tuning values,
//! zeros included, and submits it through `handle_line` to a service
//! with one worker. Every job must end `done` or `failed` within a
//! deadline, and a final probe job must complete: no tuning value a
//! client can send may panic or wedge the worker.
//!
//! Tier-1 runs a handful of cases; the scheduled CI fuzz job raises
//! them through `NOC_FUZZ_CASES`.

use noc::apps::paper_example::figure1_cdcg;
use noc::mapping::{
    AdaptiveConfig, Crossover, GaConfig, PortfolioConfig, RestartBudget, SaConfig, SearchMethod,
    Strategy, TabuConfig, Tenure,
};
use noc::model::Mesh;
use noc_service::protocol::{encode_submit, handle_line};
use noc_service::{
    JobRequest, MappingService, Priority, ServiceConfig, ServiceHandle, SolveRequest,
};
use serde_json::JsonValue as Value;
use std::time::{Duration, Instant};

/// Cases; override with `NOC_FUZZ_CASES` (the scheduled CI fuzz job
/// runs hundreds).
fn fuzz_cases() -> u64 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..=max`.
    fn upto(&mut self, max: u64) -> u64 {
        self.next() % (max + 1)
    }

    fn small(&mut self, max: usize) -> usize {
        self.upto(max as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// A factor from a set that includes zero, negatives and values
    /// above one.
    fn factor(&mut self) -> f64 {
        [-0.5, 0.0, 0.5, 0.95, 1.0, 1.5][self.small(5)]
    }

    fn tenure(&mut self) -> Tenure {
        match self.small(6) {
            6 => Tenure::Auto,
            n => Tenure::Fixed(n),
        }
    }
}

fn sa_config(rng: &mut Rng) -> SaConfig {
    let mut config = SaConfig::quick(rng.next());
    config.initial_temperature = rng.coin().then(|| rng.factor() * 10.0);
    config.cooling = rng.factor();
    config.moves_per_epoch = rng.coin().then(|| rng.small(4));
    config.stall_epochs = rng.small(4);
    config.max_evaluations = rng.upto(60);
    config
}

fn method(rng: &mut Rng) -> SearchMethod {
    let seed = rng.next();
    match rng.upto(8) {
        0 => SearchMethod::SimulatedAnnealing(sa_config(rng)),
        1 => SearchMethod::MultiStartSa {
            config: sa_config(rng),
            restarts: rng.upto(4) as u32,
            budget: if rng.coin() {
                RestartBudget::Total
            } else {
                RestartBudget::PerRestart
            },
        },
        2 => SearchMethod::Exhaustive,
        3 => SearchMethod::Random {
            samples: rng.upto(20),
            seed,
        },
        4 => SearchMethod::Greedy {
            restarts: rng.upto(3) as u32,
            seed,
        },
        5 => {
            let mut config = AdaptiveConfig::new(seed);
            config.population = rng.small(4);
            config.rounds = rng.small(3);
            config.budget = rng.upto(60);
            config.cooling = rng.factor();
            config.moves_per_epoch = rng.coin().then(|| rng.small(4));
            config.reheat = rng.factor();
            SearchMethod::Adaptive(config)
        }
        6 => {
            let mut config = GaConfig::new(seed);
            config.population = rng.small(6);
            config.elite = rng.small(3);
            config.tournament = rng.small(4);
            config.crossover = if rng.coin() {
                Crossover::Pmx
            } else {
                Crossover::Cycle
            };
            config.crossover_rate = rng.factor();
            config.budget = rng.upto(60);
            SearchMethod::Genetic(config)
        }
        7 => {
            let mut config = TabuConfig::new(seed);
            config.tenure = rng.tenure();
            config.neighborhood = rng.small(8);
            config.budget = rng.upto(60);
            SearchMethod::Tabu(config)
        }
        _ => {
            let mut config = PortfolioConfig::new(seed);
            config.budget = rng.upto(80);
            config.restarts = rng.small(3);
            config.population = rng.small(4);
            config.rounds = rng.small(3);
            config.tenure = rng.tenure();
            SearchMethod::Portfolio(config)
        }
    }
}

/// Submits `request` and returns its terminal reply. Panics if the job
/// is still pending or running after 60 s.
fn settle(handle: &ServiceHandle, request: SolveRequest) -> String {
    let line = encode_submit(&JobRequest::Solve(Box::new(request)), Priority::Normal);
    let submitted = serde_json::parse(&handle_line(handle, &line).line).expect("a JSON reply");
    let id = match submitted.get_field("job") {
        Some(Value::UInt(id)) => *id,
        other => panic!("submit refused: {other:?}"),
    };
    let status = format!("{{\"op\":\"status\",\"job\":{id}}}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let reply = handle_line(handle, &status).line;
        if !reply.contains("\"state\":\"pending\"") && !reply.contains("\"state\":\"running\"") {
            return reply;
        }
        assert!(Instant::now() < deadline, "job {id} never ended: {reply}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn every_wire_job_ends_and_the_worker_survives() {
    let service = MappingService::start(ServiceConfig::new(1));
    let handle = service.handle();
    let meshes =
        [Mesh::new(2, 2), Mesh::new(3, 2), Mesh::new3(2, 2, 2)].map(|m| m.expect("a mesh"));
    let mut rng = Rng(0x5EED_F3B1);
    for case in 0..fuzz_cases() {
        let method = method(&mut rng);
        let mesh = meshes[rng.small(2)];
        let mut request = SolveRequest::new(figure1_cdcg(), mesh, method);
        request.strategy = if rng.coin() {
            Strategy::Cwm
        } else {
            Strategy::Cdcm
        };
        let reply = settle(&handle, request);
        assert!(
            reply.contains("\"state\":\"done\"")
                || reply.contains("\"state\":\"failed\",\"error\":"),
            "case {case}, {method:?}: {reply}"
        );
    }
    let probe = SolveRequest::new(
        figure1_cdcg(),
        Mesh::new(2, 2).expect("a mesh"),
        SearchMethod::Exhaustive,
    );
    let reply = settle(&handle, probe);
    assert!(reply.contains("\"state\":\"done\""), "probe: {reply}");
}
