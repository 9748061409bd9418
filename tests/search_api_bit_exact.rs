//! Seed-pinned trajectories of the search entry points that share loops:
//! pinned simulated annealing (driven through the service, the path the
//! CLI and the socket take), the full-cost annealer behind
//! `pareto_front`, static multi-start SA (`sa-multi`) and the portfolio.
//!
//! The constants were captured at commit `6d201a0`, while pinned jobs
//! still ran their own annealing loop and multi-start SA still had its
//! own wrapper functions. Any divergence means one of these entry points
//! no longer walks its old trajectory.

use noc::apps::TgffConfig;
use noc::energy::Technology;
use noc::mapping::{
    anneal, pareto_front, Explorer, PortfolioConfig, RestartBudget, SaConfig, SearchMethod,
    SearchOutcome, Strategy, WeightedObjective,
};
use noc::model::{Cdcg, CoreId, Mapping, Mesh, TileId};
use noc::sim::SimParams;
use noc_service::{
    Constraints, JobRequest, JobState, MappingService, Priority, ServiceConfig, SolveRequest,
};

fn instance(width: usize, height: usize, cores: usize, packets: usize, seed: u64) -> (Cdcg, Mesh) {
    let cdcg = noc::apps::generate(&TgffConfig::new(cores, packets, packets as u64 * 64, seed));
    (cdcg, Mesh::new(width, height).unwrap())
}

fn tiles_of(mapping: &Mapping) -> Vec<usize> {
    mapping.assignments().map(|(_, t)| t.index()).collect()
}

fn pins(pairs: &[(usize, usize)]) -> Constraints {
    pairs
        .iter()
        .fold(Constraints::new(), |pins, &(core, tile)| {
            pins.pin(CoreId::new(core), TileId::new(tile)).unwrap()
        })
}

fn sa(seed: u64) -> SaConfig {
    let mut config = SaConfig::quick(seed);
    config.max_evaluations = 1_500;
    config
}

/// One recorded search result: winning tile list, cost and billed
/// evaluations.
struct Capture {
    tiles: &'static [usize],
    cost: f64,
    evaluations: u64,
}

fn assert_capture(label: &str, outcome: &SearchOutcome, want: &Capture) {
    assert_eq!(tiles_of(&outcome.mapping), want.tiles, "{label}: tiles");
    assert_eq!(
        outcome.cost.to_bits(),
        want.cost.to_bits(),
        "{label}: cost {} vs {}",
        outcome.cost,
        want.cost
    );
    assert_eq!(
        outcome.evaluations, want.evaluations,
        "{label}: evaluations"
    );
}

/// Pinned SA on both cost models, for two instances with free tiles to
/// spare: the pins stay put and the trajectory is the captured one.
#[test]
fn pinned_sa_trajectories_match_the_captures() {
    const WANT: [Capture; 4] = [
        Capture {
            tiles: &[4, 1, 2, 0, 8, 6, 3, 7],
            cost: 384.67999999999995,
            evaluations: 665,
        },
        Capture {
            tiles: &[4, 2, 5, 0, 8, 1, 3, 7],
            cost: 6787.648999999999,
            evaluations: 737,
        },
        Capture {
            tiles: &[9, 15, 8, 5, 13, 0, 12, 2, 10, 6, 4, 1],
            cost: 864.008,
            evaluations: 1425,
        },
        Capture {
            tiles: &[7, 15, 13, 9, 11, 0, 10, 14, 3, 6, 12, 2],
            cost: 16532.603,
            evaluations: 1500,
        },
    ];
    let service = MappingService::start(ServiceConfig::new(1));
    let cases = [
        (instance(3, 3, 8, 24, 7), pins(&[(0, 4), (3, 0)]), 7u64),
        (
            instance(4, 4, 12, 40, 11),
            pins(&[(1, 15), (5, 0), (9, 6)]),
            11,
        ),
    ];
    let runs = cases
        .iter()
        .flat_map(|case| [Strategy::Cwm, Strategy::Cdcm].map(|strategy| (case, strategy)));
    let ids: Vec<_> = runs
        .clone()
        .map(|(((app, mesh), pins, seed), strategy)| {
            let config = sa(*seed);
            let mut request =
                SolveRequest::new(app.clone(), *mesh, SearchMethod::SimulatedAnnealing(config));
            request.strategy = strategy;
            request.pins = Some(pins.clone());
            request.sa_config = config;
            service.submit(JobRequest::Solve(Box::new(request)), Priority::Normal)
        })
        .collect();
    for (i, ((_, pins, seed), strategy)) in runs.enumerate() {
        let label = format!("seed {seed} {strategy:?}");
        let state = service.wait(ids[i]);
        let Some(JobState::Done(result)) = state else {
            panic!("{label}: pinned job ended {state:?}");
        };
        let outcome = &result.as_solve().unwrap().outcome;
        assert_capture(&label, outcome, &WANT[i]);
        assert_eq!(outcome.method, "SA-pinned", "{label}");
        assert!(pins.satisfied_by(&outcome.mapping), "{label}");
    }
}

/// `pareto_front` runs the full-cost annealer once per blend; the
/// non-dominated points it keeps, and a direct full-cost run on one
/// blend, are the captured ones.
#[test]
fn pareto_and_full_cost_anneal_match_the_captures() {
    // (tiles, energy pJ, texec ns, energy weight) per front point.
    const FRONT: [(&[usize], f64, f64, f64); 4] = [
        (
            &[7, 5, 11, 6, 3, 2, 1, 4, 10],
            32844.49999999999,
            425.0,
            0.75,
        ),
        (&[10, 4, 2, 5, 3, 1, 0, 8, 6], 36834.49999999999, 361.0, 0.5),
        (
            &[2, 6, 1, 10, 9, 11, 8, 3, 5],
            41531.49999999999,
            357.0,
            0.0,
        ),
        (
            &[8, 7, 10, 5, 11, 4, 1, 9, 2],
            44780.999999999985,
            338.0,
            0.25,
        ),
    ];
    let (app, mesh) = instance(4, 3, 9, 30, 13);
    let tech = Technology::t035();
    let params = SimParams::new();
    let front = pareto_front(&app, &mesh, &tech, &params, 5, &sa(5)).unwrap();
    assert_eq!(front.len(), FRONT.len());
    for (point, (tiles, energy, texec, weight)) in front.iter().zip(FRONT) {
        assert_eq!(tiles_of(&point.mapping), tiles, "weight {weight}");
        assert_eq!(
            point.energy_pj.to_bits(),
            energy.to_bits(),
            "weight {weight}"
        );
        assert_eq!(point.texec_ns.to_bits(), texec.to_bits(), "weight {weight}");
        assert_eq!(point.energy_weight, weight);
    }

    let objective = WeightedObjective::new(&app, &mesh, &tech, params, 0.5, 2.0);
    let outcome = anneal(&objective, &mesh, app.core_count(), &sa(9));
    let want = Capture {
        tiles: &[4, 9, 6, 5, 0, 1, 10, 11, 2],
        cost: 18154.749999999996,
        evaluations: 1073,
    };
    assert_capture("weighted anneal", &outcome, &want);
    assert_eq!(outcome.method, "SA");
}

/// Static multi-start SA under both budget modes, and the portfolio
/// (whose static multi-start member rides the same loop).
#[test]
fn multistart_and_portfolio_match_the_captures() {
    let (app, mesh) = instance(4, 4, 12, 40, 11);
    let explorer = Explorer::new(&app, mesh, Technology::t007(), SimParams::new());

    let total = explorer.explore(
        Strategy::Cdcm,
        SearchMethod::MultiStartSa {
            config: sa(3),
            restarts: 4,
            budget: RestartBudget::Total,
        },
    );
    let want = Capture {
        tiles: &[9, 4, 13, 7, 14, 6, 2, 5, 3, 0, 11, 1],
        cost: 16337.978000000001,
        evaluations: 1500,
    };
    assert_capture("sa-multi total", &total, &want);
    assert_eq!(total.method, "SA-delta-multistart[4]");

    let per_restart = explorer.explore(
        Strategy::Cwm,
        SearchMethod::MultiStartSa {
            config: sa(4),
            restarts: 3,
            budget: RestartBudget::PerRestart,
        },
    );
    let want = Capture {
        tiles: &[15, 2, 14, 5, 6, 10, 7, 8, 9, 12, 11, 13],
        cost: 801.783,
        evaluations: 4114,
    };
    assert_capture("sa-multi per-restart", &per_restart, &want);
    assert_eq!(per_restart.method, "SA-delta-multistart[3]");

    let mut portfolio = PortfolioConfig::quick(6);
    portfolio.budget = 1_200;
    let outcome = explorer.explore(Strategy::Cdcm, SearchMethod::Portfolio(portfolio));
    let want = Capture {
        tiles: &[5, 12, 13, 14, 10, 8, 6, 7, 11, 15, 4, 9],
        cost: 14158.422,
        evaluations: 1200,
    };
    assert_capture("portfolio", &outcome, &want);
    assert_eq!(outcome.method, "portfolio[4]<-tabu");
}
