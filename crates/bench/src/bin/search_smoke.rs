//! CI smoke test of the `noc-search` metaheuristic subsystem.
//!
//! Asserts, on a real Table 1 instance under the CDCM objective:
//!
//! * every strategy (adaptive, GA, tabu, portfolio) stays within its
//!   evaluation budget and its reported cost is a from-scratch
//!   re-evaluation of the returned mapping;
//! * the adaptive scheduler *actually reallocates*: survivor counts
//!   shrink round over round and the per-member budget totals are
//!   nonuniform;
//! * at an equal total budget, adaptive restarts beat the static
//!   `RestartBudget::Total` split on final cost (the subsystem's reason
//!   to exist; instance and seed are pinned, and the whole stack is
//!   deterministic, so this is a regression gate — the
//!   `search_portfolio` bin shows the honest spread).
//!
//! Usage: `cargo run --release -p noc-bench --bin search_smoke`

use noc_energy::Technology;
use noc_mapping::{
    AdaptiveConfig, AdaptiveRestarts, CdcmObjective, CostFunction, GaConfig, GeneticSearch,
    MultiStartSa, Portfolio, PortfolioConfig, RestartBudget, SaConfig, SearchRun, SearchStrategy,
    TabuConfig, TabuSearch,
};
use noc_sim::SimParams;

const BUDGET: u64 = 4000;
const SEED: u64 = 7;

fn check_contract(label: &str, run: &SearchRun, objective: &CdcmObjective<'_>) {
    assert!(
        run.outcome.evaluations > 0 && run.outcome.evaluations <= BUDGET,
        "{label}: billed {} of {BUDGET}",
        run.outcome.evaluations
    );
    assert_eq!(
        run.telemetry.evaluations, run.outcome.evaluations,
        "{label}: telemetry disagrees with the outcome"
    );
    let fresh = objective.cost(&run.outcome.mapping);
    assert_eq!(
        run.outcome.cost, fresh,
        "{label}: reported cost is not a from-scratch re-evaluation"
    );
    run.outcome.mapping.validate().expect("valid mapping");
    println!(
        "{label:<24} {:>12.1} pJ  {:>5} evals",
        run.outcome.cost, run.outcome.evaluations
    );
}

fn main() {
    // Table 1 row 8 (objrec-b, 3x3): a pinned instance where basin
    // quality varies enough for reallocation to pay.
    let bench = noc_apps::Benchmark::from_spec(noc_apps::TABLE1_ROWS[8]);
    let (cdcg, mesh) = (&bench.cdcg, &bench.mesh);
    let tech = Technology::t007();
    let params = SimParams::new();
    let objective = CdcmObjective::new(cdcg, mesh, &tech, params);
    let cores = cdcg.core_count();

    let static_split = MultiStartSa {
        config: SaConfig {
            max_evaluations: BUDGET,
            ..SaConfig::new(SEED)
        },
        restarts: 8,
        budget: RestartBudget::Total,
    }
    .search(&objective, mesh, cores);
    check_contract("sa-multi[total]", &static_split, &objective);

    let adaptive = AdaptiveRestarts::new(AdaptiveConfig {
        budget: BUDGET,
        ..AdaptiveConfig::new(SEED)
    })
    .search(&objective, mesh, cores);
    check_contract("adaptive[8x4]", &adaptive, &objective);

    let ga = GeneticSearch::new(GaConfig {
        budget: BUDGET,
        ..GaConfig::new(SEED)
    })
    .search(&objective, mesh, cores);
    check_contract("ga[pmx]", &ga, &objective);

    let tabu = TabuSearch::new(TabuConfig {
        budget: BUDGET,
        ..TabuConfig::new(SEED)
    })
    .search(&objective, mesh, cores);
    check_contract("tabu", &tabu, &objective);

    let portfolio = Portfolio::new(PortfolioConfig {
        budget: BUDGET,
        ..PortfolioConfig::new(SEED)
    })
    .search(&objective, mesh, cores);
    check_contract("portfolio", &portfolio, &objective);

    // Adaptive bills its exact budget (round slices are all consumed).
    assert_eq!(
        adaptive.outcome.evaluations, BUDGET,
        "adaptive must consume its whole budget"
    );

    // Reallocation happened: survivors shrink, budgets end nonuniform.
    let survivors: Vec<usize> = adaptive
        .telemetry
        .rounds
        .iter()
        .map(|r| r.survivors.len())
        .collect();
    assert_eq!(
        survivors,
        vec![4, 2, 1, 0],
        "successive halving must shrink the active set"
    );
    let totals = adaptive.telemetry.member_budget_totals();
    let max = totals.iter().map(|t| t.evals).max().unwrap();
    let min = totals.iter().map(|t| t.evals).min().unwrap();
    assert!(
        max > min,
        "adaptive must allocate budget nonuniformly, got {totals:?}"
    );
    println!(
        "adaptive member budgets: min {min}, max {max} ({}x skew)",
        max / min.max(1)
    );

    // The point of the subsystem: adaptive beats the static total split
    // at the same budget on this instance.
    assert!(
        adaptive.outcome.cost < static_split.outcome.cost,
        "adaptive ({:.1} pJ) must beat the static Total split ({:.1} pJ) on the pinned instance",
        adaptive.outcome.cost,
        static_split.outcome.cost
    );

    println!("search smoke: OK");
}
