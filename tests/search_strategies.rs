//! Properties of the `noc-search` metaheuristic subsystem against the
//! real CWM/CDCM objectives:
//!
//! * **Determinism** — same seed ⇒ bit-identical best mapping, cost,
//!   evaluation count *and telemetry* for adaptive restarts, both GA
//!   crossovers, tabu search and the portfolio, regardless of how many
//!   threads executed the rounds (the deterministic-reduction rule).
//! * **Verification** — every strategy's reported best cost equals a
//!   from-scratch re-evaluation of its returned mapping (for CDCM that
//!   is a `schedule_cost`-backed evaluation on a fresh engine), bitwise.
//! * **Budget accounting** — no strategy bills past its configured
//!   evaluation budget, and telemetry agrees with the outcome.
//! * **Reallocation pays** — on a pinned Table 1 instance, adaptive
//!   restarts beat the static split of the same budget.
//!
//! Case counts default low for the regular CI run; the scheduled fuzz
//! job raises them through `NOC_FUZZ_CASES`.

use noc::apps::TgffConfig;
use noc::energy::Technology;
use noc::mapping::{
    AdaptiveConfig, AdaptiveRestarts, BatchCost, CdcmObjective, CostFunction, Crossover,
    CwmObjective, GaConfig, GeneticSearch, MultiStartSa, Portfolio, PortfolioConfig, RestartBudget,
    SaConfig, SearchRun, SearchStrategy, SwapDeltaCost, TabuConfig, TabuSearch,
};
use noc::model::{Cdcg, Mesh};
use noc::sim::SimParams;

/// Cases for the property loop; override with `NOC_FUZZ_CASES` (the
/// scheduled CI fuzz job runs hundreds).
fn fuzz_cases() -> u64 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
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

/// Runs every portfolio strategy at the same budget and seed.
fn run_all<C: SwapDeltaCost + BatchCost + Clone + Send>(
    objective: &C,
    mesh: &Mesh,
    cores: usize,
    budget: u64,
    seed: u64,
) -> Vec<(&'static str, SearchRun)> {
    let mut adaptive = AdaptiveConfig::new(seed);
    adaptive.budget = budget;
    adaptive.population = 6;
    adaptive.rounds = 3;
    let mut ga_pmx = GaConfig::new(seed);
    ga_pmx.budget = budget;
    let mut ga_cycle = GaConfig::new(seed);
    ga_cycle.budget = budget;
    ga_cycle.crossover = Crossover::Cycle;
    let mut tabu = TabuConfig::new(seed);
    tabu.budget = budget;
    let mut portfolio = PortfolioConfig::new(seed);
    portfolio.budget = budget;
    vec![
        (
            "adaptive",
            AdaptiveRestarts::new(adaptive).search(objective, mesh, cores),
        ),
        (
            "ga-pmx",
            GeneticSearch::new(ga_pmx).search(objective, mesh, cores),
        ),
        (
            "ga-cycle",
            GeneticSearch::new(ga_cycle).search(objective, mesh, cores),
        ),
        ("tabu", TabuSearch::new(tabu).search(objective, mesh, cores)),
        (
            "portfolio",
            Portfolio::new(portfolio).search(objective, mesh, cores),
        ),
    ]
}

fn assert_identical(label: &str, first: &SearchRun, second: &SearchRun) {
    assert_eq!(
        first.outcome.mapping, second.outcome.mapping,
        "{label}: mapping differs between identically seeded runs"
    );
    assert_eq!(first.outcome.cost, second.outcome.cost, "{label}: cost");
    assert_eq!(
        first.outcome.evaluations, second.outcome.evaluations,
        "{label}: evaluations"
    );
    assert_eq!(first.telemetry, second.telemetry, "{label}: telemetry");
}

#[test]
fn strategies_are_deterministic_on_cdcm() {
    let (cdcg, mesh) = instance(41);
    let tech = Technology::t007();
    let params = SimParams::new();
    let objective = CdcmObjective::new(&cdcg, &mesh, &tech, params);
    let first = run_all(&objective, &mesh, cdcg.core_count(), 400, 11);
    let second = run_all(&objective, &mesh, cdcg.core_count(), 400, 11);
    for ((label, a), (_, b)) in first.iter().zip(second.iter()) {
        assert_identical(label, a, b);
    }
}

#[test]
fn strategies_are_deterministic_on_cwm() {
    let (cdcg, mesh) = instance(42);
    let cwg = cdcg.to_cwg();
    let tech = Technology::t007();
    let objective = CwmObjective::new(&cwg, &mesh, &tech);
    let first = run_all(&objective, &mesh, cdcg.core_count(), 600, 13);
    let second = run_all(&objective, &mesh, cdcg.core_count(), 600, 13);
    for ((label, a), (_, b)) in first.iter().zip(second.iter()) {
        assert_identical(label, a, b);
    }
}

#[test]
fn reported_cost_is_a_from_scratch_reevaluation() {
    let tech = Technology::t007();
    let params = SimParams::new();
    for case in 0..fuzz_cases() {
        let (cdcg, mesh) = instance(1000 + case);
        let cores = cdcg.core_count();
        let budget = 250;

        // CDCM: the reported cost must be bitwise what a *fresh*
        // schedule_cost-backed engine computes for the returned mapping.
        let objective = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        for (label, run) in run_all(&objective, &mesh, cores, budget, case) {
            let fresh = CdcmObjective::new(&cdcg, &mesh, &tech, params);
            assert_eq!(
                run.outcome.cost,
                fresh.cost(&run.outcome.mapping),
                "case {case}, {label}: reported CDCM cost is not a true re-evaluation"
            );
            assert!(
                run.outcome.evaluations <= budget,
                "case {case}, {label}: billed {} of {budget}",
                run.outcome.evaluations
            );
            assert_eq!(
                run.telemetry.evaluations, run.outcome.evaluations,
                "case {case}, {label}: telemetry disagrees with the outcome"
            );
            run.outcome.mapping.validate().expect("valid mapping");
        }

        // CWM: same contract on the analytic objective.
        let cwg = cdcg.to_cwg();
        let objective = CwmObjective::new(&cwg, &mesh, &tech);
        for (label, run) in run_all(&objective, &mesh, cores, budget, case) {
            let fresh = CwmObjective::new(&cwg, &mesh, &tech);
            assert_eq!(
                run.outcome.cost,
                fresh.cost(&run.outcome.mapping),
                "case {case}, {label}: reported CWM cost is not a true re-evaluation"
            );
            assert!(run.outcome.evaluations <= budget, "case {case}, {label}");
        }
    }
}

/// Adaptive restarts bill their exact budget, halve the active set and
/// spend unevenly across members. On Table 1 row 8 (objrec-b, 3x3) at
/// 4,000 evaluations and seed 7 they also beat the static
/// `RestartBudget::Total` split of the same budget, the subsystem's
/// reason to exist. The stack is deterministic, so that instance is a
/// regression gate; the `search_portfolio` bin shows the spread over
/// instances and seeds.
#[test]
fn adaptive_reallocates_and_bills_exactly() {
    let (cdcg, mesh) = instance(77);
    let row8 = noc::apps::Benchmark::from_spec(noc::apps::TABLE1_ROWS[8]);
    let tech = Technology::t007();
    for (cdcg, mesh, budget, seed, pinned) in [
        (&cdcg, &mesh, 600, 5, false),
        (&row8.cdcg, &row8.mesh, 4000, 7, true),
    ] {
        let objective = CdcmObjective::new(cdcg, mesh, &tech, SimParams::new());
        let mut config = AdaptiveConfig::new(seed);
        config.budget = budget;
        config.population = 8;
        config.rounds = 4;
        let run = AdaptiveRestarts::new(config).search(&objective, mesh, cdcg.core_count());
        // Adaptive bills its exact total (every round slice is consumed).
        assert_eq!(run.outcome.evaluations, budget);
        // Successive halving: the active set shrinks 8 -> 4 -> 2 -> 1.
        let survivors: Vec<usize> = run
            .telemetry
            .rounds
            .iter()
            .map(|r| r.survivors.len())
            .collect();
        assert_eq!(survivors, vec![4, 2, 1, 0]);
        // Reallocation is visible in the per-member totals.
        let totals = run.telemetry.member_budget_totals();
        let max = totals.iter().map(|t| t.evals).max().unwrap();
        let min = totals.iter().map(|t| t.evals).min().unwrap();
        assert!(
            max > min,
            "adaptive must spend unevenly across members: {totals:?}"
        );
        if !pinned {
            continue;
        }
        let static_split = MultiStartSa {
            config: SaConfig {
                max_evaluations: budget,
                ..SaConfig::new(seed)
            },
            restarts: 8,
            budget: RestartBudget::Total,
        }
        .search(&objective, mesh, cdcg.core_count());
        assert!(
            run.outcome.cost < static_split.outcome.cost,
            "adaptive ({:.1} pJ) must beat the static Total split ({:.1} pJ)",
            run.outcome.cost,
            static_split.outcome.cost
        );
    }
}
