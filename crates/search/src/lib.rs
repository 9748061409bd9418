//! # noc-search
//!
//! The metaheuristic search subsystem of the NoC-mapping reproduction:
//! simulated annealing (single, multi-start, and adaptively scheduled
//! restarts), a permutation genetic algorithm, tabu search, and a
//! strategy portfolio — all over the same two objective interfaces
//! ([`CostFunction`] / [`SwapDeltaCost`]) that `noc-mapping`'s CWM/CDCM
//! objectives implement.
//!
//! The paper reaches its mappings with one fixed-schedule SA run; this
//! crate is where search *policy* grew past that. It holds the two
//! annealing loops — full-cost [`anneal`] / [`anneal_cancellable`], which
//! also runs pinned searches over a [`Constraints`] move set, and
//! incremental [`anneal_delta`] / [`anneal_delta_cancellable`] — plus the
//! random-sampling baseline, and the strategies below share their budget
//! and determinism discipline. `noc-mapping` re-exports all of it at its
//! crate root.
//!
//! ## The strategy contract
//!
//! [`SearchStrategy`] is the subsystem's trait: a strategy owns a
//! configuration (budget, seed, knobs), runs against any objective, and
//! returns a [`SearchRun`] — the best mapping plus a [`SearchTelemetry`]
//! describing where the budget went (per-round allocations, basin
//! survivals, the best-so-far curve).
//!
//! ## Budget accounting
//!
//! Budgets are counted in *objective evaluations*: every
//! [`CostFunction::cost`] call and every [`SwapDeltaCost::swap_delta`]
//! call bills exactly 1, whatever it costs the engine underneath. A
//! strategy never bills past its configured budget. One exception,
//! inherited from [`anneal_delta`]: the final *verification*
//! re-evaluation of the returned best mapping is unbilled, so the
//! reported cost is always a from-scratch evaluation (bitwise equal to
//! re-evaluating the returned mapping) rather than an accumulated sum
//! of increments.
//!
//! ## The deterministic-reduction rule
//!
//! Everything here is bit-reproducible from a seed, *including under
//! `std::thread` parallelism*. The rule (first set by [`MultiStartSa`]):
//! parallel work units own their RNG streams and
//! objective clones, carry a stable index, land their results by that
//! index, and every ranking/reduction tie breaks toward the lowest
//! index — never completion order. Telemetry falls under the same
//! guarantee.
//!
//! ## Strategies
//!
//! | Entry | Policy | Objective bound |
//! |-------|--------|-----------------|
//! | [`anneal_cancellable`] | full-cost SA; optional pins restrict the swaps to free tiles | `CostFunction` |
//! | [`anneal_delta_cancellable`] | SA on swap deltas, resynchronised once per epoch | `SwapDeltaCost` |
//! | [`MultiStartSa`] | parallel delta-SA restarts, static budget split | `SwapDeltaCost + Clone + Send` |
//! | [`AdaptiveRestarts`] | successive-halving rounds + reheating | `SwapDeltaCost + Clone + Send` |
//! | [`GeneticSearch`] | tournament/PMX-or-cycle/elitism GA | `SwapDeltaCost + BatchCost` |
//! | [`TabuSearch`] | swap-attribute tabu list + aspiration | `SwapDeltaCost` |
//! | [`Portfolio`] | even split across the four above | `SwapDeltaCost + BatchCost + Clone + Send` |
//!
//! [`BatchCost`] (defaulted to a sequential loop, so plain objectives
//! implement it with one empty `impl` line) lets the GA cost a whole
//! generation of crossover offspring in one call; tabu's neighborhood
//! rides the defaulted [`SwapDeltaCost::batch_swap_delta`] the same way.
//! Both loops stay bit-identical to per-candidate costing by
//! construction — batching changes *when* an evaluation runs, never what
//! it returns or which RNG draw precedes it.
//!
//! [`AdaptiveRestarts`] subsumes the static multi-start modes:
//! `rounds = 1` *is* `RestartBudget::Total` splitting, and a population
//! of one is a single reheated SA run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod cancel;
pub mod constraints;
pub mod ga;
pub mod objective;
pub mod outcome;
pub mod portfolio;
pub mod random;
mod runner;
pub mod sa;
pub mod strategy;
pub mod tabu;

pub use adaptive::{AdaptiveConfig, AdaptiveRestarts};
pub use cancel::CancelToken;
pub use constraints::Constraints;
pub use ga::{Crossover, GaConfig, GeneticSearch};
pub use objective::{BatchCost, CostFunction, SwapDeltaCost};
pub use outcome::SearchOutcome;
pub use portfolio::{Portfolio, PortfolioConfig};
pub use random::{random_search, sample_mapping};
pub use sa::{
    anneal, anneal_cancellable, anneal_delta, anneal_delta_cancellable, propose_swap,
    random_mapping, MultiStartSa, RestartBudget, SaConfig,
};
pub use strategy::{SearchRun, SearchStrategy};
pub use tabu::{TabuConfig, TabuSearch, Tenure};
pub use telemetry::{wall_clock, CurvePoint, MemberBudget, RoundTelemetry, SearchTelemetry};

pub mod telemetry;

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::{CoreId, Mapping, Mesh, TileId};

    /// A synthetic objective with real basin structure: each core `i`
    /// prefers tile `target(i)`, cost is the summed Manhattan distance
    /// to the targets (weighted so cores differ). Cheap, deterministic,
    /// and with an exact incremental swap delta.
    #[derive(Clone)]
    struct Homing {
        mesh: Mesh,
        targets: Vec<TileId>,
    }

    impl Homing {
        fn new(mesh: &Mesh, cores: usize) -> Self {
            let targets = (0..cores)
                .map(|i| TileId::new((i * 7 + 3) % mesh.tile_count()))
                .collect();
            Self {
                mesh: *mesh,
                targets,
            }
        }

        fn dist(&self, a: TileId, b: TileId) -> f64 {
            self.mesh.manhattan(a, b) as f64
        }
    }

    impl CostFunction for Homing {
        fn cost(&self, mapping: &Mapping) -> f64 {
            mapping
                .assignments()
                .map(|(core, tile)| {
                    (core.index() as f64 + 1.0) * self.dist(tile, self.targets[core.index()])
                })
                .sum()
        }

        fn name(&self) -> String {
            "homing".to_owned()
        }
    }

    impl SwapDeltaCost for Homing {
        fn swap_delta(&self, mapping: &Mapping, a: TileId, b: TileId) -> f64 {
            let mut swapped = mapping.clone();
            swapped.swap_tiles(a, b);
            self.cost(&swapped) - self.cost(mapping)
        }
    }

    impl BatchCost for Homing {}

    type StrategyFn = Box<dyn Fn(&Homing, &Mesh, usize) -> SearchRun>;

    fn strategies() -> Vec<(&'static str, StrategyFn)> {
        vec![
            (
                "multistart-sa",
                Box::new(|o: &Homing, m: &Mesh, k: usize| {
                    let mut c = SaConfig::quick(9);
                    c.max_evaluations = 600;
                    MultiStartSa {
                        config: c,
                        restarts: 4,
                        budget: RestartBudget::Total,
                    }
                    .search(o, m, k)
                }),
            ),
            (
                "adaptive",
                Box::new(|o: &Homing, m: &Mesh, k: usize| {
                    let mut c = AdaptiveConfig::quick(9);
                    c.budget = 600;
                    AdaptiveRestarts::new(c).search(o, m, k)
                }),
            ),
            (
                "ga-pmx",
                Box::new(|o: &Homing, m: &Mesh, k: usize| {
                    let mut c = GaConfig::quick(9);
                    c.budget = 600;
                    GeneticSearch::new(c).search(o, m, k)
                }),
            ),
            (
                "ga-cycle",
                Box::new(|o: &Homing, m: &Mesh, k: usize| {
                    let mut c = GaConfig::quick(9);
                    c.budget = 600;
                    c.crossover = Crossover::Cycle;
                    GeneticSearch::new(c).search(o, m, k)
                }),
            ),
            (
                "tabu",
                Box::new(|o: &Homing, m: &Mesh, k: usize| {
                    let mut c = TabuConfig::quick(9);
                    c.budget = 600;
                    TabuSearch::new(c).search(o, m, k)
                }),
            ),
            (
                "portfolio",
                Box::new(|o: &Homing, m: &Mesh, k: usize| {
                    let mut c = PortfolioConfig::quick(9);
                    c.budget = 600;
                    Portfolio::new(c).search(o, m, k)
                }),
            ),
        ]
    }

    #[test]
    fn every_strategy_is_deterministic_budgeted_and_verified() {
        let mesh = Mesh::new(4, 4).unwrap();
        let objective = Homing::new(&mesh, 9);
        for (label, run) in strategies() {
            let first = run(&objective, &mesh, 9);
            let second = run(&objective, &mesh, 9);
            assert_eq!(first.outcome.mapping, second.outcome.mapping, "{label}");
            assert_eq!(first.outcome.cost, second.outcome.cost, "{label}");
            assert_eq!(
                first.outcome.evaluations, second.outcome.evaluations,
                "{label}"
            );
            assert_eq!(first.telemetry, second.telemetry, "{label}");
            assert!(first.outcome.evaluations <= 600, "{label} over budget");
            assert!(first.outcome.evaluations > 0, "{label} never evaluated");
            assert_eq!(
                first.telemetry.evaluations, first.outcome.evaluations,
                "{label} telemetry disagrees with the outcome"
            );
            // Reported cost is a true from-scratch evaluation.
            assert_eq!(first.outcome.cost, objective.cost(&first.outcome.mapping));
            first.outcome.mapping.validate().unwrap();
        }
    }

    #[test]
    fn adaptive_bills_its_exact_budget_and_halves_the_population() {
        let mesh = Mesh::new(4, 4).unwrap();
        let objective = Homing::new(&mesh, 8);
        let mut config = AdaptiveConfig::quick(3);
        config.budget = 800;
        config.population = 8;
        config.rounds = 4;
        let run = AdaptiveRestarts::new(config).search(&objective, &mesh, 8);
        assert_eq!(run.outcome.evaluations, 800);
        assert_eq!(run.telemetry.rounds.len(), 4);
        let survivors: Vec<usize> = run
            .telemetry
            .rounds
            .iter()
            .map(|r| r.survivors.len())
            .collect();
        // 8 active -> keep 4 -> keep 2 -> keep 1 -> last round (no
        // further selection).
        assert_eq!(survivors, vec![4, 2, 1, 0]);
        // Reallocation: totals are nonuniform — survivors got more.
        let totals = run.telemetry.member_budget_totals();
        let max = totals.iter().map(|t| t.evals).max().unwrap();
        let min = totals.iter().map(|t| t.evals).min().unwrap();
        assert!(max > min, "adaptive must reallocate budget: {totals:?}");
    }

    #[test]
    fn adaptive_with_one_round_is_a_static_split() {
        let mesh = Mesh::new(3, 3).unwrap();
        let objective = Homing::new(&mesh, 5);
        let mut config = AdaptiveConfig::quick(5);
        config.budget = 100;
        config.population = 4;
        config.rounds = 1;
        let run = AdaptiveRestarts::new(config).search(&objective, &mesh, 5);
        assert_eq!(run.telemetry.rounds.len(), 1);
        let budgets: Vec<u64> = run.telemetry.rounds[0]
            .budgets
            .iter()
            .map(|b| b.evals)
            .collect();
        assert_eq!(budgets, vec![25, 25, 25, 25]);
        assert!(run.telemetry.rounds[0].survivors.is_empty());
    }

    #[test]
    fn population_larger_than_budget_starves_late_members_not_the_budget() {
        let mesh = Mesh::new(3, 3).unwrap();
        let objective = Homing::new(&mesh, 4);
        let mut config = AdaptiveConfig::quick(1);
        config.budget = 3;
        config.population = 8;
        config.rounds = 1;
        let run = AdaptiveRestarts::new(config).search(&objective, &mesh, 4);
        assert_eq!(run.outcome.evaluations, 3);
        assert_eq!(run.outcome.cost, objective.cost(&run.outcome.mapping));
    }

    #[test]
    fn strategies_actually_optimize() {
        // On the homing objective the optimum is 0 (every core on its
        // target); any competent strategy gets close on a tiny mesh.
        let mesh = Mesh::new(3, 3).unwrap();
        let objective = Homing::new(&mesh, 4);
        let worst: f64 = (0..4).map(|i| (i as f64 + 1.0) * 4.0).sum();
        for (label, run) in strategies() {
            let got = run(&objective, &mesh, 4).outcome.cost;
            assert!(
                got < worst / 2.0,
                "{label} found nothing: {got} vs pessimal {worst}"
            );
        }
    }

    #[test]
    fn ga_with_elite_at_population_size_still_terminates() {
        // Regression: `elite >= pop_size` used to fill every generation
        // with unevaluated elite copies, freezing the budget loop
        // forever. The elite count must leave room for offspring.
        let mesh = Mesh::new(3, 3).unwrap();
        let objective = Homing::new(&mesh, 4);
        let mut config = GaConfig::quick(3);
        config.population = 2;
        config.elite = 5;
        config.budget = 120;
        let run = GeneticSearch::new(config).search(&objective, &mesh, 4);
        assert!(run.outcome.evaluations <= 120);
        assert!(run.outcome.evaluations > 2, "offspring must be produced");
        assert_eq!(run.outcome.cost, objective.cost(&run.outcome.mapping));
    }

    #[test]
    fn portfolio_with_tiny_budget_stays_within_it() {
        // Regression: budgets below the member count used to bill one
        // evaluation per member (each sub-strategy clamps to >= 1),
        // overspending the configured total. Zero-share members are
        // skipped instead.
        let mesh = Mesh::new(3, 3).unwrap();
        let objective = Homing::new(&mesh, 4);
        for budget in [1u64, 2, 3] {
            let mut config = PortfolioConfig::quick(1);
            config.budget = budget;
            let run = Portfolio::new(config).search(&objective, &mesh, 4);
            assert!(
                run.outcome.evaluations <= budget,
                "budget {budget}: billed {}",
                run.outcome.evaluations
            );
            assert!(run.outcome.evaluations > 0);
            assert_eq!(run.telemetry.children.len(), budget.min(4) as usize);
        }
    }

    /// Two pins for the 4x4 `Homing` instances: core 0 on its own
    /// target, core 4 on a far corner.
    fn homing_pins() -> Constraints {
        Constraints::new()
            .pin(CoreId::new(0), TileId::new(3))
            .unwrap()
            .pin(CoreId::new(4), TileId::new(15))
            .unwrap()
    }

    /// A named strategy invocation that accepts a cancel token.
    type CancellableRunner = Box<dyn Fn(&Homing, &Mesh, usize, &CancelToken) -> SearchRun>;

    /// Cancellable strategy constructors with a fixed 600-eval budget,
    /// mirroring `strategies()` but exposing the token.
    fn cancellable_strategies() -> Vec<(&'static str, CancellableRunner)> {
        vec![
            (
                "pinned-sa",
                Box::new(|o: &Homing, m: &Mesh, k: usize, t: &CancelToken| {
                    let mut c = SaConfig::quick(9);
                    c.max_evaluations = 600;
                    let pins = homing_pins();
                    SearchRun::from_outcome(anneal_cancellable(o, m, k, Some(&pins), &c, t))
                }),
            ),
            (
                "multistart-sa",
                Box::new(|o: &Homing, m: &Mesh, k: usize, t: &CancelToken| {
                    let mut c = SaConfig::quick(9);
                    c.max_evaluations = 600;
                    MultiStartSa {
                        config: c,
                        restarts: 4,
                        budget: RestartBudget::Total,
                    }
                    .search_cancellable(o, m, k, t)
                }),
            ),
            (
                "adaptive",
                Box::new(|o: &Homing, m: &Mesh, k: usize, t: &CancelToken| {
                    let mut c = AdaptiveConfig::quick(9);
                    c.budget = 600;
                    AdaptiveRestarts::new(c).search_cancellable(o, m, k, t)
                }),
            ),
            (
                "ga",
                Box::new(|o: &Homing, m: &Mesh, k: usize, t: &CancelToken| {
                    let mut c = GaConfig::quick(9);
                    c.budget = 600;
                    GeneticSearch::new(c).search_cancellable(o, m, k, t)
                }),
            ),
            (
                "tabu",
                Box::new(|o: &Homing, m: &Mesh, k: usize, t: &CancelToken| {
                    let mut c = TabuConfig::quick(9);
                    c.budget = 600;
                    TabuSearch::new(c).search_cancellable(o, m, k, t)
                }),
            ),
            (
                "portfolio",
                Box::new(|o: &Homing, m: &Mesh, k: usize, t: &CancelToken| {
                    let mut c = PortfolioConfig::quick(9);
                    c.budget = 600;
                    Portfolio::new(c).search_cancellable(o, m, k, t)
                }),
            ),
        ]
    }

    /// A pre-cancelled token stops every strategy within its first
    /// checkpoint: strictly fewer evaluations than the budget, yet the
    /// result is still a verified, valid mapping.
    #[test]
    fn cancelled_runs_bill_fewer_evals_than_their_budget() {
        let mesh = Mesh::new(4, 4).unwrap();
        let objective = Homing::new(&mesh, 9);
        for (label, run) in cancellable_strategies() {
            let token = CancelToken::new();
            token.cancel();
            let cancelled = run(&objective, &mesh, 9, &token);
            assert!(
                cancelled.outcome.evaluations < 600,
                "{label}: cancelled run billed its whole budget ({})",
                cancelled.outcome.evaluations
            );
            assert!(
                cancelled.outcome.evaluations > 0,
                "{label}: cancelled run must still evaluate something"
            );
            assert_eq!(
                cancelled.outcome.cost,
                objective.cost(&cancelled.outcome.mapping),
                "{label}: cancelled result must stay verified"
            );
            cancelled.outcome.mapping.validate().unwrap();
        }
    }

    /// An untripped token changes nothing: `search_cancellable` with a
    /// live-but-quiet token is bit-identical to plain `search`. The
    /// checkpoints only read a flag — they consume no randomness.
    #[test]
    fn untripped_token_leaves_trajectories_bit_identical() {
        let mesh = Mesh::new(4, 4).unwrap();
        let objective = Homing::new(&mesh, 9);
        let mut adaptive = AdaptiveConfig::quick(9);
        adaptive.budget = 600;
        let mut ga = GaConfig::quick(9);
        ga.budget = 600;
        let mut tabu = TabuConfig::quick(9);
        tabu.budget = 600;
        let mut portfolio = PortfolioConfig::quick(9);
        portfolio.budget = 600;
        let strategies: Vec<(&str, Box<dyn SearchStrategy<Homing>>)> = vec![
            ("adaptive", Box::new(AdaptiveRestarts::new(adaptive))),
            ("ga", Box::new(GeneticSearch::new(ga))),
            ("tabu", Box::new(TabuSearch::new(tabu))),
            ("portfolio", Box::new(Portfolio::new(portfolio))),
        ];
        for (label, strategy) in strategies {
            let token = CancelToken::new();
            let with_token = strategy.search_cancellable(&objective, &mesh, 9, &token);
            let without = strategy.search(&objective, &mesh, 9);
            assert_eq!(
                with_token.outcome.mapping, without.outcome.mapping,
                "{label}"
            );
            assert_eq!(with_token.outcome.cost, without.outcome.cost, "{label}");
            assert_eq!(
                with_token.outcome.evaluations, without.outcome.evaluations,
                "{label}"
            );
            assert_eq!(with_token.telemetry, without.telemetry, "{label}");
        }

        // Pinned SA: a live token that never trips walks the trajectory
        // of a run nobody could cancel.
        let pins = homing_pins();
        let mut config = SaConfig::quick(9);
        config.max_evaluations = 600;
        let token = CancelToken::new();
        let _live = token.clone();
        let with_token = anneal_cancellable(&objective, &mesh, 9, Some(&pins), &config, &token);
        let without = anneal_cancellable(
            &objective,
            &mesh,
            9,
            Some(&pins),
            &config,
            &CancelToken::new(),
        );
        assert_eq!(with_token.mapping, without.mapping, "pinned-sa");
        assert_eq!(
            with_token.cost.to_bits(),
            without.cost.to_bits(),
            "pinned-sa"
        );
        assert_eq!(with_token.evaluations, without.evaluations, "pinned-sa");
        assert!(pins.satisfied_by(&with_token.mapping), "pinned-sa");
    }

    #[test]
    fn multistart_total_budget_clamps_excess_restarts() {
        // Regression (satellite of the subsystem PR): restarts > budget
        // used to create zero-evaluation restarts reporting never-
        // evaluated initial costs and billing past the total.
        let mesh = Mesh::new(3, 3).unwrap();
        let objective = Homing::new(&mesh, 4);
        let mut config = SaConfig::quick(2);
        config.max_evaluations = 4;
        let outcome = MultiStartSa {
            config,
            restarts: 9,
            budget: RestartBudget::Total,
        }
        .search(&objective, &mesh, 4)
        .outcome;
        // Clamped to 4 restarts of 1 evaluation each: exactly the budget.
        assert_eq!(outcome.evaluations, 4);
        assert!(
            outcome.method.contains("multistart[4]"),
            "{}",
            outcome.method
        );
        assert_eq!(outcome.cost, objective.cost(&outcome.mapping));
    }
}
