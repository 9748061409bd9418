//! Paper-anchored tests of the simulated-annealing engines
//! ([`noc_search::sa`], re-exported at the crate root) against the real
//! CWM/CDCM objectives.

mod tests {
    use crate::objective::{CdcmObjective, CostFunction, CwmObjective};
    use noc_energy::Technology;
    use noc_model::{Cdcg, Mesh, TileId};
    use noc_search::{
        anneal, anneal_delta, propose_swap, random_mapping, MultiStartSa, RestartBudget, SaConfig,
        SearchStrategy,
    };
    use noc_sim::SimParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn figure1_cdcg() -> Cdcg {
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        let e = g.add_core("E");
        let f = g.add_core("F");
        let pab1 = g.add_packet(a, b, 6, 15).unwrap();
        let pbf1 = g.add_packet(b, f, 10, 40).unwrap();
        let pea1 = g.add_packet(e, a, 10, 20).unwrap();
        let pea2 = g.add_packet(e, a, 20, 15).unwrap();
        let paf1 = g.add_packet(a, f, 6, 15).unwrap();
        let pfb1 = g.add_packet(f, b, 6, 15).unwrap();
        g.add_dependence(pea1, pea2).unwrap();
        g.add_dependence(pab1, paf1).unwrap();
        g.add_dependence(pea1, paf1).unwrap();
        g.add_dependence(pbf1, pfb1).unwrap();
        g.add_dependence(paf1, pfb1).unwrap();
        g
    }

    #[test]
    fn finds_the_cwm_optimum_on_2x2() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let outcome = anneal(&obj, &mesh, 4, &SaConfig::quick(42));
        // The exhaustive optimum on this instance is 330 pJ (all pairs
        // adjacent is impossible; best clusters hot pairs).
        assert!(
            outcome.cost <= 390.0,
            "SA should at least match the paper mapping"
        );
        assert_eq!(outcome.objective, "CWM");
        outcome.mapping.validate().unwrap();
    }

    #[test]
    fn finds_low_energy_cdcm_mapping_on_2x2() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let obj = CdcmObjective::new(&cdcg, &mesh, &tech, SimParams::paper_example());
        let outcome = anneal(&obj, &mesh, 4, &SaConfig::quick(42));
        // 399 pJ is achievable (Figure 3(b)); SA must not do worse than
        // the paper's better mapping on such a tiny space.
        assert!(outcome.cost <= 399.0, "got {}", outcome.cost);
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let a = anneal(&obj, &mesh, 4, &SaConfig::quick(7));
        let b = anneal(&obj, &mesh, 4, &SaConfig::quick(7));
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn different_seeds_may_explore_differently() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let outcomes: Vec<f64> = (0..4)
            .map(|s| anneal(&obj, &mesh, 4, &SaConfig::quick(s)).cost)
            .collect();
        // All seeds land on valid costs; they need not be equal, but all
        // must beat a pessimal placement.
        for c in outcomes {
            assert!(c > 0.0 && c.is_finite());
        }
    }

    #[test]
    fn delta_annealing_agrees_with_full_annealing_quality() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let full = anneal(&obj, &mesh, 4, &SaConfig::quick(11));
        let delta = anneal_delta(&obj, &mesh, 4, &SaConfig::quick(11));
        // Both must land within the same optimum basin on this tiny case.
        assert!((full.cost - delta.cost).abs() / full.cost < 0.15);
        // And the delta variant's reported cost must be a true cost.
        let check = obj.cost(&delta.mapping);
        assert!((check - delta.cost).abs() < 1e-9);
    }

    #[test]
    fn respects_evaluation_budget() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(4, 4).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let mut config = SaConfig::quick(1);
        config.max_evaluations = 100;
        let outcome = anneal(&obj, &mesh, 4, &config);
        assert!(outcome.evaluations <= 100);
    }

    #[test]
    fn propose_swap_on_single_tile_mesh_is_a_noop_not_a_panic() {
        // Regression test: `gen_range(0..0)` used to panic for n == 1.
        let mesh = Mesh::new(1, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let (a, b) = propose_swap(&mesh, &mut rng);
        assert_eq!(a, b);
        assert_eq!(a, TileId::new(0));
        // And a full annealing run on the degenerate instance terminates.
        let mut g = Cdcg::new();
        g.add_core("only");
        let cdcg = g;
        let tech = Technology::paper_example();
        let obj = CdcmObjective::new(&cdcg, &mesh, &tech, SimParams::paper_example());
        let outcome = anneal(&obj, &mesh, 1, &SaConfig::quick(3));
        assert!(outcome.cost.is_finite());
        outcome.mapping.validate().unwrap();
    }

    /// Static multi-start SA over the delta annealer.
    fn multistart(config: SaConfig, restarts: usize, budget: RestartBudget) -> MultiStartSa {
        MultiStartSa {
            config,
            restarts,
            budget,
        }
    }

    #[test]
    fn multistart_is_deterministic_and_at_least_as_good() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let obj = CdcmObjective::new(&cdcg, &mesh, &tech, SimParams::paper_example());
        let config = SaConfig::quick(17);
        let strategy = multistart(config, 4, RestartBudget::PerRestart);
        let a = strategy.search(&obj, &mesh, 4).outcome;
        let b = strategy.search(&obj, &mesh, 4).outcome;
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.evaluations, b.evaluations);
        // The best of 4 restarts can never lose to restart 0 alone.
        let single = anneal_delta(&obj, &mesh, 4, &config);
        assert!(a.cost <= single.cost);
        assert!(a.evaluations >= single.evaluations);
        assert!(a.method.contains("multistart"));
    }

    #[test]
    fn multistart_with_one_restart_matches_single_anneal() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let config = SaConfig::quick(23);
        let single = anneal_delta(&obj, &mesh, 4, &config);
        let multi = multistart(config, 1, RestartBudget::PerRestart)
            .search(&obj, &mesh, 4)
            .outcome;
        assert_eq!(single.mapping, multi.mapping);
        assert_eq!(single.cost, multi.cost);
        assert_eq!(single.evaluations, multi.evaluations);
    }

    #[test]
    fn multistart_delta_agrees_with_its_runs() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let config = SaConfig::quick(29);
        let multi = multistart(config, 3, RestartBudget::PerRestart)
            .search(&obj, &mesh, 4)
            .outcome;
        // The reduction must reproduce the best of the three underlying
        // runs exactly.
        let best = (0..3u64)
            .map(|i| {
                let cfg = SaConfig {
                    seed: config.seed.wrapping_add(i),
                    ..config
                };
                anneal_delta(&obj, &mesh, 4, &cfg)
            })
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .unwrap();
        assert_eq!(multi.cost, best.cost);
        assert_eq!(multi.mapping, best.mapping);
    }

    #[test]
    fn total_budget_mode_pins_the_evaluation_count() {
        // Regression: per-restart mode spends `restarts ×` the budget of a
        // single run; total mode spends exactly the budget (including an
        // uneven remainder split).
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let mut config = SaConfig::quick(13);
        config.max_evaluations = 42;
        let restarts = 4;

        let single = anneal(&obj, &mesh, 4, &config);
        assert_eq!(single.evaluations, 42, "budget must bind on this instance");

        // The delta path — the one the explorer and CLI route through —
        // must respect the same bound: calibration is budget-capped and
        // the per-epoch resync never bills past the budget.
        let delta_single = anneal_delta(&obj, &mesh, 4, &config);
        assert_eq!(delta_single.evaluations, 42);

        let per = multistart(config, restarts, RestartBudget::PerRestart)
            .search(&obj, &mesh, 4)
            .outcome;
        assert_eq!(per.evaluations, 42 * restarts as u64);

        let total_mode = multistart(config, restarts, RestartBudget::Total);
        let total = total_mode.search(&obj, &mesh, 4).outcome;
        // 42 over 4 restarts: budgets 11, 11, 10, 10 — exactly 42 total.
        assert_eq!(total.evaluations, 42);

        // Determinism is preserved in total mode.
        let again = total_mode.search(&obj, &mesh, 4).outcome;
        assert_eq!(total.mapping, again.mapping);
        assert_eq!(total.cost, again.cost);
    }

    #[test]
    fn total_budget_with_more_restarts_than_evaluations_clamps() {
        // Regression: `RestartBudget::Total` with `restarts > budget`
        // used to split the budget as 1,…,1,0,…,0 — and every
        // zero-budget restart still billed its (unbudgeted) initial
        // evaluation and reported a random mapping's cost, so the run
        // both exceeded the configured total and diluted the reduction
        // with never-optimized mappings. The restart count must clamp
        // to the budget.
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let mut config = SaConfig::quick(19);
        config.max_evaluations = 5;
        for restarts in [6, 9, 100] {
            let outcome = multistart(config, restarts, RestartBudget::Total)
                .search(&obj, &mesh, 4)
                .outcome;
            // Clamped to 5 restarts of exactly 1 evaluation each.
            assert_eq!(outcome.evaluations, 5, "restarts = {restarts}");
            assert!(
                outcome.method.contains("multistart[5]"),
                "restarts = {restarts}: {}",
                outcome.method
            );
        }
        // An exact split (restarts == budget) is left alone.
        let exact = multistart(config, 5, RestartBudget::Total)
            .search(&obj, &mesh, 4)
            .outcome;
        assert_eq!(exact.evaluations, 5);
        assert!(exact.method.contains("multistart[5]"));
    }

    #[test]
    fn random_mapping_is_injective() {
        let mesh = Mesh::new(5, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let m = random_mapping(&mesh, 12, &mut rng);
            m.validate().unwrap();
            assert_eq!(m.core_count(), 12);
        }
    }

    #[test]
    fn proposed_swaps_are_distinct_tiles() {
        let mesh = Mesh::new(2, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let (a, b) = propose_swap(&mesh, &mut rng);
            assert_ne!(a, b);
            assert!(mesh.contains(a) && mesh.contains(b));
        }
    }
}
