//! The FRW-style exploration facade.
//!
//! [`Explorer`] bundles an application CDCG, a mesh, a technology point
//! and the wormhole parameters, and runs either mapping strategy
//! ([`Strategy::Cwm`] or [`Strategy::Cdcm`]) under any search method —
//! mirroring the paper's FRW framework, which "implements a simulated
//! annealing search method to obtain mapping solutions for CWM and CDCM"
//! and "can also execute an exhaustive search method … for small NoCs".
//!
//! [`Explorer::search`] is the one dispatch point for a solve job;
//! [`Explorer::explore`] is its unpinned, uncancellable shorthand.

use crate::constraints::exhaustive_constrained;
use crate::exhaustive::exhaustive;
use crate::greedy::greedy;
use crate::objective::{BatchCost, CdcmObjective, CwmObjective, SwapDeltaCost};
use noc_energy::Technology;
use noc_model::{
    Cdcg, Cwg, FaultScenario, Mapping, Mesh, ModelError, RouteProvider, RouteSource, RoutingKind,
};
use noc_search::{
    anneal_cancellable, anneal_delta_cancellable, random_search, AdaptiveConfig, AdaptiveRestarts,
    CancelToken, Constraints, GaConfig, GeneticSearch, MultiStartSa, Portfolio, PortfolioConfig,
    RestartBudget, SaConfig, SearchOutcome, SearchRun, SearchStrategy, TabuConfig, TabuSearch,
};
use noc_sim::SimParams;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Which application model drives the cost function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Communication weighted model — Equation 3 on the collapsed CWG.
    Cwm,
    /// Communication dependence and computation model — Equation 10.
    Cdcm,
}

impl Strategy {
    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Self::Cwm => "CWM",
            Self::Cdcm => "CDCM",
        }
    }

    /// Request name: the lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            Self::Cwm => "cwm",
            Self::Cdcm => "cdcm",
        }
    }

    /// Resolves a request name, ignoring surrounding whitespace and ASCII
    /// case; `None` for any other name.
    pub fn from_name(name: &str) -> Option<Self> {
        [Self::Cwm, Self::Cdcm]
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name.trim()))
    }
}

/// Which engine explores the mapping space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchMethod {
    /// Simulated annealing with the given configuration.
    SimulatedAnnealing(SaConfig),
    /// Parallel multi-start simulated annealing: `restarts` independent
    /// seeded runs across the available cores, reduced deterministically
    /// to the best outcome.
    MultiStartSa {
        /// Base configuration; restart `i` runs with `config.seed + i`.
        config: SaConfig,
        /// Number of independent restarts.
        restarts: u32,
        /// How `config.max_evaluations` is split across restarts.
        budget: RestartBudget,
    },
    /// Exhaustive enumeration (small NoCs only).
    Exhaustive,
    /// Uniform random sampling with a sample budget.
    Random {
        /// Number of samples.
        samples: u64,
        /// RNG seed.
        seed: u64,
    },
    /// Steepest-descent with random restarts.
    Greedy {
        /// Number of restarts.
        restarts: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Adaptive restart scheduling: a population of pausable SA runs
    /// executed in rounds, with successive-halving budget reallocation
    /// to the best basins and temperature reheating on revival (see
    /// [`noc_search::AdaptiveRestarts`]).
    Adaptive(AdaptiveConfig),
    /// Permutation genetic algorithm: tournament selection, PMX/cycle
    /// crossover, incremental-delta swap mutation, elitism (see
    /// [`noc_search::GeneticSearch`]).
    Genetic(GaConfig),
    /// Tabu search with a swap-attribute tabu list and aspiration (see
    /// [`noc_search::TabuSearch`]).
    Tabu(TabuConfig),
    /// Heterogeneous portfolio: the budget splits evenly across static
    /// multi-start SA, adaptive restarts, the GA and tabu search (see
    /// [`noc_search::Portfolio`]).
    Portfolio(PortfolioConfig),
}

impl SearchMethod {
    /// The method's name on the CLI (`--method`).
    pub fn name(&self) -> &'static str {
        match self {
            Self::SimulatedAnnealing(_) => "sa",
            Self::MultiStartSa { .. } => "sa-multi",
            Self::Exhaustive => "es",
            Self::Random { .. } => "random",
            Self::Greedy { .. } => "greedy",
            Self::Adaptive(_) => "adaptive",
            Self::Genetic(_) => "ga",
            Self::Tabu(_) => "tabu",
            Self::Portfolio(_) => "portfolio",
        }
    }
}

/// Why [`Explorer::search`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The pins do not fit the instance.
    Pins(ModelError),
    /// Pins came with a method other than SA or ES (its CLI name).
    PinsUnsupported(&'static str),
    /// The method's budget leaves nothing to search: greedy with zero
    /// `restarts`, random with zero `samples` (its CLI name and the field).
    EmptyBudget {
        /// The method's CLI name.
        method: &'static str,
        /// The field that is zero.
        field: &'static str,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Pins(e) => e.fmt(f),
            Self::PinsUnsupported(method) => write!(
                f,
                "method `{method}` does not take pins; pinned jobs run `sa` or `es`"
            ),
            Self::EmptyBudget { method, field } => {
                write!(f, "method `{method}` needs `{field}` of at least 1")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Runs one search method against a concrete objective. All engines
/// route through here, so every `Explorer` strategy supports every
/// method. Pins reach only SA and ES ([`Explorer::search`] refuses the
/// rest). The cancel token reaches every annealing and strategy engine;
/// the enumerative engines (exhaustive, random, greedy) run to
/// completion — their budgets are explicit and small by construction.
fn run_method<C: SwapDeltaCost + BatchCost + Clone + Send>(
    objective: &C,
    mesh: &Mesh,
    cores: usize,
    method: SearchMethod,
    pins: Option<&Constraints>,
    cancel: &CancelToken,
) -> SearchRun {
    match method {
        // Single-start SA uses swap-delta move evaluation — the low
        // computational complexity the paper credits CWM with; for CDCM
        // each move is one full evaluation unless no route changes.
        // Pinned SA evaluates every move in full over the free tiles.
        SearchMethod::SimulatedAnnealing(config) => SearchRun::from_outcome(match pins {
            Some(_) => anneal_cancellable(objective, mesh, cores, pins, &config, cancel),
            None => anneal_delta_cancellable(objective, mesh, cores, &config, cancel),
        }),
        SearchMethod::MultiStartSa {
            config,
            restarts,
            budget,
        } => MultiStartSa {
            config,
            restarts: restarts as usize,
            budget,
        }
        .search_cancellable(objective, mesh, cores, cancel),
        SearchMethod::Exhaustive => SearchRun::from_outcome(match pins {
            Some(pins) => exhaustive_constrained(objective, mesh, cores, pins),
            None => exhaustive(objective, mesh, cores),
        }),
        SearchMethod::Random { samples, seed } => {
            SearchRun::from_outcome(random_search(objective, mesh, cores, samples, seed))
        }
        SearchMethod::Greedy { restarts, seed } => {
            SearchRun::from_outcome(greedy(objective, mesh, cores, restarts, seed))
        }
        SearchMethod::Adaptive(config) => {
            AdaptiveRestarts::new(config).search_cancellable(objective, mesh, cores, cancel)
        }
        SearchMethod::Genetic(config) => {
            GeneticSearch::new(config).search_cancellable(objective, mesh, cores, cancel)
        }
        SearchMethod::Tabu(config) => {
            TabuSearch::new(config).search_cancellable(objective, mesh, cores, cancel)
        }
        SearchMethod::Portfolio(config) => {
            Portfolio::new(config).search_cancellable(objective, mesh, cores, cancel)
        }
    }
}

/// Exploration facade over one application instance.
#[derive(Debug, Clone)]
pub struct Explorer<'a> {
    cdcg: &'a Cdcg,
    cwg: Cwg,
    mesh: Mesh,
    tech: Technology,
    params: SimParams,
    /// Route provider of `mesh`, built once and shared by every objective
    /// this explorer builds (and by their per-thread clones). The tier is
    /// size-aware by default (dense for small meshes, implicit beyond),
    /// so arbitrarily large meshes explore out of the box.
    routes: Arc<RouteProvider>,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer; the CWG used by the CWM strategy is collapsed
    /// from `cdcg` once, up front, and the mesh's route provider is built
    /// once (under XY routing, the paper's default) for every objective
    /// the explorer runs.
    pub fn new(cdcg: &'a Cdcg, mesh: Mesh, tech: Technology, params: SimParams) -> Self {
        let routes = Arc::new(RouteProvider::auto(&mesh, RoutingKind::Xy));
        Self::with_provider(cdcg, mesh, tech, params, routes)
    }

    /// [`Explorer::new`] over an explicit shared route provider (any
    /// routing, any tier — dense, implicit or fault-aware; search results
    /// are bit-identical across tiers). Every objective the explorer
    /// builds evaluates over its routes.
    ///
    /// # Panics
    ///
    /// Panics if `routes` was built for a different mesh than `mesh`.
    pub fn with_provider(
        cdcg: &'a Cdcg,
        mesh: Mesh,
        tech: Technology,
        params: SimParams,
        routes: Arc<RouteProvider>,
    ) -> Self {
        assert_eq!(
            routes.mesh(),
            &mesh,
            "route provider was built for a different mesh"
        );
        Self {
            cdcg,
            cwg: cdcg.to_cwg(),
            routes,
            mesh,
            tech,
            params,
        }
    }

    /// The shared route provider of the target mesh.
    pub fn route_provider(&self) -> &Arc<RouteProvider> {
        &self.routes
    }

    /// The application graph.
    pub fn cdcg(&self) -> &Cdcg {
        self.cdcg
    }

    /// The collapsed communication graph.
    pub fn cwg(&self) -> &Cwg {
        &self.cwg
    }

    /// The target mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The technology point.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The wormhole parameters.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Traffic-weighted link-criticality report of a mapping over this
    /// explorer's routes: single-point-of-failure exposure (see
    /// [`crate::robustness::link_criticality`]).
    pub fn link_criticality(&self, mapping: &Mapping) -> crate::robustness::CriticalityReport {
        crate::robustness::link_criticality(&self.cwg, self.routes.as_ref(), mapping)
    }

    /// Injects a fault scenario, measures the incumbent's degraded cost
    /// over the fault-aware route tier, and re-optimizes within
    /// `budget` evaluations (see [`crate::robustness::remap_after_faults`]).
    ///
    /// # Panics
    ///
    /// Panics if this explorer was built for a custom routing algorithm
    /// (fault-aware rerouting needs a library routing kind).
    pub fn remap_after_faults(
        &self,
        incumbent: &Mapping,
        scenario: FaultScenario,
        budget: u64,
        seed: u64,
    ) -> crate::robustness::RemapReport {
        crate::robustness::remap_after_faults(
            self.cdcg,
            &self.tech,
            self.params,
            &self.routes,
            scenario.generate(&self.mesh),
            incumbent,
            budget,
            seed,
        )
    }

    /// Runs one strategy under one search method and returns the best
    /// mapping found: [`Explorer::search`] without pins or cancellation.
    pub fn explore(&self, strategy: Strategy, method: SearchMethod) -> SearchOutcome {
        self.dispatch(strategy, method, None, &CancelToken::new())
            .outcome
    }

    /// Runs one strategy under one search method and returns the best
    /// mapping with its telemetry (engines without native telemetry
    /// report a single final point).
    ///
    /// Any pin set, even an empty one, selects the pinned engines: SA runs
    /// the full-cost annealer over the free tiles (`SA-pinned`), ES
    /// enumerates the pin-honouring placements (`ES-pinned`).
    ///
    /// Tripping `cancel` stops the engine at its next checkpoint with the
    /// verified best-so-far; an untripped token changes nothing.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Pins`] if the pins do not fit the instance,
    /// [`ExploreError::PinsUnsupported`] if they come with another method,
    /// [`ExploreError::EmptyBudget`] for greedy with zero restarts or
    /// random with zero samples.
    pub fn search(
        &self,
        strategy: Strategy,
        method: SearchMethod,
        pins: Option<&Constraints>,
        cancel: &CancelToken,
    ) -> Result<SearchRun, ExploreError> {
        if let Some(pins) = pins {
            pins.validate(&self.mesh, self.cdcg.core_count())
                .map_err(ExploreError::Pins)?;
            if !matches!(
                method,
                SearchMethod::SimulatedAnnealing(_) | SearchMethod::Exhaustive
            ) {
                return Err(ExploreError::PinsUnsupported(method.name()));
            }
        }
        let empty = match method {
            SearchMethod::Greedy { restarts: 0, .. } => Some("restarts"),
            SearchMethod::Random { samples: 0, .. } => Some("samples"),
            _ => None,
        };
        if let Some(field) = empty {
            let method = method.name();
            return Err(ExploreError::EmptyBudget { method, field });
        }
        Ok(self.dispatch(strategy, method, pins, cancel))
    }

    /// Builds the strategy's objective over the shared routes and runs
    /// `method` on it; `pins` are already checked.
    fn dispatch(
        &self,
        strategy: Strategy,
        method: SearchMethod,
        pins: Option<&Constraints>,
        cancel: &CancelToken,
    ) -> SearchRun {
        let cores = self.cdcg.core_count();
        match strategy {
            Strategy::Cwm => {
                let objective = CwmObjective::with_provider(
                    &self.cwg,
                    &self.mesh,
                    &self.tech,
                    Arc::clone(&self.routes),
                );
                run_method(&objective, &self.mesh, cores, method, pins, cancel)
            }
            Strategy::Cdcm => {
                let objective = CdcmObjective::with_provider(
                    self.cdcg,
                    &self.tech,
                    self.params,
                    Arc::clone(&self.routes),
                );
                let run = run_method(&objective, &self.mesh, cores, method, pins, cancel);
                // The objective is dropped when this frame returns; on a
                // tier that memoizes walks (implicit, fault-aware),
                // surface its walk-memo counters, which include those of
                // the clones a multi-start or adaptive search evaluated
                // on, as a trace event. Pure read — the outcome is
                // already fixed.
                if let Some(memo) = objective.walk_memo_stats() {
                    noc_obs::emit_with(|| {
                        let mut event = noc_obs::TraceEvent::new("walk_memo");
                        event.label = run.outcome.method.clone();
                        event.counters = vec![
                            ("memo_hits", memo.hits),
                            ("memo_misses", memo.misses),
                            ("memo_evictions", memo.evictions),
                        ];
                        event
                    });
                }
                run
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::TileId;

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
    fn cdcm_exhaustive_beats_or_ties_cwm_best_in_total_energy() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let explorer = Explorer::new(
            &cdcg,
            mesh,
            Technology::paper_example(),
            SimParams::paper_example(),
        );
        let cwm = explorer.explore(Strategy::Cwm, SearchMethod::Exhaustive);
        let cdcm = explorer.explore(Strategy::Cdcm, SearchMethod::Exhaustive);
        // Evaluate CWM's winner under the true (Eq. 10) objective: CDCM's
        // winner can never be worse.
        let true_cost_of_cwm_pick = noc_energy::evaluate_cdcm(
            &cdcg,
            explorer.mesh(),
            &cwm.mapping,
            explorer.technology(),
            explorer.params(),
        )
        .unwrap()
        .objective_pj();
        assert!(cdcm.cost <= true_cost_of_cwm_pick + 1e-9);
    }

    #[test]
    fn strategies_report_their_labels() {
        assert_eq!(Strategy::Cwm.label(), "CWM");
        assert_eq!(Strategy::Cdcm.label(), "CDCM");
    }

    #[test]
    fn all_methods_produce_valid_mappings() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let explorer = Explorer::new(
            &cdcg,
            mesh,
            Technology::paper_example(),
            SimParams::paper_example(),
        );
        let methods = [
            SearchMethod::SimulatedAnnealing(SaConfig::quick(3)),
            SearchMethod::MultiStartSa {
                config: SaConfig::quick(3),
                restarts: 3,
                budget: RestartBudget::Total,
            },
            SearchMethod::Exhaustive,
            SearchMethod::Random {
                samples: 30,
                seed: 3,
            },
            SearchMethod::Greedy {
                restarts: 2,
                seed: 3,
            },
        ];
        for method in methods {
            for strategy in [Strategy::Cwm, Strategy::Cdcm] {
                let outcome = explorer.explore(strategy, method);
                outcome.mapping.validate().unwrap();
                assert!(outcome.cost.is_finite());
                assert!(outcome.evaluations > 0);
            }
        }
    }

    #[test]
    fn empty_greedy_and_random_budgets_are_refused() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let explorer = Explorer::new(&cdcg, mesh, Technology::t007(), SimParams::new());
        let search = |method| {
            explorer
                .search(Strategy::Cdcm, method, None, &CancelToken::new())
                .map(|run| run.outcome.evaluations)
        };
        let greedy = search(SearchMethod::Greedy {
            restarts: 0,
            seed: 1,
        });
        assert_eq!(
            greedy.unwrap_err().to_string(),
            "method `greedy` needs `restarts` of at least 1"
        );
        let random = search(SearchMethod::Random {
            samples: 0,
            seed: 1,
        });
        assert_eq!(
            random,
            Err(ExploreError::EmptyBudget {
                method: "random",
                field: "samples"
            })
        );
        let one = SearchMethod::Random {
            samples: 1,
            seed: 1,
        };
        assert_eq!(search(one), Ok(1));
    }

    #[test]
    fn routed_explorer_evaluates_under_its_routing() {
        use noc_model::YxRouting;
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let routes = Arc::new(RouteProvider::auto(&mesh, RoutingKind::Yx));
        let explorer = Explorer::with_provider(
            &cdcg,
            mesh,
            Technology::paper_example(),
            SimParams::paper_example(),
            routes,
        );
        assert_eq!(explorer.route_provider().routing_name(), "YX");
        let outcome = explorer.explore(Strategy::Cdcm, SearchMethod::Exhaustive);
        // The reported cost is the YX evaluation of the winner, not XY.
        let want = noc_energy::total::evaluate_cdcm_with(
            &cdcg,
            explorer.mesh(),
            &outcome.mapping,
            explorer.technology(),
            explorer.params(),
            &YxRouting,
        )
        .unwrap()
        .objective_pj();
        assert_eq!(outcome.cost, want);
    }

    #[test]
    fn explorer_exposes_instance_parts() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let explorer = Explorer::new(
            &cdcg,
            mesh,
            Technology::paper_example(),
            SimParams::paper_example(),
        );
        assert_eq!(explorer.cdcg().packet_count(), 6);
        assert_eq!(explorer.cwg().communication_count(), 5);
        assert_eq!(explorer.mesh().tile_count(), 4);
        // Figure 1 check: the collapsed E→A volume is 35.
        let e = explorer.cwg().core_by_name("E").unwrap();
        let a = explorer.cwg().core_by_name("A").unwrap();
        assert_eq!(explorer.cwg().volume(e, a), Some(35));
        let _ = TileId::new(0);
    }

    #[test]
    fn walk_memo_event_counts_the_clones_a_search_evaluates_on() {
        // One restart of multi-start SA anneals a clone of the objective
        // along the trajectory `sa` anneals the objective itself on, so
        // both report the same walk-memo counters.
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(5, 5).unwrap();
        let routes = Arc::new(RouteProvider::implicit(&mesh, RoutingKind::Xy));
        let explorer = Explorer::with_provider(
            &cdcg,
            mesh,
            Technology::paper_example(),
            SimParams::paper_example(),
            routes,
        );
        let memo_event = |method| {
            let sink = Arc::new(noc_obs::MemorySink::new());
            let run = noc_obs::with_job(1, Arc::clone(&sink) as _, || {
                explorer.search(Strategy::Cdcm, method, None, &CancelToken::default())
            })
            .unwrap();
            let events = sink.take().into_iter().map(|(_, event)| event);
            let memo: Vec<_> = events.filter(|e| e.kind == "walk_memo").collect();
            assert_eq!(memo.len(), 1, "one walk_memo event per search");
            (run.outcome.mapping, memo[0].counters.clone())
        };
        let config = SaConfig {
            max_evaluations: 400,
            ..SaConfig::quick(3)
        };
        let (sa_best, sa) = memo_event(SearchMethod::SimulatedAnnealing(config));
        let (multi_best, multi) = memo_event(SearchMethod::MultiStartSa {
            config,
            restarts: 1,
            budget: RestartBudget::Total,
        });
        assert_eq!(
            multi_best, sa_best,
            "one restart anneals the same trajectory"
        );
        assert_eq!(multi, sa);
        assert!(
            sa[0].1 > 0 && sa[1].1 > 0,
            "the memo hit and missed: {sa:?}"
        );
    }
}
