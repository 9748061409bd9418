//! # noc-mapping
//!
//! Energy- and timing-aware NoC mapping — the primary contribution of
//! Marcon et al. (DATE 2005), reproduced as a library.
//!
//! The mapping problem: given an application of `k` cores and a mesh of
//! `n ≥ k` tiles, find the injective core→tile placement minimizing a
//! cost function. The paper compares two cost models inside the same
//! search loop:
//!
//! * **CWM** ([`CwmObjective`]) — dynamic energy from the communication
//!   weighted graph (Equation 3); cheap but timing-blind.
//! * **CDCM** ([`CdcmObjective`]) — total energy including leakage over
//!   the contention-aware execution time (Equation 10); the paper's
//!   contribution.
//!
//! Search engines: simulated annealing (the FRW method; [`anneal`] and
//! [`anneal_delta`]), [`mod@exhaustive`] search (optimality reference for
//! small NoCs), plus the [`random_search`] and [`mod@greedy`] baselines.
//! The annealers, the pin set ([`Constraints`]) and the metaheuristic
//! strategies live in the `noc-search` subsystem and are re-exported
//! here: parallel multi-start SA ([`MultiStartSa`]), adaptive restart
//! scheduling, a permutation GA, tabu search and a strategy portfolio.
//! [`Explorer::search`] is the one dispatch point for every method,
//! pinned or not; [`Comparison`] computes the paper's ETR/ECS metrics.
//!
//! # Examples
//!
//! ```
//! use noc_mapping::{Explorer, SearchMethod, Strategy};
//! use noc_energy::Technology;
//! use noc_model::{Cdcg, Mesh};
//! use noc_sim::SimParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut app = Cdcg::new();
//! let a = app.add_core("A");
//! let b = app.add_core("B");
//! let c = app.add_core("C");
//! let p0 = app.add_packet(a, b, 4, 64)?;
//! let p1 = app.add_packet(b, c, 2, 32)?;
//! app.add_dependence(p0, p1)?;
//!
//! let explorer = Explorer::new(
//!     &app,
//!     Mesh::new(2, 2)?,
//!     Technology::t007(),
//!     SimParams::paper_example(),
//! );
//! let best = explorer.explore(Strategy::Cdcm, SearchMethod::Exhaustive);
//! assert!(best.cost.is_finite());
//! best.mapping.validate()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraints;
pub mod constructive;
pub mod exhaustive;
pub mod explorer;
pub mod greedy;
pub mod objective;
pub mod pareto;
pub mod report;
pub mod robustness;

// Test-only: the noc-search engines (re-exported below) against this
// crate's objectives.
#[cfg(test)]
mod random_search;
#[cfg(test)]
mod result;
#[cfg(test)]
mod sa;

pub use constraints::exhaustive_constrained;
pub use constructive::{constructive, constructive_mapping};
pub use exhaustive::{exhaustive, for_each_mapping, search_space_size};
pub use explorer::{ExploreError, Explorer, SearchMethod, Strategy};
pub use greedy::greedy;
pub use noc_search::{
    anneal, anneal_cancellable, anneal_delta, anneal_delta_cancellable, random_search,
    AdaptiveConfig, AdaptiveRestarts, CancelToken, Constraints, Crossover, GaConfig, GeneticSearch,
    MultiStartSa, Portfolio, PortfolioConfig, RestartBudget, SaConfig, SearchOutcome, SearchRun,
    SearchStrategy, SearchTelemetry, TabuConfig, TabuSearch, Tenure,
};
pub use objective::{
    BatchCost, CdcmObjective, CostFunction, CwmObjective, ExecTimeObjective, SwapDeltaCost,
    WeightedObjective,
};
pub use pareto::{pareto_front, ParetoPoint};
pub use report::{Comparison, TechComparison};
pub use robustness::{
    fault_sibling, link_criticality, remap_after_faults, traffic_concentration, CriticalityReport,
    LinkLoad, RemapReport, RobustCdcmObjective,
};
