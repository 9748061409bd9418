//! The strategy contract: step/budget/telemetry.
//!
//! A [`SearchStrategy`] owns its *policy* (how to spend an evaluation
//! budget) and is generic over the *objective* (a
//! [`CostFunction`]/[`SwapDeltaCost`](crate::SwapDeltaCost) implementation). The contract:
//!
//! * **Determinism** — for a fixed configuration (including the seed) a
//!   strategy returns bit-identical [`SearchRun`]s, regardless of thread
//!   count. Parallel strategies must follow the deterministic-reduction
//!   rule: every unit of work carries a stable index, results are
//!   collected by index, and ties are broken by the lowest index — never
//!   by completion order.
//! * **Budget accounting** — every objective evaluation (full or
//!   incremental swap delta, each billed as 1) counts against the
//!   configured budget; `SearchRun::outcome.evaluations` reports the
//!   billed total and never exceeds the budget. The one exception,
//!   inherited from `anneal_delta`, is the final *verification*
//!   re-evaluation of the returned best mapping, which exists so the
//!   reported cost is exactly a from-scratch evaluation (no accumulated
//!   delta drift) and is not billed.
//! * **Telemetry** — strategies emit a [`SearchTelemetry`] whose
//!   `evaluations` equals the outcome's and whose best-so-far curve is
//!   monotone.

use crate::cancel::CancelToken;
use crate::objective::CostFunction;
use crate::outcome::SearchOutcome;
use crate::telemetry::SearchTelemetry;
use noc_model::Mesh;
use serde::{Deserialize, Serialize};

/// Outcome plus telemetry of one strategy run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchRun {
    /// Best mapping, cost, and accounting.
    pub outcome: SearchOutcome,
    /// Where the budget went.
    pub telemetry: SearchTelemetry,
}

impl SearchRun {
    /// Wraps an engine without native telemetry (exhaustive, random,
    /// greedy, plain SA) in a single-point telemetry record.
    pub fn from_outcome(outcome: SearchOutcome) -> Self {
        let telemetry = SearchTelemetry::single_point(
            outcome.method.clone(),
            outcome.evaluations,
            outcome.cost,
        );
        Self { outcome, telemetry }
    }
}

/// A budgeted, seeded, telemetry-emitting search policy over an
/// objective type `C`.
pub trait SearchStrategy<C: CostFunction + ?Sized> {
    /// Strategy label (also used as `SearchOutcome::method` prefix).
    fn name(&self) -> String;

    /// Runs the search for an application with `core_count` cores on
    /// `mesh`, minimizing `objective`. See the module docs for the
    /// determinism/budget/telemetry contract.
    ///
    /// Defined as [`SearchStrategy::search_cancellable`] under a fresh,
    /// never-cancelled token — the two are bit-identical for runs that
    /// are not cancelled.
    ///
    /// # Panics
    ///
    /// Panics if `core_count` exceeds the number of tiles of `mesh`.
    fn search(&self, objective: &C, mesh: &Mesh, core_count: usize) -> SearchRun {
        self.search_cancellable(objective, mesh, core_count, &CancelToken::new())
    }

    /// [`SearchStrategy::search`] under cooperative cancellation: the
    /// strategy polls `cancel` at its checkpoint boundary (epoch, round,
    /// generation, iteration, or member — see [`crate::cancel`]) and
    /// returns its verified best-so-far early once the flag is raised,
    /// billing strictly fewer evaluations than the configured budget.
    /// The poll consumes no randomness, so an uncancelled run is
    /// bit-identical to [`SearchStrategy::search`].
    ///
    /// # Panics
    ///
    /// Panics if `core_count` exceeds the number of tiles of `mesh`.
    fn search_cancellable(
        &self,
        objective: &C,
        mesh: &Mesh,
        core_count: usize,
        cancel: &CancelToken,
    ) -> SearchRun;
}
