//! Common search telemetry: per-round budgets, basin survivals, and the
//! best-so-far curve.
//!
//! Every [`SearchStrategy`](crate::SearchStrategy) emits one
//! [`SearchTelemetry`] per run. Telemetry is part of the determinism
//! contract: for a fixed configuration (including the seed) the whole
//! structure must be bit-identical between runs, regardless of how many
//! threads executed the rounds.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The one sanctioned wall-clock read in the deterministic crates.
///
/// Search and mapping code reports elapsed wall time in its telemetry,
/// but a clock value must never *feed a decision* — trajectories are a
/// function of (configuration, seed) alone. Funnelling every read
/// through this helper keeps the audit surface a single line: the
/// `noc-verify` DET02 rule flags any other `Instant::now()` in
/// `search`/`mapping`/`model`/`sim`, so a new timing site is a
/// reviewable event rather than a silent drift risk.
pub fn wall_clock() -> Instant {
    Instant::now() // noc-verify: allow(DET02) — the designated telemetry scope; callers may only report elapsed time, never branch on it
}

/// One point of the best-so-far curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Cumulative billed evaluations when the point was recorded.
    pub evaluations: u64,
    /// Best cost known at that point.
    pub cost: f64,
}

/// Evaluation budget granted to one population member in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberBudget {
    /// Member (restart / basin) index.
    pub member: usize,
    /// Evaluations granted this round.
    pub evals: u64,
}

/// Telemetry of one scheduling round of a population-based strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTelemetry {
    /// Round index (0-based).
    pub round: usize,
    /// Budget granted to each *active* member this round.
    pub budgets: Vec<MemberBudget>,
    /// Members surviving into the next round (empty after the last
    /// round, or for strategies without selection).
    pub survivors: Vec<usize>,
    /// Best cost known across the population after the round.
    pub best_cost: f64,
}

/// Telemetry of one search run: what the strategy spent and where.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SearchTelemetry {
    /// Strategy label (matches `SearchOutcome::method`).
    pub strategy: String,
    /// Total billed evaluations (must equal `SearchOutcome::evaluations`).
    pub evaluations: u64,
    /// Per-round budget allocation and survivals (population strategies).
    pub rounds: Vec<RoundTelemetry>,
    /// Monotonically improving best-so-far curve.
    pub best_curve: Vec<CurvePoint>,
    /// Sub-strategy telemetries (portfolio runs).
    pub children: Vec<SearchTelemetry>,
}

impl SearchTelemetry {
    /// Empty telemetry for a strategy label.
    pub fn new(strategy: impl Into<String>) -> Self {
        Self {
            strategy: strategy.into(),
            ..Self::default()
        }
    }

    /// Minimal telemetry for engines without rounds: evaluation total and
    /// a single final curve point. Mirrored as a `"best"` trace event
    /// when a `noc-obs` context is installed, like
    /// [`SearchTelemetry::record_best`].
    pub fn single_point(strategy: impl Into<String>, evaluations: u64, cost: f64) -> Self {
        let strategy = strategy.into();
        noc_obs::emit_with(|| {
            let mut event = noc_obs::TraceEvent::new("best");
            event.label = strategy.clone();
            event.evaluations = evaluations;
            event.cost = Some(cost);
            event
        });
        Self {
            strategy,
            evaluations,
            best_curve: vec![CurvePoint { evaluations, cost }],
            ..Self::default()
        }
    }

    /// Appends a best-so-far point if it improves on the last one (or is
    /// the first). Improvements are also mirrored as a `"best"` trace
    /// event when the calling thread has a `noc-obs` context installed
    /// (the mirror only *reads* the new point, so trajectories are
    /// unaffected).
    pub fn record_best(&mut self, evaluations: u64, cost: f64) {
        if self.best_curve.last().is_none_or(|last| cost < last.cost) {
            self.best_curve.push(CurvePoint { evaluations, cost });
            noc_obs::emit_with(|| {
                let mut event = noc_obs::TraceEvent::new("best");
                event.label = self.strategy.clone();
                event.evaluations = evaluations;
                event.cost = Some(cost);
                event
            });
        }
    }

    /// Appends one round of telemetry, mirroring it as a `"round"` trace
    /// event (budgets as `members`, survivors, best cost) when a
    /// `noc-obs` context is installed. Call sites that previously pushed
    /// onto [`SearchTelemetry::rounds`] directly go through here so the
    /// flight recorder sees every round live.
    pub fn push_round(&mut self, round: RoundTelemetry) {
        noc_obs::emit_with(|| {
            let mut event = noc_obs::TraceEvent::new("round");
            event.label = self.strategy.clone();
            event.round = Some(round.round as u64);
            event.cost = Some(round.best_cost);
            event.members = round
                .budgets
                .iter()
                .map(|b| (b.member as u64, b.evals))
                .collect();
            event.survivors = round.survivors.iter().map(|&s| s as u64).collect();
            event
        });
        self.rounds.push(round);
    }

    /// Total evaluations granted to each member across all rounds, in
    /// ascending member order. Members that never received budget are
    /// absent. The adaptive scheduler's reallocation shows up here as a
    /// *nonuniform* distribution.
    // noc-verify: allow(API02) — test oracle: `tests/search_strategies.rs` checks adaptive reallocation with it
    pub fn member_budget_totals(&self) -> Vec<MemberBudget> {
        let mut totals: Vec<MemberBudget> = Vec::new();
        for round in &self.rounds {
            for b in &round.budgets {
                match totals.iter_mut().find(|t| t.member == b.member) {
                    Some(t) => t.evals += b.evals,
                    None => totals.push(*b),
                }
            }
        }
        totals.sort_by_key(|t| t.member);
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_best_keeps_the_curve_monotone() {
        let mut t = SearchTelemetry::new("test");
        t.record_best(1, 10.0);
        t.record_best(2, 12.0); // worse: ignored
        t.record_best(3, 8.0);
        let costs: Vec<f64> = t.best_curve.iter().map(|p| p.cost).collect();
        assert_eq!(costs, vec![10.0, 8.0]);
    }

    #[test]
    fn member_totals_aggregate_across_rounds() {
        let mut t = SearchTelemetry::new("test");
        t.rounds.push(RoundTelemetry {
            round: 0,
            budgets: vec![
                MemberBudget {
                    member: 0,
                    evals: 5,
                },
                MemberBudget {
                    member: 1,
                    evals: 5,
                },
            ],
            survivors: vec![0],
            best_cost: 1.0,
        });
        t.rounds.push(RoundTelemetry {
            round: 1,
            budgets: vec![MemberBudget {
                member: 0,
                evals: 10,
            }],
            survivors: vec![],
            best_cost: 0.5,
        });
        let totals = t.member_budget_totals();
        assert_eq!(
            totals,
            vec![
                MemberBudget {
                    member: 0,
                    evals: 15
                },
                MemberBudget {
                    member: 1,
                    evals: 5
                },
            ]
        );
    }

    #[test]
    fn serde_roundtrip() {
        let mut t = SearchTelemetry::single_point("adaptive", 42, 3.5);
        t.children.push(SearchTelemetry::new("child"));
        let json = serde_json::to_string(&t).unwrap();
        let back: SearchTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
