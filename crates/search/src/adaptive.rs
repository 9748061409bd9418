//! Adaptive restart scheduling: successive-halving budget reallocation
//! over a population of pausable SA runs.
//!
//! Static multi-start ([`crate::MultiStartSa`]) splits the evaluation
//! budget evenly and lets every restart run to its share, wasting most of
//! the budget on basins that were visibly hopeless after a fraction of
//! it. The adaptive scheduler instead executes the population in
//! *rounds*: each round grants every still-active member an equal slice,
//! ranks the population, halves it (successive halving — the bandit-style
//! budget rule of Hyperband/ASHA), and *reheats* the survivors'
//! temperatures so the extra budget explores around the good basins
//! instead of freezing in them.
//!
//! `rounds = 1` degenerates to the static `RestartBudget::Total` split
//! (no selection, no reheat); `population = 1` degenerates to a single
//! SA run with periodic reheats. Both budget modes of the legacy
//! multi-start are therefore corner cases of this scheduler.
//!
//! Determinism: members own their RNG streams and objective clones, so a
//! member's trajectory depends only on its seed and cumulative quota.
//! Rounds may execute members on any number of threads; results are
//! collected by member index and every ranking tie breaks toward the
//! lower index (the same deterministic-reduction rule as
//! [`crate::MultiStartSa`]).
//!
//! The objective clones are also what keeps the walk-memoization story
//! lock-free under round advancement: a simulator-backed objective's
//! clone duplicates its private `noc_model::WalkMemo` table wholesale
//! (or starts a fresh one), so each member thread memoizes into memory
//! it exclusively owns — no shards, no guards, no cross-thread sharing,
//! and a member's hit pattern depends only on its own trajectory.

use crate::cancel::CancelToken;
use crate::objective::SwapDeltaCost;
use crate::outcome::SearchOutcome;
use crate::runner::SaMember;
use crate::strategy::{SearchRun, SearchStrategy};
use crate::telemetry::{MemberBudget, RoundTelemetry, SearchTelemetry};
use noc_model::Mesh;
use serde::{Deserialize, Serialize};

/// Configuration of the adaptive restart scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Initial population of SA members (member `i` seeds with
    /// `seed + i`, exactly like multi-start restarts).
    pub population: usize,
    /// Scheduling rounds. The budget splits evenly across rounds; the
    /// active population halves after each round (floor, min 1).
    pub rounds: usize,
    /// Total evaluation budget across the whole population.
    pub budget: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Geometric cooling factor per epoch, as in
    /// [`SaConfig`](crate::SaConfig).
    pub cooling: f64,
    /// Moves per temperature epoch; `None` scales with the tile count.
    pub moves_per_epoch: Option<usize>,
    /// Temperature multiplier applied to survivors on revival (> 1
    /// reheats; 1.0 disables reheating).
    pub reheat: f64,
}

impl AdaptiveConfig {
    /// Balanced defaults: population 8, 4 rounds, 2 M evaluations,
    /// 0.95 cooling, 1.6 reheat.
    pub fn new(seed: u64) -> Self {
        Self {
            population: 8,
            rounds: 4,
            budget: 2_000_000,
            seed,
            cooling: 0.95,
            moves_per_epoch: None,
            reheat: 1.6,
        }
    }

    /// A fast profile for tests and CI.
    pub fn quick(seed: u64) -> Self {
        Self {
            budget: 20_000,
            ..Self::new(seed)
        }
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

/// The adaptive restart scheduler as a [`SearchStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveRestarts {
    /// Scheduler configuration.
    pub config: AdaptiveConfig,
}

impl AdaptiveRestarts {
    /// Strategy with the given configuration.
    pub fn new(config: AdaptiveConfig) -> Self {
        Self { config }
    }
}

/// Advances the members named by `jobs` (`(member index, quota)`), in
/// parallel when the machine has cores to spare. Results land back in
/// `slots` by member index — placement never affects the outcome.
fn advance_round<C: SwapDeltaCost + Send>(
    slots: &mut [Option<SaMember<C>>],
    jobs: Vec<(usize, u64)>,
    mesh: &Mesh,
) {
    // noc-verify: allow(DET03) — thread count only batches members across workers; results land back by member index, so placement never affects the outcome
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs.len().max(1));
    if threads <= 1 {
        for (id, quota) in jobs {
            let member = slots[id].as_mut().expect("member parked in its slot");
            member.advance(mesh, quota);
        }
        return;
    }
    let mut batches: Vec<Vec<(usize, SaMember<C>, u64)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for (pos, (id, quota)) in jobs.into_iter().enumerate() {
        let member = slots[id].take().expect("member parked in its slot");
        batches[pos % threads].push((id, member, quota));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                scope.spawn(move || {
                    batch
                        .into_iter()
                        .map(|(id, mut member, quota)| {
                            member.advance(mesh, quota);
                            (id, member)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (id, member) in handle.join().expect("search worker panicked") {
                slots[id] = Some(member);
            }
        }
    });
}

impl<C: SwapDeltaCost + Clone + Send> SearchStrategy<C> for AdaptiveRestarts {
    fn name(&self) -> String {
        "adaptive".to_owned()
    }

    fn search_cancellable(
        &self,
        objective: &C,
        mesh: &Mesh,
        core_count: usize,
        cancel: &CancelToken,
    ) -> SearchRun {
        let start = crate::telemetry::wall_clock();
        let config = &self.config;
        let population = config.population.max(1);
        let rounds = config.rounds.max(1);
        let budget = config.budget.max(1);

        // Clones happen on the calling thread (like `run_multistart`), so
        // `C` needs `Clone + Send` but not `Sync`.
        let mut slots: Vec<Option<SaMember<C>>> = (0..population)
            .map(|id| {
                Some(SaMember::new(
                    objective.clone(),
                    mesh,
                    core_count,
                    config.seed,
                    id,
                    config.cooling,
                    config.moves_per_epoch,
                ))
            })
            .collect();
        let mut active: Vec<usize> = (0..population).collect();
        let method = format!("adaptive[{population}x{rounds}]");
        let mut telemetry = SearchTelemetry::new(method.clone());
        let mut spent = 0u64;

        for round in 0..rounds {
            // Cancellation checkpoint: stop at the round boundary. Round
            // 0 always runs, so the winner reduction below has at least
            // one started member to pick from.
            if round > 0 && cancel.is_cancelled() {
                break;
            }
            let round_budget =
                budget / rounds as u64 + u64::from((round as u64) < budget % rounds as u64);
            let n = active.len() as u64;
            // Equal split inside the round; the remainder goes to the
            // lowest-indexed active members (deterministic).
            let jobs: Vec<(usize, u64)> = active
                .iter()
                .enumerate()
                .map(|(pos, &id)| {
                    (
                        id,
                        round_budget / n + u64::from((pos as u64) < round_budget % n),
                    )
                })
                .collect();
            let budgets: Vec<MemberBudget> = jobs
                .iter()
                .map(|&(member, evals)| MemberBudget { member, evals })
                .collect();
            spent += round_budget;
            advance_round(&mut slots, jobs, mesh);

            // Global best after the round: lowest cost, ties to the
            // lowest member index.
            let (mut best_id, mut best_cost) = (usize::MAX, f64::INFINITY);
            for member in slots.iter().flatten() {
                if member.started() && member.best_cost < best_cost {
                    best_cost = member.best_cost;
                    best_id = member.id;
                }
            }
            debug_assert!(best_id != usize::MAX, "some member must have run");
            telemetry.record_best(spent, best_cost);

            // Successive halving: rank the active members, keep the top
            // half (min 1), reheat the survivors for the next round.
            let mut survivors = Vec::new();
            if round + 1 < rounds && active.len() > 1 {
                let mut ranked = active.clone();
                ranked.sort_by(|&a, &b| {
                    let (ca, cb) = (
                        slots[a].as_ref().expect("parked").best_cost,
                        slots[b].as_ref().expect("parked").best_cost,
                    );
                    ca.total_cmp(&cb).then(a.cmp(&b))
                });
                ranked.truncate((active.len() / 2).max(1));
                ranked.sort_unstable();
                for &id in &ranked {
                    slots[id].as_mut().expect("parked").reheat(config.reheat);
                }
                survivors = ranked;
            }
            telemetry.push_round(RoundTelemetry {
                round,
                budgets,
                survivors: survivors.clone(),
                best_cost,
            });
            if !survivors.is_empty() {
                active = survivors;
            }
        }

        // Winner across *all* members (eliminated members keep their
        // bests), re-verified from scratch so the reported cost carries
        // no incremental drift (unbilled, as in `anneal_delta`).
        let mut winner: Option<&SaMember<C>> = None;
        for member in slots.iter().flatten() {
            if member.started() && winner.is_none_or(|w| member.best_cost < w.best_cost) {
                winner = Some(member);
            }
        }
        let winner = winner.expect("budget >= 1 ran at least one member");
        let evaluations: u64 = slots.iter().flatten().map(|m| m.evaluations).sum();
        debug_assert!(
            cancel.is_cancelled() || evaluations == budget,
            "adaptive bills its exact budget"
        );
        let cost = winner.verify_cost(&winner.best);
        telemetry.evaluations = evaluations;
        let outcome = SearchOutcome {
            mapping: winner.best.clone(),
            cost,
            evaluations,
            elapsed: start.elapsed(),
            method,
            objective: objective.name(),
        };
        SearchRun { outcome, telemetry }
    }
}
