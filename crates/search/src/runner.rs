//! A pausable simulated-annealing run — the population member of the
//! adaptive restart scheduler.
//!
//! [`SaMember`] carries the complete state of one annealing trajectory
//! (current/best mapping, temperature, private RNG, its own objective
//! clone) so the scheduler can advance it in budget slices, park it, and
//! revive it later with a temperature reheat. Each member's RNG stream is
//! self-contained, which is what makes round-parallel execution
//! deterministic: a member's trajectory depends only on its seed and the
//! cumulative quota it received, never on which thread ran it.

use crate::objective::SwapDeltaCost;
use crate::sa::{propose_swap, random_mapping};
use noc_model::{Mapping, Mesh};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One pausable SA trajectory with a private objective clone and RNG.
#[derive(Debug, Clone)]
pub(crate) struct SaMember<C> {
    /// Stable member index (ties in selection break on it).
    pub(crate) id: usize,
    objective: C,
    rng: StdRng,
    current: Mapping,
    current_cost: f64,
    /// Best mapping this member has visited.
    pub(crate) best: Mapping,
    /// Cost of [`Self::best`] as tracked incrementally (resynced on
    /// revival; the scheduler re-verifies the final winner from scratch).
    pub(crate) best_cost: f64,
    /// `None` until enough budget arrived to auto-calibrate.
    temperature: Option<f64>,
    cooling: f64,
    moves_per_epoch: usize,
    move_in_epoch: usize,
    /// Set on revival: the next advance re-evaluates `current` fully
    /// (billed) before proposing moves, bounding delta drift per round.
    needs_resync: bool,
    /// Evaluations billed to this member so far.
    pub(crate) evaluations: u64,
}

impl<C: SwapDeltaCost> SaMember<C> {
    /// Creates a parked member with seed `base_seed + id`. No evaluations
    /// are performed until [`Self::advance`] grants budget.
    pub(crate) fn new(
        objective: C,
        mesh: &Mesh,
        core_count: usize,
        base_seed: u64,
        id: usize,
        cooling: f64,
        moves_per_epoch: Option<usize>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(id as u64));
        let current = random_mapping(mesh, core_count, &mut rng);
        Self {
            id,
            objective,
            rng,
            best: current.clone(),
            current,
            current_cost: f64::INFINITY,
            best_cost: f64::INFINITY,
            temperature: None,
            cooling,
            moves_per_epoch: moves_per_epoch.unwrap_or(8 * mesh.tile_count()).max(1),
            move_in_epoch: 0,
            needs_resync: false,
            evaluations: 0,
        }
    }

    /// True once the member has evaluated its starting mapping.
    pub(crate) fn started(&self) -> bool {
        self.best_cost.is_finite()
    }

    /// Revives a surviving member: multiplies the temperature by
    /// `factor` (escaping the cooled-down local basin) and schedules a
    /// full re-synchronisation of the incremental cost.
    pub(crate) fn reheat(&mut self, factor: f64) {
        if let Some(t) = self.temperature.as_mut() {
            *t *= factor;
        }
        self.needs_resync = true;
    }

    /// Runs annealing moves until exactly `quota` evaluations are billed
    /// (initial evaluation and temperature calibration included), then
    /// parks. Returns the evaluations consumed (always `quota`).
    pub(crate) fn advance(&mut self, mesh: &Mesh, quota: u64) -> u64 {
        let mut used = 0u64;
        if quota == 0 {
            return 0;
        }
        if !self.started() {
            self.current_cost = self.objective.cost(&self.current);
            self.best_cost = self.current_cost;
            self.best = self.current.clone();
            used += 1;
        } else if self.needs_resync && used < quota {
            self.current_cost = self.objective.cost(&self.current);
            used += 1;
        }
        self.needs_resync = false;
        if self.temperature.is_none() && used < quota {
            // Same 16-sample, budget-capped calibration as `anneal_delta`.
            let samples = 16.min(quota - used);
            let mut sum = 0.0;
            for _ in 0..samples {
                let (a, b) = propose_swap(mesh, &mut self.rng);
                sum += self.objective.swap_delta(&self.current, a, b).abs();
                used += 1;
            }
            if samples > 0 {
                let mean = sum / samples as f64;
                self.temperature = Some((mean / (1.0f64 / 0.8).ln()).max(1e-9));
            }
        }
        while used < quota {
            let temperature = self.temperature.unwrap_or(1e-9);
            let (a, b) = propose_swap(mesh, &mut self.rng);
            let delta = self.objective.swap_delta(&self.current, a, b);
            used += 1;
            let accept = delta <= 0.0 || self.rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                self.current.swap_tiles(a, b);
                self.current_cost += delta;
                if self.current_cost < self.best_cost - 1e-9 {
                    self.best_cost = self.current_cost;
                    self.best = self.current.clone();
                }
            }
            self.move_in_epoch += 1;
            if self.move_in_epoch >= self.moves_per_epoch {
                self.move_in_epoch = 0;
                if let Some(t) = self.temperature.as_mut() {
                    *t *= self.cooling;
                }
            }
        }
        self.evaluations += used;
        used
    }

    /// From-scratch cost of a mapping under this member's objective
    /// (used by the scheduler for the final verification evaluation).
    pub(crate) fn verify_cost(&self, mapping: &Mapping) -> f64 {
        self.objective.cost(mapping)
    }
}
