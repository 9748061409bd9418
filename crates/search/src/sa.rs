//! Simulated annealing — the search method of the paper's FRW framework.
//!
//! The paper's §4 describes the loop: start from a random mapping,
//! evaluate its cost, propose a new mapping, keep it if better (or with
//! Boltzmann probability if worse), until a stop condition. The elementary
//! move is a swap of two tiles (occupied or empty), which preserves
//! injectivity by construction.
//!
//! Two loops live here: the full-cost annealer ([`anneal`] /
//! [`anneal_cancellable`], which also runs pinned searches) and the
//! incremental-delta annealer ([`anneal_delta`]). [`MultiStartSa`] runs
//! independent delta annealers in parallel and reduces them
//! deterministically.

use crate::cancel::CancelToken;
use crate::constraints::Constraints;
use crate::objective::{CostFunction, SwapDeltaCost};
use crate::outcome::SearchOutcome;
use crate::strategy::{SearchRun, SearchStrategy};
use crate::telemetry::{MemberBudget, RoundTelemetry, SearchTelemetry};
use noc_model::{Mapping, Mesh, TileId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Mirrors one temperature epoch as an `"epoch"` trace event when a
/// `noc-obs` context is installed (free otherwise — the closure never
/// runs). The accept/reject stream is what the flight recorder shows
/// per live job.
fn emit_epoch(label: &'static str, epoch: u64, evaluations: u64, best: f64, a: u64, r: u64) {
    noc_obs::emit_with(|| {
        let mut event = noc_obs::TraceEvent::new("epoch");
        event.label = label.to_owned();
        event.round = Some(epoch);
        event.evaluations = evaluations;
        event.cost = Some(best);
        event.counters = vec![("accepts", a), ("rejects", r)];
        event
    });
}

/// Annealer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// Initial temperature; `None` auto-calibrates from a random-move
    /// sample so that ~80 % of uphill moves are initially accepted.
    pub initial_temperature: Option<f64>,
    /// Geometric cooling factor per epoch, in `(0, 1)`.
    pub cooling: f64,
    /// Proposed moves per temperature epoch; `None` scales with the tile
    /// count (`8 × n`).
    pub moves_per_epoch: Option<usize>,
    /// Stop after this many consecutive epochs without improving the best
    /// cost.
    pub stall_epochs: usize,
    /// Hard cap on cost evaluations.
    pub max_evaluations: u64,
    /// RNG seed (searches are fully reproducible).
    pub seed: u64,
}

impl SaConfig {
    /// A balanced default: auto temperature, 0.95 cooling, 24 stall
    /// epochs.
    pub fn new(seed: u64) -> Self {
        Self {
            initial_temperature: None,
            cooling: 0.95,
            moves_per_epoch: None,
            stall_epochs: 24,
            max_evaluations: 2_000_000,
            seed,
        }
    }

    /// A fast profile for tests and CI (fewer epochs and moves).
    pub fn quick(seed: u64) -> Self {
        Self {
            stall_epochs: 8,
            max_evaluations: 20_000,
            ..Self::new(seed)
        }
    }
}

impl Default for SaConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Uniform random permutation of the mesh's tiles (Fisher–Yates) — the
/// one shuffle every engine in this crate draws its placements from, so
/// the sampling discipline cannot silently diverge between engines.
pub(crate) fn shuffled_tiles(mesh: &Mesh, rng: &mut StdRng) -> Vec<TileId> {
    let mut tiles: Vec<TileId> = mesh.tiles().collect();
    for i in (1..tiles.len()).rev() {
        let j = rng.gen_range(0..=i);
        tiles.swap(i, j);
    }
    tiles
}

/// Uniform random injective mapping of `cores` cores onto `mesh`
/// (Fisher–Yates prefix). Shared by every engine in this crate.
///
/// # Panics
///
/// Panics if `cores` exceeds the tile count of `mesh`.
pub fn random_mapping(mesh: &Mesh, cores: usize, rng: &mut StdRng) -> Mapping {
    let tiles = shuffled_tiles(mesh, rng);
    Mapping::from_tiles(mesh, tiles.into_iter().take(cores)).expect("shuffled prefix is injective")
}

/// Uniformly proposes a swap of two distinct tiles (the paper's
/// elementary move). On a 1-tile mesh the identity move is returned
/// instead of panicking.
pub fn propose_swap(mesh: &Mesh, rng: &mut StdRng) -> (TileId, TileId) {
    let n = mesh.tile_count();
    if n == 1 {
        // A 1-tile mesh has no distinct pair to swap; return the identity
        // move (a degenerate no-op) instead of panicking on an empty
        // `gen_range`. `Mapping::swap_tiles(t, t)` is a no-op, so the
        // annealer simply re-evaluates the only mapping until its stall
        // counter stops it.
        let t = TileId::new(0);
        return (t, t);
    }
    let a = rng.gen_range(0..n);
    let mut b = rng.gen_range(0..n - 1);
    if b >= a {
        b += 1;
    }
    (TileId::new(a), TileId::new(b))
}

/// Uniformly proposes a swap of two distinct tiles from `free` — the
/// pin-aware form of [`propose_swap`], with the same draws when every
/// tile is free. With fewer than two free tiles the identity move is
/// returned and nothing is drawn.
fn propose_free_swap(free: &[TileId], rng: &mut StdRng) -> (TileId, TileId) {
    if free.len() < 2 {
        let t = free.first().copied().unwrap_or(TileId::new(0));
        return (t, t);
    }
    let a = rng.gen_range(0..free.len());
    let mut b = rng.gen_range(0..free.len() - 1);
    if b >= a {
        b += 1;
    }
    (free[a], free[b])
}

/// Runs simulated annealing on `objective` for an application with
/// `core_count` cores on `mesh`.
///
/// Evaluates the full cost for every accepted candidate; see
/// [`anneal_delta`] for the incremental-evaluation variant.
///
/// # Panics
///
/// Panics if `core_count` exceeds the number of tiles of `mesh`.
pub fn anneal<C: CostFunction + ?Sized>(
    objective: &C,
    mesh: &Mesh,
    core_count: usize,
    config: &SaConfig,
) -> SearchOutcome {
    anneal_cancellable(
        objective,
        mesh,
        core_count,
        None,
        config,
        &CancelToken::new(),
    )
}

/// [`anneal`] over an optional pin set and under cooperative
/// cancellation.
///
/// With `pins`, the start is drawn by [`Constraints::random_mapping`],
/// swaps touch only the free tiles, and the outcome is labelled
/// `SA-pinned`; with fewer than two free tiles every move is the
/// identity and the run ends on its stall counter. Without pins every
/// tile is free and the draws are those of [`random_mapping`] and
/// [`propose_swap`].
///
/// The abort flag is polled once per temperature epoch, so a cancelled
/// run returns its best-so-far within one epoch instead of running to
/// budget exhaustion. The poll consumes no randomness — an uncancelled
/// run is bit-identical to an uncancellable one.
///
/// # Panics
///
/// Panics if `core_count` exceeds the number of tiles of `mesh`, or if
/// `pins` do not validate against the instance.
pub fn anneal_cancellable<C: CostFunction + ?Sized>(
    objective: &C,
    mesh: &Mesh,
    core_count: usize,
    pins: Option<&Constraints>,
    config: &SaConfig,
    cancel: &CancelToken,
) -> SearchOutcome {
    let start = crate::telemetry::wall_clock();
    let label = if pins.is_some() { "SA-pinned" } else { "SA" };
    let no_pins = Constraints::new();
    let pins = pins.unwrap_or(&no_pins);
    let free = pins.free_tiles(mesh);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut current = pins.random_mapping(mesh, core_count, &mut rng);
    let mut current_cost = objective.cost(&current);
    let mut evaluations: u64 = 1;

    let mut best = current.clone();
    let mut best_cost = current_cost;

    let moves = config
        .moves_per_epoch
        .unwrap_or(8 * mesh.tile_count())
        .max(1);

    // Auto-calibrate the starting temperature from a sample of move costs.
    let mut temperature = config.initial_temperature.unwrap_or_else(|| {
        let mut sample = current.clone();
        let mut deltas = Vec::new();
        for _ in 0..16.min(config.max_evaluations.saturating_sub(1)) {
            let (a, b) = propose_free_swap(&free, &mut rng);
            sample.swap_tiles(a, b);
            let c = objective.cost(&sample);
            evaluations += 1;
            deltas.push((c - current_cost).abs());
            sample.swap_tiles(a, b);
        }
        let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
        // exp(-mean/T0) = 0.8 => T0 = mean / ln(1/0.8).
        (mean / (1.0f64 / 0.8).ln()).max(1e-9)
    });

    let mut stall = 0usize;
    let mut epoch: u64 = 0;
    'outer: while stall < config.stall_epochs {
        if cancel.is_cancelled() {
            break 'outer;
        }
        let mut improved = false;
        // Accept/reject tallies are plain local adds, kept even when
        // tracing is off: they feed nothing back into the walk, and the
        // branch-free bookkeeping keeps traced and untraced runs on the
        // exact same instruction path through the RNG.
        let (mut accepts, mut rejects) = (0u64, 0u64);
        for _ in 0..moves {
            if evaluations >= config.max_evaluations {
                break 'outer;
            }
            let (a, b) = propose_free_swap(&free, &mut rng);
            current.swap_tiles(a, b);
            let candidate_cost = objective.cost(&current);
            evaluations += 1;
            let delta = candidate_cost - current_cost;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                accepts += 1;
                current_cost = candidate_cost;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best = current.clone();
                    improved = true;
                }
            } else {
                rejects += 1;
                current.swap_tiles(a, b); // undo
            }
        }
        emit_epoch(label, epoch, evaluations, best_cost, accepts, rejects);
        epoch += 1;
        temperature *= config.cooling;
        stall = if improved { 0 } else { stall + 1 };
    }

    debug_assert!(pins.satisfied_by(&best));
    SearchOutcome {
        mapping: best,
        cost: best_cost,
        evaluations,
        elapsed: start.elapsed(),
        method: label.to_owned(),
        objective: objective.name(),
    }
}

/// Simulated annealing using [`SwapDeltaCost`] for O(affected-edges) move
/// evaluation — the optimization that keeps the CWM strategy cheap. The
/// running cost is re-synchronised with a full evaluation once per epoch
/// to stop floating-point drift.
///
/// # Panics
///
/// Panics if `core_count` exceeds the number of tiles of `mesh`.
pub fn anneal_delta<C: SwapDeltaCost + ?Sized>(
    objective: &C,
    mesh: &Mesh,
    core_count: usize,
    config: &SaConfig,
) -> SearchOutcome {
    anneal_delta_cancellable(objective, mesh, core_count, config, &CancelToken::new())
}

/// [`anneal_delta`] under cooperative cancellation — the abort flag is
/// polled once per temperature epoch, exactly like
/// [`anneal_cancellable`]; an uncancelled run is bit-identical to
/// [`anneal_delta`].
///
/// # Panics
///
/// Panics if `core_count` exceeds the number of tiles of `mesh`.
pub fn anneal_delta_cancellable<C: SwapDeltaCost + ?Sized>(
    objective: &C,
    mesh: &Mesh,
    core_count: usize,
    config: &SaConfig,
    cancel: &CancelToken,
) -> SearchOutcome {
    let start = crate::telemetry::wall_clock();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut current = random_mapping(mesh, core_count, &mut rng);
    let mut current_cost = objective.cost(&current);
    let mut evaluations: u64 = 1;

    let mut best = current.clone();
    let mut best_cost = current_cost;

    let moves = config
        .moves_per_epoch
        .unwrap_or(8 * mesh.tile_count())
        .max(1);
    let mut temperature = config.initial_temperature.unwrap_or_else(|| {
        let mut deltas = Vec::new();
        // Same budget-capped sample size as `anneal`, so the two
        // variants consume identical evaluation counts here and tiny
        // total budgets still bind exactly.
        for _ in 0..16.min(config.max_evaluations.saturating_sub(1)) {
            let (a, b) = propose_swap(mesh, &mut rng);
            deltas.push(objective.swap_delta(&current, a, b).abs());
            evaluations += 1;
        }
        let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
        (mean / (1.0f64 / 0.8).ln()).max(1e-9)
    });

    let mut stall = 0usize;
    let mut epoch: u64 = 0;
    'outer: while stall < config.stall_epochs {
        if cancel.is_cancelled() {
            break 'outer;
        }
        let mut improved = false;
        // Same unconditional tally discipline as `anneal_cancellable`.
        let (mut accepts, mut rejects) = (0u64, 0u64);
        for _ in 0..moves {
            if evaluations >= config.max_evaluations {
                break 'outer;
            }
            let (a, b) = propose_swap(mesh, &mut rng);
            let delta = objective.swap_delta(&current, a, b);
            evaluations += 1;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                accepts += 1;
                current.swap_tiles(a, b);
                current_cost += delta;
                if current_cost < best_cost - 1e-9 {
                    best_cost = current_cost;
                    best = current.clone();
                    improved = true;
                }
            } else {
                rejects += 1;
            }
        }
        emit_epoch("SA-delta", epoch, evaluations, best_cost, accepts, rejects);
        epoch += 1;
        // Re-synchronise against drift (within the budget: the reported
        // evaluation count must never exceed `max_evaluations`).
        if evaluations < config.max_evaluations {
            current_cost = objective.cost(&current);
            evaluations += 1;
        }
        temperature *= config.cooling;
        stall = if improved { 0 } else { stall + 1 };
    }

    let final_best_cost = objective.cost(&best);
    SearchOutcome {
        mapping: best,
        cost: final_best_cost,
        evaluations,
        elapsed: start.elapsed(),
        method: "SA-delta".to_owned(),
        objective: objective.name(),
    }
}

/// How `config.max_evaluations` is interpreted by a multi-start search.
///
/// [`RestartBudget::PerRestart`] runs the full budget `N` times, so
/// `--restarts N` would spend `N×` the evaluations of a single-start run
/// with the same configuration. [`RestartBudget::Total`] makes the budget
/// an explicit total, divided across restarts — the mode fair
/// comparisons (and the CLI) use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestartBudget {
    /// Every restart gets the full `config.max_evaluations` (the
    /// original behavior; total spend is `restarts ×` the budget).
    PerRestart,
    /// `config.max_evaluations` is the total across all restarts:
    /// restart `i` gets `total / restarts`, with the remainder spread
    /// over the first `total % restarts` restarts. The restart count is
    /// clamped to the total budget, so every restart performs at least
    /// one (billed) evaluation and the total is never exceeded.
    Total,
}

impl RestartBudget {
    /// The evaluation budget of restart `i` of `restarts`.
    fn for_restart(self, total: u64, i: usize, restarts: usize) -> u64 {
        match self {
            Self::PerRestart => total,
            Self::Total => {
                let n = restarts as u64;
                total / n + u64::from((i as u64) < total % n)
            }
        }
    }

    /// The effective restart count for a configured `restarts` and
    /// `total` budget. In [`RestartBudget::Total`] mode the count is
    /// clamped to the budget: `restarts > total` would otherwise create
    /// zero-evaluation restarts that report an initial random mapping
    /// with a cost that was never evaluated under the budget — and bill
    /// one evaluation each *past* the configured total.
    pub fn effective_restarts(self, total: u64, restarts: usize) -> usize {
        let restarts = restarts.max(1);
        match self {
            Self::PerRestart => restarts,
            Self::Total => restarts.min(usize::try_from(total.max(1)).unwrap_or(usize::MAX)),
        }
    }
}

/// Deterministic reduction over per-restart outcomes: minimum cost wins,
/// ties go to the lowest restart index, evaluations are summed.
fn reduce_multistart(
    mut outcomes: Vec<SearchOutcome>,
    restarts: usize,
    start: Instant,
) -> SearchOutcome {
    let evaluations: u64 = outcomes.iter().map(|o| o.evaluations).sum();
    let mut best_idx = 0;
    for (i, o) in outcomes.iter().enumerate() {
        // Strict `<` keeps the lowest restart index on ties, so the result
        // does not depend on thread scheduling.
        if o.cost < outcomes[best_idx].cost {
            best_idx = i;
        }
    }
    let mut best = outcomes.swap_remove(best_idx);
    best.evaluations = evaluations;
    best.elapsed = start.elapsed();
    best.method = format!("{}-multistart[{restarts}]", best.method);
    best
}

/// Runs `restarts` independent searches with derived seeds across the
/// available cores and reduces deterministically.
///
/// The objective is cloned once per restart *on the calling thread*
/// (clones of the engine-backed objectives share the route cache but own
/// their scratch), so `C` needs `Clone + Send` but not `Sync`.
fn run_multistart<C, F>(
    objective: &C,
    config: &SaConfig,
    restarts: usize,
    budget: RestartBudget,
    run: F,
) -> SearchOutcome
where
    C: Clone + Send,
    F: Fn(&C, SaConfig) -> SearchOutcome + Sync,
{
    let restarts = budget.effective_restarts(config.max_evaluations, restarts);
    let start = crate::telemetry::wall_clock();
    let jobs: Vec<(usize, C, SaConfig)> = (0..restarts)
        .map(|i| {
            let config = SaConfig {
                seed: config.seed.wrapping_add(i as u64),
                max_evaluations: budget.for_restart(config.max_evaluations, i, restarts),
                ..*config
            };
            (i, objective.clone(), config)
        })
        .collect();
    // noc-verify: allow(DET03) — thread count only shapes work placement; each restart's trajectory is fixed by its seed and the reduction is order-insensitive
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(restarts);

    let mut outcomes: Vec<Option<SearchOutcome>> = (0..restarts).map(|_| None).collect();
    if threads <= 1 {
        for (i, obj, cfg) in jobs {
            outcomes[i] = Some(run(&obj, cfg));
        }
    } else {
        // Round-robin the restarts over `threads` workers; results carry
        // their restart index, so placement does not affect the reduction.
        let mut batches: Vec<Vec<(usize, C, SaConfig)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for job in jobs {
            let slot = job.0 % threads;
            batches[slot].push(job);
        }
        let run = &run;
        std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .into_iter()
                .map(|batch| {
                    scope.spawn(move || {
                        batch
                            .into_iter()
                            .map(|(i, obj, cfg)| (i, run(&obj, cfg)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (i, outcome) in handle.join().expect("search worker panicked") {
                    outcomes[i] = Some(outcome);
                }
            }
        });
    }
    reduce_multistart(
        outcomes
            .into_iter()
            .map(|o| o.expect("all restarts ran"))
            .collect(),
        restarts,
        start,
    )
}

/// Parallel multi-start simulated annealing as a [`SearchStrategy`]:
/// `restarts` independent [`anneal_delta`] runs with seeds
/// `config.seed + i`, executed across the available cores and reduced to
/// the best outcome — the statically-split population baseline. The
/// adaptive scheduler ([`crate::AdaptiveRestarts`]) subsumes this as the
/// degenerate single-round, no-selection configuration.
///
/// Fully deterministic for a fixed configuration: each restart's seed is
/// derived from its index, and the reduction prefers the lowest cost
/// with ties broken by restart index — thread scheduling never changes
/// the result. One restart is exactly [`anneal_delta`] (modulo the method
/// label and wall-clock). The reported `evaluations` is the total across
/// restarts. Every restart polls the shared cancel token at its epoch
/// boundary, so an abort stops the whole population within one epoch
/// per in-flight restart.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiStartSa {
    /// Per-restart annealer configuration (seed of restart `i` is
    /// `config.seed + i`; `config.max_evaluations` is interpreted per
    /// `budget`).
    pub config: SaConfig,
    /// Number of independent restarts (clamped per
    /// [`RestartBudget::effective_restarts`]).
    pub restarts: usize,
    /// Budget interpretation.
    pub budget: RestartBudget,
}

impl<C: SwapDeltaCost + Clone + Send> SearchStrategy<C> for MultiStartSa {
    fn name(&self) -> String {
        "SA-multistart".to_owned()
    }

    fn search_cancellable(
        &self,
        objective: &C,
        mesh: &Mesh,
        core_count: usize,
        cancel: &CancelToken,
    ) -> SearchRun {
        let outcome = run_multistart(
            objective,
            &self.config,
            self.restarts,
            self.budget,
            |obj, cfg| anneal_delta_cancellable(obj, mesh, core_count, &cfg, cancel),
        );
        let restarts = self
            .budget
            .effective_restarts(self.config.max_evaluations, self.restarts);
        let mut telemetry = SearchTelemetry::new(outcome.method.clone());
        telemetry.evaluations = outcome.evaluations;
        telemetry.push_round(RoundTelemetry {
            round: 0,
            budgets: (0..restarts)
                .map(|i| MemberBudget {
                    member: i,
                    evals: self
                        .budget
                        .for_restart(self.config.max_evaluations, i, restarts),
                })
                .collect(),
            survivors: Vec::new(),
            best_cost: outcome.cost,
        });
        telemetry.record_best(outcome.evaluations, outcome.cost);
        SearchRun { outcome, telemetry }
    }
}
