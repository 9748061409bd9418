//! Genetic search over permutation mappings.
//!
//! Follows the permutation-GA recipe of Jha et al. ("Energy and Latency
//! Aware Application Mapping Algorithm & Optimization for Homogeneous
//! 3D NoC"): tournament selection, order-preserving crossover (PMX or
//! cycle), swap mutation, and elitism. A chromosome is a full permutation
//! of the mesh's tiles; cores `0..k` sit on the first `k` entries, so
//! injectivity is structural and crossover needs no repair beyond the
//! standard PMX/CX mapping resolution.
//!
//! The mutation step is exactly the annealer's elementary move — a tile
//! swap — so mutated offspring are costed through the objective's
//! *incremental* [`SwapDeltaCost`] path (one billed evaluation), not a
//! full re-evaluation; only crossover offspring pay for a from-scratch
//! cost. The search is sequential and therefore trivially deterministic
//! per seed.
//!
//! ## Generation batching
//!
//! Crossover offspring are costed together: each generation packs them
//! into a single [`BatchCost::batch_cost`] call at the generation flush,
//! which every objective answers with one [`CostFunction::cost`] per
//! offspring through its one cost evaluator. The trajectory is
//! bit-identical to per-offspring costing because every RNG draw
//! happens at offspring *creation*, costs are pure per mapping (the
//! [`BatchCost`] contract), and best-tracking/telemetry replay in
//! creation order with the evaluation numbers billed at creation.
//!
//! [`CostFunction::cost`]: crate::objective::CostFunction::cost

use crate::cancel::CancelToken;
use crate::objective::{BatchCost, SwapDeltaCost};
use crate::outcome::SearchOutcome;
use crate::strategy::{SearchRun, SearchStrategy};
use crate::telemetry::SearchTelemetry;
use noc_model::{Mapping, Mesh, TileId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which order-preserving crossover operator recombines parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Crossover {
    /// Partially-mapped crossover: a random segment from parent A, the
    /// rest from parent B with conflicts resolved through the segment's
    /// position mapping.
    Pmx,
    /// Cycle crossover: alternating parent cycles; fully deterministic
    /// given the parents (uses no randomness).
    Cycle,
}

impl Crossover {
    /// Display label ("pmx" / "cycle").
    pub fn label(self) -> &'static str {
        match self {
            Self::Pmx => "pmx",
            Self::Cycle => "cycle",
        }
    }
}

/// Genetic-algorithm configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Top individuals copied unchanged into the next generation
    /// (no evaluation billed).
    pub elite: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Crossover operator.
    pub crossover: Crossover,
    /// Probability an offspring comes from crossover (full evaluation);
    /// otherwise it is a swap-mutated clone costed incrementally.
    pub crossover_rate: f64,
    /// Total evaluation budget.
    pub budget: u64,
    /// RNG seed.
    pub seed: u64,
}

impl GaConfig {
    /// Balanced defaults: population 24, elite 2, tournament 3, PMX at
    /// rate 0.85, 2 M evaluations.
    pub fn new(seed: u64) -> Self {
        Self {
            population: 24,
            elite: 2,
            tournament: 3,
            crossover: Crossover::Pmx,
            crossover_rate: 0.85,
            budget: 2_000_000,
            seed,
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

impl Default for GaConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

/// One chromosome: a full tile permutation plus its tracked cost.
#[derive(Debug, Clone)]
struct Indiv {
    perm: Vec<u32>,
    cost: f64,
}

fn mapping_of(mesh: &Mesh, perm: &[u32], cores: usize) -> Mapping {
    Mapping::from_tiles(mesh, perm[..cores].iter().map(|&t| TileId::new(t as usize)))
        .expect("permutation prefix is injective")
}

/// Partially-mapped crossover of full permutations over the segment
/// `[lo, hi)`; O(n) via the position table of `pb`.
fn pmx(pa: &[u32], pb: &[u32], lo: usize, hi: usize) -> Vec<u32> {
    let n = pa.len();
    let mut child = vec![u32::MAX; n];
    child[lo..hi].copy_from_slice(&pa[lo..hi]);
    let mut pos_b = vec![0usize; n];
    for (idx, &v) in pb.iter().enumerate() {
        pos_b[v as usize] = idx;
    }
    let mut in_segment = vec![false; n];
    for &v in &pa[lo..hi] {
        in_segment[v as usize] = true;
    }
    for (idx, &v) in pb.iter().enumerate().take(hi).skip(lo) {
        if in_segment[v as usize] {
            continue;
        }
        // Follow the displacement chain until it leaves the segment.
        let mut p = idx;
        while (lo..hi).contains(&p) {
            p = pos_b[pa[p] as usize];
        }
        child[p] = v;
    }
    for idx in 0..n {
        if child[idx] == u32::MAX {
            child[idx] = pb[idx];
        }
    }
    child
}

/// Cycle crossover of full permutations: cycles alternate between the
/// parents, starting with parent A.
fn cycle_crossover(pa: &[u32], pb: &[u32]) -> Vec<u32> {
    let n = pa.len();
    let mut child = vec![u32::MAX; n];
    let mut pos_a = vec![0usize; n];
    for (idx, &v) in pa.iter().enumerate() {
        pos_a[v as usize] = idx;
    }
    let mut from_a = true;
    for start in 0..n {
        if child[start] != u32::MAX {
            continue;
        }
        let mut p = start;
        loop {
            child[p] = if from_a { pa[p] } else { pb[p] };
            p = pos_a[pb[p] as usize];
            if p == start {
                break;
            }
        }
        from_a = !from_a;
    }
    child
}

/// The genetic algorithm as a [`SearchStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneticSearch {
    /// Algorithm configuration.
    pub config: GaConfig,
}

impl GeneticSearch {
    /// Strategy with the given configuration.
    pub fn new(config: GaConfig) -> Self {
        Self { config }
    }
}

impl GeneticSearch {
    /// Tournament selection: best of `k` uniform draws, ties to the
    /// earliest population index.
    fn tournament(&self, pop: &[Indiv], rng: &mut StdRng) -> usize {
        let k = self.config.tournament.max(1);
        let mut winner = rng.gen_range(0..pop.len());
        for _ in 1..k {
            let challenger = rng.gen_range(0..pop.len());
            if pop[challenger].cost < pop[winner].cost
                || (pop[challenger].cost == pop[winner].cost && challenger < winner)
            {
                winner = challenger;
            }
        }
        winner
    }
}

/// One deferred best-tracking replay entry: which `next` slot, the
/// evaluation number billed at creation, and (for crossover offspring)
/// the slot in the generation's cost batch.
type Pending = (usize, u64, Option<usize>);

impl<C: SwapDeltaCost + BatchCost + ?Sized> SearchStrategy<C> for GeneticSearch {
    fn name(&self) -> String {
        format!("GA[{}]", self.config.crossover.label())
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
        let n = mesh.tile_count();
        let budget = config.budget.max(1);
        let pop_size = config.population.max(2);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let method = <Self as SearchStrategy<C>>::name(self);
        let mut telemetry = SearchTelemetry::new(method.clone());
        let mut evaluations = 0u64;

        let mut best_perm: Vec<u32> = Vec::new();
        let mut best_cost = f64::INFINITY;

        // Initial population: uniform random permutations, costed in one
        // batch after creation (every RNG draw happens at creation, so
        // batching cannot perturb the stream). At least one individual is
        // always evaluated, so a cancelled run still returns a verified
        // mapping.
        let mut pop: Vec<Indiv> = Vec::new();
        let mut batch: Vec<Mapping> = Vec::new();
        let mut batch_costs: Vec<f64> = Vec::new();
        for _ in 0..pop_size {
            if evaluations >= budget || (evaluations > 0 && cancel.is_cancelled()) {
                break;
            }
            let perm: Vec<u32> = crate::sa::shuffled_tiles(mesh, &mut rng)
                .iter()
                .map(|t| t.index() as u32)
                .collect();
            batch.push(mapping_of(mesh, &perm, core_count));
            evaluations += 1;
            pop.push(Indiv {
                perm,
                cost: f64::NAN,
            });
        }
        objective.batch_cost(&batch, &mut batch_costs);
        for (idx, (indiv, &cost)) in pop.iter_mut().zip(&batch_costs).enumerate() {
            indiv.cost = cost;
            if cost < best_cost {
                best_cost = cost;
                best_perm = indiv.perm.clone();
                telemetry.record_best(idx as u64 + 1, cost);
            }
        }

        // Elites alone must never fill a generation: with
        // `elite >= pop_size` the offspring loop would add nothing, bill
        // nothing, and the budget loop would never terminate.
        let elite = config.elite.min(pop.len()).min(pop_size - 1);
        let mut pending: Vec<Pending> = Vec::new();
        'outer: while evaluations < budget && !cancel.is_cancelled() {
            // Rank: cost ascending, ties to the earlier index.
            let mut ranked: Vec<usize> = (0..pop.len()).collect();
            ranked.sort_by(|&a, &b| pop[a].cost.total_cmp(&pop[b].cost).then(a.cmp(&b)));

            let mut next: Vec<Indiv> = ranked[..elite].iter().map(|&i| pop[i].clone()).collect();
            batch.clear();
            pending.clear();
            let mut exhausted = false;
            while next.len() < pop_size {
                if evaluations >= budget {
                    exhausted = true;
                    break;
                }
                let pa = self.tournament(&pop, &mut rng);
                // On a 1-tile mesh there is no distinct pair to mutate;
                // force the (degenerate) crossover path so every
                // offspring still bills an evaluation and the budget
                // loop terminates.
                let crossed = n < 2 || rng.gen::<f64>() < config.crossover_rate;
                if crossed {
                    let pb = self.tournament(&pop, &mut rng);
                    let child = match config.crossover {
                        Crossover::Pmx => {
                            let mut lo = rng.gen_range(0..n);
                            let mut hi = rng.gen_range(0..n);
                            if lo > hi {
                                std::mem::swap(&mut lo, &mut hi);
                            }
                            pmx(&pop[pa].perm, &pop[pb].perm, lo, hi + 1)
                        }
                        Crossover::Cycle => cycle_crossover(&pop[pa].perm, &pop[pb].perm),
                    };
                    // Deferred: the cost arrives at the generation flush.
                    evaluations += 1;
                    pending.push((next.len(), evaluations, Some(batch.len())));
                    batch.push(mapping_of(mesh, &child, core_count));
                    next.push(Indiv {
                        perm: child,
                        cost: f64::NAN,
                    });
                } else {
                    // Swap mutation on the incremental fast path: the
                    // move is a tile swap touching at least one occupied
                    // tile, costed as parent + swap_delta (one billed
                    // evaluation, no full re-schedule for objectives
                    // with a real delta engine). Parents come from the
                    // previous, fully costed generation.
                    let parent = &pop[pa];
                    let i = rng.gen_range(0..core_count);
                    let mut j = rng.gen_range(0..n - 1);
                    if j >= i {
                        j += 1;
                    }
                    let (ta, tb) = (
                        TileId::new(parent.perm[i] as usize),
                        TileId::new(parent.perm[j] as usize),
                    );
                    let delta =
                        objective.swap_delta(&mapping_of(mesh, &parent.perm, core_count), ta, tb);
                    evaluations += 1;
                    pending.push((next.len(), evaluations, None));
                    let cost = pop[pa].cost + delta;
                    let mut child = pop[pa].perm.clone();
                    child.swap(i, j);
                    next.push(Indiv { perm: child, cost });
                }
            }
            // Generation flush: cost the deferred crossover brood in one
            // batched call, then replay best-tracking in creation order
            // under the evaluation numbers billed at creation. Batch
            // costs are bit-equal to per-offspring costs (the
            // `BatchCost` contract), so the trajectory is unchanged.
            batch_costs.clear();
            objective.batch_cost(&batch, &mut batch_costs);
            for &(slot, eval_no, in_batch) in &pending {
                if let Some(b) = in_batch {
                    next[slot].cost = batch_costs[b];
                }
                let cost = next[slot].cost;
                if cost < best_cost - 1e-9 {
                    best_cost = cost;
                    best_perm = next[slot].perm.clone();
                    telemetry.record_best(eval_no, cost);
                }
            }
            if exhausted {
                // The sequential path discards a generation it could not
                // finish; `pop` keeps the last complete one.
                break 'outer;
            }
            pop = next;
        }

        // Final verification evaluation (unbilled, as in `anneal_delta`):
        // the reported cost is a from-scratch evaluation of the winner,
        // free of accumulated mutation-delta drift.
        let mapping = mapping_of(mesh, &best_perm, core_count);
        let cost = objective.cost(&mapping);
        telemetry.evaluations = evaluations;
        let outcome = SearchOutcome {
            mapping,
            cost,
            evaluations,
            elapsed: start.elapsed(),
            method,
            objective: objective.name(),
        };
        SearchRun { outcome, telemetry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmx_produces_valid_permutations() {
        let pa: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6, 7];
        let pb: Vec<u32> = vec![7, 6, 5, 4, 3, 2, 1, 0];
        for (lo, hi) in [(0, 1), (2, 5), (0, 8), (7, 8), (3, 4)] {
            let child = pmx(&pa, &pb, lo, hi);
            let mut seen = [false; 8];
            for &v in &child {
                assert!(!seen[v as usize], "duplicate {v} in {child:?}");
                seen[v as usize] = true;
            }
            // The segment comes from parent A.
            assert_eq!(&child[lo..hi], &pa[lo..hi]);
        }
    }

    #[test]
    fn cycle_crossover_produces_valid_permutations() {
        let pa: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6, 7];
        let pb: Vec<u32> = vec![1, 0, 3, 2, 5, 4, 7, 6];
        let child = cycle_crossover(&pa, &pb);
        let mut seen = [false; 8];
        for (idx, &v) in child.iter().enumerate() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
            // Every gene comes from one of the parents at that position.
            assert!(v == pa[idx] || v == pb[idx]);
        }
    }

    #[test]
    fn pmx_handles_identical_parents() {
        let pa: Vec<u32> = vec![3, 1, 0, 2];
        let child = pmx(&pa, &pa, 1, 3);
        assert_eq!(child, pa);
    }
}
