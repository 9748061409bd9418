//! Greedy steepest-descent baseline with random restarts.
//!
//! From a random start, repeatedly applies the best improving tile swap
//! until a local optimum; restarts keep the engine honest on rugged
//! landscapes. This sits between random search and SA in power and is
//! used by the ablation benches.

use crate::objective::CostFunction;
use noc_model::{Mapping, Mesh, TileId};
use noc_search::{sample_mapping, SearchOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Steepest-descent local search with `restarts` random starting points.
///
/// # Panics
///
/// Panics if `core_count` exceeds the tile count of `mesh` or if
/// `restarts` is zero.
pub fn greedy<C: CostFunction + ?Sized>(
    objective: &C,
    mesh: &Mesh,
    core_count: usize,
    restarts: u32,
    seed: u64,
) -> SearchOutcome {
    assert!(restarts > 0, "at least one restart is required");
    let start = noc_search::wall_clock();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut evaluations = 0u64;
    let mut best: Option<(Mapping, f64)> = None;

    for _ in 0..restarts {
        let mut current = sample_mapping(mesh, core_count, &mut rng);
        let mut current_cost = objective.cost(&current);
        evaluations += 1;
        loop {
            // Find the best improving swap over all tile pairs.
            let n = mesh.tile_count();
            let mut best_move: Option<(TileId, TileId, f64)> = None;
            for a in 0..n {
                for b in (a + 1)..n {
                    let (ta, tb) = (TileId::new(a), TileId::new(b));
                    current.swap_tiles(ta, tb);
                    let cost = objective.cost(&current);
                    evaluations += 1;
                    current.swap_tiles(ta, tb);
                    if cost < current_cost - 1e-12 && best_move.is_none_or(|(_, _, c)| cost < c) {
                        best_move = Some((ta, tb, cost));
                    }
                }
            }
            match best_move {
                Some((ta, tb, cost)) => {
                    current.swap_tiles(ta, tb);
                    current_cost = cost;
                }
                None => break, // local optimum
            }
        }
        if best.as_ref().is_none_or(|(_, c)| current_cost < *c) {
            best = Some((current, current_cost));
        }
    }

    let (mapping, cost) = best.expect("restarts > 0");
    SearchOutcome {
        mapping,
        cost,
        evaluations,
        elapsed: start.elapsed(),
        method: "greedy".to_owned(),
        objective: objective.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive;
    use crate::objective::CwmObjective;
    use noc_energy::Technology;
    use noc_model::Cwg;

    fn instance() -> (Cwg, Mesh, Technology) {
        let mut cwg = Cwg::new();
        let a = cwg.add_core("A");
        let b = cwg.add_core("B");
        let c = cwg.add_core("C");
        let d = cwg.add_core("D");
        cwg.add_communication(a, b, 80).unwrap();
        cwg.add_communication(b, c, 40).unwrap();
        cwg.add_communication(c, d, 20).unwrap();
        cwg.add_communication(d, a, 10).unwrap();
        (cwg, Mesh::new(2, 2).unwrap(), Technology::paper_example())
    }

    #[test]
    fn reaches_a_local_optimum_no_single_swap_improves() {
        let (cwg, mesh, tech) = instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let outcome = greedy(&obj, &mesh, 4, 1, 5);
        let n = mesh.tile_count();
        let mut m = outcome.mapping.clone();
        for a in 0..n {
            for b in (a + 1)..n {
                m.swap_tiles(TileId::new(a), TileId::new(b));
                assert!(obj.cost(&m) >= outcome.cost - 1e-9);
                m.swap_tiles(TileId::new(a), TileId::new(b));
            }
        }
    }

    #[test]
    fn restarts_find_global_optimum_on_tiny_instance() {
        let (cwg, mesh, tech) = instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let optimum = exhaustive(&obj, &mesh, 4);
        let outcome = greedy(&obj, &mesh, 4, 8, 1);
        assert_eq!(outcome.cost, optimum.cost);
    }

    #[test]
    fn deterministic_per_seed() {
        let (cwg, mesh, tech) = instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let x = greedy(&obj, &mesh, 4, 2, 77);
        let y = greedy(&obj, &mesh, 4, 2, 77);
        assert_eq!(x.mapping, y.mapping);
        assert_eq!(x.evaluations, y.evaluations);
    }
}
