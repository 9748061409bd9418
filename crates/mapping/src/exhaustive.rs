//! Exhaustive search — the optimality reference for small NoCs.
//!
//! The paper uses exhaustive search (ES) on NoCs up to 3×4 / 2×5 to check
//! that simulated annealing finds the optimum; "for larger NoC sizes it is
//! not possible to find optimum mappings with ES within a reasonable
//! time". This module enumerates all `n!/(n−k)!` injective placements of
//! `k` cores on `n` tiles with a recursive visitor (no per-candidate
//! allocation).

use crate::objective::CostFunction;
use noc_model::{CoreId, Mapping, Mesh, TileId};
use noc_search::{Constraints, SearchOutcome};

/// Number of injective placements of `cores` onto `tiles`
/// (`tiles!/(tiles−cores)!`), saturating at `u64::MAX`.
pub fn search_space_size(cores: usize, tiles: usize) -> u64 {
    if cores > tiles {
        return 0;
    }
    let mut size: u64 = 1;
    for i in 0..cores {
        size = size.saturating_mul((tiles - i) as u64);
    }
    size
}

/// Enumerates every injective placement, invoking `visit` with each
/// mapping. Placements are visited in lexicographic tile order, so runs
/// are reproducible.
// noc-verify: allow(API02) — test oracle: the cross-validation tests enumerate every mapping with it
pub fn for_each_mapping<F: FnMut(&Mapping)>(mesh: &Mesh, core_count: usize, visit: F) {
    let n = mesh.tile_count();
    assert!(core_count <= n, "{core_count} cores cannot fit {n} tiles");
    for_each_pinned_mapping(mesh, core_count, &Constraints::new(), visit);
}

/// [`for_each_mapping`] restricted to the placements that honour `pins`:
/// pinned cores stay put and the free cores range over the free tiles,
/// still in lexicographic order.
fn for_each_pinned_mapping<F: FnMut(&Mapping)>(
    mesh: &Mesh,
    core_count: usize,
    pins: &Constraints,
    mut visit: F,
) {
    let free = pins.free_tiles(mesh);
    let mut tiles: Vec<TileId> = Vec::with_capacity(core_count);
    let mut used = vec![false; free.len()];
    fn recurse<F: FnMut(&Mapping)>(
        mesh: &Mesh,
        core_count: usize,
        pins: &Constraints,
        free: &[TileId],
        tiles: &mut Vec<TileId>,
        used: &mut [bool],
        visit: &mut F,
    ) {
        if tiles.len() == core_count {
            let mapping =
                Mapping::from_tiles(mesh, tiles.iter().copied()).expect("enumeration is injective");
            visit(&mapping);
            return;
        }
        if let Some(tile) = pins.pinned_tile(CoreId::new(tiles.len())) {
            tiles.push(tile);
            recurse(mesh, core_count, pins, free, tiles, used, visit);
            tiles.pop();
            return;
        }
        for (i, &tile) in free.iter().enumerate() {
            if !used[i] {
                used[i] = true;
                tiles.push(tile);
                recurse(mesh, core_count, pins, free, tiles, used, visit);
                tiles.pop();
                used[i] = false;
            }
        }
    }
    recurse(
        mesh, core_count, pins, &free, &mut tiles, &mut used, &mut visit,
    );
}

/// Finds the global optimum of `objective` by exhaustive enumeration.
/// Ties are broken towards the first placement in enumeration order, so
/// the result is deterministic.
///
/// # Panics
///
/// Panics if `core_count` exceeds the tile count of `mesh`.
pub fn exhaustive<C: CostFunction + ?Sized>(
    objective: &C,
    mesh: &Mesh,
    core_count: usize,
) -> SearchOutcome {
    let n = mesh.tile_count();
    assert!(core_count <= n, "{core_count} cores cannot fit {n} tiles");
    best_placement(objective, mesh, core_count, &Constraints::new(), "ES")
}

/// Exhaustive search over the placements that honour `pins`, labelled
/// `method`; the first optimum in enumeration order wins.
pub(crate) fn best_placement<C: CostFunction + ?Sized>(
    objective: &C,
    mesh: &Mesh,
    core_count: usize,
    pins: &Constraints,
    method: &str,
) -> SearchOutcome {
    let start = noc_search::wall_clock();
    let mut best: Option<(Mapping, f64)> = None;
    let mut evaluations = 0u64;
    for_each_pinned_mapping(mesh, core_count, pins, |mapping| {
        let cost = objective.cost(mapping);
        evaluations += 1;
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((mapping.clone(), cost));
        }
    });
    let (mapping, cost) = best.expect("at least one placement exists");
    SearchOutcome {
        mapping,
        cost,
        evaluations,
        elapsed: start.elapsed(),
        method: method.to_owned(),
        objective: objective.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{CdcmObjective, CwmObjective};
    use noc_energy::Technology;
    use noc_model::{Cdcg, Cwg};
    use noc_sim::SimParams;

    #[test]
    fn space_sizes() {
        assert_eq!(search_space_size(4, 4), 24);
        assert_eq!(search_space_size(2, 4), 12);
        assert_eq!(search_space_size(5, 6), 720);
        assert_eq!(search_space_size(7, 6), 0);
        assert_eq!(search_space_size(0, 3), 1);
    }

    #[test]
    fn enumeration_count_matches_formula() {
        let mesh = Mesh::new(2, 2).unwrap();
        for cores in 0..=4 {
            let mut count = 0u64;
            for_each_mapping(&mesh, cores, |_| count += 1);
            assert_eq!(count, search_space_size(cores, 4), "cores={cores}");
        }
    }

    #[test]
    fn enumeration_yields_valid_unique_mappings() {
        let mesh = Mesh::new(3, 1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for_each_mapping(&mesh, 2, |m| {
            m.validate().unwrap();
            assert!(seen.insert(format!("{m}")), "duplicate {m}");
        });
        assert_eq!(seen.len(), 6);
    }

    /// The paper's claim on small NoCs: ES finds the true optimum; the
    /// figure-1 example's CDCM optimum must be at most the 399 pJ of
    /// mapping (d).
    #[test]
    fn figure1_cdcm_optimum_at_most_399() {
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

        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let obj = CdcmObjective::new(&g, &mesh, &tech, SimParams::paper_example());
        let outcome = exhaustive(&obj, &mesh, 4);
        assert_eq!(outcome.evaluations, 24);
        assert!(outcome.cost <= 399.0);
        assert_eq!(outcome.method, "ES");
    }

    #[test]
    fn finds_adjacent_placement_for_single_hot_pair() {
        // Two cores, one heavy flow: the optimum puts them on adjacent
        // tiles (K=2 -> 3 pJ/bit), never further.
        let mut cwg = Cwg::new();
        let a = cwg.add_core("A");
        let b = cwg.add_core("B");
        cwg.add_communication(a, b, 100).unwrap();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let outcome = exhaustive(&obj, &mesh, 2);
        assert_eq!(outcome.cost, 300.0);
        assert_eq!(
            mesh.manhattan(outcome.mapping.tile_of(a), outcome.mapping.tile_of(b)),
            1
        );
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut cwg = Cwg::new();
        let a = cwg.add_core("A");
        let b = cwg.add_core("B");
        cwg.add_communication(a, b, 1).unwrap();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let x = exhaustive(&obj, &mesh, 2);
        let y = exhaustive(&obj, &mesh, 2);
        assert_eq!(x.mapping, y.mapping);
    }
}
