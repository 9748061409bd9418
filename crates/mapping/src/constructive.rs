//! Constructive placement baseline (largest-communicator-first).
//!
//! A deterministic, search-free mapper in the spirit of the constructive
//! heuristics the paper's related work builds on (Hu & Marculescu's
//! energy-aware mapping): repeatedly take the unplaced core with the
//! largest communication volume to the already-placed set (falling back
//! to total volume for the first pick), and put it on the free tile that
//! minimizes the hop-weighted communication cost to its placed partners.
//!
//! It is fast (`O(k² · n)` for `k` cores on `n` tiles), surprisingly
//! strong on communication-dominated graphs, and a useful SA seed or
//! sanity baseline.

use crate::objective::CostFunction;
use noc_model::{CoreId, Cwg, Mapping, Mesh, TileId};
use noc_search::SearchOutcome;

/// Builds a mapping for `cwg` on `mesh` with the greedy constructive
/// heuristic. Deterministic: ties break towards lower ids.
///
/// # Panics
///
/// Panics if the CWG has more cores than the mesh has tiles.
pub fn constructive_mapping(cwg: &Cwg, mesh: &Mesh) -> Mapping {
    let k = cwg.core_count();
    let n = mesh.tile_count();
    assert!(k <= n, "{k} cores cannot fit {n} tiles");

    // Symmetric communication volumes between core pairs.
    let volume = |a: CoreId, b: CoreId| -> u64 {
        cwg.volume(a, b).unwrap_or(0) + cwg.volume(b, a).unwrap_or(0)
    };
    let total_volume = |c: CoreId| -> u64 {
        cwg.cores()
            .map(|o| if o == c { 0 } else { volume(c, o) })
            .sum()
    };

    let mut placed: Vec<(CoreId, TileId)> = Vec::with_capacity(k);
    let mut free_tiles: Vec<TileId> = mesh.tiles().collect();
    let mut unplaced: Vec<CoreId> = cwg.cores().collect();

    // Seed: the heaviest communicator goes to the most central tile.
    let center = {
        let cx = (mesh.width() - 1) as f64 / 2.0;
        let cy = (mesh.height() - 1) as f64 / 2.0;
        *free_tiles
            .iter()
            .min_by(|&&a, &&b| {
                let da = {
                    let c = mesh.coord(a);
                    (c.x as f64 - cx).abs() + (c.y as f64 - cy).abs()
                };
                let db = {
                    let c = mesh.coord(b);
                    (c.x as f64 - cx).abs() + (c.y as f64 - cy).abs()
                };
                da.total_cmp(&db).then(a.cmp(&b))
            })
            .expect("mesh has tiles")
    };
    if let Some(first) = unplaced
        .iter()
        .copied()
        .max_by_key(|&c| (total_volume(c), std::cmp::Reverse(c)))
    {
        placed.push((first, center));
        unplaced.retain(|&c| c != first);
        free_tiles.retain(|&t| t != center);
    }

    while let Some(next) = unplaced.iter().copied().max_by_key(|&c| {
        let attached: u64 = placed.iter().map(|&(p, _)| volume(c, p)).sum();
        (attached, total_volume(c), std::cmp::Reverse(c))
    }) {
        // Best free tile: minimize hop-weighted volume to placed partners.
        let best_tile = free_tiles
            .iter()
            .copied()
            .min_by_key(|&t| {
                let cost: u64 = placed
                    .iter()
                    .map(|&(p, pt)| volume(next, p) * mesh.manhattan(t, pt) as u64)
                    .sum();
                (cost, t)
            })
            .expect("k <= n leaves a free tile");
        placed.push((next, best_tile));
        unplaced.retain(|&c| c != next);
        free_tiles.retain(|&t| t != best_tile);
    }

    placed.sort_by_key(|&(c, _)| c);
    Mapping::from_tiles(mesh, placed.into_iter().map(|(_, t)| t))
        .expect("construction is injective")
}

/// Runs the constructive heuristic and scores it with `objective`,
/// returning a [`SearchOutcome`] comparable with the search engines.
///
/// # Panics
///
/// Panics if the CWG has more cores than the mesh has tiles.
pub fn constructive<C: CostFunction + ?Sized>(
    objective: &C,
    cwg: &Cwg,
    mesh: &Mesh,
) -> SearchOutcome {
    let start = noc_search::wall_clock();
    let mapping = constructive_mapping(cwg, mesh);
    let cost = objective.cost(&mapping);
    SearchOutcome {
        mapping,
        cost,
        evaluations: 1,
        elapsed: start.elapsed(),
        method: "constructive".to_owned(),
        objective: objective.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive;
    use crate::objective::CwmObjective;
    use noc_energy::Technology;
    use noc_search::random_search;

    fn star_graph() -> Cwg {
        // A hub talking to four spokes: the hub must sit centrally.
        let mut cwg = Cwg::new();
        let hub = cwg.add_core("hub");
        for i in 0..4 {
            let spoke = cwg.add_core(format!("s{i}"));
            cwg.add_communication(hub, spoke, 100).unwrap();
        }
        cwg
    }

    #[test]
    fn hub_lands_centrally_on_a_3x3() {
        let cwg = star_graph();
        let mesh = Mesh::new(3, 3).unwrap();
        let mapping = constructive_mapping(&cwg, &mesh);
        mapping.validate().unwrap();
        let hub_tile = mapping.tile_of(CoreId::new(0));
        assert_eq!(mesh.coord(hub_tile), noc_model::Coord::new(1, 1));
        // Every spoke is adjacent to the hub.
        for i in 1..5 {
            assert_eq!(mesh.manhattan(hub_tile, mapping.tile_of(CoreId::new(i))), 1);
        }
    }

    #[test]
    fn optimal_on_the_star() {
        let cwg = star_graph();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let built = constructive(&obj, &cwg, &mesh);
        let optimum = exhaustive(&obj, &mesh, 5);
        assert_eq!(built.cost, optimum.cost);
        assert_eq!(built.evaluations, 1);
    }

    #[test]
    fn beats_average_random_mapping_on_figure1() {
        let cdcg = {
            let mut g = noc_model::Cdcg::new();
            let a = g.add_core("A");
            let b = g.add_core("B");
            let e = g.add_core("E");
            let f = g.add_core("F");
            g.add_packet(a, b, 6, 15).unwrap();
            g.add_packet(b, f, 10, 40).unwrap();
            g.add_packet(e, a, 10, 20).unwrap();
            g.add_packet(e, a, 20, 15).unwrap();
            g.add_packet(a, f, 6, 15).unwrap();
            g.add_packet(f, b, 6, 15).unwrap();
            g
        };
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let built = constructive(&obj, &cwg, &mesh);
        // A single random draw is allowed to tie, never to beat it here.
        let rnd = random_search(&obj, &mesh, 4, 1, 5);
        assert!(built.cost <= rnd.cost + 1e-9);
        // And it must land on the exhaustive optimum for this tiny case.
        let optimum = exhaustive(&obj, &mesh, 4);
        assert_eq!(built.cost, optimum.cost);
    }

    #[test]
    fn deterministic() {
        let cwg = star_graph();
        let mesh = Mesh::new(4, 2).unwrap();
        assert_eq!(
            constructive_mapping(&cwg, &mesh),
            constructive_mapping(&cwg, &mesh)
        );
    }

    #[test]
    fn handles_disconnected_cores() {
        let mut cwg = Cwg::new();
        cwg.add_core("lonely0");
        cwg.add_core("lonely1");
        let a = cwg.add_core("a");
        let b = cwg.add_core("b");
        cwg.add_communication(a, b, 5).unwrap();
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = constructive_mapping(&cwg, &mesh);
        mapping.validate().unwrap();
        assert_eq!(mapping.core_count(), 4);
        // The communicating pair is adjacent.
        assert_eq!(mesh.manhattan(mapping.tile_of(a), mapping.tile_of(b)), 1);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn too_many_cores_panics() {
        let mut cwg = Cwg::new();
        for i in 0..5 {
            cwg.add_core(format!("c{i}"));
        }
        let _ = constructive_mapping(&cwg, &Mesh::new(2, 2).unwrap());
    }
}
