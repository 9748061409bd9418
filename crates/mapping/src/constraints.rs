//! Placement constraints: pinning cores to fixed tiles.
//!
//! Real SoC floorplans fix some blocks before mapping begins — IO pads
//! and memory controllers sit at the die edge, hardened accelerators
//! keep their tile across respins. [`Constraints`] captures such pins,
//! and [`anneal_constrained`] / [`exhaustive_constrained`] search only
//! the placements that honour them (the paper's formulation is the
//! unconstrained special case).

use crate::objective::CostFunction;
use crate::result::SearchOutcome;
use crate::sa::SaConfig;
use noc_model::{CoreId, Mapping, Mesh, ModelError, TileId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A set of core→tile pins.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Constraints {
    pinned: BTreeMap<CoreId, TileId>,
}

impl Constraints {
    /// No constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins `core` to `tile`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TileConflict`] if another core is already
    /// pinned to `tile`.
    pub fn pin(mut self, core: CoreId, tile: TileId) -> Result<Self, ModelError> {
        if let Some((&other, _)) = self.pinned.iter().find(|&(_, &t)| t == tile) {
            if other != core {
                return Err(ModelError::TileConflict {
                    tile,
                    first: other,
                    second: core,
                });
            }
        }
        self.pinned.insert(core, tile);
        Ok(self)
    }

    /// Tile a core is pinned to, if any.
    pub fn pinned_tile(&self, core: CoreId) -> Option<TileId> {
        self.pinned.get(&core).copied()
    }

    /// True if `tile` is reserved by a pin.
    pub fn is_pinned_tile(&self, tile: TileId) -> bool {
        self.pinned.values().any(|&t| t == tile)
    }

    /// Number of pins.
    pub fn len(&self) -> usize {
        self.pinned.len()
    }

    /// True when no pins exist.
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty()
    }

    /// Checks the pins against an instance.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownCore`]/[`ModelError::UnknownTile`]
    /// for out-of-range pins and [`ModelError::TooManyCores`] if the
    /// unpinned cores cannot fit the unpinned tiles.
    pub fn validate(&self, mesh: &Mesh, core_count: usize) -> Result<(), ModelError> {
        for (&core, &tile) in &self.pinned {
            if core.index() >= core_count {
                return Err(ModelError::UnknownCore(core));
            }
            if !mesh.contains(tile) {
                return Err(ModelError::UnknownTile(tile));
            }
        }
        let free_cores = core_count - self.pinned.len();
        let free_tiles = mesh.tile_count() - self.pinned.len();
        if free_cores > free_tiles {
            return Err(ModelError::TooManyCores {
                cores: core_count,
                tiles: mesh.tile_count(),
            });
        }
        Ok(())
    }

    /// True if `mapping` honours every pin.
    pub fn satisfied_by(&self, mapping: &Mapping) -> bool {
        self.pinned.iter().all(|(&core, &tile)| {
            core.index() < mapping.core_count() && mapping.tile_of(core) == tile
        })
    }

    /// A random mapping honouring the pins: pinned cores placed first,
    /// the rest shuffled over the remaining tiles.
    ///
    /// # Panics
    ///
    /// Panics if the constraints do not validate against the instance.
    pub fn random_mapping(&self, mesh: &Mesh, core_count: usize, rng: &mut StdRng) -> Mapping {
        self.validate(mesh, core_count)
            .expect("constraints fit the instance");
        let mut free_tiles: Vec<TileId> =
            mesh.tiles().filter(|t| !self.is_pinned_tile(*t)).collect();
        for i in (1..free_tiles.len()).rev() {
            let j = rng.gen_range(0..=i);
            free_tiles.swap(i, j);
        }
        let mut next_free = free_tiles.into_iter();
        let tiles: Vec<TileId> = (0..core_count)
            .map(|c| {
                self.pinned_tile(CoreId::new(c))
                    .unwrap_or_else(|| next_free.next().expect("validated headroom"))
            })
            .collect();
        Mapping::from_tiles(mesh, tiles).expect("pin-aware construction is injective")
    }
}

/// Simulated annealing restricted to pin-honouring placements: swap moves
/// only touch unpinned tiles.
///
/// # Panics
///
/// Panics if the constraints do not validate against the instance, or if
/// fewer than two tiles remain swappable.
pub fn anneal_constrained<C: CostFunction + ?Sized>(
    objective: &C,
    mesh: &Mesh,
    core_count: usize,
    constraints: &Constraints,
    config: &SaConfig,
) -> SearchOutcome {
    constraints
        .validate(mesh, core_count)
        .expect("constraints fit the instance");
    let start = noc_search::wall_clock();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let swappable: Vec<TileId> = mesh
        .tiles()
        .filter(|t| !constraints.is_pinned_tile(*t))
        .collect();
    assert!(
        swappable.len() >= 2,
        "need at least two unpinned tiles to search"
    );

    let mut current = constraints.random_mapping(mesh, core_count, &mut rng);
    let mut current_cost = objective.cost(&current);
    let mut evaluations = 1u64;
    let mut best = current.clone();
    let mut best_cost = current_cost;

    let moves = config
        .moves_per_epoch
        .unwrap_or(8 * mesh.tile_count())
        .max(1);
    let mut temperature = config.initial_temperature.unwrap_or_else(|| {
        let mut deltas = Vec::new();
        let mut sample = current.clone();
        // Calibration is billed, so it must fit the budget too.
        for _ in 0..16.min(config.max_evaluations.saturating_sub(1)) {
            let (a, b) = pick_two(&swappable, &mut rng);
            sample.swap_tiles(a, b);
            let c = objective.cost(&sample);
            evaluations += 1;
            deltas.push((c - current_cost).abs());
            sample.swap_tiles(a, b);
        }
        let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
        (mean / (1.0f64 / 0.8).ln()).max(1e-9)
    });

    let mut stall = 0usize;
    'outer: while stall < config.stall_epochs {
        let mut improved = false;
        for _ in 0..moves {
            if evaluations >= config.max_evaluations {
                break 'outer;
            }
            let (a, b) = pick_two(&swappable, &mut rng);
            current.swap_tiles(a, b);
            let cost = objective.cost(&current);
            evaluations += 1;
            let delta = cost - current_cost;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                current_cost = cost;
                if cost < best_cost {
                    best_cost = cost;
                    best = current.clone();
                    improved = true;
                }
            } else {
                current.swap_tiles(a, b);
            }
        }
        temperature *= config.cooling;
        stall = if improved { 0 } else { stall + 1 };
    }

    debug_assert!(constraints.satisfied_by(&best));
    SearchOutcome {
        mapping: best,
        cost: best_cost,
        evaluations,
        elapsed: start.elapsed(),
        method: "SA-pinned".to_owned(),
        objective: objective.name(),
    }
}

fn pick_two(tiles: &[TileId], rng: &mut StdRng) -> (TileId, TileId) {
    let a = rng.gen_range(0..tiles.len());
    let mut b = rng.gen_range(0..tiles.len() - 1);
    if b >= a {
        b += 1;
    }
    (tiles[a], tiles[b])
}

/// Exhaustive search over pin-honouring placements only.
///
/// # Panics
///
/// Panics if the constraints do not validate against the instance.
pub fn exhaustive_constrained<C: CostFunction + ?Sized>(
    objective: &C,
    mesh: &Mesh,
    core_count: usize,
    constraints: &Constraints,
) -> SearchOutcome {
    constraints
        .validate(mesh, core_count)
        .expect("constraints fit the instance");
    let start = noc_search::wall_clock();
    let free_cores: Vec<CoreId> = (0..core_count)
        .map(CoreId::new)
        .filter(|c| constraints.pinned_tile(*c).is_none())
        .collect();
    let free_tiles: Vec<TileId> = mesh
        .tiles()
        .filter(|t| !constraints.is_pinned_tile(*t))
        .collect();

    let mut best: Option<(Mapping, f64)> = None;
    let mut evaluations = 0u64;
    let mut assignment: Vec<TileId> = Vec::with_capacity(free_cores.len());
    let mut used = vec![false; free_tiles.len()];

    #[allow(clippy::too_many_arguments)] // internal recursion carrier
    fn recurse<C: CostFunction + ?Sized>(
        objective: &C,
        mesh: &Mesh,
        core_count: usize,
        constraints: &Constraints,
        free_cores: &[CoreId],
        free_tiles: &[TileId],
        assignment: &mut Vec<TileId>,
        used: &mut Vec<bool>,
        best: &mut Option<(Mapping, f64)>,
        evaluations: &mut u64,
    ) {
        if assignment.len() == free_cores.len() {
            let mut next = assignment.iter().copied();
            let tiles: Vec<TileId> = (0..core_count)
                .map(|c| {
                    constraints
                        .pinned_tile(CoreId::new(c))
                        .unwrap_or_else(|| next.next().expect("assignment complete"))
                })
                .collect();
            let mapping =
                Mapping::from_tiles(mesh, tiles).expect("constrained enumeration is injective");
            let cost = objective.cost(&mapping);
            *evaluations += 1;
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                *best = Some((mapping, cost));
            }
            return;
        }
        for i in 0..free_tiles.len() {
            if !used[i] {
                used[i] = true;
                assignment.push(free_tiles[i]);
                recurse(
                    objective,
                    mesh,
                    core_count,
                    constraints,
                    free_cores,
                    free_tiles,
                    assignment,
                    used,
                    best,
                    evaluations,
                );
                assignment.pop();
                used[i] = false;
            }
        }
    }
    recurse(
        objective,
        mesh,
        core_count,
        constraints,
        &free_cores,
        &free_tiles,
        &mut assignment,
        &mut used,
        &mut best,
        &mut evaluations,
    );

    let (mapping, cost) = best.expect("at least one constrained placement exists");
    SearchOutcome {
        mapping,
        cost,
        evaluations,
        elapsed: start.elapsed(),
        method: "ES-pinned".to_owned(),
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
        cwg.add_communication(a, b, 60).unwrap();
        cwg.add_communication(b, c, 30).unwrap();
        cwg.add_communication(c, d, 20).unwrap();
        (cwg, Mesh::new(2, 2).unwrap(), Technology::paper_example())
    }

    #[test]
    fn pins_conflict_detection() {
        let c = Constraints::new()
            .pin(CoreId::new(0), TileId::new(0))
            .unwrap();
        let err = c.clone().pin(CoreId::new(1), TileId::new(0)).unwrap_err();
        assert!(matches!(err, ModelError::TileConflict { .. }));
        // Re-pinning the same core to the same tile is fine.
        let again = c.pin(CoreId::new(0), TileId::new(0)).unwrap();
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn validation_checks_ranges_and_headroom() {
        let mesh = Mesh::new(2, 2).unwrap();
        let pins = Constraints::new()
            .pin(CoreId::new(9), TileId::new(0))
            .unwrap();
        assert!(pins.validate(&mesh, 4).is_err());
        let pins = Constraints::new()
            .pin(CoreId::new(0), TileId::new(9))
            .unwrap();
        assert!(pins.validate(&mesh, 4).is_err());
        let ok = Constraints::new()
            .pin(CoreId::new(0), TileId::new(3))
            .unwrap();
        ok.validate(&mesh, 4).unwrap();
    }

    #[test]
    fn constrained_exhaustive_honours_pins_and_is_optimal_among_them() {
        let (cwg, mesh, tech) = instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        // Pin core A to the far corner (a deliberately bad spot).
        let pins = Constraints::new()
            .pin(CoreId::new(0), TileId::new(3))
            .unwrap();
        let constrained = exhaustive_constrained(&obj, &mesh, 4, &pins);
        assert!(pins.satisfied_by(&constrained.mapping));
        assert_eq!(constrained.evaluations, 6); // 3! placements of the rest
                                                // The free optimum can only be at most as costly.
        let free = exhaustive(&obj, &mesh, 4);
        assert!(free.cost <= constrained.cost + 1e-9);
        // And among pin-honouring mappings nothing beats it (check by
        // enumerating all 24 and filtering).
        let mut best_manual = f64::INFINITY;
        crate::exhaustive::for_each_mapping(&mesh, 4, |m| {
            if pins.satisfied_by(m) {
                best_manual = best_manual.min(obj.cost(m));
            }
        });
        assert!((constrained.cost - best_manual).abs() < 1e-9);
    }

    #[test]
    fn constrained_sa_matches_constrained_exhaustive_on_tiny_space() {
        let (cwg, mesh, tech) = instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let pins = Constraints::new()
            .pin(CoreId::new(3), TileId::new(0))
            .unwrap();
        let es = exhaustive_constrained(&obj, &mesh, 4, &pins);
        let sa = anneal_constrained(&obj, &mesh, 4, &pins, &SaConfig::quick(2));
        assert!(pins.satisfied_by(&sa.mapping));
        assert!(
            (sa.cost - es.cost).abs() < 1e-9,
            "SA {} vs ES {}",
            sa.cost,
            es.cost
        );
    }

    #[test]
    fn pinned_search_never_bills_more_than_its_budget() {
        // Calibration is billed too, so even budgets below its 16
        // samples must hold.
        let (cwg, mesh, tech) = instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let pins = Constraints::new()
            .pin(CoreId::new(0), TileId::new(0))
            .unwrap();
        for budget in 1..=20 {
            let mut config = SaConfig::quick(5);
            config.max_evaluations = budget;
            let outcome = anneal_constrained(&obj, &mesh, 4, &pins, &config);
            assert!(
                outcome.evaluations <= budget,
                "budget {budget} billed {}",
                outcome.evaluations
            );
            assert!(pins.satisfied_by(&outcome.mapping));
        }
    }

    #[test]
    fn random_mapping_respects_pins() {
        let mesh = Mesh::new(3, 3).unwrap();
        let pins = Constraints::new()
            .pin(CoreId::new(1), TileId::new(4))
            .unwrap()
            .pin(CoreId::new(2), TileId::new(0))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let m = pins.random_mapping(&mesh, 5, &mut rng);
            m.validate().unwrap();
            assert!(pins.satisfied_by(&m));
        }
    }

    #[test]
    fn empty_constraints_behave_like_free_search() {
        let (cwg, mesh, tech) = instance();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let pins = Constraints::new();
        assert!(pins.is_empty());
        let es_free = exhaustive(&obj, &mesh, 4);
        let es_pinned = exhaustive_constrained(&obj, &mesh, 4, &pins);
        assert_eq!(es_free.cost, es_pinned.cost);
        assert_eq!(es_free.evaluations, es_pinned.evaluations);
    }
}
