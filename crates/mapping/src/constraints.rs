//! Exhaustive search over pin-honouring placements.
//!
//! Pins themselves ([`Constraints`]) live in `noc-search`, where the
//! full-cost annealer takes them as its move set
//! ([`crate::anneal_cancellable`]); [`exhaustive_constrained`] is the
//! enumerative counterpart for small NoCs. [`crate::Explorer::search`]
//! dispatches pinned jobs to one or the other.

use crate::exhaustive::best_placement;
use crate::objective::CostFunction;
use noc_model::Mesh;
use noc_search::{Constraints, SearchOutcome};

/// Exhaustive search over pin-honouring placements only: pinned cores
/// stay put, the free cores are enumerated over the free tiles in the
/// order [`crate::exhaustive()`] uses. Ties go to the first placement.
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
    best_placement(objective, mesh, core_count, constraints, "ES-pinned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive;
    use crate::objective::CwmObjective;
    use noc_energy::Technology;
    use noc_model::Cwg;
    use noc_model::{CoreId, TileId};
    use noc_search::{anneal_cancellable, CancelToken, SaConfig};

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
        let sa = anneal_cancellable(
            &obj,
            &mesh,
            4,
            Some(&pins),
            &SaConfig::quick(2),
            &CancelToken::new(),
        );
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
            let outcome =
                anneal_cancellable(&obj, &mesh, 4, Some(&pins), &config, &CancelToken::new());
            assert!(
                outcome.evaluations <= budget,
                "budget {budget} billed {}",
                outcome.evaluations
            );
            assert!(pins.satisfied_by(&outcome.mapping));
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
