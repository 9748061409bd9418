//! Energy/time Pareto-front exploration — the natural multi-objective
//! extension of the paper's single-scalar objectives.
//!
//! The CWM objective ignores time; the CDCM objective folds time into
//! energy through leakage. A designer often wants the whole trade-off
//! curve instead: [`pareto_front`] sweeps weighted blends of `ENoC` and
//! `texec`, searches each with the annealer, and returns the
//! non-dominated set of mappings found.

use crate::objective::WeightedObjective;
use noc_energy::{evaluate_cdcm, Technology};
use noc_model::{Cdcg, Mapping, Mesh};
use noc_search::{anneal, SaConfig};
use noc_sim::{SimError, SimParams};
use serde::{Deserialize, Serialize};

/// One point of the trade-off curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// The mapping realizing this point.
    pub mapping: Mapping,
    /// Total NoC energy (pJ) of the mapping.
    pub energy_pj: f64,
    /// Execution time (ns) of the mapping.
    pub texec_ns: f64,
    /// The energy weight of the blend that found it (time weight is
    /// `1 − energy_weight` after normalization).
    pub energy_weight: f64,
}

impl ParetoPoint {
    /// True if `self` dominates `other` (no worse in both objectives,
    /// strictly better in at least one).
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        let no_worse = self.energy_pj <= other.energy_pj && self.texec_ns <= other.texec_ns;
        let better = self.energy_pj < other.energy_pj || self.texec_ns < other.texec_ns;
        no_worse && better
    }
}

/// Sweeps `weights` blend points (at least 2), annealing each, and
/// returns the non-dominated front sorted by increasing energy.
///
/// The energy and time terms are normalized by a random-mapping probe so
/// the weights are comparable across instances.
///
/// # Errors
///
/// Propagates scheduling errors from mapping evaluation.
///
/// # Panics
///
/// Panics if `weights < 2` or the application has more cores than tiles.
pub fn pareto_front(
    cdcg: &Cdcg,
    mesh: &Mesh,
    tech: &Technology,
    params: &SimParams,
    weights: usize,
    sa: &SaConfig,
) -> Result<Vec<ParetoPoint>, SimError> {
    assert!(weights >= 2, "need at least the two extreme blends");
    let cores = cdcg.core_count();

    // Normalization probe: a deterministic baseline mapping.
    let probe_mapping =
        Mapping::identity(mesh, cores).expect("caller guarantees cores fit the mesh");
    let probe = evaluate_cdcm(cdcg, mesh, &probe_mapping, tech, params)?;
    let energy_scale = probe.objective_pj().max(1e-12);
    let time_scale = probe.texec_ns.max(1e-12);

    let mut points: Vec<ParetoPoint> = Vec::with_capacity(weights);
    for i in 0..weights {
        let alpha = i as f64 / (weights - 1) as f64; // energy weight 0..1
        let objective = WeightedObjective::new(
            cdcg,
            mesh,
            tech,
            *params,
            alpha / energy_scale,
            (1.0 - alpha) / time_scale,
        );
        let outcome = anneal(&objective, mesh, cores, sa);
        let eval = evaluate_cdcm(cdcg, mesh, &outcome.mapping, tech, params)?;
        points.push(ParetoPoint {
            mapping: outcome.mapping,
            energy_pj: eval.objective_pj(),
            texec_ns: eval.texec_ns,
            energy_weight: alpha,
        });
    }

    // Filter to the non-dominated set.
    let mut front: Vec<ParetoPoint> = Vec::new();
    for candidate in points {
        if front.iter().any(|p| p.dominates(&candidate)) {
            continue;
        }
        front.retain(|p| !candidate.dominates(p));
        // Skip exact duplicates (same objective values).
        if !front
            .iter()
            .any(|p| p.energy_pj == candidate.energy_pj && p.texec_ns == candidate.texec_ns)
        {
            front.push(candidate);
        }
    }
    front.sort_by(|a, b| a.energy_pj.total_cmp(&b.energy_pj));
    Ok(front)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> Cdcg {
        let mut g = Cdcg::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        let d = g.add_core("d");
        for _ in 0..3 {
            let p0 = g.add_packet(a, b, 5, 120).unwrap();
            let p1 = g.add_packet(b, c, 5, 80).unwrap();
            let p2 = g.add_packet(c, d, 5, 40).unwrap();
            let p3 = g.add_packet(a, d, 5, 60).unwrap();
            g.add_dependence(p0, p1).unwrap();
            g.add_dependence(p1, p2).unwrap();
            g.add_dependence(p0, p3).unwrap();
        }
        g
    }

    #[test]
    fn front_is_mutually_non_dominated_and_sorted() {
        let cdcg = pipeline();
        let mesh = Mesh::new(3, 2).unwrap();
        let front = pareto_front(
            &cdcg,
            &mesh,
            &Technology::t035(),
            &SimParams::new(),
            5,
            &SaConfig::quick(3),
        )
        .unwrap();
        assert!(!front.is_empty());
        for i in 0..front.len() {
            for j in 0..front.len() {
                if i != j {
                    assert!(!front[i].dominates(&front[j]), "front must be clean");
                }
            }
        }
        for w in front.windows(2) {
            assert!(w[0].energy_pj <= w[1].energy_pj);
            // Sorted by energy => time must be non-increasing on a clean
            // front.
            assert!(w[0].texec_ns >= w[1].texec_ns);
        }
    }

    #[test]
    fn extreme_weights_bound_the_front() {
        let cdcg = pipeline();
        let mesh = Mesh::new(3, 2).unwrap();
        let params = SimParams::new();
        let tech = Technology::t035();
        let front = pareto_front(&cdcg, &mesh, &tech, &params, 5, &SaConfig::quick(9)).unwrap();
        // Every front point must carry a valid mapping.
        for p in &front {
            p.mapping.validate().unwrap();
            assert!(p.energy_pj > 0.0);
            assert!(p.texec_ns > 0.0);
        }
    }

    #[test]
    fn dominance_relation() {
        let mesh = Mesh::new(2, 2).unwrap();
        let m = Mapping::identity(&mesh, 2).unwrap();
        let mk = |e, t| ParetoPoint {
            mapping: m.clone(),
            energy_pj: e,
            texec_ns: t,
            energy_weight: 0.5,
        };
        assert!(mk(1.0, 1.0).dominates(&mk(2.0, 2.0)));
        assert!(mk(1.0, 2.0).dominates(&mk(1.0, 3.0)));
        assert!(!mk(1.0, 3.0).dominates(&mk(2.0, 1.0)));
        assert!(!mk(1.0, 1.0).dominates(&mk(1.0, 1.0)));
    }
}
