//! Mapping robustness under link/TSV failures.
//!
//! The paper optimizes mappings for a pristine mesh; this module asks
//! what happens when the mesh degrades. Three tools:
//!
//! * [`remap_after_faults`] — inject a [`FaultSet`], re-route the
//!   incumbent mapping over the fault-aware provider tier, measure the
//!   degraded cost, then spend a bounded evaluation budget
//!   re-optimizing on the incremental swap-delta fast path. The
//!   [`RemapReport`] records the degradation and the recovery curve
//!   (best recovered cost, evaluations until the pre-fault cost was
//!   matched, if ever).
//! * [`link_criticality`] — a traffic-weighted load report per link:
//!   which links carry which share of the mapping's communication
//!   volume. A mapping whose volume concentrates on few links is one
//!   link failure away from a large degradation; the report's
//!   max-share and Herfindahl index quantify that single-point-of-
//!   failure exposure.
//! * [`RobustCdcmObjective`] — the CDCM objective with a concentration
//!   penalty `cost × (1 + w·HHI)`, for searches that should trade a
//!   little energy for spreading traffic across more links.

use crate::objective::{BatchCost, CdcmObjective, CostFunction, SwapDeltaCost};
use noc_energy::Technology;
use noc_model::{Cdcg, Cwg, FaultSet, Link, Mapping, RouteProvider, RouteSource, TileId};
use noc_search::propose_swap;
use noc_sim::SimParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One link's traffic load under a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkLoad {
    /// The loaded channel.
    pub link: Link,
    /// Total bits routed across the channel (each communication's
    /// volume counted once per traversal).
    pub bits: u64,
    /// This channel's fraction of the total routed volume.
    pub share: f64,
}

/// Traffic-weighted link-criticality report: single-point-of-failure
/// exposure of one mapping (see [`link_criticality`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalityReport {
    /// Total bits routed over inter-router channels (volume × hops).
    pub total_bits: u64,
    /// Inter-router channels carrying any traffic.
    pub links_used: usize,
    /// The most heavily loaded channels, descending (at most
    /// [`CriticalityReport::TOP`] entries).
    pub top: Vec<LinkLoad>,
    /// Share of the total volume on the single busiest channel — the
    /// worst-case fraction of traffic a single link failure detours.
    pub max_share: f64,
    /// Herfindahl–Hirschman index of the load distribution
    /// (`Σ share²`): `1/links_used` when perfectly spread, `1.0` when
    /// one channel carries everything.
    pub hhi: f64,
}

impl CriticalityReport {
    /// Number of busiest links the report keeps.
    pub const TOP: usize = 10;
}

/// Computes the traffic-weighted link load of `mapping`: every CWG
/// communication's bit volume is charged to each inter-router channel
/// its route traverses (injection/ejection links are core-local and
/// excluded). Deterministic: accumulation and tie-breaking follow the
/// dense link numbering.
pub fn link_criticality(cwg: &Cwg, routes: &RouteProvider, mapping: &Mapping) -> CriticalityReport {
    let mut loads: BTreeMap<u32, u64> = BTreeMap::new();
    let mut buf = Vec::new();
    for comm in cwg.communications() {
        buf.clear();
        let (start, len) = routes.walk_span(
            mapping.tile_of(comm.src),
            mapping.tile_of(comm.dst),
            &mut buf,
        );
        let flat = routes.flat(&buf);
        for &id in &flat[start as usize..(start + len) as usize] {
            if routes.link_at(id).is_some_and(|l| l.is_internal()) {
                *loads.entry(id).or_insert(0) += comm.bits;
            }
        }
    }

    let total_bits: u64 = loads.values().sum();
    let total = total_bits as f64;
    let mut top: Vec<LinkLoad> = loads
        .iter()
        .map(|(&id, &bits)| LinkLoad {
            link: routes.link_at(id).expect("accumulated ids decode"),
            bits,
            share: if total_bits == 0 {
                0.0
            } else {
                bits as f64 / total
            },
        })
        .collect();
    let hhi = top.iter().map(|l| l.share * l.share).sum();
    let links_used = top.len();
    // Descending by load; the BTreeMap's id order breaks ties.
    top.sort_by_key(|l| std::cmp::Reverse(l.bits));
    let max_share = top.first().map_or(0.0, |l| l.share);
    top.truncate(CriticalityReport::TOP);
    CriticalityReport {
        total_bits,
        links_used,
        top,
        max_share,
        hhi,
    }
}

/// Concentration of `mapping`'s traffic (the Herfindahl index of
/// [`link_criticality`] alone, skipping the per-link report).
pub fn traffic_concentration(cwg: &Cwg, routes: &RouteProvider, mapping: &Mapping) -> f64 {
    link_criticality(cwg, routes, mapping).hhi
}

/// Outcome of one fault-injection / re-mapping experiment
/// (see [`remap_after_faults`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemapReport {
    /// Dead directed channels injected.
    pub dead_links: usize,
    /// Incumbent cost on the healthy mesh (pJ).
    pub baseline_cost: f64,
    /// Incumbent cost re-routed around the faults, before any
    /// re-optimization (pJ); infinite when the faults partition the
    /// incumbent's traffic.
    pub degraded_cost: f64,
    /// True when at least one incumbent communication pair was
    /// disconnected by the faults.
    pub partitioned: bool,
    /// Best cost found by the budgeted re-optimization (pJ).
    pub recovered_cost: f64,
    /// `recovered_cost / baseline_cost` — 1.0 means full recovery,
    /// above 1.0 is the residual degradation the detours force.
    pub recovery_ratio: f64,
    /// Cost evaluations the re-optimization spent.
    pub evaluations: u64,
    /// First evaluation at which the search matched the pre-fault
    /// baseline cost, when it did (`Some(0)` when the faults did not
    /// degrade the incumbent at all).
    pub evals_to_recover: Option<u64>,
}

/// Injects `faults`, measures the incumbent mapping's degraded cost
/// over the fault-aware route tier, then re-optimizes from the
/// incumbent with a budgeted annealing loop on the incremental
/// swap-delta fast path.
///
/// The healthy baseline is evaluated over `healthy` (any tier); the
/// degraded/recovery phase over [`RouteProvider::fault_aware`] for the
/// same routing kind. A partitioned incumbent costs `f64::INFINITY`;
/// the re-optimization then searches by full evaluation until it finds
/// a connected mapping and switches to the delta fast path from there.
/// Fully deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if `healthy` was built for a custom routing algorithm
/// (fault-aware rerouting needs a library [`noc_model::RoutingKind`]),
/// or if `incumbent` does not fit `cdcg` on the provider's mesh.
#[allow(clippy::too_many_arguments)]
pub fn remap_after_faults(
    cdcg: &Cdcg,
    tech: &Technology,
    params: SimParams,
    healthy: &Arc<RouteProvider>,
    faults: FaultSet,
    incumbent: &Mapping,
    budget: u64,
    seed: u64,
) -> RemapReport {
    let mesh = *healthy.mesh();
    let kind = noc_model::RoutingKind::from_name(healthy.routing_name())
        .expect("fault-aware rerouting requires a library routing kind");
    let dead_links = faults.len();

    let healthy_obj = CdcmObjective::with_provider(cdcg, tech, params, Arc::clone(healthy));
    let baseline_cost = healthy_obj.cost(incumbent);

    let degraded_routes = Arc::new(RouteProvider::fault_aware(&mesh, kind, faults));
    let objective = CdcmObjective::with_provider(cdcg, tech, params, Arc::clone(&degraded_routes));
    let degraded_cost = objective.cost(incumbent);
    let partitioned = degraded_cost.is_infinite();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_ab1e);
    let mut current = incumbent.clone();
    let mut current_cost = degraded_cost;
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut evaluations = 0u64;
    let mut evals_to_recover = (degraded_cost <= baseline_cost).then_some(0);

    // A light annealing schedule around the degradation scale: enough
    // uphill mobility to unwedge cores from around the fault, cooling
    // to pure descent over the budget.
    let scale = if degraded_cost.is_finite() {
        (degraded_cost - baseline_cost)
            .abs()
            .max(baseline_cost * 0.01)
    } else {
        baseline_cost.abs().max(1.0)
    };
    let mut temperature = (scale * 0.5).max(f64::MIN_POSITIVE);
    let cooling = 0.999_f64;

    while evaluations < budget && mesh.tile_count() > 1 {
        let (a, b) = propose_swap(&mesh, &mut rng);
        evaluations += 1;
        if current_cost.is_finite() {
            let delta = objective.swap_delta(&current, a, b);
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
            if accept && delta.is_finite() {
                current.swap_tiles(a, b);
                current_cost += delta;
            }
        } else {
            // Partitioned incumbent: deltas from an infinite base are
            // meaningless, so evaluate candidates fully until one
            // reconnects, then resume on the fast path.
            let mut cand = current.clone();
            cand.swap_tiles(a, b);
            let cand_cost = objective.cost(&cand);
            if cand_cost < current_cost {
                current = cand;
                current_cost = cand_cost;
            }
        }
        if current_cost < best_cost {
            // Resync against drift: deltas are exact per move, but the
            // running sum accumulates rounding over thousands of moves.
            current_cost = objective.cost(&current);
            if current_cost < best_cost {
                best.clone_from(&current);
                best_cost = current_cost;
                if best_cost <= baseline_cost && evals_to_recover.is_none() {
                    evals_to_recover = Some(evaluations);
                }
            }
        }
        temperature = (temperature * cooling).max(f64::MIN_POSITIVE);
    }

    let recovered_cost = best_cost;
    RemapReport {
        dead_links,
        baseline_cost,
        degraded_cost,
        partitioned,
        recovered_cost,
        recovery_ratio: if baseline_cost == 0.0 {
            1.0
        } else {
            recovered_cost / baseline_cost
        },
        evaluations,
        evals_to_recover,
    }
}

/// The CDCM objective with a traffic-concentration penalty:
/// `cost(m) = CDCM(m) × (1 + weight × HHI(m))`, where `HHI` is the
/// Herfindahl index of the mapping's link-load distribution
/// ([`link_criticality`]). With `weight = 0` this is exactly
/// [`CdcmObjective`]; positive weights trade energy for spreading the
/// communication volume across more links, lowering single-point-of-
/// failure exposure.
#[derive(Debug, Clone)]
pub struct RobustCdcmObjective<'a> {
    inner: CdcmObjective<'a>,
    cwg: Cwg,
    routes: Arc<RouteProvider>,
    weight: f64,
}

impl<'a> RobustCdcmObjective<'a> {
    /// Creates the penalized objective over a shared route provider.
    pub fn with_provider(
        cdcg: &'a Cdcg,
        tech: &'a Technology,
        params: SimParams,
        routes: Arc<RouteProvider>,
        weight: f64,
    ) -> Self {
        Self {
            inner: CdcmObjective::with_provider(cdcg, tech, params, Arc::clone(&routes)),
            cwg: cdcg.to_cwg(),
            routes,
            weight,
        }
    }

    /// The concentration penalty factor `1 + weight × HHI(mapping)`.
    pub fn penalty(&self, mapping: &Mapping) -> f64 {
        1.0 + self.weight * traffic_concentration(&self.cwg, &self.routes, mapping)
    }
}

impl CostFunction for RobustCdcmObjective<'_> {
    fn cost(&self, mapping: &Mapping) -> f64 {
        self.inner.cost(mapping) * self.penalty(mapping)
    }

    fn name(&self) -> String {
        format!("CDCM*(1+{}*HHI)", self.weight)
    }
}

impl BatchCost for RobustCdcmObjective<'_> {}

impl SwapDeltaCost for RobustCdcmObjective<'_> {
    fn swap_delta(&self, mapping: &Mapping, a: TileId, b: TileId) -> f64 {
        if a == b {
            return 0.0;
        }
        // The energy term rides the inner incremental path; the HHI
        // term is a full recompute over the (few) route-changed
        // communications' walks — still far cheaper than a schedule.
        let base = self.inner.cost(mapping);
        let delta = self.inner.swap_delta(mapping, a, b);
        if !base.is_finite() || !delta.is_finite() {
            return f64::INFINITY;
        }
        let mut swapped = mapping.clone();
        swapped.swap_tiles(a, b);
        (base + delta) * self.penalty(&swapped) - base * self.penalty(mapping)
    }
}

/// Convenience: builds the fault-aware sibling of an existing provider
/// (same mesh, same routing kind) for a fault set.
///
/// # Panics
///
/// Panics if `healthy` was built for a custom routing algorithm.
pub fn fault_sibling(healthy: &RouteProvider, faults: FaultSet) -> RouteProvider {
    let kind = noc_model::RoutingKind::from_name(healthy.routing_name())
        .expect("fault-aware rerouting requires a library routing kind");
    RouteProvider::fault_aware(healthy.mesh(), kind, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::{FaultScenario, Mesh, RoutingKind};

    fn figure1_cdcg() -> Cdcg {
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
        g
    }

    fn instance() -> (Cdcg, Mesh, Technology, SimParams) {
        (
            figure1_cdcg(),
            Mesh::new(3, 3).unwrap(),
            Technology::paper_example(),
            SimParams::paper_example(),
        )
    }

    #[test]
    fn empty_fault_set_reports_zero_degradation() {
        let (cdcg, mesh, tech, params) = instance();
        let healthy = Arc::new(RouteProvider::auto(&mesh, RoutingKind::Xy));
        let incumbent = Mapping::from_tiles(&mesh, [0, 1, 3, 4].map(TileId::new)).unwrap();
        let report = remap_after_faults(
            &cdcg,
            &tech,
            params,
            &healthy,
            FaultSet::new(),
            &incumbent,
            200,
            7,
        );
        assert_eq!(report.dead_links, 0);
        assert_eq!(report.degraded_cost, report.baseline_cost);
        assert!(!report.partitioned);
        assert_eq!(report.evals_to_recover, Some(0));
        assert!(report.recovered_cost <= report.baseline_cost);
    }

    #[test]
    fn link_failure_degrades_then_recovery_improves() {
        let (cdcg, mesh, tech, params) = instance();
        let healthy = Arc::new(RouteProvider::auto(&mesh, RoutingKind::Xy));
        let incumbent = Mapping::from_tiles(&mesh, [0, 1, 3, 4].map(TileId::new)).unwrap();
        let mut faults = FaultSet::new();
        // Kill the A→B channel the incumbent leans on.
        faults.kill_between(TileId::new(0), TileId::new(1));
        let report =
            remap_after_faults(&cdcg, &tech, params, &healthy, faults, &incumbent, 2_000, 7);
        assert_eq!(report.dead_links, 2);
        assert!(
            report.degraded_cost > report.baseline_cost,
            "detours must cost energy: {} vs {}",
            report.degraded_cost,
            report.baseline_cost
        );
        assert!(report.recovered_cost <= report.degraded_cost);
        assert!(report.recovery_ratio >= 0.0);
        assert_eq!(report.evaluations, 2_000);
        // Determinism: the same seed reproduces the same report.
        let mut faults2 = FaultSet::new();
        faults2.kill_between(TileId::new(0), TileId::new(1));
        let again = remap_after_faults(
            &cdcg, &tech, params, &healthy, faults2, &incumbent, 2_000, 7,
        );
        assert_eq!(report, again);
    }

    #[test]
    fn partitioned_incumbent_is_infinite_then_reconnects() {
        let (cdcg, _, tech, params) = instance();
        // A 2x2 mesh cut in half: no mapping of 4 communicating cores
        // survives, so both the incumbent and every candidate stay
        // partitioned.
        let mesh = Mesh::new(2, 2).unwrap();
        let healthy = Arc::new(RouteProvider::auto(&mesh, RoutingKind::Xy));
        let incumbent = Mapping::from_tiles(&mesh, [0, 1, 2, 3].map(TileId::new)).unwrap();
        let mut faults = FaultSet::new();
        // Cut every channel crossing the vertical centerline.
        faults.kill_between(TileId::new(0), TileId::new(1));
        faults.kill_between(TileId::new(2), TileId::new(3));
        let report = remap_after_faults(&cdcg, &tech, params, &healthy, faults, &incumbent, 500, 3);
        assert!(report.partitioned);
        assert!(report.degraded_cost.is_infinite());
        // No mapping of 4 cores onto a split 2x2 reconnects: recovery
        // stays infinite, and that is reported, not panicked over.
        assert!(report.recovered_cost.is_infinite());
        assert_eq!(report.evals_to_recover, None);
    }

    #[test]
    fn criticality_report_finds_the_hot_link() {
        let (cdcg, mesh, tech, params) = instance();
        let _ = (tech, params);
        let cwg = cdcg.to_cwg();
        let routes = RouteProvider::auto(&mesh, RoutingKind::Xy);
        let mapping = Mapping::from_tiles(&mesh, [0, 1, 3, 4].map(TileId::new)).unwrap();
        let report = link_criticality(&cwg, &routes, &mapping);
        assert!(report.total_bits > 0);
        assert!(report.links_used >= 4);
        assert!(report.max_share > 0.0 && report.max_share <= 1.0);
        assert!(report.hhi >= 1.0 / report.links_used as f64 - 1e-12);
        assert!(report.hhi <= 1.0);
        let top_sum: u64 = report.top.iter().map(|l| l.bits).sum();
        assert!(top_sum <= report.total_bits);
        assert!(report.top.windows(2).all(|w| w[0].bits >= w[1].bits));
        // B↔F (40 bits each hop) dominates: the busiest link carries
        // at least that much.
        assert!(report.top[0].bits >= 40);
    }

    #[test]
    fn robust_objective_delta_matches_cost_difference() {
        let (cdcg, mesh, tech, params) = instance();
        let routes = Arc::new(RouteProvider::auto(&mesh, RoutingKind::Xy));
        let obj = RobustCdcmObjective::with_provider(&cdcg, &tech, params, routes, 2.0);
        let m = Mapping::from_tiles(&mesh, [0, 1, 3, 4].map(TileId::new)).unwrap();
        for (a, b) in [(0, 8), (1, 4), (3, 3), (0, 1)] {
            let (a, b) = (TileId::new(a), TileId::new(b));
            let delta = obj.swap_delta(&m, a, b);
            let mut swapped = m.clone();
            swapped.swap_tiles(a, b);
            let full = obj.cost(&swapped) - obj.cost(&m);
            assert!(
                (delta - full).abs() < 1e-9,
                "swap {a}-{b}: delta {delta} vs full {full}"
            );
        }
        // Weight 0 degenerates to plain CDCM.
        let routes = Arc::new(RouteProvider::auto(&mesh, RoutingKind::Xy));
        let plain = CdcmObjective::with_provider(&cdcg, &tech, params, Arc::clone(&routes));
        let zero = RobustCdcmObjective::with_provider(&cdcg, &tech, params, routes, 0.0);
        assert_eq!(zero.cost(&m), plain.cost(&m));
    }

    #[test]
    fn fault_sibling_matches_the_healthy_provider_when_empty() {
        let mesh = Mesh::new(4, 4).unwrap();
        let healthy = RouteProvider::auto(&mesh, RoutingKind::Xy);
        let sibling = fault_sibling(&healthy, FaultSet::new());
        assert_eq!(sibling.tier().name(), "fault-aware");
        assert_eq!(sibling.routing_name(), healthy.routing_name());
        // And a generated scenario wires through.
        let faults = FaultScenario::RandomLinks { count: 2, seed: 5 }.generate(&mesh);
        let sibling = fault_sibling(&healthy, faults);
        assert_eq!(sibling.as_fault_aware().unwrap().faults().len(), 4);
    }
}
