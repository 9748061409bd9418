//! Mapping cost functions: the CWM and CDCM objectives plus extensions.
//!
//! Both of the paper's strategies are search procedures over the same
//! mapping space; they differ only in the objective (§4):
//!
//! * [`CwmObjective`] — Equation 3: dynamic energy from the CWG. Cheap
//!   (`O(NCC)` path computations), but blind to timing.
//! * [`CdcmObjective`] — Equation 10: total energy, requiring a
//!   contention-aware schedule per evaluation (`O(NDP)` event
//!   processing).
//! * [`ExecTimeObjective`] — pure `texec` minimization (an extension the
//!   ETR experiments use for ablations).
//! * [`WeightedObjective`] — `α·ENoC + β·texec` multi-objective blend
//!   (listed by the paper as a natural extension).

use noc_energy::{cwg_dynamic_energy_cached, CdcmCostEvaluator, Technology};
use noc_model::{Cdcg, Cwg, Mapping, Mesh, RouteProvider, RouteSource, RoutingKind, TileId};
use noc_sim::{CostEvaluator, SimParams};
use std::cell::RefCell;
use std::sync::Arc;

// The objective traits every search engine minimizes live in the search
// subsystem (`noc-search`), which the engines share; they are re-exported
// here so objective implementors and downstream users are unaffected by
// the move.
pub use noc_search::{BatchCost, CostFunction, SwapDeltaCost};

/// The CWM objective (Equation 3): NoC dynamic energy of a CWG.
///
/// Routes come from a shared [`RouteProvider`], so neither full
/// evaluations nor [`SwapDeltaCost::swap_delta`] re-derive paths —
/// hop counts are `O(1)` table lookups (dense tier) or closed forms
/// (implicit tier). The provider may be built for any
/// [`RoutingAlgorithm`](noc_model::RoutingAlgorithm)
/// ([`Self::with_provider`]); [`Self::new`] defaults to XY, the paper's
/// routing function.
#[derive(Debug, Clone)]
pub struct CwmObjective<'a> {
    cwg: &'a Cwg,
    tech: &'a Technology,
    routes: Arc<RouteProvider>,
}

impl<'a> CwmObjective<'a> {
    /// Creates the objective for an application CWG on a mesh at a
    /// technology point, under XY routing (size-aware provider tier).
    pub fn new(cwg: &'a Cwg, mesh: &Mesh, tech: &'a Technology) -> Self {
        Self::with_provider(
            cwg,
            mesh,
            tech,
            Arc::new(RouteProvider::auto(mesh, RoutingKind::Xy)),
        )
    }

    /// Creates the objective over an existing shared route provider (any
    /// tier).
    ///
    /// # Panics
    ///
    /// Panics if `routes` was built for a different mesh than `mesh`.
    pub fn with_provider(
        cwg: &'a Cwg,
        mesh: &Mesh,
        tech: &'a Technology,
        routes: Arc<RouteProvider>,
    ) -> Self {
        assert_eq!(
            routes.mesh(),
            mesh,
            "route provider was built for a different mesh"
        );
        Self { cwg, tech, routes }
    }

    /// The underlying CWG.
    pub fn cwg(&self) -> &Cwg {
        self.cwg
    }

    /// The shared route provider.
    pub fn provider(&self) -> &Arc<RouteProvider> {
        &self.routes
    }
}

impl CostFunction for CwmObjective<'_> {
    fn cost(&self, mapping: &Mapping) -> f64 {
        cwg_dynamic_energy_cached(self.cwg, self.routes.as_ref(), mapping, self.tech).picojoules()
    }

    fn name(&self) -> String {
        "CWM".to_owned()
    }
}

impl SwapDeltaCost for CwmObjective<'_> {
    fn swap_delta(&self, mapping: &Mapping, a: TileId, b: TileId) -> f64 {
        if a == b {
            return 0.0;
        }
        // Tile a core would occupy after the swap, without materializing
        // the swapped mapping.
        let swapped_tile = |core: noc_model::CoreId| {
            let t = mapping.tile_of(core);
            if t == a {
                b
            } else if t == b {
                a
            } else {
                t
            }
        };
        // Only communications touching a swapped core change cost; each
        // term is two O(1) hop/vertical-hop lookups in the route cache
        // (the same `pair_transfer_energy` the full evaluation charges,
        // so the TSV term of 3D meshes stays consistent).
        let mut delta = 0.0;
        for comm in self.cwg.communications() {
            let (src_old, dst_old) = (mapping.tile_of(comm.src), mapping.tile_of(comm.dst));
            if !(src_old == a || src_old == b || dst_old == a || dst_old == b) {
                continue;
            }
            let (src_new, dst_new) = (swapped_tile(comm.src), swapped_tile(comm.dst));
            let routes = self.routes.as_ref();
            let old =
                noc_energy::pair_transfer_energy(routes, self.tech, src_old, dst_old, comm.bits);
            let new =
                noc_energy::pair_transfer_energy(routes, self.tech, src_new, dst_new, comm.bits);
            delta += new.picojoules() - old.picojoules();
        }
        delta
    }
}

// Every objective scores a batch with the trait's per-mapping default.
impl BatchCost for CwmObjective<'_> {}

/// The CDCM objective (Equation 10): total NoC energy including leakage
/// over the contention-aware execution time.
///
/// Evaluations run on the allocation-free cost engine
/// ([`CdcmCostEvaluator`]): the contention-aware schedule is computed
/// without materializing occupancy lists or timelines, over a shared
/// [`RouteProvider`] and reusable scratch buffers. Values are bit-exact
/// with [`noc_energy::evaluate_cdcm`].
///
/// Clones share the route provider but own private scratch state, so each
/// search thread clones the objective once and evaluates independently.
#[derive(Debug)]
pub struct CdcmObjective<'a> {
    cdcg: &'a Cdcg,
    engine: RefCell<CdcmCostEvaluator<'a>>,
}

impl<'a> CdcmObjective<'a> {
    /// Creates the objective for an application CDCG, under XY routing.
    pub fn new(cdcg: &'a Cdcg, mesh: &'a Mesh, tech: &'a Technology, params: SimParams) -> Self {
        Self {
            cdcg,
            engine: RefCell::new(CdcmCostEvaluator::new(cdcg, mesh, tech, &params)),
        }
    }

    /// Creates the objective over an existing shared route provider (any
    /// tier; costs are bit-identical across tiers).
    pub fn with_provider(
        cdcg: &'a Cdcg,
        tech: &'a Technology,
        params: SimParams,
        routes: Arc<RouteProvider>,
    ) -> Self {
        Self {
            cdcg,
            engine: RefCell::new(CdcmCostEvaluator::with_provider(
                cdcg, tech, &params, routes,
            )),
        }
    }

    /// The underlying CDCG.
    pub fn cdcg(&self) -> &Cdcg {
        self.cdcg
    }

    /// How the swap deltas so far were answered: by the `O(1)`
    /// route-unchanged shortcut or by a full evaluation.
    pub fn delta_stats(&self) -> noc_sim::DeltaStats {
        self.engine.borrow().delta_stats()
    }

    /// Cumulative walk-memo counters of the backing engine, or `None`
    /// when it has no memo (a dense provider, or the memo switched off).
    pub fn walk_memo_stats(&self) -> Option<noc_model::WalkMemoStats> {
        self.engine.borrow().walk_memo_stats()
    }

    /// Enables or disables walk memoization in the backing engine.
    /// Costs — and therefore search trajectories — are bit-identical
    /// either way; the memo-equivalence property tests pin that by
    /// flipping this.
    pub fn set_walk_memo(&self, enabled: bool) {
        self.engine.borrow_mut().set_walk_memo(enabled);
    }
}

impl Clone for CdcmObjective<'_> {
    fn clone(&self) -> Self {
        Self {
            cdcg: self.cdcg,
            engine: RefCell::new(self.engine.borrow().clone()),
        }
    }
}

impl CostFunction for CdcmObjective<'_> {
    fn cost(&self, mapping: &Mapping) -> f64 {
        self.engine
            .borrow_mut()
            .evaluate(mapping)
            .map(|c| c.objective_pj)
            .unwrap_or(f64::INFINITY)
    }

    fn name(&self) -> String {
        "CDCM".to_owned()
    }
}

impl SwapDeltaCost for CdcmObjective<'_> {
    /// Move evaluation through [`CdcmCostEvaluator::evaluate_swap`]: a
    /// swap that moves no communicating core is answered from the cached
    /// cost of `mapping`, every other swap by one full evaluation of the
    /// swapped mapping, which an accepted move then finds cached.
    /// Both terms are computed with the exact floating-point operations
    /// of [`CostFunction::cost`], so
    /// `cost(m) + swap_delta(m, a, b) == cost(swap(m))` holds bitwise —
    /// delta-driven annealing follows the same trajectory as full
    /// re-evaluation, seed for seed.
    fn swap_delta(&self, mapping: &Mapping, a: TileId, b: TileId) -> f64 {
        if a == b {
            return 0.0;
        }
        let mut engine = self.engine.borrow_mut();
        let base = match engine.evaluate(mapping) {
            Ok(c) => c.objective_pj,
            Err(_) => return f64::INFINITY,
        };
        match engine.evaluate_swap(mapping, a, b) {
            Ok(c) => c.objective_pj - base,
            Err(_) => f64::INFINITY,
        }
    }

    /// Neighborhood form: the shared baseline is evaluated once (not
    /// once per move, as chaining [`Self::swap_delta`] would), then each
    /// move is evaluated as in [`Self::swap_delta`]. Deltas are
    /// bit-identical to per-move calls — the baseline a per-move chain
    /// re-evaluates comes from the engine's unchanged-mapping cache and
    /// is bitwise the same value.
    fn batch_swap_delta(&self, mapping: &Mapping, moves: &[(TileId, TileId)], out: &mut Vec<f64>) {
        let mut engine = self.engine.borrow_mut();
        let base = match engine.evaluate(mapping) {
            Ok(c) => c.objective_pj,
            Err(_) => {
                // Per-move parity: `swap_delta` short-circuits `a == b`
                // to 0.0 before it ever evaluates the baseline.
                out.extend(
                    moves
                        .iter()
                        .map(|&(a, b)| if a == b { 0.0 } else { f64::INFINITY }),
                );
                return;
            }
        };
        for &(a, b) in moves {
            if a == b {
                out.push(0.0);
                continue;
            }
            match engine.evaluate_swap(mapping, a, b) {
                Ok(c) => out.push(c.objective_pj - base),
                Err(_) => out.push(f64::INFINITY),
            }
        }
    }
}

impl BatchCost for CdcmObjective<'_> {}

/// Pure execution-time objective (`texec` in nanoseconds), evaluated on
/// the cost-only fast path.
#[derive(Debug)]
pub struct ExecTimeObjective<'a> {
    engine: RefCell<CostEvaluator<'a>>,
}

impl<'a> ExecTimeObjective<'a> {
    /// Creates the objective, under XY routing.
    pub fn new(cdcg: &'a Cdcg, mesh: &'a Mesh, params: SimParams) -> Self {
        Self::with_provider(
            cdcg,
            params,
            Arc::new(RouteProvider::auto(mesh, RoutingKind::Xy)),
        )
    }

    /// Creates the objective over an existing shared route provider.
    pub fn with_provider(cdcg: &'a Cdcg, params: SimParams, routes: Arc<RouteProvider>) -> Self {
        Self {
            engine: RefCell::new(CostEvaluator::with_provider(cdcg, &params, routes)),
        }
    }
}

impl Clone for ExecTimeObjective<'_> {
    fn clone(&self) -> Self {
        Self {
            engine: RefCell::new(self.engine.borrow().clone()),
        }
    }
}

impl CostFunction for ExecTimeObjective<'_> {
    fn cost(&self, mapping: &Mapping) -> f64 {
        self.engine
            .borrow_mut()
            .texec_ns(mapping)
            .unwrap_or(f64::INFINITY)
    }

    fn name(&self) -> String {
        "texec".to_owned()
    }
}

impl BatchCost for ExecTimeObjective<'_> {}

/// Weighted blend `α·ENoC + β·texec` (energy in pJ, time in ns),
/// evaluated on the cost-only fast path.
#[derive(Debug)]
pub struct WeightedObjective<'a> {
    engine: RefCell<CdcmCostEvaluator<'a>>,
    energy_weight: f64,
    time_weight: f64,
}

impl<'a> WeightedObjective<'a> {
    /// Creates the blended objective with the given weights.
    pub fn new(
        cdcg: &'a Cdcg,
        mesh: &'a Mesh,
        tech: &'a Technology,
        params: SimParams,
        energy_weight: f64,
        time_weight: f64,
    ) -> Self {
        Self {
            engine: RefCell::new(CdcmCostEvaluator::new(cdcg, mesh, tech, &params)),
            energy_weight,
            time_weight,
        }
    }

    /// Creates the blended objective over an existing shared route
    /// provider.
    pub fn with_provider(
        cdcg: &'a Cdcg,
        tech: &'a Technology,
        params: SimParams,
        routes: Arc<RouteProvider>,
        energy_weight: f64,
        time_weight: f64,
    ) -> Self {
        Self {
            engine: RefCell::new(CdcmCostEvaluator::with_provider(
                cdcg, tech, &params, routes,
            )),
            energy_weight,
            time_weight,
        }
    }
}

impl Clone for WeightedObjective<'_> {
    fn clone(&self) -> Self {
        Self {
            engine: RefCell::new(self.engine.borrow().clone()),
            energy_weight: self.energy_weight,
            time_weight: self.time_weight,
        }
    }
}

impl CostFunction for WeightedObjective<'_> {
    fn cost(&self, mapping: &Mapping) -> f64 {
        match self.engine.borrow_mut().evaluate(mapping) {
            Ok(cost) => self.energy_weight * cost.objective_pj + self.time_weight * cost.texec_ns,
            Err(_) => f64::INFINITY,
        }
    }

    fn name(&self) -> String {
        format!("{}*ENoC+{}*texec", self.energy_weight, self.time_weight)
    }
}

impl BatchCost for WeightedObjective<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::TileId;

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

    #[test]
    fn cwm_objective_is_390_on_both_paper_mappings() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let c = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let d = Mapping::from_tiles(&mesh, [3, 0, 1, 2].map(TileId::new)).unwrap();
        assert_eq!(obj.cost(&c), 390.0);
        assert_eq!(obj.cost(&d), 390.0);
        assert_eq!(obj.name(), "CWM");
    }

    #[test]
    fn cdcm_objective_distinguishes_the_mappings() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let obj = CdcmObjective::new(&cdcg, &mesh, &tech, SimParams::paper_example());
        let c = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let d = Mapping::from_tiles(&mesh, [3, 0, 1, 2].map(TileId::new)).unwrap();
        assert!((obj.cost(&c) - 400.0).abs() < 1e-9);
        assert!((obj.cost(&d) - 399.0).abs() < 1e-9);
    }

    #[test]
    fn exec_time_objective_matches_figures() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let obj = ExecTimeObjective::new(&cdcg, &mesh, SimParams::paper_example());
        let c = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let d = Mapping::from_tiles(&mesh, [3, 0, 1, 2].map(TileId::new)).unwrap();
        assert_eq!(obj.cost(&c), 100.0);
        assert_eq!(obj.cost(&d), 90.0);
    }

    #[test]
    fn weighted_objective_blends() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        let c = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let energy_only = WeightedObjective::new(&cdcg, &mesh, &tech, params, 1.0, 0.0);
        let time_only = WeightedObjective::new(&cdcg, &mesh, &tech, params, 0.0, 1.0);
        assert!((energy_only.cost(&c) - 400.0).abs() < 1e-9);
        assert!((time_only.cost(&c) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cdcm_fast_path_is_bit_exact_with_full_evaluation() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        let obj = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        let mut count = 0;
        crate::exhaustive::for_each_mapping(&mesh, 4, |mapping| {
            let full = noc_energy::evaluate_cdcm(&cdcg, &mesh, mapping, &tech, &params)
                .unwrap()
                .objective_pj();
            assert_eq!(obj.cost(mapping), full);
            count += 1;
        });
        assert_eq!(count, 24);
    }

    #[test]
    fn cdcm_swap_delta_is_exactly_the_cost_difference() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let obj = CdcmObjective::new(&cdcg, &mesh, &tech, SimParams::paper_example());
        let m = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        for a in 0..4 {
            for b in 0..4 {
                let (a, b) = (TileId::new(a), TileId::new(b));
                let delta = obj.swap_delta(&m, a, b);
                let mut swapped = m.clone();
                swapped.swap_tiles(a, b);
                // Bitwise, not approximate: the delta path performs the
                // exact floating-point operations of two cost() calls.
                assert_eq!(delta, obj.cost(&swapped) - obj.cost(&m), "swap {a}-{b}");
            }
        }
        // All four cores talk: the 12 swaps of distinct tiles each ran
        // one full evaluation.
        let stats = obj.delta_stats();
        assert_eq!(stats.full_path_moves, 12);
        assert_eq!(stats.route_unchanged_moves, 0);
    }

    #[test]
    fn routed_objectives_follow_the_cache_routing() {
        use noc_model::YxRouting;
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(3, 2).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        let mapping = Mapping::from_tiles(&mesh, [5, 0, 1, 4].map(TileId::new)).unwrap();

        let routes = Arc::new(RouteProvider::for_algorithm(&mesh, &YxRouting).unwrap());
        let cdcm = CdcmObjective::with_provider(&cdcg, &tech, params, Arc::clone(&routes));
        let want = noc_energy::total::evaluate_cdcm_with(
            &cdcg, &mesh, &mapping, &tech, &params, &YxRouting,
        )
        .unwrap()
        .objective_pj();
        assert_eq!(cdcm.cost(&mapping), want);

        let cwm = CwmObjective::with_provider(&cwg, &mesh, &tech, routes);
        let want_cwm =
            noc_energy::total::evaluate_cwm_with(&cwg, &mesh, &mapping, &tech, &YxRouting)
                .picojoules();
        assert_eq!(cwm.cost(&mapping), want_cwm);
        // Swap deltas stay consistent under the non-default routing.
        let (a, b) = (TileId::new(0), TileId::new(3));
        let mut swapped = mapping.clone();
        swapped.swap_tiles(a, b);
        assert_eq!(
            cdcm.swap_delta(&mapping, a, b),
            cdcm.cost(&swapped) - cdcm.cost(&mapping)
        );
        assert!(
            (cwm.swap_delta(&mapping, a, b) - (cwm.cost(&swapped) - cwm.cost(&mapping))).abs()
                < 1e-9
        );
    }

    #[test]
    fn cwm_swap_delta_matches_full_recompute() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let obj = CwmObjective::new(&cwg, &mesh, &tech);
        let m = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        for a in 0..4 {
            for b in 0..4 {
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
        }
    }
}
