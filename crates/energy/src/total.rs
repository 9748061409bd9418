//! Total NoC energy (paper Equation 10) and the two model evaluations.
//!
//! * [`evaluate_cwm`] — what the CWM strategy can see: dynamic energy only
//!   (Equation 3). The paper stresses that `ENoC(CWM) = EDyNoC(CWM)`
//!   because the model carries no timing.
//! * [`evaluate_cdcm`] — the full CDCM evaluation: run the CDCG on the
//!   mapped mesh (contention-aware schedule), then
//!   `ENoC = EStNoC + EDyNoC` (Equation 10).

use crate::dynamic::{
    cdcg_dynamic_energy_cached, cdcg_dynamic_energy_with, cwg_dynamic_energy_with,
};
use crate::statics::noc_static_energy;
use crate::technology::Technology;
use crate::units::Energy;
use noc_model::{
    Cdcg, Cwg, Mapping, Mesh, RouteCache, RouteProvider, RouteSource, RoutingAlgorithm,
    RoutingKind, XyRouting,
};
use noc_sim::{
    schedule_with, BatchEvaluator, CostEvaluator, DeltaStats, Schedule, SimError, SimParams,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Static + dynamic energy split of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// `EDyNoC`: switching energy of all packet traffic.
    pub dynamic: Energy,
    /// `EStNoC`: leakage energy over the execution time.
    pub static_energy: Energy,
}

impl EnergyBreakdown {
    /// `ENoC = EStNoC + EDyNoC` (Equation 10).
    pub fn total(&self) -> Energy {
        self.dynamic + self.static_energy
    }

    /// Static share of the total, in `[0, 1]`.
    pub fn static_share(&self) -> f64 {
        let total = self.total().picojoules();
        if total == 0.0 {
            0.0
        } else {
            self.static_energy.picojoules() / total
        }
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (dynamic {} + static {})",
            self.total(),
            self.dynamic,
            self.static_energy
        )
    }
}

/// Result of a full CDCM evaluation of one mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CdcmEvaluation {
    /// Energy split; `breakdown.total()` is the Equation 10 objective.
    pub breakdown: EnergyBreakdown,
    /// Execution time in cycles.
    pub texec_cycles: u64,
    /// Execution time in nanoseconds.
    pub texec_ns: f64,
    /// The underlying contention-aware schedule.
    pub schedule: Schedule,
}

impl CdcmEvaluation {
    /// The CDCM objective value `ENoC` in picojoules.
    pub fn objective_pj(&self) -> f64 {
        self.breakdown.total().picojoules()
    }
}

/// Evaluates a mapping the CWM way (Equation 3, XY routing): dynamic
/// energy only.
pub fn evaluate_cwm(cwg: &Cwg, mesh: &Mesh, mapping: &Mapping, tech: &Technology) -> Energy {
    evaluate_cwm_with(cwg, mesh, mapping, tech, &XyRouting)
}

/// [`evaluate_cwm`] with an explicit routing algorithm.
pub fn evaluate_cwm_with(
    cwg: &Cwg,
    mesh: &Mesh,
    mapping: &Mapping,
    tech: &Technology,
    routing: &dyn RoutingAlgorithm,
) -> Energy {
    cwg_dynamic_energy_with(cwg, mesh, mapping, tech, routing)
}

/// Evaluates a mapping the CDCM way (Equation 10, XY routing): schedules
/// the CDCG with contention and sums static and dynamic energy.
///
/// # Errors
///
/// Propagates scheduling errors (core/mapping mismatch, invalid model).
pub fn evaluate_cdcm(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    tech: &Technology,
    params: &SimParams,
) -> Result<CdcmEvaluation, SimError> {
    evaluate_cdcm_with(cdcg, mesh, mapping, tech, params, &XyRouting)
}

/// [`evaluate_cdcm`] with an explicit routing algorithm.
///
/// # Errors
///
/// Propagates scheduling errors (core/mapping mismatch, invalid model).
pub fn evaluate_cdcm_with(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    tech: &Technology,
    params: &SimParams,
    routing: &dyn RoutingAlgorithm,
) -> Result<CdcmEvaluation, SimError> {
    let schedule = schedule_with(cdcg, mesh, mapping, params, routing)?;
    let dynamic = cdcg_dynamic_energy_with(cdcg, mesh, mapping, tech, routing);
    let texec_ns = schedule.texec_ns();
    let static_energy = noc_static_energy(mesh, tech, texec_ns);
    Ok(CdcmEvaluation {
        breakdown: EnergyBreakdown {
            dynamic,
            static_energy,
        },
        texec_cycles: schedule.texec_cycles(),
        texec_ns,
        schedule,
    })
}

/// Cost-only result of a CDCM evaluation: the Equation 10 scalar plus the
/// execution time, without the schedule artifacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdcmCost {
    /// The CDCM objective `ENoC` in picojoules (Equation 10).
    pub objective_pj: f64,
    /// `EDyNoC` share in picojoules.
    pub dynamic_pj: f64,
    /// `EStNoC` share in picojoules.
    pub static_pj: f64,
    /// Execution time in cycles.
    pub texec_cycles: u64,
    /// Execution time in nanoseconds.
    pub texec_ns: f64,
}

/// Allocation-free CDCM cost engine: the fast-path twin of
/// [`evaluate_cdcm`].
///
/// Wraps `noc-sim`'s [`CostEvaluator`] (cost-only contention-aware
/// schedule over a shared [`RouteProvider`] — dense, implicit or
/// fault-aware, so arbitrarily large meshes work) and adds the Equation 10
/// energy terms, computed from cached hop counts instead of re-derived
/// routes. For every input, [`CdcmCostEvaluator::evaluate`] returns
/// exactly the `objective_pj()`, `texec_cycles` and `texec_ns` of
/// [`evaluate_cdcm`] — bit-exact, it only skips building the artifacts.
/// [`CdcmCostEvaluator::evaluate_swap`] returns the same values for a
/// tile swap of the mapping.
///
/// Cloning shares the route cache but gives the clone private scratch
/// state, so clones evaluate concurrently on different threads.
#[derive(Debug, Clone)]
pub struct CdcmCostEvaluator<'a> {
    engine: CostEvaluator<'a>,
    tech: &'a Technology,
    /// Per core: whether it sends or receives any packet. Moving only
    /// silent cores changes no route and no schedule.
    talks: Vec<bool>,
    /// Most recent [`Self::evaluate`] answer, so repeated queries for an
    /// unchanged mapping skip the schedule and the energy fold.
    last: Option<(Mapping, CdcmCost)>,
    /// Most recent [`Self::evaluate_swap`] answer and its swapped
    /// mapping: when the caller accepts the move, the next
    /// [`Self::evaluate`] of that mapping is a cache hit, not a rerun.
    pending: Option<(Mapping, CdcmCost)>,
    /// Lazily built batch engine ([`Self::evaluate_batch`]); shares the
    /// route provider with `engine` but owns its own scratch and memo.
    batch: Option<BatchEvaluator<'a>>,
    /// Reusable `texec` buffer for batch evaluations.
    batch_texecs: Vec<u64>,
    /// Walk-memo policy ([`Self::set_walk_memo`]); applied to the batch
    /// engine when it is lazily built.
    walk_memo: bool,
    stats: DeltaStats,
}

impl<'a> CdcmCostEvaluator<'a> {
    /// Builds the engine for `mesh` under XY routing, with an
    /// automatically sized route provider (dense for small meshes,
    /// implicit beyond).
    pub fn new(cdcg: &'a Cdcg, mesh: &Mesh, tech: &'a Technology, params: &SimParams) -> Self {
        Self::with_provider(
            cdcg,
            tech,
            params,
            Arc::new(RouteProvider::auto(mesh, RoutingKind::Xy)),
        )
    }

    /// Builds the engine over an existing shared dense route cache (any
    /// routing algorithm; results then match [`evaluate_cdcm_with`] for
    /// it).
    pub fn with_cache(
        cdcg: &'a Cdcg,
        tech: &'a Technology,
        params: &SimParams,
        cache: Arc<RouteCache>,
    ) -> Self {
        Self::with_provider(
            cdcg,
            tech,
            params,
            Arc::new(RouteProvider::from_cache(cache)),
        )
    }

    /// Builds the engine over an existing shared route provider (any
    /// tier; results are bit-identical across tiers).
    pub fn with_provider(
        cdcg: &'a Cdcg,
        tech: &'a Technology,
        params: &SimParams,
        routes: Arc<RouteProvider>,
    ) -> Self {
        let mut talks = vec![false; cdcg.core_count()];
        for id in cdcg.packet_ids() {
            let p = cdcg.packet(id);
            talks[p.src.index()] = true;
            talks[p.dst.index()] = true;
        }
        Self {
            engine: CostEvaluator::with_provider(cdcg, params, routes),
            tech,
            talks,
            last: None,
            pending: None,
            batch: None,
            batch_texecs: Vec::new(),
            walk_memo: true,
            stats: DeltaStats::default(),
        }
    }

    /// Enables or disables walk memoization in both inner engines (the
    /// cost evaluator and the batch evaluator). A no-op under a dense
    /// provider; costs are bit-identical either way — this is a
    /// performance knob and the lever the memo-equivalence property
    /// tests flip.
    pub fn set_walk_memo(&mut self, enabled: bool) {
        self.walk_memo = enabled;
        self.engine.set_walk_memo(enabled);
        if let Some(batch) = self.batch.as_mut() {
            batch.set_walk_memo(enabled);
        }
    }

    /// The shared route provider.
    pub fn provider(&self) -> &Arc<RouteProvider> {
        self.engine.provider()
    }

    /// How the swap queries so far were answered.
    pub fn delta_stats(&self) -> DeltaStats {
        self.stats
    }

    fn cost_at(&self, texec_cycles: u64, mapping: &Mapping) -> CdcmCost {
        let texec_ns = self.engine.params().cycles_to_ns(texec_cycles);
        let routes = self.engine.provider().as_ref();
        let dynamic = cdcg_dynamic_energy_cached(self.engine.cdcg(), routes, mapping, self.tech);
        let static_energy = noc_static_energy(routes.mesh(), self.tech, texec_ns);
        CdcmCost {
            // Mirror `EnergyBreakdown::total().picojoules()` exactly.
            objective_pj: (dynamic + static_energy).picojoules(),
            dynamic_pj: dynamic.picojoules(),
            static_pj: static_energy.picojoules(),
            texec_cycles,
            texec_ns,
        }
    }

    /// Evaluates a mapping: Equation 10 without the schedule artifacts.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate_cdcm`] (core-count mismatch, invalid mapping).
    pub fn evaluate(&mut self, mapping: &Mapping) -> Result<CdcmCost, SimError> {
        if let Some((m, cost)) = &self.last {
            if m == mapping {
                return Ok(*cost);
            }
        }
        if let Some((m, cost)) = &self.pending {
            if m == mapping {
                let cost = *cost;
                std::mem::swap(&mut self.last, &mut self.pending);
                return Ok(cost);
            }
        }
        let texec_cycles = self.engine.texec_cycles(mapping)?;
        let cost = self.cost_at(texec_cycles, mapping);
        self.last = Some((copy_of(mapping, self.last.take()), cost));
        Ok(cost)
    }

    /// Evaluates every mapping in `batch` through the data-oriented
    /// batch engine ([`noc_sim::BatchEvaluator`]), appending one
    /// [`CdcmCost`] per mapping to `out` in batch order. Each cost is
    /// bit-identical to what [`Self::evaluate`] returns for that mapping
    /// (identical event loop, identical floating-point energy terms);
    /// the batch shares one workload pass and deduplicates route
    /// resolution across sibling candidates. The single-mapping caches
    /// are untouched, so interleaving batch and swap queries is safe.
    ///
    /// # Errors
    ///
    /// Same as [`Self::evaluate`], checked per candidate before any
    /// evaluation runs; a failing candidate aborts the whole batch and
    /// `out` is left unchanged.
    pub fn evaluate_batch(
        &mut self,
        batch: &[Mapping],
        out: &mut Vec<CdcmCost>,
    ) -> Result<(), SimError> {
        if self.batch.is_none() {
            let mut evaluator = BatchEvaluator::with_provider(
                self.engine.cdcg(),
                self.engine.params(),
                Arc::clone(self.engine.provider()),
            );
            evaluator.set_walk_memo(self.walk_memo);
            self.batch = Some(evaluator);
        }
        let mut texecs = std::mem::take(&mut self.batch_texecs);
        let evaluator = self.batch.as_mut().expect("just built");
        let result = evaluator.evaluate_into(batch, &mut texecs);
        if result.is_ok() {
            out.reserve(batch.len());
            for (mapping, &texec) in batch.iter().zip(&texecs) {
                let cost = self.cost_at(texec, mapping);
                out.push(cost);
            }
        }
        self.batch_texecs = texecs;
        result
    }

    /// Telemetry of the batch engine: `(batch stats, memo stats)`, or
    /// `None` before the first [`Self::evaluate_batch`] call. Memo stats
    /// are `None` under a dense provider (no dedup needed).
    pub fn batch_stats(&self) -> Option<(noc_sim::BatchStats, Option<noc_model::WalkMemoStats>)> {
        self.batch
            .as_ref()
            .map(|b| (b.stats(), b.walk_memo_stats()))
    }

    /// Evaluates `mapping` with tiles `a` and `b` swapped. Returns
    /// exactly what [`Self::evaluate`] would on the swapped mapping
    /// (identical floating-point operations, so deltas computed from the
    /// two are exact).
    ///
    /// A swap that moves no core which sends or receives packets leaves
    /// every route, hop count and schedule event unchanged, so it is
    /// answered from the cost of `mapping` itself (`O(1)` once `mapping`
    /// is cached). Every other swap runs one full cost-only evaluation
    /// of the swapped mapping.
    ///
    /// # Errors
    ///
    /// Same as [`Self::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` lies outside the mesh.
    pub fn evaluate_swap(
        &mut self,
        mapping: &Mapping,
        a: noc_model::TileId,
        b: noc_model::TileId,
    ) -> Result<CdcmCost, SimError> {
        if a == b {
            return self.evaluate(mapping);
        }
        // `get`: a core the application does not know means the mapping
        // does not fit it, which either path reports as an error.
        let talks = [a, b]
            .into_iter()
            .filter_map(|tile| mapping.core_on(tile))
            .any(|core| self.talks.get(core.index()) == Some(&true));
        // Moving only silent cores (or none) leaves every route, hop
        // count and schedule event as they are in `mapping`.
        let unchanged = if talks {
            None
        } else {
            Some(self.evaluate(mapping)?)
        };
        let mut swapped = copy_of(mapping, self.pending.take());
        swapped.swap_tiles(a, b);
        let cost = match unchanged {
            Some(cost) => {
                self.stats.route_unchanged_moves += 1;
                cost
            }
            None => {
                let texec_cycles = self.engine.texec_cycles(&swapped)?;
                self.stats.full_path_moves += 1;
                self.cost_at(texec_cycles, &swapped)
            }
        };
        self.pending = Some((swapped, cost));
        Ok(cost)
    }
}

/// A copy of `mapping` that reuses the allocation of a cache slot.
fn copy_of(mapping: &Mapping, slot: Option<(Mapping, CdcmCost)>) -> Mapping {
    match slot {
        Some((mut m, _)) => {
            m.clone_from(mapping);
            m
        }
        None => mapping.clone(),
    }
}

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

    /// The headline golden test: Figure 3's ENoC values, 400 pJ vs 399 pJ.
    #[test]
    fn figure3_total_energy_400_vs_399() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();

        let map_c = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let eval_c = evaluate_cdcm(&cdcg, &mesh, &map_c, &tech, &params).unwrap();
        assert_eq!(eval_c.texec_ns, 100.0);
        assert!((eval_c.breakdown.dynamic.picojoules() - 390.0).abs() < 1e-9);
        assert!((eval_c.breakdown.static_energy.picojoules() - 10.0).abs() < 1e-9);
        assert!((eval_c.objective_pj() - 400.0).abs() < 1e-9);

        let map_d = Mapping::from_tiles(&mesh, [3, 0, 1, 2].map(TileId::new)).unwrap();
        let eval_d = evaluate_cdcm(&cdcg, &mesh, &map_d, &tech, &params).unwrap();
        assert_eq!(eval_d.texec_ns, 90.0);
        assert!((eval_d.objective_pj() - 399.0).abs() < 1e-9);

        // "Mapping (a) consumes ~1% more energy than (b)."
        let ratio = eval_c.objective_pj() / eval_d.objective_pj();
        assert!(ratio > 1.002 && ratio < 1.01);
    }

    /// Figure 2: CWM sees both mappings as identical (390 pJ), which is
    /// the paper's core criticism of the model.
    #[test]
    fn cwm_cannot_distinguish_the_mappings() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let map_c = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let map_d = Mapping::from_tiles(&mesh, [3, 0, 1, 2].map(TileId::new)).unwrap();
        let e_c = evaluate_cwm(&cwg, &mesh, &map_c, &tech);
        let e_d = evaluate_cwm(&cwg, &mesh, &map_d, &tech);
        assert_eq!(e_c.picojoules(), 390.0);
        assert_eq!(e_d.picojoules(), 390.0);
    }

    #[test]
    fn breakdown_total_and_share() {
        let b = EnergyBreakdown {
            dynamic: Energy::from_picojoules(390.0),
            static_energy: Energy::from_picojoules(10.0),
        };
        assert_eq!(b.total().picojoules(), 400.0);
        assert!((b.static_share() - 0.025).abs() < 1e-12);
        assert_eq!(EnergyBreakdown::default().static_share(), 0.0);
    }

    #[test]
    fn static_share_grows_with_deep_submicron() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let mapping = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let old = evaluate_cdcm(&cdcg, &mesh, &mapping, &Technology::t035(), &params).unwrap();
        let new = evaluate_cdcm(&cdcg, &mesh, &mapping, &Technology::t007(), &params).unwrap();
        assert!(
            new.breakdown.static_share() > 10.0 * old.breakdown.static_share(),
            "0.07um share {} should dwarf 0.35um share {}",
            new.breakdown.static_share(),
            old.breakdown.static_share()
        );
    }

    #[test]
    fn cost_evaluator_is_bit_exact_with_full_evaluation() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        for tech in [
            Technology::paper_example(),
            Technology::t035(),
            Technology::t007(),
        ] {
            let mut fast = CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params);
            for tiles in [[1, 0, 3, 2], [3, 0, 1, 2], [0, 1, 2, 3], [2, 3, 0, 1]] {
                let mapping = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
                let full = evaluate_cdcm(&cdcg, &mesh, &mapping, &tech, &params).unwrap();
                let cost = fast.evaluate(&mapping).unwrap();
                // Bit-exact, not approximately equal.
                assert_eq!(cost.objective_pj, full.objective_pj(), "tiles {tiles:?}");
                assert_eq!(cost.texec_cycles, full.texec_cycles);
                assert_eq!(cost.texec_ns, full.texec_ns);
                assert_eq!(cost.dynamic_pj, full.breakdown.dynamic.picojoules());
                assert_eq!(cost.static_pj, full.breakdown.static_energy.picojoules());
            }
        }
    }

    #[test]
    fn evaluate_swap_is_bit_exact_with_full_evaluation_of_the_swapped_mapping() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        let mut fast = CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params);
        let base = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        for a in 0..4 {
            for b in 0..4 {
                let (a, b) = (TileId::new(a), TileId::new(b));
                let got = fast.evaluate_swap(&base, a, b).unwrap();
                let mut swapped = base.clone();
                swapped.swap_tiles(a, b);
                let full = evaluate_cdcm(&cdcg, &mesh, &swapped, &tech, &params).unwrap();
                assert_eq!(got.objective_pj, full.objective_pj(), "swap {a}-{b}");
                assert_eq!(got.texec_cycles, full.texec_cycles);
                assert_eq!(got.texec_ns, full.texec_ns);
                assert_eq!(got.dynamic_pj, full.breakdown.dynamic.picojoules());
            }
        }
        // Every core of the paper example talks: the 12 swaps of two
        // distinct tiles each run one full evaluation.
        let stats = fast.delta_stats();
        assert_eq!(stats.full_path_moves, 12);
        assert_eq!(stats.route_unchanged_moves, 0);
    }

    /// A fresh evaluator's answer for `mapping`: the reference every
    /// swap answer must equal bit for bit.
    fn fresh_cost(cdcg: &Cdcg, mesh: &Mesh, mapping: &Mapping) -> CdcmCost {
        let tech = Technology::paper_example();
        CdcmCostEvaluator::new(cdcg, mesh, &tech, &SimParams::paper_example())
            .evaluate(mapping)
            .unwrap()
    }

    #[test]
    fn swap_matches_full_on_every_pair_of_the_paper_example() {
        let cdcg = figure1_cdcg();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        // The paper's 2x2 mesh, and a 3x3 one whose five empty tiles
        // exercise the route-unchanged shortcut.
        for (mesh, tiles) in [
            (Mesh::new(2, 2).unwrap(), [1, 0, 3, 2]),
            (Mesh::new(3, 3).unwrap(), [4, 0, 8, 2]),
        ] {
            let mut fast = CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params);
            let base = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
            for a in mesh.tiles() {
                for b in mesh.tiles() {
                    fast.evaluate(&base).unwrap();
                    let got = fast.evaluate_swap(&base, a, b).unwrap();
                    let mut swapped = base.clone();
                    swapped.swap_tiles(a, b);
                    assert_eq!(got, fresh_cost(&cdcg, &mesh, &swapped), "swap {a}-{b}");
                }
            }
            let stats = fast.delta_stats();
            assert!(stats.full_path_moves > 0, "{stats:?}");
            assert_eq!(stats.route_unchanged_moves > 0, mesh.tile_count() > 4);
        }
    }

    #[test]
    fn accepted_swaps_promote_instead_of_rebaselining() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        let mut fast = CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params);
        let mut current = Mapping::from_tiles(&mesh, [0, 1, 3, 4].map(TileId::new)).unwrap();
        fast.evaluate(&current).unwrap();
        // Accept a chain of swaps: each swap runs one schedule, and the
        // evaluation of the accepted mapping that follows runs none.
        for (i, (a, b)) in [(0, 4), (1, 8), (3, 2), (4, 6), (0, 1)]
            .into_iter()
            .enumerate()
        {
            let (a, b) = (TileId::new(a), TileId::new(b));
            let before = fast.engine.run_stats().runs;
            let got = fast.evaluate_swap(&current, a, b).unwrap();
            assert_eq!(fast.engine.run_stats().runs, before + 1, "swap #{i}");
            current.swap_tiles(a, b);
            assert_eq!(fast.evaluate(&current).unwrap(), got, "accepted swap #{i}");
            assert_eq!(
                fast.engine.run_stats().runs,
                before + 1,
                "accepted swap #{i}"
            );
            assert_eq!(
                got,
                fresh_cost(&cdcg, &mesh, &current),
                "accepted swap #{i}"
            );
        }
        // Tiles 5 and 7 are empty: the swap runs no schedule at all.
        let before = fast.engine.run_stats().runs;
        let cost = fast.evaluate(&current).unwrap();
        let got = fast
            .evaluate_swap(&current, TileId::new(5), TileId::new(7))
            .unwrap();
        assert_eq!(got, cost);
        assert_eq!(fast.engine.run_stats().runs, before);
        assert_eq!(fast.delta_stats().route_unchanged_moves, 1);
    }

    #[test]
    fn empty_tile_swaps_with_no_traffic_are_constant_time() {
        // The paper example plus a core that neither sends nor receives.
        let mut cdcg = figure1_cdcg();
        cdcg.add_core("G");
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        let mut fast = CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params);
        let base = Mapping::from_tiles(&mesh, [0, 1, 2, 3, 4].map(TileId::new)).unwrap();
        let cost = fast.evaluate(&base).unwrap();
        let runs = fast.engine.run_stats().runs;
        // Two empty tiles, then the silent core onto an empty tile; the
        // second move is accepted.
        for (a, b) in [(5, 7), (4, 8)] {
            let (a, b) = (TileId::new(a), TileId::new(b));
            assert_eq!(fast.evaluate_swap(&base, a, b).unwrap(), cost);
        }
        let mut moved = base.clone();
        moved.swap_tiles(TileId::new(4), TileId::new(8));
        assert_eq!(fast.evaluate(&moved).unwrap(), cost);
        assert_eq!(cost, fresh_cost(&cdcg, &mesh, &moved));
        assert_eq!(fast.engine.run_stats().runs, runs);
        let stats = fast.delta_stats();
        assert_eq!(stats.route_unchanged_moves, 2);
        assert_eq!(stats.full_path_moves, 0);
    }

    #[test]
    fn evaluate_caches_the_last_mapping() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        let mut fast = CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params);
        let m = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        assert_eq!(fast.evaluate(&m).unwrap().texec_cycles, 100);
        assert_eq!(fast.evaluate(&m).unwrap().texec_cycles, 100);
        assert_eq!(fast.engine.run_stats().runs, 1);
    }

    #[test]
    fn rejects_mismatched_mappings_like_schedule_cost() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(3, 3).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        let mut fast = CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params);
        // Too few cores, and a fifth core the application does not know:
        // typed errors from both entry points, no panic.
        for cores in [3, 5] {
            let bad = Mapping::identity(&mesh, cores).unwrap();
            assert!(matches!(
                fast.evaluate(&bad),
                Err(SimError::CoreCountMismatch { .. })
            ));
            assert!(matches!(
                fast.evaluate_swap(&bad, TileId::new(4), TileId::new(5)),
                Err(SimError::CoreCountMismatch { .. })
            ));
        }
        // The evaluator stays usable after an error.
        let m = Mapping::from_tiles(&mesh, [3, 0, 1, 4].map(TileId::new)).unwrap();
        assert_eq!(fast.evaluate(&m).unwrap(), fresh_cost(&cdcg, &mesh, &m));
    }

    #[test]
    fn yx_cache_matches_explicit_yx_evaluation() {
        use noc_model::YxRouting;
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        let cache = Arc::new(RouteCache::with_routing(&mesh, &YxRouting).unwrap());
        let mut fast = CdcmCostEvaluator::with_cache(&cdcg, &tech, &params, cache);
        for tiles in [[1, 0, 3, 2], [3, 0, 1, 2], [0, 1, 2, 3]] {
            let mapping = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
            let full =
                evaluate_cdcm_with(&cdcg, &mesh, &mapping, &tech, &params, &YxRouting).unwrap();
            let cost = fast.evaluate(&mapping).unwrap();
            assert_eq!(cost.objective_pj, full.objective_pj(), "tiles {tiles:?}");
            assert_eq!(cost.texec_cycles, full.texec_cycles);
        }
    }

    #[test]
    fn cost_evaluator_propagates_errors_like_the_full_path() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        let params = SimParams::paper_example();
        let bad = Mapping::identity(&mesh, 3).unwrap();
        let mut fast = CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params);
        assert_eq!(
            fast.evaluate(&bad).unwrap_err(),
            evaluate_cdcm(&cdcg, &mesh, &bad, &tech, &params).unwrap_err()
        );
    }

    #[test]
    fn display_formats_breakdown() {
        let b = EnergyBreakdown {
            dynamic: Energy::from_picojoules(1.0),
            static_energy: Energy::from_picojoules(2.0),
        };
        let s = b.to_string();
        assert!(s.contains("dynamic"));
        assert!(s.contains("static"));
    }
}
