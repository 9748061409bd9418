//! Data-oriented batch evaluation of candidate mappings.
//!
//! Search loops rarely need one cost — a GA generation, a tabu
//! neighborhood sample or an adaptive-round cohort asks for dozens of
//! sibling mappings at once, all over the *same* workload. The
//! per-candidate path ([`crate::schedule_cost_with`]) re-derives the
//! mapping-independent half of `init_run` every call: flit counts,
//! dependence fan-in, start-event seeds. [`BatchEvaluator`] hoists that
//! half into struct-of-arrays buffers filled in **one pass over the
//! workload per batch**, then runs the event loop per candidate out of
//! the shared buffers with a pooled [`ScheduleScratch`] arena.
//!
//! The mapping-*dependent* half — route resolution — goes through the
//! evaluator's private, lock-free [`WalkMemo`]: sibling candidates in a
//! batch typically differ by one swap, so almost every `(src, dst)`
//! pair repeats across the batch and resolves to a single table probe.
//! The memo's arena doubles as the engine's flat link array (the
//! zero-copy path), and its eviction checkpoint runs only at batch
//! boundaries, so spans stay valid across all candidates of a batch.
//! Like the single-mapping [`crate::CostEvaluator`], the batch engine
//! defaults the memo on for **every** buffering tier
//! ([`RouteProvider::memo_compatible`]): sibling cohorts repeat ~90%+ of
//! their pairs by construction, so one table probe beats even a
//! lock-free arithmetic walk (measured in `batch_smoke`). Under a dense
//! provider the memo is unnecessary (spans index the cache's shared
//! flat array) and is bypassed.
//!
//! Results are **bit-identical to sequential evaluation by
//! construction**: per candidate, the primed scratch holds exactly the
//! state `init_run` would have produced, and the event loop is the
//! same `run_loop`. The property tests in `tests/batch_eval.rs` pin
//! this across provider tiers, mesh shapes and fault scenarios.

use crate::cost::{pack, run_loop, ScheduleScratch, INJECT, PACKET_LIMIT};
use crate::error::SimError;
use crate::params::SimParams;
use noc_model::{Cdcg, Mapping, Mesh, RouteProvider, RouteSource, RoutingKind, WalkMemo};
use std::sync::Arc;

/// Log₂ buckets of the batch-size histogram in [`BatchStats`]: bucket
/// `i` counts batches of `2^(i-1) < len <= 2^i` candidates (bucket 0:
/// single-candidate batches). Sixteen buckets cover batches up to
/// 32 768 candidates — beyond any population or neighborhood this
/// workspace runs; larger batches clamp into the last bucket.
pub const BATCH_SIZE_BUCKETS: usize = 16;

/// Cumulative telemetry of a [`BatchEvaluator`] (monotone across
/// batches). Route-dedup counters live in the walk memo
/// ([`BatchEvaluator::walk_memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches evaluated (calls to [`BatchEvaluator::evaluate`]).
    pub batches: u64,
    /// Candidate mappings evaluated across all batches.
    pub candidates: u64,
    /// Largest batch seen.
    pub max_batch: u64,
    /// Batch-size histogram in log₂ buckets (see
    /// [`BATCH_SIZE_BUCKETS`]); mirrors the registry histogram's
    /// power-of-two bounds so publishing replays counts exactly.
    pub size_log2: [u64; BATCH_SIZE_BUCKETS],
}

impl BatchStats {
    /// Mean candidates per batch (`0.0` when idle).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.candidates as f64 / self.batches as f64
        }
    }
}

/// A reusable batch cost engine: one application, a shared route
/// provider, pooled scratch, SoA workload buffers and a private walk
/// memo. See the module docs.
///
/// Cloning shares the (immutable) provider but duplicates all private
/// state, so clones batch-evaluate concurrently on different threads —
/// the service worker pool's shape.
#[derive(Debug, Clone)]
pub struct BatchEvaluator<'a> {
    cdcg: &'a Cdcg,
    params: SimParams,
    routes: Arc<RouteProvider>,
    scratch: ScheduleScratch,
    /// Pair→span dedup table, on by default for every buffering tier
    /// (sibling cohorts repeat pairs heavily; see the module docs),
    /// never under dense.
    memo: Option<WalkMemo>,
    /// SoA per-packet buffers, filled once per batch: flit counts,
    /// dependence fan-in, packed start events.
    flits: Vec<u64>,
    pending: Vec<u32>,
    seeds: Vec<u128>,
    /// Per-candidate span buffer (reused; indexes the memo arena when
    /// the memo is on, `walks` otherwise).
    cand_spans: Vec<(u32, u32)>,
    /// Memo-less walk buffer, cleared per candidate: buffering tiers
    /// append each resolved walk here; the dense tier never appends
    /// (its spans index the cache's own flat array, which `flat`
    /// returns while ignoring this buffer).
    walks: Vec<u32>,
    stats: BatchStats,
}

impl<'a> BatchEvaluator<'a> {
    /// Builds a batch evaluator for `cdcg` on `mesh` under XY routing
    /// with an automatically sized route provider.
    pub fn new(cdcg: &'a Cdcg, mesh: &Mesh, params: &SimParams) -> Self {
        Self::with_provider(
            cdcg,
            params,
            Arc::new(RouteProvider::auto(mesh, RoutingKind::Xy)),
        )
    }

    /// Builds a batch evaluator sharing an existing route provider (any
    /// tier; results are bit-identical across tiers).
    pub fn with_provider(cdcg: &'a Cdcg, params: &SimParams, routes: Arc<RouteProvider>) -> Self {
        let memo = routes.memo_compatible().then(WalkMemo::new);
        Self {
            cdcg,
            params: *params,
            routes,
            scratch: ScheduleScratch::new(),
            memo,
            flits: Vec::new(),
            pending: Vec::new(),
            seeds: Vec::new(),
            cand_spans: Vec::new(),
            walks: Vec::new(),
            stats: BatchStats::default(),
        }
    }

    /// The application being evaluated.
    pub fn cdcg(&self) -> &'a Cdcg {
        self.cdcg
    }

    /// The shared route provider.
    pub fn provider(&self) -> &Arc<RouteProvider> {
        &self.routes
    }

    /// The simulation parameter set evaluations run under.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Cumulative batch telemetry.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Enables or disables the route-dedup walk memo. Enabling is a
    /// no-op under a dense provider (its spans index a shared flat
    /// array the memo cannot replay —
    /// [`RouteProvider::memo_compatible`]); disabling drops the table.
    /// Evaluation results are bit-identical either way.
    pub fn set_walk_memo(&mut self, enabled: bool) {
        self.memo = (enabled && self.routes.memo_compatible())
            .then(|| self.memo.take().unwrap_or_default());
    }

    /// Whether the walk memo is currently active.
    pub fn walk_memo_enabled(&self) -> bool {
        self.memo.is_some()
    }

    /// Cumulative hit/miss/eviction counters of the dedup memo (`None`
    /// under a dense provider, which needs no dedup). The hit ratio is
    /// the batch route-dedup ratio observability reports.
    pub fn walk_memo_stats(&self) -> Option<noc_model::WalkMemoStats> {
        self.memo.as_ref().map(|m| m.stats())
    }

    /// Engine run telemetry of the pooled scratch (runs == candidates
    /// evaluated; events processed across them).
    pub fn run_stats(&self) -> crate::RunStats {
        self.scratch.run_stats()
    }

    /// `texec` (cycles) of every mapping in `batch`, in order —
    /// bit-identical to calling
    /// [`schedule_cost_with`](crate::schedule_cost_with) once per
    /// mapping with a fresh scratch. Accepts anything that borrows a
    /// [`Mapping`] (`&[Mapping]`, `&[&Mapping]`, …).
    ///
    /// # Errors
    ///
    /// Same as [`schedule_cost`](crate::schedule_cost()), checked per
    /// candidate; the first failing candidate aborts the batch.
    pub fn evaluate<M: std::borrow::Borrow<Mapping>>(
        &mut self,
        batch: &[M],
    ) -> Result<Vec<u64>, SimError> {
        let mut out = Vec::with_capacity(batch.len());
        self.evaluate_into(batch, &mut out)?;
        Ok(out)
    }

    /// [`Self::evaluate`] into a caller-owned buffer (cleared first) —
    /// the allocation-free inner-loop form.
    ///
    /// # Errors
    ///
    /// Same as [`Self::evaluate`].
    pub fn evaluate_into<M: std::borrow::Borrow<Mapping>>(
        &mut self,
        batch: &[M],
        out: &mut Vec<u64>,
    ) -> Result<(), SimError> {
        out.clear();
        if batch.is_empty() {
            return Ok(());
        }
        let n_packets = self.cdcg.packet_count();
        assert!(
            n_packets < PACKET_LIMIT,
            "cost evaluation supports up to 2^30 packets"
        );
        let mesh = self.routes.mesh();

        // Validate every candidate up front: a mid-batch error must not
        // leave half the results computed.
        for mapping in batch {
            let mapping = mapping.borrow();
            if mapping.core_count() != self.cdcg.core_count() {
                return Err(SimError::CoreCountMismatch {
                    mapping: mapping.core_count(),
                    application: self.cdcg.core_count(),
                });
            }
            mapping.validate()?;
            for (_, tile) in mapping.assignments() {
                if !mesh.contains(tile) {
                    return Err(SimError::Model(noc_model::ModelError::UnknownTile(tile)));
                }
            }
        }

        // One pass over the workload: the mapping-independent SoA half.
        self.flits.clear();
        self.pending.clear();
        self.seeds.clear();
        for id in self.cdcg.packet_ids() {
            let p = self.cdcg.packet(id);
            self.flits.push(self.params.flits(p.bits).max(1));
            self.pending.push(self.cdcg.predecessors(id).len() as u32);
        }
        for id in self.cdcg.start_packets() {
            self.seeds.push(pack(
                self.cdcg.packet(id).comp_cycles,
                id.index(),
                INJECT,
                0,
            ));
        }

        // Batch-boundary eviction checkpoint: spans handed out below
        // stay valid for every candidate of this batch.
        if let Some(m) = self.memo.as_mut() {
            m.begin_eval();
        }

        let n_links = self.routes.dense_link_count();
        for mapping in batch {
            let mapping = mapping.borrow();
            self.cand_spans.clear();
            self.walks.clear();
            // Route resolution — the mapping-dependent half. Sibling
            // candidates repeat almost every pair; the memo turns the
            // repeats into single probes.
            for id in self.cdcg.packet_ids() {
                let p = self.cdcg.packet(id);
                let (src, dst) = (mapping.tile_of(p.src), mapping.tile_of(p.dst));
                self.routes.validate_pair(src, dst)?;
                let span = match self.memo.as_mut() {
                    Some(m) => m.resolve(self.routes.as_ref(), src, dst),
                    None => self.routes.walk_span(src, dst, &mut self.walks),
                };
                self.cand_spans.push(span);
            }
            self.scratch.prime_run(
                n_links,
                n_packets,
                &self.flits,
                &self.pending,
                &self.cand_spans,
                &self.seeds,
            );
            let flat = match self.memo.as_ref() {
                Some(m) => m.arena(),
                None => self.routes.flat(&self.walks),
            };
            let (texec, delivered, events) =
                run_loop(self.cdcg, &self.params, flat, &mut self.scratch);
            debug_assert_eq!(
                delivered, n_packets,
                "DAG execution must deliver all packets"
            );
            self.scratch.note_run(events);
            out.push(texec);
        }
        self.stats.batches += 1;
        self.stats.candidates += batch.len() as u64;
        self.stats.max_batch = self.stats.max_batch.max(batch.len() as u64);
        let bucket = if batch.len() <= 1 {
            0
        } else {
            (usize::BITS - (batch.len() - 1).leading_zeros()) as usize
        };
        // noc-verify: allow(PANIC01) — the index is clamped to the final bucket and the array is BATCH_SIZE_BUCKETS long
        self.stats.size_log2[bucket.min(BATCH_SIZE_BUCKETS - 1)] += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::schedule_cost_with;
    use noc_model::TileId;

    fn small_cdcg() -> Cdcg {
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        let c = g.add_core("C");
        let d = g.add_core("D");
        let p1 = g.add_packet(a, b, 6, 64).unwrap();
        let p2 = g.add_packet(b, c, 8, 32).unwrap();
        let p3 = g.add_packet(c, d, 4, 128).unwrap();
        let p4 = g.add_packet(a, d, 6, 16).unwrap();
        g.add_dependence(p1, p2).unwrap();
        g.add_dependence(p2, p3).unwrap();
        g.add_dependence(p1, p4).unwrap();
        g
    }

    fn all_mappings_of_4_on_2x2(mesh: &Mesh) -> Vec<Mapping> {
        // All 24 permutations of 4 cores on 4 tiles.
        let mut out = Vec::new();
        let mut tiles = [0usize, 1, 2, 3];
        permute(&mut tiles, 0, &mut |perm| {
            out.push(Mapping::from_tiles(mesh, perm.map(TileId::new)).unwrap());
        });
        out
    }

    fn permute(v: &mut [usize; 4], k: usize, f: &mut impl FnMut([usize; 4])) {
        if k == 4 {
            f(*v);
            return;
        }
        for i in k..4 {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn batch_matches_sequential_across_tiers() {
        let cdcg = small_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let batch = all_mappings_of_4_on_2x2(&mesh);
        for provider in [
            RouteProvider::dense(&mesh, RoutingKind::Xy).unwrap(),
            RouteProvider::implicit(&mesh, RoutingKind::Xy),
        ] {
            let provider = Arc::new(provider);
            let mut evaluator =
                BatchEvaluator::with_provider(&cdcg, &params, Arc::clone(&provider));
            let got = evaluator.evaluate(&batch).unwrap();
            let mut scratch = ScheduleScratch::new();
            for (mapping, &texec) in batch.iter().zip(&got) {
                let want = schedule_cost_with(
                    &cdcg,
                    &mesh,
                    mapping,
                    &params,
                    provider.as_ref(),
                    &mut scratch,
                )
                .unwrap();
                assert_eq!(texec, want, "tier {:?}", provider.tier());
            }
        }
    }

    #[test]
    fn sibling_batches_dedup_route_work() {
        let cdcg = small_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let provider = Arc::new(RouteProvider::implicit(&mesh, RoutingKind::Xy));
        let mut evaluator = BatchEvaluator::with_provider(&cdcg, &params, provider);
        let batch = all_mappings_of_4_on_2x2(&mesh);
        evaluator.evaluate(&batch).unwrap();
        let stats = evaluator.walk_memo_stats().unwrap();
        // 24 candidates × 4 packets = 96 lookups over at most 16 pairs.
        assert_eq!(stats.hits + stats.misses, 96);
        assert!(
            stats.misses <= 16,
            "at most one miss per distinct pair, got {}",
            stats.misses
        );
        assert!(stats.hit_ratio() > 0.8, "ratio {}", stats.hit_ratio());
    }

    #[test]
    fn empty_and_error_batches() {
        let cdcg = small_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let mut evaluator = BatchEvaluator::new(&cdcg, &mesh, &params);
        assert!(evaluator.evaluate::<Mapping>(&[]).unwrap().is_empty());
        // A core-count mismatch anywhere aborts before any evaluation.
        let bad = Mapping::identity(&mesh, 3).unwrap();
        let good = Mapping::identity(&mesh, 4).unwrap();
        assert!(matches!(
            evaluator.evaluate(&[good, bad]),
            Err(SimError::CoreCountMismatch { .. })
        ));
        assert_eq!(
            evaluator.stats().batches,
            0,
            "neither empty nor failed batches are counted"
        );
    }

    #[test]
    fn scratch_pooling_is_stateless_across_batches() {
        let cdcg = small_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let mut evaluator = BatchEvaluator::new(&cdcg, &mesh, &params);
        let batch = all_mappings_of_4_on_2x2(&mesh);
        let first = evaluator.evaluate(&batch).unwrap();
        let second = evaluator.evaluate(&batch).unwrap();
        assert_eq!(first, second);
        assert_eq!(evaluator.stats().candidates, 48);
        assert_eq!(evaluator.stats().mean_batch(), 24.0);
    }
}
