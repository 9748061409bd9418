//! The objective contract every search strategy minimizes.
//!
//! These traits used to live in `noc-mapping`; they moved here when the
//! search loops were promoted into their own subsystem, so that engines
//! (this crate) and objectives (`noc-mapping`) can evolve independently.
//! `noc-mapping` re-exports both names, so downstream code is unaffected.

use noc_model::{Mapping, TileId};

/// A mapping objective: smaller is better.
///
/// Objects of this trait are what every engine in this crate (and the
/// exhaustive/greedy/random baselines in `noc-mapping`) minimizes.
pub trait CostFunction {
    /// Cost of a mapping (picojoules for the energy objectives,
    /// nanoseconds for the time objective).
    fn cost(&self, mapping: &Mapping) -> f64;

    /// Short name for reports ("CWM", "CDCM", …).
    fn name(&self) -> String;
}

/// Objectives that can evaluate a tile swap incrementally, without a full
/// re-evaluation. Implementations must guarantee
/// `cost(swap(m)) == cost(m) + swap_delta(m, a, b)` up to rounding; the
/// tests in `noc-mapping` and `tests/proptest_invariants.rs` enforce
/// this.
pub trait SwapDeltaCost: CostFunction {
    /// Cost change if tiles `a` and `b` of `mapping` were swapped.
    fn swap_delta(&self, mapping: &Mapping, a: TileId, b: TileId) -> f64;

    /// Cost changes for many candidate swaps against the same base
    /// mapping, appended to `out` in move order.
    ///
    /// Must push exactly `swap_delta(mapping, a, b)` for every move —
    /// bit-identical, not approximately. The default loops; objectives
    /// whose delta engine re-evaluates a shared baseline override it to
    /// pay that baseline once per neighborhood instead of once per move.
    fn batch_swap_delta(&self, mapping: &Mapping, moves: &[(TileId, TileId)], out: &mut Vec<f64>) {
        out.extend(moves.iter().map(|&(a, b)| self.swap_delta(mapping, a, b)));
    }
}

/// Objectives that evaluate many candidate mappings in one call. The
/// genetic search and the portfolio cost each generation through it.
///
/// The contract is bit-exactness: `batch_cost` must push exactly
/// `cost(m)` for every mapping, in batch order, so engines may batch
/// freely without perturbing a search trajectory. The default loops
/// over [`CostFunction::cost`], and every objective in the workspace
/// uses it. The trait is kept only because the repository benchmark
/// (`perfbench`) implements it to time generation costing.
pub trait BatchCost: CostFunction {
    /// Costs of every mapping in `batch`, appended to `out` in order.
    fn batch_cost(&self, batch: &[Mapping], out: &mut Vec<f64>) {
        out.extend(batch.iter().map(|m| self.cost(m)));
    }
}
