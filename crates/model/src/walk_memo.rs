//! Per-evaluator, lock-free walk memoization.
//!
//! A shared, locked route cache costs more per lookup than the implicit
//! walker's recomputation, so a *bigger* shared cache is the wrong
//! lever. [`WalkMemo`] is the opposite shape — a small open-addressed
//! pair→span table **owned by one evaluator** (one `CostEvaluator`, one
//! batch evaluator, one service worker), probed and filled without any
//! lock, shard, guard or atomic. Thread safety is by construction: the
//! table is private state, a clone duplicates it wholesale, and nothing
//! is ever shared.
//!
//! A memo fronts any *buffering* [`RouteSource`] tier (implicit,
//! fault-aware — sources whose `walk_span` appends the walk to the
//! caller's buffer). On a hit the resolved walk is served from
//! the memo's private arena; on a miss the source resolves once into
//! that arena and the pair is recorded. Two read paths cover the two
//! engine shapes:
//!
//! * [`WalkMemo::resolve`] returns a span into the memo's own arena
//!   ([`WalkMemo::arena`] is then the engine's flat link array) — the
//!   zero-copy path of batch cost evaluations, which also deduplicates
//!   route work across batch siblings for free;
//! * [`WalkMemo::resolve_into`] appends the walk to a caller buffer —
//!   the path of single-mapping cost evaluations, which keep their
//!   walks in the scratch's own arena.
//!
//! Eviction (a full clear) happens **only** at [`WalkMemo::begin_eval`]
//! checkpoints, never mid-evaluation, so spans handed out during an
//! evaluation stay valid until its end. Results are bit-identical to
//! direct resolution: the memo stores exactly the walk the source would
//! produce, and the cost engine depends only on which walks share which
//! link ids.

use crate::ids::TileId;
use crate::route_provider::RouteSource;

/// Cumulative telemetry of a [`WalkMemo`] (monotone; survives
/// evictions). `hits / (hits + misses)` is the dedup ratio batch
/// evaluation reports to observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkMemoStats {
    /// Pair lookups served from the table without touching the source.
    pub hits: u64,
    /// Pair lookups that resolved through the underlying source.
    pub misses: u64,
    /// Full-table evictions at `begin_eval` checkpoints.
    pub evictions: u64,
}

impl WalkMemoStats {
    /// Fraction of lookups served locally (`0.0` when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Default arena budget in link ids (4 MiB): at a typical 10–60-entry
/// walk this memoizes tens of thousands of distinct pairs, far beyond
/// one batch or one evaluation.
const DEFAULT_ARENA_BUDGET: usize = 1 << 20;

/// Initial slot count of the pair table (power of two).
const INITIAL_SLOTS: usize = 1024;

/// See the module docs. Not `Sync`, deliberately: a memo belongs to
/// exactly one evaluator and takes no locks because it never needs any.
#[derive(Debug, Clone)]
pub struct WalkMemo {
    /// Open-addressed slots: pair key + 1, `0` = empty.
    keys: Vec<u64>,
    /// Parallel values: `(start, len)` spans into `arena`.
    vals: Vec<(u32, u32)>,
    /// Live entries (for the growth trigger).
    live: usize,
    /// Private walk arena the memoized spans index.
    arena: Vec<u32>,
    /// Arena size beyond which the next `begin_eval` evicts everything.
    arena_budget: usize,
    stats: WalkMemoStats,
}

impl Default for WalkMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl WalkMemo {
    /// An empty memo with the default arena budget.
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_ARENA_BUDGET)
    }

    /// An empty memo evicting once its arena exceeds `arena_budget`
    /// link ids (checked only at [`Self::begin_eval`]).
    pub fn with_budget(arena_budget: usize) -> Self {
        Self {
            keys: Vec::new(),
            vals: Vec::new(),
            live: 0,
            arena: Vec::new(),
            arena_budget: arena_budget.max(1),
            stats: WalkMemoStats::default(),
        }
    }

    /// Cumulative hit/miss/eviction counters.
    pub fn stats(&self) -> WalkMemoStats {
        self.stats
    }

    /// The private walk arena all [`Self::resolve`]d spans index — the
    /// engine's flat link-id array on the zero-copy path.
    pub fn arena(&self) -> &[u32] {
        &self.arena
    }

    /// Evaluation-boundary checkpoint: evicts the whole table if the
    /// arena has outgrown its budget. Calling this *only* between
    /// evaluations is what keeps previously returned spans valid for
    /// the evaluation that obtained them.
    pub fn begin_eval(&mut self) {
        if self.arena.len() > self.arena_budget {
            self.keys.fill(0);
            self.live = 0;
            self.arena.clear();
            self.stats.evictions += 1;
        }
    }

    /// Drops every entry and counter (a fresh memo with warm buffers).
    pub fn reset(&mut self) {
        self.keys.fill(0);
        self.live = 0;
        self.arena.clear();
        self.stats = WalkMemoStats::default();
    }

    /// Resolves the `src → dst` walk through the memo, returning its
    /// `(start, len)` span in [`Self::arena`]. `routes` must be a
    /// buffering source (one whose `walk_span` appends into the caller
    /// buffer); on a miss it is consulted exactly once.
    #[inline]
    pub fn resolve<S: RouteSource + ?Sized>(
        &mut self,
        routes: &S,
        src: TileId,
        dst: TileId,
    ) -> (u32, u32) {
        let key = pair_key(src, dst);
        // The table allocates lazily on first insert.
        if !self.keys.is_empty() {
            let slot = self.find_slot(key);
            // noc-verify: allow(PANIC01) — find_slot returns an index below keys.len()
            if self.keys[slot] == key + 1 {
                self.stats.hits += 1;
                // noc-verify: allow(PANIC01) — vals is sized with keys
                return self.vals[slot];
            }
        }
        self.stats.misses += 1;
        let before = self.arena.len();
        let span = routes.walk_span(src, dst, &mut self.arena);
        debug_assert_eq!(
            self.arena.len(),
            before + span.1 as usize,
            "WalkMemo requires a buffering route source"
        );
        self.insert(key, span);
        span
    }

    /// Resolves the `src → dst` walk through the memo and appends it to
    /// `buf`, returning the span *in `buf`* — a drop-in for
    /// `routes.walk_span(src, dst, buf)` for callers that own their
    /// walk arena (single-mapping cost evaluations).
    #[inline]
    pub fn resolve_into<S: RouteSource + ?Sized>(
        &mut self,
        routes: &S,
        src: TileId,
        dst: TileId,
        buf: &mut Vec<u32>,
    ) -> (u32, u32) {
        let (start, len) = self.resolve(routes, src, dst);
        let at = buf.len() as u32;
        // noc-verify: allow(PANIC01) — the span was produced by resolve over this arena
        buf.extend_from_slice(&self.arena[start as usize..(start + len) as usize]);
        (at, len)
    }

    /// Linear probe: the slot holding `key`, or the empty slot where it
    /// belongs. The table is never full (growth keeps load ≤ 70%).
    #[inline]
    fn find_slot(&self, key: u64) -> usize {
        debug_assert!(!self.keys.is_empty());
        let mask = self.keys.len() - 1;
        // Fibonacci multiplicative hash; deterministic by construction.
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            // noc-verify: allow(PANIC01) — i is masked to the table length
            let k = self.keys[i];
            if k == 0 || k == key + 1 {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn insert(&mut self, key: u64, span: (u32, u32)) {
        if self.keys.is_empty() {
            self.keys.resize(INITIAL_SLOTS, 0);
            self.vals.resize(INITIAL_SLOTS, (0, 0));
        } else if (self.live + 1) * 10 > self.keys.len() * 7 {
            self.grow();
        }
        let slot = self.find_slot(key);
        // noc-verify: allow(PANIC01) — find_slot returns an index below keys.len()
        debug_assert_eq!(self.keys[slot], 0, "insert only fills empty slots");
        // noc-verify: allow(PANIC01) — slot is below keys.len(); vals is sized with keys
        self.keys[slot] = key + 1;
        // noc-verify: allow(PANIC01) — vals is sized with keys
        self.vals[slot] = span;
        self.live += 1;
    }

    /// Doubles the table, re-seating every live pair (spans and arena
    /// are untouched, so outstanding spans stay valid across growth).
    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_vals = std::mem::take(&mut self.vals);
        let cap = (old_keys.len() * 2).max(INITIAL_SLOTS);
        self.keys.resize(cap, 0);
        self.vals.resize(cap, (0, 0));
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != 0 {
                let slot = self.find_slot(k - 1);
                // noc-verify: allow(PANIC01) — find_slot returns an index below keys.len()
                self.keys[slot] = k;
                // noc-verify: allow(PANIC01) — vals is sized with keys
                self.vals[slot] = v;
            }
        }
    }
}

/// Packs a tile pair into the table key. Tile indices fit 32 bits by
/// mesh construction (`Mesh::new` bounds the tile count).
#[inline]
fn pair_key(src: TileId, dst: TileId) -> u64 {
    ((src.index() as u64) << 32) | dst.index() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crg::Mesh;
    use crate::route_provider::RouteProvider;
    use crate::routing::RoutingKind;

    fn mesh() -> Mesh {
        Mesh::new(6, 6).unwrap()
    }

    #[test]
    fn memoized_walks_match_direct_resolution() {
        let mesh = mesh();
        let routes = RouteProvider::implicit(&mesh, RoutingKind::Xy);
        let mut memo = WalkMemo::new();
        let mut direct = Vec::new();
        for src in 0..36 {
            for dst in 0..36 {
                let (s, d) = (TileId::new(src), TileId::new(dst));
                direct.clear();
                let (ds, dl) = routes.walk_span(s, d, &mut direct);
                let (ms, ml) = memo.resolve(&routes, s, d);
                assert_eq!(dl, ml, "walk length differs for {src}->{dst}");
                assert_eq!(
                    &direct[ds as usize..(ds + dl) as usize],
                    &memo.arena()[ms as usize..(ms + ml) as usize],
                    "walk differs for {src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn second_lookup_hits_without_touching_the_source() {
        let mesh = mesh();
        let routes = RouteProvider::implicit(&mesh, RoutingKind::Xy);
        let mut memo = WalkMemo::new();
        let (a, b) = (TileId::new(3), TileId::new(22));
        let first = memo.resolve(&routes, a, b);
        let arena_after_first = memo.arena().len();
        let second = memo.resolve(&routes, a, b);
        assert_eq!(first, second, "hit must return the recorded span");
        assert_eq!(memo.arena().len(), arena_after_first, "hit must not append");
        assert_eq!(memo.stats().hits, 1);
        assert_eq!(memo.stats().misses, 1);
    }

    #[test]
    fn resolve_into_matches_walk_span() {
        let mesh = mesh();
        let routes = RouteProvider::implicit(&mesh, RoutingKind::Xy);
        let mut memo = WalkMemo::new();
        let mut via_memo = Vec::new();
        let mut via_source = Vec::new();
        for (src, dst) in [(0usize, 35usize), (35, 0), (7, 7), (0, 35)] {
            let (s, d) = (TileId::new(src), TileId::new(dst));
            let (ms, ml) = memo.resolve_into(&routes, s, d, &mut via_memo);
            let (ss, sl) = routes.walk_span(s, d, &mut via_source);
            assert_eq!(
                &via_memo[ms as usize..(ms + ml) as usize],
                &via_source[ss as usize..(ss + sl) as usize]
            );
        }
        assert_eq!(memo.stats().hits, 1, "the repeated pair must hit");
    }

    #[test]
    fn eviction_only_at_begin_eval_and_counted() {
        let mesh = mesh();
        let routes = RouteProvider::implicit(&mesh, RoutingKind::Xy);
        let mut memo = WalkMemo::with_budget(8);
        let (a, b) = (TileId::new(0), TileId::new(35));
        memo.resolve(&routes, a, b);
        // Over budget, but no eviction until the checkpoint.
        memo.resolve(&routes, TileId::new(1), TileId::new(30));
        assert!(memo.arena().len() > 8);
        assert_eq!(memo.stats().evictions, 0);
        memo.begin_eval();
        assert_eq!(memo.stats().evictions, 1);
        assert!(memo.arena().is_empty());
        // Post-eviction lookups miss and re-resolve correctly.
        let span = memo.resolve(&routes, a, b);
        let mut direct = Vec::new();
        let (ds, dl) = routes.walk_span(a, b, &mut direct);
        assert_eq!(
            &memo.arena()[span.0 as usize..(span.0 + span.1) as usize],
            &direct[ds as usize..(ds + dl) as usize]
        );
    }

    #[test]
    fn growth_keeps_every_recorded_pair() {
        let mesh = Mesh::new(16, 16).unwrap();
        let routes = RouteProvider::implicit(&mesh, RoutingKind::Xy);
        let mut memo = WalkMemo::new();
        let pairs: Vec<(TileId, TileId)> = (0..256)
            .flat_map(|s| [(TileId::new(s), TileId::new((s * 7 + 13) % 256))])
            .collect();
        let spans: Vec<(u32, u32)> = pairs
            .iter()
            .map(|&(s, d)| memo.resolve(&routes, s, d))
            .collect();
        // Everything re-resolves as a hit with the identical span.
        let misses = memo.stats().misses;
        for (&(s, d), &span) in pairs.iter().zip(&spans) {
            assert_eq!(memo.resolve(&routes, s, d), span);
        }
        assert_eq!(memo.stats().misses, misses, "re-lookups must all hit");
    }
}
