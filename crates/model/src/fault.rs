//! Link/TSV failure injection and fault-tolerant detour routing.
//!
//! The paper's mappings assume a pristine mesh; this module models the
//! mesh after components die. A [`FaultSet`] is a set of dead
//! inter-router channels (both directions of a planar link, or a whole
//! vertical TSV pillar), built by hand or from a deterministic,
//! seed-driven [`FaultScenario`]. [`FaultAwareRoutes`] is the route
//! tier that survives it ([`crate::RouteProvider::FaultAware`]):
//!
//! * **Fast path** — when the canonical dimension-order route of a pair
//!   touches no dead link, the exact walk of the implicit tier is
//!   emitted. With an empty fault set every pair takes this path, so
//!   the tier is bit-identical to the healthy tiers (pinned by the
//!   repository's property tests).
//! * **Detour path** — otherwise a breadth-first search over the
//!   surviving channels finds a shortest detour, with deterministic
//!   tie-breaking (FIFO order, neighbours expanded in the fixed
//!   [`Direction::AXIAL`] order). Detours are cached per pair.
//! * **Partition** — when no surviving route exists,
//!   [`RouteSource::validate_pair`] reports
//!   [`ModelError::MeshPartitioned`]; nothing panics.
//!
//! Detours are *oblivious* per pair, not adaptive: every packet of a
//! pair takes the same surviving route, chosen without regard to load.
//! That models a router with a reconfigured routing table after fault
//! diagnosis — not a dynamically adaptive router — and it can lengthen
//! routes beyond the minimal surviving distance for no pair (BFS is
//! shortest-path) but *can* concentrate traffic on the links around a
//! fault. The robustness metrics in `noc-mapping` quantify exactly that
//! concentration.

use crate::crg::{Coord, Direction, Link, Mesh};
use crate::error::ModelError;
use crate::ids::TileId;
use crate::route_provider::{LinkNumbering, RouteSource};
use crate::routing::RoutingKind;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Mutex;

/// Number of independently locked shards of the per-pair detour cache.
const FAULT_SHARDS: usize = 64;

/// Default total walk-arena budget of the detour cache, in `u32`
/// entries across all shards (~64 MB).
const FAULT_CACHE_CAPACITY: usize = 1 << 24;

/// A set of dead inter-router channels.
///
/// Only [`Link::Internal`] channels can die: injection and ejection
/// links are core-local wiring the fault model (like the paper's
/// contention model) does not arbitrate. Channels are directed, and a
/// physical failure kills both directions — use [`FaultSet::kill_between`]
/// or the [`FaultScenario`] generators, which do.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FaultSet {
    dead: BTreeSet<Link>,
}

impl FaultSet {
    /// Creates an empty (healthy-mesh) fault set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no link is dead.
    pub fn is_empty(&self) -> bool {
        self.dead.is_empty()
    }

    /// Number of dead directed channels.
    pub fn len(&self) -> usize {
        self.dead.len()
    }

    /// True when the directed channel is dead.
    pub fn is_dead(&self, link: &Link) -> bool {
        self.dead.contains(link)
    }

    /// The dead channels, in deterministic (sorted) order.
    pub fn dead_links(&self) -> impl Iterator<Item = &Link> {
        self.dead.iter()
    }

    /// Kills one directed inter-router channel.
    ///
    /// # Panics
    ///
    /// Panics if `link` is an injection or ejection link — the fault
    /// model covers inter-router channels only.
    pub fn kill(&mut self, link: Link) {
        assert!(
            link.is_internal(),
            "fault model covers inter-router channels, not {link}"
        );
        self.dead.insert(link);
    }

    /// Kills both directions of the physical channel between two
    /// adjacent routers (a link failure takes down the wire pair).
    pub fn kill_between(&mut self, a: TileId, b: TileId) {
        self.kill(Link::between(a, b));
        self.kill(Link::between(b, a));
    }

    /// Kills the whole vertical TSV pillar at column `(x, y)`: both
    /// directions of every inter-layer channel, including the torus
    /// wrap channel of meshes deeper than two layers. A no-op on planar
    /// meshes.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` lies outside the mesh.
    pub fn kill_tsv_pillar(&mut self, mesh: &Mesh, x: usize, y: usize) {
        assert!(
            x < mesh.width() && y < mesh.height(),
            "pillar ({x}, {y}) outside the {}x{} layer",
            mesh.width(),
            mesh.height()
        );
        let tile = |z| {
            mesh.tile_at(Coord::new3(x, y, z))
                .expect("pillar coordinates are inside the mesh") // noc-verify: allow(PANIC01) — x/y asserted in-bounds above; z iterates 0..depth
        };
        for z in 0..mesh.depth().saturating_sub(1) {
            self.kill_between(tile(z), tile(z + 1));
        }
        if mesh.depth() > 2 {
            self.kill_between(tile(mesh.depth() - 1), tile(0));
        }
    }
}

/// Deterministic, seed-driven fault-set generators.
///
/// Equal scenarios on equal meshes generate equal [`FaultSet`]s — the
/// robustness experiments and their regression tests depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// `count` random physical mesh channels die (both directions
    /// each), drawn without replacement; clamped to the channel count.
    RandomLinks {
        /// Physical channels to kill.
        count: usize,
        /// Draw seed.
        seed: u64,
    },
    /// `count` random vertical TSV pillars die (see
    /// [`FaultSet::kill_tsv_pillar`]); clamped to the pillar count.
    /// Generates an empty set on planar meshes.
    RandomTsvs {
        /// Pillars to kill.
        count: usize,
        /// Draw seed.
        seed: u64,
    },
    /// Every channel touching a `width × height` tile region of one
    /// randomly placed layer dies (a localized manufacturing or thermal
    /// failure). Region dimensions clamp to the mesh.
    Region {
        /// Region width in tiles.
        width: usize,
        /// Region height in tiles.
        height: usize,
        /// Placement seed.
        seed: u64,
    },
}

/// `splitmix64` — the tiny deterministic generator the scenario
/// draws use (self-contained, so fault generation cannot drift with a
/// RNG crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// First `k` elements of a seeded Fisher–Yates shuffle of `0..n`.
fn choose_k(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x5fa7_41fe_f417_0001;
    let mut indices: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + (splitmix64(&mut state) as usize) % (n - i);
        indices.swap(i, j);
    }
    indices.truncate(k);
    indices
}

impl FaultScenario {
    /// Generates the scenario's fault set on `mesh`. Deterministic:
    /// equal scenarios on equal meshes yield equal sets.
    pub fn generate(&self, mesh: &Mesh) -> FaultSet {
        let mut faults = FaultSet::new();
        match *self {
            Self::RandomLinks { count, seed } => {
                // One entry per physical channel: keep the canonical
                // (low → high) direction of the sorted link list.
                let channels: Vec<(TileId, TileId)> = mesh
                    .internal_links()
                    .into_iter()
                    .filter_map(|l| match l {
                        Link::Internal { from, to } if from < to => Some((from, to)),
                        _ => None,
                    })
                    .collect();
                for i in choose_k(channels.len(), count, seed) {
                    let (a, b) = channels[i];
                    faults.kill_between(a, b);
                }
            }
            Self::RandomTsvs { count, seed } => {
                if mesh.depth() > 1 {
                    let pillars = mesh.layer_size();
                    for i in choose_k(pillars, count, seed) {
                        faults.kill_tsv_pillar(mesh, i % mesh.width(), i / mesh.width());
                    }
                }
            }
            Self::Region {
                width,
                height,
                seed,
            } => {
                let rw = width.clamp(1, mesh.width());
                let rh = height.clamp(1, mesh.height());
                let mut state = seed ^ 0x5fa7_41fe_f417_0002;
                let x0 = (splitmix64(&mut state) as usize) % (mesh.width() - rw + 1);
                let y0 = (splitmix64(&mut state) as usize) % (mesh.height() - rh + 1);
                let z = (splitmix64(&mut state) as usize) % mesh.depth();
                for y in y0..y0 + rh {
                    for x in x0..x0 + rw {
                        let t = mesh
                            .tile_at(Coord::new3(x, y, z))
                            .expect("region is clamped to the mesh"); // noc-verify: allow(PANIC01) — region extent and origin are clamped/reduced modulo the mesh dimensions above
                        for dir in Direction::AXIAL {
                            if let Some(n) = mesh.neighbor(t, dir) {
                                faults.kill_between(t, n);
                            }
                        }
                    }
                }
            }
        }
        faults
    }
}

/// One cached pair resolution.
#[derive(Debug, Clone, Copy)]
enum PairEntry {
    /// A surviving route: span into the shard's walk arena, its
    /// vertical-hop count, and whether it detours off the canonical
    /// dimension-order route.
    Route {
        start: u32,
        len: u32,
        vertical: u32,
        detoured: bool,
    },
    /// The fault set disconnects the pair.
    Partitioned,
}

/// One shard of the per-pair route cache.
#[derive(Debug, Default)]
struct FaultShard {
    entries: HashMap<u64, PairEntry>,
    walks: Vec<u32>,
}

/// Resolution counters of a [`FaultAwareRoutes`] (diagnostics; reset
/// when a shard hits its memory cap and evicts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRouteStats {
    /// Pairs resolved and currently cached.
    pub resolved_pairs: usize,
    /// Cached pairs routed around at least one dead link.
    pub detoured_pairs: usize,
    /// Cached pairs the fault set disconnects.
    pub partitioned_pairs: usize,
}

/// The fault-aware route tier. See the module docs for the routing
/// policy and [`crate::RouteProvider::fault_aware`] for the usual way
/// to construct one.
#[derive(Debug)]
pub struct FaultAwareRoutes {
    mesh: Mesh,
    kind: RoutingKind,
    numbering: LinkNumbering,
    faults: FaultSet,
    wrap_xy: bool,
    wrap_z: bool,
    shards: Box<[Mutex<FaultShard>]>,
    shard_capacity: usize,
}

impl FaultAwareRoutes {
    /// Creates the fault-aware router for `mesh` under the canonical
    /// routing `kind`, surviving `faults`.
    pub fn new(mesh: &Mesh, kind: RoutingKind, faults: FaultSet) -> Self {
        let order = kind.order();
        let shards = (0..FAULT_SHARDS)
            .map(|_| Mutex::new(FaultShard::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            mesh: *mesh,
            kind,
            numbering: LinkNumbering::new(mesh),
            faults,
            wrap_xy: order.wrap_xy,
            wrap_z: order.wrap_z,
            shards,
            shard_capacity: (FAULT_CACHE_CAPACITY / FAULT_SHARDS).max(64),
        }
    }

    /// [`Self::new`] with an explicit per-shard walk-arena capacity
    /// (in `u32` link ids). Tiny capacities force constant eviction —
    /// the concurrency stress tests use this to exercise the
    /// resolve-under-eviction paths that the default 16M-entry budget
    /// would never reach.
    pub fn with_shard_capacity(
        mesh: &Mesh,
        kind: RoutingKind,
        faults: FaultSet,
        shard_capacity: usize,
    ) -> Self {
        let mut this = Self::new(mesh, kind, faults);
        this.shard_capacity = shard_capacity.max(1);
        this
    }

    /// The canonical routing kind (used whenever it survives).
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// The injected fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Current resolution counters (diagnostics).
    pub fn stats(&self) -> FaultRouteStats {
        let mut stats = FaultRouteStats::default();
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            // noc-verify: allow(DET01) — order-insensitive counter accumulation; totals are identical for any iteration order
            for entry in shard.entries.values() {
                stats.resolved_pairs += 1;
                match entry {
                    PairEntry::Route { detoured: true, .. } => stats.detoured_pairs += 1,
                    PairEntry::Route { .. } => {}
                    PairEntry::Partitioned => stats.partitioned_pairs += 1,
                }
            }
        }
        stats
    }

    /// The physical neighbour behind a router port, including the torus
    /// wrap neighbour of border tiles when the routing kind wraps that
    /// axis.
    fn port_neighbor(&self, tile: TileId, dir: Direction) -> Option<TileId> {
        if let Some(n) = self.mesh.neighbor(tile, dir) {
            return Some(n);
        }
        let c = self.mesh.coord(tile);
        let (w, h, d) = (self.mesh.width(), self.mesh.height(), self.mesh.depth());
        let wrapped = match dir {
            Direction::North if self.wrap_xy && h > 1 => Coord::new3(c.x, h - 1, c.z),
            Direction::South if self.wrap_xy && h > 1 => Coord::new3(c.x, 0, c.z),
            Direction::East if self.wrap_xy && w > 1 => Coord::new3(0, c.y, c.z),
            Direction::West if self.wrap_xy && w > 1 => Coord::new3(w - 1, c.y, c.z),
            Direction::Up if self.wrap_z && d > 1 => Coord::new3(c.x, c.y, d - 1),
            Direction::Down if self.wrap_z && d > 1 => Coord::new3(c.x, c.y, 0),
            _ => return None,
        };
        self.mesh.tile_at(wrapped)
    }

    /// The canonical dimension-order steps of a pair, and whether any
    /// of them traverses a dead link.
    fn canonical_steps(&self, src: TileId, dst: TileId) -> (Vec<(Coord, Coord)>, bool) {
        let mut steps = Vec::new();
        let mut touched = false;
        self.kind
            .order()
            .for_each_step(&self.mesh, src, dst, |a, b| {
                let (ta, tb) = (
                    // noc-verify: allow(PANIC01) — for_each_step yields only in-mesh coordinates by construction, so tile_at cannot return None
                    self.mesh.tile_at(a).expect("walk stays inside mesh"),
                    self.mesh.tile_at(b).expect("walk stays inside mesh"), // noc-verify: allow(PANIC01) — same invariant as the line above
                );
                touched |= self.faults.is_dead(&Link::between(ta, tb));
                steps.push((a, b));
            });
        (steps, touched)
    }

    /// Shortest surviving route as a tile path (`src ..= dst`), or
    /// `None` when the fault set disconnects the pair. Deterministic:
    /// FIFO breadth-first search expanding neighbours in
    /// [`Direction::AXIAL`] order assigns every tile a unique parent.
    fn detour(&self, src: TileId, dst: TileId) -> Option<Vec<TileId>> {
        let n = self.mesh.tile_count();
        let mut parent: Vec<u32> = vec![u32::MAX; n];
        parent[src.index()] = src.index() as u32;
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(t) = queue.pop_front() {
            if t == dst {
                let mut path = vec![dst];
                let mut cur = dst.index();
                while cur != src.index() {
                    cur = parent[cur] as usize;
                    path.push(TileId::new(cur));
                }
                path.reverse();
                return Some(path);
            }
            for dir in Direction::AXIAL {
                let Some(nb) = self.port_neighbor(t, dir) else {
                    continue;
                };
                if parent[nb.index()] != u32::MAX || self.faults.is_dead(&Link::between(t, nb)) {
                    continue;
                }
                parent[nb.index()] = t.index() as u32;
                queue.push_back(nb);
            }
        }
        None
    }

    /// The pair's cache key and owning shard index.
    fn shard_of(&self, src: TileId, dst: TileId) -> (usize, u64) {
        let n = self.mesh.tile_count() as u64;
        let key = src.index() as u64 * n + dst.index() as u64;
        (key as usize % self.shards.len(), key)
    }

    /// Resolves (or fetches) the pair's cached route. Callers that only
    /// need the entry metadata; [`Self::walk_span`] must use
    /// [`Self::resolve_in`] under its own guard instead, so the walk
    /// copy happens before any other thread can evict the shard.
    fn resolve(&self, src: TileId, dst: TileId) -> PairEntry {
        let (idx, key) = self.shard_of(src, dst);
        let mut shard = self.shards[idx].lock().unwrap_or_else(|e| e.into_inner());
        self.resolve_in(&mut shard, key, src, dst)
    }

    /// Resolves (or fetches) the pair's route inside an already-locked
    /// shard. The returned span stays valid for exactly as long as the
    /// caller holds the guard.
    fn resolve_in(&self, shard: &mut FaultShard, key: u64, src: TileId, dst: TileId) -> PairEntry {
        if let Some(&entry) = shard.entries.get(&key) {
            return entry;
        }
        if shard.walks.len() >= self.shard_capacity {
            // Bounded memory: evict the whole shard rather than track
            // per-entry recency.
            shard.entries.clear();
            shard.walks.clear();
        }

        let (canonical, touched) = self.canonical_steps(src, dst);
        let (steps, detoured): (Vec<(Coord, Coord)>, bool) = if !touched {
            (canonical, false)
        } else {
            match self.detour(src, dst) {
                Some(path) => (
                    path.windows(2)
                        .map(|w| (self.mesh.coord(w[0]), self.mesh.coord(w[1])))
                        .collect(),
                    true,
                ),
                None => {
                    shard.entries.insert(key, PairEntry::Partitioned);
                    return PairEntry::Partitioned;
                }
            }
        };

        let start = shard.walks.len() as u32;
        let mut vertical = 0u32;
        shard.walks.push(self.numbering.injection(src));
        for &(a, b) in &steps {
            vertical += u32::from(a.z != b.z);
            let id = self.numbering.internal(a, b);
            shard.walks.push(id);
        }
        shard.walks.push(self.numbering.ejection(dst));
        let entry = PairEntry::Route {
            start,
            len: shard.walks.len() as u32 - start,
            vertical,
            detoured,
        };
        shard.entries.insert(key, entry);
        entry
    }
}

impl RouteSource for FaultAwareRoutes {
    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn routing_name(&self) -> &'static str {
        self.kind.name()
    }

    fn dense_link_count(&self) -> usize {
        self.numbering.id_count()
    }

    fn router_count(&self, src: TileId, dst: TileId) -> usize {
        if self.faults.is_empty() {
            return self.kind.hop_distance(&self.mesh, src, dst) + 1;
        }
        match self.resolve(src, dst) {
            // Walk = injection + internals + ejection; routers = internals + 1.
            PairEntry::Route { len, .. } => len as usize - 1,
            PairEntry::Partitioned => 1,
        }
    }

    fn vertical_hops(&self, src: TileId, dst: TileId) -> usize {
        if self.faults.is_empty() {
            return self.kind.vertical_hops(&self.mesh, src, dst);
        }
        match self.resolve(src, dst) {
            PairEntry::Route { vertical, .. } => vertical as usize,
            PairEntry::Partitioned => 0,
        }
    }

    fn walk_span(&self, src: TileId, dst: TileId, buf: &mut Vec<u32>) -> (u32, u32) {
        let start = buf.len();
        if self.faults.is_empty() {
            // Bit-identical to the implicit tier: same coordinate walk,
            // same closed-form numbering, no locking.
            buf.push(self.numbering.injection(src));
            self.kind
                .order()
                .for_each_step(&self.mesh, src, dst, |a, b| {
                    buf.push(self.numbering.internal(a, b));
                });
            buf.push(self.numbering.ejection(dst));
            return (start as u32, (buf.len() - start) as u32);
        }
        // Resolve and copy under ONE guard: releasing the shard between
        // resolution and the walk copy would let a concurrent thread
        // evict the shard and leave the span pointing at cleared (or
        // recycled) arena slots.
        let (idx, key) = self.shard_of(src, dst);
        let mut shard = self.shards[idx].lock().unwrap_or_else(|e| e.into_inner());
        match self.resolve_in(&mut shard, key, src, dst) {
            PairEntry::Route { start: s, len, .. } => {
                buf.extend_from_slice(&shard.walks[s as usize..(s + len) as usize]);
                (start as u32, len)
            }
            PairEntry::Partitioned => {
                // Degenerate walk; callers learn the truth from
                // `validate_pair`, which the engines check.
                buf.push(self.numbering.injection(src));
                buf.push(self.numbering.ejection(dst));
                (start as u32, 2)
            }
        }
    }

    fn flat<'s>(&'s self, buf: &'s [u32]) -> &'s [u32] {
        buf
    }

    fn link_at(&self, id: u32) -> Option<Link> {
        self.numbering.link_at(id, self.wrap_xy, self.wrap_z)
    }

    fn validate_pair(&self, src: TileId, dst: TileId) -> Result<(), ModelError> {
        if self.faults.is_empty() {
            return Ok(());
        }
        match self.resolve(src, dst) {
            PairEntry::Route { .. } => Ok(()),
            PairEntry::Partitioned => Err(ModelError::MeshPartitioned { pair: (src, dst) }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_provider::{ImplicitRoutes, RouteProvider};

    fn decode_walk<S: RouteSource>(source: &S, src: TileId, dst: TileId) -> Vec<Link> {
        let mut buf = Vec::new();
        let (start, len) = source.walk_span(src, dst, &mut buf);
        let flat = source.flat(&buf);
        flat[start as usize..(start + len) as usize]
            .iter()
            .map(|&id| source.link_at(id).expect("walk ids decode"))
            .collect()
    }

    #[test]
    fn empty_fault_set_matches_the_implicit_tier() {
        for (mesh, kinds) in [
            (Mesh::new(4, 3).unwrap(), RoutingKind::ALL.as_slice()),
            (Mesh::new3(3, 2, 2).unwrap(), RoutingKind::ALL.as_slice()),
        ] {
            for &kind in kinds {
                let implicit = ImplicitRoutes::new(&mesh, kind);
                let fault = FaultAwareRoutes::new(&mesh, kind, FaultSet::new());
                for src in mesh.tiles() {
                    for dst in mesh.tiles() {
                        assert_eq!(
                            decode_walk(&fault, src, dst),
                            decode_walk(&implicit, src, dst),
                            "{kind:?} {src}->{dst}"
                        );
                        assert_eq!(
                            RouteSource::router_count(&fault, src, dst),
                            RouteSource::router_count(&implicit, src, dst)
                        );
                        assert_eq!(
                            RouteSource::vertical_hops(&fault, src, dst),
                            RouteSource::vertical_hops(&implicit, src, dst)
                        );
                        fault.validate_pair(src, dst).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn detours_avoid_dead_links_and_stay_shortest() {
        let mesh = Mesh::new(3, 3).unwrap();
        let mut faults = FaultSet::new();
        // Kill the first XY hop of 0 -> 2 (t0 -> t1 east).
        faults.kill_between(TileId::new(0), TileId::new(1));
        let fault = FaultAwareRoutes::new(&mesh, RoutingKind::Xy, faults.clone());
        let walk = decode_walk(&fault, TileId::new(0), TileId::new(2));
        for link in &walk {
            assert!(!faults.is_dead(link), "route traverses dead {link}");
        }
        // Shortest surviving detour is 3 internal hops (down, across is
        // blocked — around via row 1 or down-up), i.e. 4 hops total.
        assert_eq!(walk.len(), 2 + 4, "injection + 4 hops + ejection");
        assert_eq!(
            RouteSource::router_count(&fault, TileId::new(0), TileId::new(2)),
            5
        );
        // Untouched pairs keep the canonical route.
        let clean = decode_walk(&fault, TileId::new(3), TileId::new(5));
        let implicit = ImplicitRoutes::new(&mesh, RoutingKind::Xy);
        assert_eq!(
            clean,
            decode_walk(&implicit, TileId::new(3), TileId::new(5))
        );
        let stats = fault.stats();
        assert_eq!(stats.partitioned_pairs, 0);
        assert!(stats.detoured_pairs >= 1);
    }

    #[test]
    fn partition_is_a_typed_error_not_a_panic() {
        // 1x3 path mesh: killing the middle link separates the ends.
        let mesh = Mesh::new(3, 1).unwrap();
        let mut faults = FaultSet::new();
        faults.kill_between(TileId::new(1), TileId::new(2));
        let fault = FaultAwareRoutes::new(&mesh, RoutingKind::Xy, faults);
        let err = fault
            .validate_pair(TileId::new(0), TileId::new(2))
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::MeshPartitioned {
                pair: (a, b)
            } if a == TileId::new(0) && b == TileId::new(2)
        ));
        // The degenerate walk still avoids dead links and stays sane.
        let walk = decode_walk(&fault, TileId::new(0), TileId::new(2));
        assert_eq!(walk.len(), 2);
        // The connected side still routes.
        fault.validate_pair(TileId::new(0), TileId::new(1)).unwrap();
        assert_eq!(fault.stats().partitioned_pairs, 1);
    }

    #[test]
    fn torus_detours_may_use_wrap_channels() {
        let mesh = Mesh::new(4, 1).unwrap();
        let mut faults = FaultSet::new();
        // Killing 1 -> 2 on a ring forces 0 -> 2 the long way round.
        faults.kill_between(TileId::new(1), TileId::new(2));
        let fault = FaultAwareRoutes::new(&mesh, RoutingKind::TorusXy, faults.clone());
        fault.validate_pair(TileId::new(0), TileId::new(2)).unwrap();
        let walk = decode_walk(&fault, TileId::new(0), TileId::new(2));
        for link in &walk {
            assert!(!faults.is_dead(link));
        }
        assert_eq!(
            walk.len(),
            2 + 2,
            "west + wrap-west beats the dead east path"
        );
        // Under plain XY (no wrap ports) the same fault partitions.
        let xy = FaultAwareRoutes::new(&mesh, RoutingKind::Xy, faults);
        assert!(xy.validate_pair(TileId::new(0), TileId::new(2)).is_err());
    }

    #[test]
    fn tsv_pillar_faults_reroute_through_other_pillars() {
        let mesh = Mesh::new3(2, 2, 2).unwrap();
        let scenario = FaultScenario::RandomTsvs { count: 1, seed: 9 };
        let faults = scenario.generate(&mesh);
        assert_eq!(faults.len(), 2, "one pillar, one inter-layer channel pair");
        let fault = FaultAwareRoutes::new(&mesh, RoutingKind::Xyz, faults.clone());
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                fault.validate_pair(src, dst).unwrap();
                for link in decode_walk(&fault, src, dst) {
                    assert!(!faults.is_dead(&link), "{src}->{dst} uses dead {link}");
                }
            }
        }
    }

    #[test]
    fn scenarios_are_seed_deterministic() {
        let mesh = Mesh::new3(4, 4, 2).unwrap();
        for scenario in [
            FaultScenario::RandomLinks { count: 3, seed: 7 },
            FaultScenario::RandomTsvs { count: 2, seed: 7 },
            FaultScenario::Region {
                width: 2,
                height: 2,
                seed: 7,
            },
        ] {
            assert_eq!(scenario.generate(&mesh), scenario.generate(&mesh));
        }
        let a = FaultScenario::RandomLinks { count: 3, seed: 1 }.generate(&mesh);
        let b = FaultScenario::RandomLinks { count: 3, seed: 2 }.generate(&mesh);
        assert_ne!(a, b, "different seeds should draw different channels");
        // Counts are honoured (both directions per channel).
        assert_eq!(a.len(), 6);
        // Clamping: asking for more channels than exist kills them all.
        let all = FaultScenario::RandomLinks {
            count: usize::MAX,
            seed: 0,
        }
        .generate(&mesh);
        assert_eq!(all.len(), 2 * mesh.internal_links().len() / 2);
    }

    #[test]
    fn provider_integration_reports_the_tier() {
        let mesh = Mesh::new(3, 3).unwrap();
        let provider = RouteProvider::fault_aware(&mesh, RoutingKind::Xy, FaultSet::new());
        assert_eq!(provider.tier().name(), "fault-aware");
        assert!(provider.as_fault_aware().is_some());
        assert!(provider.as_dense().is_none());
        provider
            .validate_pair(TileId::new(0), TileId::new(8))
            .unwrap();
    }
}
