//! Tiered route provisioning: dense, implicit and fault-aware routes.
//!
//! The evaluation engine consumes routes as *dense-link-id walks*: per
//! packet, the ordered list of `u32` resource ids (injection link,
//! inter-router links, ejection link) that per-link state vectors are
//! indexed by. One coordinate walker generates every walk
//! ([`ImplicitRoutes`]: the step sequence of the routing kind's own
//! `RoutingAlgorithm`), and one closed-form **per-tile-port numbering**
//! names every link: one slot per injection and ejection link plus one
//! per outgoing router port — four ports per tile on planar meshes (the
//! historical `6·n` total), six on 3D meshes (`8·n`, adding the up/down
//! TSV ports). [`RouteProvider`] puts one tier per regime behind one
//! interface ([`RouteSource`]):
//!
//! * **[`RouteProvider::Dense`]** — the walker's output for every pair,
//!   precomputed into one flat array ([`RouteCache`]); the fast path for
//!   meshes up to [`AUTO_DENSE_MAX_ENTRIES`]. Walks are spans into the
//!   shared array; resolving one allocates and copies nothing.
//! * **[`RouteProvider::Implicit`]** — the walker itself, no stored
//!   routes: XY/YX/torus/XYZ walks are generated from tile coordinates
//!   into the caller's buffer. Zero resident memory; `O(route length)`
//!   per resolution. Evaluators front it with a private
//!   [`crate::WalkMemo`], so a search pays for each pair's walk once.
//! * **[`RouteProvider::FaultAware`]** — detour routing around a fault
//!   set of dead links (`crate::fault`); with no dead links it is the
//!   walker.
//!
//! All three tiers yield the same ids for the same walk, so evaluation
//! results are bit-identical across them. The repository's property
//! tests check every tier's decoded walks against the routing
//! algorithm's routes, and its costs across the tiers, on planar and 3D
//! meshes alike.
//!
//! [`RouteProvider::auto`] picks dense while the estimated tables stay
//! small and implicit beyond — large meshes work out of the box instead
//! of failing at construction time. The service's provider registry
//! applies that policy to every solve job (the fault-aware tier when a
//! job names faults), and an evaluate job, which makes one run, takes
//! an uncached implicit provider when the registry holds none; no
//! request picks a tier.

use crate::crg::{Coord, Link, Mesh};
use crate::error::ModelError;
use crate::ids::TileId;
use crate::route_cache::RouteCache;
use crate::routing::RoutingKind;
use std::sync::Arc;

/// Entry-estimate limit of the dense tier: [`RouteCache::new`] refuses a
/// mesh beyond it, where [`RouteProvider::auto`] picks the implicit tier
/// (29×29 is the largest square mesh under it).
pub const AUTO_DENSE_MAX_ENTRIES: u128 = 1 << 24;

/// A supplier of routes in the dense-link-id form the evaluation engine
/// consumes. Implemented by each tier ([`RouteCache`], [`ImplicitRoutes`],
/// [`crate::FaultAwareRoutes`]) and by [`RouteProvider`], which holds one.
pub trait RouteSource {
    /// The mesh the routes traverse.
    fn mesh(&self) -> &Mesh;

    /// Name of the routing algorithm ("XY", "YX", "torus-XY", …).
    fn routing_name(&self) -> &'static str;

    /// Exclusive upper bound of the dense link-id space — the size for
    /// per-link state vectors. Ids below it need not all be in use.
    fn dense_link_count(&self) -> usize;

    /// Number of routers on the pair's route (the paper's `K`), `O(1)`.
    fn router_count(&self, src: TileId, dst: TileId) -> usize;

    /// Number of vertical (TSV) inter-router links on the pair's route,
    /// `O(1)`. Always `0` on depth-1 meshes; the 3D energy model charges
    /// these hops the vertical per-bit link energy instead of the
    /// horizontal one.
    fn vertical_hops(&self, src: TileId, dst: TileId) -> usize;

    /// Resolves the pair's resource walk, returning `(start, len)` into
    /// the flat array [`Self::flat`] yields. Sources with a shared
    /// precomputed array leave `buf` untouched and span it directly; the
    /// other tiers append the walk to `buf` and span the appended region.
    fn walk_span(&self, src: TileId, dst: TileId, buf: &mut Vec<u32>) -> (u32, u32);

    /// The flat array the spans of [`Self::walk_span`] index: the shared
    /// precomputed array for the dense tier, `buf` itself otherwise.
    fn flat<'s>(&'s self, buf: &'s [u32]) -> &'s [u32];

    /// The physical link behind a dense id, if the id is in use. Never
    /// called inside the event loop: `noc_sim::schedule_with` decodes
    /// every packet's walk through it once per run, to label the
    /// intervals and contention events of its artifacts with links and
    /// routers. Every id a walk of this source yields must decode.
    fn link_at(&self, id: u32) -> Option<Link>;

    /// Checks that a surviving route exists for the pair. The healthy
    /// tiers always succeed (their routings are total on a connected
    /// mesh); the fault-aware tier returns
    /// [`ModelError::MeshPartitioned`] when its fault set disconnects
    /// the pair, and [`Self::walk_span`] would yield a degenerate
    /// injection-plus-ejection walk. Engines call this before trusting a
    /// resolved walk, so disconnection surfaces as a typed error rather
    /// than a panic or a silently wrong cost.
    fn validate_pair(&self, _src: TileId, _dst: TileId) -> Result<(), ModelError> {
        Ok(())
    }
}

/// Closed-form dense link numbering of every tier, one slot **per tile
/// port**: injection links occupy ids `0..n`, ejection links `n..2n`,
/// and the outgoing internal links of tile `t` occupy
/// `2n + ports·t + direction` — `ports = 4` on planar meshes
/// (north, south, east, west; the historical `6n` total) and `ports = 6`
/// on 3D meshes (adding up and down TSV ports, `8n` total). Depth-1
/// numbering is therefore bit-identical to the pre-3D formula. Border
/// slots stay unused on meshes; wrap steps of the torus routers are
/// canonicalized onto the direction the coordinate delta implies, so a
/// 2-wide ring maps both ways onto the same `Link` — exactly the
/// identity [`Link::between`] gives them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkNumbering {
    mesh: Mesh,
    /// Outgoing router ports per tile: 4 planar, 6 with the TSV pair.
    ports: usize,
}

const DIR_NORTH: u32 = 0;
const DIR_SOUTH: u32 = 1;
const DIR_EAST: u32 = 2;
const DIR_WEST: u32 = 3;
const DIR_UP: u32 = 4;
const DIR_DOWN: u32 = 5;

impl LinkNumbering {
    pub(crate) fn new(mesh: &Mesh) -> Self {
        Self {
            mesh: *mesh,
            ports: if mesh.depth() == 1 { 4 } else { 6 },
        }
    }

    fn tiles(self) -> usize {
        self.mesh.tile_count()
    }

    pub(crate) fn id_count(self) -> usize {
        (2 + self.ports) * self.tiles()
    }

    pub(crate) fn injection(self, tile: TileId) -> u32 {
        tile.index() as u32
    }

    pub(crate) fn ejection(self, tile: TileId) -> u32 {
        (self.tiles() + tile.index()) as u32
    }

    /// Direction code of one routing step `a → b`, direct adjacency
    /// first, torus wrap second — so when both apply (a 2-long ring) the
    /// direct reading wins and both "directions" share one id, matching
    /// the endpoint-pair identity of [`Link::between`].
    fn step_dir(self, a: Coord, b: Coord) -> u32 {
        if a.x != b.x {
            if b.x == a.x + 1 {
                DIR_EAST
            } else if b.x + 1 == a.x {
                DIR_WEST
            } else if a.x == self.mesh.width() - 1 && b.x == 0 {
                DIR_EAST
            } else {
                debug_assert!(
                    a.x == 0 && b.x == self.mesh.width() - 1,
                    "non-adjacent x step"
                );
                DIR_WEST
            }
        } else if a.y != b.y {
            if b.y == a.y + 1 {
                DIR_SOUTH
            } else if b.y + 1 == a.y {
                DIR_NORTH
            } else if a.y == self.mesh.height() - 1 && b.y == 0 {
                DIR_SOUTH
            } else {
                debug_assert!(
                    a.y == 0 && b.y == self.mesh.height() - 1,
                    "non-adjacent y step"
                );
                DIR_NORTH
            }
        } else if b.z == a.z + 1 {
            DIR_DOWN
        } else if b.z + 1 == a.z {
            DIR_UP
        } else if a.z == self.mesh.depth() - 1 && b.z == 0 {
            DIR_DOWN
        } else {
            debug_assert!(
                a.z == 0 && b.z == self.mesh.depth() - 1,
                "non-adjacent z step"
            );
            DIR_UP
        }
    }

    pub(crate) fn internal(self, a: Coord, b: Coord) -> u32 {
        let from = self
            .mesh
            .tile_at(a)
            .expect("walk stays inside mesh") // noc-verify: allow(PANIC01) — callers pass coordinates produced by the mesh's own step walker, which never leaves the mesh
            .index() as u32;
        (2 * self.tiles()) as u32 + self.ports as u32 * from + self.step_dir(a, b)
    }

    /// Decodes an id back to its physical link; `None` for ids the
    /// encoder never produces (border slots, or the collapsed wrap slot
    /// of a 2-long ring). `wrap_xy`/`wrap_z` enable torus neighbours per
    /// axis group.
    pub(crate) fn link_at(self, id: u32, wrap_xy: bool, wrap_z: bool) -> Option<Link> {
        let n = self.tiles();
        let id = id as usize;
        if id < n {
            return Some(Link::Injection(TileId::new(id)));
        }
        if id < 2 * n {
            return Some(Link::Ejection(TileId::new(id - n)));
        }
        if id >= self.id_count() {
            return None;
        }
        let rest = id - 2 * n;
        let tile = rest / self.ports;
        let dir = (rest % self.ports) as u32;
        let (w, h, d) = (self.mesh.width(), self.mesh.height(), self.mesh.depth());
        let a = self.mesh.coord(TileId::new(tile));
        let b = match dir {
            DIR_NORTH if a.y > 0 => Coord::new3(a.x, a.y - 1, a.z),
            DIR_NORTH if wrap_xy && h > 1 => Coord::new3(a.x, h - 1, a.z),
            DIR_SOUTH if a.y + 1 < h => Coord::new3(a.x, a.y + 1, a.z),
            DIR_SOUTH if wrap_xy && h > 1 => Coord::new3(a.x, 0, a.z),
            DIR_EAST if a.x + 1 < w => Coord::new3(a.x + 1, a.y, a.z),
            DIR_EAST if wrap_xy && w > 1 => Coord::new3(0, a.y, a.z),
            DIR_WEST if a.x > 0 => Coord::new3(a.x - 1, a.y, a.z),
            DIR_WEST if wrap_xy && w > 1 => Coord::new3(w - 1, a.y, a.z),
            DIR_UP if a.z > 0 => Coord::new3(a.x, a.y, a.z - 1),
            DIR_UP if wrap_z && d > 1 => Coord::new3(a.x, a.y, d - 1),
            DIR_DOWN if a.z + 1 < d => Coord::new3(a.x, a.y, a.z + 1),
            DIR_DOWN if wrap_z && d > 1 => Coord::new3(a.x, a.y, 0),
            _ => return None,
        };
        // Reject slots the canonical encoder would map elsewhere (the
        // wrap duplicate on a 2-long ring).
        if self.step_dir(a, b) != dir {
            return None;
        }
        let to = self
            .mesh
            .tile_at(b)
            .expect("decoded neighbour is inside the mesh"); // noc-verify: allow(PANIC01) — `b` was just bounds-checked against width/height/depth in the match above
        Some(Link::between(TileId::new(tile), to))
    }
}

/// The implicit tier: allocation-free coordinate walks, no stored routes.
/// See the module docs.
#[derive(Debug, Clone)]
pub struct ImplicitRoutes {
    mesh: Mesh,
    kind: RoutingKind,
    /// The link numbering of every tier (the fault-aware tier names its
    /// detours with it).
    pub(crate) numbering: LinkNumbering,
}

impl ImplicitRoutes {
    /// Creates the walker for `mesh` under `kind`.
    pub fn new(mesh: &Mesh, kind: RoutingKind) -> Self {
        Self {
            mesh: *mesh,
            kind,
            numbering: LinkNumbering::new(mesh),
        }
    }

    /// The routing kind being walked.
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// Whether the planar / vertical axes wrap under this kind (for id
    /// decoding and the fault tier's detour neighbours) — read from the
    /// kind's own [`DimensionOrder`] so neither can diverge from the
    /// walk encoder.
    pub(crate) fn wraps(&self) -> (bool, bool) {
        let order = self.kind.order();
        (order.wrap_xy, order.wrap_z)
    }
}

impl RouteSource for ImplicitRoutes {
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
        self.kind.hop_distance(&self.mesh, src, dst) + 1
    }

    fn vertical_hops(&self, src: TileId, dst: TileId) -> usize {
        self.kind.vertical_hops(&self.mesh, src, dst)
    }

    fn walk_span(&self, src: TileId, dst: TileId, buf: &mut Vec<u32>) -> (u32, u32) {
        let start = buf.len();
        buf.push(self.numbering.injection(src));
        // The identical coordinate walk the kind's `RoutingAlgorithm`
        // performs (shared `DimensionOrder`), emitted as closed-form ids.
        self.kind
            .order()
            .for_each_step(&self.mesh, src, dst, |a, b| {
                buf.push(self.numbering.internal(a, b));
            });
        buf.push(self.numbering.ejection(dst));
        (start as u32, (buf.len() - start) as u32)
    }

    fn flat<'s>(&'s self, buf: &'s [u32]) -> &'s [u32] {
        buf
    }

    fn link_at(&self, id: u32) -> Option<Link> {
        let (wrap_xy, wrap_z) = self.wraps();
        self.numbering.link_at(id, wrap_xy, wrap_z)
    }
}

/// Which tier a [`RouteProvider`] is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteTier {
    /// Full per-pair precomputation ([`RouteCache`]).
    Dense,
    /// Coordinate walks, no stored routes.
    Implicit,
    /// Detour routing around a [`crate::fault::FaultSet`] of dead links.
    FaultAware,
}

impl RouteTier {
    /// Display/CLI name of the tier.
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Implicit => "implicit",
            Self::FaultAware => "fault-aware",
        }
    }
}

/// A tiered route supplier: one of the tiers behind the [`RouteSource`]
/// interface. See the module docs for the tiers and
/// their trade-offs.
#[derive(Debug)]
pub enum RouteProvider {
    /// The dense precomputed cache.
    Dense(Arc<RouteCache>),
    /// The allocation-free implicit walker.
    Implicit(ImplicitRoutes),
    /// The fault-aware detour router (`crate::fault`).
    FaultAware(crate::fault::FaultAwareRoutes),
}

impl RouteProvider {
    /// Dense tier for `mesh` under `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RouteCacheTooLarge`] when the mesh exceeds
    /// [`AUTO_DENSE_MAX_ENTRIES`], where [`Self::auto`] would not build
    /// it either.
    pub fn dense(mesh: &Mesh, kind: RoutingKind) -> Result<Self, ModelError> {
        Ok(Self::Dense(Arc::new(RouteCache::new(mesh, kind)?)))
    }

    /// Implicit tier for `mesh` under `kind`.
    pub fn implicit(mesh: &Mesh, kind: RoutingKind) -> Self {
        Self::Implicit(ImplicitRoutes::new(mesh, kind))
    }

    /// Fault-aware tier for `mesh` under `kind`: canonical
    /// dimension-order routes while they avoid the dead links of
    /// `faults`, cached BFS detours otherwise. With an empty fault set
    /// this tier is bit-identical to [`Self::implicit`].
    pub fn fault_aware(mesh: &Mesh, kind: RoutingKind, faults: crate::fault::FaultSet) -> Self {
        Self::FaultAware(crate::fault::FaultAwareRoutes::new(mesh, kind, faults))
    }

    /// Size-based automatic tier choice: dense while the estimated
    /// tables stay within [`AUTO_DENSE_MAX_ENTRIES`], implicit beyond.
    /// Never fails and never precomputes more than the threshold allows.
    pub fn auto(mesh: &Mesh, kind: RoutingKind) -> Self {
        Self::dense(mesh, kind).unwrap_or_else(|_| Self::implicit(mesh, kind))
    }

    /// The tier this provider runs.
    pub fn tier(&self) -> RouteTier {
        match self {
            Self::Dense(_) => RouteTier::Dense,
            Self::Implicit(_) => RouteTier::Implicit,
            Self::FaultAware(_) => RouteTier::FaultAware,
        }
    }

    /// Whether a [`crate::WalkMemo`] may front this provider: every
    /// buffering tier (`walk_span` appends the walk to the caller's
    /// buffer). Only the dense tier is excluded: its spans index its own
    /// flat array, so there is nothing for a memo to replay.
    pub fn memo_compatible(&self) -> bool {
        !matches!(self, Self::Dense(_))
    }

    /// The fault-aware router, when this is the fault-aware tier.
    // noc-verify: allow(API02) — test oracle: the fault tests read the tier's fault set through it
    pub fn as_fault_aware(&self) -> Option<&crate::fault::FaultAwareRoutes> {
        match self {
            Self::FaultAware(routes) => Some(routes),
            _ => None,
        }
    }
}

impl RouteSource for RouteProvider {
    fn mesh(&self) -> &Mesh {
        match self {
            Self::Dense(c) => RouteSource::mesh(c.as_ref()),
            Self::Implicit(i) => RouteSource::mesh(i),
            Self::FaultAware(f) => RouteSource::mesh(f),
        }
    }

    fn routing_name(&self) -> &'static str {
        match self {
            Self::Dense(c) => RouteSource::routing_name(c.as_ref()),
            Self::Implicit(i) => RouteSource::routing_name(i),
            Self::FaultAware(f) => RouteSource::routing_name(f),
        }
    }

    fn dense_link_count(&self) -> usize {
        match self {
            Self::Dense(c) => RouteSource::dense_link_count(c.as_ref()),
            Self::Implicit(i) => RouteSource::dense_link_count(i),
            Self::FaultAware(f) => RouteSource::dense_link_count(f),
        }
    }

    fn router_count(&self, src: TileId, dst: TileId) -> usize {
        match self {
            Self::Dense(c) => RouteSource::router_count(c.as_ref(), src, dst),
            Self::Implicit(i) => RouteSource::router_count(i, src, dst),
            Self::FaultAware(f) => RouteSource::router_count(f, src, dst),
        }
    }

    fn vertical_hops(&self, src: TileId, dst: TileId) -> usize {
        match self {
            Self::Dense(c) => RouteSource::vertical_hops(c.as_ref(), src, dst),
            Self::Implicit(i) => RouteSource::vertical_hops(i, src, dst),
            Self::FaultAware(f) => RouteSource::vertical_hops(f, src, dst),
        }
    }

    fn walk_span(&self, src: TileId, dst: TileId, buf: &mut Vec<u32>) -> (u32, u32) {
        match self {
            Self::Dense(c) => RouteSource::walk_span(c.as_ref(), src, dst, buf),
            Self::Implicit(i) => RouteSource::walk_span(i, src, dst, buf),
            Self::FaultAware(f) => RouteSource::walk_span(f, src, dst, buf),
        }
    }

    fn flat<'s>(&'s self, buf: &'s [u32]) -> &'s [u32] {
        match self {
            Self::Dense(c) => RouteSource::flat(c.as_ref(), buf),
            Self::Implicit(_) | Self::FaultAware(_) => buf,
        }
    }

    fn link_at(&self, id: u32) -> Option<Link> {
        match self {
            Self::Dense(c) => RouteSource::link_at(c.as_ref(), id),
            Self::Implicit(i) => RouteSource::link_at(i, id),
            Self::FaultAware(f) => RouteSource::link_at(f, id),
        }
    }

    fn validate_pair(&self, src: TileId, dst: TileId) -> Result<(), ModelError> {
        match self {
            Self::Dense(_) | Self::Implicit(_) => Ok(()),
            Self::FaultAware(f) => f.validate_pair(src, dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_walk<S: RouteSource>(source: &S, src: TileId, dst: TileId) -> Vec<Link> {
        let mut buf = Vec::new();
        let (start, len) = source.walk_span(src, dst, &mut buf);
        let flat = source.flat(&buf);
        flat[start as usize..(start + len) as usize]
            .iter()
            .map(|&id| source.link_at(id).expect("walk ids decode"))
            .collect()
    }

    /// Every tier over `mesh` under `kind`, healthy (no dead links).
    fn tiers(mesh: &Mesh, kind: RoutingKind) -> [RouteProvider; 3] {
        [
            RouteProvider::dense(mesh, kind).unwrap(),
            RouteProvider::implicit(mesh, kind),
            RouteProvider::fault_aware(mesh, kind, crate::fault::FaultSet::new()),
        ]
    }

    #[test]
    fn every_tier_walks_the_routing_algorithm() {
        for (w, h, d) in [
            (1, 1, 1),
            (1, 4, 1),
            (2, 2, 1),
            (2, 3, 1),
            (4, 4, 1),
            (5, 3, 1),
            (2, 2, 2),
            (3, 2, 3),
            (4, 4, 4),
        ] {
            let mesh = Mesh::new3(w, h, d).unwrap();
            for kind in RoutingKind::ALL {
                for tier in tiers(&mesh, kind) {
                    for src in mesh.tiles() {
                        for dst in mesh.tiles() {
                            let path = kind.algorithm().route(&mesh, src, dst);
                            let at = format!("{kind:?} {:?} {w}x{h}x{d} {src}->{dst}", tier.tier());
                            assert_eq!(decode_walk(&tier, src, dst), path.links(), "{at}");
                            assert_eq!(tier.router_count(src, dst), path.router_count(), "{at}");
                            assert_eq!(
                                tier.vertical_hops(src, dst),
                                path.vertical_link_count(&mesh),
                                "{at}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn auto_picks_dense_small_and_implicit_large() {
        let tier = |w, h| RouteProvider::auto(&Mesh::new(w, h).unwrap(), RoutingKind::Xy).tier();
        assert_eq!(tier(8, 8), RouteTier::Dense);
        // 29×29 is the largest square mesh within the threshold (checked
        // on the estimate, without building its tables), 30×30 the
        // smallest beyond it.
        let estimate = |w| RouteCache::dense_entry_estimate(&Mesh::new(w, w).unwrap());
        assert!(estimate(29) <= AUTO_DENSE_MAX_ENTRIES);
        assert!(estimate(30) > AUTO_DENSE_MAX_ENTRIES);
        assert_eq!(tier(30, 30), RouteTier::Implicit);
        let provider = RouteProvider::auto(&Mesh::new(64, 64).unwrap(), RoutingKind::Xy);
        assert_eq!(provider.tier(), RouteTier::Implicit);
        // 3D meshes go through the same size logic: a 4×4×4 cube still
        // fits densely, a 32×32×8 stack does not.
        assert_eq!(
            RouteProvider::auto(&Mesh::new3(4, 4, 4).unwrap(), RoutingKind::Xyz).tier(),
            RouteTier::Dense
        );
        assert_eq!(
            RouteProvider::auto(&Mesh::new3(32, 32, 8).unwrap(), RoutingKind::Xyz).tier(),
            RouteTier::Implicit
        );
        // Tier names for CLI/reporting.
        assert_eq!(RouteTier::Dense.name(), "dense");
        assert_eq!(RouteTier::Implicit.name(), "implicit");
    }

    #[test]
    fn dense_tier_surfaces_the_typed_error() {
        let large = Mesh::new(64, 64).unwrap();
        assert!(matches!(
            RouteProvider::dense(&large, RoutingKind::Xy),
            Err(ModelError::RouteCacheTooLarge { .. })
        ));
    }

    #[test]
    fn numbering_decode_rejects_unused_slots() {
        let mesh = Mesh::new(3, 3).unwrap();
        let implicit = ImplicitRoutes::new(&mesh, RoutingKind::Xy);
        // Planar meshes keep the historical 4-port (6n-id) numbering.
        let n = mesh.tile_count() as u32;
        assert_eq!(RouteSource::dense_link_count(&implicit), 6 * n as usize);
        // North slot of tile 0 (top row) has no neighbour.
        assert_eq!(implicit.link_at(2 * n + DIR_NORTH), None);
        // Out-of-range ids decode to nothing.
        assert_eq!(implicit.link_at(6 * n), None);
        // Every id an actual walk produces decodes, and round-trips
        // uniquely: two distinct ids never decode to the same link.
        let mut seen = std::collections::HashMap::new();
        for id in 0..RouteSource::dense_link_count(&implicit) as u32 {
            if let Some(link) = implicit.link_at(id) {
                assert!(
                    seen.insert(link, id).is_none(),
                    "link {link} decoded from two ids"
                );
            }
        }
    }

    #[test]
    fn numbering_decode_is_injective_in_3d() {
        for kind in [RoutingKind::Xyz, RoutingKind::TorusXyz] {
            let mesh = Mesh::new3(3, 2, 3).unwrap();
            let implicit = ImplicitRoutes::new(&mesh, kind);
            let n = mesh.tile_count();
            // 3D meshes use the 6-port (8n-id) numbering.
            assert_eq!(RouteSource::dense_link_count(&implicit), 8 * n);
            // Top layer has no Up neighbour without z wrap.
            let up_of_t0 = (2 * n) as u32 + DIR_UP;
            if kind == RoutingKind::TorusXyz {
                assert!(implicit.link_at(up_of_t0).is_some(), "z wrap decodes");
            } else {
                assert_eq!(implicit.link_at(up_of_t0), None);
            }
            let mut seen = std::collections::HashMap::new();
            for id in 0..RouteSource::dense_link_count(&implicit) as u32 {
                if let Some(link) = implicit.link_at(id) {
                    assert!(
                        seen.insert(link, id).is_none(),
                        "{kind:?}: link {link} decoded from two ids"
                    );
                }
            }
        }
    }

    #[test]
    fn two_wide_torus_collapses_wrap_links() {
        // On a 2-wide ring, east-wrap and west from the same tile land on
        // the same neighbour: one physical link, which every tier names
        // with one id, as the routing algorithm's `Link::between` does.
        // Same for a 2-deep stack under the 3D torus.
        for (mesh, kind) in [
            (Mesh::new(2, 1).unwrap(), RoutingKind::TorusXy),
            (Mesh::new3(2, 1, 2).unwrap(), RoutingKind::TorusXyz),
            (Mesh::new3(1, 1, 2).unwrap(), RoutingKind::TorusXyz),
        ] {
            for tier in tiers(&mesh, kind) {
                let mut ids = std::collections::HashMap::new();
                for src in mesh.tiles() {
                    for dst in mesh.tiles() {
                        let want = kind.algorithm().route(&mesh, src, dst).links();
                        assert_eq!(decode_walk(&tier, src, dst), want, "{kind:?} {src}->{dst}");
                        let mut buf = Vec::new();
                        let (start, len) = tier.walk_span(src, dst, &mut buf);
                        let walk = &tier.flat(&buf)[start as usize..(start + len) as usize];
                        for (&id, link) in walk.iter().zip(want) {
                            assert_eq!(*ids.entry(link).or_insert(id), id, "{kind:?} {link}");
                        }
                    }
                }
            }
        }
    }
}
