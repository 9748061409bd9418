//! Deterministic routing algorithms and routed paths.
//!
//! The paper evaluates a mesh NoC with deterministic, dimension-ordered
//! **XY** routing: a packet first travels along the X dimension to the
//! destination column, then along Y. [`XyRouting`] implements exactly that;
//! [`YxRouting`] (Y first) is provided as an alternative for ablations.
//! On 3D meshes every dimension-ordered router finishes with the Z axis
//! ([`XyzRouting`] is the canonical 3D name), and the torus variants
//! ([`TorusXyRouting`], [`TorusXyzRouting`]) wrap around their respective
//! axes.
//!
//! A [`Path`] is the ordered list of routers a packet traverses (`K`
//! routers in the paper's equations) and exposes the full ordered resource
//! list — injection link, routers, inter-router links, ejection link —
//! consumed by the timing and energy models.

use crate::crg::{Coord, Link, Mesh};
use crate::ids::TileId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A routed path through the mesh: the sequence of routers from the source
/// tile to the destination tile (both inclusive).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    routers: Vec<TileId>,
}

impl Path {
    /// Builds a path from an ordered, non-empty router list.
    ///
    /// # Panics
    ///
    /// Panics if `routers` is empty (every path visits at least the source
    /// router).
    pub fn new(routers: Vec<TileId>) -> Self {
        assert!(!routers.is_empty(), "a path visits at least one router");
        Self { routers }
    }

    /// The routers visited, in order. `K = self.routers().len()` in the
    /// paper's Equations (2) and (6)–(8).
    pub fn routers(&self) -> &[TileId] {
        &self.routers
    }

    /// Number of routers traversed (the paper's `K`).
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Number of *vertical* (TSV) inter-router links traversed: the steps
    /// whose endpoints lie on different layers of `mesh`. Always `0` on a
    /// depth-1 mesh, so the planar energy model is untouched.
    ///
    /// # Panics
    ///
    /// Panics if a router of the path lies outside `mesh`.
    pub fn vertical_link_count(&self, mesh: &Mesh) -> usize {
        if mesh.depth() == 1 {
            return 0;
        }
        self.routers
            .windows(2)
            .filter(|w| mesh.coord(w[0]).z != mesh.coord(w[1]).z)
            .count()
    }

    /// Source tile.
    pub fn source(&self) -> TileId {
        self.routers[0]
    }

    /// Destination tile.
    pub fn destination(&self) -> TileId {
        *self.routers.last().expect("non-empty")
    }

    /// The directed inter-router links of the path, in traversal order.
    pub fn internal_links(&self) -> impl Iterator<Item = Link> + '_ {
        self.routers.windows(2).map(|w| Link::between(w[0], w[1]))
    }

    /// The complete ordered resource walk of a packet following this path:
    /// injection link, then alternating router / link hops, then the
    /// ejection link. Routers are *not* part of this list; the timing model
    /// tracks router occupancy separately from the serializing links.
    pub fn links(&self) -> Vec<Link> {
        let mut seq = Vec::with_capacity(self.routers.len() + 1);
        seq.push(Link::Injection(self.source()));
        seq.extend(self.internal_links());
        seq.push(Link::Ejection(self.destination()));
        seq
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.routers.iter().map(|t| t.to_string()).collect();
        write!(f, "{}", parts.join(" → "))
    }
}

/// A deterministic unicast routing function on a mesh.
///
/// Implementations must return a connected path starting at `src` and
/// ending at `dst` whose consecutive routers are mesh-adjacent (or
/// torus-adjacent); `route` for `src == dst` returns the single-router
/// path (local delivery).
pub trait RoutingAlgorithm: fmt::Debug {
    /// Routes a packet from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if either tile lies outside `mesh`.
    fn route(&self, mesh: &Mesh, src: TileId, dst: TileId) -> Path;

    /// Short human-readable name ("XY", "YX", …).
    ///
    /// Every route tier walks a [`RoutingKind`], never a custom
    /// algorithm: callers that take a `dyn RoutingAlgorithm` for a timed
    /// run (`noc_sim::schedule_with`) resolve it by this name through
    /// [`RoutingKind::from_name`] and refuse a name it does not know.
    /// The names of the library algorithms (`"XY"`, `"YX"`,
    /// `"torus-XY"`, `"XYZ"`, `"torus-XYZ"`) are therefore **reserved**:
    /// a custom implementation must only report one of them if it
    /// produces identical routes.
    fn name(&self) -> &'static str;
}

/// The axis sweep order and wrap behaviour of one dimension-ordered
/// router. Every library routing is an instance of this walk; the
/// implicit route provider replays the identical step sequence from
/// coordinates, which is what keeps the tiers bit-exact.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DimensionOrder {
    /// Sweep Y before X (YX routing); X-first otherwise.
    pub(crate) y_first: bool,
    /// Wrap the planar axes (torus links in X and Y).
    pub(crate) wrap_xy: bool,
    /// Wrap the vertical axis (torus links in Z).
    pub(crate) wrap_z: bool,
}

impl DimensionOrder {
    /// Visits every routing step `a → b` of the pair's route, in order.
    /// The Z axis is always swept last — on a depth-1 mesh the Z sweep is
    /// empty and the walk is exactly the planar algorithm's.
    pub(crate) fn for_each_step(
        self,
        mesh: &Mesh,
        src: TileId,
        dst: TileId,
        mut f: impl FnMut(Coord, Coord),
    ) {
        let to = mesh.coord(dst);
        let mut cur = mesh.coord(src);
        let (w, h, d) = (mesh.width(), mesh.height(), mesh.depth());
        let sweep_x = |cur: &mut Coord, f: &mut dyn FnMut(Coord, Coord)| {
            while cur.x != to.x {
                let nx = if self.wrap_xy {
                    ring_step(cur.x, to.x, w)
                } else if cur.x < to.x {
                    cur.x + 1
                } else {
                    cur.x - 1
                };
                let next = Coord::new3(nx, cur.y, cur.z);
                f(*cur, next);
                *cur = next;
            }
        };
        let sweep_y = |cur: &mut Coord, f: &mut dyn FnMut(Coord, Coord)| {
            while cur.y != to.y {
                let ny = if self.wrap_xy {
                    ring_step(cur.y, to.y, h)
                } else if cur.y < to.y {
                    cur.y + 1
                } else {
                    cur.y - 1
                };
                let next = Coord::new3(cur.x, ny, cur.z);
                f(*cur, next);
                *cur = next;
            }
        };
        if self.y_first {
            sweep_y(&mut cur, &mut f);
            sweep_x(&mut cur, &mut f);
        } else {
            sweep_x(&mut cur, &mut f);
            sweep_y(&mut cur, &mut f);
        }
        while cur.z != to.z {
            let nz = if self.wrap_z {
                ring_step(cur.z, to.z, d)
            } else if cur.z < to.z {
                cur.z + 1
            } else {
                cur.z - 1
            };
            let next = Coord::new3(cur.x, cur.y, nz);
            f(cur, next);
            cur = next;
        }
    }

    /// Materializes the walk as a [`Path`].
    fn route(self, mesh: &Mesh, src: TileId, dst: TileId) -> Path {
        let mut routers = Vec::with_capacity(mesh.manhattan(src, dst) + 1);
        routers.push(src);
        self.for_each_step(mesh, src, dst, |_, b| {
            routers.push(mesh.tile_at(b).expect("sweep stays inside mesh"));
        });
        Path::new(routers)
    }
}

/// Dimension-ordered XY routing (X first, then Y, then Z on 3D meshes) —
/// the algorithm the paper evaluates. Deadlock-free and minimal on
/// meshes.
///
/// # Examples
///
/// ```
/// use noc_model::crg::Mesh;
/// use noc_model::ids::TileId;
/// use noc_model::routing::{RoutingAlgorithm, XyRouting};
///
/// # fn main() -> Result<(), noc_model::ModelError> {
/// let mesh = Mesh::new(2, 2)?;
/// // τ2 → τ3 in the paper (tiles 1 → 2): X first through tile 0.
/// let path = XyRouting.route(&mesh, TileId::new(1), TileId::new(2));
/// let ids: Vec<usize> = path.routers().iter().map(|t| t.index()).collect();
/// assert_eq!(ids, vec![1, 0, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct XyRouting;

pub(crate) const XY_ORDER: DimensionOrder = DimensionOrder {
    y_first: false,
    wrap_xy: false,
    wrap_z: false,
};

pub(crate) const YX_ORDER: DimensionOrder = DimensionOrder {
    y_first: true,
    wrap_xy: false,
    wrap_z: false,
};

pub(crate) const TORUS_XY_ORDER: DimensionOrder = DimensionOrder {
    y_first: false,
    wrap_xy: true,
    wrap_z: false,
};

pub(crate) const TORUS_XYZ_ORDER: DimensionOrder = DimensionOrder {
    y_first: false,
    wrap_xy: true,
    wrap_z: true,
};

impl RoutingAlgorithm for XyRouting {
    fn route(&self, mesh: &Mesh, src: TileId, dst: TileId) -> Path {
        XY_ORDER.route(mesh, src, dst)
    }

    fn name(&self) -> &'static str {
        "XY"
    }
}

/// Dimension-ordered YX routing (Y first, then X, then Z); useful for
/// routing ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct YxRouting;

impl RoutingAlgorithm for YxRouting {
    fn route(&self, mesh: &Mesh, src: TileId, dst: TileId) -> Path {
        YX_ORDER.route(mesh, src, dst)
    }

    fn name(&self) -> &'static str {
        "YX"
    }
}

/// Dimension-ordered XYZ routing on a 3D mesh: X, then Y, then Z down
/// the TSV pillars. This is the canonical deterministic router of the 3D
/// NoC mapping literature (Jha et al.); its routes coincide with
/// [`XyRouting`]'s on every mesh (XY already sweeps Z last), but it is a
/// distinct named algorithm so 3D experiments say what they run and so
/// the CLI exposes `--routing xyz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct XyzRouting;

impl RoutingAlgorithm for XyzRouting {
    fn route(&self, mesh: &Mesh, src: TileId, dst: TileId) -> Path {
        XY_ORDER.route(mesh, src, dst)
    }

    fn name(&self) -> &'static str {
        "XYZ"
    }
}

/// The routing algorithms the library ships, as a closed enum.
///
/// The `dyn RoutingAlgorithm` objects above are open for extension; this
/// enum is the *closed* subset the implicit and fault-aware route
/// providers (see [`crate::route_provider`]) can walk directly from coordinates,
/// with closed-form hop distances and no stored routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// [`XyRouting`] — the paper's default.
    Xy,
    /// [`YxRouting`].
    Yx,
    /// [`TorusXyRouting`].
    TorusXy,
    /// [`XyzRouting`] — dimension-ordered 3D routing.
    Xyz,
    /// [`TorusXyzRouting`] — 3D torus with wrap links on all axes.
    TorusXyz,
}

impl RoutingKind {
    /// All library routing kinds, in declaration order (test and CLI
    /// enumeration helper).
    pub const ALL: [RoutingKind; 5] =
        [Self::Xy, Self::Yx, Self::TorusXy, Self::Xyz, Self::TorusXyz];

    /// The corresponding routing algorithm object.
    pub fn algorithm(self) -> &'static dyn RoutingAlgorithm {
        match self {
            Self::Xy => &XyRouting,
            Self::Yx => &YxRouting,
            Self::TorusXy => &TorusXyRouting,
            Self::Xyz => &XyzRouting,
            Self::TorusXyz => &TorusXyzRouting,
        }
    }

    /// The coordinate walk this kind performs (shared with the implicit
    /// route provider).
    pub(crate) fn order(self) -> DimensionOrder {
        match self {
            Self::Xy | Self::Xyz => XY_ORDER,
            Self::Yx => YX_ORDER,
            Self::TorusXy => TORUS_XY_ORDER,
            Self::TorusXyz => TORUS_XYZ_ORDER,
        }
    }

    /// The algorithm's display name (identical to
    /// [`RoutingAlgorithm::name`] of [`Self::algorithm`]).
    pub fn name(self) -> &'static str {
        self.algorithm().name()
    }

    /// Resolves an algorithm name ("XY", " yx ", "torus-xy", "xyz", …)
    /// back to its kind, ignoring surrounding whitespace and ASCII case;
    /// `None` for algorithms outside the closed set.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "xy" => Some(Self::Xy),
            "yx" => Some(Self::Yx),
            "torus-xy" | "torus" => Some(Self::TorusXy),
            "xyz" => Some(Self::Xyz),
            "torus-xyz" => Some(Self::TorusXyz),
            _ => None,
        }
    }

    /// Number of inter-router hops of the route from `src` to `dst`
    /// (`router_count - 1`), in closed form — `O(1)`, no route is walked.
    pub fn hop_distance(self, mesh: &Mesh, src: TileId, dst: TileId) -> usize {
        let a = mesh.coord(src);
        let b = mesh.coord(dst);
        match self {
            // All dimension orders traverse the same Manhattan distance
            // (the Z sweep adds |Δz| on 3D meshes, 0 on planar ones).
            Self::Xy | Self::Yx | Self::Xyz => a.manhattan(b),
            Self::TorusXy => {
                ring_dist(a.x, b.x, mesh.width())
                    + ring_dist(a.y, b.y, mesh.height())
                    + a.z.abs_diff(b.z)
            }
            Self::TorusXyz => {
                ring_dist(a.x, b.x, mesh.width())
                    + ring_dist(a.y, b.y, mesh.height())
                    + ring_dist(a.z, b.z, mesh.depth())
            }
        }
    }

    /// Number of *vertical* (TSV) hops of the route, in closed form —
    /// the count [`Path::vertical_link_count`] returns for the walked
    /// route. `0` on depth-1 meshes for every kind.
    pub fn vertical_hops(self, mesh: &Mesh, src: TileId, dst: TileId) -> usize {
        let (az, bz) = (mesh.coord(src).z, mesh.coord(dst).z);
        match self {
            Self::TorusXyz => ring_dist(az, bz, mesh.depth()),
            _ => az.abs_diff(bz),
        }
    }
}

/// Minimal distance along a ring of length `len`.
pub(crate) fn ring_dist(from: usize, to: usize, len: usize) -> usize {
    let forward = (to + len - from) % len;
    let backward = (from + len - to) % len;
    forward.min(backward)
}

/// Dimension-ordered XY routing on a **torus** (the mesh with wrap-around
/// links in the two planar dimensions). Each wrapped dimension moves in
/// the direction of the shorter way around (ties go the positive way),
/// so routes are minimal on the torus. On 3D meshes the Z axis is swept
/// last *without* wrap links (stacked toroidal layers); use
/// [`TorusXyzRouting`] for a full 3D torus.
///
/// The paper notes that "other NoC topologies can be equally treated";
/// this router is that extension: the timing and energy engines only
/// consume the routed [`Path`], so torus experiments reuse them
/// unchanged. (The flit-level DES in `noc-sim` remains wrap-free —
/// dimension-ordered XY/XYZ meshes only.)
///
/// # Examples
///
/// ```
/// use noc_model::crg::Mesh;
/// use noc_model::ids::TileId;
/// use noc_model::routing::{RoutingAlgorithm, TorusXyRouting};
///
/// # fn main() -> Result<(), noc_model::ModelError> {
/// let mesh = Mesh::new(4, 1)?;
/// // 0 → 3 wraps west: one hop instead of three.
/// let path = TorusXyRouting.route(&mesh, TileId::new(0), TileId::new(3));
/// assert_eq!(path.router_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TorusXyRouting;

/// One minimal step along a ring of length `len` from `from` towards
/// `to`, preferring the positive direction on ties.
pub(crate) fn ring_step(from: usize, to: usize, len: usize) -> usize {
    debug_assert_ne!(from, to);
    let forward = (to + len - from) % len;
    let backward = (from + len - to) % len;
    if forward <= backward {
        (from + 1) % len
    } else {
        (from + len - 1) % len
    }
}

impl RoutingAlgorithm for TorusXyRouting {
    fn route(&self, mesh: &Mesh, src: TileId, dst: TileId) -> Path {
        TORUS_XY_ORDER.route(mesh, src, dst)
    }

    fn name(&self) -> &'static str {
        "torus-XY"
    }
}

/// Dimension-ordered routing on a full **3D torus**: wrap-around links
/// on all three axes, each swept the shorter way around (X, then Y,
/// then Z).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TorusXyzRouting;

impl RoutingAlgorithm for TorusXyzRouting {
    fn route(&self, mesh: &Mesh, src: TileId, dst: TileId) -> Path {
        TORUS_XYZ_ORDER.route(mesh, src, dst)
    }

    fn name(&self) -> &'static str {
        "torus-XYZ"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crg::Coord;

    fn mesh4() -> Mesh {
        Mesh::new(4, 4).unwrap()
    }

    #[test]
    fn xy_goes_x_first() {
        let m = mesh4();
        let src = m.tile_at(Coord::new(0, 0)).unwrap();
        let dst = m.tile_at(Coord::new(2, 2)).unwrap();
        let path = XyRouting.route(&m, src, dst);
        let coords: Vec<Coord> = path.routers().iter().map(|&t| m.coord(t)).collect();
        assert_eq!(
            coords,
            vec![
                Coord::new(0, 0),
                Coord::new(1, 0),
                Coord::new(2, 0),
                Coord::new(2, 1),
                Coord::new(2, 2),
            ]
        );
    }

    #[test]
    fn yx_goes_y_first() {
        let m = mesh4();
        let src = m.tile_at(Coord::new(0, 0)).unwrap();
        let dst = m.tile_at(Coord::new(2, 2)).unwrap();
        let path = YxRouting.route(&m, src, dst);
        let coords: Vec<Coord> = path.routers().iter().map(|&t| m.coord(t)).collect();
        assert_eq!(
            coords,
            vec![
                Coord::new(0, 0),
                Coord::new(0, 1),
                Coord::new(0, 2),
                Coord::new(1, 2),
                Coord::new(2, 2),
            ]
        );
    }

    #[test]
    fn route_to_self_is_single_router() {
        let m = mesh4();
        let t = TileId::new(5);
        let path = XyRouting.route(&m, t, t);
        assert_eq!(path.router_count(), 1);
        assert_eq!(path.source(), t);
        assert_eq!(path.destination(), t);
    }

    #[test]
    fn route_is_minimal_and_adjacent() {
        let m = mesh4();
        for src in m.tiles() {
            for dst in m.tiles() {
                for algo in [&XyRouting as &dyn RoutingAlgorithm, &YxRouting] {
                    let path = algo.route(&m, src, dst);
                    assert_eq!(path.source(), src);
                    assert_eq!(path.destination(), dst);
                    assert_eq!(path.router_count(), m.manhattan(src, dst) + 1);
                    for w in path.routers().windows(2) {
                        assert!(m.direction_between(w[0], w[1]).is_some());
                    }
                }
            }
        }
    }

    #[test]
    fn routes_sweep_z_last_on_3d_meshes() {
        let m = Mesh::new3(3, 3, 3).unwrap();
        let src = m.tile_at(Coord::new3(0, 0, 0)).unwrap();
        let dst = m.tile_at(Coord::new3(2, 1, 2)).unwrap();
        for algo in [&XyRouting as &dyn RoutingAlgorithm, &YxRouting, &XyzRouting] {
            let path = algo.route(&m, src, dst);
            assert_eq!(path.source(), src);
            assert_eq!(path.destination(), dst);
            assert_eq!(path.router_count(), m.manhattan(src, dst) + 1);
            assert_eq!(path.vertical_link_count(&m), 2, "{algo:?}");
            // The planar part completes before the first layer change.
            let coords: Vec<Coord> = path.routers().iter().map(|&t| m.coord(t)).collect();
            let first_z = coords.iter().position(|c| c.z != 0).unwrap();
            assert_eq!(coords[first_z - 1].x, 2);
            assert_eq!(coords[first_z - 1].y, 1);
            for w in path.routers().windows(2) {
                assert!(m.direction_between(w[0], w[1]).is_some());
            }
        }
    }

    #[test]
    fn xyz_routes_equal_xy_routes_everywhere() {
        for mesh in [Mesh::new(4, 3).unwrap(), Mesh::new3(3, 2, 3).unwrap()] {
            for src in mesh.tiles() {
                for dst in mesh.tiles() {
                    assert_eq!(
                        XyzRouting.route(&mesh, src, dst).routers(),
                        XyRouting.route(&mesh, src, dst).routers()
                    );
                }
            }
        }
    }

    #[test]
    fn torus_xyz_wraps_every_axis() {
        let m = Mesh::new3(4, 4, 4).unwrap();
        let a = m.tile_at(Coord::new3(0, 0, 0)).unwrap();
        let b = m.tile_at(Coord::new3(3, 0, 3)).unwrap();
        let path = TorusXyzRouting.route(&m, a, b);
        // One wrap hop west plus one wrap hop up.
        assert_eq!(path.router_count(), 3);
        assert_eq!(path.vertical_link_count(&m), 1);
        // torus-XY on the same pair wraps X but must walk Z the long way.
        let planar = TorusXyRouting.route(&m, a, b);
        assert_eq!(planar.router_count(), 5);
        assert_eq!(planar.vertical_link_count(&m), 3);
    }

    #[test]
    fn westward_and_northward_routes() {
        let m = mesh4();
        let src = m.tile_at(Coord::new(3, 3)).unwrap();
        let dst = m.tile_at(Coord::new(1, 0)).unwrap();
        let path = XyRouting.route(&m, src, dst);
        assert_eq!(path.router_count(), 6);
        assert_eq!(path.source(), src);
        assert_eq!(path.destination(), dst);
    }

    #[test]
    fn resource_walk_shape() {
        let m = mesh4();
        let src = TileId::new(0);
        let dst = TileId::new(3);
        let path = XyRouting.route(&m, src, dst);
        let links = path.links();
        assert_eq!(links.first(), Some(&Link::Injection(src)));
        assert_eq!(links.last(), Some(&Link::Ejection(dst)));
        assert_eq!(links.len(), path.router_count() + 1);
        assert!(links[1..links.len() - 1].iter().all(Link::is_internal));
    }

    #[test]
    fn paper_figure1_mapping_a_route_a_to_f() {
        // Mapping (c): A on τ2 (tile 1), F on τ3 (tile 2). The paper shows
        // the A→F packet crossing router τ1 (tile 0), which is the X-first
        // route.
        let m = Mesh::new(2, 2).unwrap();
        let path = XyRouting.route(&m, TileId::new(1), TileId::new(2));
        assert_eq!(
            path.routers(),
            &[TileId::new(1), TileId::new(0), TileId::new(2)]
        );
        assert_eq!(path.to_string(), "t1 → t0 → t2");
    }

    #[test]
    fn torus_wraps_the_short_way() {
        let m = Mesh::new(5, 5).unwrap();
        let a = m.tile_at(Coord::new(0, 0)).unwrap();
        let b = m.tile_at(Coord::new(4, 0)).unwrap();
        let path = TorusXyRouting.route(&m, a, b);
        assert_eq!(path.router_count(), 2, "wrap west is one hop");
        let c = m.tile_at(Coord::new(0, 4)).unwrap();
        assert_eq!(TorusXyRouting.route(&m, a, c).router_count(), 2);
    }

    #[test]
    fn torus_matches_mesh_inside_short_distances() {
        let m = Mesh::new(5, 5).unwrap();
        let a = m.tile_at(Coord::new(1, 1)).unwrap();
        let b = m.tile_at(Coord::new(3, 2)).unwrap();
        assert_eq!(
            TorusXyRouting.route(&m, a, b).routers(),
            XyRouting.route(&m, a, b).routers()
        );
    }

    #[test]
    fn torus_routes_never_exceed_mesh_routes() {
        let m = Mesh::new(4, 3).unwrap();
        for src in m.tiles() {
            for dst in m.tiles() {
                let torus = TorusXyRouting.route(&m, src, dst).router_count();
                let mesh_route = XyRouting.route(&m, src, dst).router_count();
                assert!(torus <= mesh_route, "{src}->{dst}");
                assert!(
                    TorusXyRouting.route(&m, src, dst).router_count() - 1
                        <= m.width() / 2 + m.height() / 2 + 1
                );
            }
        }
    }

    #[test]
    fn torus_route_endpoints() {
        let m = Mesh::new(6, 2).unwrap();
        for src in m.tiles() {
            for dst in m.tiles() {
                let path = TorusXyRouting.route(&m, src, dst);
                assert_eq!(path.source(), src);
                assert_eq!(path.destination(), dst);
            }
        }
    }

    #[test]
    fn ring_step_prefers_positive_on_ties() {
        // len 4, 0 -> 2: both ways are 2 hops; positive preferred.
        assert_eq!(ring_step(0, 2, 4), 1);
        assert_eq!(ring_step(3, 1, 4), 0); // wrap forward
        assert_eq!(ring_step(1, 0, 4), 0); // backward shorter
    }

    #[test]
    #[should_panic(expected = "at least one router")]
    fn empty_path_panics() {
        let _ = Path::new(Vec::new());
    }

    #[test]
    fn routing_kind_round_trips_names() {
        for kind in RoutingKind::ALL {
            assert_eq!(RoutingKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.algorithm().name(), kind.name());
        }
        assert_eq!(RoutingKind::from_name("torus"), Some(RoutingKind::TorusXy));
        assert_eq!(RoutingKind::from_name("XYZ"), Some(RoutingKind::Xyz));
        assert_eq!(
            RoutingKind::from_name("torus-xyz"),
            Some(RoutingKind::TorusXyz)
        );
        assert_eq!(RoutingKind::from_name("zigzag"), None);
    }

    #[test]
    fn hop_distance_matches_walked_routes() {
        for mesh in [
            Mesh::new(5, 3).unwrap(),
            Mesh::new3(3, 2, 4).unwrap(),
            Mesh::new3(2, 2, 2).unwrap(),
        ] {
            for kind in RoutingKind::ALL {
                for src in mesh.tiles() {
                    for dst in mesh.tiles() {
                        assert_eq!(
                            kind.hop_distance(&mesh, src, dst) + 1,
                            kind.algorithm().route(&mesh, src, dst).router_count(),
                            "{kind:?} {src}->{dst}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vertical_hops_match_walked_routes() {
        for mesh in [
            Mesh::new(4, 3).unwrap(),
            Mesh::new3(3, 3, 3).unwrap(),
            Mesh::new3(2, 2, 5).unwrap(),
        ] {
            for kind in RoutingKind::ALL {
                for src in mesh.tiles() {
                    for dst in mesh.tiles() {
                        let path = kind.algorithm().route(&mesh, src, dst);
                        assert_eq!(
                            kind.vertical_hops(&mesh, src, dst),
                            path.vertical_link_count(&mesh),
                            "{kind:?} {src}->{dst}"
                        );
                    }
                }
            }
        }
    }
}
