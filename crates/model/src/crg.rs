//! Communication resource graph (CRG) — Definition 3.
//!
//! The CRG models the target architecture: a `width × height × depth`
//! mesh of tiles, each holding a router connected to its neighbours and
//! to the local IP core. [`Mesh`] provides the vertex set (tiles, written
//! `τ1 … τn` in the paper, row-major and zero-based here) and the
//! physical resources packets traverse: routers and [`Link`]s.
//!
//! The paper evaluates planar meshes; `depth = 1` (the [`Mesh::new`]
//! constructor) reproduces them exactly. `depth > 1` stacks `depth`
//! layers connected by vertical links — the 3D NoCs of the follow-on
//! literature (Jha et al., arXiv:1404.2512 / 1405.0109), where vertical
//! through-silicon vias (TSVs) carry a different per-bit energy than
//! horizontal wires (see `noc-energy`).
//!
//! Links come in three kinds, mirroring the paper's energy components:
//! inter-router links (`ELbit` energy, contention-arbitrated), injection
//! links from a core into its router, and ejection links from a router to
//! its core (`ECbit` energy, negligible for large tiles; the paper's model
//! does not arbitrate them — see `noc-sim`).

use crate::error::ModelError;
use crate::ids::TileId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cartesian coordinates of a tile: `x` grows eastwards (along a row),
/// `y` grows southwards (across rows), `z` grows downwards through the
/// layer stack (`z = 0` for every tile of a planar mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column index, `0 ≤ x < width`.
    pub x: usize,
    /// Row index, `0 ≤ y < height`.
    pub y: usize,
    /// Layer index, `0 ≤ z < depth`.
    pub z: usize,
}

impl Coord {
    /// Creates a planar coordinate pair (`z = 0`) — the 2D constructor
    /// every depth-1 call site keeps using.
    pub const fn new(x: usize, y: usize) -> Self {
        Self { x, y, z: 0 }
    }

    /// Creates a full 3D coordinate triple.
    pub const fn new3(x: usize, y: usize, z: usize) -> Self {
        Self { x, y, z }
    }

    /// Manhattan distance to another coordinate (all three axes).
    pub fn manhattan(self, other: Coord) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y) + self.z.abs_diff(other.z)
    }
}

impl fmt::Display for Coord {
    /// Layer-0 coordinates render as the classic pair `(x, y)`, so every
    /// depth-1 mesh keeps its existing textual output (golden files,
    /// examples); coordinates on deeper layers render as `(x, y, z)`.
    ///
    /// A `Coord` does not know its mesh, so on a 3D mesh layer-0 tiles
    /// still print the short form — accepted trade-off for keeping all
    /// planar output byte-identical. Use the `Debug` form (always three
    /// fields) where uniform width matters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.z == 0 {
            write!(f, "({}, {})", self.x, self.y)
        } else {
            write!(f, "({}, {}, {})", self.x, self.y, self.z)
        }
    }
}

/// A direction on the mesh (four planar, two vertical), plus the local
/// core port. Used by routing and by the flit-level router model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards decreasing `y`.
    North,
    /// Towards increasing `y`.
    South,
    /// Towards increasing `x`.
    East,
    /// Towards decreasing `x`.
    West,
    /// Towards decreasing `z` (the layer above).
    Up,
    /// Towards increasing `z` (the layer below).
    Down,
    /// The tile's own IP core.
    Local,
}

impl Direction {
    /// All six mesh directions of a 3D mesh (excluding `Local`).
    pub const AXIAL: [Direction; 6] = [
        Self::North,
        Self::South,
        Self::East,
        Self::West,
        Self::Up,
        Self::Down,
    ];
}

/// A physical communication resource connecting two endpoints.
///
/// Inter-router links are directed: `Link::between(a, b)` and
/// `Link::between(b, a)` are distinct resources, matching a NoC with one
/// channel per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Link {
    /// Core → router link of `tile` (used by every packet exactly once,
    /// when it is injected).
    Injection(TileId),
    /// Directed router → router channel.
    Internal {
        /// Upstream router.
        from: TileId,
        /// Downstream router.
        to: TileId,
    },
    /// Router → core link of `tile` (used once, at delivery).
    Ejection(TileId),
}

impl Link {
    /// Convenience constructor for an inter-router channel.
    pub const fn between(from: TileId, to: TileId) -> Self {
        Self::Internal { from, to }
    }

    /// True for inter-router channels (the resources the paper's contention
    /// model arbitrates).
    pub const fn is_internal(&self) -> bool {
        matches!(self, Self::Internal { .. })
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Injection(t) => write!(f, "inj[{t}]"),
            Self::Internal { from, to } => write!(f, "{from}→{to}"),
            Self::Ejection(t) => write!(f, "ej[{t}]"),
        }
    }
}

/// A mesh NoC (2D plane or 3D layer stack): the vertex set of the CRG.
///
/// Tiles are numbered layer-major, row-major within a layer:
/// `index = z·width·height + y·width + x`. A `depth = 1` mesh is
/// index-for-index the paper's planar mesh.
///
/// # Examples
///
/// ```
/// use noc_model::crg::{Coord, Mesh};
/// use noc_model::ids::TileId;
///
/// # fn main() -> Result<(), noc_model::ModelError> {
/// let mesh = Mesh::new(3, 2)?; // the paper's "3 x 2" NoC size
/// assert_eq!(mesh.tile_count(), 6);
/// let t = mesh.tile_at(Coord::new(2, 1)).unwrap();
/// assert_eq!(mesh.coord(t), Coord::new(2, 1));
/// assert_eq!(mesh.manhattan(TileId::new(0), t), 3);
///
/// let cube = Mesh::new3(4, 4, 4)?; // a 3D NoC
/// assert_eq!(cube.tile_count(), 64);
/// assert_eq!(cube.coord(TileId::new(16)), Coord::new3(0, 0, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Mesh {
    width: usize,
    height: usize,
    depth: usize,
}

/// The serialized fields of a [`Mesh`]: it decodes through
/// [`Mesh::new3`], so a decoded mesh has no zero dimension either.
#[derive(Deserialize)]
struct MeshFields {
    width: usize,
    height: usize,
    depth: usize,
}

impl<'de> Deserialize<'de> for Mesh {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeserializeError> {
        let m = MeshFields::from_value(value)?;
        Mesh::new3(m.width, m.height, m.depth).map_err(serde::DeserializeError::custom)
    }
}

impl Mesh {
    /// Creates a planar `width × height` mesh (`depth = 1`) — the
    /// paper's architecture, bit-for-bit: every consumer of a depth-1
    /// mesh behaves exactly as before the mesh became dimension-aware.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyMesh`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self, ModelError> {
        Self::new3(width, height, 1)
    }

    /// Creates a `width × height × depth` mesh; `depth > 1` stacks
    /// layers connected by vertical (TSV) links.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyMesh`] if any dimension is zero.
    pub fn new3(width: usize, height: usize, depth: usize) -> Result<Self, ModelError> {
        if width == 0 || height == 0 || depth == 0 {
            return Err(ModelError::EmptyMesh);
        }
        Ok(Self {
            width,
            height,
            depth,
        })
    }

    /// Mesh width (number of columns, the paper's `M`).
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Mesh height (number of rows, the paper's `N`).
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Mesh depth (number of stacked layers; `1` for a planar mesh).
    pub const fn depth(&self) -> usize {
        self.depth
    }

    /// Number of tiles of one layer (`width × height`).
    pub const fn layer_size(&self) -> usize {
        self.width * self.height
    }

    /// Total number of tiles `n = width × height × depth`.
    pub const fn tile_count(&self) -> usize {
        self.width * self.height * self.depth
    }

    /// Iterator over all tiles in layer-major, row-major order.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> {
        (0..self.tile_count()).map(TileId::new)
    }

    /// Coordinates of a tile.
    ///
    /// # Panics
    ///
    /// Panics if `tile` lies outside the mesh.
    pub fn coord(&self, tile: TileId) -> Coord {
        assert!(tile.index() < self.tile_count(), "tile {tile} outside mesh");
        let layer = self.layer_size();
        let planar = tile.index() % layer;
        Coord::new3(
            planar % self.width,
            planar / self.width,
            tile.index() / layer,
        )
    }

    /// Tile at the given coordinates, if inside the mesh.
    pub fn tile_at(&self, coord: Coord) -> Option<TileId> {
        (coord.x < self.width && coord.y < self.height && coord.z < self.depth)
            .then(|| TileId::new(coord.z * self.layer_size() + coord.y * self.width + coord.x))
    }

    /// True if `tile` is a valid tile of this mesh.
    pub fn contains(&self, tile: TileId) -> bool {
        tile.index() < self.tile_count()
    }

    /// Manhattan (hop) distance between two tiles.
    ///
    /// # Panics
    ///
    /// Panics if either tile lies outside the mesh.
    pub fn manhattan(&self, a: TileId, b: TileId) -> usize {
        self.coord(a).manhattan(self.coord(b))
    }

    /// The neighbour of `tile` in `dir`, if it exists. `Local` has no
    /// neighbour tile.
    pub fn neighbor(&self, tile: TileId, dir: Direction) -> Option<TileId> {
        let c = self.coord(tile);
        let n = match dir {
            Direction::North => Coord::new3(c.x, c.y.checked_sub(1)?, c.z),
            Direction::South => Coord::new3(c.x, c.y + 1, c.z),
            Direction::East => Coord::new3(c.x + 1, c.y, c.z),
            Direction::West => Coord::new3(c.x.checked_sub(1)?, c.y, c.z),
            Direction::Up => Coord::new3(c.x, c.y, c.z.checked_sub(1)?),
            Direction::Down => Coord::new3(c.x, c.y, c.z + 1),
            Direction::Local => return None,
        };
        self.tile_at(n)
    }

    /// Direction from `from` to an adjacent tile `to`.
    ///
    /// Returns `None` if the tiles are not mesh-adjacent.
    // noc-verify: allow(API02) — test oracle: the routing tests check each hop's port with it
    pub fn direction_between(&self, from: TileId, to: TileId) -> Option<Direction> {
        let a = self.coord(from);
        let b = self.coord(to);
        let dx = b.x as isize - a.x as isize;
        let dy = b.y as isize - a.y as isize;
        let dz = b.z as isize - a.z as isize;
        match (dx, dy, dz) {
            (1, 0, 0) => Some(Direction::East),
            (-1, 0, 0) => Some(Direction::West),
            (0, 1, 0) => Some(Direction::South),
            (0, -1, 0) => Some(Direction::North),
            (0, 0, 1) => Some(Direction::Down),
            (0, 0, -1) => Some(Direction::Up),
            _ => None,
        }
    }

    /// All directed inter-router links of the mesh, in deterministic order.
    pub fn internal_links(&self) -> Vec<Link> {
        let mut links = Vec::new();
        for t in self.tiles() {
            for dir in [Direction::East, Direction::South, Direction::Down] {
                if let Some(n) = self.neighbor(t, dir) {
                    links.push(Link::between(t, n));
                    links.push(Link::between(n, t));
                }
            }
        }
        links.sort();
        links
    }
}

impl fmt::Display for Mesh {
    /// Depth-1 meshes render as the classic `W x H mesh` (unchanged
    /// output for every planar consumer); deeper meshes append the depth.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.depth == 1 {
            write!(f, "{} x {} mesh", self.width, self.height)
        } else {
            write!(f, "{} x {} x {} mesh", self.width, self.height, self.depth)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_mesh() {
        assert_eq!(Mesh::new(0, 3).unwrap_err(), ModelError::EmptyMesh);
        assert_eq!(Mesh::new(3, 0).unwrap_err(), ModelError::EmptyMesh);
        assert_eq!(Mesh::new3(3, 3, 0).unwrap_err(), ModelError::EmptyMesh);
    }

    #[test]
    fn planar_constructor_is_depth_one() {
        let m = Mesh::new(3, 2).unwrap();
        assert_eq!(m.depth(), 1);
        assert_eq!(m, Mesh::new3(3, 2, 1).unwrap());
    }

    #[test]
    fn row_major_layout_matches_paper() {
        // Paper's 2x2 example: τ1 τ2 / τ3 τ4, i.e. tiles 0 1 / 2 3.
        let m = Mesh::new(2, 2).unwrap();
        assert_eq!(m.coord(TileId::new(0)), Coord::new(0, 0));
        assert_eq!(m.coord(TileId::new(1)), Coord::new(1, 0));
        assert_eq!(m.coord(TileId::new(2)), Coord::new(0, 1));
        assert_eq!(m.coord(TileId::new(3)), Coord::new(1, 1));
    }

    #[test]
    fn layer_major_layout_in_3d() {
        let m = Mesh::new3(2, 2, 2).unwrap();
        assert_eq!(m.coord(TileId::new(3)), Coord::new3(1, 1, 0));
        assert_eq!(m.coord(TileId::new(4)), Coord::new3(0, 0, 1));
        assert_eq!(m.coord(TileId::new(7)), Coord::new3(1, 1, 1));
    }

    #[test]
    fn coord_tile_roundtrip() {
        let m = Mesh::new(5, 3).unwrap();
        for t in m.tiles() {
            assert_eq!(m.tile_at(m.coord(t)), Some(t));
        }
        assert_eq!(m.tile_at(Coord::new(5, 0)), None);
        assert_eq!(m.tile_at(Coord::new(0, 3)), None);
        let cube = Mesh::new3(3, 4, 5).unwrap();
        for t in cube.tiles() {
            assert_eq!(cube.tile_at(cube.coord(t)), Some(t));
        }
        assert_eq!(cube.tile_at(Coord::new3(0, 0, 5)), None);
    }

    #[test]
    fn manhattan_distance() {
        let m = Mesh::new(4, 4).unwrap();
        let a = m.tile_at(Coord::new(0, 0)).unwrap();
        let b = m.tile_at(Coord::new(3, 2)).unwrap();
        assert_eq!(m.manhattan(a, b), 5);
        assert_eq!(m.manhattan(a, a), 0);
        let cube = Mesh::new3(4, 4, 4).unwrap();
        let a = cube.tile_at(Coord::new3(0, 0, 0)).unwrap();
        let b = cube.tile_at(Coord::new3(3, 2, 1)).unwrap();
        assert_eq!(cube.manhattan(a, b), 6);
    }

    #[test]
    fn neighbors_on_borders() {
        let m = Mesh::new(2, 2).unwrap();
        let t0 = TileId::new(0);
        assert_eq!(m.neighbor(t0, Direction::North), None);
        assert_eq!(m.neighbor(t0, Direction::West), None);
        assert_eq!(m.neighbor(t0, Direction::East), Some(TileId::new(1)));
        assert_eq!(m.neighbor(t0, Direction::South), Some(TileId::new(2)));
        assert_eq!(m.neighbor(t0, Direction::Up), None);
        assert_eq!(
            m.neighbor(t0, Direction::Down),
            None,
            "depth-1 has no layers"
        );
        assert_eq!(m.neighbor(t0, Direction::Local), None);
    }

    #[test]
    fn vertical_neighbors_in_3d() {
        let m = Mesh::new3(2, 2, 3).unwrap();
        let t0 = TileId::new(0);
        assert_eq!(m.neighbor(t0, Direction::Down), Some(TileId::new(4)));
        assert_eq!(m.neighbor(TileId::new(4), Direction::Up), Some(t0));
        assert_eq!(m.neighbor(TileId::new(8), Direction::Down), None);
        assert_eq!(
            m.direction_between(t0, TileId::new(4)),
            Some(Direction::Down)
        );
        assert_eq!(m.direction_between(TileId::new(4), t0), Some(Direction::Up));
        // Diagonal across layers is not adjacent.
        assert_eq!(m.direction_between(t0, TileId::new(5)), None);
    }

    #[test]
    fn direction_between_adjacent_tiles() {
        let m = Mesh::new(3, 3).unwrap();
        let c = m.tile_at(Coord::new(1, 1)).unwrap();
        assert_eq!(
            m.direction_between(c, m.tile_at(Coord::new(2, 1)).unwrap()),
            Some(Direction::East)
        );
        assert_eq!(
            m.direction_between(c, m.tile_at(Coord::new(1, 0)).unwrap()),
            Some(Direction::North)
        );
        assert_eq!(
            m.direction_between(c, m.tile_at(Coord::new(0, 0)).unwrap()),
            None
        );
    }

    #[test]
    fn internal_link_count() {
        // width*(height-1) vertical + (width-1)*height horizontal, x2 directions.
        let m = Mesh::new(3, 2).unwrap();
        assert_eq!(m.internal_links().len(), 2 * (3 + 2 * 2));
        let m = Mesh::new(1, 1).unwrap();
        assert!(m.internal_links().is_empty());
        // 3D adds (depth-1)*width*height vertical pairs.
        let m = Mesh::new3(2, 2, 2).unwrap();
        // Per layer: 2*(1*2 + 2*1) = 8; two layers = 16; plus 2*4 TSVs.
        assert_eq!(m.internal_links().len(), 16 + 8);
    }

    #[test]
    fn links_are_directional() {
        let a = TileId::new(0);
        let b = TileId::new(1);
        assert_ne!(Link::between(a, b), Link::between(b, a));
        assert!(Link::between(a, b).is_internal());
        assert!(!Link::Injection(a).is_internal());
    }

    #[test]
    fn display_formats() {
        let m = Mesh::new(4, 3).unwrap();
        assert_eq!(m.to_string(), "4 x 3 mesh");
        assert_eq!(Mesh::new3(4, 3, 2).unwrap().to_string(), "4 x 3 x 2 mesh");
        assert_eq!(Link::Injection(TileId::new(2)).to_string(), "inj[t2]");
        assert_eq!(
            Link::between(TileId::new(0), TileId::new(1)).to_string(),
            "t0→t1"
        );
    }

    #[test]
    fn coord_display_renders_z_only_off_layer_zero() {
        assert_eq!(Coord::new(2, 1).to_string(), "(2, 1)");
        assert_eq!(Coord::new3(2, 1, 0).to_string(), "(2, 1)");
        assert_eq!(Coord::new3(2, 1, 3).to_string(), "(2, 1, 3)");
    }
}
