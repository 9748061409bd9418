//! Precomputed routes for every tile pair of a mesh — the **dense** tier
//! of the route-provisioning stack.
//!
//! Mapping search evaluates the same mesh millions of times: every cost
//! call routes each packet between two *tiles*, and under deterministic
//! routing the route between a tile pair never changes. [`RouteCache`]
//! therefore walks every ordered pair once with the implicit tier's
//! coordinate walker ([`ImplicitRoutes`]) and stores the walks back to
//! back in one flat `u32` array, with one offset per pair. Resolving a
//! pair's walk is then a span into that array: nothing is walked,
//! allocated or copied. The pair's router count (the paper's `K`) is the
//! span's length minus one.
//!
//! The ids are the walker's closed-form per-tile-port link numbering, so
//! the dense tier decodes ids and sizes per-link state exactly as the
//! implicit and fault-aware tiers do. The cache is immutable after
//! construction and shared freely across search threads
//! (`Arc<RouteCache>` in the evaluation engine).
//!
//! ## Memory, honestly
//!
//! The walks take `O(n² · diameter)` entries: a few megabytes for the
//! paper's meshes (8×8×4 holds 0.7M entries, 2.8 MB), but 15.8M entries
//! (63 MB) at 29×29 and over 3 GB at 64×64. Construction therefore
//! *refuses* every mesh whose closed-form estimate exceeds
//! [`AUTO_DENSE_MAX_ENTRIES`] ([`ModelError::RouteCacheTooLarge`],
//! checked before anything is allocated); 29×29 is the largest square
//! mesh it builds. Larger meshes are served by the allocation-free
//! implicit walker itself, and
//! [`RouteProvider::auto`](crate::route_provider::RouteProvider::auto)
//! picks that tier for them, so callers never hit the limit by accident.

use crate::crg::{Link, Mesh};
use crate::error::ModelError;
use crate::ids::TileId;
use crate::route_provider::{ImplicitRoutes, RouteSource, AUTO_DENSE_MAX_ENTRIES};
use crate::routing::RoutingKind;

/// Every pair's walk under one routing kind, precomputed. See the module
/// docs.
#[derive(Debug, Clone)]
pub struct RouteCache {
    /// The walker every stored walk came from; it also decodes the ids.
    walker: ImplicitRoutes,
    /// Per pair `src * n + dst`: where its walk starts in `link_ids`. One
    /// final entry closes the last walk.
    offsets: Vec<u32>,
    /// Every pair's walk (injection link, inter-router links, ejection
    /// link), back to back in pair order.
    link_ids: Vec<u32>,
    /// Per pair: vertical (TSV) link count of the route. Empty on
    /// depth-1 meshes, where every route is planar — no memory is spent
    /// and lookups return `0`.
    vertical: Vec<u32>,
}

impl RouteCache {
    /// Walks every ordered tile pair of `mesh` under `kind` into the
    /// tables.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RouteCacheTooLarge`] when the estimated
    /// tables exceed [`AUTO_DENSE_MAX_ENTRIES`]; no allocation happens in
    /// that case.
    pub fn new(mesh: &Mesh, kind: RoutingKind) -> Result<Self, ModelError> {
        let entries = Self::dense_entry_estimate(mesh);
        if entries > AUTO_DENSE_MAX_ENTRIES {
            return Err(ModelError::RouteCacheTooLarge {
                tiles: mesh.tile_count(),
                entries,
            });
        }
        let walker = ImplicitRoutes::new(mesh, kind);
        let pairs = mesh.tile_count() * mesh.tile_count();
        let vertical_pairs = if mesh.depth() > 1 { pairs } else { 0 };
        let mut offsets = Vec::with_capacity(pairs + 1);
        let mut vertical = Vec::with_capacity(vertical_pairs);
        // What the estimate leaves after the offsets and the vertical
        // table bounds the walks (exactly, for the non-torus kinds).
        let mut link_ids = Vec::with_capacity(entries as usize - (pairs + 1) - vertical_pairs);
        offsets.push(0);
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                walker.walk_span(src, dst, &mut link_ids);
                // Within the entry limit, so every offset fits a `u32`.
                offsets.push(link_ids.len() as u32);
                if vertical_pairs > 0 {
                    vertical.push(walker.vertical_hops(src, dst) as u32);
                }
            }
        }
        Ok(Self {
            walker,
            offsets,
            link_ids,
            vertical,
        })
    }

    /// Table entries (walk ids, offsets and vertical-hop counts) the
    /// cache takes for `mesh`, in closed form: the sum of Manhattan
    /// distances over all ordered tile pairs plus the per-pair
    /// constants. Exact for the mesh routings; the torus routings never
    /// take longer routes, so it bounds them.
    pub fn dense_entry_estimate(mesh: &Mesh) -> u128 {
        let w = mesh.width() as u128;
        let h = mesh.height() as u128;
        let d = mesh.depth() as u128;
        let n = mesh.tile_count() as u128;
        let pairs = n * n;
        // Σ over ordered tile pairs of |x1−x2|: each x value occurs on
        // h·d tiles, and Σ over ordered value pairs of |x1−x2| is
        // W(W²−1)/3 — hence (H·D)²·W(W²−1)/3; same per axis.
        let manhattan_sum = (h * d) * (h * d) * w * (w * w - 1) / 3
            + (w * d) * (w * d) * h * (h * h - 1) / 3
            + (w * h) * (w * h) * d * (d * d - 1) / 3;
        // K = distance + 1 routers per pair, so K + 1 link ids.
        let links = manhattan_sum + 2 * pairs;
        // 3D meshes additionally carry the per-pair vertical-hop table.
        let vertical = if d > 1 { pairs } else { 0 };
        links + pairs + 1 + vertical // + the offsets table
    }

    #[inline]
    fn pair(&self, src: TileId, dst: TileId) -> usize {
        let mesh = self.walker.mesh();
        debug_assert!(mesh.contains(src) && mesh.contains(dst));
        src.index() * mesh.tile_count() + dst.index()
    }

    /// The pair's walk as `(start, len)` in `link_ids`.
    #[inline]
    fn span(&self, src: TileId, dst: TileId) -> (u32, u32) {
        let p = self.pair(src, dst);
        match self.offsets.get(p..p + 2) {
            Some(&[start, end]) => (start, end - start),
            // Only a tile outside the mesh lands here, and the engines
            // refuse those before they resolve a walk.
            _ => (0, 0),
        }
    }
}

impl RouteSource for RouteCache {
    fn mesh(&self) -> &Mesh {
        self.walker.mesh()
    }

    fn routing_name(&self) -> &'static str {
        self.walker.routing_name()
    }

    fn dense_link_count(&self) -> usize {
        self.walker.dense_link_count()
    }

    #[inline]
    fn router_count(&self, src: TileId, dst: TileId) -> usize {
        (self.span(src, dst).1 as usize).saturating_sub(1)
    }

    #[inline]
    fn vertical_hops(&self, src: TileId, dst: TileId) -> usize {
        self.vertical
            .get(self.pair(src, dst))
            .map_or(0, |&v| v as usize)
    }

    #[inline]
    fn walk_span(&self, src: TileId, dst: TileId, _buf: &mut Vec<u32>) -> (u32, u32) {
        self.span(src, dst)
    }

    #[inline]
    fn flat<'s>(&'s self, _buf: &'s [u32]) -> &'s [u32] {
        &self.link_ids
    }

    fn link_at(&self, id: u32) -> Option<Link> {
        self.walker.link_at(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{RoutingAlgorithm, XyRouting, YxRouting};

    fn links(cache: &RouteCache, src: TileId, dst: TileId) -> Vec<Link> {
        let (start, len) = cache.walk_span(src, dst, &mut Vec::new());
        cache.flat(&[])[start as usize..(start + len) as usize]
            .iter()
            .map(|&id| cache.link_at(id).expect("walk ids decode"))
            .collect()
    }

    #[test]
    fn matches_direct_routing_on_every_pair() {
        let mesh = Mesh::new(4, 3).unwrap();
        let cache = RouteCache::new(&mesh, RoutingKind::Xy).unwrap();
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                let path = XyRouting.route(&mesh, src, dst);
                assert_eq!(cache.router_count(src, dst), path.router_count());
                assert_eq!(links(&cache, src, dst), path.links());
            }
        }
    }

    #[test]
    fn respects_the_routing_algorithm() {
        let mesh = Mesh::new(3, 3).unwrap();
        let yx = RouteCache::new(&mesh, RoutingKind::Yx).unwrap();
        assert_eq!(yx.routing_name(), "YX");
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                assert_eq!(
                    links(&yx, src, dst),
                    YxRouting.route(&mesh, src, dst).links()
                );
            }
        }
    }

    #[test]
    fn single_tile_mesh() {
        let mesh = Mesh::new(1, 1).unwrap();
        let cache = RouteCache::new(&mesh, RoutingKind::Xy).unwrap();
        let t = TileId::new(0);
        assert_eq!(cache.router_count(t, t), 1);
        assert_eq!(links(&cache, t, t).len(), 2); // inj + ej
    }

    #[test]
    fn oversized_meshes_are_rejected_before_allocating() {
        // 64×64 estimates past the dense tier's limit: typed error, no
        // panic, and the check fires before any table is allocated.
        let mesh = Mesh::new(64, 64).unwrap();
        assert!(RouteCache::dense_entry_estimate(&mesh) > AUTO_DENSE_MAX_ENTRIES);
        match RouteCache::new(&mesh, RoutingKind::Xy) {
            Err(ModelError::RouteCacheTooLarge { tiles, entries }) => {
                assert_eq!(tiles, 4096);
                assert!(entries > AUTO_DENSE_MAX_ENTRIES);
            }
            other => panic!("expected RouteCacheTooLarge, got {other:?}"),
        }
        // Degenerate thin meshes trip the guard too (long routes).
        assert!(RouteCache::new(&Mesh::new(4096, 1).unwrap(), RoutingKind::Xy).is_err());
        // A mesh inside the limit still builds.
        assert!(RouteCache::new(&Mesh::new(16, 16).unwrap(), RoutingKind::Xy).is_ok());
    }

    #[test]
    fn entry_estimate_matches_actual_tables_on_small_meshes() {
        for (w, h, d) in [
            (1, 1, 1),
            (2, 2, 1),
            (4, 3, 1),
            (6, 5, 1),
            (3, 2, 4),
            (4, 4, 4),
        ] {
            let mesh = Mesh::new3(w, h, d).unwrap();
            let cache = RouteCache::new(&mesh, RoutingKind::Xy).unwrap();
            let actual =
                (cache.link_ids.len() + cache.offsets.len() + cache.vertical.len()) as u128;
            assert_eq!(
                RouteCache::dense_entry_estimate(&mesh),
                actual,
                "{w}x{h}x{d}: the closed form must be exact for minimal routing"
            );
        }
    }

    #[test]
    fn vertical_hops_match_walked_routes() {
        let planar = Mesh::new(4, 3).unwrap();
        let cache = RouteCache::new(&planar, RoutingKind::Xy).unwrap();
        assert!(cache.vertical.is_empty(), "no table on depth-1 meshes");
        for src in planar.tiles() {
            for dst in planar.tiles() {
                assert_eq!(cache.vertical_hops(src, dst), 0);
            }
        }
        let cube = Mesh::new3(3, 2, 3).unwrap();
        for kind in RoutingKind::ALL {
            let cache = RouteCache::new(&cube, kind).unwrap();
            for src in cube.tiles() {
                for dst in cube.tiles() {
                    assert_eq!(
                        cache.vertical_hops(src, dst),
                        kind.algorithm()
                            .route(&cube, src, dst)
                            .vertical_link_count(&cube),
                        "{kind:?} {src}->{dst}"
                    );
                }
            }
        }
    }
}
