//! Precomputed routes for every tile pair of a mesh — the **dense** tier
//! of the route-provisioning stack.
//!
//! Mapping search evaluates the same mesh millions of times: every cost
//! call routes each packet between two *tiles*, and under deterministic
//! routing the route between a tile pair never changes. [`RouteCache`]
//! therefore computes all `n²` routes once per mesh and exposes them as
//! flat, allocation-free lookups:
//!
//! * [`RouteCache::router_count`] — the paper's `K` for a pair, `O(1)`;
//! * [`RouteCache::link_ids`] — the complete resource walk of the pair
//!   (injection link, inter-router links, ejection link) as **dense link
//!   ids**: consecutive `u32` indices assigned per mesh, so per-link state
//!   lives in plain vectors instead of `HashMap<Link, _>`.
//!
//! The cache is routing-algorithm-agnostic ([`RouteCache::with_routing`])
//! and immutable after construction, so it is shared freely across search
//! threads (`Arc<RouteCache>` in the evaluation engine).
//!
//! ## Memory, honestly
//!
//! The tables are `O(n² · diameter)`: negligible for the paper's flow
//! (a few hundred tiles ⇒ a few megabytes), but growing fast — roughly
//! 100 MB at 32×32 and over 3 GB at 64×64. Construction therefore
//! *refuses* meshes whose tables would be unreasonably large
//! ([`ModelError::RouteCacheTooLarge`], checked analytically **before**
//! any allocation) instead of thrashing or overflowing the `u32` offset
//! space. Larger meshes are served by the allocation-free implicit
//! walker of [`crate::route_provider`].
//! [`RouteProvider::auto`](crate::route_provider::RouteProvider::auto)
//! picks a tier by size so callers never hit the limit accidentally.

use crate::crg::{Link, Mesh};
use crate::error::ModelError;
use crate::ids::TileId;
use crate::routing::{RoutingAlgorithm, XyRouting};
use std::collections::HashMap;

/// Hard ceiling on the estimated dense table entries a [`RouteCache`]
/// will agree to precompute (~256 MB of tables). Beyond it construction
/// returns [`ModelError::RouteCacheTooLarge`]; use the implicit provider
/// tier instead.
pub const MAX_DENSE_ENTRIES: u128 = 1 << 26;

/// All routes of a mesh under one deterministic routing function, with
/// dense link numbering. See the module docs.
#[derive(Debug, Clone)]
pub struct RouteCache {
    mesh: Mesh,
    routing_name: &'static str,
    /// Per pair `src * n + dst`: the routers of every earlier pair. The
    /// pair has `offsets[p + 1] - offsets[p]` routers and its links are
    /// `link_ids[offsets[p] + p..offsets[p + 1] + p + 1]` (every pair has
    /// exactly one more link than routers).
    offsets: Vec<u32>,
    link_ids: Vec<u32>,
    /// Dense id → physical link.
    links: Vec<Link>,
    /// Per pair: vertical (TSV) link count of the route. Empty on
    /// depth-1 meshes, where every route is planar — no memory is spent
    /// and lookups return `0` without touching a table.
    vertical: Vec<u32>,
}

impl RouteCache {
    /// Builds the cache for `mesh` under XY routing (the paper's default).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RouteCacheTooLarge`] when the dense tables
    /// would exceed [`MAX_DENSE_ENTRIES`]; no allocation happens in that
    /// case.
    pub fn new(mesh: &Mesh) -> Result<Self, ModelError> {
        Self::with_routing(mesh, &XyRouting)
    }

    /// Estimated total table entries (link ids + offsets) the
    /// dense cache needs for `mesh` under any *minimal* routing, in
    /// closed form: the sum of Manhattan distances over all ordered tile
    /// pairs plus the per-pair constants. Non-minimal custom routings may
    /// exceed this; construction still guards the `u32` offset space for
    /// them.
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

    /// Builds the cache for `mesh` under an explicit routing algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RouteCacheTooLarge`] when the estimated
    /// tables exceed [`MAX_DENSE_ENTRIES`] (checked before allocating),
    /// or when a non-minimal routing overflows the `u32` offset space
    /// mid-construction.
    pub fn with_routing(mesh: &Mesh, routing: &dyn RoutingAlgorithm) -> Result<Self, ModelError> {
        let estimate = Self::dense_entry_estimate(mesh);
        if estimate > MAX_DENSE_ENTRIES {
            return Err(ModelError::RouteCacheTooLarge {
                tiles: mesh.tile_count(),
                entries: estimate,
            });
        }
        let n = mesh.tile_count();
        let mut offsets = Vec::with_capacity(n * n + 1);
        let mut routers = 0usize;
        let mut link_ids = Vec::new();
        let mut links = Vec::new();
        let mut vertical = Vec::new();
        let mut index: HashMap<Link, u32> = HashMap::new();
        let mut intern = |link: Link, links: &mut Vec<Link>| -> u32 {
            *index.entry(link).or_insert_with(|| {
                links.push(link);
                (links.len() - 1) as u32
            })
        };
        offsets.push(0);
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                let path = routing.route(mesh, src, dst);
                link_ids.push(intern(Link::Injection(src), &mut links));
                for w in path.routers().windows(2) {
                    link_ids.push(intern(Link::between(w[0], w[1]), &mut links));
                }
                link_ids.push(intern(Link::Ejection(dst), &mut links));
                if mesh.depth() > 1 {
                    vertical.push(path.vertical_link_count(mesh) as u32);
                }
                routers += path.router_count();
                let offset = u32::try_from(routers).map_err(|_| {
                    // Only reachable for non-minimal custom routings that
                    // blow past the analytic estimate.
                    ModelError::RouteCacheTooLarge {
                        tiles: n,
                        entries: estimate.max(routers as u128),
                    }
                })?;
                offsets.push(offset);
            }
        }
        Ok(Self {
            mesh: *mesh,
            routing_name: routing.name(),
            offsets,
            link_ids,
            links,
            vertical,
        })
    }

    /// The mesh the cache was built for.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Name of the routing algorithm the routes follow ("XY", ...).
    pub fn routing_name(&self) -> &'static str {
        self.routing_name
    }

    #[inline]
    fn pair(&self, src: TileId, dst: TileId) -> usize {
        debug_assert!(self.mesh.contains(src) && self.mesh.contains(dst));
        src.index() * self.mesh.tile_count() + dst.index()
    }

    /// Number of routers on the route (the paper's `K`), in `O(1)`.
    #[inline]
    pub fn router_count(&self, src: TileId, dst: TileId) -> usize {
        let p = self.pair(src, dst);
        (self.offsets[p + 1] - self.offsets[p]) as usize
    }

    /// Number of vertical (TSV) inter-router links of the route, in
    /// `O(1)` — `0` on depth-1 meshes (no table is consulted, matching
    /// the planar energy model exactly).
    #[inline]
    pub fn vertical_hops(&self, src: TileId, dst: TileId) -> usize {
        if self.vertical.is_empty() {
            return 0;
        }
        self.vertical[self.pair(src, dst)] as usize
    }

    /// The complete resource walk of the route as dense link ids:
    /// injection link, inter-router links in traversal order, ejection
    /// link (`router_count + 1` entries).
    #[inline]
    pub fn link_ids(&self, src: TileId, dst: TileId) -> &[u32] {
        &self.link_ids_flat()[self.link_span(src, dst)]
    }

    /// The span of the pair's resource walk inside [`Self::link_ids_flat`];
    /// lets hot loops resolve each packet's walk once and then index the
    /// flat array directly.
    #[inline]
    pub fn link_span(&self, src: TileId, dst: TileId) -> std::ops::Range<usize> {
        let p = self.pair(src, dst);
        // Each pair contributes routers + 1 links, so the link offset of
        // pair `p` is `offsets[p] + p`.
        self.offsets[p] as usize + p..self.offsets[p + 1] as usize + p + 1
    }

    /// The concatenated dense link ids of every pair's resource walk, in
    /// pair order; index with [`Self::link_span`].
    #[inline]
    pub fn link_ids_flat(&self) -> &[u32] {
        &self.link_ids
    }

    /// Total number of distinct links touched by any route (the size for
    /// dense per-link state vectors).
    pub fn dense_link_count(&self) -> usize {
        self.links.len()
    }

    /// The physical link behind a dense id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link_of(&self, id: u32) -> Link {
        self.links[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::YxRouting;

    #[test]
    fn matches_direct_routing_on_every_pair() {
        let mesh = Mesh::new(4, 3).unwrap();
        let cache = RouteCache::new(&mesh).unwrap();
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                let path = XyRouting.route(&mesh, src, dst);
                assert_eq!(cache.router_count(src, dst), path.router_count());
                let links: Vec<Link> = cache
                    .link_ids(src, dst)
                    .iter()
                    .map(|&id| cache.link_of(id))
                    .collect();
                assert_eq!(links, path.links());
            }
        }
    }

    #[test]
    fn respects_the_routing_algorithm() {
        let mesh = Mesh::new(3, 3).unwrap();
        let yx = RouteCache::with_routing(&mesh, &YxRouting).unwrap();
        assert_eq!(yx.routing_name(), "YX");
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                let links: Vec<Link> = yx
                    .link_ids(src, dst)
                    .iter()
                    .map(|&id| yx.link_of(id))
                    .collect();
                assert_eq!(links, YxRouting.route(&mesh, src, dst).links());
            }
        }
    }

    #[test]
    fn single_tile_mesh() {
        let mesh = Mesh::new(1, 1).unwrap();
        let cache = RouteCache::new(&mesh).unwrap();
        let t = TileId::new(0);
        assert_eq!(cache.router_count(t, t), 1);
        assert_eq!(cache.link_ids(t, t).len(), 2); // inj + ej
    }

    #[test]
    fn oversized_meshes_are_rejected_before_allocating() {
        // 64×64 estimates past MAX_DENSE_ENTRIES: typed error, no panic,
        // and the check fires before any table is allocated.
        let mesh = Mesh::new(64, 64).unwrap();
        assert!(RouteCache::dense_entry_estimate(&mesh) > MAX_DENSE_ENTRIES);
        match RouteCache::new(&mesh) {
            Err(ModelError::RouteCacheTooLarge { tiles, entries }) => {
                assert_eq!(tiles, 4096);
                assert!(entries > MAX_DENSE_ENTRIES);
            }
            other => panic!("expected RouteCacheTooLarge, got {other:?}"),
        }
        // Degenerate thin meshes trip the guard too (long routes).
        assert!(RouteCache::new(&Mesh::new(4096, 1).unwrap()).is_err());
        // A mesh inside the limit still builds.
        assert!(RouteCache::new(&Mesh::new(16, 16).unwrap()).is_ok());
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
            let cache = RouteCache::new(&mesh).unwrap();
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
        let cache = RouteCache::new(&planar).unwrap();
        assert!(cache.vertical.is_empty(), "no table on depth-1 meshes");
        for src in planar.tiles() {
            for dst in planar.tiles() {
                assert_eq!(cache.vertical_hops(src, dst), 0);
            }
        }
        let cube = Mesh::new3(3, 2, 3).unwrap();
        for routing in [&XyRouting as &dyn RoutingAlgorithm, &YxRouting] {
            let cache = RouteCache::with_routing(&cube, routing).unwrap();
            for src in cube.tiles() {
                for dst in cube.tiles() {
                    assert_eq!(
                        cache.vertical_hops(src, dst),
                        routing.route(&cube, src, dst).vertical_link_count(&cube),
                        "{src}->{dst}"
                    );
                }
            }
        }
    }
}
