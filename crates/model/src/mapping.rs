//! Core-to-tile mappings.
//!
//! A [`Mapping`] is an injective association of every application core to a
//! tile of the mesh — the decision variable of the whole paper. The search
//! algorithms in `noc-mapping` explore the `n!/(n−k)!` mapping space by
//! swapping tiles; [`Mapping::swap_tiles`] supports that move natively
//! (including swaps with empty tiles).

use crate::error::ModelError;
use crate::ids::{CoreId, TileId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An injective placement of `k` cores onto `n ≥ k` tiles.
///
/// # Examples
///
/// ```
/// use noc_model::crg::Mesh;
/// use noc_model::ids::{CoreId, TileId};
/// use noc_model::mapping::Mapping;
///
/// # fn main() -> Result<(), noc_model::ModelError> {
/// let mesh = Mesh::new(2, 2)?;
/// // Paper Figure 1(c): B→τ1, A→τ2, F→τ3, E→τ4 with cores ordered A,B,E,F.
/// let mapping = Mapping::from_tiles(&mesh, vec![1, 0, 3, 2].into_iter().map(TileId::new))?;
/// assert_eq!(mapping.tile_of(CoreId::new(0)), TileId::new(1)); // A on τ2
/// assert_eq!(mapping.core_on(TileId::new(0)), Some(CoreId::new(1))); // τ1 holds B
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mapping {
    /// `tiles[c]` is the tile core `c` occupies.
    tiles: Vec<TileId>,
    /// `cores[t]` is the core on tile `t`, if any.
    cores: Vec<Option<CoreId>>,
}

impl Mapping {
    /// Builds a mapping from the tile assigned to each core, in `CoreId`
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TooManyCores`] when more cores than tiles are
    /// supplied, [`ModelError::UnknownTile`] for out-of-mesh tiles and
    /// [`ModelError::TileConflict`] when two cores land on the same tile.
    pub fn from_tiles(
        mesh: &crate::crg::Mesh,
        tiles: impl IntoIterator<Item = TileId>,
    ) -> Result<Self, ModelError> {
        let tiles: Vec<TileId> = tiles.into_iter().collect();
        let n = mesh.tile_count();
        if tiles.len() > n {
            return Err(ModelError::TooManyCores {
                cores: tiles.len(),
                tiles: n,
            });
        }
        let mut cores: Vec<Option<CoreId>> = vec![None; n];
        for (i, &tile) in tiles.iter().enumerate() {
            if !mesh.contains(tile) {
                return Err(ModelError::UnknownTile(tile));
            }
            let core = CoreId::new(i);
            if let Some(prev) = cores[tile.index()] {
                return Err(ModelError::TileConflict {
                    tile,
                    first: prev,
                    second: core,
                });
            }
            cores[tile.index()] = Some(core);
        }
        Ok(Self { tiles, cores })
    }

    /// The identity mapping: core `i` on tile `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TooManyCores`] when `core_count` exceeds the
    /// number of tiles.
    pub fn identity(mesh: &crate::crg::Mesh, core_count: usize) -> Result<Self, ModelError> {
        Self::from_tiles(mesh, (0..core_count).map(TileId::new))
    }

    /// Number of mapped cores.
    pub fn core_count(&self) -> usize {
        self.tiles.len()
    }

    /// Number of tiles of the underlying mesh.
    pub fn tile_count(&self) -> usize {
        self.cores.len()
    }

    /// Tile occupied by `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn tile_of(&self, core: CoreId) -> TileId {
        self.tiles[core.index()]
    }

    /// Core placed on `tile`, or `None` for an empty tile.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn core_on(&self, tile: TileId) -> Option<CoreId> {
        self.cores[tile.index()]
    }

    /// Iterator over `(core, tile)` pairs in core order.
    pub fn assignments(&self) -> impl Iterator<Item = (CoreId, TileId)> + '_ {
        self.tiles
            .iter()
            .enumerate()
            .map(|(i, &t)| (CoreId::new(i), t))
    }

    /// Swaps the contents of two tiles (either may be empty). This is the
    /// elementary move of the annealer; swapping a core with an empty tile
    /// relocates it.
    ///
    /// # Panics
    ///
    /// Panics if either tile is out of range.
    pub fn swap_tiles(&mut self, a: TileId, b: TileId) {
        if a == b {
            return;
        }
        let ca = self.cores[a.index()];
        let cb = self.cores[b.index()];
        self.cores[a.index()] = cb;
        self.cores[b.index()] = ca;
        if let Some(c) = ca {
            self.tiles[c.index()] = b;
        }
        if let Some(c) = cb {
            self.tiles[c.index()] = a;
        }
    }

    /// Checks injectivity and consistency of the two internal indexes,
    /// without allocating: each core in order is checked against the
    /// inverse table. A tile past the table is unknown; the tile's entry
    /// must name the core, an entry naming an earlier core on the same
    /// tile is a conflict, and any other mismatch an incomplete mapping.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant; mappings produced through the
    /// public API are always valid, so this matters after deserialization.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (core, tile) in self.assignments() {
            match self.cores.get(tile.index()) {
                None => return Err(ModelError::UnknownTile(tile)),
                Some(&Some(owner)) if owner == core => {}
                Some(&Some(first))
                    if first < core && self.tiles.get(first.index()) == Some(&tile) =>
                {
                    return Err(ModelError::TileConflict {
                        tile,
                        first,
                        second: core,
                    });
                }
                Some(_) => {
                    return Err(ModelError::IncompleteMapping {
                        mapped: self.cores.iter().flatten().count(),
                        expected: self.tiles.len(),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .assignments()
            .map(|(c, t)| format!("{c}@{t}"))
            .collect();
        write!(f, "[{}]", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crg::Mesh;

    fn mesh() -> Mesh {
        Mesh::new(2, 2).unwrap()
    }

    #[test]
    fn identity_mapping() {
        let m = Mapping::identity(&mesh(), 3).unwrap();
        assert_eq!(m.core_count(), 3);
        assert_eq!(m.tile_of(CoreId::new(2)), TileId::new(2));
        assert_eq!(m.core_on(TileId::new(3)), None);
        m.validate().unwrap();
    }

    #[test]
    fn rejects_conflicts() {
        let err = Mapping::from_tiles(&mesh(), [TileId::new(1), TileId::new(1)]).unwrap_err();
        assert!(matches!(err, ModelError::TileConflict { .. }));
    }

    #[test]
    fn rejects_too_many_cores() {
        let err = Mapping::identity(&mesh(), 5).unwrap_err();
        assert_eq!(err, ModelError::TooManyCores { cores: 5, tiles: 4 });
    }

    #[test]
    fn rejects_out_of_mesh_tiles() {
        let err = Mapping::from_tiles(&mesh(), [TileId::new(7)]).unwrap_err();
        assert_eq!(err, ModelError::UnknownTile(TileId::new(7)));
    }

    #[test]
    fn swap_two_occupied_tiles() {
        let mut m = Mapping::identity(&mesh(), 2).unwrap();
        m.swap_tiles(TileId::new(0), TileId::new(1));
        assert_eq!(m.tile_of(CoreId::new(0)), TileId::new(1));
        assert_eq!(m.tile_of(CoreId::new(1)), TileId::new(0));
        m.validate().unwrap();
    }

    #[test]
    fn swap_with_empty_tile_relocates() {
        let mut m = Mapping::identity(&mesh(), 2).unwrap();
        m.swap_tiles(TileId::new(0), TileId::new(3));
        assert_eq!(m.tile_of(CoreId::new(0)), TileId::new(3));
        assert_eq!(m.core_on(TileId::new(0)), None);
        assert_eq!(m.core_on(TileId::new(3)), Some(CoreId::new(0)));
        m.validate().unwrap();
    }

    #[test]
    fn swap_is_involutive() {
        let mut m = Mapping::identity(&mesh(), 3).unwrap();
        let orig = m.clone();
        m.swap_tiles(TileId::new(1), TileId::new(2));
        m.swap_tiles(TileId::new(1), TileId::new(2));
        assert_eq!(m, orig);
    }

    #[test]
    fn swap_same_tile_is_noop() {
        let mut m = Mapping::identity(&mesh(), 2).unwrap();
        let orig = m.clone();
        m.swap_tiles(TileId::new(1), TileId::new(1));
        assert_eq!(m, orig);
    }

    #[test]
    fn display_shows_assignments() {
        let m = Mapping::identity(&mesh(), 2).unwrap();
        assert_eq!(m.to_string(), "[c0@t0, c1@t1]");
    }

    /// Reference for `validate`: marks each core's tile in a tile-long
    /// vector.
    fn validate_with_a_seen_vector(m: &Mapping) -> Result<(), ModelError> {
        let mut seen: Vec<Option<CoreId>> = vec![None; m.cores.len()];
        for (core, tile) in m.assignments() {
            if tile.index() >= m.cores.len() {
                return Err(ModelError::UnknownTile(tile));
            }
            if let Some(prev) = seen[tile.index()] {
                return Err(ModelError::TileConflict {
                    tile,
                    first: prev,
                    second: core,
                });
            }
            seen[tile.index()] = Some(core);
            if m.cores[tile.index()] != Some(core) {
                return Err(ModelError::IncompleteMapping {
                    mapped: m.cores.iter().flatten().count(),
                    expected: m.tiles.len(),
                });
            }
        }
        Ok(())
    }

    #[test]
    fn validate_matches_the_seen_vector_check() {
        // Seeded mappings: a random valid placement on 1–6 tiles, then up
        // to three edits of either table, which may point a core at a tile
        // past the table, at an occupied tile, or leave the inverse stale.
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        let mut outcomes = [0; 4];
        for _ in 0..20_000 {
            let n = 1 + next(6);
            let k = next(n + 1);
            let mut free: Vec<usize> = (0..n).collect();
            let tiles: Vec<TileId> = (0..k)
                .map(|_| TileId::new(free.swap_remove(next(free.len()))))
                .collect();
            let mut cores = vec![None; n];
            for (c, t) in tiles.iter().enumerate() {
                cores[t.index()] = Some(CoreId::new(c));
            }
            let mut m = Mapping { tiles, cores };
            for _ in 0..next(4) {
                if k > 0 && next(2) == 0 {
                    m.tiles[next(k)] = TileId::new(next(n + 1));
                } else {
                    m.cores[next(n)] = [None, Some(CoreId::new(next(k + 1)))][next(2)];
                }
            }
            let got = m.validate();
            assert_eq!(got, validate_with_a_seen_vector(&m), "{m:?}");
            outcomes[match got {
                Ok(()) => 0,
                Err(ModelError::UnknownTile(_)) => 1,
                Err(ModelError::TileConflict { .. }) => 2,
                Err(_) => 3,
            }] += 1;
        }
        assert!(outcomes.iter().all(|&n| n > 100), "{outcomes:?}");
    }

    #[test]
    fn paper_mappings_are_valid() {
        // Cores ordered A,B,E,F. Mapping (c): A@τ2, B@τ1, E@τ4, F@τ3.
        let c = Mapping::from_tiles(&mesh(), [1, 0, 3, 2].map(TileId::new)).unwrap();
        c.validate().unwrap();
        // Mapping (d): A@τ4, B@τ1, E@τ2, F@τ3.
        let d = Mapping::from_tiles(&mesh(), [3, 0, 1, 2].map(TileId::new)).unwrap();
        d.validate().unwrap();
        assert_ne!(c, d);
    }
}
