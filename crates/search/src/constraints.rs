//! Placement constraints: pinning cores to fixed tiles.
//!
//! Real SoC floorplans fix some blocks before mapping begins — IO pads
//! and memory controllers sit at the die edge, hardened accelerators
//! keep their tile across respins. [`Constraints`] captures such pins.
//! The full-cost annealer ([`crate::anneal_cancellable`]) takes a pin
//! set as its move set: it starts from [`Constraints::random_mapping`]
//! and swaps only free tiles (the paper's formulation is the
//! unconstrained special case).

use noc_model::{CoreId, Mapping, Mesh, ModelError, TileId};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A set of core→tile pins.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Constraints {
    pinned: BTreeMap<CoreId, TileId>,
}

impl Constraints {
    /// No constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins `core` to `tile`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TileConflict`] if another core is already
    /// pinned to `tile`.
    pub fn pin(mut self, core: CoreId, tile: TileId) -> Result<Self, ModelError> {
        if let Some((&other, _)) = self.pinned.iter().find(|&(_, &t)| t == tile) {
            if other != core {
                return Err(ModelError::TileConflict {
                    tile,
                    first: other,
                    second: core,
                });
            }
        }
        self.pinned.insert(core, tile);
        Ok(self)
    }

    /// Tile a core is pinned to, if any.
    pub fn pinned_tile(&self, core: CoreId) -> Option<TileId> {
        self.pinned.get(&core).copied()
    }

    /// True if `tile` is reserved by a pin.
    pub fn is_pinned_tile(&self, tile: TileId) -> bool {
        self.pinned.values().any(|&t| t == tile)
    }

    /// The tiles of `mesh` no pin reserves, in index order.
    pub fn free_tiles(&self, mesh: &Mesh) -> Vec<TileId> {
        mesh.tiles().filter(|t| !self.is_pinned_tile(*t)).collect()
    }

    /// Number of pins.
    pub fn len(&self) -> usize {
        self.pinned.len()
    }

    /// True when no pins exist.
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty()
    }

    /// Checks the pins against an instance.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownCore`]/[`ModelError::UnknownTile`]
    /// for out-of-range pins and [`ModelError::TooManyCores`] if the
    /// unpinned cores cannot fit the unpinned tiles.
    pub fn validate(&self, mesh: &Mesh, core_count: usize) -> Result<(), ModelError> {
        for (&core, &tile) in &self.pinned {
            if core.index() >= core_count {
                return Err(ModelError::UnknownCore(core));
            }
            if !mesh.contains(tile) {
                return Err(ModelError::UnknownTile(tile));
            }
        }
        let free_cores = core_count - self.pinned.len();
        let free_tiles = mesh.tile_count() - self.pinned.len();
        if free_cores > free_tiles {
            return Err(ModelError::TooManyCores {
                cores: core_count,
                tiles: mesh.tile_count(),
            });
        }
        Ok(())
    }

    /// True if `mapping` honours every pin.
    pub fn satisfied_by(&self, mapping: &Mapping) -> bool {
        self.pinned.iter().all(|(&core, &tile)| {
            core.index() < mapping.core_count() && mapping.tile_of(core) == tile
        })
    }

    /// A random mapping honouring the pins: pinned cores placed first,
    /// the rest shuffled over the remaining tiles. Without pins this is
    /// exactly the draw sequence of [`crate::random_mapping`].
    ///
    /// # Panics
    ///
    /// Panics if the constraints do not validate against the instance.
    pub fn random_mapping(&self, mesh: &Mesh, core_count: usize, rng: &mut StdRng) -> Mapping {
        self.validate(mesh, core_count)
            .expect("constraints fit the instance");
        let mut free_tiles = self.free_tiles(mesh);
        for i in (1..free_tiles.len()).rev() {
            let j = rng.gen_range(0..=i);
            free_tiles.swap(i, j);
        }
        let mut next_free = free_tiles.into_iter();
        let tiles: Vec<TileId> = (0..core_count)
            .map(|c| {
                self.pinned_tile(CoreId::new(c))
                    .unwrap_or_else(|| next_free.next().expect("validated headroom"))
            })
            .collect();
        Mapping::from_tiles(mesh, tiles).expect("pin-aware construction is injective")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pins_conflict_detection() {
        let c = Constraints::new()
            .pin(CoreId::new(0), TileId::new(0))
            .unwrap();
        let err = c.clone().pin(CoreId::new(1), TileId::new(0)).unwrap_err();
        assert!(matches!(err, ModelError::TileConflict { .. }));
        // Re-pinning the same core to the same tile is fine.
        let again = c.pin(CoreId::new(0), TileId::new(0)).unwrap();
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn validation_checks_ranges_and_headroom() {
        let mesh = Mesh::new(2, 2).unwrap();
        let pins = Constraints::new()
            .pin(CoreId::new(9), TileId::new(0))
            .unwrap();
        assert!(pins.validate(&mesh, 4).is_err());
        let pins = Constraints::new()
            .pin(CoreId::new(0), TileId::new(9))
            .unwrap();
        assert!(pins.validate(&mesh, 4).is_err());
        let ok = Constraints::new()
            .pin(CoreId::new(0), TileId::new(3))
            .unwrap();
        ok.validate(&mesh, 4).unwrap();
    }

    #[test]
    fn random_mapping_respects_pins() {
        let mesh = Mesh::new(3, 3).unwrap();
        let pins = Constraints::new()
            .pin(CoreId::new(1), TileId::new(4))
            .unwrap()
            .pin(CoreId::new(2), TileId::new(0))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let m = pins.random_mapping(&mesh, 5, &mut rng);
            m.validate().unwrap();
            assert!(pins.satisfied_by(&m));
        }
    }
}
