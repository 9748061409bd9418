//! Error types for model construction and validation.

use crate::ids::{CoreId, PacketId, TileId};
use std::error::Error;
use std::fmt;

/// Errors produced while building or validating the application/architecture
/// models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A core identifier referenced a core that does not exist.
    UnknownCore(CoreId),
    /// A tile identifier referenced a tile outside the mesh.
    UnknownTile(TileId),
    /// A packet identifier referenced a packet that does not exist.
    UnknownPacket(PacketId),
    /// A communication edge connected a core to itself.
    SelfCommunication(CoreId),
    /// A packet carried zero bits (the CWG/CDCG definitions require `w ≠ 0`).
    EmptyPacket(PacketId),
    /// Adding a dependence edge would create a cycle in the CDCG.
    DependenceCycle {
        /// Source packet of the offending edge.
        from: PacketId,
        /// Destination packet of the offending edge.
        to: PacketId,
    },
    /// A dependence edge was inserted twice.
    DuplicateDependence {
        /// Source packet of the duplicated edge.
        from: PacketId,
        /// Destination packet of the duplicated edge.
        to: PacketId,
    },
    /// The mesh would have zero tiles.
    EmptyMesh,
    /// There are more cores than tiles, so no injective mapping exists.
    TooManyCores {
        /// Number of application cores.
        cores: usize,
        /// Number of available tiles.
        tiles: usize,
    },
    /// A mapping placed two cores on the same tile.
    TileConflict {
        /// The doubly-used tile.
        tile: TileId,
        /// First core mapped to `tile`.
        first: CoreId,
        /// Second core mapped to `tile`.
        second: CoreId,
    },
    /// A mapping does not cover every core of the application.
    IncompleteMapping {
        /// Number of cores the mapping covers.
        mapped: usize,
        /// Number of cores the application has.
        expected: usize,
    },
    /// The dense per-pair route cache would be too large for this mesh;
    /// use the implicit route provider instead
    /// (`noc_model::route_provider`).
    RouteCacheTooLarge {
        /// Tiles of the offending mesh.
        tiles: usize,
        /// Estimated table entries the dense cache would need.
        entries: u128,
    },
    /// A fault set disconnected the mesh: no surviving route exists
    /// between the pair (`noc_model::fault`).
    MeshPartitioned {
        /// The unroutable `(source, destination)` tile pair.
        pair: (TileId, TileId),
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownCore(c) => write!(f, "unknown core {c}"),
            Self::UnknownTile(t) => write!(f, "unknown tile {t}"),
            Self::UnknownPacket(p) => write!(f, "unknown packet {p}"),
            Self::SelfCommunication(c) => {
                write!(f, "core {c} cannot communicate with itself")
            }
            Self::EmptyPacket(p) => write!(f, "packet {p} carries zero bits"),
            Self::DependenceCycle { from, to } => {
                write!(f, "dependence {from} -> {to} would create a cycle")
            }
            Self::DuplicateDependence { from, to } => {
                write!(f, "dependence {from} -> {to} inserted twice")
            }
            Self::EmptyMesh => write!(f, "mesh must have at least one tile"),
            Self::TooManyCores { cores, tiles } => {
                write!(f, "{cores} cores cannot be mapped onto {tiles} tiles")
            }
            Self::TileConflict {
                tile,
                first,
                second,
            } => {
                write!(f, "cores {first} and {second} both mapped to tile {tile}")
            }
            Self::IncompleteMapping { mapped, expected } => {
                write!(f, "mapping covers {mapped} of {expected} cores")
            }
            Self::RouteCacheTooLarge { tiles, entries } => {
                write!(
                    f,
                    "dense route cache for {tiles} tiles needs ~{entries} table entries; \
                     use the implicit route provider"
                )
            }
            Self::MeshPartitioned { pair: (src, dst) } => {
                write!(
                    f,
                    "fault set partitions the mesh: no surviving route from {src} to {dst}"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let err = ModelError::TooManyCores { cores: 5, tiles: 4 };
        let msg = err.to_string();
        assert!(msg.contains('5') && msg.contains('4'));
        assert!(msg.starts_with(char::is_numeric) || msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }

    #[test]
    fn display_all_variants() {
        let variants = [
            ModelError::UnknownCore(CoreId::new(1)),
            ModelError::UnknownTile(TileId::new(2)),
            ModelError::UnknownPacket(PacketId::new(3)),
            ModelError::SelfCommunication(CoreId::new(0)),
            ModelError::EmptyPacket(PacketId::new(9)),
            ModelError::DependenceCycle {
                from: PacketId::new(0),
                to: PacketId::new(1),
            },
            ModelError::DuplicateDependence {
                from: PacketId::new(0),
                to: PacketId::new(1),
            },
            ModelError::EmptyMesh,
            ModelError::TileConflict {
                tile: TileId::new(0),
                first: CoreId::new(1),
                second: CoreId::new(2),
            },
            ModelError::IncompleteMapping {
                mapped: 3,
                expected: 4,
            },
            ModelError::RouteCacheTooLarge {
                tiles: 4096,
                entries: 1 << 40,
            },
            ModelError::MeshPartitioned {
                pair: (TileId::new(0), TileId::new(5)),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
