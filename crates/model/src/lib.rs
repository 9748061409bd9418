//! # noc-model
//!
//! Application and architecture models for energy- and timing-aware NoC
//! mapping, reproducing the data structures of Marcon et al., *"Exploring
//! NoC Mapping Strategies: An Energy and Timing Aware Technique"* (DATE
//! 2005):
//!
//! * [`Cwg`] — *communication weighted graph* (Definition 1): cores with
//!   total-bit-volume edges; the model behind the CWM mapping strategy.
//! * [`Cdcg`] — *communication dependence and computation graph*
//!   (Definition 2): one vertex per packet, carrying the source core's
//!   computation time and the packet size; edges are dependences. The
//!   model behind the CDCM strategy.
//! * [`Mesh`] + [`XyRouting`] — *communication resource graph*
//!   (Definition 3): the tile mesh, its routers and links, and the
//!   deterministic XY routing the paper assumes.
//! * [`Mapping`] — an injective core→tile placement, the decision variable
//!   of the optimization.
//!
//! # Examples
//!
//! Build the paper's running example application and one of its mappings:
//!
//! ```
//! use noc_model::{Cdcg, Mapping, Mesh, TileId};
//!
//! # fn main() -> Result<(), noc_model::ModelError> {
//! let mut app = Cdcg::new();
//! let a = app.add_core("A");
//! let b = app.add_core("B");
//! let e = app.add_core("E");
//! let f = app.add_core("F");
//! let pab1 = app.add_packet(a, b, 6, 15)?;
//! let pea1 = app.add_packet(e, a, 10, 20)?;
//! let paf1 = app.add_packet(a, f, 6, 15)?;
//! app.add_dependence(pab1, paf1)?;
//! app.add_dependence(pea1, paf1)?;
//!
//! let mesh = Mesh::new(2, 2)?;
//! let mapping = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new))?;
//! assert_eq!(mapping.tile_of(a), TileId::new(1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdcg;
pub mod crg;
pub mod cwg;
pub mod dot;
pub mod error;
pub mod fault;
pub mod ids;
pub mod mapping;
pub mod route_cache;
pub mod route_provider;
pub mod routing;
pub mod walk_memo;

pub use cdcg::{Cdcg, Packet};
pub use crg::{Coord, Direction, Link, Mesh};
pub use cwg::{Communication, Cwg};
pub use error::ModelError;
pub use fault::{FaultAwareRoutes, FaultRouteStats, FaultScenario, FaultSet};
pub use ids::{CoreId, PacketId, TileId};
pub use mapping::Mapping;
pub use route_cache::RouteCache;
pub use route_provider::{ImplicitRoutes, RouteProvider, RouteSource, RouteTier};
pub use routing::{
    Path, RoutingAlgorithm, RoutingKind, TorusXyRouting, TorusXyzRouting, XyRouting, XyzRouting,
    YxRouting,
};
pub use walk_memo::{WalkMemo, WalkMemoStats};
