//! # noc-sim
//!
//! Wormhole NoC timing engine for the DATE 2005 CDCM reproduction.
//!
//! Two independent implementations of the same timing model live here:
//!
//! * **The interval scheduler**, the paper's CDCM execution algorithm:
//!   one event-driven loop ([`cost`]) that walks every CDCG packet over
//!   its route, arbitrates inter-router links FCFS, keeps one input-port
//!   FIFO per link and produces the application execution time `texec`.
//!   Two entry points run that same loop:
//!   * [`schedule()`] / [`schedule_with`] record the *artifacts*:
//!     per-packet timelines, the occupancy lists of every CRG resource
//!     (the paper's "cost variable lists", Figure 3) and the contention
//!     log, for Gantt charts, reports and energy breakdowns.
//!   * [`schedule_cost_with`] / [`CostEvaluator`] record nothing and
//!     allocate nothing after warm-up: the search loops score every
//!     candidate mapping, one at a time, with one run from the first
//!     event to the last, over a reusable [`ScheduleScratch`] and a
//!     shared [`noc_model::RouteProvider`].
//! * **Flit-level simulation** ([`des`]) — the independent oracle. It
//!   shares no code with the interval scheduler; the repository's
//!   cross-validation suite checks that the two agree cycle-exactly.
//!
//! Supporting modules: [`params`] (the `tr`/`tl`/`λ`/flit-width parameter
//! set), [`wormhole`] (Equations 6–8 in closed form), [`gantt`] (the
//! timing diagrams of Figures 4–5) and [`analysis`] (link-load and
//! latency statistics).
//!
//! # Examples
//!
//! Scheduling a two-packet application:
//!
//! ```
//! use noc_model::{Cdcg, Mapping, Mesh};
//! use noc_sim::{schedule, SimParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut app = Cdcg::new();
//! let a = app.add_core("producer");
//! let b = app.add_core("consumer");
//! let first = app.add_packet(a, b, 4, 64)?;
//! let second = app.add_packet(a, b, 2, 32)?;
//! app.add_dependence(first, second)?;
//!
//! let mesh = Mesh::new(2, 1)?;
//! let mapping = Mapping::identity(&mesh, 2)?;
//! let sched = schedule(&app, &mesh, &mapping, &SimParams::paper_example())?;
//! assert!(sched.is_contention_free());
//! assert!(sched.texec_cycles() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cost;
pub mod des;
pub mod error;
pub mod gantt;
pub mod interval;
pub mod obs;
pub mod params;
mod queue;
pub mod resource;
pub mod schedule;
pub mod wormhole;

pub use cost::{schedule_cost_with, CostEvaluator, DeltaStats, RunStats, ScheduleScratch};
pub use error::SimError;
pub use interval::CycleInterval;
pub use params::SimParams;
pub use resource::{Occupancy, OccupancyMap, Resource};
pub use schedule::{schedule, schedule_with, ContentionEvent, PacketSchedule, Schedule};
