//! # noc-sim
//!
//! Wormhole NoC timing engine for the DATE 2005 CDCM reproduction.
//!
//! Two independent implementations of the same timing model live here:
//!
//! * [`schedule()`] — the paper's CDCM execution algorithm: an event-driven
//!   *interval scheduler* that walks every CDCG packet over its XY path,
//!   annotates each CRG resource with absolute occupancy intervals (the
//!   paper's "cost variable lists", Figure 3), arbitrates inter-router
//!   links FCFS and produces the application execution time `texec`.
//! * [`des`] — a flit-level, cycle-driven discrete-event simulator used to
//!   cross-validate the interval scheduler (and to explore bounded router
//!   buffers, which the analytic model cannot express).
//!
//! The interval scheduler additionally has a **cost-only fast path**,
//! [`cost`]: the same algorithm (the same event order, with a non-final
//! `DECIDE` folded into its `LINK_REQUEST`; identical arbitration and
//! tie-breaking; bit-exact `texec`) evaluated without materializing
//! schedules, occupancy maps or contention logs, over preallocated
//! scratch state ([`ScheduleScratch`]) and a shared route
//! source — a dense [`noc_model::RouteCache`] or any tier of the
//! large-mesh [`noc_model::RouteProvider`]. The contract:
//!
//! * **Full evaluation** ([`schedule()`]) — when the *artifacts* matter:
//!   occupancy lists, per-packet timelines, contention events, Gantt
//!   charts, paper-style reports. Allocates per call.
//! * **Cost-only evaluation** ([`schedule_cost`] / [`CostEvaluator`]) —
//!   when only the scalar cost matters, i.e. inside search loops that
//!   evaluate millions of candidate mappings. Allocation-free after
//!   warm-up, several times faster, and guaranteed to return exactly the
//!   full path's `texec_cycles()` on every input. Every cost-only run
//!   starts at the first event and runs the event queue dry: a search
//!   move (a tile swap) that can change a route is scored by one such
//!   run of the swapped mapping. [`BatchEvaluator`] runs the same event
//!   loop over a whole cohort of candidates.
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
pub mod batch;
pub mod cost;
pub mod des;
pub mod error;
mod event;
pub mod gantt;
pub mod interval;
pub mod obs;
pub mod params;
mod queue;
pub mod resource;
pub mod schedule;
pub mod wormhole;

pub use batch::{BatchEvaluator, BatchStats, BATCH_SIZE_BUCKETS};
pub use cost::{
    schedule_cost, schedule_cost_memoized, schedule_cost_with, CostEvaluator, DeltaStats, RunStats,
    ScheduleScratch,
};
pub use error::SimError;
pub use interval::CycleInterval;
pub use params::SimParams;
pub use resource::{Occupancy, OccupancyMap, Resource};
pub use schedule::{schedule, schedule_with, ContentionEvent, PacketSchedule, Schedule};
