//! # noc-obs
//!
//! The observability substrate of the workspace: metrics, structured
//! trace events, and the search flight recorder. Dependency-free by
//! design (not even the serde shim) so it can sit below every other
//! crate — `noc-sim`, `noc-search`, `noc-mapping`, `noc-service` and
//! the CLI all thread through it without a cycle.
//!
//! Three pillars:
//!
//! * [`metrics`] — process-lifetime named counters, gauges and fixed
//!   log-bucket histograms behind a [`MetricsRegistry`], with a
//!   Prometheus-style text exposition and a JSON snapshot. Counters are
//!   sharded atomics so hot paths never contend on a single cache line.
//! * [`trace`] — line-oriented JSON trace events emitted through a
//!   thread-local per-job context. Installing no context makes every
//!   emission a branch-on-a-thread-local no-op, and emission only ever
//!   *reads* search state, so results are seed-for-seed bit-identical
//!   whether tracing is on or off (pinned by `tests/obs_determinism.rs`).
//! * [`flight`] — a bounded per-job ring buffer of trace events, the
//!   flight recorder the service exposes over the `trace` socket op.
//!
//! # Determinism
//!
//! This crate joins the `noc-verify` DET01–03 scope. Its one wall-clock
//! surface is [`clock`] (enforced by the DET04 rule): every timestamp
//! any observability consumer reads comes from [`clock::stamp`], and
//! clock values only ever *report* elapsed time — they never feed a
//! decision.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod flight;
mod json;
pub mod metrics;
pub mod trace;

pub use clock::{stamp, Stamp};
pub use flight::{FlightRecorder, Tape};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use trace::{active, emit_with, with_job, JsonLinesSink, MemorySink, TraceEvent, TraceSink};
