//! The exploration service: a job queue, a fixed worker pool and the
//! shared provider registry, behind a cloneable [`ServiceHandle`].
//!
//! # Determinism
//!
//! Every job's result is a pure function of its request: searches are
//! seeded, the shared registry only ever hands out providers that route
//! identically to freshly built ones, and workers never exchange state
//! mid-job. Consequently the *results* (and their telemetry) are
//! bit-identical whether the service runs one worker or sixteen, and
//! regardless of which worker picks which job — the same reduction
//! guarantee the search crate gives for its own parallel engines.
//!
//! What is **not** deterministic across worker counts is wall-clock
//! interleaving: the order in which [`ServiceEvent`]s of *different*
//! jobs arrive may vary. Per-job event order (`Submitted` → `Started` →
//! terminal) is always preserved.
//!
//! # Scheduling
//!
//! Three priority classes, each a FIFO. A worker always dequeues from
//! the highest non-empty class; within a class, submission order wins.

use crate::events::{bounded, EventSender, EventStream};
use crate::job::{JobId, JobRequest, JobResult, JobState, Priority};
use crate::obs::ServiceMetrics;
use crate::registry::{ProviderRegistry, RegistryStats};
use crate::worker;
use noc_obs::{FlightRecorder, MetricsRegistry, Stamp, Tape, TraceEvent, TraceSink};
use noc_search::{CancelToken, SearchTelemetry};
use noc_sim::ScheduleScratch;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Events each flight-recorder tape retains per job (oldest dropped
/// first, with a visible drop count).
const FLIGHT_EVENTS_PER_JOB: usize = 256;
/// Jobs the flight recorder retains tapes for (oldest job evicted).
const FLIGHT_MAX_JOBS: usize = 64;

/// Configuration of a service instance.
///
/// The worker count is explicit by design: the service never consults
/// the machine (`available_parallelism` and friends) so that a config is
/// reproducible wherever it runs.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Install a per-job trace context around execution (flight
    /// recorder, `Progress` events, walk-memo metrics). Metrics counting is
    /// always on; this only controls tracing. Defaults to true — the
    /// determinism suite proves on ≡ off bit-identically, so there is
    /// no correctness reason to disable it.
    pub observe: bool,
    /// Per-subscriber event-queue bound; a subscriber that falls
    /// further behind loses the oldest events (counted in
    /// `noc_subscriber_dropped_events_total`).
    pub event_capacity: usize,
    /// Additional sink receiving every trace event (e.g. a
    /// [`JsonLinesSink`](noc_obs::JsonLinesSink) writing a trace file).
    /// The flight recorder records regardless.
    pub trace_sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("workers", &self.workers)
            .field("observe", &self.observe)
            .field("event_capacity", &self.event_capacity)
            .field("trace_sink", &self.trace_sink.as_ref().map(|_| ".."))
            .finish()
    }
}

impl ServiceConfig {
    /// A config with the given worker count (observability on, event
    /// queues bounded at 1024, no extra trace sink).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            observe: true,
            event_capacity: 1024,
            trace_sink: None,
        }
    }

    /// Disables the per-job trace context (flight recorder and
    /// `Progress` events stay empty; results are identical either way).
    pub fn without_observability(mut self) -> Self {
        self.observe = false;
        self
    }

    /// Adds a sink that receives every trace event.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Overrides the per-subscriber event-queue bound.
    #[cfg(test)]
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity.max(1);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new(2)
    }
}

/// What subscribers see as jobs move through the service. Cross-job
/// interleaving depends on worker timing; per-job order does not.
#[derive(Debug, Clone, Serialize)]
pub enum ServiceEvent {
    /// A job entered the queue.
    Submitted {
        /// The job.
        job: JobId,
        /// Work kind ("solve" / "evaluate").
        kind: &'static str,
        /// Scheduling class name.
        priority: &'static str,
    },
    /// A worker started executing the job.
    Started {
        /// The job.
        job: JobId,
    },
    /// The job finished successfully.
    Completed {
        /// The job.
        job: JobId,
        /// Objective value of the result (solve: search cost in pJ;
        /// evaluate: total energy in pJ).
        cost_pj: f64,
        /// Evaluations billed (0 for evaluate jobs).
        evaluations: u64,
        /// Best-so-far telemetry snapshot, when the job produced one.
        telemetry: Option<SearchTelemetry>,
    },
    /// The job was cancelled. `partial` is true when a running job
    /// stopped at a checkpoint and still returned its verified best.
    Cancelled {
        /// The job.
        job: JobId,
        /// True if a partial result is available.
        partial: bool,
    },
    /// The job failed.
    Failed {
        /// The job.
        job: JobId,
        /// Human-readable error.
        error: String,
    },
    /// A running job reported search progress (a scheduling round or a
    /// best-so-far improvement). Emitted only while the service observes
    /// (see [`ServiceConfig::observe`]); purely informational.
    Progress {
        /// The job.
        job: JobId,
        /// Search round index, when the checkpoint was round-scoped.
        round: Option<u64>,
        /// Evaluations spent so far.
        evaluations: u64,
        /// Best cost known so far.
        best_cost: f64,
    },
}

impl ServiceEvent {
    /// The job this event concerns.
    pub fn job(&self) -> JobId {
        match self {
            Self::Submitted { job, .. }
            | Self::Started { job }
            | Self::Completed { job, .. }
            | Self::Cancelled { job, .. }
            | Self::Failed { job, .. }
            | Self::Progress { job, .. } => *job,
        }
    }
}

/// Aggregate counters of a service instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ServiceStats {
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs waiting in a queue.
    pub pending: u64,
    /// Jobs currently on a worker.
    pub running: u64,
    /// Jobs finished successfully.
    pub done: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs cancelled (with or without a partial result).
    pub cancelled: u64,
    /// Registry hits across all lookups.
    pub registry_hits: u64,
    /// Registry misses (providers built).
    pub registry_misses: u64,
    /// Distinct providers cached.
    pub registry_entries: u64,
    /// Full cost evaluations served by the pooled worker scratches.
    pub scratch_runs: u64,
    /// Scheduler events processed by the pooled worker scratches: `k + 1`
    /// per packet crossing `k` routers (see [`noc_sim::RunStats::events`]).
    pub scratch_events: u64,
}

struct JobSlot {
    /// Taken by the worker at dispatch (or dropped on pending-cancel).
    request: Option<JobRequest>,
    state: JobState,
    cancel: CancelToken,
    priority: Priority,
    /// When the job was submitted; feeds the sojourn histogram at the
    /// terminal transition (report-only, like every obs timestamp).
    submitted: Stamp,
}

struct State {
    jobs: Vec<JobSlot>,
    /// One FIFO per priority class, holding job indices.
    queues: [VecDeque<u64>; Priority::COUNT],
    shutdown: bool,
    subscribers: Vec<EventSender>,
}

impl State {
    fn emit(&mut self, event: ServiceEvent) {
        self.subscribers.retain(|tx| tx.send(event.clone()));
    }

    /// Dequeues the next runnable job: highest class first, FIFO within
    /// a class, skipping entries cancelled while still pending.
    fn pop_next(&mut self, metrics: &ServiceMetrics) -> Option<(JobId, JobRequest, CancelToken)> {
        for queue in &mut self.queues {
            while let Some(index) = queue.pop_front() {
                let slot = &mut self.jobs[index as usize];
                let Some(request) = slot.request.take() else {
                    continue; // cancelled while pending (gauge already decremented)
                };
                slot.state = JobState::Running;
                metrics.queue_depth[slot.priority.class()].add(-1);
                return Some((JobId(index), request, slot.cancel.clone()));
            }
        }
        None
    }

    /// Records a job's terminal transition into the metric counters.
    fn observe_terminal(&self, metrics: &ServiceMetrics, job: JobId) {
        let slot = &self.jobs[job.index()];
        metrics.sojourn[slot.priority.class()].observe(slot.submitted.elapsed_us());
        match slot.state {
            JobState::Done(_) => metrics.completed.inc(1),
            JobState::Failed(_) => metrics.failed.inc(1),
            JobState::Cancelled(_) => metrics.cancelled.inc(1),
            JobState::Pending | JobState::Running => {}
        }
    }
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    job_done: Condvar,
    registry: ProviderRegistry,
    scratch_runs: AtomicU64,
    scratch_events: AtomicU64,
    metrics: ServiceMetrics,
    flight: Arc<FlightRecorder>,
    observe: bool,
    event_capacity: usize,
    trace_sink: Option<Arc<dyn TraceSink>>,
}

/// The per-job trace sink the worker installs: feeds the flight
/// recorder, maps engine counters into metrics, forwards progress to
/// event subscribers, and relays to the configured extra sink.
struct WorkerSink {
    shared: Arc<Shared>,
}

impl TraceSink for WorkerSink {
    fn record(&self, job: u64, event: &TraceEvent) {
        let shared = &*self.shared;
        shared.flight.push(job, event);
        shared.metrics.trace_events.inc(1);
        if event.kind == "walk_memo" {
            let mut memo = noc_model::WalkMemoStats::default();
            for &(name, value) in &event.counters {
                match name {
                    "memo_hits" => memo.hits = value,
                    "memo_misses" => memo.misses = value,
                    "memo_evictions" => memo.evictions = value,
                    _ => {}
                }
            }
            noc_sim::obs::publish_walk_memo_stats(&shared.metrics.registry, &memo);
        }
        if matches!(event.kind, "round" | "best" | "epoch") {
            // The worker holds no locks while executing, so taking the
            // state lock here (to fan the progress out) cannot deadlock.
            let progress = ServiceEvent::Progress {
                job: JobId(job),
                round: event.round,
                evaluations: event.evaluations,
                best_cost: event.cost.unwrap_or(f64::NAN),
            };
            let mut state = shared.state.lock().expect("service lock poisoned");
            state.emit(progress);
        }
        if let Some(sink) = &shared.trace_sink {
            sink.record(job, event);
        }
    }
}

/// A cloneable reference to a running service: submit, query, cancel,
/// subscribe. Handles stay valid for the life of the [`MappingService`]
/// that spawned them.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle").finish_non_exhaustive()
    }
}

impl ServiceHandle {
    /// Submits a job and returns its id. Ids are dense and assigned in
    /// submission order.
    pub fn submit(&self, request: JobRequest, priority: Priority) -> JobId {
        let mut state = self.lock();
        let id = JobId(state.jobs.len() as u64);
        let kind = request.kind();
        state.jobs.push(JobSlot {
            request: Some(request),
            state: JobState::Pending,
            cancel: CancelToken::new(),
            priority,
            submitted: noc_obs::stamp(),
        });
        state.queues[priority.class()].push_back(id.0);
        self.shared.metrics.submitted[priority.class()].inc(1);
        self.shared.metrics.queue_depth[priority.class()].add(1);
        state.emit(ServiceEvent::Submitted {
            job: id,
            kind,
            priority: priority.name(),
        });
        drop(state);
        self.shared.work_ready.notify_one();
        id
    }

    /// Requests cancellation. A pending job goes straight to
    /// `Cancelled(None)`; a running job's token trips and the job stops
    /// at its next search checkpoint, recording `Cancelled(Some(best))`.
    /// Returns false if the job is unknown or already terminal.
    pub fn cancel(&self, job: JobId) -> bool {
        let mut state = self.lock();
        let Some(slot) = state.jobs.get_mut(job.index()) else {
            return false;
        };
        match slot.state {
            JobState::Pending => {
                slot.request = None;
                slot.cancel.cancel();
                slot.state = JobState::Cancelled(None);
                self.shared.metrics.queue_depth[slot.priority.class()].add(-1);
                state.observe_terminal(&self.shared.metrics, job);
                state.emit(ServiceEvent::Cancelled {
                    job,
                    partial: false,
                });
                drop(state);
                self.shared.job_done.notify_all();
                true
            }
            JobState::Running => {
                slot.cancel.cancel();
                true
            }
            _ => false,
        }
    }

    /// Current state of a job (a snapshot; clone of the slot state).
    pub fn status(&self, job: JobId) -> Option<JobState> {
        self.lock().jobs.get(job.index()).map(|s| s.state.clone())
    }

    /// Blocks until the job reaches a terminal state and returns it.
    pub fn wait(&self, job: JobId) -> Option<JobState> {
        let mut state = self.lock();
        loop {
            let slot = state.jobs.get(job.index())?;
            if slot.state.is_terminal() {
                return Some(slot.state.clone());
            }
            state = self
                .shared
                .job_done
                .wait(state)
                .expect("service lock poisoned");
        }
    }

    /// Blocks until every submitted job is terminal; returns their
    /// states in id order.
    pub fn wait_all(&self) -> Vec<JobState> {
        let mut state = self.lock();
        loop {
            if state.jobs.iter().all(|s| s.state.is_terminal()) {
                return state.jobs.iter().map(|s| s.state.clone()).collect();
            }
            state = self
                .shared
                .job_done
                .wait(state)
                .expect("service lock poisoned");
        }
    }

    /// Registers an event subscriber. Events submitted before the call
    /// are not replayed. The stream is bounded
    /// ([`ServiceConfig::event_capacity`]): a subscriber that stops
    /// reading loses the *oldest* undelivered events rather than
    /// stalling the service or growing its memory without limit.
    pub fn subscribe(&self) -> EventStream {
        let (tx, rx) = bounded(
            self.shared.event_capacity,
            Arc::clone(&self.shared.metrics.dropped_events),
        );
        self.lock().subscribers.push(tx);
        rx
    }

    /// The service's metrics registry (shared; live).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics.registry)
    }

    /// Prometheus-style text exposition of every service metric.
    pub fn metrics_exposition(&self) -> String {
        self.shared.metrics.registry.exposition()
    }

    /// JSON snapshot of every service metric.
    pub fn metrics_json(&self) -> String {
        self.shared.metrics.registry.snapshot_json()
    }

    /// The flight recorder's tape for a job, if the recorder has seen
    /// it (requires [`ServiceConfig::observe`], the default).
    pub fn flight_snapshot(&self, job: JobId) -> Option<Tape> {
        self.shared.flight.snapshot(job.0)
    }

    /// Job ids the flight recorder currently holds tapes for.
    // noc-verify: allow(API02) — test oracle: `tests/obs_determinism.rs` counts the flight tapes with it
    pub fn flight_jobs(&self) -> Vec<JobId> {
        self.shared.flight.jobs().into_iter().map(JobId).collect()
    }

    /// Aggregate counters: job states, registry hit rate, pooled
    /// scratch-arena reuse.
    pub fn stats(&self) -> ServiceStats {
        let registry = self.shared.registry.stats();
        let state = self.lock();
        let mut stats = ServiceStats {
            submitted: state.jobs.len() as u64,
            pending: 0,
            running: 0,
            done: 0,
            failed: 0,
            cancelled: 0,
            registry_hits: registry.hits,
            registry_misses: registry.misses,
            registry_entries: registry.entries as u64,
            scratch_runs: self.shared.scratch_runs.load(Ordering::Relaxed),
            scratch_events: self.shared.scratch_events.load(Ordering::Relaxed),
        };
        for slot in &state.jobs {
            match slot.state {
                JobState::Pending => stats.pending += 1,
                JobState::Running => stats.running += 1,
                JobState::Done(_) => stats.done += 1,
                JobState::Failed(_) => stats.failed += 1,
                JobState::Cancelled(_) => stats.cancelled += 1,
            }
        }
        stats
    }

    /// Registry counters alone (hit/miss/entries).
    pub fn registry_stats(&self) -> RegistryStats {
        self.shared.registry.stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.shared.state.lock().expect("service lock poisoned")
    }
}

/// The service itself: owns the worker threads. Dropping it drains the
/// queue (every submitted job still runs) and joins the pool.
pub struct MappingService {
    handle: ServiceHandle,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for MappingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingService")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl MappingService {
    /// Starts the service with `config.workers` threads.
    pub fn start(config: ServiceConfig) -> Self {
        let metrics = ServiceMetrics::new();
        let registry = ProviderRegistry::new(
            Arc::clone(&metrics.registry_hits),
            Arc::clone(&metrics.registry_misses),
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: Vec::new(),
                queues: std::array::from_fn(|_| VecDeque::new()),
                shutdown: false,
                subscribers: Vec::new(),
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            registry,
            scratch_runs: AtomicU64::new(0),
            scratch_events: AtomicU64::new(0),
            metrics,
            flight: Arc::new(FlightRecorder::new(FLIGHT_EVENTS_PER_JOB, FLIGHT_MAX_JOBS)),
            observe: config.observe,
            event_capacity: config.event_capacity,
            trace_sink: config.trace_sink,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("noc-service-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Self {
            handle: ServiceHandle { shared },
            workers,
        }
    }

    /// A cloneable handle onto this service.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Convenience: submit directly on the service.
    pub fn submit(&self, request: JobRequest, priority: Priority) -> JobId {
        self.handle.submit(request, priority)
    }

    /// Convenience: cancel directly on the service.
    pub fn cancel(&self, job: JobId) -> bool {
        self.handle.cancel(job)
    }

    /// Convenience: status directly on the service.
    pub fn status(&self, job: JobId) -> Option<JobState> {
        self.handle.status(job)
    }

    /// Convenience: wait directly on the service.
    pub fn wait(&self, job: JobId) -> Option<JobState> {
        self.handle.wait(job)
    }

    /// Convenience: wait for every job directly on the service.
    pub fn wait_all(&self) -> Vec<JobState> {
        self.handle.wait_all()
    }

    /// Convenience: subscribe directly on the service.
    pub fn subscribe(&self) -> EventStream {
        self.handle.subscribe()
    }

    /// Convenience: stats directly on the service.
    pub fn stats(&self) -> ServiceStats {
        self.handle.stats()
    }

    /// Drains the queue and joins the workers. Called by `Drop`; calling
    /// it explicitly lets the caller observe completion.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.handle.lock();
            state.shutdown = true;
        }
        self.handle.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for MappingService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: dequeue → execute → record, with a pooled scratch arena
/// that outlives every job the worker runs.
fn worker_loop(shared: &Arc<Shared>) {
    let mut scratch = ScheduleScratch::new();
    let mut reported = scratch.run_stats();
    loop {
        let (id, request, cancel) = {
            let mut state = shared.state.lock().expect("service lock poisoned");
            loop {
                if let Some(next) = state.pop_next(&shared.metrics) {
                    state.emit(ServiceEvent::Started { job: next.0 });
                    break next;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .expect("service lock poisoned");
            }
        };

        shared.metrics.workers_busy.add(1);
        let result = if shared.observe {
            // Install the per-job trace context: every emission inside
            // the search/mapping stack lands on this worker's sink.
            // Execution itself is untouched — the context only carries
            // events *out*.
            let sink: Arc<dyn TraceSink> = Arc::new(WorkerSink {
                shared: Arc::clone(shared),
            });
            noc_obs::trace::with_job(id.0, sink, || {
                noc_obs::emit_with(|| {
                    let mut event = TraceEvent::new("job_start");
                    event.label = request.kind().to_owned();
                    event
                });
                let result = worker::execute(&request, &shared.registry, &mut scratch, &cancel);
                noc_obs::emit_with(|| {
                    let mut event = TraceEvent::new("job_end");
                    event.label = match &result {
                        Ok(_) if cancel.is_cancelled() => "cancelled".to_owned(),
                        Ok(_) => "done".to_owned(),
                        Err(e) => format!("failed: {e}"),
                    };
                    event
                });
                result
            })
        } else {
            worker::execute(&request, &shared.registry, &mut scratch, &cancel)
        };
        shared.metrics.workers_busy.add(-1);

        // Publish the pooled arena's reuse counters (monotone deltas).
        let now = scratch.run_stats();
        let delta = noc_sim::RunStats {
            runs: now.runs - reported.runs,
            events: now.events - reported.events,
        };
        shared.scratch_runs.fetch_add(delta.runs, Ordering::Relaxed);
        shared
            .scratch_events
            .fetch_add(delta.events, Ordering::Relaxed);
        noc_sim::obs::publish_run_stats(&shared.metrics.registry, delta);
        reported = now;

        // The registry counted its own lookups; a solve job bills its
        // evaluations.
        if let Ok(JobResult::Solve(r)) = &result {
            shared.metrics.search_evaluations.inc(r.outcome.evaluations);
        }

        let mut state = shared.state.lock().expect("service lock poisoned");
        let (next_state, event) = match result {
            Ok(result) if cancel.is_cancelled() => {
                let event = ServiceEvent::Cancelled {
                    job: id,
                    partial: true,
                };
                (JobState::Cancelled(Some(result)), event)
            }
            Ok(result) => {
                let (cost_pj, evaluations, telemetry) = match &result {
                    JobResult::Solve(r) => (
                        r.outcome.cost,
                        r.outcome.evaluations,
                        Some(r.telemetry.clone()),
                    ),
                    JobResult::Evaluate(r) => (r.breakdown.total().picojoules(), 0, None),
                };
                let event = ServiceEvent::Completed {
                    job: id,
                    cost_pj,
                    evaluations,
                    telemetry,
                };
                (JobState::Done(result), event)
            }
            Err(error) if cancel.is_cancelled() => {
                let event = ServiceEvent::Cancelled {
                    job: id,
                    partial: false,
                };
                let _ = error;
                (JobState::Cancelled(None), event)
            }
            Err(error) => {
                let event = ServiceEvent::Failed {
                    job: id,
                    error: error.clone(),
                };
                (JobState::Failed(error), event)
            }
        };
        state.jobs[id.index()].state = next_state;
        state.observe_terminal(&shared.metrics, id);
        state.emit(event);
        drop(state);
        shared.job_done.notify_all();
    }
}
