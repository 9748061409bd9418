//! Mapping-as-a-service: a concurrent exploration engine over the
//! mapping/search stack.
//!
//! The CLI used to orchestrate everything inline — build an explorer,
//! run a search, evaluate the winner, print. This crate lifts that
//! orchestration into a long-running, in-process service:
//!
//! ```text
//!   front ends (CLI subcommands, Unix-socket clients, tests)
//!        │ JobRequest (solve / evaluate)
//!        ▼
//!   ┌──────────────────────────────────────────────┐
//!   │ MappingService                               │
//!   │   job queue: High ▸ Normal ▸ Low (FIFO each) │
//!   │   worker 0 ─┐                                │
//!   │   worker 1 ─┼─▸ ProviderRegistry             │
//!   │   worker N ─┘   (mesh, routing, faults) →    │
//!   │                 shared Arc<RouteProvider>    │
//!   └──────────────────────────────────────────────┘
//!        │ JobState / JobResult / ServiceEvent
//!        ▼
//!   subscribers, waiters, the wire protocol
//! ```
//!
//! * [`job`] — work orders, priorities, results, job lifecycle.
//! * [`registry`] — one shared [`RouteProvider`](noc_model::RouteProvider)
//!   per `(mesh, routing, faults)` across all concurrent jobs.
//! * [`service`] — the queue, the fixed worker pool, cancellation,
//!   telemetry streaming, stats.
//! * [`events`] — the bounded, drop-oldest event streams behind
//!   [`ServiceHandle::subscribe`] (a stalled subscriber can never stall
//!   the service).
//! * [`protocol`] — the line-oriented JSON wire format and the Unix
//!   socket server behind `noc-cli serve`.
//!
//! Observability: each service owns a `noc-obs`
//! [`MetricsRegistry`] (job/queue/worker/registry/engine metrics, see
//! `noc-cli metrics`) and a flight recorder capturing per-job trace
//! events — rounds, best-so-far improvements, SA accept/reject streams —
//! queryable via [`ServiceHandle::flight_snapshot`] and the `trace`
//! socket op, and streamed live to subscribers as
//! [`ServiceEvent::Progress`].
//!
//! # Determinism
//!
//! Job results are bit-identical regardless of the worker count and of
//! submission interleaving: every search is seeded, providers answer
//! route queries identically whether freshly built or shared, and
//! workers share nothing mid-job. The integration tests pin this by
//! running the same job set on 1, 2 and 4 workers and comparing results
//! and telemetry exactly. Cross-job *event* interleaving is the one
//! timing-dependent surface, and per-job event order is still fixed.
//!
//! # Cancellation
//!
//! Each job carries a [`CancelToken`]. Cancelling a pending job removes
//! it from the queue (`Cancelled(None)`); cancelling a running job trips
//! the token, the search stops at its next checkpoint (one SA epoch, one
//! adaptive round, one GA generation, one tabu iteration), and the job
//! lands in `Cancelled(Some(best-so-far))` with its verified partial
//! result.

pub mod events;
pub mod job;
mod obs;
pub mod protocol;
pub mod registry;
pub mod service;
mod worker;

pub use events::EventStream;
pub use job::{
    CacheTier, EvaluateRequest, EvaluateResult, JobId, JobRequest, JobResult, JobState, Priority,
    SolveRequest, SolveResult, UnknownCacheTier,
};
pub use registry::{ProviderKey, ProviderLease, ProviderRegistry, RegistryStats};
pub use service::{MappingService, ServiceConfig, ServiceEvent, ServiceHandle, ServiceStats};

// Observability types front ends interact with (sinks to configure,
// tapes and registries to render), re-exported like the search types
// below so thin clients depend on this crate alone.
pub use noc_obs::{JsonLinesSink, MemorySink, MetricsRegistry, Tape, TraceEvent, TraceSink};

// The types a front end needs to build requests and render results,
// re-exported so thin clients (the CLI) can depend on this crate alone.
pub use noc_mapping::{
    AdaptiveConfig, CancelToken, Constraints, CriticalityReport, Crossover, Explorer, GaConfig,
    LinkLoad, PortfolioConfig, RemapReport, RestartBudget, SaConfig, SearchMethod, SearchOutcome,
    SearchTelemetry, Strategy, TabuConfig, Tenure,
};

#[cfg(test)]
mod tests {
    use super::*;
    use noc_apps::paper_example::{figure1_cdcg, mesh_2x2};
    use noc_model::{CoreId, Mesh, TileId};

    fn sa_job(seed: u64) -> JobRequest {
        let app = noc_apps::large_mesh_workload(4, 4, 1);
        let mesh = Mesh::new(4, 4).unwrap();
        let mut config = SaConfig::quick(seed);
        config.max_evaluations = 400;
        let mut req = SolveRequest::new(app, mesh, SearchMethod::SimulatedAnnealing(config));
        req.seed = seed;
        JobRequest::Solve(Box::new(req))
    }

    fn run_batch(workers: usize, seeds: &[u64]) -> Vec<SolveResult> {
        let service = MappingService::start(ServiceConfig::new(workers));
        let ids: Vec<JobId> = seeds
            .iter()
            .map(|&s| service.submit(sa_job(s), Priority::Normal))
            .collect();
        ids.iter()
            .map(|&id| match service.wait(id).unwrap() {
                JobState::Done(JobResult::Solve(r)) => *r,
                other => panic!("expected done solve job, got {}", other.name()),
            })
            .collect()
    }

    #[test]
    fn results_are_bit_identical_across_worker_counts() {
        let seeds = [1, 2, 3, 4, 5, 6];
        let one = run_batch(1, &seeds);
        let two = run_batch(2, &seeds);
        let four = run_batch(4, &seeds);
        for ((a, b), c) in one.iter().zip(&two).zip(&four) {
            assert_eq!(a.outcome.mapping, b.outcome.mapping);
            assert_eq!(a.outcome.mapping, c.outcome.mapping);
            assert_eq!(a.outcome.cost.to_bits(), b.outcome.cost.to_bits());
            assert_eq!(a.outcome.cost.to_bits(), c.outcome.cost.to_bits());
            assert_eq!(a.outcome.evaluations, b.outcome.evaluations);
            assert_eq!(a.telemetry, b.telemetry);
            assert_eq!(a.telemetry, c.telemetry);
            assert_eq!(a.texec_cycles, b.texec_cycles);
            assert_eq!(
                a.breakdown.total().picojoules().to_bits(),
                c.breakdown.total().picojoules().to_bits()
            );
        }
    }

    #[test]
    fn concurrent_jobs_share_one_provider_through_the_registry() {
        let service = MappingService::start(ServiceConfig::new(4));
        let seeds = [10, 11, 12, 13, 14, 15, 16, 17];
        for &s in &seeds {
            service.submit(sa_job(s), Priority::Normal);
        }
        service.wait_all();
        let stats = service.stats();
        assert_eq!(stats.done, seeds.len() as u64);
        // All jobs share the same (mesh, routing, faults) identity: one
        // build, everything else hits.
        assert_eq!(stats.registry_entries, 1);
        assert_eq!(stats.registry_misses, 1);
        assert_eq!(stats.registry_hits, seeds.len() as u64 - 1);
        // The pooled worker scratches served every final verification.
        assert!(stats.scratch_runs >= seeds.len() as u64);
    }

    #[test]
    fn pending_cancellation_skips_the_job_entirely() {
        // One worker, so the second job is still queued while the first
        // runs; cancelling it must yield Cancelled(None).
        let service = MappingService::start(ServiceConfig::new(1));
        let first = service.submit(sa_job(1), Priority::Normal);
        let second = service.submit(sa_job(2), Priority::Normal);
        let third = service.submit(sa_job(3), Priority::Normal);
        assert!(service.cancel(second));
        let states = service.wait_all();
        assert!(matches!(states[first.index()], JobState::Done(_)));
        assert!(matches!(states[second.index()], JobState::Cancelled(None)));
        assert!(matches!(states[third.index()], JobState::Done(_)));
        // A terminal job cannot be cancelled again.
        assert!(!service.cancel(second));
        assert_eq!(service.stats().cancelled, 1);
    }

    #[test]
    fn priorities_dispatch_high_before_low_fifo_within_class() {
        // Single worker. A long-running blocker occupies it; while it
        // runs, low jobs are submitted before high ones. The event
        // stream must show the highs starting before the lows, each
        // class in submission order.
        let service = MappingService::start(ServiceConfig::new(1));
        let rx = service.subscribe();
        let blocker = {
            let app = noc_apps::large_mesh_workload(4, 4, 1);
            let mesh = Mesh::new(4, 4).unwrap();
            let mut config = SaConfig::quick(0);
            config.max_evaluations = 200_000;
            let req = SolveRequest::new(app, mesh, SearchMethod::SimulatedAnnealing(config));
            service.submit(JobRequest::Solve(Box::new(req)), Priority::Normal)
        };
        // Gate: the worker has dequeued the blocker before anything else
        // enters the queue.
        loop {
            if let ServiceEvent::Started { job } = rx.recv().unwrap() {
                assert_eq!(job, blocker);
                break;
            }
        }
        let low_a = service.submit(sa_job(1), Priority::Low);
        let low_b = service.submit(sa_job(2), Priority::Low);
        let high_a = service.submit(sa_job(3), Priority::High);
        let high_b = service.submit(sa_job(4), Priority::High);
        service.wait_all();
        drop(service);
        let started: Vec<JobId> = rx
            .try_iter()
            .filter_map(|e| match e {
                ServiceEvent::Started { job } => Some(job),
                _ => None,
            })
            .collect();
        let pos = |id: JobId| started.iter().position(|&j| j == id).unwrap();
        assert!(pos(high_a) < pos(high_b), "FIFO within the high class");
        assert!(pos(low_a) < pos(low_b), "FIFO within the low class");
        assert!(pos(high_b) < pos(low_a), "high dispatches before low");
    }

    #[test]
    fn evaluate_jobs_and_failures_round_trip() {
        let service = MappingService::start(ServiceConfig::new(2));
        let eval = EvaluateRequest {
            app: figure1_cdcg(),
            mesh: mesh_2x2(),
            mapping: noc_apps::paper_example::mapping_c(),
            tech: noc_energy::Technology::paper_example(),
            params: noc_sim::SimParams::new(),
            routing: noc_model::RoutingKind::Xy,
            gantt: true,
        };
        let good = service.submit(JobRequest::Evaluate(Box::new(eval)), Priority::Normal);

        // Oversubscribed solve: 5 cores on 4 tiles must fail, not panic.
        let bad = SolveRequest::new(
            noc_apps::large_mesh_workload(5, 1, 1),
            mesh_2x2(),
            SearchMethod::Exhaustive,
        );
        let bad = service.submit(JobRequest::Solve(Box::new(bad)), Priority::Normal);

        match service.wait(good).unwrap() {
            JobState::Done(JobResult::Evaluate(r)) => {
                assert_eq!(r.texec_ns, 100.0);
                assert!(r.gantt.is_some());
            }
            other => panic!("expected evaluate result, got {}", other.name()),
        }
        match service.wait(bad).unwrap() {
            JobState::Failed(msg) => assert!(msg.contains("cannot map"), "{msg}"),
            other => panic!("expected failure, got {}", other.name()),
        }
    }

    #[test]
    fn stalled_subscriber_loses_oldest_events_but_never_stalls_the_service() {
        // Tiny per-subscriber bound; the subscriber never reads while
        // the jobs run. The service must complete everything, and the
        // stream must hold only the *newest* events with the loss
        // counted (stream-local and in the metrics).
        let service = MappingService::start(ServiceConfig::new(2).with_event_capacity(4));
        let stalled = service.subscribe();
        for seed in 0..6 {
            service.submit(sa_job(seed), Priority::Normal);
        }
        service.wait_all();
        assert_eq!(service.stats().done, 6);

        assert!(stalled.dropped() > 0, "4-deep queue must have overflowed");
        let exposition = service.handle().metrics_exposition();
        let line = exposition
            .lines()
            .find(|l| l.starts_with("noc_subscriber_dropped_events_total"))
            .expect("dropped-events metric exposed");
        let count: u64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert_eq!(count, stalled.dropped());

        let remaining: Vec<ServiceEvent> = stalled.try_iter().collect();
        assert_eq!(remaining.len(), 4, "queue capped at capacity");
        // A live subscriber on a fresh service sees everything.
        let service = MappingService::start(ServiceConfig::new(1).with_event_capacity(1024));
        let live = service.subscribe();
        let job = service.submit(sa_job(1), Priority::High);
        service.wait(job);
        drop(service);
        let kinds: Vec<ServiceEvent> = live.try_iter().collect();
        assert!(matches!(
            kinds.first(),
            Some(ServiceEvent::Submitted { .. })
        ));
        assert!(kinds
            .iter()
            .any(|e| matches!(e, ServiceEvent::Completed { .. })));
    }

    #[test]
    fn observability_captures_metrics_progress_and_a_flight_tape() {
        let service = MappingService::start(ServiceConfig::new(1));
        let events = service.subscribe();
        let job = service.submit(sa_job(42), Priority::Normal);
        service.wait(job);

        // Flight recorder: the tape brackets the run and carries search
        // checkpoints.
        let tape = service.handle().flight_snapshot(job).expect("tape");
        let kinds: Vec<&str> = tape.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds.first(), Some(&"job_start"));
        assert!(kinds.contains(&"best"), "{kinds:?}");
        assert!(kinds.contains(&"epoch"), "{kinds:?}");
        assert!(
            kinds.last() == Some(&"job_end") || tape.dropped > 0,
            "{kinds:?}"
        );
        assert_eq!(service.handle().flight_jobs(), vec![job]);

        // Progress events reached the subscriber while the job ran.
        drop(service);
        let progressed = events
            .try_iter()
            .filter(|e| matches!(e, ServiceEvent::Progress { .. }))
            .count();
        assert!(progressed > 0, "expected live Progress events");

        let mut tape_progress = 0;
        for event in &tape.events {
            if matches!(event.kind, "best" | "round") {
                tape_progress += 1;
            }
        }
        assert!(tape_progress > 0);
    }

    #[test]
    fn disabling_observability_changes_nothing_but_the_tape() {
        let observed = run_batch(2, &[9, 10]);
        let service = MappingService::start(ServiceConfig::new(2).without_observability());
        let ids: Vec<JobId> = [9u64, 10]
            .iter()
            .map(|&s| service.submit(sa_job(s), Priority::Normal))
            .collect();
        let blind: Vec<SolveResult> = ids
            .iter()
            .map(|&id| match service.wait(id).unwrap() {
                JobState::Done(JobResult::Solve(r)) => *r,
                other => panic!("expected done solve job, got {}", other.name()),
            })
            .collect();
        for (a, b) in observed.iter().zip(&blind) {
            assert_eq!(a.outcome.mapping, b.outcome.mapping);
            assert_eq!(a.outcome.cost.to_bits(), b.outcome.cost.to_bits());
            assert_eq!(a.telemetry, b.telemetry);
        }
        assert!(service.handle().flight_snapshot(ids[0]).is_none());
    }

    #[test]
    fn faulty_jobs_get_fault_aware_providers() {
        let service = MappingService::start(ServiceConfig::new(2));
        let mut healthy = sa_job(5);
        let mut faulty = sa_job(5);
        if let JobRequest::Solve(req) = &mut faulty {
            req.faults.kill_between(TileId::new(0), TileId::new(1));
        }
        let JobRequest::Solve(h) = &mut healthy else {
            unreachable!()
        };
        h.criticality = true;
        let healthy = service.submit(healthy, Priority::Normal);
        let faulty = service.submit(faulty, Priority::Normal);

        let healthy = match service.wait(healthy).unwrap() {
            JobState::Done(JobResult::Solve(r)) => *r,
            other => panic!("healthy job failed: {}", other.name()),
        };
        let faulty = match service.wait(faulty).unwrap() {
            JobState::Done(JobResult::Solve(r)) => *r,
            other => panic!("faulty job failed: {}", other.name()),
        };
        assert!(healthy.criticality.is_some());
        assert_eq!(faulty.route_tier, "fault-aware");
        assert_ne!(healthy.route_tier, faulty.route_tier);
        // Distinct provider identities: two entries, no cross-hits.
        assert_eq!(service.stats().registry_entries, 2);
    }

    /// A pinned SA job with a single free tile proposes only identity
    /// moves: it finishes with the one feasible mapping, and the worker
    /// lives on to run the next job.
    #[test]
    fn pinned_job_with_one_free_tile_completes_and_the_worker_survives() {
        let app = noc_apps::generate(&noc_apps::TgffConfig::new(2, 3, 60, 1));
        let mesh = Mesh::new(2, 1).unwrap();
        let config = SaConfig::quick(0);
        let mut req = SolveRequest::new(app, mesh, SearchMethod::SimulatedAnnealing(config));
        req.pins = Some(
            Constraints::new()
                .pin(CoreId::new(0), TileId::new(0))
                .unwrap(),
        );
        req.sa_config = config;
        let service = MappingService::start(ServiceConfig::new(1));
        let pinned = service.submit(JobRequest::Solve(Box::new(req)), Priority::Normal);
        let next = service.submit(sa_job(1), Priority::Normal);
        match service.wait(pinned).unwrap() {
            JobState::Done(JobResult::Solve(r)) => {
                let tiles: Vec<usize> = r
                    .outcome
                    .mapping
                    .assignments()
                    .map(|(_, t)| t.index())
                    .collect();
                assert_eq!(tiles, [0, 1]);
                assert_eq!(r.outcome.method, "SA-pinned");
            }
            other => panic!("pinned job ended {}", other.name()),
        }
        assert!(matches!(service.wait(next), Some(JobState::Done(_))));
    }

    fn figure1_evaluate(mesh: Mesh, params: noc_sim::SimParams) -> JobRequest {
        JobRequest::Evaluate(Box::new(EvaluateRequest {
            app: figure1_cdcg(),
            mapping: noc_model::Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap(),
            mesh,
            tech: noc_energy::Technology::paper_example(),
            params,
            routing: noc_model::RoutingKind::Xy,
            gantt: false,
        }))
    }

    fn figure1_solve(mesh: Mesh, params: noc_sim::SimParams) -> JobRequest {
        let method = SearchMethod::SimulatedAnnealing(SaConfig::quick(1));
        let mut req = SolveRequest::new(figure1_cdcg(), mesh, method);
        req.params = params;
        JobRequest::Solve(Box::new(req))
    }

    /// `job` fails on a one-worker service with a message naming
    /// `field`, and the next job on the same worker completes.
    fn assert_rejected(job: JobRequest, field: &str) {
        let service = MappingService::start(ServiceConfig::new(1));
        let bad = service.submit(job, Priority::Normal);
        let next = service.submit(
            figure1_evaluate(mesh_2x2(), noc_sim::SimParams::new()),
            Priority::Normal,
        );
        match service.wait(bad) {
            Some(JobState::Failed(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("expected a failed job, got {:?}", other.map(|s| s.name())),
        }
        assert!(matches!(service.wait(next), Some(JobState::Done(_))));
    }

    #[test]
    fn a_zero_flit_width_fails_the_job_not_the_worker() {
        let params = noc_sim::SimParams {
            flit_width_bits: 0,
            ..noc_sim::SimParams::new()
        };
        assert_rejected(figure1_evaluate(mesh_2x2(), params), "flit_width_bits");
        assert_rejected(figure1_solve(mesh_2x2(), params), "flit_width_bits");
    }

    #[test]
    fn cycle_counts_that_would_wrap_fail_the_job() {
        let params = noc_sim::SimParams {
            link_cycles: 1 << 62,
            routing_cycles: 1 << 62,
            ..noc_sim::SimParams::new()
        };
        assert_rejected(figure1_evaluate(mesh_2x2(), params), "params.link_cycles");
        assert_rejected(figure1_solve(mesh_2x2(), params), "params.link_cycles");
    }

    #[test]
    fn a_clock_period_that_is_not_finite_and_positive_fails_the_job() {
        for clock in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let params = noc_sim::SimParams {
                clock_period_ns: clock,
                ..noc_sim::SimParams::new()
            };
            assert_rejected(figure1_evaluate(mesh_2x2(), params), "clock_period_ns");
        }
    }

    #[test]
    fn meshes_beyond_the_tile_limit_fail_the_job() {
        let params = noc_sim::SimParams::new();
        let mesh = Mesh::new(1000, 1000).unwrap();
        assert_rejected(figure1_solve(mesh, params), "mesh 1000x1000x1");
        assert_rejected(figure1_evaluate(mesh, params), "mesh 1000x1000x1");
    }

    #[test]
    fn mesh_dimensions_that_wrap_the_tile_count_fail_the_job() {
        let json = r#"{"width": 4294967296, "height": 4294967296, "depth": 2}"#;
        let mesh: Mesh = serde_json::from_str(json).unwrap();
        let job = figure1_solve(mesh, noc_sim::SimParams::new());
        assert_rejected(job, "mesh 4294967296x4294967296x2");
    }
}
