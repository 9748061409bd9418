//! The service's metric catalogue: every counter, gauge and histogram a
//! [`MappingService`](crate::MappingService) maintains, with its handle
//! cached so hot paths never re-look-up by name.
//!
//! | Metric | Type | Meaning |
//! |---|---|---|
//! | `noc_jobs_submitted_total{class}` | counter | Jobs submitted per priority class |
//! | `noc_jobs_completed_total` | counter | Jobs finished successfully |
//! | `noc_jobs_failed_total` | counter | Jobs failed |
//! | `noc_jobs_cancelled_total` | counter | Jobs cancelled (pending or running) |
//! | `noc_queue_depth{class}` | gauge | Jobs waiting per priority class |
//! | `noc_workers_busy` | gauge | Workers currently executing a job |
//! | `noc_job_sojourn_us{class}` | histogram | Submit→terminal latency per class |
//! | `noc_registry_hits_total` / `noc_registry_misses_total` | counter | Shared route-provider registry lookups, one per solve or evaluate job |
//! | `noc_subscriber_dropped_events_total` | counter | Events lost to subscriber backpressure |
//! | `noc_trace_events_total` | counter | Trace events recorded by the flight recorder |
//! | `noc_search_evaluations_total` | counter | Evaluations billed by completed jobs |
//! | `noc_schedule_runs_total` / `noc_schedule_events_total` | counter | Pooled scratch-arena engine work |
//! | `noc_walk_memo_{hits,misses,evictions}_total` | counter | Walk-memo outcomes of CDCM searches on the implicit and fault-aware tiers |
//! | `noc_walk_memo_hit_ratio_permille` | gauge | Walk-memo hit ratio of the last such search |

use crate::job::Priority;
use noc_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Cached handles onto every service metric (see module docs for the
/// catalogue). One per service instance — separate services never
/// cross-count.
pub(crate) struct ServiceMetrics {
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) submitted: [Arc<Counter>; Priority::COUNT],
    pub(crate) queue_depth: [Arc<Gauge>; Priority::COUNT],
    pub(crate) sojourn: [Arc<Histogram>; Priority::COUNT],
    pub(crate) completed: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
    pub(crate) cancelled: Arc<Counter>,
    pub(crate) workers_busy: Arc<Gauge>,
    pub(crate) registry_hits: Arc<Counter>,
    pub(crate) registry_misses: Arc<Counter>,
    pub(crate) dropped_events: Arc<Counter>,
    pub(crate) trace_events: Arc<Counter>,
    pub(crate) search_evaluations: Arc<Counter>,
}

const CLASSES: [Priority; Priority::COUNT] = [Priority::High, Priority::Normal, Priority::Low];

impl ServiceMetrics {
    pub(crate) fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        registry.describe("noc_jobs_submitted_total", "Jobs submitted, by class.");
        registry.describe("noc_jobs_completed_total", "Jobs finished successfully.");
        registry.describe("noc_jobs_failed_total", "Jobs failed.");
        registry.describe("noc_jobs_cancelled_total", "Jobs cancelled.");
        registry.describe("noc_queue_depth", "Jobs waiting, by class.");
        registry.describe("noc_workers_busy", "Workers currently executing a job.");
        registry.describe(
            "noc_job_sojourn_us",
            "Submit-to-terminal latency in microseconds, by class.",
        );
        registry.describe("noc_registry_hits_total", "Route-provider registry hits.");
        registry.describe(
            "noc_registry_misses_total",
            "Route-provider registry misses (providers built).",
        );
        registry.describe(
            "noc_subscriber_dropped_events_total",
            "Service events discarded because a subscriber lagged.",
        );
        registry.describe(
            "noc_trace_events_total",
            "Trace events captured by the flight recorder.",
        );
        registry.describe(
            "noc_search_evaluations_total",
            "Search evaluations billed by completed jobs.",
        );
        noc_sim::obs::describe_engine_metrics(&registry);

        let labelled = |base: &str, p: Priority| format!("{base}{{class=\"{}\"}}", p.name());
        Self {
            submitted: CLASSES.map(|p| registry.counter(&labelled("noc_jobs_submitted_total", p))),
            queue_depth: CLASSES.map(|p| registry.gauge(&labelled("noc_queue_depth", p))),
            sojourn: CLASSES.map(|p| registry.histogram(&labelled("noc_job_sojourn_us", p))),
            completed: registry.counter("noc_jobs_completed_total"),
            failed: registry.counter("noc_jobs_failed_total"),
            cancelled: registry.counter("noc_jobs_cancelled_total"),
            workers_busy: registry.gauge("noc_workers_busy"),
            registry_hits: registry.counter("noc_registry_hits_total"),
            registry_misses: registry.counter("noc_registry_misses_total"),
            dropped_events: registry.counter("noc_subscriber_dropped_events_total"),
            trace_events: registry.counter("noc_trace_events_total"),
            search_evaluations: registry.counter("noc_search_evaluations_total"),
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_creates_every_metric_up_front() {
        let metrics = ServiceMetrics::new();
        metrics.submitted[Priority::High.class()].inc(1);
        metrics.queue_depth[Priority::Low.class()].set(4);
        metrics.sojourn[Priority::Normal.class()].observe(100);
        let text = metrics.registry.exposition();
        for name in [
            "noc_jobs_submitted_total{class=\"high\"} 1",
            "noc_queue_depth{class=\"low\"} 4",
            "noc_job_sojourn_us_count{class=\"normal\"} 1",
            "noc_jobs_completed_total 0",
            "noc_workers_busy 0",
            "noc_subscriber_dropped_events_total 0",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }
}
