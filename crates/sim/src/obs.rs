//! Bridge from the timing engine's native statistics to the `noc-obs`
//! metrics registry.
//!
//! The engine itself never touches a registry on its hot paths — it
//! keeps counting into [`RunStats`] and [`WalkMemoStats`]. Consumers
//! that hold both a stats snapshot (or delta) and a registry call these
//! helpers to publish, so the metric names stay defined in exactly one
//! place.

use crate::cost::RunStats;
use noc_model::WalkMemoStats;
use noc_obs::MetricsRegistry;

/// Adds a [`RunStats`] *delta* (not an absolute snapshot) to the
/// scheduler counters. Callers that sample a monotone total are
/// responsible for differencing before publishing.
pub fn publish_run_stats(registry: &MetricsRegistry, delta: RunStats) {
    if delta.runs > 0 {
        registry.counter("noc_schedule_runs_total").inc(delta.runs);
    }
    if delta.events > 0 {
        registry
            .counter("noc_schedule_events_total")
            .inc(delta.events);
    }
}

/// Adds a [`WalkMemoStats`] *delta* to the walk-memo counters and sets
/// the hit-ratio gauge (`noc_walk_memo_hit_ratio_permille`) to the
/// delta's hit ratio in per-mille — i.e. the hit ratio of the most
/// recently published search.
pub fn publish_walk_memo_stats(registry: &MetricsRegistry, delta: &WalkMemoStats) {
    let pairs = [
        ("noc_walk_memo_hits_total", delta.hits),
        ("noc_walk_memo_misses_total", delta.misses),
        ("noc_walk_memo_evictions_total", delta.evictions),
    ];
    for (name, value) in pairs {
        if value > 0 {
            registry.counter(name).inc(value);
        }
    }
    let total = delta.hits + delta.misses;
    if let Some(permille) = delta.hits.saturating_mul(1000).checked_div(total) {
        registry
            .gauge("noc_walk_memo_hit_ratio_permille")
            .set(permille as i64);
    }
}

/// Registers `# HELP` text for the engine metrics on `registry`.
pub fn describe_engine_metrics(registry: &MetricsRegistry) {
    registry.describe(
        "noc_schedule_runs_total",
        "Contention-aware schedule computations.",
    );
    registry.describe(
        "noc_schedule_events_total",
        "Events the cost-only scheduler processed: k + 1 per packet crossing k routers, namely an injection, a link request per router but the last and an ejection decision.",
    );
    registry.describe(
        "noc_walk_memo_hits_total",
        "Route resolutions served from a walk-memo pair table.",
    );
    registry.describe(
        "noc_walk_memo_misses_total",
        "Walk-memo misses (routes walked and cached).",
    );
    registry.describe(
        "noc_walk_memo_evictions_total",
        "Walk-memo arena evictions at evaluation boundaries.",
    );
    registry.describe(
        "noc_walk_memo_hit_ratio_permille",
        "Walk-memo hit ratio of the last published search, in per-mille.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_only_nonzero_counters() {
        let registry = MetricsRegistry::new();
        publish_run_stats(&registry, RunStats::default());
        assert!(!registry.exposition().contains("noc_schedule"));
        publish_run_stats(
            &registry,
            RunStats {
                runs: 3,
                events: 40,
            },
        );
        publish_run_stats(&registry, RunStats { runs: 0, events: 0 });
        assert_eq!(registry.counter("noc_schedule_runs_total").get(), 3);
        assert_eq!(registry.counter("noc_schedule_events_total").get(), 40);
    }

    #[test]
    fn walk_memo_publish_sets_the_dedup_gauge() {
        let registry = MetricsRegistry::new();
        publish_walk_memo_stats(
            &registry,
            &WalkMemoStats {
                hits: 96,
                misses: 4,
                evictions: 1,
            },
        );
        assert_eq!(registry.counter("noc_walk_memo_hits_total").get(), 96);
        assert_eq!(registry.counter("noc_walk_memo_misses_total").get(), 4);
        assert_eq!(registry.counter("noc_walk_memo_evictions_total").get(), 1);
        assert_eq!(
            registry.gauge("noc_walk_memo_hit_ratio_permille").get(),
            960
        );
        // An idle delta leaves the gauge untouched.
        publish_walk_memo_stats(&registry, &WalkMemoStats::default());
        assert_eq!(
            registry.gauge("noc_walk_memo_hit_ratio_permille").get(),
            960
        );
    }
}
