//! Bridge from the timing engine's native statistics to the `noc-obs`
//! metrics registry.
//!
//! The engine itself never touches a registry on its hot paths — it
//! keeps counting into [`RunStats`] and [`BatchStats`]. Consumers that
//! hold both a stats snapshot (or delta) and a registry call these
//! helpers to publish, so the metric names stay defined in exactly one
//! place.

use crate::batch::{BatchStats, BATCH_SIZE_BUCKETS};
use crate::cost::RunStats;
use noc_model::WalkMemoStats;
use noc_obs::MetricsRegistry;

/// Trace-counter names of the [`BatchStats::size_log2`] buckets, in
/// bucket order. Emitters (`noc-mapping`'s explorer) and decoders (the
/// service's worker sink) both index this table, so the wire names live
/// in exactly one place.
pub const BATCH_SIZE_BUCKET_NAMES: [&str; BATCH_SIZE_BUCKETS] = [
    "size_le_1",
    "size_le_2",
    "size_le_4",
    "size_le_8",
    "size_le_16",
    "size_le_32",
    "size_le_64",
    "size_le_128",
    "size_le_256",
    "size_le_512",
    "size_le_1024",
    "size_le_2048",
    "size_le_4096",
    "size_le_8192",
    "size_le_16384",
    "size_le_32768",
];

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

/// Adds a [`BatchStats`] *delta* to the batch-evaluation counters and
/// replays its size buckets into the `noc_batch_size` histogram (each
/// bucket observes its power-of-two upper bound, so registry bucket
/// counts are exact; `_sum` is a bucket-bound upper estimate).
pub fn publish_batch_stats(registry: &MetricsRegistry, delta: &BatchStats) {
    if delta.batches > 0 {
        registry
            .counter("noc_batch_batches_total")
            .inc(delta.batches);
    }
    if delta.candidates > 0 {
        registry
            .counter("noc_batch_candidates_total")
            .inc(delta.candidates);
    }
    if delta.size_log2.iter().any(|&n| n > 0) {
        let histogram = registry.histogram("noc_batch_size");
        for (i, &n) in delta.size_log2.iter().enumerate() {
            for _ in 0..n {
                histogram.observe(1u64 << i);
            }
        }
    }
}

/// Adds a [`WalkMemoStats`] *delta* to the walk-memo counters and sets
/// the dedup-ratio gauge (`noc_batch_dedup_ratio_permille`) to the
/// delta's hit ratio in per-mille — i.e. the route-dedup ratio of the
/// most recently published batch of work.
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
            .gauge("noc_batch_dedup_ratio_permille")
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
        "Events the cost-only scheduler processed: per packet an injection and an ejection decision, per router crossed an entry, per router but the last a link request.",
    );
    registry.describe(
        "noc_batch_batches_total",
        "Batched cost evaluations (one per generation or cohort flush).",
    );
    registry.describe(
        "noc_batch_candidates_total",
        "Candidate mappings evaluated through the batch engine.",
    );
    registry.describe("noc_batch_size", "Candidates per batch.");
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
        "Walk-memo arena evictions at batch boundaries.",
    );
    registry.describe(
        "noc_batch_dedup_ratio_permille",
        "Route-dedup ratio of the last published batch work, in per-mille.",
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
    fn batch_publish_replays_size_buckets_exactly() {
        let registry = MetricsRegistry::new();
        let mut stats = BatchStats {
            batches: 7,
            candidates: 100,
            max_batch: 24,
            ..BatchStats::default()
        };
        stats.size_log2[0] = 2; // two single-candidate batches
        stats.size_log2[5] = 5; // five batches of 17..=32
        publish_batch_stats(&registry, &stats);
        assert_eq!(registry.counter("noc_batch_batches_total").get(), 7);
        assert_eq!(registry.counter("noc_batch_candidates_total").get(), 100);
        let histogram = registry.histogram("noc_batch_size");
        assert_eq!(histogram.count(), 7);
        let buckets = histogram.bucket_counts();
        assert_eq!(buckets[0], 2);
        assert_eq!(buckets[5], 5);
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
        assert_eq!(registry.gauge("noc_batch_dedup_ratio_permille").get(), 960);
        // An idle delta leaves the gauge untouched.
        publish_walk_memo_stats(&registry, &WalkMemoStats::default());
        assert_eq!(registry.gauge("noc_batch_dedup_ratio_permille").get(), 960);
    }
}
