//! Deterministic-interleaving stress tests for the 64-way sharded route
//! cache of the fault-aware tier (`FaultAwareRoutes`).
//!
//! The cache promises two things under concurrency:
//!
//! 1. **No deadlock** — every resolution takes exactly one shard guard;
//!    there is no lock-ordering hazard to race. A watchdog converts a
//!    deadlock into a test failure instead of a CI hang.
//! 2. **Bit-identical walks** — whatever the thread interleaving, every
//!    resolution observes exactly the walk the serial reference
//!    produces. This is the regression net for the span-invalidation
//!    bug the single-guard `walk_span` fix closed: with per-shard
//!    arenas capped to a few entries, every insert evicts, so a
//!    resolve/copy window reliably races an eviction from another
//!    thread.
//!
//! Tiny shard capacities come from `with_shard_capacity` — the default
//! multi-megabyte budget would never evict on meshes this small.

use noc::model::{
    FaultAwareRoutes, FaultScenario, FaultSet, Mesh, RouteSource, RoutingKind, TileId,
};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const THREADS: usize = 8;
const ROUNDS: usize = 12;
/// Per-shard walk-arena cap (u32 ids): smaller than a single mesh walk,
/// so every insertion runs the eviction path.
const TINY_CAPACITY: usize = 8;
const WATCHDOG: Duration = Duration::from_secs(180);

/// Runs `body` under a deadlock watchdog: if it neither finishes nor
/// panics within [`WATCHDOG`], the test fails instead of hanging CI.
fn with_watchdog(name: &'static str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => worker.join().expect("stress worker panicked"),
        Err(_) => {
            if worker.is_finished() {
                // Finished by panicking: surface the panic itself.
                worker.join().expect("stress worker panicked");
            } else {
                panic!("{name}: suspected deadlock — no progress within {WATCHDOG:?}");
            }
        }
    }
}

/// The walk of one pair as decoded link ids (the bit pattern the
/// scheduler consumes).
fn walk_ids<S: RouteSource + ?Sized>(source: &S, src: TileId, dst: TileId) -> Vec<u32> {
    let mut buf = Vec::new();
    let (start, len) = source.walk_span(src, dst, &mut buf);
    source.flat(&buf)[start as usize..(start + len) as usize].to_vec()
}

/// All ordered pairs of the mesh.
fn all_pairs(mesh: &Mesh) -> Vec<(TileId, TileId)> {
    let n = mesh.tile_count();
    (0..n)
        .flat_map(|s| (0..n).map(move |d| (TileId::new(s), TileId::new(d))))
        .filter(|(s, d)| s != d)
        .collect()
}

/// Serial reference walks, pair-indexed.
fn reference_walks<S: RouteSource>(source: &S, pairs: &[(TileId, TileId)]) -> Vec<Vec<u32>> {
    pairs.iter().map(|&(s, d)| walk_ids(source, s, d)).collect()
}

/// Hammers `shared` from [`THREADS`] barrier-synchronized threads and
/// asserts every resolution, in every round, on every thread, matches
/// the serial `reference` bitwise. Thread `t` starts its sweep at a
/// different offset each round so same-pair contention (all threads on
/// one shard) and cross-shard traffic (threads spread over all shards)
/// both occur.
fn hammer<S: RouteSource + Sync>(
    shared: &S,
    pairs: &[(TileId, TileId)],
    reference: &[Vec<u32>],
    label: &str,
) {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let barrier = &barrier;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    // Odd rounds: everyone walks the same sequence
                    // (same-pair contention). Even rounds: staggered
                    // starts (cross-shard traffic).
                    let offset = if round % 2 == 1 {
                        0
                    } else {
                        t * pairs.len() / THREADS
                    };
                    for i in 0..pairs.len() {
                        let idx = (i + offset) % pairs.len();
                        let (s, d) = pairs[idx];
                        let got = walk_ids(shared, s, d);
                        assert_eq!(
                            got, reference[idx],
                            "{label}: thread {t} round {round} pair {s:?}->{d:?} \
                             diverged from the serial reference"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn fault_cache_interleaving_is_deterministic() {
    with_watchdog("fault_cache_interleaving_is_deterministic", || {
        let mesh = Mesh::new3(4, 4, 2).expect("mesh");
        let faults = FaultScenario::RandomLinks { count: 6, seed: 7 }.generate(&mesh);
        for kind in [
            RoutingKind::Xy,
            RoutingKind::ALL[RoutingKind::ALL.len() - 1],
        ] {
            let pairs = all_pairs(&mesh);
            // Reference: default capacity, resolved serially.
            let serial = FaultAwareRoutes::new(&mesh, kind, faults.clone());
            let reference = reference_walks(&serial, &pairs);
            // Shared instance under test: evicts on every insert.
            let shared = Arc::new(FaultAwareRoutes::with_shard_capacity(
                &mesh,
                kind,
                faults.clone(),
                TINY_CAPACITY,
            ));
            hammer(&*shared, &pairs, &reference, "fault-aware");
        }
    });
}

#[test]
fn fault_cache_healthy_set_matches_implicit_under_stress() {
    with_watchdog(
        "fault_cache_healthy_set_matches_implicit_under_stress",
        || {
            let mesh = Mesh::new3(3, 3, 3).expect("mesh");
            let kind = RoutingKind::Xy;
            let pairs = all_pairs(&mesh);
            let shared =
                FaultAwareRoutes::with_shard_capacity(&mesh, kind, FaultSet::new(), TINY_CAPACITY);
            // With no faults the tier promises bit-identity with the
            // implicit walker — stress it anyway; the lock-free fast path
            // must not interfere with concurrent use.
            let implicit = noc::model::ImplicitRoutes::new(&mesh, kind);
            let reference = reference_walks(&implicit, &pairs);
            hammer(&shared, &pairs, &reference, "fault-aware-healthy");
        },
    );
}

#[test]
fn fault_cache_stats_stay_consistent_under_stress() {
    with_watchdog("fault_cache_stats_stay_consistent_under_stress", || {
        let mesh = Mesh::new3(4, 4, 2).expect("mesh");
        let faults = FaultScenario::RandomTsvs { count: 2, seed: 11 }.generate(&mesh);
        let shared = FaultAwareRoutes::with_shard_capacity(&mesh, RoutingKind::Xy, faults, 256);
        let pairs = all_pairs(&mesh);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (shared, pairs, barrier) = (&shared, &pairs, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for &(s, d) in pairs.iter().skip(t % 3) {
                        let _ = walk_ids(shared, s, d);
                        // Interleave diagnostics reads with resolution:
                        // stats() takes each shard guard in turn and
                        // must neither deadlock nor observe a torn
                        // entry count.
                        let stats = shared.stats();
                        assert!(
                            stats.detoured_pairs + stats.partitioned_pairs <= stats.resolved_pairs
                        );
                    }
                });
            }
        });
    });
}
