//! Memory of a warmed cost evaluator, measured by a counting global
//! allocator.
//!
//! Each row builds a `CostEvaluator` over its auto-tier route provider
//! (dense on the small meshes, implicit with a walk memo on the shifts)
//! and warms it on seeded random mappings. Then:
//!
//! * re-evaluating the warm-up mappings allocates nothing;
//! * the evaluator's live bytes stay under a budget stated per packet,
//!   per dense link id and per entry and pair of the walks its memo
//!   stores. Nothing in it grows with how many events crowd a cycle or
//!   wait at one FIFO.
//!
//! Rows: the 18 Table 1 rows, the 8×8×4 stack (XYZ routing) and the
//! 64×64 shift. With `NOC_FUZZ_CASES` set, as in the weekly job, the
//! small rows take that many warm-up mappings and the 128×128 shift
//! joins.

use noc::model::{Cdcg, Mapping, Mesh, RouteProvider, RouteSource, RoutingKind, TileId};
use noc::sim::{CostEvaluator, SimParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Counts, per thread, the bytes live and the allocations made, so
/// tests running on other threads do not disturb a measurement.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: isize, allocations: u64) {
    // A thread being torn down has no counters left; nothing is measured
    // there.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
}

// SAFETY: every method hands its arguments unchanged to `System` and
// returns what `System` returns, so `System`'s guarantees are this
// allocator's. The counters are thread-local `Cell`s with constant
// initializers and no destructor: updating them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes per packet: the scratch's walk span, flits, dependence count,
/// ready time and parking record (52 bytes), and the event queue's entry
/// for a pending key with the growth slack of its heaps (up to 48 more on
/// the heap or the calendar), rounded up.
const PER_PACKET: usize = 128;
/// Bytes per dense link id: a link slot (16) and a FIFO slot (32).
const PER_LINK: usize = 48;
/// Bytes per entry of the walks the memo stores: a `u32` of its arena,
/// which may stand at up to twice its length.
const PER_WALK_ENTRY: usize = 8;
/// Bytes per pair the memo stores: a 16-byte slot of its open-addressed
/// table, which grows by doubling past 70% load.
const PER_PAIR: usize = 48;
/// Bytes of any size: the memo's first 1,024-slot table (16 KiB) and the
/// calendar's 1,024 ring heads (4 KiB), rounded up.
const FIXED: usize = 24 << 10;

/// Warm-up mappings per small row; `NOC_FUZZ_CASES` raises it.
fn cases() -> u64 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded injective placement of `cores` cores (Fisher–Yates prefix).
fn seeded_mapping(mesh: &Mesh, cores: usize, seed: u64) -> Mapping {
    let mut tiles: Vec<TileId> = mesh.tiles().collect();
    let mut state = seed;
    for i in (1..tiles.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        tiles.swap(i, j);
    }
    Mapping::from_tiles(mesh, tiles.into_iter().take(cores)).expect("shuffled prefix is injective")
}

/// The distinct tile pairs the packets of `mappings` travel between, and
/// the total length of their walks.
fn memo_walks(cdcg: &Cdcg, routes: &RouteProvider, mappings: &[Mapping]) -> (usize, usize) {
    let pairs: BTreeSet<(TileId, TileId)> = mappings
        .iter()
        .flat_map(|m| {
            cdcg.packet_ids().map(move |id| {
                let p = cdcg.packet(id);
                (m.tile_of(p.src), m.tile_of(p.dst))
            })
        })
        .collect();
    let mut buf = Vec::new();
    let entries = pairs
        .iter()
        .map(|&(src, dst)| {
            buf.clear();
            routes.walk_span(src, dst, &mut buf).1 as usize
        })
        .sum();
    (pairs.len(), entries)
}

/// Warms an evaluator of `cdcg` on `mesh` on `count` seeded mappings and
/// checks that re-evaluating them allocates nothing and that its live
/// bytes stay within budget.
fn check(name: &str, cdcg: &Cdcg, mesh: Mesh, routing: RoutingKind, count: u64) {
    let params = SimParams::new();
    let routes = Arc::new(RouteProvider::auto(&mesh, routing));
    let mappings: Vec<Mapping> = (0..count)
        .map(|seed| seeded_mapping(&mesh, cdcg.core_count(), 0x5eed + seed))
        .collect();
    let (pairs, entries) = memo_walks(cdcg, &routes, &mappings);

    let before = live();
    let mut eval = CostEvaluator::with_provider(cdcg, &params, Arc::clone(&routes));
    let warm: Vec<u64> = mappings
        .iter()
        .map(|m| eval.texec_cycles(m).expect("seeded mappings are valid"))
        .collect();
    let held = usize::try_from(live() - before).expect("a warmed evaluator holds memory");

    let allocated = allocations();
    for (m, &texec) in mappings.iter().zip(&warm) {
        assert_eq!(eval.texec_cycles(m).expect("valid"), texec, "{name}");
    }
    assert_eq!(
        allocations() - allocated,
        0,
        "{name}: re-evaluating {count} warm-up mappings allocated"
    );

    let (packets, links) = (cdcg.packet_count(), routes.dense_link_count());
    let (pairs, entries) = match eval.walk_memo_stats() {
        Some(_) => (pairs, entries),
        None => (0, 0),
    };
    let budget = PER_PACKET * packets
        + PER_LINK * links
        + PER_WALK_ENTRY * entries
        + PER_PAIR * pairs
        + FIXED;
    assert!(
        held <= budget,
        "{name}: a warmed evaluator holds {held} bytes, over its budget of {budget} \
         ({packets} packets, {links} links, {entries} walk entries in {pairs} pairs)"
    );
}

#[test]
fn warmed_table1_evaluators_allocate_nothing_and_stay_within_budget() {
    for bench in noc::apps::table1_suite() {
        let name = bench.spec.name;
        check(name, &bench.cdcg, bench.mesh, RoutingKind::Xy, cases());
    }
}

#[test]
fn a_warmed_stack_evaluator_allocates_nothing_and_stays_within_budget() {
    let stack = Mesh::new3(8, 8, 4).expect("valid mesh");
    let cdcg = noc::apps::layered_shift_workload(8, 8, 4, 1);
    check("8x8x4 stack", &cdcg, stack, RoutingKind::Xyz, cases());
}

#[test]
fn a_warmed_shift_evaluator_allocates_nothing_and_stays_within_budget() {
    // The shifts' memos hold every warm-up walk: a few mappings stay
    // below the memo's eviction budget.
    let shift = Mesh::new(64, 64).expect("valid mesh");
    let cdcg = noc::apps::large_mesh_workload(64, 64, 1);
    check("64x64 shift", &cdcg, shift, RoutingKind::Xy, 2);
    if std::env::var_os("NOC_FUZZ_CASES").is_some() {
        let shift = Mesh::new(128, 128).expect("valid mesh");
        let cdcg = noc::apps::large_mesh_workload(128, 128, 1);
        check("128x128 shift", &cdcg, shift, RoutingKind::Xy, 1);
    }
}
