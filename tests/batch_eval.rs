//! Cohort-evaluation property tests: a search scores a whole cohort of
//! sibling mappings (a GA generation, a tabu neighborhood) through one
//! reused [`CostEvaluator`]. Two contracts:
//!
//! 1. **Bit-identity with fresh evaluation** — for every provider tier
//!    (dense, implicit, fault-aware), every routing kind, random 2D/3D
//!    mesh shapes and random fault scenarios, one evaluator reused
//!    across a cohort returns, mapping by mapping, exactly what a fresh
//!    [`schedule_cost_with`] returns: the same `texec`, or the same
//!    error for an unschedulable mapping.
//! 2. **Memo invisibility** — walk memoization is a performance knob,
//!    never an arithmetic one: memo-on and memo-off evaluators return
//!    bit-identical cohorts, and seed-pinned SA and GA searches walk the
//!    same trajectory (mapping, cost bits, evaluation count, telemetry)
//!    with the memo on and off — while the memo-on run demonstrably
//!    *did* hit its table, so the equalities are never vacuous.
//!
//! Case counts default low for the regular CI run; the scheduled fuzz
//! job raises them through `NOC_FUZZ_CASES`.

use noc::apps::TgffConfig;
use noc::energy::Technology;
use noc::mapping::{
    CdcmObjective, GaConfig, GeneticSearch, MultiStartSa, RestartBudget, SaConfig, SearchRun,
    SearchStrategy,
};
use noc::model::{
    Cdcg, FaultScenario, FaultSet, Mapping, Mesh, RouteProvider, RoutingKind, TileId,
};
use noc::sim::{schedule_cost_with, CostEvaluator, ScheduleScratch, SimError, SimParams};
use std::sync::Arc;

/// Cases for the property loops; override with `NOC_FUZZ_CASES` (the
/// scheduled CI fuzz job runs hundreds).
fn fuzz_cases() -> u64 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn kind_of(index: usize) -> RoutingKind {
    RoutingKind::ALL[index % RoutingKind::ALL.len()]
}

/// A random application on a random mesh — 3D two thirds of the time.
fn instance(seed: u64) -> (Cdcg, Mesh) {
    let mut state = seed;
    let width = 2 + (splitmix(&mut state) % 2) as usize; // 2..=3
    let height = 2 + (splitmix(&mut state) % 2) as usize; // 2..=3
    let depth = 1 + (splitmix(&mut state) % 3) as usize; // 1..=3
    let cores = (3 + (splitmix(&mut state) % 6) as usize).min(width * height * depth);
    let packets = 8 + (splitmix(&mut state) % 20) as usize; // 8..=27
    let cdcg = noc::apps::generate(&TgffConfig::new(
        cores,
        packets,
        (packets as u64) * 50,
        splitmix(&mut state),
    ));
    (cdcg, Mesh::new3(width, height, depth).expect("valid dims"))
}

/// A seed-deterministic random injective mapping (Fisher–Yates over the
/// mesh's tiles).
fn permuted_mapping(mesh: &Mesh, cores: usize, seed: u64) -> Mapping {
    let mut state = seed;
    let mut tiles: Vec<TileId> = mesh.tiles().collect();
    for i in (1..tiles.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        tiles.swap(i, j);
    }
    Mapping::from_tiles(mesh, tiles.into_iter().take(cores)).expect("injective")
}

/// A cohort shaped like real search cohorts: a base mapping, single-swap
/// siblings of it (the GA/tabu neighborhood structure the memo dedups),
/// an exact duplicate (populations carry those, and it guarantees the
/// memo-hit assertions are never vacuous) and fresh random permutations.
fn sibling_batch(mesh: &Mesh, cores: usize, seed: u64) -> Vec<Mapping> {
    let mut state = seed;
    let base = permuted_mapping(mesh, cores, splitmix(&mut state));
    let mut batch = vec![base.clone(), base.clone()];
    for _ in 0..5 {
        let mut sibling = base.clone();
        let a = TileId::new((splitmix(&mut state) % mesh.tile_count() as u64) as usize);
        let b = TileId::new((splitmix(&mut state) % mesh.tile_count() as u64) as usize);
        sibling.swap_tiles(a, b);
        batch.push(sibling);
    }
    for _ in 0..2 {
        batch.push(permuted_mapping(mesh, cores, splitmix(&mut state)));
    }
    batch
}

fn scenario_of(index: usize, count: usize, seed: u64) -> FaultScenario {
    match index % 3 {
        0 => FaultScenario::RandomLinks { count, seed },
        1 => FaultScenario::RandomTsvs { count, seed },
        _ => FaultScenario::Region {
            width: 1 + count % 3,
            height: 1 + count % 2,
            seed,
        },
    }
}

/// `texec` of `mapping` from a fresh scratch: the reference a reused
/// evaluator must reproduce.
fn fresh(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    params: &SimParams,
    provider: &RouteProvider,
) -> Result<u64, SimError> {
    let mut scratch = ScheduleScratch::new();
    schedule_cost_with(cdcg, mesh, mapping, params, provider, &mut scratch)
}

/// Contract 1, healthy tiers: one evaluator reused across a cohort
/// equals a fresh `schedule_cost_with` per mapping bitwise, for every
/// provider tier and routing kind on random 2D/3D meshes.
#[test]
fn batch_matches_sequential_across_tiers_and_meshes() {
    for case in 0..fuzz_cases() {
        let mut state = 0xBA7C_0000 + case;
        let (cdcg, mesh) = instance(splitmix(&mut state));
        let kind = kind_of(case as usize);
        let params = SimParams::new();
        let cohort = sibling_batch(&mesh, cdcg.core_count(), splitmix(&mut state));
        for provider in [
            RouteProvider::dense(&mesh, kind).expect("small mesh"),
            RouteProvider::implicit(&mesh, kind),
            RouteProvider::fault_aware(&mesh, kind, FaultSet::new()),
        ] {
            let provider = Arc::new(provider);
            let mut evaluator = CostEvaluator::with_provider(&cdcg, &params, Arc::clone(&provider));
            for (i, mapping) in cohort.iter().enumerate() {
                let got = evaluator
                    .texec_cycles(mapping)
                    .expect("healthy tiers schedule");
                let want = fresh(&cdcg, &mesh, mapping, &params, &provider)
                    .expect("healthy tiers schedule");
                assert_eq!(
                    got,
                    want,
                    "case {case}, {kind:?}, tier {:?}, candidate {i}",
                    provider.tier()
                );
            }
        }
    }
}

/// Contract 1, fault tier: under random fault scenarios a reused
/// evaluator answers every mapping of a cohort exactly as a fresh
/// evaluation does — the same `texec`, or the same error for a mapping
/// whose traffic the faults partition — and an error leaves it usable
/// for the next mapping.
#[test]
fn batch_matches_sequential_under_fault_scenarios() {
    for case in 0..fuzz_cases() {
        let mut state = 0xFA17_0000 + case;
        let (cdcg, mesh) = instance(splitmix(&mut state));
        let kind = kind_of(case as usize);
        let scenario = scenario_of(case as usize, 1 + (case as usize % 4), splitmix(&mut state));
        let faults = scenario.generate(&mesh);
        let provider = Arc::new(RouteProvider::fault_aware(&mesh, kind, faults));
        let params = SimParams::new();
        let cohort = sibling_batch(&mesh, cdcg.core_count(), splitmix(&mut state));
        let mut evaluator = CostEvaluator::with_provider(&cdcg, &params, Arc::clone(&provider));
        for (i, mapping) in cohort.iter().enumerate() {
            assert_eq!(
                evaluator.texec_cycles(mapping),
                fresh(&cdcg, &mesh, mapping, &params, &provider),
                "case {case}, candidate {i}"
            );
        }
    }
}

/// Contract 2 at the engine level: memo-on and memo-off evaluators
/// return bit-identical cohorts, the memo-on run really hit its table,
/// and the memo-off run really had none.
#[test]
fn memo_on_and_off_batches_are_bit_identical() {
    for case in 0..fuzz_cases() {
        let mut state = 0x3E30_0000 + case;
        let (cdcg, mesh) = instance(splitmix(&mut state));
        let kind = kind_of(case as usize);
        let params = SimParams::new();
        let cohort = sibling_batch(&mesh, cdcg.core_count(), splitmix(&mut state));
        let provider = Arc::new(RouteProvider::implicit(&mesh, kind));
        let mut on = CostEvaluator::with_provider(&cdcg, &params, Arc::clone(&provider));
        let mut off = CostEvaluator::with_provider(&cdcg, &params, provider);
        off.set_walk_memo(false);
        assert!(on.walk_memo_enabled() && !off.walk_memo_enabled());
        for (i, mapping) in cohort.iter().enumerate() {
            assert_eq!(
                on.texec_cycles(mapping).expect("schedules"),
                off.texec_cycles(mapping).expect("schedules"),
                "case {case}, candidate {i}: memo changed a texec"
            );
        }
        let stats = on.walk_memo_stats().expect("memo on");
        assert!(
            stats.hits > 0,
            "case {case}: duplicate candidate produced no memo hit"
        );
        assert!(off.walk_memo_stats().is_none());
    }
}

fn assert_identical(label: &str, case: u64, first: &SearchRun, second: &SearchRun) {
    assert_eq!(
        first.outcome.mapping, second.outcome.mapping,
        "case {case}, {label}: memo changed the best mapping"
    );
    assert_eq!(
        first.outcome.cost.to_bits(),
        second.outcome.cost.to_bits(),
        "case {case}, {label}: memo changed the best cost bits"
    );
    assert_eq!(
        first.outcome.evaluations, second.outcome.evaluations,
        "case {case}, {label}: memo changed the evaluation count"
    );
    assert_eq!(
        first.telemetry, second.telemetry,
        "case {case}, {label}: memo changed the telemetry"
    );
}

/// Contract 2 end-to-end: seed-pinned SA (delta path) and GA (generation
/// path) trajectories on the CDCM objective are bit-identical with walk
/// memoization on and off, and the memo-on objective demonstrably hit
/// its table.
#[test]
fn memo_on_and_off_search_trajectories_are_bit_identical() {
    let tech = Technology::t007();
    let params = SimParams::new();
    for case in 0..fuzz_cases() {
        let mut state = 0x7A2E_0000 + case;
        let (cdcg, mesh) = instance(splitmix(&mut state));
        let kind = kind_of(case as usize);
        let seed = splitmix(&mut state);
        let cores = cdcg.core_count();
        let make = |memo: bool| {
            let provider = Arc::new(RouteProvider::implicit(&mesh, kind));
            let objective = CdcmObjective::with_provider(&cdcg, &tech, params, provider);
            objective.set_walk_memo(memo);
            objective
        };
        let on = make(true);
        let off = make(false);

        let mut sa = SaConfig::quick(seed);
        sa.max_evaluations = 300;
        let sa = MultiStartSa {
            config: sa,
            restarts: 2,
            budget: RestartBudget::Total,
        };
        assert_identical(
            "sa",
            case,
            &sa.search(&on, &mesh, cores),
            &sa.search(&off, &mesh, cores),
        );

        let mut ga = GaConfig::new(seed);
        ga.budget = 300;
        let ga = GeneticSearch::new(ga);
        assert_identical(
            "ga",
            case,
            &ga.search(&on, &mesh, cores),
            &ga.search(&off, &mesh, cores),
        );

        // Non-vacuity: the memo-on objective resolved walks through its
        // table and hit it; the memo-off objective had no table at all.
        let memo = on
            .walk_memo_stats()
            .expect("implicit tier memoizes when enabled");
        assert!(memo.misses > 0, "case {case}: memo-on objective never ran");
        assert!(memo.hits > 0, "case {case}: memo-on objective never hit");
        assert!(
            off.walk_memo_stats().is_none(),
            "case {case}: memo-off objective had a table"
        );
    }
}
