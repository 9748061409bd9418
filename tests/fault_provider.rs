//! Fault-tier property tests. Three contracts:
//!
//! 1. **Empty-set bit-identity** — `RouteProvider::fault_aware` with an
//!    empty `FaultSet` must be indistinguishable from the healthy tiers:
//!    identical decoded walks, hop counts, `schedule_cost`, CDCM costs,
//!    swap-delta chains, and seed-pinned SA trajectories.
//! 2. **Dead links are never traversed** — under random seed-driven
//!    `FaultScenario`s, every resolvable pair's walk avoids every dead
//!    channel, and every unresolvable pair reports
//!    `ModelError::MeshPartitioned` instead of panicking, all the way up
//!    through `schedule_cost` and the CDCM objective.
//! 3. **Scenario determinism** — equal scenarios on equal meshes
//!    generate equal fault sets; the robustness experiments depend on it.

use noc::apps::TgffConfig;
use noc::energy::{CdcmCostEvaluator, Technology};
use noc::model::{
    FaultScenario, FaultSet, Link, Mapping, Mesh, ModelError, RouteProvider, RouteSource,
    RoutingKind, TileId,
};
use noc::sim::{schedule_cost_with, ScheduleScratch, SimParams};
use proptest::prelude::*;
use std::sync::Arc;

/// Cases per property; the scheduled CI fuzz job raises this through
/// `NOC_FUZZ_CASES`.
fn fuzz_cases() -> u32 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn kind_of(index: usize) -> RoutingKind {
    RoutingKind::ALL[index % RoutingKind::ALL.len()]
}

/// Decodes a pair's walk into physical links through any source.
fn decode_walk<S: RouteSource + ?Sized>(source: &S, src: TileId, dst: TileId) -> Vec<Link> {
    let mut buf = Vec::new();
    let (start, len) = source.walk_span(src, dst, &mut buf);
    let flat = source.flat(&buf);
    flat[start as usize..(start + len) as usize]
        .iter()
        .map(|&id| source.link_at(id).expect("walk ids decode"))
        .collect()
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

fn app_and_mesh() -> impl Strategy<Value = (noc::model::Cdcg, Mesh)> {
    (
        2usize..7,
        1usize..30,
        2usize..5,
        2usize..4,
        1usize..4,
        any::<u64>(),
    )
        .prop_map(|(cores, packets, width, height, depth, seed)| {
            let cores = cores.min(width * height * depth).max(2);
            let packets = packets.max(1);
            let cdcg = noc::apps::generate(&TgffConfig::new(
                cores,
                packets,
                (packets as u64) * 50,
                seed,
            ));
            let mesh = Mesh::new3(width, height, depth).expect("valid dims");
            (cdcg, mesh)
        })
}

fn permuted_mapping(mesh: &Mesh, cores: usize, seed: u64) -> Mapping {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut tiles: Vec<TileId> = mesh.tiles().collect();
    tiles.shuffle(&mut rng);
    Mapping::from_tiles(mesh, tiles.into_iter().take(cores)).expect("injective")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// With an empty `FaultSet`, every pair's decoded walk, router count
    /// and vertical-hop count match the implicit tier exactly, for every
    /// routing kind on random 2D/3D mesh shapes, and `validate_pair`
    /// always succeeds.
    #[test]
    fn empty_fault_set_walks_match_all_tiers(
        w in 1usize..7,
        h in 1usize..6,
        d in 1usize..4,
        kind_index in 0usize..5,
    ) {
        let mesh = Mesh::new3(w, h, d).expect("valid dims");
        let kind = kind_of(kind_index);
        let implicit = RouteProvider::implicit(&mesh, kind);
        let fault = RouteProvider::fault_aware(&mesh, kind, FaultSet::new());
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                let want = decode_walk(&implicit, src, dst);
                prop_assert_eq!(&decode_walk(&fault, src, dst), &want, "{:?} {}->{}", kind, src, dst);
                prop_assert_eq!(
                    RouteSource::router_count(&fault, src, dst),
                    RouteSource::router_count(&implicit, src, dst)
                );
                prop_assert_eq!(
                    RouteSource::vertical_hops(&fault, src, dst),
                    RouteSource::vertical_hops(&implicit, src, dst)
                );
                prop_assert!(fault.validate_pair(src, dst).is_ok());
            }
        }
    }

    /// With an empty `FaultSet`, `schedule_cost` and full CDCM costs are
    /// bit-identical to the dense/implicit tiers on random
    /// applications, meshes and mappings.
    #[test]
    fn empty_fault_set_costs_are_bit_identical(
        (cdcg, mesh) in app_and_mesh(),
        kind_index in 0usize..5,
        seed in any::<u64>(),
    ) {
        let kind = kind_of(kind_index);
        let mapping = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let params = SimParams::new();
        let mut scratch = ScheduleScratch::new();
        let dense = RouteProvider::dense(&mesh, kind).expect("small mesh");
        let want = schedule_cost_with(&cdcg, &mesh, &mapping, &params, &dense, &mut scratch)
            .expect("schedules");
        for provider in [
            RouteProvider::implicit(&mesh, kind),
            RouteProvider::fault_aware(&mesh, kind, FaultSet::new()),
        ] {
            let got = schedule_cost_with(&cdcg, &mesh, &mapping, &params, &provider, &mut scratch)
                .expect("schedules");
            prop_assert_eq!(got, want, "{:?} tier {:?}", kind, provider.tier());
        }
        let tech = Technology::t007();
        let mut engines: Vec<CdcmCostEvaluator> = [
            RouteProvider::dense(&mesh, kind).expect("small mesh"),
            RouteProvider::fault_aware(&mesh, kind, FaultSet::new()),
        ]
        .into_iter()
        .map(|p| CdcmCostEvaluator::with_provider(&cdcg, &tech, &params, Arc::new(p)))
        .collect();
        let costs: Vec<_> = engines
            .iter_mut()
            .map(|e| e.evaluate(&mapping).expect("evaluates"))
            .collect();
        prop_assert_eq!(costs[0], costs[1]);
    }

    /// With an empty `FaultSet`, chains of swap evaluations
    /// (including accepted swaps and post-acceptance full re-evaluation)
    /// are bit-identical between the dense and fault-aware tiers.
    #[test]
    fn empty_fault_set_swap_chains_are_bit_identical(
        (cdcg, mesh) in app_and_mesh(),
        kind_index in 0usize..5,
        seed in any::<u64>(),
        swap_seed in any::<u64>(),
    ) {
        let mut state = swap_seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let swaps: Vec<(usize, usize, bool)> = (0..6)
            .map(|_| (next() as usize, next() as usize, next() % 2 == 0))
            .collect();
        let kind = kind_of(kind_index);
        let tech = Technology::t007();
        let params = SimParams::new();
        let mut engines: Vec<CdcmCostEvaluator> = [
            RouteProvider::dense(&mesh, kind).expect("small mesh"),
            RouteProvider::fault_aware(&mesh, kind, FaultSet::new()),
        ]
        .into_iter()
        .map(|p| CdcmCostEvaluator::with_provider(&cdcg, &tech, &params, Arc::new(p)))
        .collect();

        let mut mapping = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let costs: Vec<_> = engines
            .iter_mut()
            .map(|e| e.evaluate(&mapping).expect("evaluates"))
            .collect();
        prop_assert_eq!(costs[0], costs[1]);

        for &(a, b, accept) in &swaps {
            let a = TileId::new(a % mesh.tile_count());
            let b = TileId::new(b % mesh.tile_count());
            let swapped: Vec<_> = engines
                .iter_mut()
                .map(|e| e.evaluate_swap(&mapping, a, b).expect("evaluates"))
                .collect();
            prop_assert_eq!(swapped[0], swapped[1], "swap {}-{}", a, b);
            if accept {
                mapping.swap_tiles(a, b);
                let after: Vec<_> = engines
                    .iter_mut()
                    .map(|e| e.evaluate(&mapping).expect("evaluates"))
                    .collect();
                prop_assert_eq!(after[0], after[1]);
            }
        }
    }

    /// Under random fault scenarios, a resolvable pair's walk never
    /// traverses a dead channel, and an unresolvable pair reports
    /// `MeshPartitioned` — from the provider and from `schedule_cost` —
    /// never a panic.
    #[test]
    fn routes_never_traverse_dead_links(
        w in 2usize..7,
        h in 2usize..6,
        d in 1usize..4,
        kind_index in 0usize..5,
        scenario_index in 0usize..3,
        count in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mesh = Mesh::new3(w, h, d).expect("valid dims");
        let kind = kind_of(kind_index);
        let scenario = scenario_of(scenario_index, count, seed);
        let faults = scenario.generate(&mesh);
        let provider = RouteProvider::fault_aware(&mesh, kind, faults.clone());
        let mut partitioned = 0usize;
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                match provider.validate_pair(src, dst) {
                    Ok(()) => {
                        for link in decode_walk(&provider, src, dst) {
                            prop_assert!(
                                !faults.is_dead(&link),
                                "{:?} {}->{} traverses dead {}", kind, src, dst, link
                            );
                        }
                    }
                    Err(ModelError::MeshPartitioned { pair }) => {
                        prop_assert_eq!(pair, (src, dst));
                        // The degenerate walk stays sane (injection +
                        // ejection only, no internal channel).
                        prop_assert_eq!(decode_walk(&provider, src, dst).len(), 2);
                        partitioned += 1;
                    }
                    Err(other) => prop_assert!(false, "unexpected error {other}"),
                }
            }
        }
        // The stats agree with what validate_pair reported.
        let stats = provider.as_fault_aware().expect("fault tier").stats();
        prop_assert_eq!(stats.partitioned_pairs, partitioned);

        // `schedule_cost` and the CDCM evaluator surface partitions as
        // typed errors / infinite cost — never a panic — and succeed
        // whenever every communicating pair survives.
        let cdcg = noc::apps::generate(&TgffConfig::new(
            4.min(mesh.tile_count()).max(2), 8, 400, seed,
        ));
        let mapping = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let params = SimParams::new();
        let mut scratch = ScheduleScratch::new();
        let pair_ok = |src: noc::model::CoreId, dst| {
            provider.validate_pair(mapping.tile_of(src), mapping.tile_of(dst)).is_ok()
        };
        let all_connected = cdcg.to_cwg().communications()
            .all(|c| pair_ok(c.src, c.dst));
        let cost = schedule_cost_with(&cdcg, &mesh, &mapping, &params, &provider, &mut scratch);
        prop_assert_eq!(cost.is_ok(), all_connected, "schedule_cost vs validate_pair");
        let tech = Technology::t007();
        let mut engine = CdcmCostEvaluator::with_provider(
            &cdcg, &tech, &params, Arc::new(RouteProvider::fault_aware(&mesh, kind, faults)),
        );
        prop_assert_eq!(engine.evaluate(&mapping).is_ok(), all_connected);
    }

    /// Equal scenarios on equal meshes generate equal fault sets; dead
    /// channels come in direction pairs; random-link counts are honored.
    #[test]
    fn scenarios_are_seed_deterministic(
        w in 2usize..8,
        h in 2usize..7,
        d in 1usize..4,
        scenario_index in 0usize..3,
        count in 0usize..6,
        seed in any::<u64>(),
    ) {
        let mesh = Mesh::new3(w, h, d).expect("valid dims");
        let scenario = scenario_of(scenario_index, count, seed);
        let a = scenario.generate(&mesh);
        let b = scenario.generate(&mesh);
        prop_assert_eq!(&a, &b, "same scenario, same mesh, different sets");
        // Physical failures kill both directions.
        for link in a.dead_links() {
            if let Link::Internal { from, to } = *link {
                prop_assert!(
                    a.is_dead(&Link::between(to, from)),
                    "missing reverse of {}", link
                );
            }
        }
        if let FaultScenario::RandomLinks { count, .. } = scenario {
            let channels = mesh.internal_links().len() / 2;
            prop_assert_eq!(a.len(), 2 * count.min(channels));
        }
    }
}

/// Seed-pinned SA trajectories through the explorer are identical on the
/// fault-aware (empty-set) tier and the healthy tiers — the acceptance
/// gate for using the fault tier as a drop-in default in robustness
/// experiments.
#[test]
fn empty_fault_set_sa_trajectory_matches_healthy_tiers() {
    use noc::mapping::{Explorer, SaConfig, SearchMethod, Strategy};

    let mesh = Mesh::new3(4, 4, 2).unwrap();
    let cdcg = noc::apps::layered_shift_workload(4, 4, 2, 2);
    let mut config = SaConfig::quick(23);
    config.max_evaluations = 400;
    let mut outcomes = Vec::new();
    for provider in [
        RouteProvider::dense(&mesh, RoutingKind::Xyz).unwrap(),
        RouteProvider::implicit(&mesh, RoutingKind::Xyz),
        RouteProvider::fault_aware(&mesh, RoutingKind::Xyz, FaultSet::new()),
    ] {
        let explorer = Explorer::with_provider(
            &cdcg,
            mesh,
            Technology::t007(),
            SimParams::new(),
            Arc::new(provider),
        );
        let outcome = explorer.explore(Strategy::Cdcm, SearchMethod::SimulatedAnnealing(config));
        outcome.mapping.validate().unwrap();
        outcomes.push(outcome);
    }
    assert_eq!(outcomes[0].mapping, outcomes[1].mapping);
    assert_eq!(outcomes[0].mapping, outcomes[2].mapping);
    assert_eq!(outcomes[0].cost, outcomes[1].cost);
    assert_eq!(outcomes[0].cost, outcomes[2].cost);
    assert_eq!(outcomes[0].evaluations, outcomes[2].evaluations);
}

/// The remap harness is deterministic end-to-end: same instance, same
/// scenario, same seed — same report, including the recovery curve.
/// Then the pinned k=2 scenario on Table 1 rows, from an incumbent
/// annealed on the healthy mesh: the 3x3 run is reproducible and keeps
/// the mesh connected, and on every row detours cannot lower the cost
/// and recovery cannot raise it. The 8x8 row (tgff-g) and the 64x64
/// shift take most of a minute in release, so they join only when
/// `NOC_FUZZ_CASES` is set, as in the weekly fuzz job.
#[test]
fn remap_reports_are_seed_deterministic() {
    use noc::mapping::{anneal_delta, remap_after_faults, CdcmObjective, SaConfig};

    let mesh = Mesh::new(4, 4).unwrap();
    let cdcg = noc::apps::generate(&TgffConfig::new(8, 20, 1000, 3));
    let tech = Technology::t007();
    let params = SimParams::new();
    let healthy = Arc::new(RouteProvider::auto(&mesh, RoutingKind::Xy));
    let incumbent = permuted_mapping(&mesh, cdcg.core_count(), 17);
    let scenario = FaultScenario::RandomLinks { count: 2, seed: 11 };
    let run = || {
        remap_after_faults(
            &cdcg,
            &tech,
            params,
            &healthy,
            scenario.generate(&mesh),
            &incumbent,
            3_000,
            5,
        )
    };
    let report = run();
    assert_eq!(report.dead_links, 4);
    assert!(report.baseline_cost.is_finite());
    assert!(report.degraded_cost >= report.baseline_cost);
    assert!(report.recovered_cost <= report.degraded_cost);
    assert_eq!(report, run());

    let pinned = FaultScenario::RandomLinks { count: 2, seed: 7 };
    let remap_annealed = |cdcg: &noc::model::Cdcg, mesh: Mesh, incumbent_evals, budget| {
        let healthy = Arc::new(RouteProvider::auto(&mesh, RoutingKind::Xy));
        let objective = CdcmObjective::with_provider(cdcg, &tech, params, Arc::clone(&healthy));
        let mut config = SaConfig::quick(41);
        config.max_evaluations = incumbent_evals;
        let incumbent = anneal_delta(&objective, &mesh, cdcg.core_count(), &config).mapping;
        let faults = pinned.generate(&mesh);
        remap_after_faults(
            cdcg, &tech, params, &healthy, faults, &incumbent, budget, 41,
        )
    };
    let suite = noc::apps::table1_suite();
    let row = |group: &str| {
        suite
            .iter()
            .find(|b| b.spec.group == group)
            .expect("the suite covers all published NoC sizes")
    };
    let first = row("3x3");
    let report = remap_annealed(&first.cdcg, first.mesh, 2_000, 10_000);
    assert_eq!(
        report,
        remap_annealed(&first.cdcg, first.mesh, 2_000, 10_000),
        "pinned recovery run must be deterministic"
    );
    assert_eq!(report.dead_links, 4);
    assert!(!report.partitioned, "k=2 must not partition a 3x3 mesh");
    assert!(
        report.degraded_cost >= report.baseline_cost,
        "detours cannot reduce cost"
    );
    assert!(report.recovered_cost <= report.degraded_cost);

    let second = row("2x4");
    let mut sweep = vec![(second.cdcg.clone(), second.mesh, 2_000, 10_000)];
    if std::env::var_os("NOC_FUZZ_CASES").is_some() {
        let tgff_g = row("8x8");
        sweep.push((tgff_g.cdcg.clone(), tgff_g.mesh, 2_000, 10_000));
        let mesh = Mesh::new(64, 64).unwrap();
        sweep.push((noc::apps::large_mesh_workload(64, 64, 1), mesh, 500, 2_000));
    }
    for (cdcg, mesh, incumbent_evals, budget) in sweep {
        let r = remap_annealed(&cdcg, mesh, incumbent_evals, budget);
        assert!(r.degraded_cost >= r.baseline_cost, "{mesh:?}");
        assert!(r.recovered_cost <= r.degraded_cost, "{mesh:?}");
    }
}
