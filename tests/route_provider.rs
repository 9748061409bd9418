//! Provider-equivalence property tests: the on-demand and implicit
//! route-provider tiers must be indistinguishable from the dense
//! `RouteCache` wherever both exist — identical routers, dense-link
//! walks (up to id renaming), hop counts and **bit-identical**
//! `schedule_cost` / CDCM costs — and must keep working on meshes the
//! dense cache refuses.

use noc::apps::TgffConfig;
use noc::energy::{CdcmCostEvaluator, Technology};
use noc::model::{
    Link, Mapping, Mesh, RouteCache, RouteProvider, RouteSource, RoutingKind, TileId,
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

/// Decodes a pair's walk into physical links through any source — the
/// id-numbering-independent view the equivalence contract is stated in.
fn decode_walk<S: RouteSource + ?Sized>(source: &S, src: TileId, dst: TileId) -> Vec<Link> {
    let mut buf = Vec::new();
    let (start, len) = source.walk_span(src, dst, &mut buf);
    let flat = source.flat(&buf);
    flat[start as usize..(start + len) as usize]
        .iter()
        .map(|&id| source.link_at(id).expect("walk ids decode"))
        .collect()
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

    /// Every pair's decoded walk, hop count and vertical-hop count agree
    /// across the three tiers, for every routing kind (2D and 3D), on
    /// random mesh shapes.
    #[test]
    fn walks_and_hops_agree_across_tiers(
        w in 1usize..7,
        h in 1usize..6,
        d in 1usize..4,
        kind_index in 0usize..5,
    ) {
        let mesh = Mesh::new3(w, h, d).expect("valid dims");
        let kind = kind_of(kind_index);
        let dense = RouteCache::with_routing(&mesh, kind.algorithm()).expect("small mesh");
        let lazy = RouteProvider::on_demand(&mesh, kind);
        let implicit = RouteProvider::implicit(&mesh, kind);
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                let want = decode_walk(&dense, src, dst);
                prop_assert_eq!(&decode_walk(&lazy, src, dst), &want, "{:?} {}->{}", kind, src, dst);
                prop_assert_eq!(&decode_walk(&implicit, src, dst), &want, "{:?} {}->{}", kind, src, dst);
                let k = dense.router_count(src, dst);
                prop_assert_eq!(RouteSource::router_count(&lazy, src, dst), k);
                prop_assert_eq!(RouteSource::router_count(&implicit, src, dst), k);
                let v = RouteSource::vertical_hops(&dense, src, dst);
                prop_assert_eq!(RouteSource::vertical_hops(&lazy, src, dst), v);
                prop_assert_eq!(RouteSource::vertical_hops(&implicit, src, dst), v);
            }
        }
    }

    /// `RoutingKind`'s closed-form hop distances equal the walked route
    /// lengths for every kind — 2D and 3D alike — through every provider
    /// tier, and the closed-form vertical-hop counts equal the walked
    /// routes' layer-crossing step counts.
    #[test]
    fn closed_form_hop_distances_match_walked_routes(
        w in 1usize..6,
        h in 1usize..5,
        d in 1usize..5,
        kind_index in 0usize..5,
    ) {
        let mesh = Mesh::new3(w, h, d).expect("valid dims");
        let kind = kind_of(kind_index);
        let dense = RouteCache::with_routing(&mesh, kind.algorithm()).expect("small mesh");
        let tiers = [
            RouteProvider::from_cache(std::sync::Arc::new(dense)),
            RouteProvider::on_demand(&mesh, kind),
            RouteProvider::implicit(&mesh, kind),
        ];
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                let path = kind.algorithm().route(&mesh, src, dst);
                let hops = kind.hop_distance(&mesh, src, dst);
                prop_assert_eq!(
                    hops + 1,
                    path.router_count(),
                    "{:?} {}x{}x{} {}->{}", kind, w, h, d, src, dst
                );
                let vertical = kind.vertical_hops(&mesh, src, dst);
                prop_assert_eq!(vertical, path.vertical_link_count(&mesh));
                prop_assert!(vertical <= hops);
                for tier in &tiers {
                    prop_assert_eq!(
                        RouteSource::router_count(tier, src, dst),
                        hops + 1,
                        "{:?} tier {:?}", kind, tier.tier()
                    );
                    prop_assert_eq!(
                        RouteSource::vertical_hops(tier, src, dst),
                        vertical,
                        "{:?} tier {:?}", kind, tier.tier()
                    );
                    // The walked span's length agrees with the closed
                    // form: K + 1 resources (injection + links + ejection).
                    let mut buf = Vec::new();
                    let (_, len) = tier.walk_span(src, dst, &mut buf);
                    prop_assert_eq!(len as usize, hops + 2);
                }
            }
        }
    }

    /// `schedule_cost` is bit-identical across the three tiers on random
    /// applications, meshes and mappings.
    #[test]
    fn schedule_cost_is_bit_identical_across_tiers(
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
            RouteProvider::on_demand(&mesh, kind),
            RouteProvider::implicit(&mesh, kind),
        ] {
            let got = schedule_cost_with(&cdcg, &mesh, &mapping, &params, &provider, &mut scratch)
                .expect("schedules");
            prop_assert_eq!(got, want, "{:?} tier {:?}", kind, provider.tier());
        }
    }

    /// Full CDCM costs and swap evaluations are bit-identical across
    /// tiers (same floating-point operations, not approximately equal) —
    /// including chains of accepted swaps, which the evaluators answer
    /// from their cached swapped mappings.
    #[test]
    fn cdcm_costs_and_swaps_are_bit_identical_across_tiers(
        (cdcg, mesh) in app_and_mesh(),
        kind_index in 0usize..5,
        seed in any::<u64>(),
        swap_seed in any::<u64>(),
    ) {
        // Derive a deterministic chain of (a, b, accept) swap moves.
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
            RouteProvider::on_demand(&mesh, kind),
            RouteProvider::implicit(&mesh, kind),
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
        prop_assert_eq!(costs[0], costs[2]);

        for &(a, b, accept) in &swaps {
            let a = TileId::new(a % mesh.tile_count());
            let b = TileId::new(b % mesh.tile_count());
            let swapped: Vec<_> = engines
                .iter_mut()
                .map(|e| e.evaluate_swap(&mapping, a, b).expect("evaluates"))
                .collect();
            prop_assert_eq!(swapped[0], swapped[1], "swap {}-{}", a, b);
            prop_assert_eq!(swapped[0], swapped[2], "swap {}-{}", a, b);
            if accept {
                mapping.swap_tiles(a, b);
                // Promotion path: the next full evaluation must agree too.
                let after: Vec<_> = engines
                    .iter_mut()
                    .map(|e| e.evaluate(&mapping).expect("evaluates"))
                    .collect();
                prop_assert_eq!(after[0], after[1]);
                prop_assert_eq!(after[0], after[2]);
            }
        }
    }
}

/// The dense tier refuses a 64×64 mesh with a typed error; the fallback
/// tiers run a real CDCM SA search on it, and both tiers walk the exact
/// same deterministic trajectory.
#[test]
fn large_mesh_sa_runs_on_fallback_tiers() {
    use noc::mapping::{Explorer, SaConfig, SearchMethod, Strategy};

    let mesh = Mesh::new(64, 64).unwrap();
    assert!(matches!(
        RouteProvider::dense(&mesh, RoutingKind::Xy),
        Err(noc::model::ModelError::RouteCacheTooLarge { .. })
    ));

    let cdcg = noc::apps::generate(&TgffConfig::new(24, 60, 60 * 64, 11));
    let mut config = SaConfig::quick(7);
    config.max_evaluations = 400;
    let mut outcomes = Vec::new();
    for provider in [
        RouteProvider::on_demand(&mesh, RoutingKind::Xy),
        RouteProvider::implicit(&mesh, RoutingKind::Xy),
    ] {
        let tier = provider.tier();
        let explorer = Explorer::with_provider(
            &cdcg,
            mesh,
            Technology::t007(),
            SimParams::new(),
            Arc::new(provider),
        );
        assert_eq!(explorer.route_provider().tier(), tier);
        let outcome = explorer.explore(Strategy::Cdcm, SearchMethod::SimulatedAnnealing(config));
        outcome.mapping.validate().unwrap();
        assert!(outcome.cost.is_finite());
        outcomes.push(outcome);
    }
    assert_eq!(outcomes[0].mapping, outcomes[1].mapping);
    assert_eq!(outcomes[0].cost, outcomes[1].cost);
    assert_eq!(outcomes[0].evaluations, outcomes[1].evaluations);
}

/// The acceptance instance: on a 4×4×4 cube running the layered-shift
/// workload, walks, hop counts, `schedule_cost`, CDCM costs and
/// swap deltas are bit-identical across the dense, on-demand
/// and implicit tiers, for both 3D routing kinds.
#[test]
fn cube_4x4x4_is_bit_identical_across_tiers() {
    let mesh = Mesh::new3(4, 4, 4).unwrap();
    let cdcg = noc::apps::layered_shift_workload(4, 4, 4, 2);
    let tech = Technology::t007();
    let params = SimParams::new();
    for kind in [RoutingKind::Xyz, RoutingKind::TorusXyz] {
        // Walks and hop counts.
        let dense = RouteCache::with_routing(&mesh, kind.algorithm()).unwrap();
        let tiers = [
            RouteProvider::from_cache(Arc::new(dense)),
            RouteProvider::on_demand(&mesh, kind),
            RouteProvider::implicit(&mesh, kind),
        ];
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                let want = decode_walk(&tiers[0], src, dst);
                for tier in &tiers[1..] {
                    assert_eq!(decode_walk(tier, src, dst), want, "{kind:?} {src}->{dst}");
                    assert_eq!(
                        RouteSource::router_count(tier, src, dst),
                        RouteSource::router_count(&tiers[0], src, dst)
                    );
                    assert_eq!(
                        RouteSource::vertical_hops(tier, src, dst),
                        RouteSource::vertical_hops(&tiers[0], src, dst)
                    );
                }
            }
        }
        // schedule_cost, CDCM costs and a deterministic swap chain.
        let mapping = permuted_mapping(&mesh, cdcg.core_count(), 42);
        let mut scratch = ScheduleScratch::new();
        let texecs: Vec<u64> = tiers
            .iter()
            .map(|tier| {
                schedule_cost_with(&cdcg, &mesh, &mapping, &params, tier, &mut scratch)
                    .expect("schedules")
            })
            .collect();
        assert_eq!(texecs[0], texecs[1], "{kind:?}");
        assert_eq!(texecs[0], texecs[2], "{kind:?}");
        let mut engines: Vec<CdcmCostEvaluator> = tiers
            .into_iter()
            .map(|t| CdcmCostEvaluator::with_provider(&cdcg, &tech, &params, Arc::new(t)))
            .collect();
        let mut current = mapping;
        let swaps = [(0usize, 21usize), (63, 5), (16, 48), (7, 7), (30, 33)];
        for (i, &(a, b)) in swaps.iter().enumerate() {
            let (a, b) = (TileId::new(a), TileId::new(b));
            let costs: Vec<_> = engines
                .iter_mut()
                .map(|e| e.evaluate_swap(&current, a, b).expect("evaluates"))
                .collect();
            assert_eq!(costs[0], costs[1], "{kind:?} swap {i}");
            assert_eq!(costs[0], costs[2], "{kind:?} swap {i}");
            // Vertical links must actually matter on the cube: the TSV
            // energy differs from the planar one at this tech point, so
            // a cost computed with planar-only ELbit would diverge.
            assert!(costs[0].objective_pj.is_finite());
            current.swap_tiles(a, b);
            let full: Vec<_> = engines
                .iter_mut()
                .map(|e| e.evaluate(&current).expect("evaluates"))
                .collect();
            assert_eq!(full[0], full[1], "{kind:?} promote {i}");
            assert_eq!(full[0], full[2], "{kind:?} promote {i}");
            assert_eq!(full[0].objective_pj, costs[0].objective_pj);
        }
    }
}

/// A full CDCM SA search runs on a 3D mesh through the explorer, and
/// the on-demand and implicit tiers walk identical trajectories (the
/// 3D twin of the 64×64 planar test).
#[test]
fn cube_sa_trajectories_are_tier_independent() {
    use noc::mapping::{Explorer, SaConfig, SearchMethod, Strategy};
    let mesh = Mesh::new3(4, 4, 4).unwrap();
    let cdcg = noc::apps::layered_shift_workload(4, 4, 4, 1);
    let mut config = SaConfig::quick(13);
    config.max_evaluations = 300;
    let mut outcomes = Vec::new();
    for provider in [
        RouteProvider::dense(&mesh, RoutingKind::Xyz).unwrap(),
        RouteProvider::on_demand(&mesh, RoutingKind::Xyz),
        RouteProvider::implicit(&mesh, RoutingKind::Xyz),
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
}

/// TSV energy is a real model input: lowering `EVbit` lowers the CDCM
/// objective of any mapping whose traffic crosses layers, and the 2D
/// energy model never reads it.
#[test]
fn vertical_link_energy_shapes_3d_costs_only() {
    use noc::energy::total::evaluate_cdcm_with;
    let params = SimParams::new();
    let cheap_tsv = Technology::t007();
    let pricey_tsv = Technology::t007().with_bit_energy(
        Technology::t007().bit_energy.with_vertical_link(0.060), // = ELbit
    );
    // 3D: the layered-shift round crossing layers pays the difference.
    let mesh = Mesh::new3(2, 2, 2).unwrap();
    let cdcg = noc::apps::layered_shift_workload(2, 2, 2, 1);
    let mapping = Mapping::identity(&mesh, cdcg.core_count()).unwrap();
    let cheap = evaluate_cdcm_with(
        &cdcg,
        &mesh,
        &mapping,
        &cheap_tsv,
        &params,
        &noc::model::XyzRouting,
    )
    .unwrap();
    let pricey = evaluate_cdcm_with(
        &cdcg,
        &mesh,
        &mapping,
        &pricey_tsv,
        &params,
        &noc::model::XyzRouting,
    )
    .unwrap();
    assert!(
        cheap.objective_pj() < pricey.objective_pj(),
        "TSV energy must be charged on layer-crossing routes: {} vs {}",
        cheap.objective_pj(),
        pricey.objective_pj()
    );
    // 2D: the same technology change is invisible.
    let planar = Mesh::new(4, 2).unwrap();
    let planar_app = noc::apps::large_mesh_workload(4, 2, 1);
    let planar_mapping = Mapping::identity(&planar, planar_app.core_count()).unwrap();
    let a = evaluate_cdcm_with(
        &planar_app,
        &planar,
        &planar_mapping,
        &cheap_tsv,
        &params,
        &noc::model::XyRouting,
    )
    .unwrap();
    let b = evaluate_cdcm_with(
        &planar_app,
        &planar,
        &planar_mapping,
        &pricey_tsv,
        &params,
        &noc::model::XyRouting,
    )
    .unwrap();
    assert_eq!(a.objective_pj(), b.objective_pj());
}

/// The large-mesh workload generator produces instances that evaluate on
/// the implicit tier (smoke for the bench path), and torus routing works
/// at scale too.
#[test]
fn large_mesh_workload_evaluates_on_the_implicit_tier() {
    let mesh = Mesh::new(64, 64).unwrap();
    let cdcg = noc::apps::large_mesh_workload(64, 64, 1);
    assert_eq!(cdcg.core_count(), 4096);
    let params = SimParams::new();
    let mapping = Mapping::identity(&mesh, 4096).unwrap();
    let mut scratch = ScheduleScratch::new();
    let mut costs = Vec::new();
    for kind in [RoutingKind::Xy, RoutingKind::TorusXy] {
        let provider = RouteProvider::implicit(&mesh, kind);
        let texec = schedule_cost_with(&cdcg, &mesh, &mapping, &params, &provider, &mut scratch)
            .expect("schedules at scale");
        assert!(texec > 0);
        costs.push(texec);
    }
    // Torus wrap links shorten the cross-mesh round: strictly faster.
    assert!(costs[1] <= costs[0]);
}
