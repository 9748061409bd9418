//! Property-based tests of the core invariants, across randomly generated
//! applications, meshes and mappings.

use noc::apps::TgffConfig;
use noc::energy::{cdcg_dynamic_energy, evaluate_cdcm, Technology};
use noc::model::RoutingAlgorithm;
use noc::model::{Cdcg, Mapping, Mesh, TileId, TorusXyRouting, XyRouting, YxRouting};
use noc::sim::{schedule, SimParams};
use proptest::prelude::*;

/// Strategy: a random application plus a mesh that fits it.
fn app_and_mesh() -> impl Strategy<Value = (Cdcg, Mesh)> {
    (2usize..7, 1usize..30, 2usize..5, 2usize..4, any::<u64>()).prop_map(
        |(cores, packets, width, height, seed)| {
            let cores = cores.min(width * height);
            let cores = cores.max(2);
            let packets = packets.max(1);
            let cdcg = noc::apps::generate(&TgffConfig::new(
                cores,
                packets,
                (packets as u64) * 50,
                seed,
            ));
            let mesh = Mesh::new(width, height).expect("valid dims");
            (cdcg, mesh)
        },
    )
}

fn permuted_mapping(mesh: &Mesh, cores: usize, seed: u64) -> Mapping {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut tiles: Vec<TileId> = mesh.tiles().collect();
    tiles.shuffle(&mut rng);
    Mapping::from_tiles(mesh, tiles.into_iter().take(cores)).expect("injective")
}

/// A copy of `base` with every packet's `comp_cycles` multiplied by `k`;
/// cores, packet sizes and dependences are unchanged.
fn with_comp_scaled(base: &Cdcg, k: u64) -> Cdcg {
    let mut scaled = Cdcg::new();
    for c in base.cores() {
        scaled.add_core(base.core_name(c).expect("named"));
    }
    let ids: Vec<_> = base
        .packet_ids()
        .map(|id| {
            let p = base.packet(id);
            scaled
                .add_packet(p.src, p.dst, p.comp_cycles * k, p.bits)
                .expect("valid")
        })
        .collect();
    for id in base.packet_ids() {
        for &succ in base.successors(id) {
            scaled
                .add_dependence(ids[id.index()], ids[succ.index()])
                .expect("acyclic");
        }
    }
    scaled
}

/// Cases per property; the scheduled CI fuzz job raises this through
/// `NOC_FUZZ_CASES`.
fn fuzz_cases() -> u32 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Every XY route is minimal and stays inside the mesh.
    #[test]
    fn xy_routes_are_minimal((_, mesh) in app_and_mesh(), a in 0usize..20, b in 0usize..20) {
        let a = TileId::new(a % mesh.tile_count());
        let b = TileId::new(b % mesh.tile_count());
        for algo in [&XyRouting as &dyn RoutingAlgorithm, &YxRouting] {
            let path = algo.route(&mesh, a, b);
            prop_assert_eq!(path.router_count(), mesh.manhattan(a, b) + 1);
            for w in path.routers().windows(2) {
                prop_assert!(mesh.direction_between(w[0], w[1]).is_some());
            }
        }
    }

    /// The schedule delivers every packet exactly once, no earlier than
    /// its Equation 8 bound, and texec is the max delivery.
    #[test]
    fn schedule_respects_wormhole_bounds((cdcg, mesh) in app_and_mesh(), seed in any::<u64>()) {
        let mapping = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let params = SimParams::new();
        let sched = schedule(&cdcg, &mesh, &mapping, &params).expect("schedules");
        let mut max_delivery = 0;
        for ps in sched.packets() {
            let flits = params.flits(cdcg.packet(ps.packet).bits).max(1);
            let bound = noc::sim::wormhole::total_delay_cycles(&params, ps.router_count(), flits);
            prop_assert!(ps.latency() >= bound);
            prop_assert!(ps.delivery >= ps.inject());
            max_delivery = max_delivery.max(ps.delivery);
        }
        prop_assert_eq!(sched.texec_cycles(), max_delivery);
    }

    /// Dependences are respected: a packet is never injected before all
    /// of its predecessors were delivered plus its computation time.
    #[test]
    fn dependences_are_respected((cdcg, mesh) in app_and_mesh(), seed in any::<u64>()) {
        let mapping = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let sched = schedule(&cdcg, &mesh, &mapping, &SimParams::new()).expect("schedules");
        for id in cdcg.packet_ids() {
            let ps = sched.packet(id);
            for &pred in cdcg.predecessors(id) {
                let pd = sched.packet(pred).delivery;
                prop_assert!(
                    ps.inject() >= pd + cdcg.packet(id).comp_cycles,
                    "{} injected at {} before pred {} done {} + comp {}",
                    id, ps.inject(), pred, pd, cdcg.packet(id).comp_cycles
                );
            }
        }
    }

    /// Per-resource occupancy intervals never overlap on arbitrated
    /// resources (inter-router links).
    #[test]
    fn arbitrated_links_never_overlap((cdcg, mesh) in app_and_mesh(), seed in any::<u64>()) {
        let mapping = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let sched = schedule(&cdcg, &mesh, &mapping, &SimParams::new()).expect("schedules");
        for (res, occs) in sched.occupancy().iter() {
            if let noc::sim::Resource::Link(l) = res {
                if l.is_internal() {
                    let mut sorted: Vec<_> = occs.iter().map(|o| o.interval).collect();
                    sorted.sort();
                    for w in sorted.windows(2) {
                        prop_assert!(
                            !w[0].overlaps(&w[1]),
                            "overlap {} vs {} on {}", w[0], w[1], res
                        );
                    }
                }
            }
        }
    }

    /// Dynamic energy is independent of packet timing and of the packet
    /// order within a (src, dst) pair, and is invariant under whole-mesh
    /// mirror symmetry.
    #[test]
    fn dynamic_energy_invariances((cdcg, mesh) in app_and_mesh(), seed in any::<u64>()) {
        let tech = Technology::t007();
        let mapping = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let base = cdcg_dynamic_energy(&cdcg, &mesh, &mapping, &tech).picojoules();

        // Mirror the mapping horizontally: distances are preserved.
        let mirrored = Mapping::from_tiles(&mesh, cdcg.cores().map(|c| {
            let t = mapping.tile_of(c);
            let coord = mesh.coord(t);
            mesh.tile_at(noc::model::Coord::new(mesh.width() - 1 - coord.x, coord.y))
                .expect("mirror stays inside")
        })).expect("mirror is injective");
        let mirrored_e = cdcg_dynamic_energy(&cdcg, &mesh, &mirrored, &tech).picojoules();
        prop_assert!((base - mirrored_e).abs() < 1e-6);
    }

    /// The total energy is monotone in texec: adding leakage never
    /// reduces energy, and the breakdown always sums to the total.
    #[test]
    fn energy_breakdown_consistency((cdcg, mesh) in app_and_mesh(), seed in any::<u64>()) {
        let mapping = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let params = SimParams::new();
        for tech in [Technology::t035(), Technology::t007()] {
            let eval = evaluate_cdcm(&cdcg, &mesh, &mapping, &tech, &params).expect("evaluates");
            let total = eval.breakdown.total().picojoules();
            let sum = eval.breakdown.dynamic.picojoules()
                + eval.breakdown.static_energy.picojoules();
            prop_assert!((total - sum).abs() < 1e-9);
            prop_assert!(eval.breakdown.static_energy.picojoules() >= 0.0);
            prop_assert!(total >= eval.breakdown.dynamic.picojoules());
        }
    }

    /// Swapping tiles twice restores a mapping (search moves are sound).
    #[test]
    fn tile_swaps_are_involutive(
        (_, mesh) in app_and_mesh(),
        seed in any::<u64>(),
        a in 0usize..20,
        b in 0usize..20,
    ) {
        let cores = (mesh.tile_count() / 2).max(1);
        let mut mapping = permuted_mapping(&mesh, cores, seed);
        let orig = mapping.clone();
        let a = TileId::new(a % mesh.tile_count());
        let b = TileId::new(b % mesh.tile_count());
        mapping.swap_tiles(a, b);
        mapping.validate().expect("still injective");
        mapping.swap_tiles(a, b);
        prop_assert_eq!(mapping, orig);
    }


    /// Torus routes are never longer than mesh routes and never exceed
    /// the torus diameter.
    #[test]
    fn torus_routes_are_short((_, mesh) in app_and_mesh(), a in 0usize..20, b in 0usize..20) {
        let a = TileId::new(a % mesh.tile_count());
        let b = TileId::new(b % mesh.tile_count());
        let torus = TorusXyRouting.route(&mesh, a, b);
        let straight = XyRouting.route(&mesh, a, b);
        prop_assert!(torus.router_count() <= straight.router_count());
        let diameter = mesh.width() / 2 + mesh.height() / 2;
        prop_assert!(torus.router_count() <= diameter + 1);
        prop_assert_eq!(torus.source(), a);
        prop_assert_eq!(torus.destination(), b);
    }

    /// Constrained random mappings always honour their pins and stay
    /// injective.
    #[test]
    fn constrained_mappings_honour_pins(
        (cdcg, mesh) in app_and_mesh(),
        pin_tile in 0usize..20,
        seed in any::<u64>(),
    ) {
        use noc::mapping::Constraints;
        use rand::SeedableRng;
        let cores = cdcg.core_count();
        let tile = TileId::new(pin_tile % mesh.tile_count());
        let pins = Constraints::new()
            .pin(noc::model::CoreId::new(0), tile)
            .expect("single pin never conflicts");
        prop_assume!(pins.validate(&mesh, cores).is_ok());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = pins.random_mapping(&mesh, cores, &mut rng);
        m.validate().expect("injective");
        prop_assert!(pins.satisfied_by(&m));
    }

    /// Time-dilation invariance: multiplying every computation time and
    /// both per-hop latencies (`tr`, `tl`) by k — while keeping flit
    /// counts fixed — multiplies every event time by exactly k. The
    /// model has no hidden absolute constants.
    #[test]
    fn schedule_times_scale_linearly(k in 1u64..6) {
        let scaled = with_comp_scaled(&noc::apps::paper_example::figure1_cdcg(), k);
        let mesh = noc::apps::paper_example::mesh_2x2();
        let mapping = noc::apps::paper_example::mapping_c();
        let params = SimParams {
            routing_cycles: 2 * k,
            link_cycles: k,
            ..SimParams::paper_example()
        };
        let sched = schedule(&scaled, &mesh, &mapping, &params).expect("schedules");
        prop_assert_eq!(sched.texec_cycles(), 100 * k);
    }

    /// The cost-only fast path (`schedule_cost` / `CdcmCostEvaluator`)
    /// matches the full `Schedule` bit-exactly: same `texec` cycles, same
    /// Equation 10 picojoules, on random CDCGs, meshes and mappings under
    /// both parameter presets.
    #[test]
    fn cost_fast_path_matches_full_schedule((cdcg, mesh) in app_and_mesh(), seed in any::<u64>()) {
        let mapping = permuted_mapping(&mesh, cdcg.core_count(), seed);
        for params in [SimParams::new(), SimParams::paper_example()] {
            let sched = schedule(&cdcg, &mesh, &mapping, &params).expect("schedules");
            let mut texec_eval = noc::sim::CostEvaluator::new(&cdcg, &mesh, &params);
            prop_assert_eq!(
                texec_eval.texec_cycles(&mapping).expect("fast path schedules"),
                sched.texec_cycles()
            );
            for tech in [Technology::t035(), Technology::t007()] {
                let full = evaluate_cdcm(&cdcg, &mesh, &mapping, &tech, &params)
                    .expect("evaluates");
                let mut fast =
                    noc::energy::CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params);
                let cost = fast.evaluate(&mapping).expect("fast path evaluates");
                // Bit-exact, not approximately equal.
                prop_assert_eq!(cost.objective_pj, full.objective_pj());
                prop_assert_eq!(cost.texec_cycles, full.texec_cycles);
                prop_assert_eq!(cost.texec_ns, full.texec_ns);
                prop_assert_eq!(cost.dynamic_pj, full.breakdown.dynamic.picojoules());
                prop_assert_eq!(cost.static_pj, full.breakdown.static_energy.picojoules());
            }
        }
        // Computation stretched 1,500×: injections wait past the cost
        // engine's 1,024-cycle event ring, in its overflow heap.
        let stretched = with_comp_scaled(&cdcg, 1_500);
        for params in [SimParams::new(), SimParams::paper_example()] {
            let sched = schedule(&stretched, &mesh, &mapping, &params).expect("schedules");
            let mut texec_eval = noc::sim::CostEvaluator::new(&stretched, &mesh, &params);
            prop_assert_eq!(
                texec_eval.texec_cycles(&mapping).expect("fast path schedules"),
                sched.texec_cycles()
            );
            let tech = Technology::t007();
            let full =
                evaluate_cdcm(&stretched, &mesh, &mapping, &tech, &params).expect("evaluates");
            let cost = noc::energy::CdcmCostEvaluator::new(&stretched, &mesh, &tech, &params)
                .evaluate(&mapping)
                .expect("fast path evaluates");
            prop_assert_eq!(cost.objective_pj, full.objective_pj());
        }
    }

    /// Parallel multi-start SA is deterministic for a fixed seed set and
    /// never loses to its own first restart.
    #[test]
    fn multistart_sa_is_deterministic((cdcg, mesh) in app_and_mesh(), seed in any::<u64>()) {
        use noc::mapping::{anneal, anneal_multistart, CdcmObjective, SaConfig};
        let tech = Technology::t007();
        let params = SimParams::new();
        let objective = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        let mut config = SaConfig::quick(seed);
        config.max_evaluations = 600;
        let a = anneal_multistart(&objective, &mesh, cdcg.core_count(), &config, 3);
        let b = anneal_multistart(&objective, &mesh, cdcg.core_count(), &config, 3);
        prop_assert_eq!(&a.mapping, &b.mapping);
        prop_assert_eq!(a.cost, b.cost);
        prop_assert_eq!(a.evaluations, b.evaluations);
        let first_restart = anneal(&objective, &mesh, cdcg.core_count(), &config);
        prop_assert!(a.cost <= first_restart.cost);
    }

    /// CWM's hop-cache swap delta agrees with a full recompute for every
    /// random instance and move.
    #[test]
    fn cwm_swap_delta_matches_full_recompute(
        (cdcg, mesh) in app_and_mesh(),
        seed in any::<u64>(),
        a in 0usize..20,
        b in 0usize..20,
    ) {
        use noc::mapping::{CostFunction, CwmObjective, SwapDeltaCost};
        let cwg = cdcg.to_cwg();
        let tech = Technology::t007();
        let objective = CwmObjective::new(&cwg, &mesh, &tech);
        let mapping = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let a = TileId::new(a % mesh.tile_count());
        let b = TileId::new(b % mesh.tile_count());
        let delta = objective.swap_delta(&mapping, a, b);
        let mut swapped = mapping.clone();
        swapped.swap_tiles(a, b);
        let full = objective.cost(&swapped) - objective.cost(&mapping);
        prop_assert!(
            (delta - full).abs() < 1e-9,
            "swap {}-{}: delta {} vs full {}", a, b, delta, full
        );
    }

    /// The TGFF generator hits its calibration targets for arbitrary
    /// feasible inputs.
    #[test]
    fn tgff_calibration_is_exact(
        cores in 2usize..12,
        packets in 1usize..60,
        extra_bits in 0u64..50_000,
        seed in any::<u64>(),
    ) {
        let total = packets as u64 + extra_bits;
        let cdcg = noc::apps::generate(&TgffConfig::new(cores, packets, total, seed));
        prop_assert_eq!(cdcg.core_count(), cores);
        prop_assert_eq!(cdcg.packet_count(), packets);
        prop_assert_eq!(cdcg.total_volume(), total);
        cdcg.validate().expect("valid CDCG");
    }
}
