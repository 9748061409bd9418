//! Integration tests for the beyond-the-paper extensions: synthetic
//! traffic patterns, pinned-core constraints, torus routing and the
//! Pareto front, wired through the full stack.

use noc::apps::{synthetic, SyntheticConfig, TrafficPattern};
use noc::energy::Technology;
use noc::mapping::{
    anneal_cancellable, exhaustive, exhaustive_constrained, pareto_front, CancelToken,
    CdcmObjective, Constraints, CostFunction, SaConfig,
};
use noc::model::{CoreId, Mesh, RoutingAlgorithm, TileId, TorusXyRouting, XyRouting};
use noc::prelude::Mapping;
use noc::sim::{schedule, schedule_with, SimParams};

#[test]
fn transpose_traffic_maps_and_schedules() {
    let app = synthetic(&SyntheticConfig::new(
        9,
        TrafficPattern::Transpose { side: 3 },
    ));
    let mesh = Mesh::new(3, 3).unwrap();
    let params = SimParams::new();
    let tech = Technology::t007();
    let obj = CdcmObjective::new(&app, &mesh, &tech, params);
    // The identity placement (core (r,c) on tile (r,c)) makes transpose
    // traffic symmetric; any search result must be at least as good.
    let identity = Mapping::identity(&mesh, 9).unwrap();
    let identity_cost = obj.cost(&identity);
    let best = noc::mapping::anneal(&obj, &mesh, 9, &SaConfig::quick(3));
    assert!(best.cost <= identity_cost + 1e-9);
}

#[test]
fn hotspot_traffic_centralizes_the_hotspot() {
    // With everyone sending to core 0, the exhaustively-optimal CWM
    // placement puts core 0 on a central tile of a 3x3 (minimum total
    // distance to all others).
    let app = synthetic(&SyntheticConfig::new(
        9,
        TrafficPattern::Hotspot { hotspot: 0 },
    ));
    let cwg = app.to_cwg();
    let mesh = Mesh::new(3, 3).unwrap();
    let tech = Technology::t007();
    let obj = noc::mapping::CwmObjective::new(&cwg, &mesh, &tech);
    let best = exhaustive(&obj, &mesh, 9);
    let hot_tile = best.mapping.tile_of(CoreId::new(0));
    assert_eq!(
        mesh.coord(hot_tile),
        noc::model::Coord::new(1, 1),
        "hotspot must sit on the centre tile"
    );
}

#[test]
fn constrained_search_respects_pins_through_the_full_stack() {
    let app = synthetic(&SyntheticConfig::new(6, TrafficPattern::Complement));
    let mesh = Mesh::new(3, 2).unwrap();
    let params = SimParams::new();
    let tech = Technology::t007();
    let obj = CdcmObjective::new(&app, &mesh, &tech, params);
    let pins = Constraints::new()
        .pin(CoreId::new(0), TileId::new(5))
        .unwrap()
        .pin(CoreId::new(5), TileId::new(0))
        .unwrap();

    let es = exhaustive_constrained(&obj, &mesh, 6, &pins);
    assert!(pins.satisfied_by(&es.mapping));
    assert_eq!(es.evaluations, 24); // 4! placements of the free cores

    let sa = anneal_cancellable(
        &obj,
        &mesh,
        6,
        Some(&pins),
        &SaConfig::quick(4),
        &CancelToken::new(),
    );
    assert!(pins.satisfied_by(&sa.mapping));
    assert!(sa.cost >= es.cost - 1e-9);

    // The schedule of the constrained winner is a real schedule.
    let sched = schedule(&app, &mesh, &es.mapping, &params).unwrap();
    assert!(sched.texec_cycles() > 0);
}

#[test]
fn torus_routing_shortens_border_to_border_traffic() {
    // Complement traffic on a 1x6 ring: under mesh routing the extremes
    // are 5 hops apart, on the torus only 1.
    let app = synthetic(&SyntheticConfig::new(6, TrafficPattern::Complement));
    let mesh = Mesh::new(6, 1).unwrap();
    let mapping = Mapping::identity(&mesh, 6).unwrap();
    let params = SimParams::new();
    let mesh_sched = schedule_with(&app, &mesh, &mapping, &params, &XyRouting).unwrap();
    let torus_sched = schedule_with(&app, &mesh, &mapping, &params, &TorusXyRouting).unwrap();
    assert!(
        torus_sched.texec_cycles() < mesh_sched.texec_cycles(),
        "wrap links must help: {} vs {}",
        torus_sched.texec_cycles(),
        mesh_sched.texec_cycles()
    );
}

#[test]
fn pareto_front_brackets_the_single_objective_optima() {
    let app = synthetic(&SyntheticConfig::new(4, TrafficPattern::Complement));
    let mesh = Mesh::new(2, 2).unwrap();
    let params = SimParams::new();
    let tech = Technology::t035();
    let front = pareto_front(&app, &mesh, &tech, &params, 5, &SaConfig::quick(7)).unwrap();
    assert!(!front.is_empty());
    // The exhaustive energy optimum is a lower bound for every front
    // point's energy.
    let obj = CdcmObjective::new(&app, &mesh, &tech, params);
    let energy_opt = exhaustive(&obj, &mesh, 4);
    for p in &front {
        assert!(p.energy_pj >= energy_opt.cost - 1e-6);
    }
}

#[test]
fn synthetic_patterns_cross_validate_against_the_des() {
    // The DES needs serialized injection.
    let params = SimParams {
        injection_serialization: true,
        ..SimParams::new()
    };
    for pattern in [
        TrafficPattern::Complement,
        TrafficPattern::Hotspot { hotspot: 1 },
        TrafficPattern::UniformRoundRobin,
    ] {
        let app = synthetic(&SyntheticConfig::new(6, pattern));
        let mesh = Mesh::new(3, 2).unwrap();
        let mapping = Mapping::identity(&mesh, 6).unwrap();
        let sched = schedule(&app, &mesh, &mapping, &params).unwrap();
        let des = noc::sim::des::simulate(
            &app,
            &mesh,
            &mapping,
            &noc::sim::des::DesParams::new(params),
        )
        .unwrap();
        assert_eq!(
            des.texec_cycles,
            sched.texec_cycles(),
            "{pattern:?} must cross-validate"
        );
    }
}

#[test]
fn torus_equals_mesh_when_no_wrap_is_shorter() {
    let mesh = Mesh::new(3, 3).unwrap();
    for src in mesh.tiles() {
        let near = TileId::new(4); // centre
        let torus = TorusXyRouting.route(&mesh, src, near);
        let straight = XyRouting.route(&mesh, src, near);
        // To the centre of a 3x3 no wrap can be shorter.
        assert_eq!(torus.router_count(), straight.router_count());
    }
}
