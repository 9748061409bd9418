//! 3D-mesh route-provisioning bench and CI smoke test.
//!
//! The dimension-aware topology twin of the `large_mesh` smoke:
//!
//! * asserts 3D cost evaluation actually runs on the **implicit** tier
//!   (coordinate walks, per-tile-port closed-form numbering — no stored
//!   routes) for the layered-shift workload on a 4×4×4 and an 8×8×4
//!   mesh, under both 3D routing kinds;
//! * runs a short CDCM simulated-annealing search on the 4×4×4 cube
//!   over the dense and implicit tiers and asserts identical
//!   trajectories;
//! * asserts the TSV energy term is live: raising `EVbit` to `ELbit`
//!   changes the cube's CDCM objective (and leaves a planar mesh's
//!   untouched);
//! * times plain cost evaluations per mesh and kind.
//!
//! Usage: `cargo run --release -p noc-bench --bin mesh3d`

use noc_energy::{CdcmCostEvaluator, Technology};
use noc_mapping::{anneal_delta, CdcmObjective, SaConfig};
use noc_model::{Mapping, Mesh, RouteProvider, RouteSource, RouteTier, RoutingKind};
use noc_sim::{schedule_cost_with, ScheduleScratch, SimParams};
use std::sync::Arc;
use std::time::Instant;

fn eval_ns_per_call(mesh: &Mesh, provider: &RouteProvider, evals: u32) -> f64 {
    let cdcg = noc_apps::layered_shift_workload(mesh.width(), mesh.height(), mesh.depth(), 1);
    let params = SimParams::new();
    let mapping = Mapping::identity(mesh, cdcg.core_count()).expect("cores fit");
    let mut scratch = ScheduleScratch::new();
    let warm = schedule_cost_with(&cdcg, mesh, &mapping, &params, provider, &mut scratch)
        .expect("schedules in 3D");
    assert!(warm > 0);
    let start = Instant::now();
    for _ in 0..evals {
        let texec = schedule_cost_with(&cdcg, mesh, &mapping, &params, provider, &mut scratch)
            .expect("schedules in 3D");
        assert_eq!(texec, warm, "cost evaluation must be deterministic");
    }
    start.elapsed().as_nanos() as f64 / f64::from(evals)
}

fn main() {
    let params = SimParams::new();
    let tech = Technology::t007();

    // 1. CDCM SA on the 4×4×4 cube: dense vs implicit tier, identical
    //    trajectories (the cube is small enough to cross-check against
    //    the precomputed cache).
    let cube = Mesh::new3(4, 4, 4).expect("valid mesh");
    let cdcg = noc_apps::layered_shift_workload(4, 4, 4, 1);
    let mut config = SaConfig::quick(5);
    config.max_evaluations = 150;
    let mut outcomes = Vec::new();
    for provider in [
        RouteProvider::dense(&cube, RoutingKind::Xyz).expect("4x4x4 fits densely"),
        RouteProvider::implicit(&cube, RoutingKind::Xyz),
    ] {
        let tier = provider.tier();
        assert_eq!(RouteSource::mesh(&provider).depth(), 4);
        let objective = CdcmObjective::with_provider(&cdcg, &tech, params, Arc::new(provider));
        let start = Instant::now();
        let outcome = anneal_delta(&objective, &cube, cdcg.core_count(), &config);
        let elapsed = start.elapsed();
        println!(
            "4x4x4 CDCM SA [{}]: {:.1} pJ in {} evals, {:.0} us/eval",
            tier.name(),
            outcome.cost,
            outcome.evaluations,
            elapsed.as_micros() as f64 / outcome.evaluations as f64,
        );
        outcomes.push(outcome);
    }
    assert_eq!(
        outcomes[0].mapping, outcomes[1].mapping,
        "dense and implicit tiers must walk identical SA trajectories in 3D"
    );
    assert_eq!(outcomes[0].cost, outcomes[1].cost);

    // 2. The TSV term is live: pricing vertical links like planar wires
    //    must change the cube's objective for a layer-crossing mapping.
    let identity = Mapping::identity(&cube, cdcg.core_count()).expect("fits");
    let flat_tsv = tech
        .clone()
        .with_bit_energy(tech.bit_energy.with_vertical_link(tech.bit_energy.link_pj));
    let mut cheap = CdcmCostEvaluator::with_provider(
        &cdcg,
        &tech,
        &params,
        Arc::new(RouteProvider::implicit(&cube, RoutingKind::Xyz)),
    );
    let mut pricey = CdcmCostEvaluator::with_provider(
        &cdcg,
        &flat_tsv,
        &params,
        Arc::new(RouteProvider::implicit(&cube, RoutingKind::Xyz)),
    );
    let cheap_cost = cheap.evaluate(&identity).expect("evaluates");
    let pricey_cost = pricey.evaluate(&identity).expect("evaluates");
    assert!(
        cheap_cost.objective_pj < pricey_cost.objective_pj,
        "TSV hops must be charged EVbit, not ELbit: {} vs {}",
        cheap_cost.objective_pj,
        pricey_cost.objective_pj
    );
    println!(
        "4x4x4 TSV sensitivity: EVbit=0.015 -> {:.1} pJ, EVbit=ELbit -> {:.1} pJ",
        cheap_cost.objective_pj, pricey_cost.objective_pj
    );

    // 3. Per-eval timings on the implicit tier for the two acceptance
    //    workloads and both 3D kinds.
    for (w, h, d, evals) in [(4usize, 4usize, 4usize, 20u32), (8, 8, 4, 10)] {
        let mesh = Mesh::new3(w, h, d).expect("valid mesh");
        for kind in [RoutingKind::Xyz, RoutingKind::TorusXyz] {
            let provider = RouteProvider::implicit(&mesh, kind);
            assert!(
                provider.tier() != RouteTier::Dense,
                "the smoke must exercise the storage-free tier"
            );
            let ns = eval_ns_per_call(&mesh, &provider, evals);
            println!(
                "{w}x{h}x{d} schedule_cost [{} / implicit]: {:.1} us/eval",
                kind.name(),
                ns / 1e3
            );
        }
    }

    println!("mesh3d smoke: OK");
}
