//! Large-mesh route-provisioning bench and CI smoke test.
//!
//! Exercises the mesh sizes the dense `RouteCache` cannot represent:
//!
//! * asserts the dense tier *refuses* a 64×64 mesh with a typed error
//!   (no panic) and that the automatic tier choice avoids it, so no
//!   dense cache is ever built at this scale;
//! * runs a short CDCM simulated-annealing search on the 64×64
//!   mesh-filling shift workload over the implicit tier, once with the
//!   walk memo on and once with it off, and asserts the two walk the
//!   exact same trajectory;
//! * times plain cost evaluations at 64×64 and 128×128.
//!
//! Usage: `cargo run --release -p noc-bench --bin large_mesh`

use noc_energy::Technology;
use noc_mapping::{anneal_delta, CdcmObjective, SaConfig};
use noc_model::{Mapping, Mesh, RouteProvider, RouteTier, RoutingKind};
use noc_sim::{schedule_cost_with, ScheduleScratch, SimParams};
use std::sync::Arc;
use std::time::Instant;

fn eval_ns_per_call(mesh: &Mesh, provider: &RouteProvider, evals: u32) -> f64 {
    let cdcg = noc_apps::large_mesh_workload(mesh.width(), mesh.height(), 1);
    let params = SimParams::new();
    let mapping = Mapping::identity(mesh, cdcg.core_count()).expect("cores fit");
    let mut scratch = ScheduleScratch::new();
    // Warm-up sizes the scratch.
    let warm = schedule_cost_with(&cdcg, mesh, &mapping, &params, provider, &mut scratch)
        .expect("schedules at scale");
    assert!(warm > 0);
    let start = Instant::now();
    for _ in 0..evals {
        let texec = schedule_cost_with(&cdcg, mesh, &mapping, &params, provider, &mut scratch)
            .expect("schedules at scale");
        assert_eq!(texec, warm, "cost evaluation must be deterministic");
    }
    start.elapsed().as_nanos() as f64 / f64::from(evals)
}

fn main() {
    // 1. No dense cache at 64×64: typed refusal + automatic fallback.
    let mesh64 = Mesh::new(64, 64).expect("valid mesh");
    assert!(
        matches!(
            RouteProvider::dense(&mesh64, RoutingKind::Xy),
            Err(noc_model::ModelError::RouteCacheTooLarge { .. })
        ),
        "dense tier must refuse a 64x64 mesh with a typed error"
    );
    let auto = RouteProvider::auto(&mesh64, RoutingKind::Xy);
    assert_ne!(
        auto.tier(),
        RouteTier::Dense,
        "auto tier must not build a dense cache on a 64x64 mesh"
    );
    println!("64x64 auto tier: {}", auto.tier().name());

    // 2. CDCM SA at 64×64 with the walk memo on and off: identical
    //    trajectories.
    let cdcg = noc_apps::large_mesh_workload(64, 64, 1);
    let tech = Technology::t007();
    let params = SimParams::new();
    let mut config = SaConfig::quick(5);
    config.max_evaluations = 150;
    let mut outcomes = Vec::new();
    for memo in [true, false] {
        let provider = Arc::new(RouteProvider::implicit(&mesh64, RoutingKind::Xy));
        let objective = CdcmObjective::with_provider(&cdcg, &tech, params, provider);
        objective.set_walk_memo(memo);
        let start = Instant::now();
        let outcome = anneal_delta(&objective, &mesh64, cdcg.core_count(), &config);
        let elapsed = start.elapsed();
        println!(
            "64x64 CDCM SA [implicit, memo {}]: {:.1} pJ in {} evals, {:.0} us/eval",
            if memo { "on" } else { "off" },
            outcome.cost,
            outcome.evaluations,
            elapsed.as_micros() as f64 / outcome.evaluations as f64,
        );
        outcomes.push(outcome);
    }
    assert_eq!(
        outcomes[0].mapping, outcomes[1].mapping,
        "the walk memo must not change the SA trajectory"
    );
    assert_eq!(outcomes[0].cost, outcomes[1].cost);

    // 3. Plain cost-evaluation throughput per mesh size.
    for (w, h, evals) in [(64usize, 64usize, 5u32), (128, 128, 3)] {
        let mesh = Mesh::new(w, h).expect("valid mesh");
        let provider = RouteProvider::implicit(&mesh, RoutingKind::Xy);
        let ns = eval_ns_per_call(&mesh, &provider, evals);
        println!("{w}x{h} schedule_cost [implicit]: {:.2} ms/eval", ns / 1e6);
    }

    println!("large-mesh smoke: OK");
}
