//! Ablation: mesh vs torus topology ("other NoC topologies can be
//! equally treated", paper §3.1).
//!
//! Maps each small benchmark with the CDCM strategy under mesh-XY and
//! torus-XY routing and compares execution time and energy. Wrap links
//! shorten paths (lower dynamic energy per bit) and spread load, at the
//! cost of longer physical wires in a real layout (not modelled).
//!
//! Both configurations run on the routing-generic fast path: the
//! explorer caches the routing function's routes once per mesh and the
//! search evaluates swaps incrementally over them — no per-evaluation
//! route derivation, and no silent fall-back to XY.
//!
//! Usage: `cargo run --release -p noc-bench --bin ablation_topology`

use noc_apps::table1_suite;
use noc_bench::{write_record, TextTable};
use noc_energy::total::evaluate_cdcm_with;
use noc_energy::Technology;
use noc_mapping::{Explorer, SaConfig, SearchMethod, Strategy};
use noc_model::{RouteProvider, RoutingKind};
use noc_sim::SimParams;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Row {
    name: String,
    mesh_texec_ns: f64,
    torus_texec_ns: f64,
    mesh_energy_pj: f64,
    torus_energy_pj: f64,
}

fn main() {
    let params = SimParams::new();
    let tech = Technology::t007();
    let mut table = TextTable::new([
        "benchmark",
        "mesh texec",
        "torus texec",
        "mesh ENoC",
        "torus ENoC",
    ]);
    let mut rows = Vec::new();
    for bench in table1_suite().iter().take(9) {
        let mut results = Vec::new();
        for kind in [RoutingKind::Xy, RoutingKind::TorusXy] {
            let routing = kind.algorithm();
            let routes = Arc::new(RouteProvider::auto(&bench.mesh, kind));
            let explorer =
                Explorer::with_provider(&bench.cdcg, bench.mesh, tech.clone(), params, routes);
            let outcome = explorer.explore(
                Strategy::Cdcm,
                SearchMethod::SimulatedAnnealing(SaConfig::quick(23)),
            );
            let eval = evaluate_cdcm_with(
                &bench.cdcg,
                &bench.mesh,
                &outcome.mapping,
                &tech,
                &params,
                routing,
            )
            .expect("suite evaluates");
            assert_eq!(
                outcome.cost,
                eval.objective_pj(),
                "cached {} objective must match the explicit-routing evaluation",
                routing.name()
            );
            results.push((eval.texec_ns, eval.objective_pj()));
        }
        table.row([
            bench.spec.name.to_owned(),
            format!("{:.0} ns", results[0].0),
            format!("{:.0} ns", results[1].0),
            format!("{:.1} pJ", results[0].1),
            format!("{:.1} pJ", results[1].1),
        ]);
        rows.push(Row {
            name: bench.spec.name.to_owned(),
            mesh_texec_ns: results[0].0,
            torus_texec_ns: results[1].0,
            mesh_energy_pj: results[0].1,
            torus_energy_pj: results[1].1,
        });
    }
    println!("Topology ablation — CDCM mapping under mesh-XY vs torus-XY routing:");
    println!("{}", table.render());
    println!(
        "wrap links shorten paths, so torus rows should trend faster/cheaper \
         (physical wire length of wrap channels is not modelled)."
    );
    let path = write_record("ablation_topology", &rows);
    eprintln!("record written to {}", path.display());
}
