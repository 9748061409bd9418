//! Equal-budget comparison of the search portfolio: static multi-start
//! SA vs adaptive restarts vs the genetic algorithm vs tabu search, on
//! the paper suite (Table 1 rows) and a 64×64 mesh-filling shift
//! workload.
//!
//! Every method spends the same total evaluation budget under the CDCM
//! objective, so the comparison is search *policy*, not evaluation
//! count. Results are printed as a table (losses included) and
//! recorded under `target/experiments/search_portfolio.json`.
//!
//! Usage: `cargo run --release -p noc-bench --bin search_portfolio`

use noc_bench::{write_record, TextTable};
use noc_energy::Technology;
use noc_mapping::{
    AdaptiveConfig, AdaptiveRestarts, CdcmObjective, GaConfig, GeneticSearch, MultiStartSa,
    RestartBudget, SaConfig, SearchStrategy, TabuConfig, TabuSearch,
};
use noc_model::{Cdcg, Mesh, RouteProvider, RoutingKind};
use noc_sim::SimParams;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct MethodRecord {
    method: String,
    cost_pj: f64,
    evaluations: u64,
    elapsed_s: f64,
}

#[derive(Serialize)]
struct InstanceRecord {
    instance: String,
    mesh: String,
    cores: usize,
    packets: usize,
    budget: u64,
    methods: Vec<MethodRecord>,
}

fn compare(
    name: &str,
    cdcg: &Cdcg,
    mesh: &Mesh,
    budget: u64,
    seed: u64,
    table: &mut TextTable,
) -> InstanceRecord {
    let tech = Technology::t007();
    let params = SimParams::new();
    let provider = Arc::new(RouteProvider::auto(mesh, RoutingKind::Xy));
    let objective = CdcmObjective::with_provider(cdcg, &tech, params, Arc::clone(&provider));
    let cores = cdcg.core_count();

    let runs = [
        MultiStartSa {
            config: SaConfig {
                max_evaluations: budget,
                ..SaConfig::new(seed)
            },
            restarts: 8,
            budget: RestartBudget::Total,
        }
        .search(&objective, mesh, cores),
        AdaptiveRestarts::new(AdaptiveConfig {
            budget,
            ..AdaptiveConfig::new(seed)
        })
        .search(&objective, mesh, cores),
        GeneticSearch::new(GaConfig {
            budget,
            ..GaConfig::new(seed)
        })
        .search(&objective, mesh, cores),
        TabuSearch::new(TabuConfig {
            budget,
            ..TabuConfig::new(seed)
        })
        .search(&objective, mesh, cores),
    ];

    let best = runs
        .iter()
        .map(|r| r.outcome.cost)
        .fold(f64::INFINITY, f64::min);
    let mut methods = Vec::new();
    for run in &runs {
        let o = &run.outcome;
        table.row([
            name.to_owned(),
            o.method.clone(),
            format!("{:.1}", o.cost),
            if o.cost <= best {
                "*".into()
            } else {
                String::new()
            },
            o.evaluations.to_string(),
            format!("{:.2}", o.elapsed.as_secs_f64()),
        ]);
        methods.push(MethodRecord {
            method: o.method.clone(),
            cost_pj: o.cost,
            evaluations: o.evaluations,
            elapsed_s: o.elapsed.as_secs_f64(),
        });
    }
    InstanceRecord {
        instance: name.to_owned(),
        mesh: format!("{}x{}", mesh.width(), mesh.height()),
        cores,
        packets: cdcg.packet_count(),
        budget,
        methods,
    }
}

fn main() {
    let mut table = TextTable::new(["instance", "method", "cost pJ", "", "evals", "s"]);
    let mut records = Vec::new();

    // Paper suite: one row per mesh-size group of Table 1.
    for (row, budget) in [(2usize, 4000u64), (8, 4000), (14, 4000)] {
        let spec = noc_apps::TABLE1_ROWS[row];
        let bench = noc_apps::Benchmark::from_spec(spec);
        records.push(compare(
            spec.name,
            &bench.cdcg,
            &bench.mesh,
            budget,
            7,
            &mut table,
        ));
    }

    // Large mesh: 64×64 shift workload on the implicit route tier.
    let mesh = Mesh::new(64, 64).expect("valid mesh");
    let cdcg = noc_apps::large_mesh_workload(64, 64, 1);
    records.push(compare("shift-64x64", &cdcg, &mesh, 400, 7, &mut table));

    println!("{}", table.render());
    let path = write_record("search_portfolio", &records);
    println!("record: {}", path.display());
}
