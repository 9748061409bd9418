//! CI smoke test and honest-numbers run for the fault-tolerance stack.
//!
//! Three stages:
//!
//! * **Zero-fault gate** — the fault-aware route tier with an empty
//!   `FaultSet` must be bit-identical to the implicit tier: same
//!   `schedule_cost`, same CDCM cost, and the exact same seed-pinned
//!   delta-SA trajectory. Any divergence here means the "fast path"
//!   stopped being the healthy dimension-order walk.
//! * **Pinned recovery run** — a fixed k=2 link-failure scenario on a
//!   Table 1–shaped instance: degradation must be nonnegative, recovery
//!   must not exceed the degraded cost, and the whole report must be
//!   reproducible bit-for-bit from the same seed.
//! * **Instance sweep** — `remap_after_faults` on paper-suite rows and
//!   the 64×64 shift workload; the reports are written to
//!   `target/experiments/fault_smoke.json`.
//!
//! Usage: `cargo run --release -p noc-bench --bin fault_smoke`

use noc_bench::{write_record, TextTable};
use noc_energy::Technology;
use noc_mapping::{anneal_delta, remap_after_faults, CdcmObjective, RemapReport, SaConfig};
use noc_model::{FaultScenario, FaultSet, Mapping, Mesh, RouteProvider, RoutingKind};
use noc_sim::{schedule_cost_with, ScheduleScratch, SimParams};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct InstanceRecord {
    name: String,
    mesh: String,
    cores: usize,
    scenario: String,
    report: RemapReport,
}

#[derive(Serialize)]
struct Record {
    zero_fault_gate: &'static str,
    instances: Vec<InstanceRecord>,
}

/// Stage 1: empty fault set == healthy tiers, bitwise.
fn zero_fault_gate() {
    let mesh = Mesh::new(8, 8).expect("valid mesh");
    let cdcg = noc_apps::generate(&noc_apps::TgffConfig::new(24, 60, 64 * 60, 19));
    let tech = Technology::t007();
    let params = SimParams::new();
    let mapping = Mapping::identity(&mesh, 24).expect("cores fit");
    let mut scratch = ScheduleScratch::new();

    let implicit = RouteProvider::implicit(&mesh, RoutingKind::Xy);
    let fault = RouteProvider::fault_aware(&mesh, RoutingKind::Xy, FaultSet::new());
    let want = schedule_cost_with(&cdcg, &mesh, &mapping, &params, &implicit, &mut scratch)
        .expect("schedules");
    let got = schedule_cost_with(&cdcg, &mesh, &mapping, &params, &fault, &mut scratch)
        .expect("schedules");
    assert_eq!(got, want, "zero-fault schedule_cost must be bit-identical");

    let mut config = SaConfig::quick(29);
    config.max_evaluations = 300;
    let outcomes: Vec<_> = [
        RouteProvider::implicit(&mesh, RoutingKind::Xy),
        RouteProvider::fault_aware(&mesh, RoutingKind::Xy, FaultSet::new()),
    ]
    .into_iter()
    .map(|provider| {
        let objective = CdcmObjective::with_provider(&cdcg, &tech, params, Arc::new(provider));
        anneal_delta(&objective, &mesh, cdcg.core_count(), &config)
    })
    .collect();
    assert_eq!(
        outcomes[0].mapping, outcomes[1].mapping,
        "zero-fault SA trajectories must be identical"
    );
    assert_eq!(outcomes[0].cost, outcomes[1].cost);
    assert_eq!(outcomes[0].evaluations, outcomes[1].evaluations);
    println!(
        "zero-fault gate: OK (schedule_cost {want}, SA cost {:.1} pJ)",
        outcomes[0].cost
    );
}

/// One fault-injection experiment: short SA for an incumbent, then the
/// budgeted remap. Deterministic throughout.
fn run_instance(
    name: &str,
    cdcg: &noc_model::Cdcg,
    mesh: Mesh,
    scenario: FaultScenario,
    incumbent_evals: u64,
    remap_budget: u64,
) -> InstanceRecord {
    let tech = Technology::t007();
    let params = SimParams::new();
    let healthy = Arc::new(RouteProvider::auto(&mesh, RoutingKind::Xy));
    let objective = CdcmObjective::with_provider(cdcg, &tech, params, Arc::clone(&healthy));
    let mut config = SaConfig::quick(41);
    config.max_evaluations = incumbent_evals;
    let incumbent = anneal_delta(&objective, &mesh, cdcg.core_count(), &config).mapping;
    let report = remap_after_faults(
        cdcg,
        &tech,
        params,
        &healthy,
        scenario.generate(&mesh),
        &incumbent,
        remap_budget,
        41,
    );
    InstanceRecord {
        name: name.to_owned(),
        mesh: format!("{}x{}", mesh.width(), mesh.height()),
        cores: cdcg.core_count(),
        scenario: format!("{scenario:?}"),
        report,
    }
}

fn main() {
    zero_fault_gate();

    // Stage 2: the pinned k=2 recovery run (a CI determinism gate, not
    // just a report): two physical link failures, 4 dead channels.
    let pinned = FaultScenario::RandomLinks { count: 2, seed: 7 };
    let bench = noc_apps::table1_suite()
        .into_iter()
        .find(|b| b.spec.group == "3x3")
        .expect("the suite has 3x3 rows");
    let first = run_instance(
        bench.spec.name,
        &bench.cdcg,
        bench.mesh,
        pinned,
        2_000,
        10_000,
    );
    let again = run_instance(
        bench.spec.name,
        &bench.cdcg,
        bench.mesh,
        pinned,
        2_000,
        10_000,
    );
    assert_eq!(
        first.report, again.report,
        "pinned recovery run must be deterministic"
    );
    assert_eq!(first.report.dead_links, 4);
    assert!(
        !first.report.partitioned,
        "k=2 must not partition a 3x3 mesh"
    );
    assert!(
        first.report.degraded_cost >= first.report.baseline_cost,
        "detours cannot reduce cost"
    );
    assert!(first.report.recovered_cost <= first.report.degraded_cost);
    println!(
        "pinned k=2 recovery [{}]: baseline {:.1} -> degraded {:.1} -> recovered {:.1} pJ",
        first.name,
        first.report.baseline_cost,
        first.report.degraded_cost,
        first.report.recovered_cost
    );

    // Stage 3: the instance sweep behind `fault_smoke.json`.
    let mut instances = vec![first];
    for group in ["2x4", "8x8"] {
        let bench = noc_apps::table1_suite()
            .into_iter()
            .find(|b| b.spec.group == group)
            .expect("the suite covers all published NoC sizes");
        instances.push(run_instance(
            bench.spec.name,
            &bench.cdcg,
            bench.mesh,
            pinned,
            2_000,
            10_000,
        ));
    }
    let mesh64 = Mesh::new(64, 64).expect("valid mesh");
    let shift = noc_apps::large_mesh_workload(64, 64, 1);
    instances.push(run_instance(
        "shift-64x64",
        &shift,
        mesh64,
        FaultScenario::RandomLinks { count: 2, seed: 7 },
        500,
        2_000,
    ));

    let mut table = TextTable::new([
        "instance",
        "mesh",
        "dead",
        "baseline pJ",
        "degraded pJ",
        "recovered pJ",
        "recovery",
    ]);
    for inst in &instances {
        let r = &inst.report;
        table.row([
            inst.name.clone(),
            inst.mesh.clone(),
            r.dead_links.to_string(),
            format!("{:.1}", r.baseline_cost),
            format!("{:.1}", r.degraded_cost),
            format!("{:.1}", r.recovered_cost),
            format!("{:.4}", r.recovery_ratio),
        ]);
        assert!(r.degraded_cost >= r.baseline_cost);
        assert!(r.recovered_cost <= r.degraded_cost);
    }
    print!("{}", table.render());

    let path = write_record(
        "fault_smoke",
        &Record {
            zero_fault_gate: "bit-identical (schedule_cost, CDCM SA trajectory)",
            instances,
        },
    );
    println!("record: {}", path.display());
    println!("fault smoke: OK");
}
