//! Exhaustive ETR bounds for the small benchmarks.
//!
//! For every 3x2 / 2x4 row this certifies, by full enumeration: the
//! texec of the CWM optimum, of the CDCM optimum, and of the true
//! texec-optimal mapping. The gap between the first and the last is the
//! *entire timing slack the workload offers*; `cdcmETR` shows how much
//! of it the CDCM objective captures (on these instances: all of it).
//! This is the ground truth behind the Table 2 magnitudes; the rows are
//! written to `target/experiments/etr_bounds.json`.
//!
//! Usage: `cargo run --release -p noc-bench --bin etr_bounds`

use noc_apps::table1_suite;
use noc_energy::{evaluate_cdcm, Technology};
use noc_mapping::{exhaustive, CdcmObjective, CwmObjective, ExecTimeObjective};
use noc_sim::SimParams;

#[derive(serde::Serialize)]
struct Row {
    name: String,
    texec_cwm_opt: f64,
    texec_cdcm_opt: f64,
    texec_min: f64,
    max_etr: f64,
    cdcm_etr: f64,
    static_share: f64,
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    let params = SimParams::new();
    let t007 = Technology::t007();
    println!("bench        texecCWM  texecCDCM  texecMIN  maxETR  cdcmETR  staticShare");
    for bench in table1_suite().iter().take(6) {
        let cwg = bench.cdcg.to_cwg();
        let cores = bench.cdcg.core_count();
        let cwm_obj = CwmObjective::new(&cwg, &bench.mesh, &t007);
        let cdcm_obj = CdcmObjective::new(&bench.cdcg, &bench.mesh, &t007, params);
        let time_obj = ExecTimeObjective::new(&bench.cdcg, &bench.mesh, params);

        let es_cwm = exhaustive(&cwm_obj, &bench.mesh, cores);
        let es_cdcm = exhaustive(&cdcm_obj, &bench.mesh, cores);
        let es_time = exhaustive(&time_obj, &bench.mesh, cores);

        let t_of = |m: &noc_model::Mapping| {
            noc_sim::schedule(&bench.cdcg, &bench.mesh, m, &params)
                .unwrap()
                .texec_ns()
        };
        let t_cwm = t_of(&es_cwm.mapping);
        let t_cdcm = t_of(&es_cdcm.mapping);
        let t_min = t_of(&es_time.mapping);
        let share = evaluate_cdcm(&bench.cdcg, &bench.mesh, &es_cdcm.mapping, &t007, &params)
            .unwrap()
            .breakdown
            .static_share();
        println!(
            "{:12} {:9.0} {:9.0} {:9.0} {:6.1}% {:7.1}% {:8.1}%",
            bench.spec.name,
            t_cwm,
            t_cdcm,
            t_min,
            100.0 * (t_cwm - t_min) / t_cwm,
            100.0 * (t_cwm - t_cdcm) / t_cwm,
            100.0 * share,
        );
        rows.push(Row {
            name: bench.spec.name.to_owned(),
            texec_cwm_opt: t_cwm,
            texec_cdcm_opt: t_cdcm,
            texec_min: t_min,
            max_etr: (t_cwm - t_min) / t_cwm,
            cdcm_etr: (t_cwm - t_cdcm) / t_cwm,
            static_share: share,
        });
    }
    let path = noc_bench::write_record("etr_bounds", &rows);
    eprintln!("record written to {}", path.display());
}
