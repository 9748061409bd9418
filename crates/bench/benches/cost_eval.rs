//! Criterion bench E6: per-evaluation cost of the CWM vs CDCM objectives
//! as the NDP/NCC ratio grows (paper §5: CDCM's complexity is
//! proportional to NDP, CWM's to NCC, with CDCM staying within a small
//! factor), plus the full-`Schedule` vs cost-only fast-path comparison on
//! an 8×8 mesh workload (the evaluation-engine speedup).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_apps::TgffConfig;
use noc_energy::{evaluate_cdcm, Technology};
use noc_mapping::{CdcmObjective, CostFunction, CwmObjective};
use noc_model::{Mapping, Mesh};
use noc_sim::SimParams;

fn bench_cost_eval(c: &mut Criterion) {
    let mesh = Mesh::new(4, 4).expect("valid mesh");
    let tech = Technology::t007();
    let params = SimParams::new();
    let mut group = c.benchmark_group("cost_eval");

    for packets in [32usize, 128, 512] {
        let cdcg = noc_apps::generate(&TgffConfig::new(
            12,
            packets,
            64 * packets as u64,
            packets as u64,
        ));
        let cwg = cdcg.to_cwg();
        let mapping = Mapping::identity(&mesh, 12).expect("12 cores fit 16 tiles");

        let cwm = CwmObjective::new(&cwg, &mesh, &tech);
        group.bench_with_input(BenchmarkId::new("cwm", packets), &packets, |b, _| {
            b.iter(|| std::hint::black_box(cwm.cost(&mapping)))
        });

        // The objective now runs on the allocation-free fast path...
        let cdcm = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        group.bench_with_input(BenchmarkId::new("cdcm", packets), &packets, |b, _| {
            b.iter(|| std::hint::black_box(cdcm.cost(&mapping)))
        });

        // ...benchmarked against the full-`Schedule` evaluation it
        // replaced (same Equation 10 value, plus all the artifacts).
        group.bench_with_input(BenchmarkId::new("cdcm_full", packets), &packets, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    evaluate_cdcm(&cdcg, &mesh, &mapping, &tech, &params)
                        .expect("evaluates")
                        .objective_pj(),
                )
            })
        });
    }
    group.finish();

    // The acceptance workload: an 8x8 mesh with a deep CDCG.
    let mesh8 = Mesh::new(8, 8).expect("valid mesh");
    let cdcg = noc_apps::generate(&TgffConfig::new(48, 512, 64 * 512, 8));
    let mapping = Mapping::identity(&mesh8, 48).expect("48 cores fit 64 tiles");
    let mut group = c.benchmark_group("cost_eval_8x8");
    let cdcm = CdcmObjective::new(&cdcg, &mesh8, &tech, params);
    group.bench_function("fast", |b| {
        b.iter(|| std::hint::black_box(cdcm.cost(&mapping)))
    });
    group.bench_function("full", |b| {
        b.iter(|| {
            std::hint::black_box(
                evaluate_cdcm(&cdcg, &mesh8, &mapping, &tech, &params)
                    .expect("evaluates")
                    .objective_pj(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cost_eval);
criterion_main!(benches);
