//! Evaluation-engine acceptance benchmark.
//!
//! Measures (1) CDCM cost evaluation throughput, full-`Schedule` path vs
//! the allocation-free cost-only fast path, on an 8×8-mesh workload, and
//! (2) SA search wall-clock, single-start vs parallel multi-start at an
//! equal total evaluation budget. Verifies bit-exactness along the way
//! and writes the results to `BENCH_eval.json` at the repository root
//! (and under `target/experiments/`).
//!
//! Run with `cargo run --release -p noc-bench --bin eval_engine`.

use noc_apps::TgffConfig;
use noc_energy::{evaluate_cdcm, Technology};
use noc_mapping::{
    CdcmObjective, CostFunction, Explorer, RestartBudget, SaConfig, SearchMethod, Strategy,
};
use noc_model::{Mapping, Mesh};
use noc_sim::SimParams;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct CostEvalResult {
    mesh: String,
    cores: usize,
    packets: usize,
    evaluations: u64,
    full_ns_per_eval: f64,
    fast_ns_per_eval: f64,
    speedup: f64,
    bit_exact: bool,
}

#[derive(Serialize)]
struct SaResult {
    mesh: String,
    total_evaluations: u64,
    single_start_ms: f64,
    multistart_ms: f64,
    restarts: u32,
    /// Worker threads actually available; multi-start scales with this.
    /// On a 1-CPU host the expectation is parity (no overhead), not
    /// speedup.
    available_parallelism: usize,
    wall_clock_speedup: f64,
    single_cost_pj: f64,
    multistart_cost_pj: f64,
}

#[derive(Serialize)]
struct Record {
    cost_eval: Vec<CostEvalResult>,
    sa_search: SaResult,
}

fn time_evals<F: FnMut() -> f64>(evals: u64, mut f: F) -> (f64, f64) {
    // Warm-up, then measure.
    let mut acc = 0.0;
    for _ in 0..evals / 10 + 1 {
        acc += f();
    }
    let t0 = Instant::now();
    for _ in 0..evals {
        acc += f();
    }
    let ns = t0.elapsed().as_nanos() as f64 / evals as f64;
    (ns, acc)
}

fn bench_cost_eval(mesh: Mesh, cores: usize, packets: usize, evals: u64) -> CostEvalResult {
    let tech = Technology::t007();
    let params = SimParams::new();
    let cdcg = noc_apps::generate(&TgffConfig::new(
        cores,
        packets,
        64 * packets as u64,
        packets as u64,
    ));
    let mapping = Mapping::identity(&mesh, cores).expect("cores fit mesh");
    // A second, distinct mapping: alternating defeats the evaluators'
    // same-mapping caches so both paths do full work every call.
    let mut other = mapping.clone();
    other.swap_tiles(
        noc_model::TileId::new(0),
        noc_model::TileId::new(mesh.tile_count() - 1),
    );
    let objective = CdcmObjective::new(&cdcg, &mesh, &tech, params);

    let mut bit_exact = true;
    for m in [&mapping, &other] {
        let full_value = evaluate_cdcm(&cdcg, &mesh, m, &tech, &params)
            .expect("evaluates")
            .objective_pj();
        bit_exact &= full_value == objective.cost(m);
    }

    let mut flip = false;
    let (full_ns, _) = time_evals(evals, || {
        flip = !flip;
        let m = if flip { &mapping } else { &other };
        evaluate_cdcm(&cdcg, &mesh, m, &tech, &params)
            .expect("evaluates")
            .objective_pj()
    });
    let mut flip = false;
    let (fast_ns, _) = time_evals(evals * 4, || {
        flip = !flip;
        objective.cost(if flip { &mapping } else { &other })
    });

    CostEvalResult {
        mesh: mesh.to_string(),
        cores,
        packets,
        evaluations: evals,
        full_ns_per_eval: full_ns,
        fast_ns_per_eval: fast_ns,
        speedup: full_ns / fast_ns,
        bit_exact,
    }
}

fn bench_sa() -> SaResult {
    let mesh = Mesh::new(8, 8).expect("valid mesh");
    let tech = Technology::t007();
    let params = SimParams::new();
    let cdcg = noc_apps::generate(&TgffConfig::new(48, 256, 64 * 256, 11));
    let explorer = Explorer::new(&cdcg, mesh, tech, params);

    const TOTAL: u64 = 16_000;
    const RESTARTS: u32 = 8;
    let mut single = SaConfig::new(5);
    single.max_evaluations = TOTAL;

    let t0 = Instant::now();
    let single_outcome = explorer.explore(Strategy::Cdcm, SearchMethod::SimulatedAnnealing(single));
    let single_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    // Total-budget mode: the 16k evaluations are divided across restarts,
    // so both rows spend the same search effort.
    let multi_outcome = explorer.explore(
        Strategy::Cdcm,
        SearchMethod::MultiStartSa {
            config: single,
            restarts: RESTARTS,
            budget: RestartBudget::Total,
        },
    );
    let multi_ms = t0.elapsed().as_secs_f64() * 1e3;

    SaResult {
        mesh: "8 x 8 mesh".into(),
        total_evaluations: TOTAL,
        single_start_ms: single_ms,
        multistart_ms: multi_ms,
        restarts: RESTARTS,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        wall_clock_speedup: single_ms / multi_ms,
        single_cost_pj: single_outcome.cost,
        multistart_cost_pj: multi_outcome.cost,
    }
}

fn main() {
    let mut cost_eval = Vec::new();
    for (w, h, cores, packets, evals) in [
        (4usize, 4usize, 12usize, 128usize, 2_000u64),
        (8, 8, 48, 512, 500),
        (8, 8, 48, 2048, 200),
    ] {
        let mesh = Mesh::new(w, h).expect("valid mesh");
        let r = bench_cost_eval(mesh, cores, packets, evals);
        println!(
            "cost_eval {} cores={} packets={}: full {:.0} ns/eval, fast {:.0} ns/eval, speedup {:.2}x, bit_exact={}",
            r.mesh, r.cores, r.packets, r.full_ns_per_eval, r.fast_ns_per_eval, r.speedup, r.bit_exact
        );
        assert!(r.bit_exact, "fast path must be bit-exact");
        cost_eval.push(r);
    }

    let sa = bench_sa();
    println!(
        "sa_search {}: single {:.0} ms vs multistart[{}] {:.0} ms ({:.2}x wall-clock, {} cpus) at {} evaluations",
        sa.mesh, sa.single_start_ms, sa.restarts, sa.multistart_ms, sa.wall_clock_speedup,
        sa.available_parallelism, sa.total_evaluations
    );

    let record = Record {
        cost_eval,
        sa_search: sa,
    };
    let path = noc_bench::write_record("BENCH_eval", &record);
    // Also drop a copy at the repository root, where the acceptance
    // criteria look for it.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_eval.json");
    std::fs::copy(&path, &root).expect("can copy record to repo root");
    println!("recorded to {} and {}", path.display(), root.display());
}
