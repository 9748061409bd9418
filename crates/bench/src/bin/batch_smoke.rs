//! Batch-evaluation bench and CI smoke test.
//!
//! * builds a GA-generation-shaped batch (a base mapping plus
//!   single-swap siblings, the cohort structure search loops hand to
//!   [`BatchEvaluator`]) and asserts the batch engine returns bitwise
//!   the per-mapping sequential costs while the walk memo dedups at
//!   least half of all route resolutions;
//! * runs the same seed-pinned GA twice — walk memo on and off — and
//!   asserts bit-identical outcomes (memoization is invisible);
//! * times batched vs sequential evaluation of sibling batches on the
//!   64×64 shift workload and the 8×8×4 layered-shift workload.
//!
//! Usage: `cargo run --release -p noc-bench --bin batch_smoke`

use noc_energy::Technology;
use noc_mapping::{CdcmObjective, GaConfig, GeneticSearch, SearchStrategy};
use noc_model::{Cdcg, Mapping, Mesh, RouteProvider, RoutingKind, TileId};
use noc_sim::{schedule_cost_with, BatchEvaluator, ScheduleScratch, SimParams};
use std::sync::Arc;
use std::time::Instant;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A GA-generation-shaped cohort: the identity base plus `n - 1`
/// single-swap siblings of it.
fn sibling_batch(mesh: &Mesh, cores: usize, n: usize, seed: u64) -> Vec<Mapping> {
    let base = Mapping::identity(mesh, cores).expect("cores fit");
    let mut state = seed;
    let mut batch = vec![base.clone()];
    while batch.len() < n {
        let mut sibling = base.clone();
        let a = TileId::new((splitmix(&mut state) % mesh.tile_count() as u64) as usize);
        let b = TileId::new((splitmix(&mut state) % mesh.tile_count() as u64) as usize);
        sibling.swap_tiles(a, b);
        batch.push(sibling);
    }
    batch
}

/// Sequential-vs-batch timing of one cohort on one provider: asserts
/// bit-identity, returns `(sequential, batched)` ns/eval and the memo's
/// dedup ratio.
fn bench_cohort(
    cdcg: &Cdcg,
    mesh: &Mesh,
    provider: RouteProvider,
    batch: &[Mapping],
) -> (f64, f64, f64) {
    let params = SimParams::new();
    let provider = Arc::new(provider);
    let mut scratch = ScheduleScratch::new();
    // Warm-up sizes the scratch.
    schedule_cost_with(
        cdcg,
        mesh,
        &batch[0],
        &params,
        provider.as_ref(),
        &mut scratch,
    )
    .expect("schedules");
    let start = Instant::now();
    let sequential: Vec<u64> = batch
        .iter()
        .map(|mapping| {
            schedule_cost_with(
                cdcg,
                mesh,
                mapping,
                &params,
                provider.as_ref(),
                &mut scratch,
            )
            .expect("schedules")
        })
        .collect();
    let sequential_ns = start.elapsed().as_nanos() as f64 / batch.len() as f64;

    let mut evaluator = BatchEvaluator::with_provider(cdcg, &params, Arc::clone(&provider));
    let start = Instant::now();
    let batched = evaluator.evaluate(batch).expect("schedules");
    let batched_ns = start.elapsed().as_nanos() as f64 / batch.len() as f64;
    assert_eq!(
        batched, sequential,
        "batch evaluation must be bit-identical to sequential"
    );
    let dedup = evaluator
        .walk_memo_stats()
        .map(|s| s.hit_ratio())
        .unwrap_or(0.0);
    (sequential_ns, batched_ns, dedup)
}

fn main() {
    // 1. GA-generation bit-identity + minimum dedup ratio. A 24-sibling
    //    cohort on an 8x8 shift workload over the implicit tier: every
    //    cost bitwise sequential, and at least half of all route
    //    resolutions served from the memo (sibling mappings share
    //    almost every pair, so the real ratio is far higher).
    let mesh8 = Mesh::new(8, 8).expect("valid mesh");
    let cdcg8 = noc_apps::large_mesh_workload(8, 8, 1);
    let cohort = sibling_batch(&mesh8, cdcg8.core_count(), 24, 0xC0DE);
    let (seq_ns, batch_ns, dedup) = bench_cohort(
        &cdcg8,
        &mesh8,
        RouteProvider::implicit(&mesh8, RoutingKind::Xy),
        &cohort,
    );
    assert!(
        dedup >= 0.5,
        "GA-generation cohort must dedup at least half of route work, got {dedup:.3}"
    );
    println!(
        "8x8 GA generation [implicit]: {:.1} us/eval sequential, {:.1} us/eval batched, dedup {:.1}%",
        seq_ns / 1e3,
        batch_ns / 1e3,
        dedup * 100.0
    );

    // 2. Memoization is invisible to a real search: the same seed-pinned
    //    GA walks one trajectory with the memo on and off.
    let tech = Technology::t007();
    let params = SimParams::new();
    let mut config = GaConfig::new(7);
    config.budget = 400;
    let ga = GeneticSearch::new(config);
    let run_with_memo = |memo: bool| {
        let provider = Arc::new(RouteProvider::implicit(&mesh8, RoutingKind::Xy));
        let objective = CdcmObjective::with_provider(&cdcg8, &tech, params, provider);
        objective.set_walk_memo(memo);
        ga.search(&objective, &mesh8, cdcg8.core_count())
    };
    let on = run_with_memo(true);
    let off = run_with_memo(false);
    assert_eq!(on.outcome.mapping, off.outcome.mapping);
    assert_eq!(on.outcome.cost.to_bits(), off.outcome.cost.to_bits());
    assert_eq!(on.outcome.evaluations, off.outcome.evaluations);
    assert_eq!(on.telemetry, off.telemetry);
    println!(
        "8x8 CDCM GA memo on/off: identical outcome ({:.1} pJ in {} evals)",
        on.outcome.cost, on.outcome.evaluations
    );

    // 3. Large-mesh and 3D throughput: 16-sibling cohorts on the 64x64
    //    shift workload and the 8x8x4 layered-shift workload on the
    //    implicit tier.
    let mesh64 = Mesh::new(64, 64).expect("valid mesh");
    let cdcg64 = noc_apps::large_mesh_workload(64, 64, 1);
    let cohort64 = sibling_batch(&mesh64, cdcg64.core_count(), 16, 0xC0DE);
    let (seq_ns, batch_ns, dedup) = bench_cohort(
        &cdcg64,
        &mesh64,
        RouteProvider::implicit(&mesh64, RoutingKind::Xy),
        &cohort64,
    );
    println!(
        "64x64 shift [implicit]: {:.2} ms/eval sequential, {:.2} ms/eval batched ({:.2}x, dedup {:.1}%)",
        seq_ns / 1e6,
        batch_ns / 1e6,
        seq_ns / batch_ns,
        dedup * 100.0
    );

    let mesh3d = Mesh::new3(8, 8, 4).expect("valid mesh");
    let cdcg3d = noc_apps::layered_shift_workload(8, 8, 4, 1);
    let cohort3d = sibling_batch(&mesh3d, cdcg3d.core_count(), 16, 0xC0DE);
    let (seq_ns, batch_ns, dedup) = bench_cohort(
        &cdcg3d,
        &mesh3d,
        RouteProvider::implicit(&mesh3d, RoutingKind::Xyz),
        &cohort3d,
    );
    println!(
        "8x8x4 layered-shift [implicit]: {:.1} us/eval sequential, {:.1} us/eval batched ({:.2}x, dedup {:.1}%)",
        seq_ns / 1e3,
        batch_ns / 1e3,
        seq_ns / batch_ns,
        dedup * 100.0
    );

    println!("batch smoke: OK");
}
