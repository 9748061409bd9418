//! Cross-validation of the two independent timing implementations: the
//! interval scheduler (`noc_sim::schedule`) and the flit-level
//! discrete-event simulator (`noc_sim::des`). With unbounded buffers and
//! `tl = 1` they must agree cycle-exactly on injections, deliveries and
//! texec — on the paper example and on randomized applications, planar
//! and two layers deep.
//!
//! The DES shares no code with the interval scheduler's event loop, so
//! it is the oracle for every artifact and cost the engine produces. The
//! random trial count defaults low for the regular CI run; the scheduled
//! fuzz job raises it through `NOC_FUZZ_CASES`.

use noc::apps::paper_example::{figure1_cdcg, mapping_c, mapping_d, mesh_2x2};
use noc::apps::TgffConfig;
use noc::model::{Cdcg, Mapping, Mesh, RoutingAlgorithm, TileId, XyRouting, XyzRouting};
use noc::sim::des::{simulate, DesParams};
use noc::sim::{schedule_with, SimParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random trials per mesh depth; override with `NOC_FUZZ_CASES` (the
/// scheduled CI fuzz job runs hundreds).
fn fuzz_cases() -> u64 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25)
}

fn serialized_params() -> SimParams {
    // The DES requires serialized injection (a real core link).
    SimParams {
        injection_serialization: true,
        ..SimParams::paper_example()
    }
}

fn assert_agreement(cdcg: &Cdcg, mesh: &Mesh, mapping: &Mapping, params: &SimParams, label: &str) {
    assert_agreement_with(cdcg, mesh, mapping, params, &XyRouting, label);
}

/// The interval scheduler under `routing`, which must be the DES's
/// dimension order (XY on planar meshes, XYZ on stacks), against the DES.
fn assert_agreement_with(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    params: &SimParams,
    routing: &dyn RoutingAlgorithm,
    label: &str,
) {
    let sched =
        schedule_with(cdcg, mesh, mapping, params, routing).expect("interval model schedules");
    let report = simulate(cdcg, mesh, mapping, &DesParams::new(*params)).expect("DES simulates");
    assert_eq!(
        report.texec_cycles,
        sched.texec_cycles(),
        "texec mismatch on {label}"
    );
    for id in cdcg.packet_ids() {
        assert_eq!(
            report.delivery(id),
            sched.packet(id).delivery,
            "delivery of {id} on {label}"
        );
        assert_eq!(
            report.injections[id.index()],
            sched.packet(id).inject(),
            "injection of {id} on {label}"
        );
    }
}

#[test]
fn paper_example_agrees_on_both_mappings() {
    let cdcg = figure1_cdcg();
    let mesh = mesh_2x2();
    let params = serialized_params();
    assert_agreement(&cdcg, &mesh, &mapping_c(), &params, "figure1(c)");
    assert_agreement(&cdcg, &mesh, &mapping_d(), &params, "figure1(d)");
}

#[test]
fn paper_example_agrees_on_every_mapping_of_the_2x2() {
    // All 24 placements of the 4 cores: exhaustive cross-validation.
    let cdcg = figure1_cdcg();
    let mesh = mesh_2x2();
    let params = serialized_params();
    noc::mapping::for_each_mapping(&mesh, 4, |mapping| {
        assert_agreement(&cdcg, &mesh, mapping, &params, "2x2 enumeration");
    });
}

/// A random application on a random `2..=4 × 2..=3 × depth` mesh under a
/// random injective mapping, or `None` when the cores do not fit.
fn random_instance(rng: &mut StdRng, trial: u64, depth: usize) -> Option<(Cdcg, Mesh, Mapping)> {
    let cores = rng.gen_range(3..=8);
    let packets = rng.gen_range(4..=40);
    let bits = rng.gen_range(packets as u64..=packets as u64 * 300);
    let cdcg = noc::apps::generate(&TgffConfig::new(cores, packets, bits, trial));
    let width = rng.gen_range(2..=4);
    let height = rng.gen_range(2..=3);
    let mesh = match Mesh::new3(width, height, depth) {
        Ok(m) if m.tile_count() >= cores => m,
        _ => return None,
    };
    // Random injective mapping.
    let mut tiles: Vec<TileId> = mesh.tiles().collect();
    for i in (1..tiles.len()).rev() {
        let j = rng.gen_range(0..=i);
        tiles.swap(i, j);
    }
    let mapping = Mapping::from_tiles(&mesh, tiles.into_iter().take(cores))
        .expect("shuffled prefix is injective");
    Some((cdcg, mesh, mapping))
}

#[test]
fn random_applications_agree() {
    let mut rng = StdRng::seed_from_u64(2025);
    let params = serialized_params();
    for trial in 0..fuzz_cases() {
        if let Some((cdcg, mesh, mapping)) = random_instance(&mut rng, trial, 1) {
            assert_agreement(&cdcg, &mesh, &mapping, &params, &format!("trial {trial}"));
        }
    }
    // Two-layer stacks, after the planar trials: the DES routes X, then
    // Y, then Z, which is `XyzRouting`.
    for trial in 0..fuzz_cases() {
        if let Some((cdcg, mesh, mapping)) = random_instance(&mut rng, trial, 2) {
            let label = format!("depth-2 trial {trial}");
            assert_agreement_with(&cdcg, &mesh, &mapping, &params, &XyzRouting, &label);
        }
    }
}

#[test]
fn wider_flits_still_agree() {
    let cdcg = figure1_cdcg();
    let mesh = mesh_2x2();
    let params = SimParams {
        flit_width_bits: 4,
        injection_serialization: true,
        ..SimParams::paper_example()
    };
    assert_agreement(&cdcg, &mesh, &mapping_c(), &params, "4-bit flits");
}

#[test]
fn larger_routing_latency_still_agrees() {
    let cdcg = figure1_cdcg();
    let mesh = mesh_2x2();
    let params = SimParams {
        routing_cycles: 5,
        injection_serialization: true,
        ..SimParams::paper_example()
    };
    assert_agreement(&cdcg, &mesh, &mapping_c(), &params, "tr=5");
}

#[test]
fn des_bounded_buffers_converge_to_unbounded() {
    // As the buffer capacity grows past the largest packet, the bounded
    // DES must converge to the unbounded result.
    let cdcg = figure1_cdcg();
    let mesh = mesh_2x2();
    let params = serialized_params();
    let mapping = mapping_c();
    let unbounded =
        simulate(&cdcg, &mesh, &mapping, &DesParams::new(params)).expect("DES simulates");
    let big = simulate(
        &cdcg,
        &mesh,
        &mapping,
        &DesParams::new(params).with_buffer(40),
    )
    .expect("DES simulates");
    assert_eq!(big.texec_cycles, unbounded.texec_cycles);

    let mut last = u64::MAX;
    for cap in [1usize, 2, 5, 10, 40] {
        let r = simulate(
            &cdcg,
            &mesh,
            &mapping,
            &DesParams::new(params).with_buffer(cap),
        )
        .expect("DES simulates");
        assert!(
            r.texec_cycles <= last,
            "more buffer must not slow execution (cap {cap})"
        );
        last = r.texec_cycles;
    }
}
