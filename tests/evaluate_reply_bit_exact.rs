//! Reply-level pins of the service's evaluate jobs.
//!
//! Each row submits one evaluate job through the wire protocol
//! (`encode_submit` → `handle_line`), waits for it the same way, and
//! records the FNV-1a-64 digest of the reply's `"result"` JSON: the
//! scored mapping, the routing name, `texec`, both energy terms, the
//! contention counts and, for the Figure 1 rows, the rendered Gantt
//! chart. Any change to how an evaluate job scores, counts or renders
//! shows up here as a changed digest.
//!
//! The rows: every Table 1 benchmark under two seeded placements (XY,
//! `SimParams::new`, the 0.07 µm point), Figure 1 mappings (c) and (d)
//! at the paper's operating point with the Gantt chart, and one row each
//! for YX, torus-XY and XYZ routing.

use noc::apps::paper_example::{figure1_cdcg, mapping_c, mapping_d, mesh_2x2};
use noc::apps::suite::table1_suite;
use noc::energy::Technology;
use noc::model::{Cdcg, Mapping, Mesh, RoutingKind, TileId};
use noc::sim::SimParams;
use noc_service::protocol::{encode_op, encode_submit, handle_line};
use noc_service::{
    EvaluateRequest, JobId, JobRequest, MappingService, Priority, ServiceConfig, ServiceHandle,
};
use serde_json::JsonValue as Value;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded injective placement of `cores` cores (Fisher–Yates prefix).
fn seeded_mapping(mesh: &Mesh, cores: usize, seed: u64) -> Mapping {
    let mut tiles: Vec<TileId> = mesh.tiles().collect();
    let mut state = seed;
    for i in (1..tiles.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        tiles.swap(i, j);
    }
    Mapping::from_tiles(mesh, tiles.into_iter().take(cores)).expect("shuffled prefix is injective")
}

/// An evaluate job at the 0.07 µm point with `SimParams::new`.
fn job(cdcg: &Cdcg, mesh: Mesh, mapping: Mapping, routing: RoutingKind) -> EvaluateRequest {
    EvaluateRequest {
        app: cdcg.clone(),
        mesh,
        mapping,
        tech: Technology::t007(),
        params: SimParams::new(),
        routing,
        gantt: false,
    }
}

fn cases() -> Vec<(String, EvaluateRequest)> {
    let mut out = Vec::new();
    let suite = table1_suite();
    for bench in &suite {
        for seed in [1u64, 2] {
            let mapping = seeded_mapping(&bench.mesh, bench.cdcg.core_count(), seed);
            let request = job(&bench.cdcg, bench.mesh, mapping, RoutingKind::Xy);
            out.push((format!("{} seed {seed}", bench.spec.name), request));
        }
    }

    for (name, mapping) in [("c", mapping_c()), ("d", mapping_d())] {
        let request = EvaluateRequest {
            tech: Technology::paper_example(),
            params: SimParams::paper_example(),
            gantt: true,
            ..job(&figure1_cdcg(), mesh_2x2(), mapping, RoutingKind::Xy)
        };
        out.push((format!("figure1({name}) gantt"), request));
    }

    let tgff_d = suite
        .iter()
        .find(|b| b.spec.name == "tgff-d")
        .expect("tgff-d row");
    let mapping = seeded_mapping(&tgff_d.mesh, tgff_d.cdcg.core_count(), 1);
    let yx = job(&tgff_d.cdcg, tgff_d.mesh, mapping, RoutingKind::Yx);
    out.push(("tgff-d YX seed 1".to_owned(), yx));

    // 2-wide rows make the torus wrap a 2-long ring.
    let ring_app = noc::apps::generate(&noc::apps::TgffConfig::new(6, 24, 24 * 200, 5));
    let ring_mesh = Mesh::new(2, 3).expect("valid mesh");
    let mapping = seeded_mapping(&ring_mesh, ring_app.core_count(), 1);
    let torus = job(&ring_app, ring_mesh, mapping, RoutingKind::TorusXy);
    out.push(("ring 2x3 torus-XY seed 1".to_owned(), torus));

    let stack = Mesh::new3(8, 8, 4).expect("valid mesh");
    let stack_app = noc::apps::layered_shift_workload(8, 8, 4, 1);
    let mapping = seeded_mapping(&stack, stack_app.core_count(), 1);
    let xyz = job(&stack_app, stack, mapping, RoutingKind::Xyz);
    out.push(("shift 8x8x4 XYZ seed 1".to_owned(), xyz));
    out
}

/// Submits `request` over the wire, waits for it, and returns the raw
/// `"result"` JSON of the `wait` reply.
fn reply_result(handle: &ServiceHandle, request: EvaluateRequest) -> String {
    let line = encode_submit(&JobRequest::Evaluate(Box::new(request)), Priority::Normal);
    let submitted = serde_json::parse(&handle_line(handle, &line).line).expect("reply is JSON");
    let id = match submitted.get_field("job") {
        Some(Value::UInt(id)) => JobId(*id),
        other => panic!("submit refused: {other:?}"),
    };
    let reply = handle_line(handle, &encode_op("wait", Some(id))).line;
    assert!(
        reply.contains("\"state\":\"done\""),
        "job {} failed: {reply}",
        id.0
    );
    // `result` is the last field of a terminal reply.
    let key = "\"result\":";
    let start = reply.find(key).expect("a done reply carries a result") + key.len();
    let result = &reply[start..reply.len() - 1];
    serde_json::parse(result).expect("the result is one JSON value");
    result.to_owned()
}

/// Recorded rows, in [`cases`] order: `(label, digest of the result JSON)`.
const PINS: &[(&str, u64)] = &[
    ("objrec-a seed 1", 0x5281f854783bc23d),
    ("objrec-a seed 2", 0xa16aa6db72ecb539),
    ("fft8-a seed 1", 0xb51ed17d38299221),
    ("fft8-a seed 2", 0x3997f216f8240e21),
    ("imgenc-a seed 1", 0x9179538c3cbeb0c3),
    ("imgenc-a seed 2", 0x9f43127c20f8bd80),
    ("romberg-a seed 1", 0xf145c530095d3401),
    ("romberg-a seed 2", 0x70a33a7f803e6ec7),
    ("imgenc-b seed 1", 0xea158969ed612024),
    ("imgenc-b seed 2", 0x46135cc5df9d71d3),
    ("fft8-b seed 1", 0x47228536c7af7a2e),
    ("fft8-b seed 2", 0x1cb8900800385329),
    ("romberg-b seed 1", 0x96d569295c9c79ca),
    ("romberg-b seed 2", 0xfdb28674f8ffcded),
    ("fft8-c seed 1", 0xefe090b0d01b8e1a),
    ("fft8-c seed 2", 0xaab9763a9e9d5855),
    ("objrec-b seed 1", 0xfd1ae16111430add),
    ("objrec-b seed 2", 0x5a758579a5c80834),
    ("tgff-a seed 1", 0xf0873b6b5fa1b020),
    ("tgff-a seed 2", 0x2d89c06eceb6599b),
    ("tgff-b seed 1", 0x9ef783a74a01b95a),
    ("tgff-b seed 2", 0x25fbcfe7c0528dcd),
    ("tgff-c seed 1", 0x782a75a496a06b9b),
    ("tgff-c seed 2", 0x9d9ec47d4e484216),
    ("tgff-d seed 1", 0xe352dc8f5bd9288b),
    ("tgff-d seed 2", 0x8ef6c32651b58750),
    ("tgff-e seed 1", 0x1ae5bc289d1b7c25),
    ("tgff-e seed 2", 0x8ff1b5c60352c75b),
    ("tgff-f seed 1", 0xb8b1e59409210536),
    ("tgff-f seed 2", 0x70e89295b5b947bc),
    ("tgff-g seed 1", 0x12e2d190bbae5463),
    ("tgff-g seed 2", 0xb404d9bd68590ad7),
    ("tgff-h seed 1", 0xe30bc4a49f5a5558),
    ("tgff-h seed 2", 0x878f5353a4abfaf1),
    ("tgff-i seed 1", 0x252fbc14dee264fb),
    ("tgff-i seed 2", 0xf22610b205caa034),
    ("figure1(c) gantt", 0x34cd1dbf8a1de0e9),
    ("figure1(d) gantt", 0xc05a0d876a5e2b0b),
    ("tgff-d YX seed 1", 0x4242e55a65658ceb),
    ("ring 2x3 torus-XY seed 1", 0xe914dfa6f49b3899),
    ("shift 8x8x4 XYZ seed 1", 0x76f7bd1a70b405f0),
];

#[test]
fn evaluate_replies_match_recorded_digests() {
    let service = MappingService::start(ServiceConfig::new(1));
    let handle = service.handle();
    let got: Vec<(String, u64)> = cases()
        .into_iter()
        .map(|(label, request)| {
            let result = reply_result(&handle, request);
            (label, fnv1a64(result.as_bytes()))
        })
        .collect();
    assert_eq!(got.len(), PINS.len(), "row count");
    for ((label, got), &(want_label, digest)) in got.iter().zip(PINS) {
        assert_eq!(label, want_label, "row order");
        assert_eq!(*got, digest, "{label}");
    }
}
