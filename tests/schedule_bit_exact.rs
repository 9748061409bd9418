//! Full-artifact pins of the interval scheduler (`noc_sim::schedule_with`).
//!
//! Each row records, for one (application, mesh, mapping, parameter set,
//! routing) input: `texec_cycles`, the length of the contention log, the
//! total contention cycles and an FNV-1a-64 digest of the schedule's JSON.
//! The JSON carries every packet's ready/inject/router/link intervals,
//! every resource's occupancy list and the contention log, so the digest
//! pins the whole artifact, not just the scalar cost.
//!
//! The rows cover the inputs the flit-level DES cannot cross-check
//! (it needs serialized injection and XY/XYZ routing): unserialized
//! injection, ejection contention, 16-bit flits, `tl = 3`, `tr = 0`, YX
//! and torus routings (2-wide rings included), 3D stacks, sparse
//! schedules with stretched computation, zero link delay with zeroed
//! computation, and `tl` of 0, 2 and 3 on two contended instances (tgff-g
//! and the 8x8x4 stack). The values were recorded from the `HashMap`-keyed
//! scheduler that preceded the single event loop, the Figure 1 zero-delay
//! rows from the event loop that pushed every event through its queue,
//! and the contended rows from the event loop that gave each router entry
//! an event of its own; any divergence means an artifact changed. The
//! counting run
//! (`schedule_contention_with`) over the size-picked route tier
//! (`RouteProvider::auto`) must match each row's `texec` and contention
//! counts too, without building the schedule.

use noc::apps::paper_example::{figure1_cdcg, mapping_c, mapping_d, mesh_2x2};
use noc::apps::suite::table1_suite;
use noc::model::{
    Cdcg, Mapping, Mesh, RouteProvider, RoutingAlgorithm, RoutingKind, TileId, TorusXyRouting,
    TorusXyzRouting, XyRouting, XyzRouting, YxRouting,
};
use noc::sim::{schedule_contention_with, schedule_with, Schedule, ScheduleScratch, SimParams};

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

/// `cdcg` with every packet's computation time multiplied by `factor`.
fn stretched(cdcg: &Cdcg, factor: u64) -> Cdcg {
    let mut g = Cdcg::new();
    for core in cdcg.cores() {
        g.add_core(cdcg.core_name(core).expect("named core"));
    }
    for id in cdcg.packet_ids() {
        let p = cdcg.packet(id);
        g.add_packet(p.src, p.dst, p.comp_cycles * factor, p.bits)
            .expect("copied packet is valid");
    }
    for id in cdcg.packet_ids() {
        for &succ in cdcg.successors(id) {
            g.add_dependence(id, succ)
                .expect("copied dependence is valid");
        }
    }
    g
}

/// `(texec, contention events, contention cycles, JSON digest)`.
type Pin = (u64, usize, u64, u64);

fn pin(schedule: &Schedule) -> Pin {
    let json = serde_json::to_string(schedule).expect("schedule serializes");
    (
        schedule.texec_cycles(),
        schedule.contention_events().len(),
        schedule.total_contention_cycles(),
        fnv1a64(json.as_bytes()),
    )
}

struct Case {
    label: String,
    cdcg: Cdcg,
    mesh: Mesh,
    mapping: Mapping,
    params: SimParams,
    routing: &'static dyn RoutingAlgorithm,
}

/// The 11 parameter rows the cost engine's unit tests sweep on Figure 1:
/// `(tr, tl, flit bits, ejection contention, serialized injection)`.
const FIGURE1_PARAMS: [(u64, u64, u64, bool, bool); 11] = [
    (2, 1, 1, false, true),
    (4, 1, 1, false, true),
    (2, 3, 1, false, true),
    (2, 1, 16, false, true),
    (2, 1, 1, true, true),
    (2, 1, 1, false, false),
    (5, 2, 8, true, false),
    (0, 1, 1, false, true),
    (0, 1, 1, false, false),
    (0, 3, 1, true, true),
    (0, 2, 8, true, false),
];

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let suite = table1_suite();

    // Table 1: every row, two seeded mappings, both parameter presets, XY.
    for bench in &suite {
        for seed in [1u64, 2] {
            let mapping = seeded_mapping(&bench.mesh, bench.cdcg.core_count(), seed);
            for (pname, params) in [
                ("new", SimParams::new()),
                ("paper", SimParams::paper_example()),
            ] {
                out.push(Case {
                    label: format!("{} seed {seed} {pname}", bench.spec.name),
                    cdcg: bench.cdcg.clone(),
                    mesh: bench.mesh,
                    mapping: mapping.clone(),
                    params,
                    routing: &XyRouting,
                });
            }
        }
    }

    // Figure 1 on the 2x2 mesh, mappings (c) and (d), every parameter row.
    for (mname, mapping) in [("c", mapping_c()), ("d", mapping_d())] {
        for (tr, tl, flit, ej, inj) in FIGURE1_PARAMS {
            out.push(Case {
                label: format!("figure1({mname}) tr={tr} tl={tl} flit={flit} ej={ej} inj={inj}"),
                cdcg: figure1_cdcg(),
                mesh: mesh_2x2(),
                mapping: mapping.clone(),
                params: SimParams {
                    routing_cycles: tr,
                    link_cycles: tl,
                    flit_width_bits: flit,
                    ejection_contention: ej,
                    injection_serialization: inj,
                    ..SimParams::paper_example()
                },
                routing: &XyRouting,
            });
        }
    }

    // Zero link delay: Figure 1 with every computation time zeroed, so a
    // router is entered in the cycle its link was granted, a successor is
    // injected in the cycle its last dependence was delivered, and under
    // `tr = 0` a link request lands in the cycle its router was entered.
    let instant = stretched(&figure1_cdcg(), 0);
    for (mname, mapping) in [("c", mapping_c()), ("d", mapping_d())] {
        for (tr, inj) in [(0, true), (0, false), (2, true)] {
            out.push(Case {
                label: format!("figure1({mname}) x0 tr={tr} tl=0 inj={inj}"),
                cdcg: instant.clone(),
                mesh: mesh_2x2(),
                mapping: mapping.clone(),
                params: SimParams {
                    routing_cycles: tr,
                    link_cycles: 0,
                    injection_serialization: inj,
                    ..SimParams::paper_example()
                },
                routing: &XyRouting,
            });
        }
    }

    // YX and torus-XY: tgff-d on its 3x4 mesh, and a six-core app on a
    // 2x3 mesh, whose 2-wide rows make the torus wrap a 2-long ring.
    let tgff_d = suite
        .iter()
        .find(|b| b.spec.name == "tgff-d")
        .expect("tgff-d row");
    let ring_app = noc::apps::generate(&noc::apps::TgffConfig::new(6, 24, 24 * 200, 5));
    let ring_mesh = Mesh::new(2, 3).expect("valid mesh");
    let planar: [(&Cdcg, Mesh, &str); 2] = [
        (&tgff_d.cdcg, tgff_d.mesh, "tgff-d"),
        (&ring_app, ring_mesh, "ring 2x3"),
    ];
    for (cdcg, mesh, name) in planar {
        for (rname, routing) in [
            ("YX", &YxRouting as &'static dyn RoutingAlgorithm),
            ("torus-XY", &TorusXyRouting),
        ] {
            for seed in [1u64, 2] {
                out.push(Case {
                    label: format!("{name} {rname} seed {seed}"),
                    cdcg: cdcg.clone(),
                    mesh,
                    mapping: seeded_mapping(&mesh, cdcg.core_count(), seed),
                    params: SimParams::new(),
                    routing,
                });
            }
        }
    }

    // XYZ and torus-XYZ: Figure 1 on a 2x2x2 cube and the layered shift
    // on the 8x8x4 stack.
    let cube = Mesh::new3(2, 2, 2).expect("valid mesh");
    let stack = Mesh::new3(8, 8, 4).expect("valid mesh");
    let stack_app = noc::apps::layered_shift_workload(8, 8, 4, 1);
    let fig1 = figure1_cdcg();
    let layered: [(&Cdcg, Mesh, &str); 2] = [
        (&fig1, cube, "figure1 2x2x2"),
        (&stack_app, stack, "shift 8x8x4"),
    ];
    for (cdcg, mesh, name) in layered {
        for (rname, routing) in [
            ("XYZ", &XyzRouting as &'static dyn RoutingAlgorithm),
            ("torus-XYZ", &TorusXyzRouting),
        ] {
            for seed in [1u64, 2] {
                out.push(Case {
                    label: format!("{name} {rname} seed {seed}"),
                    cdcg: cdcg.clone(),
                    mesh,
                    mapping: seeded_mapping(&mesh, cdcg.core_count(), seed),
                    params: SimParams::new(),
                    routing,
                });
            }
        }
    }

    // tgff-h with computation stretched 1,500x: sparse event times.
    let tgff_h = suite
        .iter()
        .find(|b| b.spec.name == "tgff-h")
        .expect("tgff-h row");
    let sparse = stretched(&tgff_h.cdcg, 1_500);
    for seed in [1u64, 2] {
        out.push(Case {
            label: format!("tgff-h x1500 seed {seed}"),
            cdcg: sparse.clone(),
            mesh: tgff_h.mesh,
            mapping: seeded_mapping(&tgff_h.mesh, sparse.core_count(), seed),
            params: SimParams::new(),
            routing: &XyRouting,
        });
    }

    // Non-unit link delays on contended rows: tgff-g and the 8x8x4 stack,
    // where many packets queue at one input FIFO. At `tl = 0`, with every
    // computation time zeroed, packets reach a FIFO in the cycle its
    // link was granted, so same-cycle arrivals tie on the packet order.
    let tgff_g = suite
        .iter()
        .find(|b| b.spec.name == "tgff-g")
        .expect("tgff-g row");
    let contended: [(&Cdcg, Mesh, &str, &'static dyn RoutingAlgorithm); 2] = [
        (&tgff_g.cdcg, tgff_g.mesh, "tgff-g", &XyRouting),
        (&stack_app, stack, "shift 8x8x4", &XyzRouting),
    ];
    for (cdcg, mesh, name, routing) in contended {
        let mapping = seeded_mapping(&mesh, cdcg.core_count(), 1);
        let instant = stretched(cdcg, 0);
        for (zeroed, tr, tl) in [(true, 0, 0), (true, 2, 0), (false, 2, 2), (false, 2, 3)] {
            for inj in [false, true] {
                let x0 = if zeroed { " x0" } else { "" };
                out.push(Case {
                    label: format!("{name}{x0} tr={tr} tl={tl} inj={inj}"),
                    cdcg: if zeroed {
                        instant.clone()
                    } else {
                        cdcg.clone()
                    },
                    mesh,
                    mapping: mapping.clone(),
                    params: SimParams {
                        routing_cycles: tr,
                        link_cycles: tl,
                        injection_serialization: inj,
                        ..SimParams::new()
                    },
                    routing,
                });
            }
        }
    }
    out
}

/// Recorded rows, in [`cases`] order:
/// `(label, texec, contention events, contention cycles, JSON digest)`.
const PINS: &[(&str, u64, usize, u64, u64)] = &[
    ("objrec-a seed 1 new", 18770, 61, 176797, 0xc4591cc510edbcd5),
    (
        "objrec-a seed 1 paper",
        24963,
        93,
        225046,
        0x988f1467926e5507,
    ),
    ("objrec-a seed 2 new", 24701, 53, 186311, 0xa8458f319da59304),
    (
        "objrec-a seed 2 paper",
        28151,
        80,
        227826,
        0x0d053af3a206803d,
    ),
    ("fft8-a seed 1 new", 72, 15, 108, 0xf27dd69b5699b86c),
    ("fft8-a seed 1 paper", 89, 26, 164, 0x81a50ab6c9795ca4),
    ("fft8-a seed 2 new", 103, 15, 308, 0xc0b57e173658a8e0),
    ("fft8-a seed 2 paper", 100, 27, 286, 0x6a464170a116fb7d),
    ("imgenc-a seed 1 new", 11529, 45, 83993, 0x0b74fbef2d2ecadc),
    (
        "imgenc-a seed 1 paper",
        17978,
        86,
        139472,
        0x1be81a146073f90b,
    ),
    ("imgenc-a seed 2 new", 14113, 57, 128240, 0x9fe0771191ce0e5f),
    (
        "imgenc-a seed 2 paper",
        20057,
        90,
        160382,
        0x099ab8439d0199c2,
    ),
    ("romberg-a seed 1 new", 921, 11, 1303, 0xfc25c5bf5e62405a),
    ("romberg-a seed 1 paper", 903, 28, 1763, 0x6dec9ca44399c407),
    ("romberg-a seed 2 new", 815, 8, 1729, 0x5fd7b6e23795ff3d),
    ("romberg-a seed 2 paper", 815, 22, 1881, 0xffeb9f874f93f3ee),
    ("imgenc-b seed 1 new", 7129, 40, 36198, 0xcb6820050c5bf8d0),
    ("imgenc-b seed 1 paper", 8188, 74, 52303, 0x0699ea2d83d454c2),
    ("imgenc-b seed 2 new", 8814, 34, 35704, 0xd1ef928a622b6f42),
    ("imgenc-b seed 2 paper", 8449, 66, 45789, 0xda4ac47f351d9c4f),
    ("fft8-b seed 1 new", 2345, 12, 2569, 0x5f9cbc280c129149),
    ("fft8-b seed 1 paper", 2608, 26, 4222, 0xbf0a842e8dc6a6ff),
    ("fft8-b seed 2 new", 2798, 15, 5632, 0x1563bea3b4ff8e55),
    ("fft8-b seed 2 paper", 2795, 29, 6881, 0x93532ceb4f251eec),
    ("romberg-b seed 1 new", 487, 9, 510, 0x40eb461a1cfc2162),
    ("romberg-b seed 1 paper", 575, 18, 806, 0x61d8be1af1d67685),
    ("romberg-b seed 2 new", 559, 9, 757, 0xa7ac358a3c4ef362),
    ("romberg-b seed 2 paper", 559, 18, 1051, 0x3bf1e8a1f214c1dc),
    ("fft8-c seed 1 new", 676, 11, 1268, 0x415221550b3550be),
    ("fft8-c seed 1 paper", 676, 25, 1864, 0x999bf13cf7748755),
    ("fft8-c seed 2 new", 618, 20, 1590, 0xdd8af7d036fcbd5b),
    ("fft8-c seed 2 paper", 676, 28, 1888, 0x2c1aba3ec6e537ef),
    ("objrec-b seed 1 new", 7232, 22, 29810, 0xa7e4c09bc2225ee2),
    ("objrec-b seed 1 paper", 7632, 53, 50606, 0x6c5ab44196fa2579),
    ("objrec-b seed 2 new", 9619, 35, 49556, 0xf931ef29c8d658a1),
    (
        "objrec-b seed 2 paper",
        10007,
        55,
        52795,
        0x423c10fe46095380,
    ),
    ("tgff-a seed 1 new", 693, 25, 1895, 0x7664cbdcb395a4dd),
    ("tgff-a seed 1 paper", 874, 43, 2568, 0xdc563fcc40cf9bf6),
    ("tgff-a seed 2 new", 804, 28, 2026, 0x31f37e2716403d02),
    ("tgff-a seed 2 paper", 874, 46, 3077, 0x2c9093d6bcee7ceb),
    ("tgff-b seed 1 new", 5625, 102, 61091, 0x61f24495b2f1347e),
    ("tgff-b seed 1 paper", 5926, 125, 68897, 0xfb799d1b88a4fc95),
    ("tgff-b seed 2 new", 4477, 71, 46281, 0x1bf327e6cce7f478),
    ("tgff-b seed 2 paper", 6346, 107, 66561, 0xb80082ce3bc12052),
    ("tgff-c seed 1 new", 97506, 21, 285072, 0x505ec0da6a2140a8),
    ("tgff-c seed 1 paper", 97506, 28, 282570, 0xe014e39b6b2aa160),
    ("tgff-c seed 2 new", 112993, 25, 381825, 0xa868a9f2181680ec),
    (
        "tgff-c seed 2 paper",
        114777,
        37,
        363837,
        0xc595bca76d49cdf2,
    ),
    ("tgff-d seed 1 new", 1128, 11, 1548, 0xa75a88e3692206be),
    ("tgff-d seed 1 paper", 1128, 16, 2105, 0xb1330f538f539e50),
    ("tgff-d seed 2 new", 1150, 6, 1006, 0xfb780d1bbf7df2bc),
    ("tgff-d seed 2 paper", 1012, 14, 1702, 0x578d30795afdd57e),
    ("tgff-e seed 1 new", 719819, 18, 1114055, 0xfe75a0e2ef40f130),
    (
        "tgff-e seed 1 paper",
        786215,
        30,
        1542020,
        0xe7e910fc5a163af3,
    ),
    ("tgff-e seed 2 new", 703817, 13, 945891, 0x7f8de3bdef779893),
    (
        "tgff-e seed 2 paper",
        744447,
        33,
        1641518,
        0x4db5eb19a9741675,
    ),
    ("tgff-f seed 1 new", 19033, 159, 281155, 0xcfe6e1367b0ebb37),
    (
        "tgff-f seed 1 paper",
        18372,
        222,
        337288,
        0xa520ae0808549387,
    ),
    ("tgff-f seed 2 new", 20953, 218, 358498, 0x2264eadd9b843b20),
    (
        "tgff-f seed 2 paper",
        22503,
        253,
        389796,
        0xfe43caaf48a36565,
    ),
    (
        "tgff-g seed 1 new",
        769471,
        1071,
        47455321,
        0x076dd7c3753af7a9,
    ),
    (
        "tgff-g seed 1 paper",
        773042,
        1384,
        53166938,
        0xa5eaf1f4302f57b3,
    ),
    (
        "tgff-g seed 2 new",
        691823,
        1074,
        43287094,
        0x9b03e66cca07e450,
    ),
    (
        "tgff-g seed 2 paper",
        691807,
        1359,
        46545459,
        0x045f2a7cde638edb,
    ),
    (
        "tgff-h seed 1 new",
        32556626,
        1307,
        2366171488,
        0x3f3268ee58900c97,
    ),
    (
        "tgff-h seed 1 paper",
        33598178,
        1686,
        2593782984,
        0x5dddc1ffe0b3fb39,
    ),
    (
        "tgff-h seed 2 new",
        29467122,
        1430,
        2449814848,
        0x31ff4fce06135d99,
    ),
    (
        "tgff-h seed 2 paper",
        29496599,
        1790,
        2616808228,
        0x392580c85d8c3cab,
    ),
    (
        "tgff-i seed 1 new",
        37136271,
        1510,
        2953424596,
        0xd937f97a9b867424,
    ),
    (
        "tgff-i seed 1 paper",
        34264924,
        1938,
        3117103690,
        0x2bdd9680a2ed6aee,
    ),
    (
        "tgff-i seed 2 new",
        37768341,
        1415,
        3017471296,
        0xc6ce1447915331fb,
    ),
    (
        "tgff-i seed 2 paper",
        34506932,
        1880,
        3205679763,
        0x213c43dda9b1f802,
    ),
    (
        "figure1(c) tr=2 tl=1 flit=1 ej=false inj=true",
        100,
        1,
        7,
        0xfdae376b6162e87a,
    ),
    (
        "figure1(c) tr=4 tl=1 flit=1 ej=false inj=true",
        110,
        1,
        3,
        0x3b5f3e34d9bffdfc,
    ),
    (
        "figure1(c) tr=2 tl=3 flit=1 ej=false inj=true",
        248,
        1,
        41,
        0xae896075649431eb,
    ),
    (
        "figure1(c) tr=2 tl=1 flit=16 ej=false inj=true",
        47,
        0,
        0,
        0x4c63cfb2f640cbfb,
    ),
    (
        "figure1(c) tr=2 tl=1 flit=1 ej=true inj=true",
        100,
        1,
        7,
        0x83fe9867071725a5,
    ),
    (
        "figure1(c) tr=2 tl=1 flit=1 ej=false inj=false",
        100,
        1,
        7,
        0x1c237a82809203fd,
    ),
    (
        "figure1(c) tr=5 tl=2 flit=8 ej=true inj=false",
        85,
        0,
        0,
        0x9cbfaf82e7824ba6,
    ),
    (
        "figure1(c) tr=0 tl=1 flit=1 ej=false inj=true",
        90,
        1,
        11,
        0xe9cfcd3a933cc0c1,
    ),
    (
        "figure1(c) tr=0 tl=1 flit=1 ej=false inj=false",
        90,
        1,
        11,
        0xab53795845dae6e0,
    ),
    (
        "figure1(c) tr=0 tl=3 flit=1 ej=true inj=true",
        238,
        1,
        45,
        0x0ce4ea3e5020a93c,
    ),
    (
        "figure1(c) tr=0 tl=2 flit=8 ej=true inj=false",
        50,
        0,
        0,
        0x1f8dd13828b7d619,
    ),
    (
        "figure1(d) tr=2 tl=1 flit=1 ej=false inj=true",
        90,
        0,
        0,
        0xca4dcdc9ddb5a6e3,
    ),
    (
        "figure1(d) tr=4 tl=1 flit=1 ej=false inj=true",
        102,
        0,
        0,
        0x5644e342832344f8,
    ),
    (
        "figure1(d) tr=2 tl=3 flit=1 ej=false inj=true",
        202,
        0,
        0,
        0x5eefab0e3ca06951,
    ),
    (
        "figure1(d) tr=2 tl=1 flit=16 ej=false inj=true",
        45,
        0,
        0,
        0x891e41f90f0b9f31,
    ),
    (
        "figure1(d) tr=2 tl=1 flit=1 ej=true inj=true",
        100,
        1,
        10,
        0xd0e3ce8c5f8ce673,
    ),
    (
        "figure1(d) tr=2 tl=1 flit=1 ej=false inj=false",
        90,
        0,
        0,
        0x7fa1afc8c1c4eb40,
    ),
    (
        "figure1(d) tr=5 tl=2 flit=8 ej=true inj=false",
        79,
        0,
        0,
        0x873e7c78d361dd8e,
    ),
    (
        "figure1(d) tr=0 tl=1 flit=1 ej=false inj=true",
        78,
        0,
        0,
        0xd5ba364bb77685f8,
    ),
    (
        "figure1(d) tr=0 tl=1 flit=1 ej=false inj=false",
        78,
        0,
        0,
        0xe3da3c1098f86b8f,
    ),
    (
        "figure1(d) tr=0 tl=3 flit=1 ej=true inj=true",
        238,
        1,
        48,
        0xccd6d5a57815fa25,
    ),
    (
        "figure1(d) tr=0 tl=2 flit=8 ej=true inj=false",
        48,
        0,
        0,
        0xfcb0c4c287370555,
    ),
    (
        "figure1(c) x0 tr=0 tl=0 inj=true",
        1,
        2,
        2,
        0x3e197f5e60ab13be,
    ),
    (
        "figure1(c) x0 tr=0 tl=0 inj=false",
        1,
        2,
        2,
        0xa9c6a202b111bf8a,
    ),
    (
        "figure1(c) x0 tr=2 tl=0 inj=true",
        14,
        0,
        0,
        0xa18e80d44b2009b4,
    ),
    (
        "figure1(d) x0 tr=0 tl=0 inj=true",
        1,
        2,
        2,
        0xeb1d0ad77535b7ec,
    ),
    (
        "figure1(d) x0 tr=0 tl=0 inj=false",
        1,
        2,
        2,
        0xf531c7aece355c5c,
    ),
    (
        "figure1(d) x0 tr=2 tl=0 inj=true",
        14,
        0,
        0,
        0xeae4a47bad903278,
    ),
    ("tgff-d YX seed 1", 1040, 9, 1786, 0x25bb3a595810402a),
    ("tgff-d YX seed 2", 1346, 9, 2161, 0x6a47bacc1083cc70),
    ("tgff-d torus-XY seed 1", 1128, 9, 1469, 0x1c80980a99d67a0c),
    ("tgff-d torus-XY seed 2", 1003, 6, 1098, 0x12b5e69794bf4050),
    ("ring 2x3 YX seed 1", 2014, 23, 5492, 0x3b2a5f9c30a15e34),
    ("ring 2x3 YX seed 2", 1484, 18, 4247, 0x898bbd5712b8b2b5),
    (
        "ring 2x3 torus-XY seed 1",
        1484,
        13,
        2838,
        0x6c1b1509b55a2cf0,
    ),
    (
        "ring 2x3 torus-XY seed 2",
        1591,
        17,
        4527,
        0xac126734009d4331,
    ),
    ("figure1 2x2x2 XYZ seed 1", 96, 0, 0, 0x3051b1a943a3a0d3),
    ("figure1 2x2x2 XYZ seed 2", 93, 0, 0, 0x591e8d223a48977c),
    (
        "figure1 2x2x2 torus-XYZ seed 1",
        96,
        0,
        0,
        0x3051b1a943a3a0d3,
    ),
    (
        "figure1 2x2x2 torus-XYZ seed 2",
        93,
        0,
        0,
        0x591e8d223a48977c,
    ),
    (
        "shift 8x8x4 XYZ seed 1",
        1323,
        332,
        81084,
        0x892b200ee839ba48,
    ),
    (
        "shift 8x8x4 XYZ seed 2",
        1824,
        339,
        83109,
        0xcab141fed66b82a1,
    ),
    (
        "shift 8x8x4 torus-XYZ seed 1",
        1308,
        281,
        66423,
        0x10eabe666781801d,
    ),
    (
        "shift 8x8x4 torus-XYZ seed 2",
        1563,
        297,
        70626,
        0x1ff7434dc72d4b7f,
    ),
    (
        "tgff-h x1500 seed 1",
        1600860365,
        9,
        9132646,
        0x15115e96df2d38cf,
    ),
    (
        "tgff-h x1500 seed 2",
        1600860353,
        8,
        5886057,
        0xd0f9fd6dee98c120,
    ),
    (
        "tgff-g x0 tr=0 tl=0 inj=false",
        23,
        782,
        1533,
        0xc8bd54cc7858f4df,
    ),
    (
        "tgff-g x0 tr=0 tl=0 inj=true",
        23,
        887,
        1654,
        0x97aee879094e99de,
    ),
    (
        "tgff-g x0 tr=2 tl=0 inj=false",
        85,
        680,
        2830,
        0x5a95e87a63d485f9,
    ),
    (
        "tgff-g x0 tr=2 tl=0 inj=true",
        85,
        775,
        3112,
        0xd4157c5508a3713d,
    ),
    (
        "tgff-g tr=2 tl=2 inj=false",
        1573912,
        1052,
        96655035,
        0x299a4a50195469a9,
    ),
    (
        "tgff-g tr=2 tl=2 inj=true",
        1519161,
        1368,
        105128191,
        0x1e55e64dc7cbfb7f,
    ),
    (
        "tgff-g tr=2 tl=3 inj=false",
        2360332,
        1047,
        145330203,
        0xcd61df36a7e55973,
    ),
    (
        "tgff-g tr=2 tl=3 inj=true",
        2302518,
        1270,
        157908259,
        0xb59e3665188f282f,
    ),
    (
        "shift 8x8x4 x0 tr=0 tl=0 inj=false",
        4,
        287,
        289,
        0xbbf65a679141108b,
    ),
    (
        "shift 8x8x4 x0 tr=0 tl=0 inj=true",
        4,
        287,
        289,
        0xcc864157fe42d916,
    ),
    (
        "shift 8x8x4 x0 tr=2 tl=0 inj=false",
        32,
        209,
        269,
        0x3602032748037bba,
    ),
    (
        "shift 8x8x4 x0 tr=2 tl=0 inj=true",
        32,
        209,
        269,
        0x782a27492a982e4d,
    ),
    (
        "shift 8x8x4 tr=2 tl=2 inj=false",
        2611,
        332,
        162256,
        0xc253a5aefb6b5dad,
    ),
    (
        "shift 8x8x4 tr=2 tl=2 inj=true",
        2611,
        332,
        162256,
        0x62c73459433680f4,
    ),
    (
        "shift 8x8x4 tr=2 tl=3 inj=false",
        3899,
        332,
        243428,
        0x6588c5f66ce4f1a3,
    ),
    (
        "shift 8x8x4 tr=2 tl=3 inj=true",
        3899,
        332,
        243428,
        0x118934bb33c01f20,
    ),
];

#[test]
fn schedules_match_recorded_artifacts() {
    let cases = cases();
    // One scratch for every counting run, as a service worker reuses its own.
    let mut scratch = ScheduleScratch::new();
    let got: Vec<(String, Pin, (u64, usize, u64))> = cases
        .iter()
        .map(|c| {
            let s = schedule_with(&c.cdcg, &c.mesh, &c.mapping, &c.params, c.routing)
                .unwrap_or_else(|e| panic!("{}: {e}", c.label));
            let kind = RoutingKind::from_name(c.routing.name()).expect("a library routing");
            let routes = RouteProvider::auto(&c.mesh, kind);
            let run = schedule_contention_with(
                &c.cdcg,
                &c.mesh,
                &c.mapping,
                &c.params,
                &routes,
                &mut scratch,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", c.label));
            let counted = (run.texec_cycles, run.events, run.cycles);
            (c.label.clone(), pin(&s), counted)
        })
        .collect();
    assert_eq!(got.len(), PINS.len(), "row count");
    for ((label, got, counted), &(want_label, texec, events, cycles, digest)) in
        got.iter().zip(PINS)
    {
        assert_eq!(label, want_label, "row order");
        assert_eq!(*got, (texec, events, cycles, digest), "{label}");
        assert_eq!(*counted, (texec, events, cycles), "{label}: counting run");
    }
}
