//! Integration tests for the Table 1 benchmark suite: published
//! characteristics, schedulability and determinism.

use noc::apps::suite::{rows_by_noc_size, table1_suite, TABLE1_ROWS};
use noc::model::Mapping;
use noc::sim::{schedule, CostEvaluator, SimParams};

#[test]
fn every_row_matches_published_characteristics() {
    for bench in table1_suite() {
        assert!(
            bench.matches_spec(),
            "{} drifted from Table 1",
            bench.spec.name
        );
    }
}

#[test]
fn row_groups_follow_the_paper() {
    let groups = rows_by_noc_size();
    let labels: Vec<&str> = groups.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels,
        vec!["3x2", "2x4", "3x3", "2x5", "3x4", "8x8", "10x10", "12x10"]
    );
    let counts: Vec<usize> = groups.iter().map(|(_, v)| v.len()).collect();
    assert_eq!(counts, vec![3, 3, 3, 3, 3, 1, 1, 1]);
}

#[test]
fn published_totals_are_preserved() {
    let total: u64 = TABLE1_ROWS.iter().map(|r| r.total_bits).sum();
    let expected: u64 = [
        78_817u64,
        174,
        49_003,
        1_600,
        23_235,
        5_930,
        1_600,
        1_860,
        43_120,
        2_215,
        23_244,
        322_221,
        3_100,
        2_578_920,
        115_778,
        9_799_200,
        562_565_990,
        680_006_120,
    ]
    .iter()
    .sum();
    assert_eq!(total, expected);
}

#[test]
fn small_benchmarks_schedule_under_identity_mapping() {
    let params = SimParams::new();
    for bench in table1_suite().iter().take(15) {
        let mapping = Mapping::identity(&bench.mesh, bench.cdcg.core_count())
            .expect("cores fit the published meshes");
        let sched =
            schedule(&bench.cdcg, &bench.mesh, &mapping, &params).expect("suite graphs schedule");
        assert!(sched.texec_cycles() > 0, "{}", bench.spec.name);
        assert_eq!(sched.packets().len(), bench.cdcg.packet_count());
        // The cost engine agrees on every row, sparse-time ones included.
        let mut eval = CostEvaluator::new(&bench.cdcg, &bench.mesh, &params);
        assert_eq!(
            eval.texec_cycles(&mapping).expect("cost engine runs"),
            sched.texec_cycles(),
            "{}",
            bench.spec.name
        );
        // Every packet is delivered no earlier than its uncontended bound.
        for ps in sched.packets() {
            let k = ps.router_count();
            let flits = params.flits(bench.cdcg.packet(ps.packet).bits).max(1);
            let bound = noc::sim::wormhole::total_delay_cycles(&params, k, flits);
            assert!(
                ps.latency() >= bound,
                "{}: packet beats Eq. 8",
                bench.spec.name
            );
        }
    }
}

#[test]
fn large_benchmarks_schedule_too() {
    let params = SimParams::new();
    for bench in table1_suite().iter().skip(15) {
        let mapping = Mapping::identity(&bench.mesh, bench.cdcg.core_count()).expect("cores fit");
        let sched =
            schedule(&bench.cdcg, &bench.mesh, &mapping, &params).expect("suite graphs schedule");
        assert!(sched.texec_cycles() > 0, "{}", bench.spec.name);
        let mut eval = CostEvaluator::new(&bench.cdcg, &bench.mesh, &params);
        assert_eq!(
            eval.texec_cycles(&mapping).expect("cost engine runs"),
            sched.texec_cycles(),
            "{}",
            bench.spec.name
        );
    }
}

#[test]
fn suite_generation_is_reproducible() {
    let a = table1_suite();
    let b = table1_suite();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y);
    }
}

#[test]
fn the_14_core_row_is_the_documented_exception() {
    // The paper lists a 14-core app under NoC size 3x4 (12 tiles): no
    // injective mapping exists, so the suite runs it on 3x5 and keeps
    // the group label.
    let row = TABLE1_ROWS[14];
    assert_eq!(row.name, "tgff-f");
    assert_eq!(row.group, "3x4");
    assert_eq!(row.cores, 14);
    assert!(row.width * row.height >= row.cores);
    // Every other row fits its labelled mesh.
    for (i, row) in TABLE1_ROWS.iter().enumerate() {
        if i != 14 {
            let parts: Vec<usize> = row
                .group
                .split('x')
                .map(|p| p.parse().expect("label is WxH"))
                .collect();
            let label_tiles = parts[0] * parts[1];
            assert_eq!(row.width * row.height, label_tiles, "row {}", row.name);
            assert!(row.cores <= label_tiles, "row {}", row.name);
        }
    }
}
