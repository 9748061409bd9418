//! Post-schedule statistics: link loads, latencies and utilization.
//!
//! These feed the ablation harnesses in `noc-bench` (hotspot analysis is
//! what makes the CWM-vs-CDCM difference visible: CWM's hop-weighted
//! objective concentrates traffic, CDCM's timing-aware objective spreads
//! concurrent packets).

use crate::resource::Resource;
use crate::schedule::Schedule;
use noc_model::Link;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregate statistics of one schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Number of packets.
    pub packets: usize,
    /// Execution time in cycles.
    pub texec_cycles: u64,
    /// Mean end-to-end packet latency (injection → delivery) in cycles.
    pub mean_latency: f64,
    /// Maximum end-to-end packet latency in cycles.
    pub max_latency: u64,
    /// Total contention cycles across all packets.
    pub contention_cycles: u64,
    /// Number of contention incidents.
    pub contention_events: usize,
    /// Bits crossing the most loaded inter-router link.
    pub max_link_load_bits: u64,
    /// Mean bits per *used* inter-router link.
    pub mean_link_load_bits: f64,
    /// Number of inter-router links that carried at least one packet.
    pub used_links: usize,
    /// Busy fraction (busy cycles / texec) of the most loaded
    /// inter-router link, in `[0, 1]`.
    pub peak_link_utilization: f64,
}

/// Computes [`ScheduleStats`] for a schedule.
pub fn analyze(schedule: &Schedule) -> ScheduleStats {
    let packets = schedule.packets().len();
    let latencies: Vec<u64> = schedule.packets().iter().map(|p| p.latency()).collect();
    let mean_latency = if packets == 0 {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / packets as f64
    };
    let loads = link_loads(schedule);
    let used_links = loads.len();
    let max_link_load_bits = loads.values().copied().max().unwrap_or(0);
    let mean_link_load_bits = if used_links == 0 {
        0.0
    } else {
        loads.values().sum::<u64>() as f64 / used_links as f64
    };

    let texec = schedule.texec_cycles();
    let mut peak_util = 0.0f64;
    if texec > 0 {
        for (res, occs) in schedule.occupancy().iter() {
            if let Resource::Link(l) = res {
                if l.is_internal() {
                    let busy: u64 = occs.iter().map(|o| o.interval.len()).sum();
                    peak_util = peak_util.max(busy as f64 / texec as f64);
                }
            }
        }
    }

    ScheduleStats {
        packets,
        texec_cycles: texec,
        mean_latency,
        max_latency: latencies.iter().copied().max().unwrap_or(0),
        contention_cycles: schedule.total_contention_cycles(),
        contention_events: schedule.contention_events().len(),
        max_link_load_bits,
        mean_link_load_bits,
        used_links,
        peak_link_utilization: peak_util,
    }
}

/// The dependence-critical chain of a schedule: starting from the packet
/// that finished last, walk back through the predecessor whose delivery
/// bound each ready time, down to a Start packet. Mapping optimizations
/// only help `texec` if they shorten (or de-contend) packets on this
/// chain, which makes it the first thing to inspect when a mapping
/// underperforms.
// noc-verify: allow(API02) — the planned `explain` report replaces this module; its tests stay until then
pub fn critical_path(schedule: &Schedule, cdcg: &noc_model::Cdcg) -> Vec<noc_model::PacketId> {
    let Some(last) = schedule
        .packets()
        .iter()
        .max_by_key(|p| (p.delivery, p.packet))
        .map(|p| p.packet)
    else {
        return Vec::new();
    };
    let mut chain = vec![last];
    let mut current = last;
    loop {
        let ready = schedule.packet(current).ready;
        let binding = cdcg
            .predecessors(current)
            .iter()
            .copied()
            .find(|&pred| schedule.packet(pred).delivery == ready);
        match binding {
            Some(pred) => {
                chain.push(pred);
                current = pred;
            }
            None => break,
        }
    }
    chain.reverse();
    chain
}

/// Bits carried by each *inter-router* link (deterministic order). This is
/// the classic "channel load" view of a mapping.
pub fn link_loads(schedule: &Schedule) -> BTreeMap<Link, u64> {
    let mut loads = BTreeMap::new();
    for (res, occs) in schedule.occupancy().iter() {
        if let Resource::Link(l) = res {
            if l.is_internal() {
                let bits: u64 = occs.iter().map(|o| o.bits).sum();
                loads.insert(l, bits);
            }
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimParams;
    use crate::schedule::schedule;
    use noc_model::{Cdcg, Mapping, Mesh, TileId};

    fn figure1_schedule(tiles: [usize; 4]) -> Schedule {
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        let e = g.add_core("E");
        let f = g.add_core("F");
        let pab1 = g.add_packet(a, b, 6, 15).unwrap();
        let pbf1 = g.add_packet(b, f, 10, 40).unwrap();
        let pea1 = g.add_packet(e, a, 10, 20).unwrap();
        let pea2 = g.add_packet(e, a, 20, 15).unwrap();
        let paf1 = g.add_packet(a, f, 6, 15).unwrap();
        let pfb1 = g.add_packet(f, b, 6, 15).unwrap();
        g.add_dependence(pea1, pea2).unwrap();
        g.add_dependence(pab1, paf1).unwrap();
        g.add_dependence(pea1, paf1).unwrap();
        g.add_dependence(pbf1, pfb1).unwrap();
        g.add_dependence(paf1, pfb1).unwrap();
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
        schedule(&g, &mesh, &mapping, &SimParams::paper_example()).unwrap()
    }

    #[test]
    fn stats_for_contended_mapping() {
        let stats = analyze(&figure1_schedule([1, 0, 3, 2]));
        assert_eq!(stats.packets, 6);
        assert_eq!(stats.texec_cycles, 100);
        assert_eq!(stats.contention_cycles, 7);
        assert_eq!(stats.contention_events, 1);
        assert!(stats.mean_latency > 0.0);
        assert!(stats.max_latency >= stats.mean_latency as u64);
    }

    #[test]
    fn link_loads_mapping_c() {
        let sched = figure1_schedule([1, 0, 3, 2]);
        let loads = link_loads(&sched);
        // τ1→τ3 carries B→F (40) and A→F (15).
        let l55 = Link::between(TileId::new(0), TileId::new(2));
        assert_eq!(loads.get(&l55), Some(&55));
        // τ2→τ1 carries A→B and A→F (15 + 15).
        let l = Link::between(TileId::new(1), TileId::new(0));
        assert_eq!(loads.get(&l), Some(&30));
        let bits: u64 = sched
            .occupancy()
            .of(crate::resource::Resource::Link(l55))
            .iter()
            .map(|o| o.bits)
            .sum();
        assert_eq!(bits, 55);
    }

    #[test]
    fn utilization_is_bounded() {
        let stats = analyze(&figure1_schedule([1, 0, 3, 2]));
        assert!(stats.peak_link_utilization > 0.0);
        assert!(stats.peak_link_utilization <= 1.0);
    }

    #[test]
    fn contention_free_mapping_has_clean_stats() {
        let stats = analyze(&figure1_schedule([3, 0, 1, 2]));
        assert_eq!(stats.contention_cycles, 0);
        assert_eq!(stats.contention_events, 0);
        assert_eq!(stats.texec_cycles, 90);
    }

    #[test]
    fn critical_path_of_figure1_mapping_c() {
        let sched = figure1_schedule([1, 0, 3, 2]);
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        let e = g.add_core("E");
        let f = g.add_core("F");
        let pab1 = g.add_packet(a, b, 6, 15).unwrap();
        let pbf1 = g.add_packet(b, f, 10, 40).unwrap();
        let pea1 = g.add_packet(e, a, 10, 20).unwrap();
        let pea2 = g.add_packet(e, a, 20, 15).unwrap();
        let paf1 = g.add_packet(a, f, 6, 15).unwrap();
        let pfb1 = g.add_packet(f, b, 6, 15).unwrap();
        g.add_dependence(pea1, pea2).unwrap();
        g.add_dependence(pab1, paf1).unwrap();
        g.add_dependence(pea1, paf1).unwrap();
        g.add_dependence(pbf1, pfb1).unwrap();
        g.add_dependence(paf1, pfb1).unwrap();
        // texec is set by pFB1, whose readiness came from pAF1, whose
        // readiness came from pEA1 (delivered 36 > pAB1's 27).
        let chain = critical_path(&sched, &g);
        assert_eq!(chain, vec![pea1, paf1, pfb1]);
        // The chain starts at a Start packet and ends at the last
        // delivery.
        assert!(g.predecessors(chain[0]).is_empty());
        assert_eq!(sched.packet(*chain.last().unwrap()).delivery, 100);
    }

    #[test]
    fn critical_path_is_empty_for_empty_schedules() {
        let mut g = Cdcg::new();
        g.add_core("A");
        g.add_core("B");
        let mesh = Mesh::new(2, 1).unwrap();
        let mapping = Mapping::identity(&mesh, 2).unwrap();
        let sched = schedule(&g, &mesh, &mapping, &SimParams::paper_example()).unwrap();
        assert!(critical_path(&sched, &g).is_empty());
    }

    #[test]
    fn max_load_dominates_mean() {
        let stats = analyze(&figure1_schedule([1, 0, 3, 2]));
        assert!(stats.max_link_load_bits as f64 >= stats.mean_link_load_bits);
        assert!(stats.used_links > 0);
    }
}
