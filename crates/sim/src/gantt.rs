//! Timing diagrams in the style of the paper's Figures 4 and 5.
//!
//! A [`GanttChart`] decomposes every packet's lifetime into the four delay
//! classes of the paper's legend — *computation*, *routing*, *contention*
//! and *packet* delay — and renders them as an ASCII chart whose rows are
//! packets and whose columns are clock cycles.

use crate::schedule::Schedule;
use noc_model::{Cdcg, PacketId};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

use crate::interval::CycleInterval;

/// The delay classes of the paper's timing-diagram legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentKind {
    /// The source core computing before injection (`t_aq`).
    Computation,
    /// Waiting for the injection link (only with same-core concurrency).
    InjectionWait,
    /// Header travelling through routers and links (Eq. 6).
    Routing,
    /// Header blocked in a router buffer behind a busy link.
    Contention,
    /// Body flits draining behind the header (Eq. 7).
    Packet,
}

impl SegmentKind {
    /// One-character glyph used by the ASCII renderer.
    pub fn glyph(self) -> char {
        match self {
            Self::Computation => '=',
            Self::InjectionWait => 'w',
            Self::Routing => '>',
            Self::Contention => 'X',
            Self::Packet => '#',
        }
    }

    /// Human-readable legend entry.
    pub fn label(self) -> &'static str {
        match self {
            Self::Computation => "computation delay",
            Self::InjectionWait => "injection wait",
            Self::Routing => "routing delay",
            Self::Contention => "contention delay",
            Self::Packet => "packet delay",
        }
    }
}

/// One row of the chart: a packet's labelled delay segments in time order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GanttRow {
    /// The packet.
    pub packet: PacketId,
    /// Display label, e.g. `15(A→B):6`.
    pub label: String,
    /// Contiguous, non-overlapping segments from readiness to delivery.
    pub segments: Vec<(SegmentKind, CycleInterval)>,
}

impl GanttRow {
    /// Delivery cycle of the row's packet (end of the last segment).
    pub fn end(&self) -> u64 {
        self.segments.last().map_or(0, |(_, i)| i.end)
    }

    /// Total cycles spent in one delay class.
    // noc-verify: allow(API02) — test oracle: the Figure 4/5 timing-diagram tests sum delay classes with it
    pub fn cycles_in(&self, kind: SegmentKind) -> u64 {
        self.segments
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, i)| i.len())
            .sum()
    }
}

/// A complete timing diagram for one schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GanttChart {
    rows: Vec<GanttRow>,
    texec_cycles: u64,
}

impl GanttChart {
    /// Builds the chart for a schedule. Labels use the core names of
    /// `cdcg`, in the paper's `bits(src→dst):comp` notation.
    pub fn from_schedule(schedule: &Schedule, cdcg: &Cdcg) -> Self {
        let tl = schedule.params().link_cycles;
        let rows = schedule
            .packets()
            .iter()
            .map(|ps| {
                let packet = cdcg.packet(ps.packet);
                let src = cdcg.core_name(packet.src).unwrap_or("?");
                let dst = cdcg.core_name(packet.dst).unwrap_or("?");
                let label = format!("{}({src}→{dst}):{}", packet.bits, packet.comp_cycles);

                let mut segments = Vec::new();
                let push = |segments: &mut Vec<(SegmentKind, CycleInterval)>,
                            kind: SegmentKind,
                            start: u64,
                            end: u64| {
                    if end > start {
                        segments.push((kind, CycleInterval::new(start, end)));
                    }
                };

                push(
                    &mut segments,
                    SegmentKind::Computation,
                    ps.ready,
                    ps.inject_request,
                );
                let inject = ps.inject();
                push(
                    &mut segments,
                    SegmentKind::InjectionWait,
                    ps.inject_request,
                    inject,
                );

                // Header trip: routing pieces interleaved with contention
                // waits, reconstructed from this packet's contention log.
                let mut cursor = inject;
                let mut events: Vec<_> = schedule
                    .contention_events()
                    .iter()
                    .filter(|e| {
                        e.packet == ps.packet && !matches!(e.link, noc_model::Link::Injection(_))
                    })
                    .collect();
                events.sort_by_key(|e| e.requested);
                for ev in events {
                    push(&mut segments, SegmentKind::Routing, cursor, ev.requested);
                    push(
                        &mut segments,
                        SegmentKind::Contention,
                        ev.requested,
                        ev.granted,
                    );
                    cursor = ev.granted;
                }
                // The header reaches the destination core one link time
                // after it enters the ejection link.
                let ejection_entry = ps.links.last().expect("path has links").1.start;
                let head_arrival = ejection_entry + tl;
                push(&mut segments, SegmentKind::Routing, cursor, head_arrival);
                push(
                    &mut segments,
                    SegmentKind::Packet,
                    head_arrival,
                    ps.delivery,
                );
                GanttRow {
                    packet: ps.packet,
                    label,
                    segments,
                }
            })
            .collect();
        Self {
            rows,
            texec_cycles: schedule.texec_cycles(),
        }
    }

    /// The rows, one per packet in packet-id order.
    pub fn rows(&self) -> &[GanttRow] {
        &self.rows
    }

    /// Execution time of the underlying schedule.
    pub fn texec_cycles(&self) -> u64 {
        self.texec_cycles
    }

    /// Renders the chart as ASCII art, at most `max_width` columns for the
    /// time axis (the scale is chosen automatically). Includes a legend
    /// and a cycle ruler.
    pub fn render(&self, max_width: usize) -> String {
        let max_width = max_width.max(10);
        let span = self.texec_cycles.max(1);
        let scale = span.div_ceil(max_width as u64).max(1);
        let columns = span.div_ceil(scale) as usize;
        let label_width = self
            .rows
            .iter()
            .map(|r| r.label.chars().count())
            .max()
            .unwrap_or(0)
            .max(8);

        let mut out = String::new();
        let _ = writeln!(
            out,
            "time: 0..{} cycles, {} cycle(s) per column",
            self.texec_cycles, scale
        );
        for row in &self.rows {
            let mut lane = vec!['.'; columns];
            for (kind, interval) in &row.segments {
                let from = (interval.start / scale) as usize;
                let to = (interval.end.div_ceil(scale) as usize).min(columns);
                for cell in lane.iter_mut().take(to).skip(from) {
                    // Later (more specific) segments may share a cell with
                    // an earlier one at coarse scales; prefer contention so
                    // hotspots stay visible.
                    if *cell == '.' || kind.glyph() == 'X' {
                        *cell = kind.glyph();
                    }
                }
            }
            let _ = writeln!(
                out,
                "{:label_width$} |{}|",
                row.label,
                lane.iter().collect::<String>()
            );
        }
        let legend: Vec<String> = [
            SegmentKind::Computation,
            SegmentKind::Routing,
            SegmentKind::Packet,
            SegmentKind::Contention,
            SegmentKind::InjectionWait,
        ]
        .iter()
        .map(|k| format!("{}={}", k.glyph(), k.label()))
        .collect();
        let _ = writeln!(out, "legend: {}", legend.join(", "));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimParams;
    use crate::schedule::schedule;
    use noc_model::{Mapping, Mesh, TileId};

    fn figure1_cdcg() -> Cdcg {
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
        g
    }

    fn chart(tiles: [usize; 4]) -> GanttChart {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
        let sched = schedule(&cdcg, &mesh, &mapping, &SimParams::paper_example()).unwrap();
        GanttChart::from_schedule(&sched, &cdcg)
    }

    #[test]
    fn figure4_contention_segment() {
        let chart = chart([1, 0, 3, 2]); // mapping (c)
        assert_eq!(chart.texec_cycles(), 100);
        // pAF1 is row 4: comp 6, then routing/contention/routing/packet.
        let row = &chart.rows()[4];
        assert_eq!(row.label, "15(A→F):6");
        assert_eq!(row.cycles_in(SegmentKind::Computation), 6);
        assert_eq!(row.cycles_in(SegmentKind::Contention), 7);
        // Uncontended routing of K=3 routers: 3*(2+1)+1 = 10 cycles.
        assert_eq!(row.cycles_in(SegmentKind::Routing), 10);
        // Body drain: 14 cycles (15 flits).
        assert_eq!(row.cycles_in(SegmentKind::Packet), 14);
        assert_eq!(row.end(), 73);
    }

    #[test]
    fn figure5_has_no_contention() {
        let chart = chart([3, 0, 1, 2]); // mapping (d)
        assert_eq!(chart.texec_cycles(), 90);
        for row in chart.rows() {
            assert_eq!(
                row.cycles_in(SegmentKind::Contention),
                0,
                "row {} should be contention-free",
                row.label
            );
        }
    }

    #[test]
    fn segments_are_contiguous() {
        let chart = chart([1, 0, 3, 2]);
        for row in chart.rows() {
            for pair in row.segments.windows(2) {
                assert_eq!(pair[0].1.end, pair[1].1.start, "gap in row {}", row.label);
            }
        }
    }

    #[test]
    fn segment_budget_accounts_for_latency() {
        // comp + wait + routing + contention + packet = delivery - ready.
        let chart = chart([1, 0, 3, 2]);
        for row in chart.rows() {
            let total: u64 = row.segments.iter().map(|(_, i)| i.len()).sum();
            let first = row.segments.first().unwrap().1.start;
            assert_eq!(first + total, row.end());
        }
    }

    #[test]
    fn figure4_packet_rows_match_paper_labels() {
        let chart = chart([1, 0, 3, 2]);
        let labels: Vec<&str> = chart.rows().iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "15(A→B):6",
                "40(B→F):10",
                "20(E→A):10",
                "15(E→A):20",
                "15(A→F):6",
                "15(F→B):6",
            ]
        );
    }

    #[test]
    fn render_is_stable_and_legible() {
        let chart = chart([1, 0, 3, 2]);
        let art = chart.render(100);
        assert!(art.contains("15(A→F):6"));
        assert!(art.contains('X'), "contention glyph must appear:\n{art}");
        assert!(art.contains("legend:"));
        // Deterministic output.
        assert_eq!(art, chart.render(100));
    }

    #[test]
    fn render_scales_down() {
        let chart = chart([1, 0, 3, 2]);
        let art = chart.render(20);
        let widest = art
            .lines()
            .filter(|l| l.contains('|'))
            .map(|l| l.chars().count())
            .max()
            .unwrap();
        assert!(widest < 60, "expected compressed chart, got width {widest}");
    }
}
