//! The CDCM execution algorithm: scheduling a CDCG onto a mapped mesh.
//!
//! This module implements the paper's §4 algorithm. Execution starts from
//! the vertices the `Start` vertex points to; a vertex may execute once all
//! of its input edges are free (all predecessor packets delivered); the
//! originating core then computes for the packet's `comp_cycles` and
//! injects it. Each packet walks its XY path, annotating every CRG
//! resource with the absolute interval it occupies (the *cost variable
//! lists* of the paper, rendered in Figure 3). When two packets compete
//! for the same inter-router link, the later requester is "contained into
//! the router input buffer" and its remaining hops are delayed. When all
//! paths reach `End`, the application execution time `texec` is known.
//!
//! ## Timing rules (validated against Figures 3–5, see DESIGN.md §2)
//!
//! With `tr` routing cycles, `tl` link cycles and `n` flits:
//!
//! * injection link busy `[t0, t0 + n·tl)`;
//! * a router receives the header one `tl` after the feeding link is
//!   entered, spends `tr` deciding, then requests the output link;
//! * a free link is entered immediately; a busy one is entered `tr` cycles
//!   after it frees (re-arbitration), FCFS by request time;
//! * every link is busy `n·tl` from entry; a router is busy from header
//!   arrival until its last flit starts on the output link;
//! * delivery = ejection-link entry + `n·tl`; the uncontended end-to-end
//!   delay reduces to Equation (8), `K(tr+tl) + tl·n` cycles;
//! * **input-port FIFO**: wormhole buffers are per input port, so a
//!   packet's header can only be routed once the previous packet that
//!   arrived through the same link has completely left the router. The
//!   paper's figures never exercise this (their overlapping transfers
//!   arrive on distinct ports), but the flit-level simulator in
//!   [`crate::des`] enforces it physically, and the two implementations
//!   agree cycle-exactly because this model tracks it too. FIFO waits
//!   are logged as [`ContentionEvent`]s on the *incoming* link.
//!
//! [`schedule_with`] has no event loop of its own: it runs the engine of
//! [`crate::cost`] with a recorder that collects the intervals and waits
//! above.

use crate::cost::{init_run, run_primed, Recorder, ScheduleScratch};
use crate::error::SimError;
use crate::interval::CycleInterval;
use crate::params::SimParams;
use crate::resource::{Occupancy, OccupancyMap, Resource};
use noc_model::{
    Cdcg, Link, Mapping, Mesh, PacketId, RouteProvider, RouteSource, RoutingAlgorithm, RoutingKind,
    TileId, XyRouting,
};
use serde::{Deserialize, Serialize};

/// A contention incident: `packet` asked for `link` at `requested` but the
/// link was held by another packet, so it was granted only at `granted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentionEvent {
    /// Delayed packet.
    pub packet: PacketId,
    /// Contended link.
    pub link: Link,
    /// Cycle at which the packet first requested the link.
    pub requested: u64,
    /// Cycle at which the link was granted.
    pub granted: u64,
}

impl ContentionEvent {
    /// Cycles lost to this incident.
    pub fn delay(&self) -> u64 {
        self.granted - self.requested
    }
}

/// The complete timeline of one packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketSchedule {
    /// The packet.
    pub packet: PacketId,
    /// Cycle at which every dependence was satisfied (0 for Start packets).
    pub ready: u64,
    /// Cycle at which injection was requested (`ready + comp_cycles`).
    pub inject_request: u64,
    /// Occupancy of each router on the path, in traversal order.
    pub routers: Vec<(TileId, CycleInterval)>,
    /// Occupancy of each link on the path (injection, internals, ejection),
    /// in traversal order.
    pub links: Vec<(Link, CycleInterval)>,
    /// Cycle at which the last flit reached the destination core.
    pub delivery: u64,
    /// Total cycles lost waiting for busy links.
    pub contention_cycles: u64,
}

impl PacketSchedule {
    /// Occupancy of the injection link.
    pub fn injection(&self) -> CycleInterval {
        self.links[0].1
    }

    /// Cycle at which the packet entered the network (its injection-link
    /// entry; equals `inject_request` unless the core link was busy).
    pub fn inject(&self) -> u64 {
        self.injection().start
    }

    /// End-to-end latency from injection to delivery, in cycles.
    pub fn latency(&self) -> u64 {
        self.delivery - self.inject()
    }

    /// Number of routers traversed (the paper's `K`).
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }
}

/// Result of executing a CDCG on a mapped mesh: per-packet timelines,
/// per-resource occupancy lists, contention log and the application
/// execution time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    params: SimParams,
    packets: Vec<PacketSchedule>,
    occupancy: OccupancyMap,
    contention: Vec<ContentionEvent>,
    texec_cycles: u64,
}

impl Schedule {
    /// Application execution time in clock cycles (delivery of the last
    /// packet).
    pub fn texec_cycles(&self) -> u64 {
        self.texec_cycles
    }

    /// Application execution time in nanoseconds (`texec · λ`).
    pub fn texec_ns(&self) -> f64 {
        self.params.cycles_to_ns(self.texec_cycles)
    }

    /// The parameter set the schedule was produced with.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Timeline of one packet.
    ///
    /// # Panics
    ///
    /// Panics if `packet` is out of range for the scheduled application.
    pub fn packet(&self, packet: PacketId) -> &PacketSchedule {
        &self.packets[packet.index()]
    }

    /// All packet timelines, indexed by packet id.
    pub fn packets(&self) -> &[PacketSchedule] {
        &self.packets
    }

    /// The cost variable lists: every resource with the packets that
    /// occupied it (paper Figure 3).
    pub fn occupancy(&self) -> &OccupancyMap {
        &self.occupancy
    }

    /// All contention incidents, in grant order.
    pub fn contention_events(&self) -> &[ContentionEvent] {
        &self.contention
    }

    /// Total cycles lost to contention across all packets.
    pub fn total_contention_cycles(&self) -> u64 {
        self.packets.iter().map(|p| p.contention_cycles).sum()
    }

    /// True if no packet ever waited for a resource (the property the
    /// paper highlights for the Figure 3(b) mapping).
    pub fn is_contention_free(&self) -> bool {
        self.contention.is_empty()
    }

    /// Renders the occupancy lists in the notation of the paper's
    /// Figure 3: `bits(src→dst):[start,end]` per resource.
    pub fn paper_annotations(&self, cdcg: &Cdcg) -> Vec<(Resource, Vec<String>)> {
        self.occupancy
            .iter()
            .map(|(res, occs)| {
                let mut sorted: Vec<&Occupancy> = occs.iter().collect();
                sorted.sort_by_key(|o| (o.interval.start, o.packet));
                let lines = sorted
                    .into_iter()
                    .map(|o| {
                        let p = cdcg.packet(o.packet);
                        let src = cdcg.core_name(p.src).unwrap_or("?");
                        let dst = cdcg.core_name(p.dst).unwrap_or("?");
                        format!("{}({src}→{dst}):{}", o.bits, o.interval)
                    })
                    .collect();
                (res, lines)
            })
            .collect()
    }
}

/// Schedules `cdcg` on `mesh` under `mapping` with XY routing.
///
/// This is the CDCM evaluation step of the paper: it produces everything
/// needed by the cost function of Equation (10) — the occupancy lists for
/// dynamic energy and `texec` for static energy.
///
/// # Errors
///
/// Returns [`SimError::CoreCountMismatch`] if the mapping and the
/// application disagree on the number of cores, and [`SimError::Model`] if
/// either structure fails validation.
///
/// # Examples
///
/// ```
/// use noc_model::{Cdcg, Mapping, Mesh, TileId};
/// use noc_sim::{schedule, SimParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut app = Cdcg::new();
/// let a = app.add_core("A");
/// let b = app.add_core("B");
/// app.add_packet(a, b, 6, 15)?;
/// let mesh = Mesh::new(2, 2)?;
/// let mapping = Mapping::identity(&mesh, 2)?;
/// let sched = schedule(&app, &mesh, &mapping, &SimParams::paper_example())?;
/// // Eq. 8: K=2 routers, 15 flits -> injected at 6, delivered at 6+21.
/// assert_eq!(sched.texec_cycles(), 27);
/// # Ok(())
/// # }
/// ```
pub fn schedule(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    params: &SimParams,
) -> Result<Schedule, SimError> {
    schedule_with(cdcg, mesh, mapping, params, &XyRouting)
}

/// Same as [`schedule`] with an explicit routing algorithm.
///
/// The algorithm is resolved by name ([`RoutingKind::from_name`]) and the
/// run walks that kind's routes on the implicit route tier, which needs
/// no route table for one run.
///
/// # Errors
///
/// See [`schedule`]. An algorithm whose name is no library routing's
/// fails with [`SimError::UnknownRouting`].
pub fn schedule_with(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    params: &SimParams,
    routing: &dyn RoutingAlgorithm,
) -> Result<Schedule, SimError> {
    let name = routing.name();
    let kind = RoutingKind::from_name(name).ok_or(SimError::UnknownRouting { name })?;
    let routes = RouteProvider::implicit(mesh, kind);
    let mut scratch = ScheduleScratch::new();
    init_run(cdcg, mesh, mapping, params, &routes, None, &mut scratch)?;
    let mut rec = Artifacts::new(cdcg, &routes, &scratch);
    let texec_cycles = run_primed(cdcg, params, &routes, &mut scratch, &mut rec);

    // Fill in the ready times, then build the per-resource cost variable
    // lists from the timelines.
    let (_, ready, _) = scratch.run_state();
    let mut occupancy = OccupancyMap::new();
    for (sched, &ready) in rec.packets.iter_mut().zip(ready) {
        let p = cdcg.packet(sched.packet);
        sched.ready = ready;
        sched.inject_request = ready + p.comp_cycles;
        let routers = sched.routers.iter().map(|&(t, i)| (Resource::Router(t), i));
        let links = sched.links.iter().map(|&(l, i)| (Resource::Link(l), i));
        for (resource, interval) in routers.chain(links) {
            let (packet, bits) = (sched.packet, p.bits);
            occupancy.record(
                resource,
                Occupancy {
                    packet,
                    bits,
                    interval,
                },
            );
        }
    }
    occupancy.sort();
    rec.contention.sort_by_key(|c| (c.granted, c.packet));
    Ok(Schedule {
        params: *params,
        packets: rec.packets,
        occupancy,
        contention: rec.contention,
        texec_cycles,
    })
}

/// The recorder behind [`schedule_with`]: per-packet timelines and the
/// contention log, collected from the engine's hooks.
struct Artifacts {
    /// Per packet: its resource walk as physical links.
    walks: Vec<Vec<Link>>,
    /// Per packet: the timeline (`ready` and `inject_request` are filled
    /// in after the run).
    packets: Vec<PacketSchedule>,
    /// Per packet: the cycle its header entered its current router.
    entered: Vec<u64>,
    /// Every wait, in the order the loop granted it.
    contention: Vec<ContentionEvent>,
}

impl Artifacts {
    /// Decodes every packet's walk from the scratch `init_run` primed.
    fn new(cdcg: &Cdcg, routes: &RouteProvider, scratch: &ScheduleScratch) -> Self {
        let (spans, _, arena) = scratch.run_state();
        let flat = routes.flat(arena);
        let decode = |&id: &u32| routes.link_at(id).expect("walk ids decode to links");
        let (walks, packets) = cdcg
            .packet_ids()
            .zip(spans)
            .map(|(packet, &(start, len))| {
                let walk = flat[start as usize..(start + len) as usize].iter();
                let empty = PacketSchedule {
                    packet,
                    ready: 0,
                    inject_request: 0,
                    routers: Vec::new(),
                    links: Vec::new(),
                    delivery: 0,
                    contention_cycles: 0,
                };
                (walk.map(decode).collect(), empty)
            })
            .unzip();
        Self {
            walks,
            packets,
            entered: vec![0; cdcg.packet_count()],
            contention: Vec::new(),
        }
    }

    /// Logs a wait of `p` for `link` when it was granted late.
    fn wait(&mut self, p: usize, link: Link, requested: u64, granted: u64) {
        if granted > requested {
            self.packets[p].contention_cycles += granted - requested;
            let packet = PacketId::new(p);
            self.contention.push(ContentionEvent {
                packet,
                link,
                requested,
                granted,
            });
        }
    }
}

impl Recorder for Artifacts {
    fn link_grant(&mut self, p: usize, at: usize, requested: u64, granted: u64, busy: u64) {
        let link = self.walks[p][at];
        let interval = CycleInterval::new(granted, granted + busy);
        self.packets[p].links.push((link, interval));
        self.wait(p, link, requested, granted);
    }

    fn router_entry(&mut self, p: usize, _hop: usize, time: u64) {
        self.entered[p] = time;
    }

    fn fifo_wait(&mut self, p: usize, hop: usize, arrival: u64, owned: u64) {
        self.wait(p, self.walks[p][hop], arrival, owned);
    }

    fn router_leave(&mut self, p: usize, hop: usize, time: u64) {
        // Router `hop` is the tile its feeding link enters.
        let router = match self.walks[p][hop] {
            Link::Injection(tile) | Link::Ejection(tile) => tile,
            Link::Internal { to, .. } => to,
        };
        let interval = CycleInterval::new(self.entered[p], time);
        self.packets[p].routers.push((router, interval));
    }

    fn delivery(&mut self, p: usize, time: u64) {
        self.packets[p].delivery = time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::Mesh;

    /// Figure 1 application with cores in order A, B, E, F.
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

    fn mapping_c(mesh: &Mesh) -> Mapping {
        // Figure 1(c): A@τ2, B@τ1, E@τ4, F@τ3 (zero-based tiles 1,0,3,2).
        Mapping::from_tiles(mesh, [1, 0, 3, 2].map(TileId::new)).unwrap()
    }

    fn mapping_d(mesh: &Mesh) -> Mapping {
        // Figure 1(d): A@τ4, B@τ1, E@τ2, F@τ3.
        Mapping::from_tiles(mesh, [3, 0, 1, 2].map(TileId::new)).unwrap()
    }

    #[test]
    fn figure3a_execution_time_is_100() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let sched = schedule(&cdcg, &mesh, &mapping_c(&mesh), &SimParams::paper_example()).unwrap();
        assert_eq!(sched.texec_cycles(), 100);
        assert_eq!(sched.texec_ns(), 100.0);
        assert!(!sched.is_contention_free());
    }

    #[test]
    fn figure3b_execution_time_is_90() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let sched = schedule(&cdcg, &mesh, &mapping_d(&mesh), &SimParams::paper_example()).unwrap();
        assert_eq!(sched.texec_cycles(), 90);
        assert!(sched.is_contention_free());
    }

    #[test]
    fn figure3a_packet_intervals_match_paper() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let sched = schedule(&cdcg, &mesh, &mapping_c(&mesh), &SimParams::paper_example()).unwrap();

        // pAB1 (packet 0): inj [6,21], Rτ2 [7,23], link τ2→τ1 [9,24],
        // Rτ1 [10,26], ej [12,27], delivered 27.
        let pab1 = sched.packet(PacketId::new(0));
        assert_eq!(pab1.injection(), CycleInterval::new(6, 21));
        assert_eq!(pab1.routers[0].1, CycleInterval::new(7, 23));
        assert_eq!(pab1.links[1].1, CycleInterval::new(9, 24));
        assert_eq!(pab1.routers[1].1, CycleInterval::new(10, 26));
        assert_eq!(pab1.links[2].1, CycleInterval::new(12, 27));
        assert_eq!(pab1.delivery, 27);

        // pBF1 (packet 1): inj [10,50], Rτ1 [11,52], link τ1→τ3 [13,53],
        // Rτ3 [14,55], ej [16,56], delivered 56.
        let pbf1 = sched.packet(PacketId::new(1));
        assert_eq!(pbf1.injection(), CycleInterval::new(10, 50));
        assert_eq!(pbf1.routers[0].1, CycleInterval::new(11, 52));
        assert_eq!(pbf1.links[1].1, CycleInterval::new(13, 53));
        assert_eq!(pbf1.routers[1].1, CycleInterval::new(14, 55));
        assert_eq!(pbf1.links[2].1, CycleInterval::new(16, 56));
        assert_eq!(pbf1.delivery, 56);

        // pEA1 (packet 2): inj [10,30], Rτ4 [11,32], link τ4→τ2 [13,33],
        // Rτ2 [14,35], ej [16,36], delivered 36.
        let pea1 = sched.packet(PacketId::new(2));
        assert_eq!(pea1.injection(), CycleInterval::new(10, 30));
        assert_eq!(pea1.routers[0].1, CycleInterval::new(11, 32));
        assert_eq!(pea1.links[1].1, CycleInterval::new(13, 33));
        assert_eq!(pea1.routers[1].1, CycleInterval::new(14, 35));
        assert_eq!(pea1.links[2].1, CycleInterval::new(16, 36));
        assert_eq!(pea1.delivery, 36);

        // pEA2 (packet 3): ready at 36, comp 20 -> inj [56,71], delivered 77.
        let pea2 = sched.packet(PacketId::new(3));
        assert_eq!(pea2.ready, 36);
        assert_eq!(pea2.injection(), CycleInterval::new(56, 71));
        assert_eq!(pea2.routers[0].1, CycleInterval::new(57, 73));
        assert_eq!(pea2.links[1].1, CycleInterval::new(59, 74));
        assert_eq!(pea2.routers[1].1, CycleInterval::new(60, 76));
        assert_eq!(pea2.links[2].1, CycleInterval::new(62, 77));
        assert_eq!(pea2.delivery, 77);

        // pAF1 (packet 4): ready max(27, 36) = 36, inj [42,57],
        // Rτ2 [43,59], link τ2→τ1 [45,60], then *contention* at Rτ1:
        // link τ1→τ3 busy until 53 -> entry 55; Rτ1 [46,69],
        // link τ1→τ3 [55,70], Rτ3 [56,72], ej [58,73], delivered 73.
        let paf1 = sched.packet(PacketId::new(4));
        assert_eq!(paf1.ready, 36);
        assert_eq!(paf1.injection(), CycleInterval::new(42, 57));
        assert_eq!(paf1.routers[0].1, CycleInterval::new(43, 59));
        assert_eq!(paf1.links[1].1, CycleInterval::new(45, 60));
        assert_eq!(paf1.routers[1].1, CycleInterval::new(46, 69));
        assert_eq!(paf1.links[2].1, CycleInterval::new(55, 70));
        assert_eq!(paf1.routers[2].1, CycleInterval::new(56, 72));
        assert_eq!(paf1.links[3].1, CycleInterval::new(58, 73));
        assert_eq!(paf1.delivery, 73);
        assert_eq!(paf1.contention_cycles, 7);

        // pFB1 (packet 5): ready max(56, 73) = 73, comp 6 -> inj [79,94],
        // Rτ3 [80,96], link τ3→τ1 [82,97], Rτ1 [83,99], ej [85,100],
        // delivered 100.
        let pfb1 = sched.packet(PacketId::new(5));
        assert_eq!(pfb1.ready, 73);
        assert_eq!(pfb1.injection(), CycleInterval::new(79, 94));
        assert_eq!(pfb1.routers[0].1, CycleInterval::new(80, 96));
        assert_eq!(pfb1.links[1].1, CycleInterval::new(82, 97));
        assert_eq!(pfb1.routers[1].1, CycleInterval::new(83, 99));
        assert_eq!(pfb1.links[2].1, CycleInterval::new(85, 100));
        assert_eq!(pfb1.delivery, 100);
    }

    #[test]
    fn figure3b_packet_intervals_match_paper() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let sched = schedule(&cdcg, &mesh, &mapping_d(&mesh), &SimParams::paper_example()).unwrap();

        // pAB1: A@τ4 → B@τ1 crosses 3 routers: inj [6,21], Rτ4 [7,23],
        // τ4→τ3 [9,24], Rτ3 [10,26], τ3→τ1 [12,27], Rτ1 [13,29],
        // ej [15,30], delivered 30.
        let pab1 = sched.packet(PacketId::new(0));
        assert_eq!(pab1.injection(), CycleInterval::new(6, 21));
        assert_eq!(pab1.routers[0].1, CycleInterval::new(7, 23));
        assert_eq!(pab1.links[1].1, CycleInterval::new(9, 24));
        assert_eq!(pab1.routers[1].1, CycleInterval::new(10, 26));
        assert_eq!(pab1.links[2].1, CycleInterval::new(12, 27));
        assert_eq!(pab1.routers[2].1, CycleInterval::new(13, 29));
        assert_eq!(pab1.links[3].1, CycleInterval::new(15, 30));
        assert_eq!(pab1.delivery, 30);

        // pAF1: ready max(30, 36) = 36, inj [42,57], Rτ4 [43,59],
        // τ4→τ3 [45,60], Rτ3 [46,62], ej [48,63] — overlaps pBF1's
        // ejection [16,56] without contention (paper model).
        let paf1 = sched.packet(PacketId::new(4));
        assert_eq!(paf1.ready, 36);
        assert_eq!(paf1.injection(), CycleInterval::new(42, 57));
        assert_eq!(paf1.routers[1].1, CycleInterval::new(46, 62));
        assert_eq!(paf1.links[2].1, CycleInterval::new(48, 63));
        assert_eq!(paf1.delivery, 63);
        assert_eq!(paf1.contention_cycles, 0);

        // pBF1 ejection [16,56].
        let pbf1 = sched.packet(PacketId::new(1));
        assert_eq!(pbf1.links[2].1, CycleInterval::new(16, 56));

        // pFB1: ready max(56, 63) = 63, comp 6 -> inj [69,84], delivered 90.
        let pfb1 = sched.packet(PacketId::new(5));
        assert_eq!(pfb1.ready, 63);
        assert_eq!(pfb1.injection(), CycleInterval::new(69, 84));
        assert_eq!(pfb1.delivery, 90);
    }

    #[test]
    fn contention_event_log_matches_figure4() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let sched = schedule(&cdcg, &mesh, &mapping_c(&mesh), &SimParams::paper_example()).unwrap();
        assert_eq!(sched.contention_events().len(), 1);
        let ev = sched.contention_events()[0];
        assert_eq!(ev.packet, PacketId::new(4)); // pAF1
        assert_eq!(ev.link, Link::between(TileId::new(0), TileId::new(2)));
        assert_eq!(ev.requested, 48);
        assert_eq!(ev.granted, 55);
        assert_eq!(ev.delay(), 7);
        assert_eq!(sched.total_contention_cycles(), 7);
    }

    #[test]
    fn ejection_contention_flag_serializes_deliveries() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let mut params = SimParams::paper_example();
        params.ejection_contention = true;
        let sched = schedule(&cdcg, &mesh, &mapping_d(&mesh), &params).unwrap();
        // With strict ejection arbitration the Fig. 3(b) mapping is no
        // longer contention-free: pAF1 waits for pBF1 on the link into F.
        assert!(!sched.is_contention_free());
        assert!(sched.texec_cycles() > 90);
    }

    #[test]
    fn mismatched_mapping_is_rejected() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = Mapping::identity(&mesh, 3).unwrap();
        let err = schedule(&cdcg, &mesh, &mapping, &SimParams::paper_example());
        assert!(matches!(err, Err(SimError::CoreCountMismatch { .. })));
    }

    #[test]
    fn empty_application_takes_zero_time() {
        let mut g = Cdcg::new();
        g.add_core("A");
        g.add_core("B");
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = Mapping::identity(&mesh, 2).unwrap();
        let sched = schedule(&g, &mesh, &mapping, &SimParams::paper_example()).unwrap();
        assert_eq!(sched.texec_cycles(), 0);
        assert!(sched.is_contention_free());
    }

    #[test]
    fn uncontended_delivery_matches_equation_8() {
        // A single packet's latency must equal Eq. 8 exactly.
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        g.add_packet(a, b, 7, 64).unwrap();
        let mesh = Mesh::new(4, 4).unwrap();
        // Place A at (0,0) and B at (3,2): K = 6 routers.
        let mapping = Mapping::from_tiles(&mesh, [TileId::new(0), TileId::new(11)]).unwrap();
        let params = SimParams::paper_example();
        let sched = schedule(&g, &mesh, &mapping, &params).unwrap();
        let expected = crate::wormhole::total_delay_cycles(&params, 6, 64);
        assert_eq!(sched.packet(PacketId::new(0)).latency(), expected);
        assert_eq!(sched.texec_cycles(), 7 + expected);
    }

    #[test]
    fn injection_serialization_orders_same_core_packets() {
        // Two independent packets from the same core must share the
        // injection link.
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        let c = g.add_core("C");
        g.add_packet(a, b, 0, 10).unwrap();
        g.add_packet(a, c, 0, 10).unwrap();
        let mesh = Mesh::new(3, 1).unwrap();
        let mapping = Mapping::identity(&mesh, 3).unwrap();
        let params = SimParams::paper_example();
        let sched = schedule(&g, &mesh, &mapping, &params).unwrap();
        let i0 = sched.packet(PacketId::new(0)).injection();
        let i1 = sched.packet(PacketId::new(1)).injection();
        assert!(
            !i0.overlaps(&i1),
            "injection link must serialize {i0} vs {i1}"
        );

        let mut free = params;
        free.injection_serialization = false;
        let sched2 = schedule(&g, &mesh, &mapping, &free).unwrap();
        let j0 = sched2.packet(PacketId::new(0)).injection();
        let j1 = sched2.packet(PacketId::new(1)).injection();
        assert!(j0.overlaps(&j1), "serialization off must allow overlap");
    }

    #[test]
    fn occupancy_lists_cover_all_packets() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let sched = schedule(&cdcg, &mesh, &mapping_c(&mesh), &SimParams::paper_example()).unwrap();
        // Every packet contributes K router entries and K+1 link entries.
        let total_entries: usize = sched.occupancy().iter().map(|(_, occs)| occs.len()).sum();
        let expected: usize = sched
            .packets()
            .iter()
            .map(|p| p.routers.len() + p.links.len())
            .sum();
        assert_eq!(total_entries, expected);
    }

    #[test]
    fn paper_annotation_strings() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let sched = schedule(&cdcg, &mesh, &mapping_c(&mesh), &SimParams::paper_example()).unwrap();
        let annotations = sched.paper_annotations(&cdcg);
        let all: Vec<String> = annotations
            .iter()
            .flat_map(|(_, lines)| lines.clone())
            .collect();
        assert!(all.contains(&"15(A→B):[6,21]".to_string()));
        assert!(all.contains(&"15(A→F):[55,70]".to_string()));
        assert!(all.contains(&"15(F→B):[85,100]".to_string()));
    }

    #[test]
    fn input_port_fifo_delays_same_port_followers() {
        // Two packets cross the same link τ1→τ3 back to back with tr=4:
        // the follower's head reaches τ1's input FIFO while the leader is
        // still streaming to the core of τ3, and must wait for the
        // leader's tail to leave the router before its routing decision
        // starts — exactly what the flit-level DES enforces.
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams {
            routing_cycles: 4,
            ..SimParams::paper_example()
        };
        let sched = schedule(&cdcg, &mesh, &mapping_c(&mesh), &params).unwrap();

        // pBF1 (leader) enters the τ1→τ3 link at 15 and forwards its tail
        // out of router τ3 at 20+39 = 59; the FIFO clears at 60.
        let pbf1 = sched.packet(PacketId::new(1));
        assert_eq!(pbf1.links[1].1.start, 15);
        // pAF1 (follower) arrives at router τ3 on the same input link at
        // 57 and is FIFO-blocked until 60; ejection starts at 60+4.
        let paf1 = sched.packet(PacketId::new(4));
        assert_eq!(paf1.routers[2].1.start, 57);
        assert_eq!(paf1.links[3].1.start, 64);
        assert_eq!(paf1.delivery, 79);
        // The wait is logged as contention on the *incoming* link.
        let fifo_events: Vec<_> = sched
            .contention_events()
            .iter()
            .filter(|e| e.packet == PacketId::new(4))
            .collect();
        assert!(
            fifo_events
                .iter()
                .any(|e| e.link == Link::between(TileId::new(0), TileId::new(2))
                    && e.requested == 57
                    && e.granted == 60),
            "expected a FIFO wait on t0→t2, got {fifo_events:?}"
        );
    }

    #[test]
    fn fifo_does_not_fire_when_ports_differ() {
        // Figure 3(b): the two packets into F arrive through different
        // input ports of τ3, so no FIFO coupling exists and the mapping
        // stays contention-free (the paper's claim).
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let sched = schedule(&cdcg, &mesh, &mapping_d(&mesh), &SimParams::paper_example()).unwrap();
        assert!(sched.is_contention_free());
    }

    #[test]
    fn fifo_chains_three_packets_in_arrival_order() {
        // Three independent same-route packets from one core, serialized
        // injection: the input FIFO at the destination router must keep
        // arrival order and space the ejections by full packet times.
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        for _ in 0..3 {
            g.add_packet(a, b, 0, 8).unwrap();
        }
        let mesh = Mesh::new(2, 1).unwrap();
        let mapping = Mapping::identity(&mesh, 2).unwrap();
        let params = SimParams::paper_example(); // injection serialized
        let sched = schedule(&g, &mesh, &mapping, &params).unwrap();
        let deliveries: Vec<u64> = (0..3)
            .map(|i| sched.packet(PacketId::new(i)).delivery)
            .collect();
        assert!(deliveries[0] < deliveries[1]);
        assert!(deliveries[1] < deliveries[2]);
        // Consecutive ejections are at least one packet apart.
        for w in deliveries.windows(2) {
            assert!(w[1] - w[0] >= 8, "deliveries too close: {deliveries:?}");
        }
    }

    #[test]
    fn schedule_serializes_to_json() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let sched = schedule(&cdcg, &mesh, &mapping_c(&mesh), &SimParams::paper_example()).unwrap();
        let json = serde_json::to_string(&sched).expect("schedule serializes");
        let back: Schedule = serde_json::from_str(&json).expect("schedule deserializes");
        assert_eq!(back, sched);
        assert_eq!(back.texec_cycles(), 100);
    }

    #[test]
    fn yx_routing_changes_paths() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let a = schedule(&cdcg, &mesh, &mapping_c(&mesh), &params).unwrap();
        let b = schedule_with(
            &cdcg,
            &mesh,
            &mapping_c(&mesh),
            &params,
            &noc_model::YxRouting,
        )
        .unwrap();
        // Under YX the A→F packet routes via τ4 instead of τ1, avoiding
        // the contention with B→F.
        assert!(b.is_contention_free());
        assert!(a.texec_cycles() > b.texec_cycles());
    }

    #[test]
    fn unknown_routing_names_are_refused() {
        // No route tier calls back into a custom `route`: a name the
        // library does not know gets the typed error, even when the
        // routes it would produce are XY's.
        #[derive(Debug)]
        struct RenamedXy;
        impl RoutingAlgorithm for RenamedXy {
            fn route(&self, mesh: &Mesh, src: TileId, dst: TileId) -> noc_model::Path {
                XyRouting.route(mesh, src, dst)
            }
            fn name(&self) -> &'static str {
                "renamed-XY"
            }
        }
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let params = SimParams::paper_example();
        let err = schedule_with(&cdcg, &mesh, &mapping_c(&mesh), &params, &RenamedXy);
        assert_eq!(err, Err(SimError::UnknownRouting { name: "renamed-XY" }));
        assert_eq!(
            err.unwrap_err().to_string(),
            "unknown routing `renamed-XY`: the engine walks xy, yx, torus-xy, xyz and torus-xyz"
        );
    }
}
