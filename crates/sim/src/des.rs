//! Flit-level, cycle-driven wormhole simulator.
//!
//! This is a second, *independent* implementation of the paper's timing
//! model, used to cross-validate the interval scheduler in
//! [`crate::schedule()`]: routers here have real per-port input buffers,
//! routing decisions are taken per header flit with an XY logic
//! re-implemented from tile coordinates (not reusing
//! [`noc_model::XyRouting`]), output ports arbitrate FCFS with
//! re-arbitration cost `tr`, and flits move one hop per `tl` cycles.
//! Buffers are unbounded, as the paper assumes, and with `tl = 1` the two
//! implementations agree cycle-exactly on injections, deliveries and
//! `texec` (this is asserted in the cross-validation integration tests).
//!
//! Restrictions: dimension-ordered XY/XYZ routing only (X, then Y, then
//! — on 3D meshes — Z down the TSV pillars, matching
//! `noc_model::XyzRouting`), and `injection_serialization` must be
//! enabled (a physical core link cannot interleave two packets).

use crate::error::SimError;
use crate::params::SimParams;
use noc_model::{Cdcg, Coord, Mapping, Mesh, PacketId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Parameters of the flit-level simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesParams {
    /// The shared wormhole timing parameters.
    pub base: SimParams,
    /// Safety bound on simulated cycles.
    pub max_cycles: u64,
}

impl DesParams {
    /// Simulation with the given base parameters.
    pub fn new(base: SimParams) -> Self {
        Self {
            base,
            max_cycles: 100_000_000,
        }
    }
}

impl Default for DesParams {
    fn default() -> Self {
        Self::new(SimParams::default())
    }
}

/// Result of a flit-level simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesReport {
    /// First-flit injection cycle of each packet, indexed by packet id.
    pub injections: Vec<u64>,
    /// Delivery cycle (last flit at the destination core) per packet.
    pub deliveries: Vec<u64>,
    /// Application execution time in cycles.
    pub texec_cycles: u64,
    /// Total cycles the simulator actually iterated (diagnostic).
    pub simulated_cycles: u64,
}

impl DesReport {
    /// Delivery cycle of one packet.
    ///
    /// # Panics
    ///
    /// Panics if `packet` is out of range.
    pub fn delivery(&self, packet: PacketId) -> u64 {
        self.deliveries[packet.index()]
    }
}

const NORTH: usize = 0;
const SOUTH: usize = 1;
const EAST: usize = 2;
const WEST: usize = 3;
const UP: usize = 4; // towards the layer above (z − 1)
const DOWN: usize = 5; // towards the layer below (z + 1)
const LOCAL: usize = 6; // input: from core; output: to core (eject)
const PORTS: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Flit {
    packet: usize,
    idx: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum InState {
    Idle,
    Deciding { packet: usize, remaining: u64 },
    Waiting { packet: usize },
    Streaming { packet: usize, out: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum OutState {
    Free,
    Reserved { in_port: usize },
    Owned { in_port: usize },
}

#[derive(Debug, Clone)]
struct TileState {
    in_buf: [VecDeque<Flit>; PORTS],
    in_state: [InState; PORTS],
    in_next_send: [u64; PORTS],
    out_state: [OutState; PORTS],
    out_free_time: [u64; PORTS],
    out_wait: [Vec<(u64, usize, usize)>; PORTS], // (request_time, packet, in_port)
    // In-flight flits per output port: (arrival_cycle, flit).
    out_transit: [VecDeque<(u64, Flit)>; PORTS],
    // Injection side (core → router link).
    inj_owner: Option<usize>,
    inj_sent: u64,
    inj_next_send: u64,
    inj_transit: VecDeque<(u64, Flit)>,
    inj_wait: Vec<(u64, usize)>, // (want_time, packet)
}

impl TileState {
    fn new() -> Self {
        Self {
            in_buf: Default::default(),
            in_state: [InState::Idle; PORTS],
            in_next_send: [0; PORTS],
            out_state: [OutState::Free; PORTS],
            out_free_time: [0; PORTS],
            out_wait: Default::default(),
            out_transit: Default::default(),
            inj_owner: None,
            inj_sent: 0,
            inj_next_send: 0,
            inj_transit: VecDeque::new(),
            inj_wait: Vec::new(),
        }
    }
}

/// Dimension-ordered (XY, then Z on 3D meshes) output-port decision,
/// re-derived from coordinates (independent of `noc_model::routing`).
/// On a depth-1 mesh the Z clauses are dead and this is exactly the
/// planar XY decision.
fn xy_port(cur: Coord, dst: Coord) -> usize {
    if dst.x > cur.x {
        EAST
    } else if dst.x < cur.x {
        WEST
    } else if dst.y > cur.y {
        SOUTH
    } else if dst.y < cur.y {
        NORTH
    } else if dst.z > cur.z {
        DOWN
    } else if dst.z < cur.z {
        UP
    } else {
        LOCAL
    }
}

fn port_offset(port: usize) -> (isize, isize, isize) {
    match port {
        NORTH => (0, -1, 0),
        SOUTH => (0, 1, 0),
        EAST => (1, 0, 0),
        WEST => (-1, 0, 0),
        UP => (0, 0, -1),
        DOWN => (0, 0, 1),
        _ => (0, 0, 0),
    }
}

/// The input port of the downstream router an output port feeds.
fn opposite_port(port: usize) -> usize {
    match port {
        NORTH => SOUTH,
        SOUTH => NORTH,
        EAST => WEST,
        WEST => EAST,
        UP => DOWN,
        DOWN => UP,
        other => other,
    }
}

/// Runs the flit-level simulation of `cdcg` mapped on `mesh`.
///
/// # Errors
///
/// Returns [`SimError::CoreCountMismatch`] on a core/mapping mismatch,
/// [`SimError::Model`] for invalid structures or unsupported parameters
/// (`injection_serialization = false`), and
/// [`SimError::CycleLimitExceeded`] if packets are still undelivered at
/// `max_cycles`.
///
/// # Examples
///
/// ```
/// use noc_model::{Cdcg, Mapping, Mesh};
/// use noc_sim::des::{simulate, DesParams};
/// use noc_sim::SimParams;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut app = Cdcg::new();
/// let a = app.add_core("A");
/// let b = app.add_core("B");
/// app.add_packet(a, b, 6, 15)?;
/// let mesh = Mesh::new(2, 2)?;
/// let mapping = Mapping::identity(&mesh, 2)?;
/// let report = simulate(&app, &mesh, &mapping, &DesParams::new(SimParams::paper_example()))?;
/// assert_eq!(report.texec_cycles, 27); // Eq. 8: 6 + 2*(2+1) + 15
/// # Ok(())
/// # }
/// ```
// Index-based tile loops are kept throughout the cycle phases: several of
// them need split borrows across tiles (`tiles[ti]` plus a downstream
// `tiles[v]`), and mixing iterator and index styles per phase would hide
// that symmetry.
#[allow(clippy::needless_range_loop)]
// noc-verify: allow(API02) — the independent timing oracle that `tests/cross_validation.rs` compares the interval scheduler against
pub fn simulate(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    params: &DesParams,
) -> Result<DesReport, SimError> {
    if mapping.core_count() != cdcg.core_count() {
        return Err(SimError::CoreCountMismatch {
            mapping: mapping.core_count(),
            application: cdcg.core_count(),
        });
    }
    mapping.validate()?;
    if !params.base.injection_serialization {
        // A physical core link cannot interleave flits of two packets.
        return Err(SimError::Model(noc_model::ModelError::EmptyMesh));
    }

    let base = params.base;
    let tl = base.link_cycles;
    let tr = base.routing_cycles;
    let n_tiles = mesh.tile_count();
    let n_packets = cdcg.packet_count();

    let flits: Vec<u64> = cdcg
        .packet_ids()
        .map(|id| base.flits(cdcg.packet(id).bits).max(1))
        .collect();
    let dst_coord: Vec<Coord> = cdcg
        .packet_ids()
        .map(|id| mesh.coord(mapping.tile_of(cdcg.packet(id).dst)))
        .collect();
    let src_tile: Vec<usize> = cdcg
        .packet_ids()
        .map(|id| mapping.tile_of(cdcg.packet(id).src).index())
        .collect();

    let mut tiles: Vec<TileState> = (0..n_tiles).map(|_| TileState::new()).collect();
    let mut pending: Vec<usize> = cdcg
        .packet_ids()
        .map(|id| cdcg.predecessors(id).len())
        .collect();
    let mut ready: Vec<u64> = vec![0; n_packets];
    let mut injections: Vec<u64> = vec![0; n_packets];
    let mut deliveries: Vec<u64> = vec![0; n_packets];
    let mut delivered_flag: Vec<bool> = vec![false; n_packets];
    let mut delivered = 0usize;

    for id in cdcg.start_packets() {
        let p = id.index();
        let want = cdcg.packet(id).comp_cycles;
        tiles[src_tile[p]].inj_wait.push((want, p));
    }
    for tile in &mut tiles {
        tile.inj_wait.sort_unstable();
    }

    let mut t: u64 = 0;
    let mut iterated: u64 = 0;
    while delivered < n_packets {
        if t > params.max_cycles {
            return Err(SimError::CycleLimitExceeded {
                limit: params.max_cycles,
                delivered,
                total: n_packets,
            });
        }
        iterated += 1;

        // ---- Phase A: arrivals and deliveries -------------------------
        let mut wakeups: Vec<(usize, u64)> = Vec::new(); // (packet, delivery)
        for ti in 0..n_tiles {
            // Injection-link arrivals into the Local input port.
            while tiles[ti]
                .inj_transit
                .front()
                .is_some_and(|&(at, _)| at == t)
            {
                let (_, flit) = tiles[ti].inj_transit.pop_front().expect("checked");
                tiles[ti].in_buf[LOCAL].push_back(flit);
            }
            // Inter-router and ejection arrivals.
            for port in 0..PORTS {
                while tiles[ti].out_transit[port]
                    .front()
                    .is_some_and(|&(at, _)| at == t)
                {
                    let (_, flit) = tiles[ti].out_transit[port].pop_front().expect("checked");
                    if port == LOCAL {
                        // Ejection: flit reached the destination core.
                        if flit.idx + 1 == flits[flit.packet] {
                            deliveries[flit.packet] = t;
                            delivered_flag[flit.packet] = true;
                            delivered += 1;
                            wakeups.push((flit.packet, t));
                        }
                    } else {
                        let (dx, dy, dz) = port_offset(port);
                        let c = mesh.coord(noc_model::TileId::new(ti));
                        let v = mesh
                            .tile_at(Coord::new3(
                                (c.x as isize + dx) as usize,
                                (c.y as isize + dy) as usize,
                                (c.z as isize + dz) as usize,
                            ))
                            .expect("transit only on existing links")
                            .index();
                        // Arrive at the neighbour's opposite input port.
                        tiles[v].in_buf[opposite_port(port)].push_back(flit);
                    }
                }
            }
        }
        for (p, d) in wakeups {
            for &succ in cdcg.successors(PacketId::new(p)) {
                let s = succ.index();
                ready[s] = ready[s].max(d);
                pending[s] -= 1;
                if pending[s] == 0 {
                    let want = ready[s] + cdcg.packet(succ).comp_cycles;
                    let tile = &mut tiles[src_tile[s]];
                    tile.inj_wait.push((want, s));
                    tile.inj_wait.sort_unstable();
                }
            }
        }

        // ---- Phase B: injection grants --------------------------------
        for tile in &mut tiles {
            if tile.inj_owner.is_none() {
                if let Some(pos) = tile.inj_wait.iter().position(|&(want, _)| want <= t) {
                    let (_, p) = tile.inj_wait.remove(pos);
                    tile.inj_owner = Some(p);
                    tile.inj_sent = 0;
                }
            }
        }

        // ---- Phase C1: output-port re-arbitration ----------------------
        for ti in 0..n_tiles {
            for port in 0..PORTS {
                if matches!(tiles[ti].out_state[port], OutState::Free)
                    && t >= tiles[ti].out_free_time[port]
                    && !tiles[ti].out_wait[port].is_empty()
                {
                    tiles[ti].out_wait[port].sort_unstable();
                    let (_, packet, in_port) = tiles[ti].out_wait[port].remove(0);
                    tiles[ti].out_state[port] = OutState::Reserved { in_port };
                    tiles[ti].in_state[in_port] = InState::Deciding {
                        packet,
                        remaining: tr,
                    };
                }
            }
        }

        // ---- Phase C2: routing decisions and port requests -------------
        for ti in 0..n_tiles {
            let cur = mesh.coord(noc_model::TileId::new(ti));
            // Decrement all decision timers first, collecting the requests
            // that mature this cycle; then grant them in packet-id order so
            // that simultaneous requests to one output port resolve exactly
            // like the interval scheduler's event heap (time, then packet).
            let mut matured: Vec<(usize, usize)> = Vec::new(); // (packet, in_port)
            for ip in 0..PORTS {
                if let InState::Idle = tiles[ti].in_state[ip] {
                    if let Some(&head) = tiles[ti].in_buf[ip].front() {
                        if head.idx == 0 {
                            tiles[ti].in_state[ip] = InState::Deciding {
                                packet: head.packet,
                                remaining: tr,
                            };
                        }
                    }
                }
                if let InState::Deciding { packet, remaining } = tiles[ti].in_state[ip] {
                    if remaining > 0 {
                        tiles[ti].in_state[ip] = InState::Deciding {
                            packet,
                            remaining: remaining - 1,
                        };
                    } else {
                        matured.push((packet, ip));
                    }
                }
            }
            matured.sort_unstable();
            for (packet, ip) in matured {
                // Request the XY output port.
                let out = xy_port(cur, dst_coord[packet]);
                let eject_unarbitrated = out == LOCAL && !base.ejection_contention;
                if eject_unarbitrated {
                    tiles[ti].in_state[ip] = InState::Streaming { packet, out };
                } else {
                    match tiles[ti].out_state[out] {
                        OutState::Free if t >= tiles[ti].out_free_time[out] => {
                            tiles[ti].out_state[out] = OutState::Owned { in_port: ip };
                            tiles[ti].in_state[ip] = InState::Streaming { packet, out };
                        }
                        OutState::Reserved { in_port } if in_port == ip => {
                            tiles[ti].out_state[out] = OutState::Owned { in_port: ip };
                            tiles[ti].in_state[ip] = InState::Streaming { packet, out };
                        }
                        _ => {
                            tiles[ti].out_wait[out].push((t, packet, ip));
                            tiles[ti].in_state[ip] = InState::Waiting { packet };
                        }
                    }
                }
            }
        }

        // ---- Phase D: flit streaming -----------------------------------
        // Injection links.
        for ti in 0..n_tiles {
            if let Some(p) = tiles[ti].inj_owner {
                if t >= tiles[ti].inj_next_send {
                    let idx = tiles[ti].inj_sent;
                    if idx == 0 {
                        injections[p] = t;
                    }
                    tiles[ti]
                        .inj_transit
                        .push_back((t + tl, Flit { packet: p, idx }));
                    tiles[ti].inj_sent += 1;
                    tiles[ti].inj_next_send = t + tl;
                    if tiles[ti].inj_sent == flits[p] {
                        tiles[ti].inj_owner = None;
                    }
                }
            }
        }
        // Router ports.
        for ti in 0..n_tiles {
            for ip in 0..PORTS {
                if let InState::Streaming { packet, out } = tiles[ti].in_state[ip] {
                    if t < tiles[ti].in_next_send[ip] {
                        continue;
                    }
                    let Some(&front) = tiles[ti].in_buf[ip].front() else {
                        continue;
                    };
                    if front.packet != packet {
                        continue;
                    }
                    let flit = tiles[ti].in_buf[ip].pop_front().expect("front checked");
                    tiles[ti].out_transit[out].push_back((t + tl, flit));
                    tiles[ti].in_next_send[ip] = t + tl;
                    if flit.idx + 1 == flits[packet] {
                        // Tail forwarded: release the ports.
                        tiles[ti].in_state[ip] = InState::Idle;
                        if out != LOCAL || base.ejection_contention {
                            tiles[ti].out_state[out] = OutState::Free;
                            tiles[ti].out_free_time[out] = t + tl;
                        }
                    }
                }
            }
        }

        // ---- Advance time ----------------------------------------------
        let network_active = tiles.iter().any(|tile| {
            tile.inj_owner.is_some()
                || !tile.inj_transit.is_empty()
                || tile.out_transit.iter().any(|q| !q.is_empty())
                || tile.in_buf.iter().any(|b| !b.is_empty())
        });
        if network_active {
            t += 1;
        } else {
            // Idle: jump to the next injection want-time.
            let next = tiles
                .iter()
                .flat_map(|tile| tile.inj_wait.iter().map(|&(w, _)| w))
                .min();
            match next {
                Some(w) => t = w.max(t + 1),
                None if delivered < n_packets => t += 1,
                None => break,
            }
        }
    }

    let texec = deliveries.iter().copied().max().unwrap_or(0);
    Ok(DesReport {
        injections,
        deliveries,
        texec_cycles: texec,
        simulated_cycles: iterated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn des_params() -> DesParams {
        DesParams::new(SimParams::paper_example())
    }

    #[test]
    fn figure3a_deliveries_match_paper() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let report = simulate(&cdcg, &mesh, &mapping, &des_params()).unwrap();
        assert_eq!(report.deliveries, vec![27, 56, 36, 77, 73, 100]);
        assert_eq!(report.texec_cycles, 100);
    }

    #[test]
    fn figure3b_deliveries_match_paper() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = Mapping::from_tiles(&mesh, [3, 0, 1, 2].map(TileId::new)).unwrap();
        let report = simulate(&cdcg, &mesh, &mapping, &des_params()).unwrap();
        assert_eq!(report.deliveries, vec![30, 56, 36, 77, 63, 90]);
        assert_eq!(report.texec_cycles, 90);
    }

    #[test]
    fn matches_interval_scheduler_on_paper_example() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        for tiles in [[1, 0, 3, 2], [3, 0, 1, 2], [0, 1, 2, 3], [2, 3, 0, 1]] {
            let mapping = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
            let sched = schedule(&cdcg, &mesh, &mapping, &SimParams::paper_example()).unwrap();
            let report = simulate(&cdcg, &mesh, &mapping, &des_params()).unwrap();
            assert_eq!(report.texec_cycles, sched.texec_cycles(), "tiles {tiles:?}");
            for id in cdcg.packet_ids() {
                assert_eq!(
                    report.delivery(id),
                    sched.packet(id).delivery,
                    "delivery of {id} under {tiles:?}"
                );
                assert_eq!(
                    report.injections[id.index()],
                    sched.packet(id).inject(),
                    "injection of {id} under {tiles:?}"
                );
            }
        }
    }

    #[test]
    fn matches_interval_scheduler_on_a_3d_mesh() {
        // The same independent-implementation agreement the planar
        // cross-validation pins, on a 2x2x2 cube: the DES's coordinate
        // port logic (X, then Y, then Z) against the interval scheduler
        // running XyzRouting routes.
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new3(2, 2, 2).unwrap();
        for tiles in [[1, 0, 3, 2], [4, 0, 7, 2], [0, 5, 2, 7], [6, 1, 4, 3]] {
            let mapping = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
            let sched = crate::schedule::schedule_with(
                &cdcg,
                &mesh,
                &mapping,
                &SimParams::paper_example(),
                &noc_model::XyzRouting,
            )
            .unwrap();
            let report = simulate(&cdcg, &mesh, &mapping, &des_params()).unwrap();
            assert_eq!(report.texec_cycles, sched.texec_cycles(), "tiles {tiles:?}");
            for id in cdcg.packet_ids() {
                assert_eq!(
                    report.delivery(id),
                    sched.packet(id).delivery,
                    "delivery of {id} under {tiles:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_unserialized_injection() {
        let cdcg = figure1_cdcg();
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let mut params = des_params();
        params.base.injection_serialization = false;
        assert!(simulate(&cdcg, &mesh, &mapping, &params).is_err());
    }

    #[test]
    fn idle_time_skipping_handles_long_computations() {
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        g.add_packet(a, b, 1_000_000, 4).unwrap();
        let mesh = Mesh::new(2, 1).unwrap();
        let mapping = Mapping::identity(&mesh, 2).unwrap();
        let report = simulate(&g, &mesh, &mapping, &des_params()).unwrap();
        // Eq. 8: K=2, n=4 -> 10 cycles after the 1e6-cycle computation.
        assert_eq!(report.texec_cycles, 1_000_010);
        assert!(
            report.simulated_cycles < 1_000,
            "idle skipping should avoid iterating a million cycles, took {}",
            report.simulated_cycles
        );
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        g.add_packet(a, b, 0, 1000).unwrap();
        let mesh = Mesh::new(2, 1).unwrap();
        let mapping = Mapping::identity(&mesh, 2).unwrap();
        let mut params = des_params();
        params.max_cycles = 10;
        let err = simulate(&g, &mesh, &mapping, &params).unwrap_err();
        assert!(matches!(err, SimError::CycleLimitExceeded { .. }));
    }
}
