//! Dynamic NoC energy (paper Equations 3 and 4).
//!
//! Dynamic energy depends only on how many bits cross how many routers and
//! links — not on timing — so it can be computed directly from the
//! application graph, the mapping and the routing function. For the same
//! traffic, the CWG (Eq. 3) and CDCG (Eq. 4) formulations give the same
//! value; both are provided because the two mapping strategies carry
//! different graphs.

use crate::technology::Technology;
use crate::units::Energy;
use noc_model::{
    Cdcg, Communication, Cwg, Mapping, Mesh, RouteSource, RoutingAlgorithm, XyRouting,
};

/// Dynamic energy of one communication: `EBit_ab = w_ab × EBit_ij` with
/// `EBit_ij` from Equation 2 and the router count taken from the routed
/// path. On 3D meshes the route's vertical (TSV) links are charged at
/// `EVbit` instead of `ELbit`; on depth-1 meshes the formula — including
/// its floating-point operation order — is exactly Equation 2.
pub fn communication_energy(
    comm: &Communication,
    mesh: &Mesh,
    mapping: &Mapping,
    tech: &Technology,
    routing: &dyn RoutingAlgorithm,
) -> Energy {
    let path = routing.route(mesh, mapping.tile_of(comm.src), mapping.tile_of(comm.dst));
    tech.bit_energy.per_transfer_split(
        path.router_count(),
        path.vertical_link_count(mesh),
        comm.bits,
    )
}

/// Dynamic energy of one `bits`-bit transfer between two tiles over a
/// cached/implicit [`RouteSource`]: the per-pair term of Equations 3
/// and 4, with `K` and the vertical-hop count both `O(1)` lookups or
/// closed forms. This is the single helper every cached energy path —
/// full evaluations and swap deltas alike — charges transfers through,
/// so the TSV term can never diverge between them.
#[inline]
pub fn pair_transfer_energy<S: RouteSource + ?Sized>(
    routes: &S,
    tech: &Technology,
    src: noc_model::TileId,
    dst: noc_model::TileId,
    bits: u64,
) -> Energy {
    tech.bit_energy.per_transfer_split(
        routes.router_count(src, dst),
        routes.vertical_hops(src, dst),
        bits,
    )
}

/// `EDyNoC` for a CWG under a mapping (Equation 3): the sum over all
/// communications of their per-transfer energies, using XY routing.
// noc-verify: allow(API02) — test oracle: the XY reference fold of Eq. 3 the cached folds are checked against
pub fn cwg_dynamic_energy(cwg: &Cwg, mesh: &Mesh, mapping: &Mapping, tech: &Technology) -> Energy {
    cwg_dynamic_energy_with(cwg, mesh, mapping, tech, &XyRouting)
}

/// Equation 3 with an explicit routing algorithm.
pub fn cwg_dynamic_energy_with(
    cwg: &Cwg,
    mesh: &Mesh,
    mapping: &Mapping,
    tech: &Technology,
    routing: &dyn RoutingAlgorithm,
) -> Energy {
    cwg.communications()
        .map(|c| communication_energy(&c, mesh, mapping, tech, routing))
        .sum()
}

/// `EDyNoC` for a CDCG under a mapping (Equation 4): the per-packet sum.
/// Numerically equal to Equation 3 on the collapsed CWG, but evaluated
/// per packet.
// noc-verify: allow(API02) — test oracle: the XY reference fold of Eq. 4 the cached folds are checked against
pub fn cdcg_dynamic_energy(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    tech: &Technology,
) -> Energy {
    cdcg_dynamic_energy_with(cdcg, mesh, mapping, tech, &XyRouting)
}

/// Equation 4 with an explicit routing algorithm.
pub fn cdcg_dynamic_energy_with(
    cdcg: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    tech: &Technology,
    routing: &dyn RoutingAlgorithm,
) -> Energy {
    cdcg.packet_ids()
        .map(|id| {
            let p = cdcg.packet(id);
            let path = routing.route(mesh, mapping.tile_of(p.src), mapping.tile_of(p.dst));
            tech.bit_energy.per_transfer_split(
                path.router_count(),
                path.vertical_link_count(mesh),
                p.bits,
            )
        })
        .sum()
}

/// Equation 4 over any cached/implicit [`RouteSource`] (a dense
/// [`noc_model::RouteCache`] or any [`noc_model::RouteProvider`] tier):
/// no route is re-derived per call, router counts are `O(1)` lookups or
/// closed forms. Bit-exact with [`cdcg_dynamic_energy_with`] for the source's
/// routing algorithm (same per-packet terms, same summation order).
pub fn cdcg_dynamic_energy_cached<S: RouteSource + ?Sized>(
    cdcg: &Cdcg,
    routes: &S,
    mapping: &Mapping,
    tech: &Technology,
) -> Energy {
    cdcg.packet_ids()
        .map(|id| {
            let p = cdcg.packet(id);
            pair_transfer_energy(
                routes,
                tech,
                mapping.tile_of(p.src),
                mapping.tile_of(p.dst),
                p.bits,
            )
        })
        .sum()
}

/// Equation 3 over any cached/implicit [`RouteSource`]; bit-exact with
/// [`cwg_dynamic_energy_with`] for the source's routing algorithm.
pub fn cwg_dynamic_energy_cached<S: RouteSource + ?Sized>(
    cwg: &Cwg,
    routes: &S,
    mapping: &Mapping,
    tech: &Technology,
) -> Energy {
    cwg.communications()
        .map(|c| {
            pair_transfer_energy(
                routes,
                tech,
                mapping.tile_of(c.src),
                mapping.tile_of(c.dst),
                c.bits,
            )
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::TileId;

    fn figure1_cwg() -> Cwg {
        let mut g = Cwg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        let e = g.add_core("E");
        let f = g.add_core("F");
        g.add_communication(a, b, 15).unwrap();
        g.add_communication(a, f, 15).unwrap();
        g.add_communication(b, f, 40).unwrap();
        g.add_communication(e, a, 35).unwrap();
        g.add_communication(f, b, 15).unwrap();
        g
    }

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

    /// Figure 2: both example mappings dissipate exactly 390 pJ of
    /// dynamic energy with ERbit = ELbit = 1 pJ/bit.
    #[test]
    fn figure2_both_mappings_are_390_pj() {
        let cwg = figure1_cwg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        for tiles in [[1, 0, 3, 2], [3, 0, 1, 2]] {
            let mapping = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
            let e = cwg_dynamic_energy(&cwg, &mesh, &mapping, &tech);
            assert_eq!(e.picojoules(), 390.0, "mapping {tiles:?}");
        }
    }

    #[test]
    fn eq3_equals_eq4_on_collapsed_graph() {
        let cdcg = figure1_cdcg();
        let cwg = cdcg.to_cwg();
        let mesh = Mesh::new(2, 2).unwrap();
        let tech = Technology::paper_example();
        for tiles in [[1, 0, 3, 2], [3, 0, 1, 2], [0, 1, 2, 3]] {
            let mapping = Mapping::from_tiles(&mesh, tiles.map(TileId::new)).unwrap();
            let e3 = cwg_dynamic_energy(&cwg, &mesh, &mapping, &tech);
            let e4 = cdcg_dynamic_energy(&cdcg, &mesh, &mapping, &tech);
            assert!((e3.picojoules() - e4.picojoules()).abs() < 1e-9);
        }
    }

    #[test]
    fn single_communication_breakdown() {
        // E→A in mapping (c): 35 bits across 2 routers -> 35·3 = 105 pJ.
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let tech = Technology::paper_example();
        let cwg = figure1_cwg();
        let e = cwg.core_by_name("E").unwrap();
        let a = cwg.core_by_name("A").unwrap();
        let comm = Communication {
            src: e,
            dst: a,
            bits: 35,
        };
        let energy = communication_energy(&comm, &mesh, &mapping, &tech, &XyRouting);
        assert_eq!(energy.picojoules(), 105.0);
    }

    #[test]
    fn longer_paths_cost_more() {
        let cwg = figure1_cwg();
        let mesh = Mesh::new(4, 4).unwrap();
        let tech = Technology::paper_example();
        let near = Mapping::from_tiles(&mesh, [0, 1, 4, 5].map(TileId::new)).unwrap();
        let far = Mapping::from_tiles(&mesh, [0, 3, 12, 15].map(TileId::new)).unwrap();
        let e_near = cwg_dynamic_energy(&cwg, &mesh, &near, &tech);
        let e_far = cwg_dynamic_energy(&cwg, &mesh, &far, &tech);
        assert!(e_far > e_near);
    }

    #[test]
    fn dynamic_energy_is_timing_independent() {
        // Scaling all computation times must not change Eq. 4.
        let fast = figure1_cdcg();
        // Rebuild `slow` with 10x computation times.
        let slow = {
            let mut g = Cdcg::new();
            for c in fast.cores() {
                g.add_core(fast.core_name(c).unwrap());
            }
            let mut ids = Vec::new();
            for id in fast.packet_ids() {
                let p = fast.packet(id);
                ids.push(
                    g.add_packet(p.src, p.dst, p.comp_cycles * 10, p.bits)
                        .unwrap(),
                );
            }
            for id in fast.packet_ids() {
                for &s in fast.successors(id) {
                    g.add_dependence(ids[id.index()], ids[s.index()]).unwrap();
                }
            }
            g
        };
        let mesh = Mesh::new(2, 2).unwrap();
        let mapping = Mapping::from_tiles(&mesh, [1, 0, 3, 2].map(TileId::new)).unwrap();
        let tech = Technology::paper_example();
        assert_eq!(
            cdcg_dynamic_energy(&fast, &mesh, &mapping, &tech).picojoules(),
            cdcg_dynamic_energy(&slow, &mesh, &mapping, &tech).picojoules(),
        );
    }
}
