//! The paper's running example (Figure 1): a 4-core application with six
//! packets on a 2×2 NoC, plus the two mappings of Figure 1(c)/(d).
//!
//! Every golden test of the reproduction is anchored here, so the
//! structures are centralized in one place. Core order is A, B, E, F
//! (ids 0–3); packet order matches the construction below:
//!
//! | id | packet | src→dst | comp | bits |
//! |----|--------|---------|------|------|
//! | p0 | pAB1 | A→B | 6  | 15 |
//! | p1 | pBF1 | B→F | 10 | 40 |
//! | p2 | pEA1 | E→A | 10 | 20 |
//! | p3 | pEA2 | E→A | 20 | 15 |
//! | p4 | pAF1 | A→F | 6  | 15 |
//! | p5 | pFB1 | F→B | 6  | 15 |
//!
//! Dependences: `Start→{p0,p1,p2}`, `p2→p3`, `{p0,p2}→p4`, `{p1,p4}→p5`.

use noc_model::{Cdcg, Cwg, Mapping, Mesh, PacketId, TileId};

/// Index of `pBF1` in [`figure1_cdcg`].
// noc-verify: allow(API02) — test fixture: the Figure 3 goldens name packets by these ids
pub const P_BF1: PacketId = PacketId::new(1);
/// Index of `pEA2` in [`figure1_cdcg`].
// noc-verify: allow(API02) — test fixture: the Figure 3 goldens name packets by these ids
pub const P_EA2: PacketId = PacketId::new(3);
/// Index of `pAF1` in [`figure1_cdcg`].
// noc-verify: allow(API02) — test fixture: the Figure 3 goldens name packets by these ids
pub const P_AF1: PacketId = PacketId::new(4);
/// Index of `pFB1` in [`figure1_cdcg`].
// noc-verify: allow(API02) — test fixture: the Figure 3 goldens name packets by these ids
pub const P_FB1: PacketId = PacketId::new(5);

/// The Figure 1(b) CDCG.
pub fn figure1_cdcg() -> Cdcg {
    let mut g = Cdcg::new();
    let a = g.add_core("A");
    let b = g.add_core("B");
    let e = g.add_core("E");
    let f = g.add_core("F");
    let pab1 = g.add_packet(a, b, 6, 15).expect("valid packet");
    let pbf1 = g.add_packet(b, f, 10, 40).expect("valid packet");
    let pea1 = g.add_packet(e, a, 10, 20).expect("valid packet");
    let pea2 = g.add_packet(e, a, 20, 15).expect("valid packet");
    let paf1 = g.add_packet(a, f, 6, 15).expect("valid packet");
    let pfb1 = g.add_packet(f, b, 6, 15).expect("valid packet");
    g.add_dependence(pea1, pea2).expect("valid dependence");
    g.add_dependence(pab1, paf1).expect("valid dependence");
    g.add_dependence(pea1, paf1).expect("valid dependence");
    g.add_dependence(pbf1, pfb1).expect("valid dependence");
    g.add_dependence(paf1, pfb1).expect("valid dependence");
    g
}

/// The Figure 1(a) CWG (equal to `figure1_cdcg().to_cwg()`).
pub fn figure1_cwg() -> Cwg {
    figure1_cdcg().to_cwg()
}

/// The 2×2 mesh of the example.
pub fn mesh_2x2() -> Mesh {
    Mesh::new(2, 2).expect("2x2 is a valid mesh")
}

/// Figure 1(c): `CRG1 = {(τ1,B), (τ2,A), (τ3,F), (τ4,E)}` — the mapping
/// with contention (texec 100 ns).
pub fn mapping_c() -> Mapping {
    Mapping::from_tiles(&mesh_2x2(), [1, 0, 3, 2].map(TileId::new))
        .expect("paper mapping is injective")
}

/// Figure 1(d): `CRG2 = {(τ1,B), (τ2,E), (τ3,F), (τ4,A)}` — the
/// contention-free mapping (texec 90 ns).
pub fn mapping_d() -> Mapping {
    Mapping::from_tiles(&mesh_2x2(), [3, 0, 1, 2].map(TileId::new))
        .expect("paper mapping is injective")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_figure1() {
        let g = figure1_cdcg();
        assert_eq!(g.core_count(), 4);
        assert_eq!(g.packet_count(), 6);
        assert_eq!(g.total_volume(), 120);
        g.validate().unwrap();
        assert_eq!(g.packet(P_BF1).bits, 40);
        assert_eq!(g.packet(P_EA2).comp_cycles, 20);
        assert_eq!(g.predecessors(P_FB1), &[P_BF1, P_AF1]);
    }

    #[test]
    fn cwg_volumes() {
        let cwg = figure1_cwg();
        assert_eq!(cwg.total_volume(), 120);
        assert_eq!(cwg.communication_count(), 5);
    }

    #[test]
    fn mappings_place_all_cores() {
        let c = mapping_c();
        let d = mapping_d();
        c.validate().unwrap();
        d.validate().unwrap();
        // A (core 0) moves from τ2 to τ4 between the mappings.
        assert_eq!(c.tile_of(noc_model::CoreId::new(0)), TileId::new(1));
        assert_eq!(d.tile_of(noc_model::CoreId::new(0)), TileId::new(3));
    }
}
