//! Bit-energy model (paper Equations 1 and 2, after Ye et al. \[6\]),
//! extended with a distinct vertical-link (TSV) term for 3D meshes.
//!
//! `EBit` is the dynamic energy one bit dissipates when it flips polarity
//! while traversing the NoC. It splits into the router component `ERbit`,
//! the inter-tile link component `ELbit` (the paper argues the planar
//! horizontal and vertical links are equal for square tiles) and the
//! core-link component `ECbit` (negligible for large tiles, and dropped
//! from Equation 2).
//!
//! On 3D (stacked) meshes the inter-*layer* links are through-silicon
//! vias, not millimetre-scale wires; the 3D NoC mapping literature (Jha
//! et al., arXiv:1404.2512 / 1405.0109) models them with their own
//! per-bit energy `EVbit`, typically well below `ELbit` because TSVs are
//! orders of magnitude shorter. [`BitEnergy::vertical_link_pj`] carries
//! that term; [`BitEnergy::per_bit_split`] charges it per vertical hop.
//! With zero vertical hops the formula — and its floating-point
//! operation sequence — degenerates to Equation 2 exactly, so planar
//! evaluations stay bit-identical.

use crate::units::Energy;
use serde::{Deserialize, Serialize};

/// Per-bit dynamic energy components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BitEnergy {
    /// `ERbit`: energy per bit inside a router (wires, buffers, logic), pJ.
    pub router_pj: f64,
    /// `ELbit`: energy per bit on a planar inter-tile link, pJ.
    pub link_pj: f64,
    /// `EVbit`: energy per bit on a vertical (TSV) inter-layer link, pJ.
    /// Only charged on 3D meshes; irrelevant at depth 1.
    pub vertical_link_pj: f64,
    /// `ECbit`: energy per bit on a core↔router link, pJ (normally 0 to
    /// follow Equation 2 exactly).
    pub core_link_pj: f64,
}

impl BitEnergy {
    /// The illustrative values of the paper's §4.1 example:
    /// `ERbit = ELbit = 1 pJ/bit`, `ECbit` neglected. The paper has no
    /// TSVs; `EVbit` is set equal to `ELbit` so a 3D run of the worked
    /// example stays comparable.
    pub fn paper_example() -> Self {
        Self {
            router_pj: 1.0,
            link_pj: 1.0,
            vertical_link_pj: 1.0,
            core_link_pj: 0.0,
        }
    }

    /// Energy of one bit traversing `k` routers (Equation 2):
    /// `EBit_ij = K·ERbit + (K−1)·ELbit`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; every route visits at least one router.
    pub fn per_bit(&self, k: usize) -> Energy {
        assert!(k > 0, "a route visits at least one router");
        Energy::from_picojoules(k as f64 * self.router_pj + (k - 1) as f64 * self.link_pj)
    }

    /// Equation 2 split by link type: `k` routers, of whose `k − 1`
    /// inter-router links `vertical` are TSVs charged at `EVbit` and the
    /// rest at `ELbit`. With `vertical == 0` this *is* [`Self::per_bit`]
    /// — the identical floating-point operations, so depth-1 evaluations
    /// are bit-exact with the planar model.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `vertical > k − 1`.
    pub fn per_bit_split(&self, k: usize, vertical: usize) -> Energy {
        if vertical == 0 {
            return self.per_bit(k);
        }
        assert!(k > 0, "a route visits at least one router");
        assert!(vertical < k, "more vertical hops than links");
        Energy::from_picojoules(
            k as f64 * self.router_pj
                + (k - 1 - vertical) as f64 * self.link_pj
                + vertical as f64 * self.vertical_link_pj,
        )
    }

    /// Energy of a whole `bits`-bit transfer across `k` routers
    /// (`EBit_ab = w_ab × EBit_ij`).
    // noc-verify: allow(API02) — the paper's EBit_ab of one transfer; its tests pin the 105 pJ golden
    pub fn per_transfer(&self, k: usize, bits: u64) -> Energy {
        self.per_bit(k) * bits as f64
    }

    /// [`Self::per_transfer`] with `vertical` of the links charged at the
    /// TSV energy; degenerates to it (bit-exactly) when `vertical == 0`.
    pub fn per_transfer_split(&self, k: usize, vertical: usize, bits: u64) -> Energy {
        self.per_bit_split(k, vertical) * bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_values() {
        let be = BitEnergy::paper_example();
        // K=2: 2·1 + 1·1 = 3 pJ/bit; the E→A communication of Figure 2
        // moves 35 bits across 2 routers: 105 pJ... the paper quotes the
        // full 35 pJ per resource; the per-transfer total is 35*3.
        assert_eq!(be.per_bit(2).picojoules(), 3.0);
        assert_eq!(be.per_bit(3).picojoules(), 5.0);
        assert_eq!(be.per_transfer(2, 35).picojoules(), 105.0);
    }

    #[test]
    fn single_router_has_no_link_energy() {
        let be = BitEnergy {
            router_pj: 2.0,
            link_pj: 7.0,
            vertical_link_pj: 7.0,
            core_link_pj: 0.0,
        };
        assert_eq!(be.per_bit(1).picojoules(), 2.0);
    }

    #[test]
    fn split_charges_tsv_hops_separately() {
        let be = BitEnergy {
            router_pj: 1.0,
            link_pj: 4.0,
            vertical_link_pj: 0.5,
            core_link_pj: 0.0,
        };
        // K=4, 3 links, 1 vertical: 4·1 + 2·4 + 1·0.5.
        assert_eq!(be.per_bit_split(4, 1).picojoules(), 12.5);
        // All links vertical.
        assert_eq!(be.per_bit_split(3, 2).picojoules(), 4.0);
        assert_eq!(be.per_transfer_split(4, 1, 10).picojoules(), 125.0);
    }

    #[test]
    fn split_with_zero_vertical_is_bitwise_per_bit() {
        let be = BitEnergy {
            vertical_link_pj: 0.123,
            ..BitEnergy::paper_example()
        };
        for k in 1..10 {
            assert_eq!(
                be.per_bit_split(k, 0).picojoules().to_bits(),
                be.per_bit(k).picojoules().to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "more vertical hops than links")]
    fn split_rejects_excess_vertical_hops() {
        let _ = BitEnergy::paper_example().per_bit_split(2, 2);
    }

    #[test]
    #[should_panic(expected = "at least one router")]
    fn zero_router_path_panics() {
        let _ = BitEnergy::paper_example().per_bit(0);
    }
}
