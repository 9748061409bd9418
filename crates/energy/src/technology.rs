//! Technology presets: the 0.35 µ and 0.07 µ operating points of Table 2.
//!
//! The paper does not publish absolute technology constants; its Table 2
//! only depends on the *static/dynamic split* each technology induces
//! (leakage is negligible at 0.35 µ and "a significant part" at 0.07 µ
//! \[8\]). The presets here are therefore a documented substitution (see
//! DESIGN.md §4): per-bit dynamic energies scale with `C·V²` between
//! nodes, and router leakage power is chosen so that static energy is a
//! tiny share (~1–2 %) of typical NoC energy at 0.35 µ and a large share
//! (~40–60 %) at 0.07 µ, which is the regime the paper's ECS0.07 ≈ 20 %
//! column implies.

use crate::bit_energy::BitEnergy;
use crate::units::Power;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A CMOS operating point for the energy model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Technology {
    /// Human-readable name, e.g. `"0.35um"`.
    pub name: String,
    /// Drawn feature size in nanometres (350, 70, …).
    pub feature_nm: u32,
    /// Dynamic per-bit energies.
    pub bit_energy: BitEnergy,
    /// `PSRouter`: static (leakage) power of one router.
    pub router_static_power: Power,
}

impl Technology {
    /// The illustrative operating point of the paper's worked example
    /// (§4.1): `ERbit = ELbit = 1 pJ/bit` and `PstNoC = 0.1 pJ/ns` for the
    /// four-tile NoC, i.e. `PSRouter = 0.025 pJ/ns`.
    pub fn paper_example() -> Self {
        Self {
            name: "paper-example".to_owned(),
            feature_nm: 0,
            bit_energy: BitEnergy::paper_example(),
            router_static_power: Power::from_pj_per_ns(0.025),
        }
    }

    /// 0.35 µ operating point: large dynamic per-bit energy (3.3 V swing,
    /// long wires), negligible leakage.
    pub fn t035() -> Self {
        Self {
            name: "0.35um".to_owned(),
            feature_nm: 350,
            bit_energy: BitEnergy {
                router_pj: 4.6,
                link_pj: 3.9,
                // TSVs are tens of microns against millimetre planar
                // wires; ~4× lower per-bit energy is the conservative end
                // of the 3D NoC literature's range (documented
                // substitution, like the planar constants).
                vertical_link_pj: 1.0,
                core_link_pj: 0.0,
            },
            router_static_power: Power::from_pj_per_ns(0.25),
        }
    }

    /// 0.07 µ operating point: dynamic energy per bit shrinks by roughly
    /// `C·V²` (~65×) while leakage grows by orders of magnitude, making
    /// static energy a first-class term of Equation 10.
    pub fn t007() -> Self {
        Self {
            name: "0.07um".to_owned(),
            feature_nm: 70,
            bit_energy: BitEnergy {
                router_pj: 0.071,
                link_pj: 0.060,
                // Same ~4× TSV-vs-wire ratio as the 0.35 µ point.
                vertical_link_pj: 0.015,
                core_link_pj: 0.0,
            },
            router_static_power: Power::from_pj_per_ns(2.5),
        }
    }

    /// Resolves `paper` (or `paper-example`), `0.35` (or `350`) and `0.07`
    /// (or `70`), optionally suffixed `um`, ignoring surrounding
    /// whitespace and ASCII case.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().trim_end_matches("um") {
            "paper" | "paper-example" => Some(Self::paper_example()),
            "0.35" | "350" => Some(Self::t035()),
            "0.07" | "70" => Some(Self::t007()),
            _ => None,
        }
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (ERbit={} pJ, ELbit={} pJ, PSRouter={})",
            self.name, self.bit_energy.router_pj, self.bit_energy.link_pj, self.router_static_power
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_matches_worked_numbers() {
        let t = Technology::paper_example();
        assert_eq!(t.bit_energy.router_pj, 1.0);
        assert_eq!(t.bit_energy.link_pj, 1.0);
        // 4 tiles × 0.025 = the paper's PstNoC = 0.1 pJ/ns.
        assert_eq!(t.router_static_power.pj_per_ns() * 4.0, 0.1);
    }

    #[test]
    fn leakage_grows_and_dynamic_shrinks_with_scaling() {
        let old = Technology::t035();
        let new = Technology::t007();
        assert!(new.bit_energy.router_pj < old.bit_energy.router_pj / 10.0);
        assert!(new.router_static_power.pj_per_ns() >= old.router_static_power.pj_per_ns() * 10.0);
    }

    #[test]
    fn display_mentions_name() {
        assert!(Technology::t007().to_string().contains("0.07um"));
    }
}
