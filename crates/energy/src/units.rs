//! Physical-quantity newtypes for energy and power.
//!
//! The paper reports energies in picojoules and works with nanosecond
//! timescales, so [`Energy`] is stored in picojoules and [`Power`] in
//! picojoules per nanosecond (numerically equal to milliwatts). Newtypes
//! keep joules from being confused with cycle counts or bit counts in the
//! cost-function plumbing.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An amount of energy, stored in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from picojoules.
    pub const fn from_picojoules(pj: f64) -> Self {
        Self(pj)
    }

    /// Value in picojoules.
    pub const fn picojoules(self) -> f64 {
        self.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} pJ", self.0)
    }
}

/// Power, stored in picojoules per nanosecond (equal to milliwatts).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from picojoules per nanosecond.
    pub const fn from_pj_per_ns(p: f64) -> Self {
        Self(p)
    }

    /// Value in picojoules per nanosecond.
    // noc-verify: allow(API02) — the value of a Power, the unit the paper states PSRouter in; the leakage goldens read it
    pub const fn pj_per_ns(self) -> f64 {
        self.0
    }

    /// Energy dissipated over a duration in nanoseconds (Equation 9 is
    /// `EStNoC = PStNoC × texec`).
    pub fn energy_over_ns(self, ns: f64) -> Energy {
        Energy::from_picojoules(self.0 * ns)
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} pJ/ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e = Energy::from_picojoules(390.0);
        assert_eq!(e.picojoules(), 390.0);
        let p = Power::from_pj_per_ns(0.1);
        assert_eq!(p.pj_per_ns(), 0.1);
    }

    #[test]
    fn arithmetic() {
        let a = Energy::from_picojoules(10.0);
        let b = Energy::from_picojoules(5.0);
        assert_eq!((a + b).picojoules(), 15.0);
        assert_eq!((a - b).picojoules(), 5.0);
        assert_eq!((a * 2.0).picojoules(), 20.0);
        assert_eq!(a / b, 2.0);
        let sum: Energy = [a, b, b].into_iter().sum();
        assert_eq!(sum.picojoules(), 20.0);
    }

    #[test]
    fn power_times_time_is_energy() {
        // The paper's example: PstNoC = 0.1 pJ/ns over 100 ns -> 10 pJ.
        let p = Power::from_pj_per_ns(0.1);
        assert_eq!(p.energy_over_ns(100.0).picojoules(), 10.0);
        assert_eq!(p.energy_over_ns(90.0).picojoules(), 9.0);
    }

    #[test]
    fn display() {
        assert_eq!(Energy::from_picojoules(1.5).to_string(), "1.500 pJ");
        assert_eq!(Power::from_pj_per_ns(0.1).to_string(), "0.1000 pJ/ns");
    }
}
