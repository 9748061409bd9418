//! Half-open cycle intervals used for resource occupancy bookkeeping.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open interval of clock cycles `[start, end)`: the resource is
/// busy from `start` inclusive and free again at `end`.
///
/// The paper's Figure 3 prints occupancy as closed-looking pairs such as
/// `[6,21]`; those correspond to half-open `[6, 21)` here (a 15-flit packet
/// occupying a link for 15 cycles), and [`fmt::Display`] renders the same
/// `[start,end]` notation for side-by-side comparison with the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CycleInterval {
    /// First busy cycle.
    pub start: u64,
    /// First cycle after the resource is released.
    pub end: u64,
}

impl CycleInterval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end >= start, "interval end {end} precedes start {start}");
        Self { start, end }
    }

    /// Interval length in cycles.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for zero-length intervals.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True if the two intervals share at least one cycle.
    // noc-verify: allow(API02) — test oracle: the contention tests check interval overlap with it
    pub fn overlaps(&self, other: &CycleInterval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// True if `cycle` lies inside the interval.
    pub fn contains(&self, cycle: u64) -> bool {
        self.start <= cycle && cycle < self.end
    }
}

impl fmt::Display for CycleInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_and_emptiness() {
        let i = CycleInterval::new(6, 21);
        assert_eq!(i.len(), 15);
        assert!(!i.is_empty());
        assert!(CycleInterval::new(5, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn rejects_reversed_bounds() {
        let _ = CycleInterval::new(10, 9);
    }

    #[test]
    fn overlap_semantics_are_half_open() {
        let a = CycleInterval::new(10, 20);
        let b = CycleInterval::new(20, 30); // adjacent, not overlapping
        let c = CycleInterval::new(19, 21);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn contains_is_half_open() {
        let i = CycleInterval::new(3, 6);
        assert!(i.contains(3));
        assert!(i.contains(5));
        assert!(!i.contains(6));
        assert!(!i.contains(2));
    }

    #[test]
    fn displays_like_the_paper() {
        assert_eq!(CycleInterval::new(6, 21).to_string(), "[6,21]");
    }
}
