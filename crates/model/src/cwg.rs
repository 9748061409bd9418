//! Communication weighted graph (CWG) — Definition 1 of the paper.
//!
//! A [`Cwg`] is a directed graph whose vertices are the application cores
//! and whose edges `(a, b)` are labelled with `w_ab`, the total number of
//! bits of all packets sent from core `a` to core `b`. It is the model used
//! by the CWM mapping strategy (and equivalent to the APCG of Hu &
//! Marculescu and the *core graph* of Murali & De Micheli).
//!
//! The CWG deliberately abstracts *when* communication happens; see
//! [`Cdcg`](crate::cdcg::Cdcg) for the dependence- and computation-aware
//! model.

use crate::error::ModelError;
use crate::ids::CoreId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A single weighted communication `src -> dst` carrying `bits` bits in
/// total over the whole application execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Communication {
    /// Producing core.
    pub src: CoreId,
    /// Consuming core.
    pub dst: CoreId,
    /// Total number of bits sent from `src` to `dst` (`w_ab` in the paper,
    /// always non-zero).
    pub bits: u64,
}

impl fmt::Display for Communication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}→{})", self.bits, self.src, self.dst)
    }
}

/// Communication weighted graph: cores plus total-bit-volume edges.
///
/// Cores are created with [`Cwg::add_core`] and referenced by [`CoreId`].
/// Edges accumulate: adding the same `(src, dst)` pair twice sums the bit
/// volumes, which makes it easy to *collapse* a packet-level
/// [`Cdcg`](crate::cdcg::Cdcg) into its CWG.
///
/// # Examples
///
/// ```
/// use noc_model::cwg::Cwg;
///
/// # fn main() -> Result<(), noc_model::ModelError> {
/// let mut cwg = Cwg::new();
/// let a = cwg.add_core("A");
/// let b = cwg.add_core("B");
/// cwg.add_communication(a, b, 15)?;
/// cwg.add_communication(a, b, 5)?; // accumulates
/// assert_eq!(cwg.volume(a, b), Some(20));
/// assert_eq!(cwg.total_volume(), 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Cwg {
    names: Vec<String>,
    /// Edge map keyed by `(src, dst)`; `BTreeMap` keeps iteration
    /// deterministic, which matters for reproducible search. Serialized as
    /// an edge list because JSON map keys must be strings.
    #[serde(with = "edge_list")]
    edges: BTreeMap<(CoreId, CoreId), u64>,
}

mod edge_list {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(
        edges: &BTreeMap<(CoreId, CoreId), u64>,
        ser: S,
    ) -> Result<S::Ok, S::Error> {
        let list: Vec<Communication> = edges
            .iter()
            .map(|(&(src, dst), &bits)| Communication { src, dst, bits })
            .collect();
        serde::Serialize::serialize(&list, ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<BTreeMap<(CoreId, CoreId), u64>, D::Error> {
        let list: Vec<Communication> = serde::Deserialize::deserialize(de)?;
        Ok(list.into_iter().map(|c| ((c.src, c.dst), c.bits)).collect())
    }
}

impl Cwg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a core and returns its identifier. Core names are purely
    /// descriptive; they do not need to be unique.
    pub fn add_core(&mut self, name: impl Into<String>) -> CoreId {
        let id = CoreId::new(self.names.len());
        self.names.push(name.into());
        id
    }

    /// Adds `bits` to the communication volume from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownCore`] if either endpoint does not
    /// exist, [`ModelError::SelfCommunication`] if `src == dst`, and keeps
    /// zero-bit calls as no-ops only when an edge already exists (a fresh
    /// zero-bit edge is rejected because Definition 1 requires `w ≠ 0`).
    pub fn add_communication(
        &mut self,
        src: CoreId,
        dst: CoreId,
        bits: u64,
    ) -> Result<(), ModelError> {
        self.check_core(src)?;
        self.check_core(dst)?;
        if src == dst {
            return Err(ModelError::SelfCommunication(src));
        }
        if bits == 0 && !self.edges.contains_key(&(src, dst)) {
            // Definition 1: W = {(ca, cb) | w_ab != 0}.
            return Err(ModelError::EmptyPacket(crate::ids::PacketId::new(0)));
        }
        *self.edges.entry((src, dst)).or_insert(0) += bits;
        Ok(())
    }

    /// Number of cores (`|C|`).
    pub fn core_count(&self) -> usize {
        self.names.len()
    }

    /// Number of distinct communications (`|W|`, the NCC quantity used in
    /// the paper's complexity discussion).
    pub fn communication_count(&self) -> usize {
        self.edges.len()
    }

    /// Name of a core, if it exists.
    pub fn core_name(&self, id: CoreId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Looks a core up by name (first match).
    // noc-verify: allow(API02) — test oracle: tests look cores up by their paper names
    pub fn core_by_name(&self, name: &str) -> Option<CoreId> {
        self.names.iter().position(|n| n == name).map(CoreId::new)
    }

    /// Iterator over all core identifiers.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.names.len()).map(CoreId::new)
    }

    /// Total bit volume from `src` to `dst`, if the edge exists.
    // noc-verify: allow(API02) — the paper's CWG edge weight w_ab; the Figure 1 tests read it
    pub fn volume(&self, src: CoreId, dst: CoreId) -> Option<u64> {
        self.edges.get(&(src, dst)).copied()
    }

    /// Iterator over all communications in deterministic `(src, dst)` order.
    pub fn communications(&self) -> impl Iterator<Item = Communication> + '_ {
        self.edges
            .iter()
            .map(|(&(src, dst), &bits)| Communication { src, dst, bits })
    }

    /// Communications terminating at `dst`.
    pub fn incoming(&self, dst: CoreId) -> impl Iterator<Item = Communication> + '_ {
        self.communications().filter(move |c| c.dst == dst)
    }

    /// Sum of all edge weights — the "total volume of bits during
    /// application execution" column of Table 1.
    pub fn total_volume(&self) -> u64 {
        self.edges.values().sum()
    }

    /// Validates internal consistency (non-zero weights, endpoints in
    /// range). Graphs built through the public API are always valid; this
    /// is useful after deserialization.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (&(src, dst), &bits) in &self.edges {
            self.check_core(src)?;
            self.check_core(dst)?;
            if src == dst {
                return Err(ModelError::SelfCommunication(src));
            }
            if bits == 0 {
                return Err(ModelError::EmptyPacket(crate::ids::PacketId::new(0)));
            }
        }
        Ok(())
    }

    fn check_core(&self, id: CoreId) -> Result<(), ModelError> {
        if id.index() < self.names.len() {
            Ok(())
        } else {
            Err(ModelError::UnknownCore(id))
        }
    }
}

impl fmt::Display for Cwg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CWG: {} cores, {} communications",
            self.core_count(),
            self.communication_count()
        )?;
        for c in self.communications() {
            let src = self.core_name(c.src).unwrap_or("?");
            let dst = self.core_name(c.dst).unwrap_or("?");
            writeln!(f, "  {src} -> {dst}: {} bits", c.bits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_core_graph() -> (Cwg, CoreId, CoreId) {
        let mut g = Cwg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        (g, a, b)
    }

    #[test]
    fn add_and_query_edges() {
        let (mut g, a, b) = two_core_graph();
        g.add_communication(a, b, 15).unwrap();
        assert_eq!(g.volume(a, b), Some(15));
        assert_eq!(g.volume(b, a), None);
        assert_eq!(g.communication_count(), 1);
    }

    #[test]
    fn volumes_accumulate() {
        let (mut g, a, b) = two_core_graph();
        g.add_communication(a, b, 10).unwrap();
        g.add_communication(a, b, 5).unwrap();
        assert_eq!(g.volume(a, b), Some(15));
        assert_eq!(g.communication_count(), 1);
        assert_eq!(g.total_volume(), 15);
    }

    #[test]
    fn rejects_self_loop() {
        let (mut g, a, _) = two_core_graph();
        assert_eq!(
            g.add_communication(a, a, 3),
            Err(ModelError::SelfCommunication(a))
        );
    }

    #[test]
    fn rejects_unknown_core() {
        let (mut g, a, _) = two_core_graph();
        let ghost = CoreId::new(99);
        assert_eq!(
            g.add_communication(a, ghost, 3),
            Err(ModelError::UnknownCore(ghost))
        );
    }

    #[test]
    fn rejects_fresh_zero_weight_edge() {
        let (mut g, a, b) = two_core_graph();
        assert!(g.add_communication(a, b, 0).is_err());
        g.add_communication(a, b, 4).unwrap();
        // Zero increments on an existing edge are harmless.
        g.add_communication(a, b, 0).unwrap();
        assert_eq!(g.volume(a, b), Some(4));
    }

    #[test]
    fn directional_iterators() {
        let mut g = Cwg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        let c = g.add_core("C");
        g.add_communication(a, b, 1).unwrap();
        g.add_communication(a, c, 2).unwrap();
        g.add_communication(c, a, 3).unwrap();
        assert_eq!(g.communications().filter(|c| c.src == a).count(), 2);
        assert_eq!(g.incoming(a).count(), 1);
        assert_eq!(g.incoming(b).count(), 1);
    }

    #[test]
    fn lookup_by_name() {
        let (g, a, b) = two_core_graph();
        assert_eq!(g.core_by_name("A"), Some(a));
        assert_eq!(g.core_by_name("B"), Some(b));
        assert_eq!(g.core_by_name("Z"), None);
    }

    #[test]
    fn figure1_cwg_totals() {
        // Figure 1(a): wAB=15, wAF=15, wBF=40, wEA=35, wFB=15.
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
        assert_eq!(g.total_volume(), 120);
        assert_eq!(g.communication_count(), 5);
        assert_eq!(g.core_count(), 4);
        g.validate().unwrap();
    }

    #[test]
    fn display_contains_core_names() {
        let (mut g, a, b) = two_core_graph();
        g.add_communication(a, b, 7).unwrap();
        let s = g.to_string();
        assert!(s.contains("A -> B: 7 bits"));
    }

    #[test]
    fn serde_roundtrip() {
        let (mut g, a, b) = two_core_graph();
        g.add_communication(a, b, 42).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: Cwg = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        back.validate().unwrap();
    }
}
