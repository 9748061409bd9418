//! Communication dependence and computation graph (CDCG) — Definition 2.
//!
//! A [`Cdcg`] has one vertex per *packet* exchanged between cores, plus two
//! implicit vertices `Start` and `End`. A packet `p_abq = (ca, cb, t_aq,
//! w_abq)` is the `q`-th packet from core `ca` to core `cb`; it carries
//! `w_abq` bits and is injected after the originating core has computed for
//! `t_aq` time units. Edges are *communication dependences*: a packet vertex
//! may only execute once every predecessor packet has been delivered.
//!
//! `Start` and `End` are represented implicitly: packets without
//! predecessors are exactly the ones `Start` points to, and packets without
//! successors are the ones pointing to `End`.
//!
//! Computation times are expressed in **clock cycles** of the NoC; the
//! simulator multiplies by the clock period `λ` when reporting wall-clock
//! results, so all scheduling stays integer-exact.

use crate::cwg::Cwg;
use crate::error::ModelError;
use crate::ids::{CoreId, PacketId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A packet vertex of the CDCG: the 4-tuple `(src, dst, comp_cycles, bits)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Packet {
    /// Originating core `ca`.
    pub src: CoreId,
    /// Destination core `cb`.
    pub dst: CoreId,
    /// Computation time `t_aq` of the originating core before the packet is
    /// transmitted, in clock cycles.
    pub comp_cycles: u64,
    /// Number of bits `w_abq` in the packet (non-zero).
    pub bits: u64,
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}→{}):t{}",
            self.bits, self.src, self.dst, self.comp_cycles
        )
    }
}

/// Communication dependence and computation graph.
///
/// # Examples
///
/// Building the two-packet chain `p0 → p1` (the destination of `p1`'s
/// dependence can only start computing after `p0` is delivered):
///
/// ```
/// use noc_model::cdcg::Cdcg;
///
/// # fn main() -> Result<(), noc_model::ModelError> {
/// let mut g = Cdcg::new();
/// let e = g.add_core("E");
/// let a = g.add_core("A");
/// let p0 = g.add_packet(e, a, 10, 20)?;
/// let p1 = g.add_packet(e, a, 20, 15)?;
/// g.add_dependence(p0, p1)?;
/// assert_eq!(g.start_packets().collect::<Vec<_>>(), vec![p0]);
/// assert_eq!(g.end_packets().collect::<Vec<_>>(), vec![p1]);
/// assert_eq!(g.total_volume(), 35);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Cdcg {
    core_names: Vec<String>,
    packets: Vec<Packet>,
    /// Successor adjacency, indexed by packet.
    succs: Vec<Vec<PacketId>>,
    /// Predecessor adjacency, indexed by packet.
    preds: Vec<Vec<PacketId>>,
}

impl Cdcg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a core and returns its identifier.
    pub fn add_core(&mut self, name: impl Into<String>) -> CoreId {
        let id = CoreId::new(self.core_names.len());
        self.core_names.push(name.into());
        id
    }

    /// Adds a packet vertex.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownCore`] for out-of-range endpoints,
    /// [`ModelError::SelfCommunication`] when `src == dst`, and
    /// [`ModelError::EmptyPacket`] when `bits == 0`.
    pub fn add_packet(
        &mut self,
        src: CoreId,
        dst: CoreId,
        comp_cycles: u64,
        bits: u64,
    ) -> Result<PacketId, ModelError> {
        self.check_core(src)?;
        self.check_core(dst)?;
        if src == dst {
            return Err(ModelError::SelfCommunication(src));
        }
        let id = PacketId::new(self.packets.len());
        if bits == 0 {
            return Err(ModelError::EmptyPacket(id));
        }
        self.packets.push(Packet {
            src,
            dst,
            comp_cycles,
            bits,
        });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        Ok(id)
    }

    /// Adds a dependence edge `from → to`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownPacket`] for missing endpoints,
    /// [`ModelError::DuplicateDependence`] if the edge already exists and
    /// [`ModelError::DependenceCycle`] if the edge would close a cycle
    /// (the CDCG must stay a DAG for the Start→End execution to terminate).
    pub fn add_dependence(&mut self, from: PacketId, to: PacketId) -> Result<(), ModelError> {
        self.check_packet(from)?;
        self.check_packet(to)?;
        if self.succs[from.index()].contains(&to) {
            return Err(ModelError::DuplicateDependence { from, to });
        }
        if from == to || self.reaches(to, from) {
            return Err(ModelError::DependenceCycle { from, to });
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        Ok(())
    }

    /// Number of cores known to the graph.
    pub fn core_count(&self) -> usize {
        self.core_names.len()
    }

    /// Number of packet vertices (`|P|` minus the two special vertices;
    /// this is the "number of packets of all cores" column of Table 1).
    pub fn packet_count(&self) -> usize {
        self.packets.len()
    }

    /// Number of dependence edges (`|D|` excluding the implicit Start/End
    /// edges).
    pub fn dependence_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// The NDP quantity of the paper's complexity discussion: number of
    /// dependences and packets, including the implicit Start/End edges.
    pub fn ndp(&self) -> usize {
        self.packet_count()
            + self.dependence_count()
            + self.start_packets().count()
            + self.end_packets().count()
    }

    /// Name of a core, if it exists.
    pub fn core_name(&self, id: CoreId) -> Option<&str> {
        self.core_names.get(id.index()).map(String::as_str)
    }

    /// Looks a core up by name (first match).
    // noc-verify: allow(API02) — test oracle: tests look cores up by their paper names
    pub fn core_by_name(&self, name: &str) -> Option<CoreId> {
        self.core_names
            .iter()
            .position(|n| n == name)
            .map(CoreId::new)
    }

    /// Iterator over core identifiers.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.core_names.len()).map(CoreId::new)
    }

    /// Iterator over packet identifiers in insertion order.
    pub fn packet_ids(&self) -> impl Iterator<Item = PacketId> + '_ {
        (0..self.packets.len()).map(PacketId::new)
    }

    /// The packet behind an identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`Cdcg::get`] for a fallible
    /// lookup.
    pub fn packet(&self, id: PacketId) -> &Packet {
        &self.packets[id.index()]
    }

    /// Fallible packet lookup.
    pub fn get(&self, id: PacketId) -> Option<&Packet> {
        self.packets.get(id.index())
    }

    /// Packets with no predecessors — the ones the implicit `Start` vertex
    /// points to.
    pub fn start_packets(&self) -> impl Iterator<Item = PacketId> + '_ {
        self.packet_ids()
            .filter(move |p| self.preds[p.index()].is_empty())
    }

    /// Packets with no successors — the ones pointing to the implicit `End`.
    pub fn end_packets(&self) -> impl Iterator<Item = PacketId> + '_ {
        self.packet_ids()
            .filter(move |p| self.succs[p.index()].is_empty())
    }

    /// Direct predecessors of a packet.
    pub fn predecessors(&self, id: PacketId) -> &[PacketId] {
        &self.preds[id.index()]
    }

    /// Direct successors of a packet.
    pub fn successors(&self, id: PacketId) -> &[PacketId] {
        &self.succs[id.index()]
    }

    /// All packets sent from `src` to `dst` in insertion order (the set
    /// `P_ab` of Definition 2).
    // noc-verify: allow(API02) — the paper's P_ab (Definition 2); tests in three crates check packet sets with it
    pub fn packets_between(&self, src: CoreId, dst: CoreId) -> Vec<PacketId> {
        self.packet_ids()
            .filter(|p| {
                let pk = self.packet(*p);
                pk.src == src && pk.dst == dst
            })
            .collect()
    }

    /// Sum of all packet sizes in bits (Table 1's "total volume" column).
    pub fn total_volume(&self) -> u64 {
        self.packets.iter().map(|p| p.bits).sum()
    }

    /// A topological order of the packet vertices (Kahn's algorithm).
    /// Construction guarantees acyclicity, so this always succeeds and has
    /// deterministic output (ready vertices are taken in id order).
    pub fn topological_order(&self) -> Vec<PacketId> {
        let n = self.packets.len();
        let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        // Using a sorted frontier (BTreeMap keys) keeps determinism.
        let mut ready: std::collections::BTreeSet<PacketId> = (0..n)
            .map(PacketId::new)
            .filter(|p| indegree[p.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&p) = ready.iter().next() {
            ready.remove(&p);
            order.push(p);
            for &s in &self.succs[p.index()] {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    ready.insert(s);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "CDCG must be acyclic by construction");
        order
    }

    /// Length (in vertices) of the longest Start→End dependence chain.
    pub fn depth(&self) -> usize {
        let order = self.topological_order();
        let mut depth = vec![0usize; self.packets.len()];
        let mut max = 0;
        for p in order {
            let d = self.preds[p.index()]
                .iter()
                .map(|q| depth[q.index()])
                .max()
                .unwrap_or(0)
                + 1;
            depth[p.index()] = d;
            max = max.max(d);
        }
        max
    }

    /// Collapses the packet-level graph into its [`Cwg`] by summing the
    /// bits of all packets per `(src, dst)` pair. This is exactly the
    /// abstraction the CWM strategy works on, so mapping experiments can
    /// compare both models on identical applications.
    pub fn to_cwg(&self) -> Cwg {
        let mut cwg = Cwg::new();
        for name in &self.core_names {
            cwg.add_core(name.clone());
        }
        let mut volumes: BTreeMap<(CoreId, CoreId), u64> = BTreeMap::new();
        for p in &self.packets {
            *volumes.entry((p.src, p.dst)).or_insert(0) += p.bits;
        }
        for ((src, dst), bits) in volumes {
            cwg.add_communication(src, dst, bits)
                .expect("collapsing a valid CDCG yields a valid CWG");
        }
        cwg
    }

    /// Validates internal consistency after deserialization.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant (endpoint ranges, zero-bit
    /// packets, adjacency symmetry, acyclicity).
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.succs.len() != self.packets.len() || self.preds.len() != self.packets.len() {
            return Err(ModelError::UnknownPacket(PacketId::new(self.packets.len())));
        }
        for (i, p) in self.packets.iter().enumerate() {
            self.check_core(p.src)?;
            self.check_core(p.dst)?;
            if p.src == p.dst {
                return Err(ModelError::SelfCommunication(p.src));
            }
            if p.bits == 0 {
                return Err(ModelError::EmptyPacket(PacketId::new(i)));
            }
        }
        for (i, ss) in self.succs.iter().enumerate() {
            for s in ss {
                self.check_packet(*s)?;
                if !self.preds[s.index()].contains(&PacketId::new(i)) {
                    return Err(ModelError::UnknownPacket(*s));
                }
            }
        }
        if self.topological_order().len() != self.packets.len() {
            // A cycle sneaked in through deserialization.
            return Err(ModelError::DependenceCycle {
                from: PacketId::new(0),
                to: PacketId::new(0),
            });
        }
        Ok(())
    }

    /// True if `to` is reachable from `from` following dependence edges.
    fn reaches(&self, from: PacketId, to: PacketId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = vec![false; self.packets.len()];
        seen[from.index()] = true;
        while let Some(p) = stack.pop() {
            for &s in &self.succs[p.index()] {
                if s == to {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    fn check_core(&self, id: CoreId) -> Result<(), ModelError> {
        if id.index() < self.core_names.len() {
            Ok(())
        } else {
            Err(ModelError::UnknownCore(id))
        }
    }

    fn check_packet(&self, id: PacketId) -> Result<(), ModelError> {
        if id.index() < self.packets.len() {
            Ok(())
        } else {
            Err(ModelError::UnknownPacket(id))
        }
    }
}

impl fmt::Display for Cdcg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CDCG: {} cores, {} packets, {} dependences",
            self.core_count(),
            self.packet_count(),
            self.dependence_count()
        )?;
        for id in self.packet_ids() {
            let p = self.packet(id);
            let src = self.core_name(p.src).unwrap_or("?");
            let dst = self.core_name(p.dst).unwrap_or("?");
            let deps: Vec<String> = self
                .predecessors(id)
                .iter()
                .map(|d| d.to_string())
                .collect();
            writeln!(
                f,
                "  {id}: {} bits {src} -> {dst}, t={} cycles, after [{}]",
                p.bits,
                p.comp_cycles,
                deps.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1(b) CDCG of the paper (see DESIGN.md §2).
    fn figure1() -> Cdcg {
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

    #[test]
    fn figure1_shape() {
        let g = figure1();
        assert_eq!(g.core_count(), 4);
        assert_eq!(g.packet_count(), 6);
        assert_eq!(g.dependence_count(), 5);
        assert_eq!(g.total_volume(), 120);
        // Start points at pAB1, pBF1, pEA1.
        assert_eq!(g.start_packets().count(), 3);
        // pEA2 and pFB1 point at End.
        assert_eq!(g.end_packets().count(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn collapse_matches_figure1_cwg() {
        let g = figure1();
        let cwg = g.to_cwg();
        let a = cwg.core_by_name("A").unwrap();
        let b = cwg.core_by_name("B").unwrap();
        let e = cwg.core_by_name("E").unwrap();
        let f = cwg.core_by_name("F").unwrap();
        assert_eq!(cwg.volume(a, b), Some(15));
        assert_eq!(cwg.volume(a, f), Some(15));
        assert_eq!(cwg.volume(b, f), Some(40));
        assert_eq!(cwg.volume(e, a), Some(35)); // 20 + 15
        assert_eq!(cwg.volume(f, b), Some(15));
        assert_eq!(cwg.total_volume(), 120);
    }

    #[test]
    fn rejects_cycles() {
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        let p0 = g.add_packet(a, b, 0, 1).unwrap();
        let p1 = g.add_packet(b, a, 0, 1).unwrap();
        let p2 = g.add_packet(a, b, 0, 1).unwrap();
        g.add_dependence(p0, p1).unwrap();
        g.add_dependence(p1, p2).unwrap();
        assert!(matches!(
            g.add_dependence(p2, p0),
            Err(ModelError::DependenceCycle { .. })
        ));
        assert!(matches!(
            g.add_dependence(p0, p0),
            Err(ModelError::DependenceCycle { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_edges() {
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        let p0 = g.add_packet(a, b, 0, 1).unwrap();
        let p1 = g.add_packet(a, b, 0, 1).unwrap();
        g.add_dependence(p0, p1).unwrap();
        assert_eq!(
            g.add_dependence(p0, p1),
            Err(ModelError::DuplicateDependence { from: p0, to: p1 })
        );
    }

    #[test]
    fn rejects_zero_bits() {
        let mut g = Cdcg::new();
        let a = g.add_core("A");
        let b = g.add_core("B");
        assert!(matches!(
            g.add_packet(a, b, 5, 0),
            Err(ModelError::EmptyPacket(_))
        ));
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = figure1();
        let order = g.topological_order();
        assert_eq!(order.len(), g.packet_count());
        let pos: Vec<usize> = {
            let mut pos = vec![0; order.len()];
            for (i, p) in order.iter().enumerate() {
                pos[p.index()] = i;
            }
            pos
        };
        for p in g.packet_ids() {
            for s in g.successors(p) {
                assert!(pos[p.index()] < pos[s.index()]);
            }
        }
    }

    #[test]
    fn depth_of_figure1_is_three() {
        // Longest chain: pEA1 -> pAF1 -> pFB1 (or pAB1 -> pAF1 -> pFB1).
        assert_eq!(figure1().depth(), 3);
    }

    #[test]
    fn packets_between_orders_by_insertion() {
        let g = figure1();
        let e = g.core_by_name("E").unwrap();
        let a = g.core_by_name("A").unwrap();
        let pea = g.packets_between(e, a);
        assert_eq!(pea.len(), 2);
        assert!(pea[0] < pea[1]);
        assert_eq!(g.packet(pea[0]).bits, 20);
        assert_eq!(g.packet(pea[1]).bits, 15);
    }

    #[test]
    fn ndp_counts_implicit_edges() {
        let g = figure1();
        // 6 packets + 5 explicit deps + 3 start edges + 2 end edges.
        assert_eq!(g.ndp(), 16);
    }

    #[test]
    fn serde_roundtrip_validates() {
        let g = figure1();
        let json = serde_json::to_string(&g).unwrap();
        let back: Cdcg = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        back.validate().unwrap();
    }

    #[test]
    fn display_lists_packets() {
        let g = figure1();
        let s = g.to_string();
        assert!(s.contains("6 packets"));
        assert!(s.contains("A -> B"));
    }
}
