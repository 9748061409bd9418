//! Classic synthetic NoC traffic patterns as CDCGs.
//!
//! The NoC literature evaluates interconnects with standard spatial
//! patterns — uniform random, transpose, bit-complement, hotspot. They
//! are not in the paper (its workloads are application task graphs), but
//! a mapping library is routinely exercised with them, and they make
//! sharp test cases: transpose and bit-complement have known good
//! placements, and hotspot stresses exactly the contention machinery the
//! CDCM model exists to expose.
//!
//! Each generator emits `rounds` waves of packets; within a wave every
//! source sends one packet to its pattern destination, and a core's
//! packet in wave `r+1` depends on its wave-`r` packet (steady-state
//! streaming, like the paper's `pEA1 → pEA2` ordering).

use noc_model::{Cdcg, CoreId, PacketId};
use serde::{Deserialize, Serialize};

/// The spatial traffic patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Every core sends to every other core in turn (round-robin over
    /// destinations across waves).
    UniformRoundRobin,
    /// Core `i` of `n` sends to core `(n − 1) − i` (bit-complement-like
    /// for any `n`; exact bit complement when `n` is a power of two).
    Complement,
    /// With cores viewed as a `side × side` matrix, core `(r, c)` sends
    /// to core `(c, r)`.
    Transpose {
        /// Matrix side; the pattern needs `side²` cores.
        side: usize,
    },
    /// Every core sends to one hotspot core.
    Hotspot {
        /// Index of the hotspot core.
        hotspot: usize,
    },
    /// Core `i` sends to core `(i + stride) mod n` — the classic
    /// shift/tornado family. With `stride = 1` traffic is
    /// nearest-neighbour on a row-major mesh; with `stride = width` it is
    /// vertical-neighbour; with `stride ≈ n/2` it crosses the whole mesh.
    Shift {
        /// Destination offset; `stride % cores` must be non-zero.
        stride: usize,
    },
    /// 3D layer mirror: with cores viewed as `L` layers of `layer_size`
    /// cores (the identity placement on a `W×H×L` mesh), the core at
    /// layer `l`, offset `o` sends to layer `L − 1 − l`, same offset —
    /// every packet crosses the full TSV stack, the vertical-link
    /// stress analogue of [`Self::Complement`]. Cores on the middle
    /// layer of an odd stack stay silent.
    LayerComplement {
        /// Cores per layer; must divide the core count.
        layer_size: usize,
    },
    /// 3D coordinate rotation: with cores viewed as a `side³` cube,
    /// core `(x, y, z)` sends to core `(y, z, x)` — the 3D analogue of
    /// [`Self::Transpose`], exercising all three axes at once. Cores on
    /// the diagonal (`x = y = z`) stay silent.
    Transpose3d {
        /// Cube side; the pattern needs `side³` cores.
        side: usize,
    },
}

impl TrafficPattern {
    /// Destination of core `src` in wave `round` under this pattern, or
    /// `None` when the core stays silent (e.g. the hotspot itself).
    pub fn destination(&self, src: usize, round: usize, cores: usize) -> Option<usize> {
        match *self {
            Self::UniformRoundRobin => {
                let dst = (src + 1 + (round % (cores - 1))) % cores;
                Some(dst)
            }
            Self::Complement => {
                let dst = cores - 1 - src;
                (dst != src).then_some(dst)
            }
            Self::Transpose { side } => {
                let (r, c) = (src / side, src % side);
                let dst = c * side + r;
                (dst != src).then_some(dst)
            }
            Self::Hotspot { hotspot } => (src != hotspot).then_some(hotspot),
            Self::Shift { stride } => {
                let dst = (src + stride) % cores;
                (dst != src).then_some(dst)
            }
            Self::LayerComplement { layer_size } => {
                let layers = cores / layer_size;
                let (l, o) = (src / layer_size, src % layer_size);
                let dst = (layers - 1 - l) * layer_size + o;
                (dst != src).then_some(dst)
            }
            Self::Transpose3d { side } => {
                let (z, rest) = (src / (side * side), src % (side * side));
                let (y, x) = (rest / side, rest % side);
                // (x, y, z) → (y, z, x): dst coordinates x'=y, y'=z, z'=x.
                let dst = x * side * side + z * side + y;
                (dst != src).then_some(dst)
            }
        }
    }
}

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Number of cores.
    pub cores: usize,
    /// The spatial pattern.
    pub pattern: TrafficPattern,
    /// Number of waves.
    pub rounds: usize,
    /// Bits per packet.
    pub packet_bits: u64,
    /// Computation cycles between a core's consecutive sends.
    pub comp_cycles: u64,
}

impl SyntheticConfig {
    /// `cores` under `pattern`, 4 rounds of 256-bit packets.
    pub fn new(cores: usize, pattern: TrafficPattern) -> Self {
        Self {
            cores,
            pattern,
            rounds: 4,
            packet_bits: 256,
            comp_cycles: 8,
        }
    }
}

/// Builds the synthetic CDCG.
///
/// # Panics
///
/// Panics if `cores < 2`, `rounds == 0`, or the pattern is inconsistent
/// with the core count (`Transpose` needs `side² == cores`, `Hotspot`
/// needs `hotspot < cores`).
pub fn synthetic(config: &SyntheticConfig) -> Cdcg {
    assert!(config.cores >= 2, "need at least two cores");
    assert!(config.rounds > 0, "need at least one round");
    match config.pattern {
        TrafficPattern::Transpose { side } => {
            assert_eq!(side * side, config.cores, "transpose needs side^2 cores");
        }
        TrafficPattern::Hotspot { hotspot } => {
            assert!(hotspot < config.cores, "hotspot core out of range");
        }
        TrafficPattern::Shift { stride } => {
            assert!(
                !stride.is_multiple_of(config.cores),
                "shift stride must not be a multiple of the core count"
            );
        }
        TrafficPattern::LayerComplement { layer_size } => {
            assert!(
                layer_size > 0 && config.cores.is_multiple_of(layer_size),
                "layer size must divide the core count"
            );
            assert!(
                config.cores / layer_size >= 2,
                "layer complement needs at least two layers"
            );
        }
        TrafficPattern::Transpose3d { side } => {
            assert_eq!(
                side * side * side,
                config.cores,
                "3D transpose needs side^3 cores"
            );
        }
        _ => {}
    }

    let mut g = Cdcg::new();
    let cores: Vec<CoreId> = (0..config.cores)
        .map(|i| g.add_core(format!("n{i}")))
        .collect();
    let mut prev_of_core: Vec<Option<PacketId>> = vec![None; config.cores];
    for round in 0..config.rounds {
        for src in 0..config.cores {
            let Some(dst) = config.pattern.destination(src, round, config.cores) else {
                continue;
            };
            let id = g
                .add_packet(
                    cores[src],
                    cores[dst],
                    config.comp_cycles,
                    config.packet_bits,
                )
                .expect("pattern packets are valid");
            if let Some(prev) = prev_of_core[src] {
                g.add_dependence(prev, id)
                    .expect("wave ordering is acyclic");
            }
            prev_of_core[src] = Some(id);
        }
    }
    g
}

/// A mesh-filling workload for large-mesh scaling runs: one core per
/// tile of a `width × height` mesh, each round sending along a
/// different shift stride — nearest-neighbour (`1`), vertical
/// (`width`), diagonal (`width + 1`) and cross-mesh (`n/2 + 1`) — so
/// the traffic exercises short hops, long hops and wrap candidates at
/// once. A core's packet in round `r + 1` depends on its round-`r`
/// packet, like [`synthetic`]'s waves.
///
/// The point of this generator is route-provisioning scale: on a 64×64
/// or 128×128 mesh the resulting instance cannot be evaluated over the
/// dense `RouteCache` at all and must run on the implicit provider
/// tier.
///
/// # Panics
///
/// Panics if the mesh has fewer than two tiles or `rounds == 0`.
pub fn large_mesh_workload(width: usize, height: usize, rounds: usize) -> Cdcg {
    // Degenerate shapes (one row, two tiles) collapse some candidates
    // onto a full cycle (stride ≡ 0 mod n, every core would target
    // itself); keep only the strides that make every core send, so the
    // per-round and per-core-chain contracts hold on every mesh. Stride
    // 1 always survives (`cores ≥ 2`).
    let cores = width * height;
    shift_rounds_workload(cores, rounds, &[1, width, width + 1, cores / 2 + 1])
}

/// The 3D mesh-filling analogue of [`large_mesh_workload`]: one core
/// per tile of a `width × height × depth` mesh (identity placement),
/// each round a **layered shift** along a different stride —
/// nearest-neighbour (`1`), row-crossing (`width`), *layer-crossing*
/// (`width·height`, the vertical-neighbour stride that puts every
/// packet on a TSV under the identity mapping) and cross-stack
/// (`n/2 + 1`). A core's packet in round `r + 1` depends on its
/// round-`r` packet.
///
/// # Panics
///
/// Panics if the mesh has fewer than two tiles or `rounds == 0`.
pub fn layered_shift_workload(width: usize, height: usize, depth: usize, rounds: usize) -> Cdcg {
    let cores = width * height * depth;
    shift_rounds_workload(cores, rounds, &[1, width, width * height, cores / 2 + 1])
}

/// Shared body of the mesh-filling shift generators: `rounds` waves of
/// one packet per core, cycling through the stride candidates that make
/// every core send (`stride ≢ 0 mod cores`).
fn shift_rounds_workload(cores: usize, rounds: usize, stride_candidates: &[usize]) -> Cdcg {
    assert!(cores >= 2, "need at least two tiles");
    assert!(rounds > 0, "need at least one round");
    let strides: Vec<usize> = stride_candidates
        .iter()
        .copied()
        .filter(|s| !s.is_multiple_of(cores))
        .collect();
    let mut g = Cdcg::new();
    let ids: Vec<CoreId> = (0..cores).map(|i| g.add_core(format!("t{i}"))).collect();
    let mut prev_of_core: Vec<Option<PacketId>> = vec![None; cores];
    for round in 0..rounds {
        let stride = strides[round % strides.len()];
        for src in 0..cores {
            let dst = (src + stride) % cores;
            let id = g
                .add_packet(ids[src], ids[dst], 8, 256)
                .expect("shift packets are valid");
            if let Some(prev) = prev_of_core[src] {
                g.add_dependence(prev, id)
                    .expect("round ordering is acyclic");
            }
            prev_of_core[src] = Some(id);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_pairs_up() {
        let g = synthetic(&SyntheticConfig::new(8, TrafficPattern::Complement));
        assert_eq!(g.core_count(), 8);
        assert_eq!(g.packet_count(), 8 * 4);
        for id in g.packet_ids() {
            let p = g.packet(id);
            assert_eq!(p.dst.index(), 7 - p.src.index());
        }
        g.validate().unwrap();
    }

    #[test]
    fn transpose_matches_matrix_transpose() {
        let g = synthetic(&SyntheticConfig::new(
            9,
            TrafficPattern::Transpose { side: 3 },
        ));
        // Diagonal cores (0,0),(1,1),(2,2) stay silent.
        assert_eq!(g.packet_count(), (9 - 3) * 4);
        for id in g.packet_ids() {
            let p = g.packet(id);
            let (r, c) = (p.src.index() / 3, p.src.index() % 3);
            assert_eq!(p.dst.index(), c * 3 + r);
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let g = synthetic(&SyntheticConfig::new(
            6,
            TrafficPattern::Hotspot { hotspot: 2 },
        ));
        assert_eq!(g.packet_count(), 5 * 4);
        for id in g.packet_ids() {
            assert_eq!(g.packet(id).dst.index(), 2);
        }
    }

    #[test]
    fn uniform_round_robin_covers_destinations() {
        let cores = 5;
        let mut config = SyntheticConfig::new(cores, TrafficPattern::UniformRoundRobin);
        config.rounds = cores - 1;
        let g = synthetic(&config);
        // Over cores-1 rounds each source hits every other core once.
        for src in 0..cores {
            let mut dsts: Vec<usize> = g
                .packet_ids()
                .filter(|&id| g.packet(id).src.index() == src)
                .map(|id| g.packet(id).dst.index())
                .collect();
            dsts.sort_unstable();
            let expected: Vec<usize> = (0..cores).filter(|&d| d != src).collect();
            assert_eq!(dsts, expected, "source {src}");
        }
    }

    #[test]
    fn waves_are_serialized_per_core() {
        let g = synthetic(&SyntheticConfig::new(4, TrafficPattern::Complement));
        for src in 0..4 {
            let sends: Vec<PacketId> = g
                .packet_ids()
                .filter(|&id| g.packet(id).src.index() == src)
                .collect();
            for w in sends.windows(2) {
                assert!(g.predecessors(w[1]).contains(&w[0]));
            }
        }
    }

    #[test]
    fn pattern_destinations_never_self() {
        for (pattern, cores) in [
            (TrafficPattern::UniformRoundRobin, 7),
            (TrafficPattern::Complement, 8),
            (TrafficPattern::Transpose { side: 3 }, 9),
            (TrafficPattern::Hotspot { hotspot: 0 }, 5),
        ] {
            for round in 0..6 {
                for src in 0..cores {
                    if let Some(dst) = pattern.destination(src, round, cores) {
                        assert_ne!(dst, src, "{pattern:?} src {src} round {round}");
                        assert!(dst < cores);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "side^2")]
    fn transpose_size_mismatch_panics() {
        let _ = synthetic(&SyntheticConfig::new(
            8,
            TrafficPattern::Transpose { side: 3 },
        ));
    }

    #[test]
    fn shift_pattern_offsets_destinations() {
        let g = synthetic(&SyntheticConfig::new(
            10,
            TrafficPattern::Shift { stride: 3 },
        ));
        assert_eq!(g.packet_count(), 10 * 4);
        for id in g.packet_ids() {
            let p = g.packet(id);
            assert_eq!(p.dst.index(), (p.src.index() + 3) % 10);
        }
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn shift_full_cycle_panics() {
        let _ = synthetic(&SyntheticConfig::new(
            5,
            TrafficPattern::Shift { stride: 10 },
        ));
    }

    #[test]
    fn large_mesh_workload_fills_the_mesh() {
        let g = large_mesh_workload(8, 4, 4);
        assert_eq!(g.core_count(), 32);
        // Every round every core sends (no stride is a multiple of n).
        assert_eq!(g.packet_count(), 32 * 4);
        g.validate().unwrap();
        // Rounds are chained per core.
        for src in 0..32 {
            let sends: Vec<PacketId> = g
                .packet_ids()
                .filter(|&id| g.packet(id).src.index() == src)
                .collect();
            assert_eq!(sends.len(), 4);
            for w in sends.windows(2) {
                assert!(g.predecessors(w[1]).contains(&w[0]));
            }
        }
        // Strides vary across rounds: round 0 is nearest-neighbour,
        // round 3 crosses half the mesh.
        let first = g.packet_ids().next().unwrap();
        assert_eq!(g.packet(first).dst.index(), 1);
    }

    #[test]
    fn layer_complement_mirrors_the_stack() {
        // 3 layers of 4 cores: layer 0 <-> layer 2, layer 1 silent.
        let g = synthetic(&SyntheticConfig::new(
            12,
            TrafficPattern::LayerComplement { layer_size: 4 },
        ));
        assert_eq!(g.packet_count(), 8 * 4, "middle layer stays silent");
        for id in g.packet_ids() {
            let p = g.packet(id);
            let (l, o) = (p.src.index() / 4, p.src.index() % 4);
            assert_eq!(p.dst.index(), (2 - l) * 4 + o);
        }
        g.validate().unwrap();
    }

    #[test]
    fn transpose3d_rotates_coordinates() {
        let side = 3;
        let g = synthetic(&SyntheticConfig::new(
            27,
            TrafficPattern::Transpose3d { side },
        ));
        // The 3 diagonal cores (x=y=z) stay silent.
        assert_eq!(g.packet_count(), (27 - 3) * 4);
        for id in g.packet_ids() {
            let p = g.packet(id);
            let s = p.src.index();
            let (z, y, x) = (s / 9, (s % 9) / 3, s % 3);
            assert_eq!(p.dst.index(), x * 9 + z * 3 + y, "src {s}");
        }
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "side^3")]
    fn transpose3d_size_mismatch_panics() {
        let _ = synthetic(&SyntheticConfig::new(
            8,
            TrafficPattern::Transpose3d { side: 3 },
        ));
    }

    #[test]
    fn layered_shift_fills_the_cube() {
        let g = layered_shift_workload(4, 4, 4, 4);
        assert_eq!(g.core_count(), 64);
        assert_eq!(g.packet_count(), 64 * 4);
        g.validate().unwrap();
        // Round 2 uses the layer-crossing stride: under the identity
        // mapping every packet of that round crosses exactly one TSV.
        let round2: Vec<_> = g.packet_ids().filter(|id| id.index() / 64 == 2).collect();
        assert_eq!(round2.len(), 64);
        for id in round2 {
            let p = g.packet(id);
            assert_eq!(p.dst.index(), (p.src.index() + 16) % 64);
        }
        // Degenerate: a 2-tile stack still makes every core send.
        let tiny = layered_shift_workload(1, 1, 2, 3);
        assert_eq!(tiny.packet_count(), 2 * 3);
        tiny.validate().unwrap();
    }

    #[test]
    fn large_mesh_workload_handles_degenerate_shapes() {
        // One-row meshes and 2-tile meshes collapse some stride
        // candidates onto full cycles; every round must still make
        // every core send exactly once (regression test).
        for (w, h) in [(6, 1), (2, 1), (1, 2), (2, 2)] {
            let g = large_mesh_workload(w, h, 4);
            let cores = w * h;
            assert_eq!(g.packet_count(), cores * 4, "{w}x{h}");
            for id in g.packet_ids() {
                let p = g.packet(id);
                assert_ne!(p.src, p.dst, "{w}x{h}");
            }
            g.validate().unwrap();
        }
    }
}
