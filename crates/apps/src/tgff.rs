//! TGFF-like random CDCG benchmark generator.
//!
//! The paper's random benchmarks come from "a proprietary system, which is
//! similar to TGFF \[9\]; however, the system describes benchmarks through
//! CDCGs, representing message dependence and bit volume of each message".
//! This module is our reimplementation: a seeded, layered task-DAG
//! generator whose output is *calibrated* to hit an exact core count,
//! packet count and total bit volume — the three characteristics Table 1
//! publishes per benchmark.
//!
//! Generated graphs are physically sensible: a dependence `p → q` always
//! means that `q`'s source core is the destination of `p` (a core computes
//! on received data, then sends), exactly like the hand-written CDCG of
//! the paper's Figure 1.

use noc_model::{Cdcg, CoreId, PacketId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TgffConfig {
    /// Number of cores.
    pub cores: usize,
    /// Number of packets (CDCG vertices).
    pub packets: usize,
    /// Exact total bit volume across all packets.
    pub total_bits: u64,
    /// RNG seed; equal configs generate identical graphs.
    pub seed: u64,
    /// Number of DAG layers; `None` derives `max(2, packets / cores)`,
    /// capped at the packet count.
    pub depth: Option<usize>,
    /// Inclusive range of per-packet computation cycles, used when
    /// `comp_volume_ratio` is `None`.
    pub comp_range: (u64, u64),
    /// When set, a packet's computation time is a uniform draw from this
    /// ratio range multiplied by its bit volume (cores compute longer on
    /// bigger data, as in the paper's Figure 1 where computation times
    /// are commensurate with packet sizes). Overrides `comp_range`.
    pub comp_volume_ratio: Option<(f64, f64)>,
    /// Probability of a second dependence edge per packet, in `[0, 1]`.
    pub extra_dependence_prob: f64,
    /// Spread of the packet-volume distribution in decades: volumes are
    /// drawn log-uniformly over `[1, 10^volume_decades]` before
    /// calibration. Small values give near-uniform packet sizes (high
    /// concurrency between comparable streams); large values give a
    /// heavy-tailed mix dominated by a few huge transfers.
    pub volume_decades: f64,
}

impl TgffConfig {
    /// A benchmark with the three Table 1 characteristics and defaults
    /// for everything else.
    pub fn new(cores: usize, packets: usize, total_bits: u64, seed: u64) -> Self {
        Self {
            cores,
            packets,
            total_bits,
            seed,
            depth: None,
            comp_range: (2, 20),
            comp_volume_ratio: Some((0.05, 0.3)),
            extra_dependence_prob: 0.35,
            volume_decades: 0.7,
        }
    }
}

/// An infeasible [`TgffConfig`], reported by [`try_generate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "infeasible TGFF config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// [`generate`] with the configuration checks surfaced as a typed error
/// instead of a panic — the entry point for configs built from external
/// input (CLI flags, files).
///
/// # Errors
///
/// Returns [`ConfigError`] when `cores < 2`, `packets == 0`, or
/// `total_bits < packets` (every packet needs at least one bit).
pub fn try_generate(config: &TgffConfig) -> Result<Cdcg, ConfigError> {
    if config.cores < 2 {
        return Err(ConfigError(format!(
            "{} cores cannot communicate (need at least two)",
            config.cores
        )));
    }
    if config.packets == 0 {
        return Err(ConfigError("zero packets".into()));
    }
    if config.total_bits < config.packets as u64 {
        return Err(ConfigError(format!(
            "total bits {} cannot cover {} non-empty packets",
            config.total_bits, config.packets
        )));
    }
    Ok(generate_unchecked(config))
}

/// Generates a random CDCG matching `config` exactly.
///
/// # Panics
///
/// Panics if `cores < 2`, `packets == 0`, or `total_bits < packets`
/// (every packet needs at least one bit); use [`try_generate`] for
/// externally supplied configurations.
pub fn generate(config: &TgffConfig) -> Cdcg {
    match try_generate(config) {
        Ok(g) => g,
        Err(e) => panic!("{e}"),
    }
}

fn generate_unchecked(config: &TgffConfig) -> Cdcg {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = Cdcg::new();
    for i in 0..config.cores {
        g.add_core(format!("c{i}"));
    }

    // Default depth keeps several same-size streams in flight per layer:
    // a third as many layers as a one-packet-per-core-per-layer schedule
    // (embedded streaming workloads are wide, not deep).
    let depth = config
        .depth
        .unwrap_or_else(|| (config.packets / (3 * config.cores)).max(2))
        .clamp(1, config.packets);

    // Assign packets to layers: every layer gets at least one packet.
    let mut layer_of: Vec<usize> = (0..config.packets)
        .map(|i| {
            if i < depth {
                i
            } else {
                rng.gen_range(0..depth)
            }
        })
        .collect();
    layer_of.sort_unstable();

    // Draw skewed volumes, then calibrate to the exact total.
    let volumes = calibrated_volumes(
        config.packets,
        config.total_bits,
        config.volume_decades,
        &mut rng,
    );

    // Build packets layer by layer: the source core of a dependent packet
    // is the destination core of one of its predecessors.
    let mut by_layer: Vec<Vec<PacketId>> = vec![Vec::new(); depth];
    let mut ids: Vec<PacketId> = Vec::with_capacity(config.packets);
    for (i, &layer) in layer_of.iter().enumerate() {
        let comp = match config.comp_volume_ratio {
            Some((lo, hi)) => {
                let ratio = rng.gen_range(lo..=hi);
                (ratio * volumes[i] as f64).round() as u64
            }
            None => rng.gen_range(config.comp_range.0..=config.comp_range.1),
        };
        let (src, primary_pred) = if layer == 0 {
            (CoreId::new(rng.gen_range(0..config.cores)), None)
        } else {
            // Prefer a predecessor in the previous layer; fall back to any
            // earlier layer (always non-empty by construction).
            let pool = (0..layer)
                .rev()
                .find(|&l| !by_layer[l].is_empty())
                .expect("earlier layers are non-empty");
            let pred = by_layer[pool][rng.gen_range(0..by_layer[pool].len())];
            (g.packet(pred).dst, Some(pred))
        };
        let dst = loop {
            let d = CoreId::new(rng.gen_range(0..config.cores));
            if d != src {
                break d;
            }
        };
        let id = g
            .add_packet(src, dst, comp, volumes[i])
            .expect("generator produces valid packets");
        if let Some(pred) = primary_pred {
            g.add_dependence(pred, id)
                .expect("layered edges are acyclic");
        }
        // Optionally add a second dependence from any earlier packet that
        // also delivers to `src` (a realistic join).
        if layer > 0 && rng.gen::<f64>() < config.extra_dependence_prob {
            let candidates: Vec<PacketId> = (0..layer)
                .flat_map(|l| by_layer[l].iter().copied())
                .filter(|&p| g.packet(p).dst == src && Some(p) != primary_pred)
                .collect();
            if !candidates.is_empty() {
                let extra = candidates[rng.gen_range(0..candidates.len())];
                let _ = g.add_dependence(extra, id);
            }
        }
        by_layer[layer].push(id);
        ids.push(id);
    }

    debug_assert_eq!(g.packet_count(), config.packets);
    debug_assert_eq!(g.total_volume(), config.total_bits);
    g
}

/// Draws `count` skewed random volumes summing exactly to `total`.
fn calibrated_volumes(count: usize, total: u64, decades: f64, rng: &mut StdRng) -> Vec<u64> {
    // Log-uniform raw draws over the configured spread.
    let raw: Vec<f64> = (0..count)
        .map(|_| 10f64.powf(rng.gen_range(0.0..decades.max(1e-6))))
        .collect();
    let sum: f64 = raw.iter().sum();
    let mut volumes: Vec<u64> = raw
        .iter()
        .map(|r| ((r / sum) * total as f64).floor().max(1.0) as u64)
        .collect();
    // Exact calibration: distribute the residual onto the largest packet
    // (or shave it off the largest packets, never below 1 bit).
    let mut current: u64 = volumes.iter().sum();
    while current != total {
        if current < total {
            let max = volumes
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| v)
                .map(|(i, _)| i)
                .expect("count > 0");
            volumes[max] += total - current;
            current = total;
        } else {
            let excess = current - total;
            let max_idx = volumes
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| v)
                .map(|(i, _)| i)
                .expect("count > 0");
            let shave = excess.min(volumes[max_idx] - 1);
            if shave == 0 {
                // Every packet is at 1 bit and we still exceed the total:
                // impossible because total >= count was asserted.
                unreachable!("total >= count guarantees shaveability");
            }
            volumes[max_idx] -= shave;
            current -= shave;
        }
    }
    volumes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_requested_characteristics_exactly() {
        for (cores, packets, bits, seed) in [
            (5, 43, 78_817, 1u64),
            (6, 17, 174, 2),
            (10, 22, 322_221, 3),
            (62, 344, 9_799_200, 4),
        ] {
            let g = generate(&TgffConfig::new(cores, packets, bits, seed));
            assert_eq!(g.core_count(), cores);
            assert_eq!(g.packet_count(), packets);
            assert_eq!(g.total_volume(), bits);
            g.validate().unwrap();
        }
    }

    #[test]
    fn is_deterministic_per_seed() {
        let config = TgffConfig::new(8, 30, 10_000, 99);
        assert_eq!(generate(&config), generate(&config));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TgffConfig::new(8, 30, 10_000, 1));
        let b = generate(&TgffConfig::new(8, 30, 10_000, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn dependences_are_physically_sensible() {
        // Every dependence p -> q must satisfy p.dst == q.src: the core
        // sends after it received.
        let g = generate(&TgffConfig::new(9, 51, 23_244, 7));
        for id in g.packet_ids() {
            for &succ in g.successors(id) {
                assert_eq!(
                    g.packet(id).dst,
                    g.packet(succ).src,
                    "dependence {id}->{succ} must chain through one core"
                );
            }
        }
    }

    #[test]
    fn graph_is_connected_to_start() {
        let g = generate(&TgffConfig::new(6, 40, 5_000, 5));
        // Kahn order covers all packets (acyclic and rooted).
        assert_eq!(g.topological_order().len(), 40);
        assert!(g.start_packets().count() >= 1);
        assert!(g.end_packets().count() >= 1);
    }

    #[test]
    fn minimum_volume_is_one_bit() {
        let g = generate(&TgffConfig::new(4, 50, 50, 11));
        for id in g.packet_ids() {
            assert_eq!(g.packet(id).bits, 1);
        }
    }

    #[test]
    fn comp_cycles_respect_range() {
        let mut config = TgffConfig::new(5, 25, 9_999, 13);
        config.comp_volume_ratio = None;
        config.comp_range = (7, 9);
        let g = generate(&config);
        for id in g.packet_ids() {
            let c = g.packet(id).comp_cycles;
            assert!((7..=9).contains(&c));
        }
    }

    #[test]
    fn comp_scales_with_volume_by_default() {
        let g = generate(&TgffConfig::new(5, 25, 100_000, 13));
        for id in g.packet_ids() {
            let p = g.packet(id);
            assert!(
                p.comp_cycles as f64 <= 0.5 * p.bits as f64 + 1.0,
                "comp {} too large for {} bits",
                p.comp_cycles,
                p.bits
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn rejects_unreachable_totals() {
        let _ = generate(&TgffConfig::new(4, 100, 50, 0));
    }

    #[test]
    fn infeasible_configs_are_typed_errors() {
        for config in [
            TgffConfig::new(1, 10, 100, 0),
            TgffConfig::new(4, 0, 100, 0),
            TgffConfig::new(4, 10, 9, 0),
        ] {
            let err = try_generate(&config).unwrap_err();
            assert!(err.to_string().contains("infeasible"), "{err}");
        }
        // The checked path generates exactly what `generate` does.
        let config = TgffConfig::new(4, 10, 1_000, 3);
        assert_eq!(
            try_generate(&config).unwrap().total_volume(),
            generate(&config).total_volume()
        );
    }

    #[test]
    fn deep_graphs_have_chains() {
        let mut config = TgffConfig::new(4, 40, 4_000, 17);
        config.depth = Some(10);
        let g = generate(&config);
        assert!(
            g.depth() >= 10,
            "expected at least 10 layers, got {}",
            g.depth()
        );
    }
}
