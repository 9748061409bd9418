//! Property tests of CDCM swap evaluation: `CdcmCostEvaluator`'s swap
//! answers (the `O(1)` route-unchanged shortcut, full evaluations of the
//! swapped mapping and cached accepted moves) must be *bit-exact* with a
//! fresh evaluation over random swap chains (accepted moves, rejected
//! moves and cache queries interleaved), and delta-driven annealing must
//! follow the same trajectory as full-evaluation annealing, seed for
//! seed.
//!
//! Case counts default low for the regular CI run; the scheduled fuzz job
//! raises them through `NOC_FUZZ_CASES`.

use noc::apps::TgffConfig;
use noc::energy::{CdcmCostEvaluator, Technology};
use noc::mapping::{anneal, anneal_delta, CdcmObjective, CostFunction, SaConfig, SwapDeltaCost};
use noc::model::{Cdcg, Mapping, Mesh, TileId};
use noc::sim::SimParams;
use proptest::prelude::*;

/// Cases per property; override with `NOC_FUZZ_CASES` (the scheduled CI
/// fuzz job runs hundreds).
fn fuzz_cases() -> u32 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// A random application plus a mesh that fits it, plus a parameter set
/// (alternating injection serialization to exercise the FIFO paths).
fn instance() -> impl Strategy<Value = (Cdcg, Mesh, SimParams)> {
    (2usize..7, 1usize..40, 2usize..5, 2usize..4, any::<u64>()).prop_map(
        |(cores, packets, width, height, seed)| {
            let cores = cores.min(width * height).max(2);
            let packets = packets.max(1);
            let cdcg = noc::apps::generate(&TgffConfig::new(
                cores,
                packets,
                (packets as u64) * 60,
                seed,
            ));
            let mesh = Mesh::new(width, height).expect("valid dims");
            let mut params = SimParams::new();
            params.injection_serialization = seed % 2 == 0;
            (cdcg, mesh, params)
        },
    )
}

fn permuted_mapping(mesh: &Mesh, cores: usize, seed: u64) -> Mapping {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut tiles: Vec<TileId> = mesh.tiles().collect();
    tiles.shuffle(&mut rng);
    Mapping::from_tiles(mesh, tiles.into_iter().take(cores)).expect("injective")
}

/// Small deterministic generator for swap sequences.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Random swap chains with accepts, rejects and interleaved cache
    /// queries: every answer equals a fresh evaluator's `evaluate` of the
    /// same mapping, exactly.
    #[test]
    fn swap_texec_is_bit_exact_over_random_swap_chains(
        (cdcg, mesh, params) in instance(),
        seed in any::<u64>(),
    ) {
        let tech = Technology::t007();
        let mut engine = CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params);
        let reference = |m: &Mapping| {
            CdcmCostEvaluator::new(&cdcg, &mesh, &tech, &params)
                .evaluate(m)
                .expect("evaluates")
        };

        let mut current = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let mut rng = seed;
        let n = mesh.tile_count();
        for step in 0..40u32 {
            let a = TileId::new((splitmix(&mut rng) % n as u64) as usize);
            let b = TileId::new((splitmix(&mut rng) % n as u64) as usize);
            let got = engine.evaluate_swap(&current, a, b).expect("evaluates");
            let mut swapped = current.clone();
            swapped.swap_tiles(a, b);
            let want = reference(&swapped);
            prop_assert_eq!(got, want, "step {} swap {}-{}", step, a, b);
            match splitmix(&mut rng) % 3 {
                0 => {
                    // Accept: the next query starts from the swapped
                    // mapping, which the evaluator has cached.
                    current = swapped;
                }
                1 => {
                    // Reject: the next query reuses the unchanged
                    // mapping (nothing to undo in the evaluator).
                }
                _ => {
                    // Cache query for the current mapping between moves.
                    prop_assert_eq!(
                        engine.evaluate(&current).expect("evaluates"),
                        reference(&current)
                    );
                }
            }
        }
        // The chain must have been answered through the swap paths.
        let stats = engine.delta_stats();
        prop_assert!(stats.route_unchanged_moves + stats.full_path_moves > 0);
    }

    /// `CdcmObjective::swap_delta` is exactly `cost(swap(m)) - cost(m)` —
    /// bitwise, because both sides run identical floating-point
    /// operations.
    #[test]
    fn objective_swap_delta_is_the_exact_cost_difference(
        (cdcg, mesh, params) in instance(),
        seed in any::<u64>(),
    ) {
        let tech = Technology::t007();
        let obj = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        let mut current = permuted_mapping(&mesh, cdcg.core_count(), seed);
        let mut rng = seed;
        let n = mesh.tile_count();
        for _ in 0..12u32 {
            let a = TileId::new((splitmix(&mut rng) % n as u64) as usize);
            let b = TileId::new((splitmix(&mut rng) % n as u64) as usize);
            let delta = obj.swap_delta(&current, a, b);
            let mut swapped = current.clone();
            swapped.swap_tiles(a, b);
            prop_assert_eq!(delta, obj.cost(&swapped) - obj.cost(&current));
            if splitmix(&mut rng).is_multiple_of(2) {
                current = swapped;
            }
        }
    }

    /// Delta-driven SA and full-evaluation SA visit the same moves and
    /// accept the same candidates, so they land on the same best mapping
    /// and cost, seed for seed.
    #[test]
    fn delta_sa_matches_full_sa_trajectories(
        (cdcg, mesh, params) in instance(),
        seed in any::<u64>(),
    ) {
        let tech = Technology::t007();
        let cores = cdcg.core_count();
        // A budget the quick profile never exhausts, so both variants
        // terminate on the stall condition at the same epoch.
        let mut config = SaConfig::quick(seed);
        config.max_evaluations = 10_000_000;

        let full_obj = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        let full = anneal(&full_obj, &mesh, cores, &config);

        let delta_obj = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        let delta = anneal_delta(&delta_obj, &mesh, cores, &config);

        prop_assert_eq!(&full.mapping, &delta.mapping);
        prop_assert_eq!(full.cost, delta.cost);
        // And the delta run actually answered its moves by swap.
        let stats = delta_obj.delta_stats();
        prop_assert!(
            stats.route_unchanged_moves + stats.full_path_moves > 0,
            "delta SA never evaluated a swap: {:?}",
            stats
        );
    }
}
