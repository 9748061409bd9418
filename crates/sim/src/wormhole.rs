//! Closed-form wormhole delay equations (paper Equations 6–8).
//!
//! These are the *uncontended* delays; the scheduler in
//! [`crate::schedule()`] adds contention on top. They are exposed separately
//! because the CWM model (which cannot see contention) and several tests
//! use them directly.

use crate::params::SimParams;

/// Routing delay of a packet crossing `k` routers without contention
/// (Equation 6): `dR = (K·(tr + tl) + tl)` cycles — the time for the
/// header flit to travel from the source core to the destination core.
pub fn routing_delay_cycles(params: &SimParams, k: usize) -> u64 {
    k as u64 * (params.routing_cycles + params.link_cycles) + params.link_cycles
}

/// Packet (body) delay of an `n`-flit packet (Equation 7):
/// `dP = tl·(n − 1)` cycles — the time for the remaining flits to drain
/// behind the header.
pub fn packet_delay_cycles(params: &SimParams, flits: u64) -> u64 {
    params.link_cycles * flits.saturating_sub(1)
}

/// Total uncontended packet delay (Equation 8):
/// `d = (K·(tr + tl) + tl·n)` cycles, i.e. the sum of Equations 6 and 7.
pub fn total_delay_cycles(params: &SimParams, k: usize, flits: u64) -> u64 {
    debug_assert_eq!(
        routing_delay_cycles(params, k) + packet_delay_cycles(params, flits),
        k as u64 * (params.routing_cycles + params.link_cycles) + params.link_cycles * flits,
        "Eq. 8 must equal Eq. 6 + Eq. 7"
    );
    k as u64 * (params.routing_cycles + params.link_cycles) + params.link_cycles * flits
}

/// Total uncontended delay in nanoseconds (Equation 8 with the `λ`
/// factor applied).
pub fn total_delay_ns(params: &SimParams, k: usize, flits: u64) -> f64 {
    params.cycles_to_ns(total_delay_cycles(params, k, flits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_delays() {
        // pAB1 in mapping (c): 15 one-bit flits across K = 2 routers with
        // tr = 2, tl = 1 → injected at 6, delivered at 27 (Figure 3(a)).
        let p = SimParams::paper_example();
        assert_eq!(total_delay_cycles(&p, 2, 15), 21);
        // pEA1: 20 flits across 2 routers → 26 cycles (10 → 36).
        assert_eq!(total_delay_cycles(&p, 2, 20), 26);
        // pAF1 in mapping (c): 15 flits across 3 routers → 24 cycles.
        assert_eq!(total_delay_cycles(&p, 3, 15), 24);
    }

    #[test]
    fn eq8_is_sum_of_eq6_and_eq7() {
        let p = SimParams::paper_example();
        for k in 1..6 {
            for n in 1..50 {
                assert_eq!(
                    total_delay_cycles(&p, k, n),
                    routing_delay_cycles(&p, k) + packet_delay_cycles(&p, n)
                );
            }
        }
    }

    #[test]
    fn single_flit_packet_has_header_delay_only() {
        let p = SimParams::paper_example();
        assert_eq!(packet_delay_cycles(&p, 1), 0);
        assert_eq!(total_delay_cycles(&p, 1, 1), routing_delay_cycles(&p, 1));
    }

    #[test]
    fn delay_in_ns_scales_with_lambda() {
        let mut p = SimParams::paper_example();
        p.clock_period_ns = 2.0;
        assert_eq!(total_delay_ns(&p, 2, 15), 42.0);
    }

    #[test]
    fn zero_flit_packet_delay_saturates() {
        let p = SimParams::paper_example();
        assert_eq!(packet_delay_cycles(&p, 0), 0);
    }
}
