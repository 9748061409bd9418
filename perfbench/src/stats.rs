//! The benchmark's own arithmetic: medians, quartiles, percentiles under
//! the "at least ten samples beyond" rule, and open-loop sojourn and
//! generator lateness. Every function here has a self-test below.

/// Sorted copy of `values` (total order; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method, which is
/// what Python's `statistics.quantiles(values, n=4)` computes. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let len = v.len();
    match len {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        _ => {
            let (n, m) = (4usize, len + 1);
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..n) {
                let j = (i * m / n).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
            }
            out
        }
    }
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it, the condition for reporting it.
pub fn resolvable(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// The highest of the usual reporting percentiles that `n` samples
/// resolve (at least ten samples beyond it); the median when none does.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| resolvable(n, p))
        .unwrap_or(50.0)
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its completion was observed (`None` when it failed
/// or was never observed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// Due time on the seeded schedule, seconds from the phase start.
    pub due: f64,
    /// Actual send time, seconds from the phase start.
    pub sent: f64,
    /// Observed completion, seconds from the phase start.
    pub completed: Option<f64>,
}

/// Sojourn of each request measured from its due time, so a stalled
/// generator's delay counts against every request behind it. A request
/// never observed to complete is charged until `horizon` (the end of
/// observation), which puts it over any latency limit the run could
/// have met.
pub fn sojourns(samples: &[OpenLoopSample], horizon: f64) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.completed.unwrap_or(horizon.max(s.due)) - s.due)
        .collect()
}

/// How late the generator sent each request relative to its schedule
/// (never negative).
pub fn lateness(samples: &[OpenLoopSample]) -> Vec<f64> {
    samples.iter().map(|s| (s.sent - s.due).max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((relative_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&[4.0], 1.0), 4.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert!(resolvable(1000, 99.0));
        assert!(!resolvable(999, 99.0));
        assert!(resolvable(10_000, 99.9));
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(19), 50.0);
    }

    #[test]
    fn open_loop_sojourn_counts_from_the_due_time() {
        let samples = [
            // On time: sojourn is the service time.
            OpenLoopSample {
                due: 1.0,
                sent: 1.0,
                completed: Some(1.25),
            },
            // Sent late because the generator stalled: the stall counts.
            OpenLoopSample {
                due: 2.0,
                sent: 2.5,
                completed: Some(2.75),
            },
            // Never observed: charged until the end of observation.
            OpenLoopSample {
                due: 3.0,
                sent: 3.0,
                completed: None,
            },
        ];
        assert_eq!(sojourns(&samples, 10.0), vec![0.25, 0.75, 7.0]);
        assert_eq!(lateness(&samples), vec![0.0, 0.5, 0.0]);
        // A horizon before the due time never yields a negative sojourn.
        assert_eq!(sojourns(&samples[2..], 1.0), vec![0.0]);
    }
}
