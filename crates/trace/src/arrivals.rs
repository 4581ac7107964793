//! Open-loop arrival processes for load generation.
//!
//! A closed-loop driver (send, wait for the reply, send again) hides
//! overload: when the server slows down, the driver slows down with it
//! and the measured latency stays flat — the classic coordinated-
//! omission trap. An *open-loop* driver fixes the arrival schedule in
//! advance and holds to it regardless of how the server is doing, so
//! queueing delay shows up in the latency distribution where it
//! belongs.
//!
//! [`ArrivalSchedule::generate`] produces such a schedule: exponential
//! inter-arrivals at a fixed mean rate, optionally modulated by a
//! two-state burst process (bursts arrive faster, gaps slower, with the
//! state dwelling over a geometric number of arrivals) whose rates are
//! balanced so the *time-averaged* rate still equals the configured
//! target. The schedule is a pure function of its config — same seed,
//! same bytes, regardless of how many threads later replay it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of an open-loop arrival schedule.
#[derive(Clone, Debug)]
pub struct ArrivalConfig {
    /// Mean arrival rate, requests per second. Must be positive and
    /// finite.
    pub rate_rps: f64,
    /// Number of arrivals to schedule.
    pub n_arrivals: usize,
    /// Burstiness knob: `0.0` is a plain Poisson process; larger values
    /// alternate bursts (rate × (1 + burstiness)) with lulls
    /// (rate ÷ (1 + burstiness)), time-balanced so the mean rate stays
    /// `rate_rps`.
    pub burstiness: f64,
    /// Mean arrivals per burst/lull episode (geometric dwell).
    pub mean_episode: usize,
    /// RNG seed; the schedule is a pure function of this config.
    pub seed: u64,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        Self {
            rate_rps: 1_000.0,
            n_arrivals: 1_000,
            burstiness: 2.0,
            mean_episode: 32,
            seed: 0x00a1_10ad,
        }
    }
}

/// A fixed open-loop arrival schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalSchedule {
    /// Arrival offsets from schedule start, nanoseconds, non-decreasing.
    pub offsets_ns: Vec<u64>,
}

impl ArrivalSchedule {
    /// Generates the schedule. Deterministic: two calls with the same
    /// config yield bit-identical offsets.
    pub fn generate(cfg: &ArrivalConfig) -> Self {
        assert!(
            cfg.rate_rps.is_finite() && cfg.rate_rps > 0.0,
            "arrival rate must be positive and finite"
        );
        assert!(
            cfg.burstiness >= 0.0 && cfg.burstiness.is_finite(),
            "burstiness must be non-negative and finite"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Burst/lull rates scaled so their time-weighted harmonic mean
        // is exactly rate_rps: f and 1/f rates spend unequal time per
        // arrival, and the (f + 1/f)/2 factor re-centres the average.
        let f = 1.0 + cfg.burstiness;
        let balance = (f + 1.0 / f) / 2.0;
        let rate_hi = cfg.rate_rps * f * balance;
        let rate_lo = cfg.rate_rps / f * balance;

        let mean_episode = cfg.mean_episode.max(1) as f64;
        let mut offsets_ns = Vec::with_capacity(cfg.n_arrivals);
        let mut t_ns = 0f64;
        let mut in_burst = true;
        for _ in 0..cfg.n_arrivals {
            // Geometric dwell: leave the current state with probability
            // 1/mean_episode per arrival.
            if rng.gen::<f64>() < 1.0 / mean_episode {
                in_burst = !in_burst;
            }
            let rate = if in_burst { rate_hi } else { rate_lo };
            // Inverse-CDF exponential sample; (1 - u) keeps ln() away
            // from 0 since gen::<f64>() is in [0, 1).
            let u: f64 = rng.gen();
            let gap_s = -(1.0 - u).ln() / rate;
            t_ns += gap_s * 1e9;
            offsets_ns.push(t_ns as u64);
        }
        Self { offsets_ns }
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.offsets_ns.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.offsets_ns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Achieved mean rate over the schedule span.
    fn mean_rate_rps(s: &ArrivalSchedule) -> f64 {
        let span = s.offsets_ns.last().map_or(0.0, |&t| t as f64 / 1e9);
        if span <= 0.0 {
            return 0.0;
        }
        s.len() as f64 / span
    }

    /// Squared coefficient of variation of the inter-arrival gaps
    /// (1 for a Poisson process, larger for bursty ones).
    fn gap_cv2(s: &ArrivalSchedule) -> f64 {
        if s.len() < 2 {
            return 0.0;
        }
        let gaps: Vec<f64> = s
            .offsets_ns
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        var / (mean * mean)
    }

    #[test]
    fn schedule_is_deterministic_and_ordered() {
        let cfg = ArrivalConfig {
            n_arrivals: 5_000,
            ..Default::default()
        };
        let a = ArrivalSchedule::generate(&cfg);
        let b = ArrivalSchedule::generate(&cfg);
        assert_eq!(a, b, "same config, bit-identical schedule");
        assert!(a.offsets_ns.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn mean_rate_tracks_target_even_when_bursty() {
        for burstiness in [0.0, 1.0, 4.0] {
            let cfg = ArrivalConfig {
                rate_rps: 20_000.0,
                n_arrivals: 40_000,
                burstiness,
                seed: 42,
                ..Default::default()
            };
            let s = ArrivalSchedule::generate(&cfg);
            let rate = mean_rate_rps(&s);
            assert!(
                (rate - 20_000.0).abs() / 20_000.0 < 0.10,
                "burstiness {burstiness}: mean rate {rate:.0} should be ~20000"
            );
        }
    }

    #[test]
    fn burstiness_raises_gap_dispersion() {
        let poisson = ArrivalSchedule::generate(&ArrivalConfig {
            burstiness: 0.0,
            n_arrivals: 20_000,
            seed: 3,
            ..Default::default()
        });
        let bursty = ArrivalSchedule::generate(&ArrivalConfig {
            burstiness: 4.0,
            n_arrivals: 20_000,
            seed: 3,
            ..Default::default()
        });
        let (p, b) = (gap_cv2(&poisson), gap_cv2(&bursty));
        assert!((p - 1.0).abs() < 0.2, "Poisson CV² ≈ 1, got {p:.2}");
        assert!(b > p + 1.0, "bursty CV² {b:.2} must exceed Poisson {p:.2}");
    }

    #[test]
    fn seeds_decorrelate_schedules() {
        let a = ArrivalSchedule::generate(&ArrivalConfig {
            seed: 1,
            ..Default::default()
        });
        let b = ArrivalSchedule::generate(&ArrivalConfig {
            seed: 2,
            ..Default::default()
        });
        assert_ne!(a, b);
    }
}
