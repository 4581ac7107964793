//! Quantiles and the slice estimator the latencies are reported by.
//!
//! On this host the same request costs one of several prices, and which
//! one changes every few seconds: whether the guest's scheduler wakes
//! the serving thread on the client's CPU or on the other one, and how
//! fast the hypervisor wakes a halted vCPU, are not the program's doing.
//! Whole-run latency quantiles therefore move by 10 to 20 % between
//! runs of the same code. Each run is cut into [`SEGMENTS`] equal time
//! slices, every latency quantile is computed per slice, and the value
//! reported is the *best-decile boundary* over the slices: the 10th
//! percentile of the slice values.
//!
//! The minimum is not used, and slices better than the median slice by
//! more than [`REGIME_CUT`] are left out first: while something else
//! keeps the second CPU busy (writeback after the set-up, mostly) the
//! threads of a request share a CPU and a stretch of a run is two to
//! three times faster than the rest. That regime is real but does not
//! last, and how much of a run it covers varies from 0 to 40 %.
//!
//! What this cannot see is a stall that leaves a tenth of the slices
//! untouched. Throughput is therefore taken over the whole run, where
//! every stall counts, and the whole-run quantiles are printed beside
//! the reported ones. `README.md` has the measurements.

/// Time slices per run.
pub const SEGMENTS: usize = 64;
/// The slice quantile that is reported.
pub const BEST_SHARE: f64 = 0.10;
/// A slice is left out when its value is below this share of the
/// median slice's (latency), or the median slice's is below this share
/// of its own (throughput).
pub const REGIME_CUT: f64 = 0.6;

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Best-decile boundary of per-slice latencies (lower is better).
pub fn best_low(per_slice: &[f64]) -> f64 {
    let floor = REGIME_CUT * median(per_slice);
    let kept: Vec<f64> = per_slice.iter().copied().filter(|&v| v >= floor).collect();
    quantile(&kept, BEST_SHARE)
}

/// Best-decile boundary of per-slice throughputs (higher is better).
pub fn best_high(per_slice: &[f64]) -> f64 {
    let ceiling = median(per_slice) / REGIME_CUT;
    let kept: Vec<f64> = per_slice
        .iter()
        .copied()
        .filter(|&v| v <= ceiling)
        .collect();
    quantile(&kept, 1.0 - BEST_SHARE)
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (exclusive method), which is how the driver measures spread.
pub fn python_quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |k: usize| {
        if n == 1 {
            return v[0];
        }
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// How far apart the medians of several sets of runs lie, as a share
/// of the smallest: `(max − min) ÷ min`. Symmetric on purpose: the
/// sets run the same code, so a later set that is much *better* than
/// the first disagrees with it as much as one that is worse.
pub fn gap_between(medians: &[f64]) -> f64 {
    let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if medians.is_empty() {
        0.0
    } else {
        (hi - lo) / lo
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn best_boundary_ignores_a_short_fast_regime() {
        // 64 slices: 6 from the fast regime, the rest between 70 and 100.
        let mut lat: Vec<f64> = (0..58).map(|i| 70.0 + (i % 30) as f64).collect();
        lat.extend([25.0, 26.0, 27.0, 30.0, 36.0, 37.0]);
        let v = best_low(&lat);
        assert!((70.0..80.0).contains(&v), "{v}");
        let rate: Vec<f64> = lat.iter().map(|l| 1e6 / l).collect();
        let r = best_high(&rate);
        assert!((1e6 / 80.0..=1e6 / 70.0).contains(&r), "{r}");
    }

    #[test]
    fn a_better_later_set_is_a_gap_too() {
        // Set 1 is 40 % better than set 0, in either direction of
        // "better": the same code cannot have produced both.
        assert!((gap_between(&[100.0, 60.0]) - 40.0 / 60.0).abs() < 1e-12);
        assert!((gap_between(&[60.0, 100.0]) - 40.0 / 60.0).abs() < 1e-12);
        assert_eq!(gap_between(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(gap_between(&[7.0]), 0.0);
    }

    #[test]
    fn python_quartiles_match_statistics_module() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(python_quartiles(&v), (2.75, 5.5, 8.25));
    }
}
