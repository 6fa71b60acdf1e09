//! Order statistics and the regression rule.

use crate::catalog::{Better, Metric};

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method),
/// so that spreads printed here match ones computed with Python.
/// A single value is its own quartiles; no values give zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let quantile = |i: usize| {
        let m = i * (len + 1);
        let j = (m / 4).clamp(1, len - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quantile(1), quantile(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The tail of a timing distribution: the highest of p99.9, p99, p95,
/// p90, p75 and p50 (nearest rank) that still has at least ten samples
/// beyond it, as `(percentile, value)`. `None` below 20 samples, where
/// not even the median has ten samples above it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    // Percentiles in per-mille, so that ranks are exact integers.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find_map(|per_mille: usize| {
            let rank = (per_mille * n).div_ceil(1000);
            (rank >= 1 && n >= rank + 10).then(|| (per_mille as f64 / 10.0, v[rank - 1]))
        })
}

/// How a metric moved between a parent's runs and a change's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The parent's own runs spread wider than the bound allows, and the
    /// change does not beat every parent run.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies a metric's bound: the change is worse when its median is
/// worse than the parent's by more than `bound × parent median` (or the
/// metric's absolute floor, whichever is larger), and better by the
/// mirror rule. When the parent's interquartile range exceeds that
/// allowance the result is unresolved, unless every run of the change
/// reads better than every run of the parent.
pub fn verdict(metric: &Metric, parent: &[f64], change: &[f64]) -> Verdict {
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let base = median(parent);
    let worsening = sign * (median(change) - base);
    let allowance = (metric.bound * base.abs()).max(metric.floor);
    let (q1, q3) = quartiles(parent);
    if q3 - q1 > allowance {
        let worst_change = change
            .iter()
            .map(|&x| sign * x)
            .fold(f64::NEG_INFINITY, f64::max);
        let best_parent = parent
            .iter()
            .map(|&x| sign * x)
            .fold(f64::INFINITY, f64::min);
        return if worst_change < best_parent {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > allowance {
        Verdict::Worse
    } else if -worsening > allowance {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
        assert_eq!(median(&ten), 5.5);
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&samples(19)), None);
        // 20 samples: the median (rank 10) has ten above it; p75 (rank 15) only five.
        assert_eq!(tail(&samples(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&samples(40)), Some((75.0, 30.0)));
        assert_eq!(tail(&samples(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&samples(999)), Some((95.0, 950.0)));
        assert_eq!(tail(&samples(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&samples(10_000)), Some((99.9, 9990.0)));
        // Order of the input does not matter.
        let mut shuffled = samples(100);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), Some((90.0, 90.0)));
    }

    #[test]
    fn bound_rule_flags_only_changes_beyond_the_bound() {
        let run_s = catalog::find("run_s").expect("declared");
        let parent = [1.00, 1.01, 0.99, 1.00, 1.00];
        assert_eq!(verdict(run_s, &parent, &[1.20; 5]), Verdict::Same);
        assert_eq!(verdict(run_s, &parent, &[1.30; 5]), Verdict::Worse);
        assert_eq!(verdict(run_s, &parent, &[0.70; 5]), Verdict::Better);
        let throughput = Metric {
            better: Better::Higher,
            ..*run_s
        };
        assert_eq!(verdict(&throughput, &parent, &[0.70; 5]), Verdict::Worse);
        assert_eq!(verdict(&throughput, &parent, &[1.30; 5]), Verdict::Better);
    }

    #[test]
    fn setup_floor_absorbs_millisecond_noise() {
        let setup_s = catalog::find("setup_s").expect("declared");
        // 150% slower but only 15 ms: inside the 20 ms floor.
        assert_eq!(verdict(setup_s, &[0.010; 5], &[0.025; 5]), Verdict::Same);
        assert_eq!(verdict(setup_s, &[0.010; 5], &[0.050; 5]), Verdict::Worse);
        // Above the floor the relative bound rules: 0.25 × 1 s.
        assert_eq!(verdict(setup_s, &[1.0; 5], &[1.2; 5]), Verdict::Same);
        assert_eq!(verdict(setup_s, &[1.0; 5], &[1.3; 5]), Verdict::Worse);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_the_change_wins_every_run() {
        let run_s = catalog::find("run_s").expect("declared");
        let noisy = [0.7, 0.8, 1.0, 1.2, 1.3];
        assert_eq!(verdict(run_s, &noisy, &[1.5; 5]), Verdict::Unresolved);
        assert_eq!(verdict(run_s, &noisy, &[1.0; 5]), Verdict::Unresolved);
        assert_eq!(
            verdict(run_s, &noisy, &[0.5, 0.6, 0.55, 0.6, 0.5]),
            Verdict::Better
        );
    }
}
