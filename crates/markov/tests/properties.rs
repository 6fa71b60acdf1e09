//! Property-based tests for the numeric substrate.

use bt_markov::chain::sample_index;
use bt_markov::dist::{choose_ratio, ln_choose, sample_exponential, Empirical};
use bt_markov::fixed_point::{iterate, Options};
use bt_markov::{Binomial, Matrix, TransitionMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random row-stochastic matrix of size 2..=6.
fn stochastic_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..=6).prop_flat_map(|n| {
        prop::collection::vec(
            prop::collection::vec(0.01f64..1.0, n).prop_map(|raw| {
                let sum: f64 = raw.iter().sum();
                raw.into_iter().map(|v| v / sum).collect::<Vec<f64>>()
            }),
            n,
        )
    })
}

proptest! {
    #[test]
    fn step_preserves_probability_mass(rows in stochastic_rows(), start in 0usize..6) {
        let p = TransitionMatrix::from_rows(rows).unwrap();
        let n = p.n_states();
        let mut dist = vec![0.0; n];
        dist[start % n] = 1.0;
        for _ in 0..5 {
            dist = p.step(&dist);
            let sum: f64 = dist.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(dist.iter().all(|&x| x >= -1e-12));
        }
    }

    #[test]
    fn binomial_pmf_normalizes(n in 0u64..120, p in 0.0f64..=1.0) {
        let b = Binomial::new(n, p).unwrap();
        let total: f64 = b.pmf_vec().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "total={total}");
    }

    #[test]
    fn binomial_mean_matches_pmf(n in 1u64..80, p in 0.0f64..=1.0) {
        let b = Binomial::new(n, p).unwrap();
        let mean: f64 = b.pmf_vec().iter().enumerate().map(|(k, &q)| k as f64 * q).sum();
        prop_assert!((mean - b.mean()).abs() < 1e-7);
    }

    #[test]
    fn binomial_symmetry(n in 0u64..60, k in 0u64..60) {
        // Bin(n, 1/2) pmf is symmetric: pmf(k) == pmf(n-k).
        prop_assume!(k <= n);
        let b = Binomial::new(n, 0.5).unwrap();
        prop_assert!((b.pmf(k) - b.pmf(n - k)).abs() < 1e-12);
    }

    #[test]
    fn ln_choose_pascal_identity(n in 1u64..60, k in 1u64..60) {
        // C(n, k) = C(n-1, k-1) + C(n-1, k).
        prop_assume!(k <= n);
        let lhs = ln_choose(n, k).exp();
        let rhs = ln_choose(n - 1, k - 1).exp()
            + if k < n { ln_choose(n - 1, k).exp() } else { 0.0 };
        prop_assert!((lhs - rhs).abs() / lhs.max(1.0) < 1e-9);
    }

    #[test]
    fn choose_ratio_in_unit_interval(a in 0u64..200, c in 0u64..200, b in 0u64..200) {
        // When a <= b and c <= b, C(a,c)/C(b,c) is a probability.
        prop_assume!(c <= b && a <= b);
        let r = choose_ratio(a, c, b).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&r), "r={r}");
    }

    #[test]
    fn sample_index_always_positive_weight(weights in prop::collection::vec(0.0f64..10.0, 1..20), seed in any::<u64>()) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = sample_index(&weights, &mut rng);
        prop_assert!(weights[idx] > 0.0, "sampled index {idx} has zero weight");
    }

    #[test]
    fn exponential_samples_nonnegative(rate in 0.01f64..100.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = sample_exponential(rate, &mut rng);
        prop_assert!(x >= 0.0 && x.is_finite());
    }

    #[test]
    fn empirical_counts_normalize(counts in prop::collection::vec(0u64..50, 1..20)) {
        prop_assume!(counts.iter().sum::<u64>() > 0);
        let e = Empirical::from_counts(&counts).unwrap();
        let sum: f64 = e.probs().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(e.mean() <= e.max_value() as f64 + 1e-12);
    }

    #[test]
    fn solve_recovers_solution(n in 2usize..5, seed in any::<u64>()) {
        // Build a diagonally dominant (hence nonsingular) system.
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let mut rows = vec![vec![0.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            for v in row.iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
            row[i] += n as f64 + 1.0;
        }
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let b: Vec<f64> = rows
            .iter()
            .map(|row| row.iter().zip(&x_true).map(|(a, x)| a * x).sum())
            .collect();
        let a = Matrix::from_rows(rows).unwrap();
        let x = a.solve(&b).unwrap();
        for (xs, xt) in x.iter().zip(&x_true) {
            prop_assert!((xs - xt).abs() < 1e-8, "{xs} vs {xt}");
        }
    }

    #[test]
    fn fixed_point_contraction_converges(x0 in -10.0f64..10.0, target in -5.0f64..5.0) {
        // x -> (x + target) / 2 contracts to `target`.
        let fp = iterate(vec![x0], Options::default(), |x, out| {
            out[0] = 0.5 * (x[0] + target);
        }).unwrap();
        prop_assert!((fp.value[0] - target).abs() < 1e-9);
    }
}

// --- Row-stochasticity debug assertions -------------------------------
//
// Every transition-matrix construction site calls
// `debug_assert_row_stochastic`; these tests exercise the helper both
// ways: generated stochastic matrices must pass silently, and corrupted
// rows must trip the assertion in debug/test builds.

proptest! {
    #[test]
    fn stochastic_rows_pass_the_debug_assertion(rows in stochastic_rows()) {
        bt_markov::chain::debug_assert_row_stochastic(
            "property",
            rows.iter().map(Vec::as_slice),
        );
        // The validated constructor (which also runs the assertion)
        // accepts the same rows.
        prop_assert!(TransitionMatrix::from_rows(rows).is_ok());
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "not row-stochastic")]
fn unnormalized_row_trips_the_debug_assertion() {
    let rows = [vec![0.6, 0.6], vec![0.5, 0.5]];
    bt_markov::chain::debug_assert_row_stochastic("test", rows.iter().map(Vec::as_slice));
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "outside [0, 1]")]
fn out_of_range_entry_trips_the_debug_assertion() {
    let rows = [vec![1.5, -0.5]];
    bt_markov::chain::debug_assert_row_stochastic("test", rows.iter().map(Vec::as_slice));
}
