//! Property-based tests for the multiphased download model.

use bt_model::efficiency::{efficiency_of, EfficiencyModel};
use bt_model::evolution::Walker;
use bt_model::stability::entropy;
use bt_model::trading::{trading_power, trading_power_curve};
use bt_model::transitions::TransitionKernel;
use bt_model::{DownloadState, ModelParams, Phase};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a small but varied parameter set.
fn small_params() -> impl Strategy<Value = ModelParams> {
    (
        2u32..=12, // B
        1u32..=4,  // k
        1u32..=6,  // s
        0.0f64..=1.0,
        0.01f64..=1.0,
        0.01f64..=1.0,
        0.0f64..=1.0,
        0.0f64..=1.0,
    )
        .prop_map(|(b, k, s, p_init, alpha, gamma, p_r, p_n)| {
            ModelParams::builder()
                .pieces(b)
                .max_connections(k)
                .neighbor_set_size(s)
                .p_init(p_init)
                .alpha(alpha)
                .gamma(gamma)
                .p_r(p_r)
                .p_n(p_n)
                .build()
                .expect("strategy generates valid params")
        })
}

proptest! {
    #[test]
    fn kernel_rows_are_stochastic(params in small_params()) {
        let kernel = TransitionKernel::new(&params).unwrap();
        let space = bt_model::state::StateSpace::new(&params);
        for state in space.iter() {
            let succ = kernel.successors(state);
            let total: f64 = succ.iter().map(|&(_, p)| p).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "state {state}: {total}");
            for (next, p) in succ {
                prop_assert!(p > 0.0 && p <= 1.0 + 1e-12);
                prop_assert!(next.b >= state.b.min(1), "pieces never shrink");
                prop_assert!(next.n <= params.max_connections());
                prop_assert!(next.i <= params.neighbor_set_size());
            }
        }
    }

    #[test]
    fn trajectories_are_monotone_and_classified(params in small_params(), seed in any::<u64>()) {
        let t = Walker::new(&params, StdRng::seed_from_u64(seed)).run();
        for pair in t.states().windows(2) {
            prop_assert!(pair[1].b >= pair[0].b);
        }
        // Every state classifies into exactly one phase without panicking.
        for &s in t.states() {
            let _ = Phase::classify(s, params.pieces());
        }
        prop_assert_eq!(t.sojourns().total() as usize, t.steps());
    }

    #[test]
    fn trading_power_is_probability(b in 2u32..=300, frac in 0.01f64..=0.99) {
        let phi = bt_model::params::uniform_phi(b);
        let c = ((f64::from(b) * frac) as u32).clamp(1, b - 1);
        let p = trading_power(c, b, &phi).unwrap();
        prop_assert!((0.0..=1.0).contains(&p), "p({c}) = {p} for B = {b}");
    }

    #[test]
    fn trading_curve_unimodalish(b in 4u32..=80) {
        // Under uniform φ the curve rises from ~0.5, peaks, falls to ~0.5;
        // in particular the middle dominates both ends.
        let phi = bt_model::params::uniform_phi(b);
        let curve = trading_power_curve(b, &phi).unwrap();
        let mid = curve[(b / 2) as usize];
        prop_assert!(mid + 1e-12 >= curve[1], "mid {mid} vs p(1) {}", curve[1]);
        prop_assert!(mid + 1e-12 >= curve[(b - 1) as usize]);
    }

    #[test]
    fn efficiency_fixed_point_valid(k in 1u32..=6, p_r in 0.0f64..=1.0, p_m in 0.05f64..=1.0) {
        let eq = EfficiencyModel::new(k, p_r)
            .unwrap()
            .match_prob(p_m)
            .unwrap()
            .solve()
            .unwrap();
        prop_assert!((eq.classes.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(eq.classes.iter().all(|&x| x >= -1e-12));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&eq.efficiency));
        prop_assert!((eq.efficiency - efficiency_of(&eq.classes)).abs() < 1e-12);
    }

    #[test]
    fn entropy_within_bounds(reps in prop::collection::vec(0u64..1_000, 1..40)) {
        let e = entropy(&reps);
        prop_assert!((0.0..=1.0).contains(&e));
        // Permutation invariance.
        let mut rev = reps.clone();
        rev.reverse();
        prop_assert_eq!(e, entropy(&rev));
    }

    #[test]
    fn absorbed_state_is_terminal(params in small_params()) {
        let kernel = TransitionKernel::new(&params).unwrap();
        let done = DownloadState::absorbed(params.pieces());
        prop_assert_eq!(kernel.successors(done), vec![(done, 1.0)]);
    }
}
