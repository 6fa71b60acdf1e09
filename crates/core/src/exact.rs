//! Exact (fundamental-matrix) analyses of the download chain.
//!
//! The full `(k+1)(B+1)(s+1)` state space is enumerated and the
//! absorbing-chain machinery of [`bt_markov`] gives closed-form
//! expectations, with no Monte-Carlo error:
//!
//! * expected total download time ([`expected_download_time`], re-exported
//!   from the kernel);
//! * expected steps spent in each of the three phases
//!   ([`expected_phase_sojourns`]) — the exact version of the paper's
//!   per-phase analysis;
//! * the probability of ever entering the last download phase
//!   ([`last_phase_probability`]), the paper's "a peer makes a transition
//!   to the last download phase with a certain probability".
//!
//! The block solves behind them cost in proportion to the chain's
//! non-zeros; what still grows as the square of the state count is the
//! dense transition matrix they read
//! ([`TransitionKernel::build_matrix`]).

use bt_markov::AbsorbingChain;

use crate::params::ModelParams;
use crate::phase::Phase;
use crate::state::DownloadState;
use crate::transitions::TransitionKernel;
use crate::Result;
use bt_markov::float::exactly_zero;

/// Exact expected steps from `(0, 0, 0)` to absorption.
///
/// Equivalent to [`TransitionKernel::expected_download_time`]; exposed here
/// alongside the other exact analyses.
///
/// # Errors
///
/// Propagates kernel and linear-algebra errors (singular when `α = 0` or
/// `γ = 0` makes absorption unreachable).
pub fn expected_download_time(params: &ModelParams) -> Result<f64> {
    TransitionKernel::new(params)?.expected_download_time()
}

/// Exact expected steps spent in each phase (bootstrap, efficient, last
/// download) starting from `(0, 0, 0)`, via the start row of the
/// fundamental matrix: the expected visits to every transient state,
/// summed by phase.
///
/// # Errors
///
/// Same conditions as [`expected_download_time`].
pub fn expected_phase_sojourns(params: &ModelParams) -> Result<[f64; 3]> {
    let kernel = TransitionKernel::new(params)?;
    let (space, matrix) = kernel.build_matrix()?;
    let absorbed = space.index(DownloadState::absorbed(params.pieces()));
    let chain = AbsorbingChain::new(&matrix, &[absorbed])?;
    let start_block = chain
        .transient_states()
        .iter()
        .position(|&s| s == space.index(DownloadState::INITIAL))
        .expect("initial state is transient");
    let visits = chain.expected_visits(start_block)?;
    let mut sojourns = [0.0; 3];
    for (block_idx, &state_idx) in chain.transient_states().iter().enumerate() {
        let state = space.state(state_idx);
        match Phase::classify(state, params.pieces()) {
            Phase::Bootstrap => sojourns[0] += visits[block_idx],
            Phase::Efficient => sojourns[1] += visits[block_idx],
            Phase::LastDownload => sojourns[2] += visits[block_idx],
            Phase::Done => {}
        }
    }
    Ok(sojourns)
}

/// Exact probability that a download ever enters the last download phase,
/// computed by making every last-download state absorbing and reading the
/// absorption split of the start state alone: its expected visits times
/// the one-step mass each visited state sends into the last phase.
///
/// # Errors
///
/// Same conditions as [`expected_download_time`].
pub fn last_phase_probability(params: &ModelParams) -> Result<f64> {
    let kernel = TransitionKernel::new(params)?;
    let (space, matrix) = kernel.build_matrix()?;
    let pieces = params.pieces();
    // Rebuild the matrix with last-download states absorbing.
    let n = space.len();
    let mut rows = matrix.as_matrix().clone();
    let mut absorbing = Vec::new();
    let mut last_states = Vec::new();
    for (idx, state) in space.iter().enumerate() {
        let phase = Phase::classify(state, pieces);
        if phase == Phase::LastDownload || state.is_absorbed(pieces) {
            for j in 0..n {
                rows[(idx, j)] = 0.0;
            }
            rows[(idx, idx)] = 1.0;
            absorbing.push(idx);
            if phase == Phase::LastDownload {
                last_states.push(idx);
            }
        }
    }
    bt_markov::chain::debug_assert_row_stochastic(
        "last_phase_probability",
        (0..n).map(|r| rows.row(r)),
    );
    let modified = bt_markov::TransitionMatrix::from_matrix(rows)?;
    let chain = AbsorbingChain::new(&modified, &absorbing)?;
    let start_block = chain
        .transient_states()
        .iter()
        .position(|&s| s == space.index(DownloadState::INITIAL))
        .expect("initial state is transient");
    let visits = chain.expected_visits(start_block)?;
    // B[start, a] = Σ_j N[start, j] · P[j, a], summed over the
    // last-download states a.
    let mut p_last = 0.0;
    for (&state_idx, &v) in chain.transient_states().iter().zip(&visits) {
        if exactly_zero(v) {
            continue;
        }
        let into_last: f64 = last_states
            .iter()
            .map(|&a| modified.prob(state_idx, a))
            .sum();
        p_last += v * into_last;
    }
    Ok(p_last.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_params() -> ModelParams {
        ModelParams::builder()
            .pieces(8)
            .max_connections(2)
            .neighbor_set_size(3)
            .alpha(0.4)
            .gamma(0.3)
            .build()
            .unwrap()
    }

    #[test]
    fn phase_sojourns_sum_to_total_time() {
        let params = small_params();
        let total = expected_download_time(&params).unwrap();
        let phases = expected_phase_sojourns(&params).unwrap();
        let sum: f64 = phases.iter().sum();
        assert!(
            (sum - total).abs() < 1e-8,
            "phases {phases:?} sum {sum} vs total {total}"
        );
        assert!(phases.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn exact_matches_monte_carlo() {
        let params = small_params();
        let exact = expected_phase_sojourns(&params).unwrap();
        let tl =
            crate::evolution::expected_timeline(&params, 4_000, StdRng::seed_from_u64(3)).unwrap();
        for (i, name) in ["bootstrap", "efficient", "last"].iter().enumerate() {
            let mc = tl.mean_sojourns[i];
            let ex = exact[i];
            let tol = (0.15 * ex).max(0.15);
            assert!((mc - ex).abs() < tol, "{name}: MC {mc:.3} vs exact {ex:.3}");
        }
    }

    #[test]
    fn last_phase_probability_in_unit_interval() {
        let p = last_phase_probability(&small_params()).unwrap();
        assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    #[test]
    fn smaller_neighbor_set_raises_last_phase_probability() {
        let prob = |s: u32| {
            let params = ModelParams::builder()
                .pieces(8)
                .max_connections(2)
                .neighbor_set_size(s)
                .build()
                .unwrap();
            last_phase_probability(&params).unwrap()
        };
        let small = prob(1);
        let large = prob(5);
        assert!(
            small > large,
            "s=1 ({small:.3}) should stall more than s=5 ({large:.3})"
        );
    }

    #[test]
    fn zero_gamma_still_analyzable_for_last_phase_probability() {
        // With γ = 0 the last-download states are true sinks, which is
        // exactly how last_phase_probability treats them anyway.
        let params = ModelParams::builder()
            .pieces(6)
            .max_connections(2)
            .neighbor_set_size(2)
            .gamma(0.0)
            .build()
            .unwrap();
        let p = last_phase_probability(&params).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }
}

/// Transient phase-occupancy analysis — the §6 "future work" the paper
/// defers: the time-dependent probability of being in each phase (plus
/// absorbed), computed by stepping the exact state distribution of the
/// chain for `steps` rounds.
///
/// Returns one `[bootstrap, efficient, last, done]` row per step,
/// starting with the round-0 point mass on `(0, 0, 0)`.
///
/// # Errors
///
/// Propagates kernel construction errors.
pub fn transient_phase_occupancy(params: &ModelParams, steps: usize) -> Result<Vec<[f64; 4]>> {
    let kernel = TransitionKernel::new(params)?;
    let space = crate::state::StateSpace::new(params);
    let pieces = params.pieces();
    let table: Vec<Vec<(usize, f64)>> = kernel.successor_rows(&space).collect();
    let phase_col: Vec<usize> = space
        .iter()
        .map(|state| match Phase::classify(state, pieces) {
            Phase::Bootstrap => 0,
            Phase::Efficient => 1,
            Phase::LastDownload => 2,
            Phase::Done => 3,
        })
        .collect();
    let summarize = |dist: &[f64]| {
        let mut row = [0.0; 4];
        for (&mass, &col) in dist.iter().zip(&phase_col) {
            row[col] += mass;
        }
        row
    };
    // Dense distribution stepping over the successor table, built once:
    // each step costs the table's non-zeros from states holding mass.
    let mut dist = vec![0.0; space.len()];
    dist[space.index(DownloadState::INITIAL)] = 1.0;
    let mut next = vec![0.0; space.len()];
    let mut out = Vec::with_capacity(steps + 1);
    out.push(summarize(&dist));
    for _ in 0..steps {
        next.fill(0.0);
        for (&mass, successors) in dist.iter().zip(&table) {
            if exactly_zero(mass) {
                continue;
            }
            for &(j, p) in successors {
                next[j] += mass * p;
            }
        }
        std::mem::swap(&mut dist, &mut next);
        out.push(summarize(&dist));
    }
    Ok(out)
}

#[cfg(test)]
mod transient_tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The map-stepping body the successor table replaced: it asks the
    /// kernel for each state's successors at every step.
    fn occupancy_oracle(params: &ModelParams, steps: usize) -> Vec<[f64; 4]> {
        let kernel = TransitionKernel::new(params).unwrap();
        let space = crate::state::StateSpace::new(params);
        let pieces = params.pieces();
        let mut dist: BTreeMap<usize, f64> = BTreeMap::new();
        dist.insert(space.index(DownloadState::INITIAL), 1.0);
        let summarize = |dist: &BTreeMap<usize, f64>| {
            let mut row = [0.0; 4];
            for (&idx, &mass) in dist {
                match Phase::classify(space.state(idx), pieces) {
                    Phase::Bootstrap => row[0] += mass,
                    Phase::Efficient => row[1] += mass,
                    Phase::LastDownload => row[2] += mass,
                    Phase::Done => row[3] += mass,
                }
            }
            row
        };
        let mut out = vec![summarize(&dist)];
        for _ in 0..steps {
            let mut next: BTreeMap<usize, f64> = BTreeMap::new();
            for (&idx, &mass) in &dist {
                if exactly_zero(mass) {
                    continue;
                }
                for (succ, p) in kernel.successors(space.state(idx)) {
                    *next.entry(space.index(succ)).or_insert(0.0) += mass * p;
                }
            }
            dist = next;
            out.push(summarize(&dist));
        }
        out
    }

    #[test]
    fn occupancy_is_bit_identical_to_map_stepping() {
        let mut cases: Vec<ModelParams> = Vec::new();
        for pieces in [6, 10, 20] {
            for s in [1, 3, 5] {
                cases.push(
                    ModelParams::builder()
                        .pieces(pieces)
                        .max_connections(3)
                        .neighbor_set_size(s)
                        .alpha(0.4)
                        .gamma(0.3)
                        .build()
                        .unwrap(),
                );
            }
        }
        // §7.2 seeding: the piece count itself is random.
        cases.push(
            ModelParams::builder()
                .pieces(10)
                .max_connections(3)
                .neighbor_set_size(3)
                .seed_connections(2)
                .p_seed(0.3)
                .build()
                .unwrap(),
        );
        for params in &cases {
            assert_eq!(
                transient_phase_occupancy(params, 200).unwrap(),
                occupancy_oracle(params, 200),
                "{params:?}"
            );
        }
    }

    fn params() -> ModelParams {
        ModelParams::builder()
            .pieces(6)
            .max_connections(2)
            .neighbor_set_size(3)
            .alpha(0.4)
            .gamma(0.3)
            .build()
            .unwrap()
    }

    #[test]
    fn occupancy_rows_are_distributions() {
        let rows = transient_phase_occupancy(&params(), 40).unwrap();
        assert_eq!(rows.len(), 41);
        for (t, row) in rows.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "t={t}: {row:?}");
            assert!(row.iter().all(|&p| p >= -1e-12));
        }
    }

    #[test]
    fn starts_in_bootstrap_ends_done() {
        let rows = transient_phase_occupancy(&params(), 200).unwrap();
        assert_eq!(rows[0], [1.0, 0.0, 0.0, 0.0]);
        let last = rows.last().unwrap();
        assert!(
            last[3] > 0.99,
            "after 200 steps nearly all mass absorbed: {last:?}"
        );
    }

    #[test]
    fn done_mass_is_monotone() {
        let rows = transient_phase_occupancy(&params(), 100).unwrap();
        for pair in rows.windows(2) {
            assert!(pair[1][3] >= pair[0][3] - 1e-12, "absorption only grows");
        }
    }

    #[test]
    fn analyses_agree_at_a_size_the_dense_inverse_cannot_reach() {
        // B = 40, k = 4, s = 8: 1,845 states, where the whole-matrix
        // inverse took seconds even in an optimized build.
        let p = ModelParams::builder()
            .pieces(40)
            .max_connections(4)
            .neighbor_set_size(8)
            .alpha(0.4)
            .gamma(0.3)
            .build()
            .unwrap();
        assert_eq!(crate::state::StateSpace::new(&p).len(), 1_845);
        let total = expected_download_time(&p).unwrap();
        let sojourns: f64 = expected_phase_sojourns(&p).unwrap().iter().sum();
        assert!(
            (sojourns - total).abs() < 1e-9,
            "sojourns {sojourns} vs download time {total}"
        );
        let p_last = last_phase_probability(&p).unwrap();
        assert!((0.0..=1.0).contains(&p_last), "p_last = {p_last}");
        let rows = transient_phase_occupancy(&p, 400).unwrap();
        assert!(1.0 - rows[400][3] < 1e-12, "tail {:?}", rows[400]);
        let series_mean: f64 = rows.iter().map(|r| 1.0 - r[3]).sum();
        assert!(
            (series_mean - total).abs() < 0.01,
            "transient {series_mean:.4} vs block solve {total:.4}"
        );
    }

    #[test]
    fn mean_absorption_time_matches_fundamental_matrix() {
        // E[T] = Σ_{t≥0} P(T > t) = Σ_{t≥0} (1 - done_t); the tail beyond
        // 600 steps is negligible for this configuration.
        let p = params();
        let rows = transient_phase_occupancy(&p, 600).unwrap();
        let series_mean: f64 = rows.iter().map(|r| 1.0 - r[3]).sum();
        let exact = expected_download_time(&p).unwrap();
        assert!(
            (series_mean - exact).abs() < 0.01,
            "transient {series_mean:.4} vs fundamental {exact:.4}"
        );
    }
}
