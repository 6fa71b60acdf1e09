//! Exact analyses of the download chain.
//!
//! Closed-form expectations over the full `(k+1)(B+1)(s+1)` state space,
//! with no Monte-Carlo error:
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
//! All three are one forward pass over the piece levels `b = 0..B`.
//! Pieces never decrease, and below `B` a state keeps its piece count
//! only if it has no connections (`n = 0`), so the only cycles are among
//! the `s + 1` waiting states `(0, b, i)` of one level. A level's expected
//! visits are therefore one `(s+1)`-sized solve `x (I − Q₀₀) = inflow₀`
//! for its waiting states, then the inflow of its `n > 0` states plus what
//! the waiting states send them; every visited state then pushes its
//! visits forward to higher levels. The pass keeps one `f64` of inflow
//! per state and costs one multiply-add per successor entry: about 650 KB and
//! about 30 M entries at the paper's `B = 200, k = 7, s = 50`, where the
//! dense transition matrix would need 54 GB.
//!
//! [`transient_phase_occupancy`] steps the state distribution over a flat
//! successor table instead.

use crate::params::ModelParams;
use crate::phase::Phase;
use crate::state::DownloadState;
use crate::transitions::{SuccessorTable, TransitionKernel};
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
/// download) starting from `(0, 0, 0)`: the expected visits to every
/// transient state (the start row of the fundamental matrix), summed by
/// phase.
///
/// # Errors
///
/// Same conditions as [`expected_download_time`].
pub fn expected_phase_sojourns(params: &ModelParams) -> Result<[f64; 3]> {
    phase_sojourns(&TransitionKernel::new(params)?)
}

/// Exact probability that a download ever enters the last download phase:
/// the level pass with every last-download state absorbing, whose inflow
/// into those states is the probability of reaching them.
///
/// # Errors
///
/// Same conditions as [`expected_download_time`].
pub fn last_phase_probability(params: &ModelParams) -> Result<f64> {
    let pass = level_pass(&TransitionKernel::new(params)?, true)?;
    Ok(pass.stopped.clamp(0.0, 1.0))
}

/// [`expected_phase_sojourns`] for a built kernel.
pub(crate) fn phase_sojourns(kernel: &TransitionKernel) -> Result<[f64; 3]> {
    Ok(level_pass(kernel, false)?.sojourns)
}

/// What one forward pass over the piece levels accumulates.
struct LevelPass {
    /// Expected visits to the transient states, summed by phase.
    sojourns: [f64; 3],
    /// Probability of ending in a stopping (last-download) state.
    stopped: f64,
}

/// The forward pass over piece levels `b = 0..B` described in the module
/// docs. With `last_stops`, last-download states absorb: their inflow is
/// summed into [`LevelPass::stopped`] and never pushed on.
///
/// Every level's waiting block is factored, even one no mass reaches, so
/// a trap anywhere (`α = 0` or `γ = 0`) is `Singular`, as in the
/// absorbing-chain solve of the whole matrix.
fn level_pass(kernel: &TransitionKernel, last_stops: bool) -> Result<LevelPass> {
    let params = kernel.params();
    let pieces = params.pieces();
    let per_n = params.neighbor_set_size() as usize + 1;
    let per_level = (params.max_connections() as usize + 1) * per_n;
    // States below B, level-major; the absorbing level needs no slots.
    let slot =
        |st: DownloadState| st.b as usize * per_level + st.n as usize * per_n + st.i as usize;
    let stops =
        |st: DownloadState| last_stops && Phase::classify(st, pieces) == Phase::LastDownload;
    let mut inflow = vec![0.0; pieces as usize * per_level];
    inflow[slot(DownloadState::INITIAL)] = 1.0;
    let mut pass = LevelPass {
        sojourns: [0.0; 3],
        stopped: 0.0,
    };
    let mut visit = |st: DownloadState, v: f64| match Phase::classify(st, pieces) {
        Phase::Bootstrap => pass.sojourns[0] += v,
        Phase::Efficient => pass.sojourns[1] += v,
        Phase::LastDownload => pass.sojourns[2] += v,
        Phase::Done => {}
    };
    // Per-level scratch, reused: the waiting states' `i`, each `i`'s
    // position among them, the block's `(I − Q₀₀)ᵀ`, its right-hand side
    // (then solution), and the waiting states' entries that leave the
    // block as (position, slot, probability).
    let mut waiting: Vec<u32> = Vec::with_capacity(per_n);
    let mut position = vec![usize::MAX; per_n];
    let mut lhs = vec![0.0; per_n * per_n];
    let mut x = vec![0.0; per_n];
    let mut leaving: Vec<(usize, usize, f64)> = Vec::new();
    for b in 0..pieces {
        waiting.clear();
        waiting.extend((0..per_n as u32).filter(|&i| !stops(DownloadState::new(0, b, i))));
        position.fill(usize::MAX);
        for (r, &i) in waiting.iter().enumerate() {
            position[i as usize] = r;
        }
        let m = waiting.len();
        let lhs = &mut lhs[..m * m];
        lhs.fill(0.0);
        leaving.clear();
        for (r, &i) in waiting.iter().enumerate() {
            let st = DownloadState::new(0, b, i);
            lhs[r * m + r] = 1.0;
            x[r] = inflow[slot(st)];
            kernel.for_each_successor(st, |t, p| {
                let in_block = t.b == b && t.n == 0 && position[t.i as usize] != usize::MAX;
                if in_block {
                    lhs[position[t.i as usize] * m + r] -= p;
                } else if t.b < pieces {
                    leaving.push((r, slot(t), p));
                }
            });
        }
        solve_in_place(lhs, &mut x[..m], m)?;
        for (r, &i) in waiting.iter().enumerate() {
            visit(DownloadState::new(0, b, i), x[r]);
        }
        for &(r, t, p) in &leaving {
            inflow[t] += x[r] * p;
        }
        for i in 0..per_n as u32 {
            let st = DownloadState::new(0, b, i);
            if stops(st) {
                pass.stopped += inflow[slot(st)];
            }
        }
        // States with connections leave the level on their first step.
        for n in 1..=params.max_connections() {
            for i in 0..per_n as u32 {
                let st = DownloadState::new(n, b, i);
                let v = inflow[slot(st)];
                if exactly_zero(v) {
                    continue;
                }
                visit(st, v);
                kernel.for_each_successor(st, |t, p| {
                    if t.b < pieces {
                        inflow[slot(t)] += v * p;
                    }
                });
            }
        }
    }
    Ok(pass)
}

/// Solves `a · x = rhs` for the `m × m` row-major `a` by Gaussian
/// elimination with partial pivoting, overwriting `a` and leaving `x` in
/// `rhs`.
///
/// # Errors
///
/// [`bt_markov::Error::Singular`] (wrapped) when a pivot falls below
/// `1e-12`, the floor [`bt_markov::Matrix::solve`] applies to the
/// absorbing-chain blocks.
fn solve_in_place(a: &mut [f64], rhs: &mut [f64], m: usize) -> Result<()> {
    for col in 0..m {
        let pivot_row = (col..m)
            .max_by(|&r, &q| a[r * m + col].abs().total_cmp(&a[q * m + col].abs()))
            .expect("non-empty pivot range");
        if a[pivot_row * m + col].abs() < 1e-12 {
            return Err(bt_markov::Error::Singular.into());
        }
        if pivot_row != col {
            for c in 0..m {
                a.swap(pivot_row * m + c, col * m + c);
            }
            rhs.swap(pivot_row, col);
        }
        let pivot = a[col * m + col];
        for row in col + 1..m {
            let factor = a[row * m + col] / pivot;
            if exactly_zero(factor) {
                continue;
            }
            for c in col..m {
                a[row * m + c] -= factor * a[col * m + c];
            }
            rhs[row] -= factor * rhs[col];
        }
    }
    for row in (0..m).rev() {
        let tail: f64 = (row + 1..m).map(|c| a[row * m + c] * rhs[c]).sum();
        rhs[row] = (rhs[row] - tail) / a[row * m + row];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolution::Walker;
    use bt_markov::AbsorbingChain;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Instant;

    /// The dense bodies the level pass replaced: the whole transition
    /// matrix, handed to the absorbing-chain solver.
    mod dense {
        use super::*;

        pub fn expected_download_time(params: &ModelParams) -> Result<f64> {
            let (space, matrix) = TransitionKernel::new(params)?.build_matrix()?;
            let absorbed = space.index(DownloadState::absorbed(params.pieces()));
            let chain = AbsorbingChain::new(&matrix, &[absorbed])?;
            let steps = chain.expected_steps()?;
            let start_block = chain
                .transient_states()
                .iter()
                .position(|&s| s == space.index(DownloadState::INITIAL))
                .expect("initial state is transient");
            Ok(steps[start_block])
        }

        pub fn expected_phase_sojourns(params: &ModelParams) -> Result<[f64; 3]> {
            let (space, matrix) = TransitionKernel::new(params)?.build_matrix()?;
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
                match Phase::classify(space.state(state_idx), params.pieces()) {
                    Phase::Bootstrap => sojourns[0] += visits[block_idx],
                    Phase::Efficient => sojourns[1] += visits[block_idx],
                    Phase::LastDownload => sojourns[2] += visits[block_idx],
                    Phase::Done => {}
                }
            }
            Ok(sojourns)
        }

        pub fn last_phase_probability(params: &ModelParams) -> Result<f64> {
            let (space, matrix) = TransitionKernel::new(params)?.build_matrix()?;
            let pieces = params.pieces();
            // Rebuild the matrix with last-download states absorbing.
            let n = space.len();
            let mut rows =
                bt_markov::Matrix::from_rows((0..n).map(|r| matrix.row(r).to_vec()).collect())?;
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
    }

    /// Agreement within 1e-9 relative.
    fn agree(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
    }

    /// A rate in `{0} ∪ (0, 1]`: zero for a quarter of the draws, so the
    /// `Singular` traps come up.
    fn rate() -> impl Strategy<Value = f64> {
        (0u32..4, 0.0f64..1.0).prop_map(|(zero, u)| if zero == 0 { 0.0 } else { 1.0 - u })
    }

    fn assert_same<T: std::fmt::Debug>(
        what: &str,
        stream: &Result<T>,
        dense: &Result<T>,
        values: impl Fn(&T) -> Vec<f64>,
    ) -> std::result::Result<(), TestCaseError> {
        match (stream, dense) {
            (Ok(s), Ok(d)) => {
                let (s, d) = (values(s), values(d));
                prop_assert!(
                    s.iter().zip(&d).all(|(&a, &b)| agree(a, b)),
                    "{what}: stream {s:?} vs dense {d:?}"
                );
            }
            (Err(s), Err(d)) => prop_assert_eq!(s, d, "{}", what),
            _ => prop_assert!(false, "{what}: stream {stream:?} vs dense {dense:?}"),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn stream_matches_the_dense_oracle(
            pieces in 1u32..=12,
            k in 1u32..=4,
            s in 1u32..=5,
            alpha in rate(),
            gamma in rate(),
            seeds in 0u32..=2,
            p_seed in 0.0f64..=1.0,
            p_init in 0.0f64..=1.0,
            p_r in 0.0f64..=1.0,
            p_n in 0.0f64..=1.0,
        ) {
            let params = ModelParams::builder()
                .pieces(pieces)
                .max_connections(k)
                .neighbor_set_size(s)
                .alpha(alpha)
                .gamma(gamma)
                .seed_connections(seeds)
                .p_seed(p_seed)
                .p_init(p_init)
                .p_r(p_r)
                .p_n(p_n)
                .build()
                .unwrap();
            assert_same(
                "download time",
                &expected_download_time(&params),
                &dense::expected_download_time(&params),
                |&t| vec![t],
            )?;
            assert_same(
                "sojourns",
                &expected_phase_sojourns(&params),
                &dense::expected_phase_sojourns(&params),
                |s| s.to_vec(),
            )?;
            assert_same(
                "last-phase probability",
                &last_phase_probability(&params),
                &dense::last_phase_probability(&params),
                |&p| vec![p],
            )?;
        }
    }

    #[test]
    fn traps_are_singular_like_the_dense_oracle() {
        for (alpha, gamma) in [(0.0, 0.3), (0.4, 0.0), (0.0, 0.0)] {
            let params = ModelParams::builder()
                .pieces(8)
                .max_connections(2)
                .neighbor_set_size(3)
                .alpha(alpha)
                .gamma(gamma)
                .build()
                .unwrap();
            let singular = crate::Error::Numeric(bt_markov::Error::Singular);
            assert_eq!(expected_phase_sojourns(&params), Err(singular.clone()));
            assert_eq!(
                dense::expected_phase_sojourns(&params),
                Err(singular.clone())
            );
            // Last-download states absorb, so only the α trap remains.
            let (stream, dense) = (
                last_phase_probability(&params),
                dense::last_phase_probability(&params),
            );
            if alpha == 0.0 {
                assert_eq!((stream, dense), (Err(singular.clone()), Err(singular)));
            } else {
                assert!(agree(stream.unwrap(), dense.unwrap()));
            }
        }
    }

    /// The walker's mean steps in each phase and in total over `runs`
    /// seeded trajectories, and their standard errors.
    fn walker_means(params: &ModelParams, runs: usize) -> ([f64; 4], [f64; 4]) {
        let mut walker = Walker::new(params, StdRng::seed_from_u64(2007));
        let mut sum = [0.0; 4];
        let mut sum_sq = [0.0; 4];
        for _ in 0..runs {
            let t = walker.run();
            assert!(t.completed());
            let sj = t.sojourns();
            let steps = [sj.bootstrap, sj.efficient, sj.last_download, sj.total()];
            for (col, &v) in steps.iter().enumerate() {
                sum[col] += v as f64;
                sum_sq[col] += (v as f64).powi(2);
            }
        }
        let n = runs as f64;
        let mean = sum.map(|s| s / n);
        let mut se = [0.0; 4];
        for col in 0..4 {
            let var = (sum_sq[col] - n * mean[col] * mean[col]) / (n - 1.0);
            se[col] = (var.max(0.0) / n).sqrt();
        }
        (mean, se)
    }

    /// Checks the exact phase sojourns and their total against `runs`
    /// walker trajectories and returns them as a table row. Each walker
    /// mean must lie within 4 standard errors of the exact value. A column
    /// in which every sampled trajectory took the same number of steps has
    /// a sample SE of 0, so the SE is floored at `1 / runs`, the shift of
    /// the mean one trajectory taking one step more makes. Both rules were
    /// fixed before the first run.
    fn check_against_walker(params: &ModelParams, runs: usize) -> String {
        let sojourns = expected_phase_sojourns(params).unwrap();
        let total: f64 = sojourns.iter().sum();
        let exact = [sojourns[0], sojourns[1], sojourns[2], total];
        let (mean, se) = walker_means(params, runs);
        let mut row = format!("s={}", params.neighbor_set_size());
        for (col, name) in ["bootstrap", "efficient", "last", "total"]
            .iter()
            .enumerate()
        {
            let tol = 4.0 * se[col].max(1.0 / runs as f64);
            assert!(
                (mean[col] - exact[col]).abs() <= tol,
                "s={} {name}: walker {:.4} ± {:.4} vs exact {:.4}",
                params.neighbor_set_size(),
                mean[col],
                se[col],
                exact[col]
            );
            row += &format!(
                "  {name} {:.4e} vs {:.4} ± {:.4}",
                exact[col], mean[col], se[col]
            );
        }
        row
    }

    fn fig1_params(pieces: u32, s: u32) -> ModelParams {
        ModelParams::builder()
            .pieces(pieces)
            .max_connections(7)
            .neighbor_set_size(s)
            .alpha(0.3)
            .gamma(0.15)
            .build()
            .unwrap()
    }

    #[test]
    fn walker_agrees_with_the_stream_within_its_standard_error() {
        check_against_walker(&fig1_params(60, 20), 400);
    }

    /// Fig. 1's scale, B = 200 and k = 7, at Fig. 1(a)'s and 1(b)'s PSS
    /// values; s = 50 has 82,008 states. Prints each point's exact values
    /// against 400 walker trajectories, `p_last` and the wall time of one
    /// level pass. Run in release with
    /// `cargo test --release -p bt-model --lib -- --ignored paper_scale`.
    #[test]
    #[ignore = "paper scale; run in release"]
    fn paper_scale() {
        assert_eq!(
            crate::state::StateSpace::new(&fig1_params(200, 50)).len(),
            82_008
        );
        for s in [5, 10, 25, 40, 50] {
            let params = fig1_params(200, s);
            let started = Instant::now();
            let sojourns = expected_phase_sojourns(&params).unwrap();
            let elapsed = started.elapsed();
            let total: f64 = sojourns.iter().sum();
            assert!(
                agree(expected_download_time(&params).unwrap(), total),
                "download time vs summed sojourns"
            );
            let p_last = last_phase_probability(&params).unwrap();
            assert!((0.0..=1.0).contains(&p_last));
            let row = check_against_walker(&params, 400);
            println!("{row}  p_last {p_last:.4e}  pass {elapsed:.1?}");
        }
    }

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
    let table = SuccessorTable::new(&kernel, &space);
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
    // Dense distribution stepping over the flat successor table, built
    // once: each step costs the table's non-zeros from states holding mass.
    let mut dist = vec![0.0; space.len()];
    dist[space.index(DownloadState::INITIAL)] = 1.0;
    let mut next = vec![0.0; space.len()];
    let mut out = Vec::with_capacity(steps + 1);
    out.push(summarize(&dist));
    for _ in 0..steps {
        next.fill(0.0);
        for (idx, &mass) in dist.iter().enumerate() {
            if exactly_zero(mass) {
                continue;
            }
            for &(j, p) in table.row(idx) {
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
