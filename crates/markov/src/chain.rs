//! Row-stochastic transition matrices and distribution evolution.

use rand::Rng;

use crate::float::exactly_zero;
use crate::matrix::Matrix;
use crate::{Error, Result};

/// Tolerance used when validating that rows sum to one.
pub const STOCHASTIC_TOL: f64 = 1e-9;

/// Debug-asserts that every row of `rows` is a probability distribution:
/// entries in `[0, 1]` (within [`STOCHASTIC_TOL`]) and row sums within
/// [`STOCHASTIC_TOL`] of one.
///
/// Every transition-matrix construction site in the workspace calls this
/// so a non-stochastic matrix can never be assembled silently in debug
/// and test builds; release builds compile the checks out.
///
/// # Panics
///
/// In builds with `debug_assertions`, panics when a row violates either
/// condition; `context` names the construction site in the message.
pub fn debug_assert_row_stochastic<'a, I>(context: &str, rows: I)
where
    I: IntoIterator<Item = &'a [f64]>,
{
    if !cfg!(debug_assertions) {
        return;
    }
    for (r, row) in rows.into_iter().enumerate() {
        let sum: f64 = row.iter().sum();
        debug_assert!(
            (sum - 1.0).abs() <= STOCHASTIC_TOL,
            "{context}: row {r} is not row-stochastic (sum {sum})"
        );
        for (c, &p) in row.iter().enumerate() {
            debug_assert!(
                (-STOCHASTIC_TOL..=1.0 + STOCHASTIC_TOL).contains(&p),
                "{context}: row {r} entry {c} outside [0, 1] (value {p})"
            );
        }
    }
}

/// A validated row-stochastic matrix over a finite state space `0..n`.
///
/// # Example
///
/// ```
/// use bt_markov::TransitionMatrix;
///
/// let p = TransitionMatrix::from_rows(vec![
///     vec![0.5, 0.5],
///     vec![0.25, 0.75],
/// ]).unwrap();
/// let next = p.step(&[1.0, 0.0]);
/// assert_eq!(next, vec![0.5, 0.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    inner: Matrix,
}

impl TransitionMatrix {
    /// Builds a transition matrix from rows, validating stochasticity.
    ///
    /// # Errors
    ///
    /// [`Error::Shape`] for ragged/empty/non-square input;
    /// [`Error::NotStochastic`] if any row has a negative or non-finite
    /// entry or does not sum to one within [`STOCHASTIC_TOL`].
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let inner = Matrix::from_rows(rows)?;
        Self::from_matrix(inner)
    }

    /// Wraps a [`Matrix`], validating it is square and row-stochastic.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransitionMatrix::from_rows`].
    pub fn from_matrix(inner: Matrix) -> Result<Self> {
        if inner.rows() != inner.cols() {
            return Err(Error::Shape {
                context: "TransitionMatrix",
                detail: format!("{}x{} is not square", inner.rows(), inner.cols()),
            });
        }
        for r in 0..inner.rows() {
            let row = inner.row(r);
            // NaN passes both the sign test and the sum test below.
            if row.iter().any(|&p| p < 0.0 || !p.is_finite()) {
                return Err(Error::NotStochastic {
                    row: r,
                    sum: f64::NAN,
                });
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > STOCHASTIC_TOL {
                return Err(Error::NotStochastic { row: r, sum });
            }
        }
        debug_assert_row_stochastic(
            "TransitionMatrix::from_matrix",
            (0..inner.rows()).map(|r| inner.row(r)),
        );
        Ok(TransitionMatrix { inner })
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.inner.rows()
    }

    /// Transition probability from `i` to `j`.
    #[must_use]
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.inner[(i, j)]
    }

    /// Borrows the row of outgoing probabilities from state `i`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        self.inner.row(i)
    }

    /// The underlying matrix.
    #[must_use]
    pub fn as_matrix(&self) -> &Matrix {
        &self.inner
    }

    /// Advances a distribution one step: returns `dist * P`.
    ///
    /// # Panics
    ///
    /// Panics if `dist.len() != n_states()`.
    #[must_use]
    pub fn step(&self, dist: &[f64]) -> Vec<f64> {
        assert_eq!(dist.len(), self.n_states(), "distribution length mismatch");
        let n = self.n_states();
        let mut out = vec![0.0; n];
        for (i, &mass) in dist.iter().enumerate() {
            if exactly_zero(mass) {
                continue;
            }
            for (j, o) in out.iter_mut().enumerate() {
                *o += mass * self.prob(i, j);
            }
        }
        out
    }

    /// Stationary distribution by power iteration from the uniform
    /// distribution, stopping when the L1 change drops below `tol`.
    ///
    /// For periodic chains the iteration averages successive steps, which
    /// converges to the Cesàro limit (the unique stationary distribution for
    /// unichain matrices).
    ///
    /// # Errors
    ///
    /// [`Error::NoConvergence`] if `max_iters` is exhausted.
    pub fn stationary(&self, tol: f64, max_iters: usize) -> Result<Vec<f64>> {
        let n = self.n_states();
        let mut dist = vec![1.0 / n as f64; n];
        for it in 0..max_iters {
            let stepped = self.step(&dist);
            // Average with the current iterate to damp period-2 oscillation.
            let next: Vec<f64> = stepped
                .iter()
                .zip(&dist)
                .map(|(a, b)| 0.5 * (a + b))
                .collect();
            let residual: f64 = next.iter().zip(&dist).map(|(a, b)| (a - b).abs()).sum();
            dist = next;
            if residual < tol {
                return Ok(dist);
            }
            let _ = it;
        }
        Err(Error::NoConvergence {
            iterations: max_iters,
            residual: f64::NAN,
        })
    }

    /// Samples the successor of state `i` using `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample_next<R: Rng + ?Sized>(&self, i: usize, rng: &mut R) -> usize {
        sample_index(self.row(i), rng)
    }

    /// Samples a path of `steps` transitions starting from `start`,
    /// returning the visited states (length `steps + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of bounds.
    pub fn simulate_path<R: Rng + ?Sized>(
        &self,
        start: usize,
        steps: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        assert!(start < self.n_states(), "start state out of bounds");
        let mut path = Vec::with_capacity(steps + 1);
        let mut current = start;
        path.push(current);
        for _ in 0..steps {
            current = self.sample_next(current, rng);
            path.push(current);
        }
        path
    }

    /// Empirical occupation frequencies of a sampled path of `steps`
    /// transitions from `start` — a Monte-Carlo approximation of the
    /// stationary distribution for ergodic chains.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of bounds or `steps == 0`.
    pub fn occupation_frequencies<R: Rng + ?Sized>(
        &self,
        start: usize,
        steps: usize,
        rng: &mut R,
    ) -> Vec<f64> {
        assert!(steps > 0, "need at least one step");
        let path = self.simulate_path(start, steps, rng);
        let mut counts = vec![0u64; self.n_states()];
        for &s in &path[1..] {
            counts[s] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / steps as f64)
            .collect()
    }
}

/// Samples an index from an unnormalized non-negative weight slice.
///
/// Robust to tiny floating-point shortfalls: if the cumulative sweep ends
/// before the drawn point (total ≈ sum but the draw exceeded it), the last
/// positive-weight index is returned.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn sample_index<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    assert!(!weights.is_empty(), "cannot sample from empty weights");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must have positive total, got {total}");
    let mut point = rng.gen::<f64>() * total;
    let mut last_positive = None;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        last_positive = Some(i);
        if point < w {
            return i;
        }
        point -= w;
    }
    last_positive.expect("at least one positive weight")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_state() -> TransitionMatrix {
        TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.5, 0.5]]).unwrap()
    }

    #[test]
    fn validates_row_sums() {
        let err = TransitionMatrix::from_rows(vec![vec![0.5, 0.4], vec![0.5, 0.5]]).unwrap_err();
        assert!(matches!(err, Error::NotStochastic { row: 0, .. }));
    }

    #[test]
    fn validates_non_negative() {
        let err = TransitionMatrix::from_rows(vec![vec![1.5, -0.5], vec![0.5, 0.5]]).unwrap_err();
        assert!(matches!(err, Error::NotStochastic { row: 0, .. }));
    }

    #[test]
    fn validates_finite() {
        let nan_entry =
            TransitionMatrix::from_rows(vec![vec![0.5, 0.5], vec![f64::NAN, 1.0]]).unwrap_err();
        assert!(matches!(nan_entry, Error::NotStochastic { row: 1, .. }));
        let nan_row = TransitionMatrix::from_rows(vec![vec![f64::NAN, f64::NAN], vec![0.5, 0.5]])
            .unwrap_err();
        assert!(matches!(nan_row, Error::NotStochastic { row: 0, .. }));
        let infinite = TransitionMatrix::from_rows(vec![vec![f64::INFINITY, 0.0], vec![0.5, 0.5]])
            .unwrap_err();
        assert!(matches!(infinite, Error::NotStochastic { row: 0, .. }));
    }

    #[test]
    fn validates_square() {
        let err = TransitionMatrix::from_rows(vec![vec![0.5, 0.5]]).unwrap_err();
        assert!(matches!(err, Error::Shape { .. }));
    }

    #[test]
    fn step_preserves_mass() {
        let p = two_state();
        let d = p.step(&[0.3, 0.7]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_of_two_state() {
        // pi = (q/(p+q), p/(p+q)) with p=0.1, q=0.5.
        let pi = two_state().stationary(1e-13, 100_000).unwrap();
        assert!((pi[0] - 5.0 / 6.0).abs() < 1e-9);
        assert!((pi[1] - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_of_periodic_chain_converges() {
        // A 2-cycle is period-2; the Cesàro average is (0.5, 0.5).
        let p = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let pi = p.stationary(1e-12, 100_000).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stationary_is_fixed_point() {
        let p = two_state();
        let pi = p.stationary(1e-13, 100_000).unwrap();
        let stepped = p.step(&pi);
        for (a, b) in pi.iter().zip(&stepped) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn sample_next_respects_support() {
        let p = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(p.sample_next(0, &mut rng), 1);
            assert_eq!(p.sample_next(1, &mut rng), 0);
        }
    }

    #[test]
    fn sample_index_frequencies() {
        let weights = [1.0, 3.0];
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40_000;
        let ones = (0..n)
            .filter(|_| sample_index(&weights, &mut rng) == 1)
            .count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac={frac}");
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn sample_index_rejects_zero_total() {
        let mut rng = StdRng::seed_from_u64(0);
        sample_index(&[0.0, 0.0], &mut rng);
    }

    #[test]
    fn prob_and_row_accessors() {
        let p = two_state();
        assert_eq!(p.prob(0, 1), 0.1);
        assert_eq!(p.row(1), &[0.5, 0.5]);
        assert_eq!(p.n_states(), 2);
        assert_eq!(p.as_matrix().rows(), 2);
    }
}

#[cfg(test)]
mod path_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn simulate_path_has_right_length_and_support() {
        let p = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let path = p.simulate_path(0, 10, &mut rng);
        assert_eq!(path.len(), 11);
        // A 2-cycle alternates deterministically.
        for (i, &s) in path.iter().enumerate() {
            assert_eq!(s, i % 2);
        }
    }

    #[test]
    fn occupation_approximates_stationary() {
        let p = TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.5, 0.5]]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let occ = p.occupation_frequencies(0, 200_000, &mut rng);
        let pi = p.stationary(1e-12, 1_000_000).unwrap();
        for (a, b) in occ.iter().zip(&pi) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn simulate_path_checks_start() {
        let p = TransitionMatrix::from_rows(vec![vec![1.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = p.simulate_path(5, 3, &mut rng);
    }
}
