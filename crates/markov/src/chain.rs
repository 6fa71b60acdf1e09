//! Row-stochastic transition matrices and distribution evolution.

use rand::Rng;

use crate::float::{approx_eq, exactly_zero};
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
            approx_eq(sum, 1.0, STOCHASTIC_TOL),
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
            if !approx_eq(sum, 1.0, STOCHASTIC_TOL) {
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
    }
}
