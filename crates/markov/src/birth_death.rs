//! Birth–death chains on `0..=n`.
//!
//! The paper observes (§5) that "the number of active connections at a peer
//! evolves as a general birth/death process"; this module provides the
//! classical closed-form stationary distribution and hitting times for such
//! chains, used both as an analytical cross-check of the efficiency model
//! and in tests.

use crate::float::exactly_zero;
use crate::{Error, Result, TransitionMatrix};

/// A discrete-time birth–death chain on states `0..=n`.
///
/// From state `i`, birth (to `i+1`) has probability `birth[i]`, death (to
/// `i-1`) probability `death[i]`, and the remainder is a self-loop. Births at
/// the top state and deaths at state 0 must be zero.
///
/// # Example
///
/// ```
/// use bt_markov::BirthDeath;
///
/// // M/M/1-like chain truncated at 3 with birth 0.2, death 0.4.
/// let bd = BirthDeath::new(vec![0.2, 0.2, 0.2, 0.0], vec![0.0, 0.4, 0.4, 0.4]).unwrap();
/// let pi = bd.stationary();
/// assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// // Geometric with ratio 1/2.
/// assert!((pi[1] / pi[0] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BirthDeath {
    birth: Vec<f64>,
    death: Vec<f64>,
}

impl BirthDeath {
    /// Creates a chain from per-state birth and death probabilities.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] if the vectors differ in length or are
    /// empty, probabilities are outside `[0, 1]` or sum above 1 in a state,
    /// `death[0] != 0`, or `birth[n] != 0`.
    pub fn new(birth: Vec<f64>, death: Vec<f64>) -> Result<Self> {
        if birth.len() != death.len() || birth.is_empty() {
            return Err(Error::InvalidParameter {
                name: "birth/death",
                detail: format!("lengths {} vs {}", birth.len(), death.len()),
            });
        }
        let n = birth.len() - 1;
        for i in 0..=n {
            let (b, d) = (birth[i], death[i]);
            if !(0.0..=1.0).contains(&b) || !(0.0..=1.0).contains(&d) || b + d > 1.0 + 1e-12 {
                return Err(Error::InvalidParameter {
                    name: "birth/death",
                    detail: format!("state {i}: birth {b}, death {d}"),
                });
            }
        }
        if !exactly_zero(death[0]) {
            return Err(Error::InvalidParameter {
                name: "death",
                detail: "death[0] must be 0".into(),
            });
        }
        if !exactly_zero(birth[n]) {
            return Err(Error::InvalidParameter {
                name: "birth",
                detail: format!("birth[{n}] must be 0"),
            });
        }
        Ok(BirthDeath { birth, death })
    }

    /// Number of states (`n + 1`).
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.birth.len()
    }

    /// The stationary distribution via the detailed-balance product form
    /// `pi[i] ∝ Π_{j<i} birth[j]/death[j+1]`.
    ///
    /// States rendered unreachable by a zero birth probability upstream get
    /// stationary mass 0.
    ///
    /// # Panics
    ///
    /// Panics if some reachable state `i > 0` has `death[i] == 0` while mass
    /// can still enter it — such a chain has no detailed-balance form and is
    /// a construction error for this type.
    #[must_use]
    pub fn stationary(&self) -> Vec<f64> {
        let n = self.n_states();
        let mut weights = vec![0.0; n];
        weights[0] = 1.0;
        for i in 1..n {
            if exactly_zero(weights[i - 1]) || exactly_zero(self.birth[i - 1]) {
                weights[i] = 0.0;
                continue;
            }
            assert!(
                self.death[i] > 0.0,
                "state {i} is reachable but has zero death probability"
            );
            weights[i] = weights[i - 1] * self.birth[i - 1] / self.death[i];
        }
        let total: f64 = weights.iter().sum();
        weights.iter().map(|w| w / total).collect()
    }

    /// Converts to a full transition matrix (with self-loops).
    ///
    /// # Errors
    ///
    /// Propagates [`TransitionMatrix`] validation errors (cannot occur for a
    /// well-formed chain; kept as a `Result` for robustness).
    pub fn to_transition_matrix(&self) -> Result<TransitionMatrix> {
        let n = self.n_states();
        let mut rows = vec![vec![0.0; n]; n];
        for i in 0..n {
            if i + 1 < n {
                rows[i][i + 1] = self.birth[i];
            }
            if i > 0 {
                rows[i][i - 1] = self.death[i];
            }
            rows[i][i] = 1.0 - self.birth[i] - self.death[i];
        }
        crate::chain::debug_assert_row_stochastic(
            "BirthDeath::to_transition_matrix",
            rows.iter().map(Vec::as_slice),
        );
        TransitionMatrix::from_rows(rows)
    }

    /// Expected number of steps to first reach state `target` from state
    /// `from`, assuming `from <= target` (upward hitting time).
    ///
    /// Uses the standard ladder decomposition: the expected time to go from
    /// `i` to `i+1` satisfies `h[i] = 1/birth[i] + (death[i]/birth[i]) * h[i-1]`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] if `from > target`, indices are out of
    /// range, or some intermediate `birth[i] == 0` (target unreachable).
    pub fn hitting_time_up(&self, from: usize, target: usize) -> Result<f64> {
        let n = self.n_states();
        if from > target || target >= n {
            return Err(Error::InvalidParameter {
                name: "from/target",
                detail: format!("need from <= target < {n}, got {from}, {target}"),
            });
        }
        let mut h_prev = 0.0; // expected time 0 -> 1 accumulates below
        let mut total = 0.0;
        for i in 0..target {
            if exactly_zero(self.birth[i]) {
                if i >= from {
                    return Err(Error::InvalidParameter {
                        name: "birth",
                        detail: format!("state {i} has zero birth probability; target unreachable"),
                    });
                }
                // Unreachable rungs below `from` do not matter, but their
                // h value would be infinite; reset the recursion instead.
                h_prev = 0.0;
                continue;
            }
            let h_i = 1.0 / self.birth[i] + self.death[i] / self.birth[i] * h_prev;
            if i >= from {
                total += h_i;
            }
            h_prev = h_i;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometric_chain() -> BirthDeath {
        BirthDeath::new(vec![0.2, 0.2, 0.2, 0.0], vec![0.0, 0.4, 0.4, 0.4]).unwrap()
    }

    #[test]
    fn stationary_is_geometric() {
        let pi = geometric_chain().stationary();
        for i in 1..4 {
            assert!((pi[i] / pi[i - 1] - 0.5).abs() < 1e-12);
        }
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_matches_power_iteration() {
        let bd = geometric_chain();
        let pi_closed = bd.stationary();
        let pi_power = bd
            .to_transition_matrix()
            .unwrap()
            .stationary(1e-13, 1_000_000)
            .unwrap();
        for (a, b) in pi_closed.iter().zip(&pi_power) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_bad_boundaries() {
        assert!(BirthDeath::new(vec![0.5, 0.5], vec![0.0, 0.5]).is_err()); // birth at top
        assert!(BirthDeath::new(vec![0.5, 0.0], vec![0.1, 0.5]).is_err()); // death at 0
    }

    #[test]
    fn rejects_overfull_state() {
        assert!(BirthDeath::new(vec![0.7, 0.0], vec![0.0, 0.7]).is_ok());
        assert!(BirthDeath::new(vec![0.7, 0.0], vec![0.0, 1.2]).is_err());
        assert!(BirthDeath::new(vec![0.6, 0.0], vec![0.5, 0.6]).is_err());
    }

    #[test]
    fn rejects_mismatched_lengths() {
        assert!(BirthDeath::new(vec![0.5], vec![0.0, 0.5]).is_err());
        assert!(BirthDeath::new(vec![], vec![]).is_err());
    }

    #[test]
    fn hitting_time_single_step() {
        // From 0 to 1 with birth 0.2: geometric with mean 5.
        let bd = geometric_chain();
        assert!((bd.hitting_time_up(0, 1).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn hitting_time_accumulates() {
        let bd = geometric_chain();
        let t01 = bd.hitting_time_up(0, 1).unwrap();
        let t12 = bd.hitting_time_up(1, 2).unwrap();
        let t02 = bd.hitting_time_up(0, 2).unwrap();
        assert!((t01 + t12 - t02).abs() < 1e-12);
        assert!(t12 > t01, "higher rungs take longer when deaths push back");
    }

    #[test]
    fn hitting_time_rejects_downward() {
        assert!(geometric_chain().hitting_time_up(2, 1).is_err());
        assert!(geometric_chain().hitting_time_up(0, 9).is_err());
    }

    #[test]
    fn hitting_time_unreachable() {
        let bd = BirthDeath::new(vec![0.0, 0.2, 0.0], vec![0.0, 0.2, 0.2]).unwrap();
        assert!(bd.hitting_time_up(0, 2).is_err());
    }

    #[test]
    fn stationary_with_unreachable_tail() {
        let bd = BirthDeath::new(vec![0.0, 0.2, 0.0], vec![0.0, 0.2, 0.2]).unwrap();
        let pi = bd.stationary();
        assert_eq!(pi, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn transition_matrix_rows_are_stochastic() {
        // Construction succeeding is itself the validation.
        let tm = geometric_chain().to_transition_matrix().unwrap();
        assert_eq!(tm.n_states(), 4);
        assert_eq!(tm.prob(0, 1), 0.2);
        assert_eq!(tm.prob(1, 0), 0.4);
        assert!((tm.prob(1, 1) - 0.4).abs() < 1e-12);
    }
}
