//! Entropy-based stability analysis (§6).
//!
//! The paper defines the system entropy as the skew of the piece-replication
//! vector, `E = min(d) / max(d)` where `d_j` is the replication degree of
//! piece `j`. The system is *stable* when the long-run entropy drifts to 1
//! and *unstable* when it collapses to 0. This module provides the entropy
//! measure, the §6 qualitative drift relations (how `α` and `γ` respond to
//! entropy), and a reduced-form drift iteration used by the stability
//! ablation benches.

use crate::{Error, Result};

/// The replication entropy `E = min(d) / max(d)` of a piece-replication
/// vector.
///
/// By convention the entropy of an empty system, or one where no piece is
/// replicated, is 0 (maximal skew: the system cannot serve every piece).
///
/// # Example
///
/// ```
/// use bt_model::stability::entropy;
///
/// assert_eq!(entropy(&[5, 5, 5]), 1.0);
/// assert_eq!(entropy(&[10, 1, 5]), 0.1);
/// assert_eq!(entropy(&[3, 0, 3]), 0.0); // a missing piece is maximal skew
/// ```
#[must_use]
pub fn entropy(replication: &[u64]) -> f64 {
    match (replication.iter().min(), replication.iter().max()) {
        (Some(&min), Some(&max)) if max > 0 => min as f64 / max as f64,
        _ => 0.0,
    }
}

/// Inputs of the reduced-form entropy drift relation.
///
/// The full transient analysis is out of scope even for the paper ("left
/// for future work"); this reduced form captures its two monotone claims:
/// larger `B` (more pieces → longer trading-phase residence) pushes entropy
/// toward 1, while a larger arrival rate amplifies skew.
#[derive(Debug, Clone, Copy, PartialEq)]
// bt-lint: allow(pub-unused) paper entry point: the §6 entropy drift
pub struct DriftParams {
    /// Number of pieces `B`.
    pub pieces: u32,
    /// Peer arrival rate λ (peers per round).
    pub arrival_rate: f64,
    /// Last-phase piece-inflow probability γ.
    pub gamma: f64,
    /// Strength of the rarest-first correction per trading round (the rate
    /// at which the protocol equalizes replication), in `(0, 1]`.
    pub correction: f64,
}

impl DriftParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] for a zero `B`, non-positive correction,
    /// or negative rates.
    pub fn validate(&self) -> Result<()> {
        if self.pieces == 0 {
            return Err(Error::InvalidParameter {
                name: "pieces",
                detail: "B must be at least 1".into(),
            });
        }
        if !(self.correction > 0.0 && self.correction <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "correction",
                detail: format!("{} outside (0, 1]", self.correction),
            });
        }
        if self.arrival_rate < 0.0 || !(0.0..=1.0).contains(&self.gamma) {
            return Err(Error::InvalidParameter {
                name: "arrival_rate/gamma",
                detail: "negative arrival rate or gamma outside [0, 1]".into(),
            });
        }
        Ok(())
    }

    /// Expected trading-phase residence time in rounds: a peer spends about
    /// `B / 2` rounds trading (downloading at a few pieces per round), so
    /// residence grows linearly in `B`.
    #[must_use]
    pub fn trading_residence(&self) -> f64 {
        f64::from(self.pieces) / 2.0
    }

    /// One step of the reduced entropy drift:
    ///
    /// `E′ = E + (restore − pressure) · E(1 − E)`
    ///
    /// with `restore = correction · min(residence/5, 1)` — the rarest-first
    /// equalization, effective in proportion to how long peers stay in the
    /// trading phase (grows with `B`) — and
    /// `pressure = λ/(1+λ) · (1 + γ)/4` — the skew pressure from arrivals
    /// hitting a skewed system, growing with the arrival rate and with `γ`
    /// (large `γ` means nearly-complete peers leave quickly, §6: *smaller*
    /// `γ` improves stability). Both terms vanish at the endpoints
    /// `E ∈ {0, 1}`, the two long-run regimes the paper identifies.
    ///
    /// # Errors
    ///
    /// Propagates [`DriftParams::validate`].
    pub fn step(&self, entropy: f64) -> Result<f64> {
        self.validate()?;
        let e = entropy.clamp(0.0, 1.0);
        let residence_scale = (self.trading_residence() / 5.0).min(1.0);
        let restore = self.correction * residence_scale;
        let pressure = self.arrival_rate / (1.0 + self.arrival_rate) * (1.0 + self.gamma) / 4.0;
        Ok((e + (restore - pressure) * e * (1.0 - e)).clamp(0.0, 1.0))
    }

    /// Iterates the drift from `e0` for `rounds` steps, returning the
    /// entropy series (length `rounds + 1`).
    ///
    /// # Errors
    ///
    /// Propagates [`DriftParams::validate`].
    pub fn trajectory(&self, e0: f64, rounds: usize) -> Result<Vec<f64>> {
        self.validate()?;
        let mut series = Vec::with_capacity(rounds + 1);
        let mut e = e0.clamp(0.0, 1.0);
        series.push(e);
        for _ in 0..rounds {
            e = self.step(e)?;
            series.push(e);
        }
        Ok(series)
    }

    /// Whether the drift from `e0` recovers to an entropy above
    /// `threshold` within `rounds` steps — the §6 stability criterion.
    ///
    /// # Errors
    ///
    /// Propagates [`DriftParams::validate`].
    // bt-lint: allow(pub-unused) paper entry point: the §6 stability criterion
    pub fn is_stable(&self, e0: f64, rounds: usize, threshold: f64) -> Result<bool> {
        let series = self.trajectory(e0, rounds)?;
        Ok(series.last().copied().unwrap_or(0.0) >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0, 0]), 0.0);
        assert_eq!(entropy(&[4]), 1.0);
        assert_eq!(entropy(&[2, 8]), 0.25);
        assert!(entropy(&[7, 7, 7, 7]) == 1.0);
    }

    #[test]
    fn entropy_bounded() {
        assert!(entropy(&[1, 1000]) > 0.0);
        assert!(entropy(&[1, 1000]) < 1.0);
    }

    fn params(pieces: u32, arrival: f64) -> DriftParams {
        DriftParams {
            pieces,
            arrival_rate: arrival,
            gamma: 0.2,
            correction: 0.5,
        }
    }

    #[test]
    fn validate_catches_bad_params() {
        assert!(params(0, 1.0).validate().is_err());
        assert!(DriftParams {
            correction: 0.0,
            ..params(10, 1.0)
        }
        .validate()
        .is_err());
        assert!(DriftParams {
            arrival_rate: -1.0,
            ..params(10, 1.0)
        }
        .validate()
        .is_err());
        assert!(DriftParams {
            gamma: 2.0,
            ..params(10, 1.0)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn large_b_recovers_from_skew() {
        // The paper's Fig. 4(c): B = 10 pushes entropy back toward 1.
        let p = params(10, 2.0);
        let series = p.trajectory(0.2, 500).unwrap();
        assert!(
            *series.last().unwrap() > 0.9,
            "B=10 should restore entropy, got {}",
            series.last().unwrap()
        );
    }

    #[test]
    fn small_b_collapses_under_heavy_arrivals() {
        // The paper's Fig. 4(c): B = 3 cannot recover.
        let p = params(3, 8.0);
        let series = p.trajectory(0.2, 500).unwrap();
        assert!(
            *series.last().unwrap() < 0.05,
            "B=3 under heavy arrivals should collapse, got {}",
            series.last().unwrap()
        );
    }

    #[test]
    fn is_stable_discriminates_b() {
        assert!(params(10, 2.0).is_stable(0.2, 500, 0.9).unwrap());
        assert!(!params(3, 8.0).is_stable(0.2, 500, 0.9).unwrap());
    }

    #[test]
    fn endpoints_are_fixed() {
        let p = params(5, 3.0);
        assert_eq!(p.step(0.0).unwrap(), 0.0);
        assert_eq!(p.step(1.0).unwrap(), 1.0);
    }

    #[test]
    fn smaller_gamma_helps_stability() {
        // §6: smaller γ keeps nearly-complete peers around longer, adding
        // drift toward entropy 1.
        let base = params(4, 6.0);
        let patient = DriftParams { gamma: 0.0, ..base };
        let impatient = DriftParams { gamma: 0.9, ..base };
        let e_patient = *patient.trajectory(0.3, 300).unwrap().last().unwrap();
        let e_impatient = *impatient.trajectory(0.3, 300).unwrap().last().unwrap();
        assert!(
            e_patient >= e_impatient,
            "gamma=0 ({e_patient}) should not do worse than gamma=0.9 ({e_impatient})"
        );
    }

    #[test]
    fn trajectory_length_and_clamping() {
        let p = params(10, 1.0);
        let series = p.trajectory(5.0, 10).unwrap(); // e0 clamped to 1
        assert_eq!(series.len(), 11);
        assert!(series.iter().all(|&e| (0.0..=1.0).contains(&e)));
        assert_eq!(series[0], 1.0);
    }
}
