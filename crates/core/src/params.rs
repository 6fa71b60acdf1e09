//! Model parameters (§3.1 of the paper) with a validating builder.

use bt_markov::dist::Empirical;

use crate::{Error, Result};

/// Parameters of the multiphased download model.
///
/// | Field | Paper symbol | Meaning |
/// | --- | --- | --- |
/// | `pieces` | `B` | number of pieces the file is divided into |
/// | `max_connections` | `k` | maximum simultaneous active connections |
/// | `neighbor_set_size` | `s` | maximum achievable neighbor-set size |
/// | `p_init` | `p_init` | success probability of an initial connection |
/// | `alpha` | `α` | per-step probability a tradable peer enters an empty potential set in the bootstrap phase (`α = λws/N`) |
/// | `gamma` | `γ` | per-step probability a new tradable piece flows into the neighbor set in the last download phase |
/// | `p_r` | `p_r` | probability an established connection survives a step |
/// | `p_n` | `p_n` | probability a new connection attempt succeeds |
/// | `phi` | `φ` | distribution of piece counts across peers (`φ(j)` = fraction of peers holding `j` pieces) |
/// | `seed_connections` | — | §7.2 extension: extra non-tit-for-tat connections to seeds (0 in the paper's experiments) |
/// | `p_seed` | — | per-step probability each seed connection delivers a piece |
///
/// Construct via [`ModelParams::builder`], which validates everything.
///
/// # Example
///
/// ```
/// use bt_model::ModelParams;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = ModelParams::builder()
///     .pieces(200)
///     .max_connections(7)
///     .neighbor_set_size(40)
///     .alpha(0.2)
///     .gamma(0.1)
///     .build()?;
/// assert_eq!(params.pieces(), 200);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    pieces: u32,
    max_connections: u32,
    neighbor_set_size: u32,
    p_init: f64,
    alpha: f64,
    gamma: f64,
    p_r: f64,
    p_n: f64,
    phi: Empirical,
    seed_connections: u32,
    p_seed: f64,
}

impl ModelParams {
    /// Starts a builder with the paper's defaults (`B = 200`, `k = 7`,
    /// `s = 40`, uniform `φ`).
    #[must_use]
    pub fn builder() -> ModelParamsBuilder {
        ModelParamsBuilder::default()
    }

    /// Number of pieces `B`.
    #[must_use]
    pub fn pieces(&self) -> u32 {
        self.pieces
    }

    /// Maximum simultaneous connections `k`.
    #[must_use]
    pub fn max_connections(&self) -> u32 {
        self.max_connections
    }

    /// Neighbor-set size `s`.
    #[must_use]
    pub fn neighbor_set_size(&self) -> u32 {
        self.neighbor_set_size
    }

    /// Initial connection success probability `p_init`.
    #[must_use]
    pub fn p_init(&self) -> f64 {
        self.p_init
    }

    /// Bootstrap-phase arrival probability `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Last-phase piece-arrival probability `γ`.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Re-encounter (connection survival) probability `p_r`.
    #[must_use]
    pub fn p_r(&self) -> f64 {
        self.p_r
    }

    /// New-connection success probability `p_n`.
    #[must_use]
    pub fn p_n(&self) -> f64 {
        self.p_n
    }

    /// The piece-count distribution `φ` over `0..=B` (the paper's sums use
    /// support `1..=B`; mass at 0 is permitted and simply never referenced).
    #[must_use]
    pub fn phi(&self) -> &Empirical {
        &self.phi
    }

    /// §7.2 extension: number of non-tit-for-tat seed connections.
    #[must_use]
    pub fn seed_connections(&self) -> u32 {
        self.seed_connections
    }

    /// Per-step delivery probability of each seed connection.
    #[must_use]
    pub fn p_seed(&self) -> f64 {
        self.p_seed
    }
}

/// The bootstrap-phase parameter `α = λ·w·s / N` from §3.2.
///
/// * `lambda` — peer arrival rate (peers per step),
/// * `w` — probability a newly arriving peer has a piece to exchange,
/// * `s` — neighbor-set size,
/// * `n_peers` — swarm population `N`.
///
/// The result is clamped to `[0, 1]` (it is a per-step probability).
///
/// # Panics
///
/// Panics if any argument is negative, `n_peers` is zero, or any argument is
/// NaN.
#[must_use]
pub fn alpha_from_swarm(lambda: f64, w: f64, s: u32, n_peers: f64) -> f64 {
    assert!(
        lambda >= 0.0 && w >= 0.0 && n_peers > 0.0,
        "alpha_from_swarm arguments must be non-negative with n_peers > 0"
    );
    (lambda * w * f64::from(s) / n_peers).clamp(0.0, 1.0)
}

/// Builder for [`ModelParams`].
#[derive(Debug, Clone)]
pub struct ModelParamsBuilder {
    pieces: u32,
    max_connections: u32,
    neighbor_set_size: u32,
    p_init: f64,
    alpha: f64,
    gamma: f64,
    p_r: f64,
    p_n: f64,
    phi: Option<Empirical>,
    seed_connections: u32,
    p_seed: f64,
}

impl Default for ModelParamsBuilder {
    fn default() -> Self {
        ModelParamsBuilder {
            pieces: 200,
            max_connections: 7,
            neighbor_set_size: 40,
            p_init: 0.9,
            alpha: 0.25,
            gamma: 0.15,
            p_r: 0.9,
            p_n: 0.8,
            phi: None,
            seed_connections: 0,
            p_seed: 0.5,
        }
    }
}

impl ModelParamsBuilder {
    /// Sets the number of pieces `B` (must be ≥ 1).
    pub fn pieces(&mut self, pieces: u32) -> &mut Self {
        self.pieces = pieces;
        self
    }

    /// Sets the maximum simultaneous connections `k` (must be ≥ 1).
    pub fn max_connections(&mut self, k: u32) -> &mut Self {
        self.max_connections = k;
        self
    }

    /// Sets the neighbor-set size `s` (must be ≥ 1).
    pub fn neighbor_set_size(&mut self, s: u32) -> &mut Self {
        self.neighbor_set_size = s;
        self
    }

    /// Sets `p_init`.
    pub fn p_init(&mut self, p: f64) -> &mut Self {
        self.p_init = p;
        self
    }

    /// Sets `α`.
    pub fn alpha(&mut self, alpha: f64) -> &mut Self {
        self.alpha = alpha;
        self
    }

    /// Sets `γ`.
    pub fn gamma(&mut self, gamma: f64) -> &mut Self {
        self.gamma = gamma;
        self
    }

    /// Sets `p_r`.
    pub fn p_r(&mut self, p: f64) -> &mut Self {
        self.p_r = p;
        self
    }

    /// Sets `p_n`.
    pub fn p_n(&mut self, p: f64) -> &mut Self {
        self.p_n = p;
        self
    }

    /// §7.2 extension: adds `n` non-tit-for-tat seed connections, each
    /// delivering a free piece per step with probability `p_seed`.
    pub fn seed_connections(&mut self, n: u32) -> &mut Self {
        self.seed_connections = n;
        self
    }

    /// Sets the per-step delivery probability of each seed connection.
    pub fn p_seed(&mut self, p: f64) -> &mut Self {
        self.p_seed = p;
        self
    }

    /// Sets the piece-count distribution `φ`. Its support must be `0..=B`
    /// (length `B + 1`); if unset, the uniform distribution over `1..=B`
    /// is used (the steady-state shape the paper's §6 argues the trading
    /// phase drives `φ` towards).
    pub fn phi(&mut self, phi: Empirical) -> &mut Self {
        self.phi = Some(phi);
        self
    }

    /// Validates and builds the parameters.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] if any count is zero, any probability is
    /// outside `[0, 1]`, or `φ`'s support does not match `B`.
    pub fn build(&self) -> Result<ModelParams> {
        if self.pieces == 0 {
            return Err(Error::InvalidParameter {
                name: "pieces",
                detail: "B must be at least 1".into(),
            });
        }
        if self.max_connections == 0 {
            return Err(Error::InvalidParameter {
                name: "max_connections",
                detail: "k must be at least 1".into(),
            });
        }
        if self.neighbor_set_size == 0 {
            return Err(Error::InvalidParameter {
                name: "neighbor_set_size",
                detail: "s must be at least 1".into(),
            });
        }
        for (name, p) in [
            ("p_init", self.p_init),
            ("alpha", self.alpha),
            ("gamma", self.gamma),
            ("p_r", self.p_r),
            ("p_n", self.p_n),
            ("p_seed", self.p_seed),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(Error::InvalidParameter {
                    name: match name {
                        "p_init" => "p_init",
                        "alpha" => "alpha",
                        "gamma" => "gamma",
                        "p_r" => "p_r",
                        "p_n" => "p_n",
                        _ => "p_seed",
                    },
                    detail: format!("probability {p} outside [0, 1]"),
                });
            }
        }
        let phi = match &self.phi {
            Some(phi) => {
                if phi.max_value() != self.pieces as usize {
                    return Err(Error::InvalidParameter {
                        name: "phi",
                        detail: format!(
                            "support 0..={} does not match B = {}",
                            phi.max_value(),
                            self.pieces
                        ),
                    });
                }
                phi.clone()
            }
            None => uniform_phi(self.pieces),
        };
        Ok(ModelParams {
            pieces: self.pieces,
            max_connections: self.max_connections,
            neighbor_set_size: self.neighbor_set_size,
            p_init: self.p_init,
            alpha: self.alpha,
            gamma: self.gamma,
            p_r: self.p_r,
            p_n: self.p_n,
            phi,
            seed_connections: self.seed_connections,
            p_seed: self.p_seed,
        })
    }
}

/// The uniform piece-count distribution over `1..=B` (zero mass at 0),
/// the steady-state `φ` of §6.
///
/// # Panics
///
/// Panics if `pieces == 0`.
#[must_use]
pub fn uniform_phi(pieces: u32) -> Empirical {
    assert!(pieces >= 1, "pieces must be at least 1");
    let mut probs = vec![1.0 / f64::from(pieces); pieces as usize + 1];
    probs[0] = 0.0;
    Empirical::from_probs(probs).expect("uniform phi is a valid distribution")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let p = ModelParams::builder().build().unwrap();
        assert_eq!(p.pieces(), 200);
        assert_eq!(p.max_connections(), 7);
        assert_eq!(p.neighbor_set_size(), 40);
        assert!(p.p_init() > 0.0);
    }

    #[test]
    fn rejects_zero_counts() {
        assert!(ModelParams::builder().pieces(0).build().is_err());
        assert!(ModelParams::builder().max_connections(0).build().is_err());
        assert!(ModelParams::builder().neighbor_set_size(0).build().is_err());
    }

    #[test]
    fn rejects_bad_probabilities() {
        assert!(ModelParams::builder().alpha(1.5).build().is_err());
        assert!(ModelParams::builder().gamma(-0.1).build().is_err());
        assert!(ModelParams::builder().p_r(f64::NAN).build().is_err());
        assert!(ModelParams::builder().p_init(2.0).build().is_err());
        assert!(ModelParams::builder().p_n(-1.0).build().is_err());
    }

    #[test]
    fn uniform_phi_has_zero_mass_at_zero() {
        let phi = uniform_phi(10);
        assert_eq!(phi.prob(0), 0.0);
        assert!((phi.prob(1) - 0.1).abs() < 1e-12);
        assert_eq!(phi.max_value(), 10);
    }

    #[test]
    fn custom_phi_support_checked() {
        let wrong = Empirical::from_counts(&[1; 6]).unwrap();
        let err = ModelParams::builder().pieces(10).phi(wrong).build();
        assert!(err.is_err());
        let right = Empirical::from_counts(&[1; 11]).unwrap();
        assert!(ModelParams::builder().pieces(10).phi(right).build().is_ok());
    }

    #[test]
    fn alpha_from_swarm_formula() {
        // λ=2, w=0.5, s=40, N=400 => 2*0.5*40/400 = 0.1.
        assert!((alpha_from_swarm(2.0, 0.5, 40, 400.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn alpha_from_swarm_clamps() {
        assert_eq!(alpha_from_swarm(100.0, 1.0, 50, 10.0), 1.0);
        assert_eq!(alpha_from_swarm(0.0, 1.0, 50, 10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn alpha_from_swarm_rejects_zero_peers() {
        let _ = alpha_from_swarm(1.0, 0.5, 40, 0.0);
    }
}
