//! Discrete distributions used by the models and simulator.
//!
//! The binomial distribution appears throughout the paper's Markov model
//! (`X1`, `X2`, `Y1`, `Y2` in §3.1 are all binomial), so its pmf must be
//! exact for moderate `n` and stable for large `n`; it is computed in the
//! log domain via a Lanczos log-gamma. Poisson arrivals (§4.1) come from
//! exponential interarrival sampling.

use rand::Rng;

use crate::float::{exactly_one, exactly_zero};
use crate::{Error, Result};

/// Lanczos coefficients (g = 7, n = 9) for the log-gamma function.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Accurate to ~1e-13 relative error over the range used here.
///
/// # Panics
///
/// Panics if `x <= 0`.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps accuracy near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural log of `n!`.
#[must_use]
pub fn ln_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Returns `-inf` when `k > n`, matching `C(n, k) = 0`.
#[must_use]
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// The binomial coefficient ratio `C(a, c) / C(b, c)` computed stably in the
/// log domain. Returns 0 when `c > a` and errors when `c > b` (undefined).
///
/// The paper's Eq. 1 is built from exactly these ratios.
///
/// # Errors
///
/// [`Error::InvalidParameter`] if `c > b` (denominator zero).
pub fn choose_ratio(a: u64, c: u64, b: u64) -> Result<f64> {
    if c > b {
        return Err(Error::InvalidParameter {
            name: "choose_ratio",
            detail: format!("C({b},{c}) = 0 in denominator"),
        });
    }
    if c > a {
        return Ok(0.0);
    }
    Ok((ln_choose(a, c) - ln_choose(b, c)).exp())
}

/// A binomial distribution `Bin(n, p)`.
///
/// # Example
///
/// ```
/// use bt_markov::Binomial;
///
/// let b = Binomial::new(4, 0.5).unwrap();
/// assert!((b.pmf(2) - 0.375).abs() < 1e-12);
/// assert_eq!(b.mean(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates `Bin(n, p)`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] unless `0 <= p <= 1`.
    pub fn new(n: u64, p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(Error::InvalidParameter {
                name: "p",
                detail: format!("probability {p} outside [0, 1]"),
            });
        }
        Ok(Binomial { n, p })
    }

    /// Number of trials.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `n * p`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Probability of exactly `k` successes.
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        // Degenerate endpoints avoid ln(0).
        if exactly_zero(self.p) {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if exactly_one(self.p) {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        let ln_pmf = ln_choose(self.n, k)
            + k as f64 * self.p.ln()
            + (self.n - k) as f64 * (1.0 - self.p).ln();
        ln_pmf.exp()
    }

    /// The full pmf as a vector of length `n + 1`.
    #[must_use]
    pub fn pmf_vec(&self) -> Vec<f64> {
        (0..=self.n).map(|k| self.pmf(k)).collect()
    }

    /// Samples a value by counting Bernoulli successes.
    ///
    /// O(n), which is fine for the small `n` (neighbor-set sizes) used here.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        (0..self.n).filter(|_| rng.gen::<f64>() < self.p).count() as u64
    }
}

/// Samples an exponential interarrival time with the given `rate`.
///
/// # Panics
///
/// Panics if `rate <= 0` or is not finite.
pub fn sample_exponential<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "rate must be positive and finite, got {rate}"
    );
    // Inverse-CDF; 1 - U avoids ln(0).
    -(1.0 - rng.gen::<f64>()).ln() / rate
}

/// An empirical distribution over `0..=max` built from observed counts.
///
/// Used for the paper's piece-count distribution φ (the fraction of peers
/// holding `j` pieces, §3.1).
///
/// # Example
///
/// ```
/// use bt_markov::dist::Empirical;
///
/// let phi = Empirical::from_counts(&[0, 2, 2]).unwrap();
/// assert_eq!(phi.prob(1), 0.5);
/// assert_eq!(phi.prob(7), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    probs: Vec<f64>,
}

impl Empirical {
    /// Builds from raw counts; index = value.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] if the total count is zero.
    pub fn from_counts(counts: &[u64]) -> Result<Self> {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Err(Error::InvalidParameter {
                name: "counts",
                detail: "total count is zero".into(),
            });
        }
        Ok(Empirical {
            probs: counts.iter().map(|&c| c as f64 / total as f64).collect(),
        })
    }

    /// Builds from probabilities that must sum to one.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] for negative entries or a sum away from 1.
    pub fn from_probs(probs: Vec<f64>) -> Result<Self> {
        if probs.iter().any(|&p| p < 0.0 || p.is_nan()) {
            return Err(Error::InvalidParameter {
                name: "probs",
                detail: "negative or NaN probability".into(),
            });
        }
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(Error::InvalidParameter {
                name: "probs",
                detail: format!("probabilities sum to {sum}, expected 1"),
            });
        }
        Ok(Empirical { probs })
    }

    /// Probability of value `v` (0 outside the support).
    #[must_use]
    pub fn prob(&self, v: usize) -> f64 {
        self.probs.get(v).copied().unwrap_or(0.0)
    }

    /// Largest value in the support.
    #[must_use]
    pub fn max_value(&self) -> usize {
        self.probs.len().saturating_sub(1)
    }

    /// The probability vector.
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Expected value.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(v, &p)| v as f64 * p)
            .sum()
    }

    /// Samples a value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        crate::chain::sample_index(&self.probs, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..=20 {
            let exact: f64 = (1..=n).map(|i| (i as f64).ln()).sum();
            assert!(
                (ln_factorial(n) - exact).abs() < 1e-10,
                "n={n}: {} vs {exact}",
                ln_factorial(n)
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Gamma(1/2) = sqrt(pi).
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn ln_choose_small_values() {
        assert!((ln_choose(5, 2).exp() - 10.0).abs() < 1e-9);
        assert!((ln_choose(10, 0).exp() - 1.0).abs() < 1e-12);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn choose_ratio_matches_direct() {
        // C(6,2)/C(10,2) = 15/45 = 1/3.
        assert!((choose_ratio(6, 2, 10).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        // c > a => numerator zero.
        assert_eq!(choose_ratio(2, 5, 10).unwrap(), 0.0);
        // c > b => undefined.
        assert!(choose_ratio(10, 12, 11).is_err());
    }

    #[test]
    fn choose_ratio_large_args_stable() {
        // C(1999,1000)/C(2000,1000) = (2000-1000)/2000 = 0.5.
        let r = choose_ratio(1999, 1000, 2000).unwrap();
        assert!((r - 0.5).abs() < 1e-9, "r={r}");
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &(n, p) in &[(0u64, 0.3), (1, 0.5), (10, 0.2), (50, 0.9), (200, 0.01)] {
            let b = Binomial::new(n, p).unwrap();
            let total: f64 = b.pmf_vec().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} p={p}: {total}");
        }
    }

    #[test]
    fn binomial_degenerate_endpoints() {
        let zero = Binomial::new(5, 0.0).unwrap();
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.pmf(1), 0.0);
        let one = Binomial::new(5, 1.0).unwrap();
        assert_eq!(one.pmf(5), 1.0);
        assert_eq!(one.pmf(4), 0.0);
    }

    #[test]
    fn binomial_rejects_bad_p() {
        assert!(Binomial::new(3, -0.1).is_err());
        assert!(Binomial::new(3, 1.1).is_err());
        assert!(Binomial::new(3, f64::NAN).is_err());
    }

    #[test]
    fn binomial_known_pmf() {
        let b = Binomial::new(4, 0.5).unwrap();
        let expect = [1.0, 4.0, 6.0, 4.0, 1.0].map(|c| c / 16.0);
        for (k, &e) in expect.iter().enumerate() {
            assert!((b.pmf(k as u64) - e).abs() < 1e-12);
        }
    }

    #[test]
    fn binomial_sample_mean_near_np() {
        let b = Binomial::new(30, 0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| b.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - b.mean()).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn binomial_moments() {
        let b = Binomial::new(10, 0.25).unwrap();
        assert_eq!(b.mean(), 2.5);
        assert_eq!(b.n(), 10);
        assert_eq!(b.p(), 0.25);
    }

    #[test]
    fn exponential_sample_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let rate = 2.0;
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(rate, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = StdRng::seed_from_u64(0);
        sample_exponential(0.0, &mut rng);
    }

    #[test]
    fn empirical_from_counts() {
        let e = Empirical::from_counts(&[1, 1, 2]).unwrap();
        assert_eq!(e.prob(0), 0.25);
        assert_eq!(e.prob(2), 0.5);
        assert_eq!(e.max_value(), 2);
        assert!((e.mean() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empirical_rejects_zero_counts() {
        assert!(Empirical::from_counts(&[0, 0]).is_err());
    }

    #[test]
    fn empirical_from_probs_validates() {
        assert!(Empirical::from_probs(vec![0.5, 0.4]).is_err());
        assert!(Empirical::from_probs(vec![-0.5, 1.5]).is_err());
        assert!(Empirical::from_probs(vec![0.25, 0.75]).is_ok());
    }

    #[test]
    fn empirical_sample_respects_support() {
        let e = Empirical::from_probs(vec![0.0, 1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert_eq!(e.sample(&mut rng), 1);
        }
    }
}
