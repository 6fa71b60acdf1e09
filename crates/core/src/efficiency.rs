//! The connection-class efficiency model (§5, Eq. 4–6).
//!
//! Peers are grouped into classes by their number of active connections;
//! `x_i` is the fraction of peers with `i` connections, `i = 0..=k`. Per
//! round:
//!
//! * **Downward flow (Eq. 4)** — each of a peer's `i` connections fails
//!   independently with probability `1 − p_r`, so class `i` redistributes
//!   binomially: the flow `i → j` is `x_i · w^i_{i−j}` with
//!   `w^i_l = C(i, l)(1 − p_r)^l p_r^{i−l}`.
//! * **Upward flow (Eq. 5–6)** — peers with an open slot attempt one
//!   encounter with a uniformly random peer; the encounter succeeds iff the
//!   target also has an open slot (is not in class `k`), promoting *both*
//!   endpoints. Classes are updated in increasing order of `i`, which — as
//!   the paper notes — biases the iteration toward an upper bound on the
//!   efficiency. The paper tracks single encounters of weight `1/N`; here
//!   the per-round aggregate is used with a factor ½ per role so that a
//!   peer participates in one encounter per round whether as initiator or
//!   target (the paper's one-at-a-time scheme summed over all `N` peers).
//!
//! The steady state is the fixed point of the combined sweep; the
//! efficiency is `η = (1/k) Σ i · x_i`.

use bt_markov::fixed_point::{self, Options};
use bt_markov::Binomial;
use rand::Rng;

use crate::{Error, Result};
use bt_markov::float::exactly_zero;

/// Order in which the upward (Eq. 5–6) class updates are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepOrder {
    /// The paper's scheme: classes updated in increasing order using the
    /// already-updated values. Mass promoted out of a low class can be
    /// promoted again higher up within the same sweep, which the paper
    /// notes makes the resulting efficiency an *upper bound*.
    Ascending,
    /// Physically conservative scheme: all upward flows are computed from
    /// the post-failure populations, so each peer participates in at most
    /// one encounter per round.
    #[default]
    Simultaneous,
}

/// The §5 efficiency model for a given `k` and re-encounter probability.
///
/// # Example
///
/// ```
/// use bt_model::efficiency::EfficiencyModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let eta1 = EfficiencyModel::new(1, 0.9)?.solve()?.efficiency;
/// let eta2 = EfficiencyModel::new(2, 0.9)?.solve()?.efficiency;
/// // The paper's headline: a large gain from k = 1 to k = 2.
/// assert!(eta2 > eta1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyModel {
    k: u32,
    p_r: f64,
    match_prob: f64,
    order: SweepOrder,
}

/// The solved steady state of the efficiency model.
#[derive(Debug, Clone, PartialEq)]
pub struct Equilibrium {
    /// Class populations `x_0..=x_k` (sums to 1).
    pub classes: Vec<f64>,
    /// Upload-slot utilization `η = (1/k) Σ i · x_i`.
    pub efficiency: f64,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

impl EfficiencyModel {
    /// Creates a model.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] if `k == 0` or `p_r ∉ [0, 1]`.
    pub fn new(k: u32, p_r: f64) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter {
                name: "k",
                detail: "k must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&p_r) || p_r.is_nan() {
            return Err(Error::InvalidParameter {
                name: "p_r",
                detail: format!("probability {p_r} outside [0, 1]"),
            });
        }
        Ok(EfficiencyModel {
            k,
            p_r,
            match_prob: 1.0,
            order: SweepOrder::default(),
        })
    }

    /// Creates a model with connection durations coupled to `k`, following
    /// the paper's §5 explanation of Fig. 4(a): with multiple simultaneous
    /// connections, freshly downloaded pieces keep existing connections
    /// tradable, so the per-round failure probability shrinks with `k`:
    /// `1 − p_r(k) = (1 − p_r_base) / k`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EfficiencyModel::new`].
    // bt-lint: allow(pub-unused) paper entry point: the §5 duration coupling behind Fig. 4(a)
    pub fn with_duration_coupling(k: u32, p_r_base: f64) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter {
                name: "k",
                detail: "k must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&p_r_base) || p_r_base.is_nan() {
            return Err(Error::InvalidParameter {
                name: "p_r",
                detail: format!("probability {p_r_base} outside [0, 1]"),
            });
        }
        let p_r = 1.0 - (1.0 - p_r_base) / f64::from(k);
        Ok(EfficiencyModel {
            k,
            p_r,
            match_prob: 1.0,
            order: SweepOrder::default(),
        })
    }

    /// Sets the probability that an encounter with an open peer actually
    /// finds exchangeable pieces (the potential-set membership probability
    /// `p₍c₎` of Eq. 1 folded into the encounter success). Default 1.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] if `p ∉ [0, 1]`.
    // bt-lint: allow(pub-unused) paper entry point: the potential-set probability of Eq. 1
    pub fn match_prob(mut self, p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(Error::InvalidParameter {
                name: "match_prob",
                detail: format!("probability {p} outside [0, 1]"),
            });
        }
        self.match_prob = p;
        Ok(self)
    }

    /// Selects the upward-sweep order (default
    /// [`SweepOrder::Simultaneous`]).
    #[must_use]
    pub fn sweep_order(mut self, order: SweepOrder) -> Self {
        self.order = order;
        self
    }

    /// Maximum simultaneous connections `k`.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Re-encounter probability `p_r`.
    #[must_use]
    pub fn p_r(&self) -> f64 {
        self.p_r
    }

    /// One balance-equation sweep: Eq. 4 downward flows, then the Eq. 5–6
    /// upward flows in increasing class order. Probability mass is
    /// conserved exactly.
    #[must_use]
    pub fn sweep(&self, x: &[f64]) -> Vec<f64> {
        let k = self.k as usize;
        assert_eq!(x.len(), k + 1, "expected k + 1 class populations");
        // Downward: binomial survival of connections.
        let mut cur = vec![0.0; k + 1];
        for (l, &mass) in x.iter().enumerate() {
            if exactly_zero(mass) {
                continue;
            }
            let survive = Binomial::new(l as u64, self.p_r).expect("validated p_r");
            for (j, slot) in cur.iter_mut().enumerate().take(l + 1) {
                *slot += mass * survive.pmf(j as u64);
            }
        }
        match self.order {
            SweepOrder::Ascending => self.sweep_up_ascending(&mut cur),
            SweepOrder::Simultaneous => self.sweep_up_simultaneous(&mut cur),
        }
        cur
    }

    /// The paper's ascending upward sweep (Eq. 5–6) on already-updated
    /// values — an upper bound on the efficiency.
    fn sweep_up_ascending(&self, cur: &mut [f64]) {
        let k = self.k as usize;
        for i in 0..k {
            let open = 1.0 - cur[k];
            if exactly_zero(cur[i]) || open <= 0.0 {
                continue;
            }
            let initiators = cur[i];
            // Initiator promotions (half-weight per encounter role).
            let promoted = 0.5 * initiators * open * self.match_prob;
            // Target promotions across all open classes.
            let mut target_moves = vec![0.0; k + 1];
            for (l, mv) in target_moves.iter_mut().enumerate().take(k) {
                *mv = 0.5 * initiators * cur[l] * self.match_prob;
            }
            cur[i] -= promoted;
            cur[i + 1] += promoted;
            for (l, &mv) in target_moves.iter().enumerate().take(k) {
                cur[l] -= mv;
                cur[l + 1] += mv;
            }
        }
    }

    /// Upward flows computed from the post-failure populations: one
    /// encounter per peer per round.
    fn sweep_up_simultaneous(&self, cur: &mut [f64]) {
        let k = self.k as usize;
        let open = 1.0 - cur[k];
        if open <= 0.0 {
            return;
        }
        // Out-flow from class l: as initiator (0.5·y_l·open) plus as the
        // target of some initiator (0.5·open·y_l). Total y_l·open ≤ y_l.
        let flows: Vec<f64> = (0..k).map(|l| cur[l] * open * self.match_prob).collect();
        for (l, &fl) in flows.iter().enumerate() {
            cur[l] -= fl;
            cur[l + 1] += fl;
        }
    }

    /// Iterates the sweep to its fixed point from the all-idle state.
    ///
    /// # Errors
    ///
    /// [`Error::Numeric`] wrapping a convergence failure (does not occur
    /// for valid parameters; the sweep is a contraction in practice).
    pub fn solve(&self) -> Result<Equilibrium> {
        let k = self.k as usize;
        let mut x0 = vec![0.0; k + 1];
        x0[0] = 1.0;
        let opts = Options {
            tol: 1e-13,
            max_iters: 200_000,
            damping: 1.0,
            renormalize: true,
        };
        let fp = fixed_point::iterate(x0, opts, |x, out| {
            out.copy_from_slice(&self.sweep(x));
        })?;
        let efficiency = efficiency_of(&fp.value);
        Ok(Equilibrium {
            classes: fp.value,
            efficiency,
            iterations: fp.iterations,
        })
    }

    /// Solves the model for every `k` in `1..=k_max` (the paper's Fig. 4(a)
    /// sweep).
    ///
    /// # Errors
    ///
    /// Propagates [`EfficiencyModel::solve`] errors.
    // bt-lint: allow(pub-unused) paper entry point: the Fig. 4(a) sweep over k
    pub fn sweep_k(k_max: u32, p_r: f64) -> Result<Vec<(u32, f64)>> {
        (1..=k_max)
            .map(|k| {
                let eta = EfficiencyModel::new(k, p_r)?.solve()?.efficiency;
                Ok((k, eta))
            })
            .collect()
    }
}

/// `η = (1/k) Σ i · x_i` for class populations `x_0..=x_k`.
///
/// # Panics
///
/// Panics if `classes` is empty or has length 1 (no connection slots).
#[must_use]
pub fn efficiency_of(classes: &[f64]) -> f64 {
    assert!(classes.len() >= 2, "need at least classes x_0 and x_1");
    let k = (classes.len() - 1) as f64;
    classes
        .iter()
        .enumerate()
        .map(|(i, &x)| i as f64 * x)
        .sum::<f64>()
        / k
}

/// Agent-based Monte-Carlo cross-check of the efficiency model: `n_peers`
/// peers maintain up to `k` pairwise connections; per round each connection
/// fails independently with probability `1 − p_r`, then every peer with an
/// open slot attempts one encounter with a uniformly random peer (success
/// iff the target has an open slot). Returns the time-averaged slot
/// utilization after a warm-up.
///
/// This is the "simulation" column of Fig. 4(a) at the granularity of the
/// §5 model itself (the full protocol simulator in `bt-swarm` provides the
/// protocol-level version).
///
/// # Panics
///
/// Panics if `k == 0`, `n_peers < 2`, or `rounds == 0`.
pub fn monte_carlo_efficiency<R: Rng>(
    k: u32,
    p_r: f64,
    n_peers: usize,
    rounds: usize,
    rng: &mut R,
) -> f64 {
    assert!(k >= 1, "k must be at least 1");
    assert!(n_peers >= 2, "need at least two peers");
    assert!(rounds > 0, "need at least one round");
    let k = k as usize;
    // The edge list fixes the order failures draw in; the adjacency
    // lists (a peer's degree is its list's length, at most k) answer
    // "already connected?" in O(k).
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut adjacent: Vec<Vec<usize>> = (0..n_peers).map(|_| Vec::with_capacity(k)).collect();
    let warmup = rounds / 2;
    let mut util_sum = 0.0;
    let mut samples = 0usize;
    for round in 0..rounds {
        // Failures.
        edges.retain(|&(a, b)| {
            if rng.gen::<f64>() < p_r {
                true
            } else {
                for (from, to) in [(a, b), (b, a)] {
                    let list = &mut adjacent[from];
                    let at = list
                        .iter()
                        .position(|&x| x == to)
                        .expect("edge in both lists");
                    list.swap_remove(at);
                }
                false
            }
        });
        // Encounters: peers in random order.
        let mut order: Vec<usize> = (0..n_peers).collect();
        for idx in (1..order.len()).rev() {
            order.swap(idx, rng.gen_range(0..=idx));
        }
        for &p in &order {
            if adjacent[p].len() >= k {
                continue;
            }
            let mut q = rng.gen_range(0..n_peers - 1);
            if q >= p {
                q += 1;
            }
            if adjacent[q].len() >= k || adjacent[p].contains(&q) {
                continue;
            }
            edges.push((p.min(q), p.max(q)));
            adjacent[p].push(q);
            adjacent[q].push(p);
        }
        if round >= warmup {
            let used: usize = adjacent.iter().map(Vec::len).sum();
            util_sum += used as f64 / (n_peers * k) as f64;
            samples += 1;
        }
    }
    util_sum / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `monte_carlo_efficiency` as it was before the adjacency lists: the
    /// duplicate-edge check scans the whole edge list.
    fn monte_carlo_efficiency_scan<R: Rng>(
        k: u32,
        p_r: f64,
        n_peers: usize,
        rounds: usize,
        rng: &mut R,
    ) -> f64 {
        let k = k as usize;
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut degree = vec![0usize; n_peers];
        let warmup = rounds / 2;
        let mut util_sum = 0.0;
        let mut samples = 0usize;
        for round in 0..rounds {
            edges.retain(|&(a, b)| {
                if rng.gen::<f64>() < p_r {
                    true
                } else {
                    degree[a] -= 1;
                    degree[b] -= 1;
                    false
                }
            });
            let mut order: Vec<usize> = (0..n_peers).collect();
            for idx in (1..order.len()).rev() {
                order.swap(idx, rng.gen_range(0..=idx));
            }
            for &p in &order {
                if degree[p] >= k {
                    continue;
                }
                let mut q = rng.gen_range(0..n_peers - 1);
                if q >= p {
                    q += 1;
                }
                if degree[q] >= k || edges.iter().any(|&(a, b)| (a, b) == (p.min(q), p.max(q))) {
                    continue;
                }
                edges.push((p.min(q), p.max(q)));
                degree[p] += 1;
                degree[q] += 1;
            }
            if round >= warmup {
                let used: usize = degree.iter().sum();
                util_sum += used as f64 / (n_peers * k) as f64;
                samples += 1;
            }
        }
        util_sum / samples as f64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn monte_carlo_matches_the_edge_scan_oracle(
            k in 1u32..=8,
            p_r in 0.0f64..=1.0,
            n_peers in 2usize..200,
            rounds in 1usize..300,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            let got = monte_carlo_efficiency(k, p_r, n_peers, rounds, &mut rng);
            let want = monte_carlo_efficiency_scan(k, p_r, n_peers, rounds, &mut oracle_rng);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            // Same draws, so both generators end in the same state.
            prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(EfficiencyModel::new(0, 0.5).is_err());
        assert!(EfficiencyModel::new(2, -0.1).is_err());
        assert!(EfficiencyModel::new(2, 1.5).is_err());
        assert!(EfficiencyModel::new(2, f64::NAN).is_err());
    }

    #[test]
    fn sweep_conserves_mass() {
        let m = EfficiencyModel::new(4, 0.8).unwrap();
        let x = vec![0.2, 0.2, 0.2, 0.2, 0.2];
        let y = m.sweep(&x);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(y.iter().all(|&v| v >= -1e-15), "no negative mass: {y:?}");
    }

    #[test]
    fn equilibrium_is_fixed_point() {
        let m = EfficiencyModel::new(3, 0.9).unwrap();
        let eq = m.solve().unwrap();
        let swept = m.sweep(&eq.classes);
        for (a, b) in eq.classes.iter().zip(&swept) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!((eq.classes.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_in_unit_interval() {
        for k in 1..=8 {
            for &p_r in &[0.1, 0.5, 0.9, 0.99] {
                let eta = EfficiencyModel::new(k, p_r)
                    .unwrap()
                    .solve()
                    .unwrap()
                    .efficiency;
                assert!((0.0..=1.0).contains(&eta), "k={k} p_r={p_r}: {eta}");
            }
        }
    }

    #[test]
    fn k1_matches_closed_form() {
        // For k = 1 one sweep is x₁ ← p_r·x₁ + (1 − p_r·x₁)²: failures
        // first, then every open peer pairs with another open peer. The
        // fixed point solves that quadratic.
        let p_r = 0.9;
        let eta = EfficiencyModel::new(1, p_r)
            .unwrap()
            .solve()
            .unwrap()
            .efficiency;
        let resid = eta - (p_r * eta + (1.0 - p_r * eta).powi(2));
        assert!(resid.abs() < 1e-9, "eta={eta}, residual={resid}");
    }

    #[test]
    fn large_gain_from_k1_to_k2_then_plateau() {
        // The paper's Fig. 4(a) conclusion, with the §5 duration coupling
        // (connection lifetimes grow with k).
        let curve: Vec<f64> = (1..=8)
            .map(|k| {
                EfficiencyModel::with_duration_coupling(k, 0.6)
                    .unwrap()
                    .match_prob(0.6)
                    .unwrap()
                    .solve()
                    .unwrap()
                    .efficiency
            })
            .collect();
        let gain_12 = curve[1] - curve[0];
        assert!(
            gain_12 > 0.03,
            "k=1→2 gain should be significant: {curve:?}"
        );
        for w in curve[1..].windows(2) {
            let gain = w[1] - w[0];
            assert!(gain < gain_12, "gains beyond k=2 are smaller: {curve:?}");
            assert!(gain > -0.02, "efficiency does not collapse: {curve:?}");
        }
    }

    #[test]
    fn sweep_orders_agree_closely() {
        // The ascending order re-promotes freshly promoted mass (upper-bound
        // bias, per the paper) but also sees a smaller open fraction for
        // later classes; the two effects nearly cancel, so the orders must
        // stay close and identical for k = 1 (single class, no reordering).
        let asc1 = EfficiencyModel::new(1, 0.8)
            .unwrap()
            .sweep_order(SweepOrder::Ascending)
            .solve()
            .unwrap()
            .efficiency;
        let sim1 = EfficiencyModel::new(1, 0.8)
            .unwrap()
            .solve()
            .unwrap()
            .efficiency;
        assert!((asc1 - sim1).abs() < 1e-9, "k=1: {asc1} vs {sim1}");
        for k in [2u32, 4] {
            let asc = EfficiencyModel::new(k, 0.8)
                .unwrap()
                .sweep_order(SweepOrder::Ascending)
                .solve()
                .unwrap()
                .efficiency;
            let sim = EfficiencyModel::new(k, 0.8)
                .unwrap()
                .solve()
                .unwrap()
                .efficiency;
            assert!((asc - sim).abs() < 0.05, "k={k}: {asc} vs {sim}");
        }
    }

    #[test]
    fn match_prob_lowers_efficiency() {
        let full = EfficiencyModel::new(2, 0.8)
            .unwrap()
            .solve()
            .unwrap()
            .efficiency;
        let half = EfficiencyModel::new(2, 0.8)
            .unwrap()
            .match_prob(0.5)
            .unwrap()
            .solve()
            .unwrap()
            .efficiency;
        assert!(half < full, "harder matching must hurt: {half} vs {full}");
        assert!(EfficiencyModel::new(2, 0.8)
            .unwrap()
            .match_prob(1.5)
            .is_err());
    }

    #[test]
    fn duration_coupling_raises_p_r_with_k() {
        let m1 = EfficiencyModel::with_duration_coupling(1, 0.6).unwrap();
        let m3 = EfficiencyModel::with_duration_coupling(3, 0.6).unwrap();
        assert!((m1.p_r() - 0.6).abs() < 1e-12);
        assert!((m3.p_r() - (1.0 - 0.4 / 3.0)).abs() < 1e-12);
        assert!(EfficiencyModel::with_duration_coupling(0, 0.6).is_err());
        assert!(EfficiencyModel::with_duration_coupling(2, 7.0).is_err());
    }

    #[test]
    fn efficiency_increases_with_p_r() {
        let mut last = 0.0;
        for &p_r in &[0.5, 0.7, 0.9, 0.99] {
            let eta = EfficiencyModel::new(2, p_r)
                .unwrap()
                .solve()
                .unwrap()
                .efficiency;
            assert!(eta > last, "eta({p_r}) = {eta} should exceed {last}");
            last = eta;
        }
    }

    #[test]
    fn zero_p_r_still_has_some_throughput() {
        // Connections all fail every round but one encounter per round
        // still re-forms one of them.
        let eta = EfficiencyModel::new(2, 0.0)
            .unwrap()
            .solve()
            .unwrap()
            .efficiency;
        assert!(eta > 0.0);
        assert!(eta < 0.9, "eta={eta}");
    }

    #[test]
    fn efficiency_of_uniform_classes() {
        // x = (1/3, 1/3, 1/3) over k = 2: η = (0 + 1/3 + 2/3)/2 = 0.5.
        assert!((efficiency_of(&[1.0 / 3.0; 3]) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least classes")]
    fn efficiency_of_rejects_trivial() {
        let _ = efficiency_of(&[1.0]);
    }

    #[test]
    fn monte_carlo_agrees_with_model_shape() {
        let mut rng = StdRng::seed_from_u64(17);
        let p_r = 0.9;
        let mc1 = monte_carlo_efficiency(1, p_r, 300, 200, &mut rng);
        let mc2 = monte_carlo_efficiency(2, p_r, 300, 200, &mut rng);
        let m1 = EfficiencyModel::new(1, p_r)
            .unwrap()
            .solve()
            .unwrap()
            .efficiency;
        let m2 = EfficiencyModel::new(2, p_r)
            .unwrap()
            .solve()
            .unwrap()
            .efficiency;
        // Same ordering and the same large k=1→2 gain.
        assert!(
            mc2 > mc1,
            "simulation must also gain from k=2: {mc1} vs {mc2}"
        );
        // The model is an upper bound (per the paper's iteration-order
        // argument) and should be within a moderate gap of the simulation.
        assert!(m1 >= mc1 - 0.05, "model {m1} vs sim {mc1}");
        assert!(m2 >= mc2 - 0.05, "model {m2} vs sim {mc2}");
        assert!((m1 - mc1).abs() < 0.25, "model {m1} vs sim {mc1}");
        assert!((m2 - mc2).abs() < 0.25, "model {m2} vs sim {mc2}");
    }

    #[test]
    fn monte_carlo_deterministic_for_seed() {
        let run = |seed| monte_carlo_efficiency(2, 0.8, 50, 50, &mut StdRng::seed_from_u64(seed));
        assert_eq!(run(3), run(3));
        assert!(run(3) > 0.0);
    }
}
