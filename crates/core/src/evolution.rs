//! Monte-Carlo evolution of the download chain and expected timelines.
//!
//! The exact analyses in [`crate::exact`] give expectations (download
//! time, phase sojourns, the last-phase probability) at any size up to the
//! paper's; the walker samples whole trajectories, for the statistics they
//! do not give. This is the machinery behind the paper's Fig. 1(b): the
//! expected time at which a peer holds `b` pieces, compared against the
//! swarm simulator.

use rand::Rng;

use crate::params::ModelParams;
use crate::phase::{Phase, PhaseSojourns};
use crate::state::DownloadState;
use crate::transitions::TransitionKernel;
use crate::Result;

/// A sampled trajectory of the download chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    states: Vec<DownloadState>,
    pieces: u32,
}

impl Trajectory {
    /// The visited states, starting at `(0, 0, 0)`, ending at absorption
    /// (or at the step cap).
    #[must_use]
    pub fn states(&self) -> &[DownloadState] {
        &self.states
    }

    /// Number of steps taken (states visited minus one).
    #[must_use]
    pub fn steps(&self) -> usize {
        self.states.len() - 1
    }

    /// The final state.
    ///
    /// # Panics
    ///
    /// Never panics: a trajectory always contains the initial state.
    #[must_use]
    pub fn final_state(&self) -> DownloadState {
        *self.states.last().expect("trajectory is never empty")
    }

    /// Whether the trajectory reached absorption.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.final_state().is_absorbed(self.pieces)
    }

    /// The first step index at which the peer held at least `b` pieces,
    /// or `None` if it never did.
    #[must_use]
    pub fn first_step_with_pieces(&self, b: u32) -> Option<usize> {
        self.states.iter().position(|s| s.b >= b)
    }

    /// Per-phase step counts along the trajectory.
    #[must_use]
    pub fn sojourns(&self) -> PhaseSojourns {
        let mut sojourns = PhaseSojourns::default();
        // The state *before* each step determines the phase the step was
        // spent in.
        for &state in &self.states[..self.states.len() - 1] {
            sojourns.record(Phase::classify(state, self.pieces));
        }
        sojourns
    }

    /// Mean potential-set size at each piece count `0..=B` (NaN where a
    /// piece count was never observed).
    #[must_use]
    pub fn potential_by_pieces(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.pieces as usize + 1];
        let mut counts = vec![0u32; self.pieces as usize + 1];
        for s in &self.states {
            sums[s.b as usize] += f64::from(s.i);
            counts[s.b as usize] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(&sum, &c)| if c == 0 { f64::NAN } else { sum / f64::from(c) })
            .collect()
    }
}

/// A Monte-Carlo walker over the download chain.
///
/// # Example
///
/// ```
/// use bt_model::evolution::Walker;
/// use bt_model::ModelParams;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = ModelParams::builder().pieces(30).build()?;
/// let mut walker = Walker::new(&params, StdRng::seed_from_u64(1));
/// let t = walker.run();
/// assert!(t.completed());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Walker<R> {
    kernel: TransitionKernel,
    rng: R,
    max_steps: usize,
}

/// Default step cap for a single trajectory; generous relative to any
/// realistic download length, it only guards against `α = 0` / `γ = 0`
/// configurations whose chains never absorb.
pub const DEFAULT_MAX_STEPS: usize = 1_000_000;

impl<R: Rng> Walker<R> {
    /// Creates a walker.
    ///
    /// # Panics
    ///
    /// Panics if the trading-power curve cannot be computed — impossible
    /// for parameters built via [`ModelParams::builder`], which validates
    /// `φ`. Use [`Walker::try_new`] to handle the error.
    #[must_use]
    pub fn new(params: &ModelParams, rng: R) -> Self {
        Self::try_new(params, rng).expect("validated params always yield a kernel")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Propagates Eq. 1 curve construction errors.
    pub fn try_new(params: &ModelParams, rng: R) -> Result<Self> {
        Ok(Walker {
            kernel: TransitionKernel::new(params)?,
            rng,
            max_steps: DEFAULT_MAX_STEPS,
        })
    }

    /// Overrides the per-trajectory step cap.
    pub fn set_max_steps(&mut self, max_steps: usize) {
        self.max_steps = max_steps;
    }

    /// Samples one step from `state`.
    pub fn step(&mut self, state: DownloadState) -> DownloadState {
        let successors = self.kernel.successors(state);
        let weights: Vec<f64> = successors.iter().map(|&(_, p)| p).collect();
        successors[bt_markov::chain::sample_index(&weights, &mut self.rng)].0
    }

    /// Samples a complete trajectory from `(0, 0, 0)` to absorption (or the
    /// step cap).
    pub fn run(&mut self) -> Trajectory {
        self.run_from(DownloadState::INITIAL)
    }

    /// Samples a trajectory starting from an arbitrary state.
    pub fn run_from(&mut self, start: DownloadState) -> Trajectory {
        let pieces = self.kernel.params().pieces();
        let mut states = vec![start];
        let mut current = start;
        for _ in 0..self.max_steps {
            if current.is_absorbed(pieces) {
                break;
            }
            current = self.step(current);
            states.push(current);
        }
        Trajectory { states, pieces }
    }
}

/// Aggregated expected-timeline statistics over many trajectories — the
/// model-side series of the paper's Fig. 1(b) (time vs pieces) and Fig. 1(a)
/// (potential-set ratio vs pieces).
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// `mean_step[b]` — average step at which the peer first held `b`
    /// pieces (NaN if unreached in every replication).
    pub mean_step: Vec<f64>,
    /// `mean_potential[b]` — average potential-set size while holding `b`
    /// pieces (NaN if unobserved).
    pub mean_potential: Vec<f64>,
    /// Average per-phase sojourns.
    pub mean_sojourns: [f64; 3],
    /// Replications that reached absorption.
    pub completed: usize,
    /// Total replications.
    pub replications: usize,
}

impl Timeline {
    /// Potential-set size divided by the neighbor-set size `s` — the y-axis
    /// of Fig. 1(a).
    #[must_use]
    pub fn potential_ratio(&self, s: u32) -> Vec<f64> {
        self.mean_potential
            .iter()
            .map(|&v| v / f64::from(s))
            .collect()
    }
}

/// Runs `replications` trajectories and aggregates the timeline.
///
/// # Errors
///
/// Propagates kernel-construction errors.
///
/// # Panics
///
/// Panics if `replications == 0`.
pub fn expected_timeline<R: Rng>(
    params: &ModelParams,
    replications: usize,
    rng: R,
) -> Result<Timeline> {
    assert!(replications > 0, "need at least one replication");
    let mut walker = Walker::try_new(params, rng)?;
    let b_max = params.pieces() as usize;
    let mut step_sum = vec![0.0; b_max + 1];
    let mut step_count = vec![0u32; b_max + 1];
    let mut pot_sum = vec![0.0; b_max + 1];
    let mut pot_count = vec![0u32; b_max + 1];
    let mut sojourn_sum = [0.0; 3];
    let mut completed = 0;
    for _ in 0..replications {
        let t = walker.run();
        if t.completed() {
            completed += 1;
        }
        // One sweep: the first state holding at least `b` pieces is the
        // first one past every smaller count still unreached.
        let mut unreached = 0;
        for (step, s) in t.states().iter().enumerate() {
            while unreached <= s.b as usize {
                step_sum[unreached] += step as f64;
                step_count[unreached] += 1;
                unreached += 1;
            }
        }
        for s in t.states() {
            pot_sum[s.b as usize] += f64::from(s.i);
            pot_count[s.b as usize] += 1;
        }
        let sj = t.sojourns();
        sojourn_sum[0] += sj.bootstrap as f64;
        sojourn_sum[1] += sj.efficient as f64;
        sojourn_sum[2] += sj.last_download as f64;
    }
    let reps = replications as f64;
    Ok(Timeline {
        mean_step: step_sum
            .iter()
            .zip(&step_count)
            .map(|(&s, &c)| if c == 0 { f64::NAN } else { s / f64::from(c) })
            .collect(),
        mean_potential: pot_sum
            .iter()
            .zip(&pot_count)
            .map(|(&s, &c)| if c == 0 { f64::NAN } else { s / f64::from(c) })
            .collect(),
        mean_sojourns: [
            sojourn_sum[0] / reps,
            sojourn_sum[1] / reps,
            sojourn_sum[2] / reps,
        ],
        completed,
        replications,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(pieces: u32, s: u32) -> ModelParams {
        ModelParams::builder()
            .pieces(pieces)
            .max_connections(3)
            .neighbor_set_size(s)
            .alpha(0.4)
            .gamma(0.3)
            .build()
            .unwrap()
    }

    #[test]
    fn walker_reaches_absorption() {
        let mut w = Walker::new(&params(20, 8), StdRng::seed_from_u64(3));
        let t = w.run();
        assert!(t.completed());
        assert_eq!(t.final_state(), DownloadState::absorbed(20));
        assert!(t.steps() >= 20 / 3);
    }

    #[test]
    fn trajectory_pieces_monotone() {
        let mut w = Walker::new(&params(25, 6), StdRng::seed_from_u64(9));
        let t = w.run();
        for pair in t.states().windows(2) {
            assert!(pair[1].b >= pair[0].b, "pieces can never be lost");
        }
    }

    #[test]
    fn first_piece_in_one_step() {
        let mut w = Walker::new(&params(10, 5), StdRng::seed_from_u64(5));
        let t = w.run();
        assert_eq!(t.first_step_with_pieces(0), Some(0));
        assert_eq!(t.first_step_with_pieces(1), Some(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            Walker::new(&params(15, 5), StdRng::seed_from_u64(seed))
                .run()
                .states()
                .to_vec()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn step_cap_stops_non_absorbing_chains() {
        let p = ModelParams::builder()
            .pieces(10)
            .max_connections(2)
            .neighbor_set_size(4)
            .p_init(0.0) // entry finds no potential peers...
            .alpha(0.0) // ...and bootstrap never escapes
            .build()
            .unwrap();
        let mut w = Walker::new(&p, StdRng::seed_from_u64(0));
        w.set_max_steps(200);
        let t = w.run();
        assert!(!t.completed());
        assert_eq!(t.steps(), 200);
        // All those steps were bootstrap.
        assert_eq!(t.sojourns().bootstrap, 200);
    }

    #[test]
    fn timeline_steps_monotone_in_pieces() {
        let tl = expected_timeline(&params(20, 8), 40, StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(tl.completed, 40);
        let steps: Vec<f64> = tl
            .mean_step
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        for w in steps.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "mean first-passage must be monotone");
        }
    }

    /// The per-piece-count first-passage sums as `expected_timeline` built
    /// them before its one-sweep fill: `B + 1` position scans per
    /// trajectory.
    fn mean_steps_by_scans<R: Rng>(params: &ModelParams, replications: usize, rng: R) -> Vec<f64> {
        let mut walker = Walker::new(params, rng);
        let b_max = params.pieces() as usize;
        let mut step_sum = vec![0.0; b_max + 1];
        let mut step_count = vec![0u32; b_max + 1];
        for _ in 0..replications {
            let t = walker.run();
            for b in 0..=b_max {
                if let Some(step) = t.first_step_with_pieces(b as u32) {
                    step_sum[b] += step as f64;
                    step_count[b] += 1;
                }
            }
        }
        step_sum
            .iter()
            .zip(&step_count)
            .map(|(&s, &c)| if c == 0 { f64::NAN } else { s / f64::from(c) })
            .collect()
    }

    #[test]
    fn timeline_steps_are_bit_identical_to_position_scans() {
        // Seed connections make `b` jump by several pieces in one step.
        let seeded = ModelParams::builder()
            .pieces(25)
            .max_connections(2)
            .neighbor_set_size(4)
            .seed_connections(3)
            .build()
            .unwrap();
        for p in [params(20, 8), params(40, 3), seeded] {
            let timeline = expected_timeline(&p, 50, StdRng::seed_from_u64(5)).unwrap();
            let scans = mean_steps_by_scans(&p, 50, StdRng::seed_from_u64(5));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&timeline.mean_step), bits(&scans));
        }
    }

    #[test]
    fn timeline_potential_ratio_bounded() {
        let p = params(20, 8);
        let tl = expected_timeline(&p, 30, StdRng::seed_from_u64(11)).unwrap();
        for &r in tl.potential_ratio(8).iter().filter(|v| !v.is_nan()) {
            assert!((0.0..=1.0 + 1e-9).contains(&r), "ratio {r}");
        }
    }

    #[test]
    fn larger_neighbor_set_downloads_no_slower() {
        // Fig. 1(b)'s headline: small peer-set size suffers.
        let small = expected_timeline(&params(30, 2), 60, StdRng::seed_from_u64(2)).unwrap();
        let large = expected_timeline(&params(30, 20), 60, StdRng::seed_from_u64(2)).unwrap();
        let total_small = small.mean_step[30];
        let total_large = large.mean_step[30];
        assert!(
            total_large <= total_small,
            "s=20 ({total_large}) must not be slower than s=2 ({total_small})"
        );
    }

    #[test]
    fn sojourns_sum_to_steps() {
        let mut w = Walker::new(&params(15, 6), StdRng::seed_from_u64(21));
        let t = w.run();
        assert_eq!(t.sojourns().total() as usize, t.steps());
    }

    #[test]
    fn potential_by_pieces_has_full_support_on_completion() {
        let mut w = Walker::new(&params(12, 6), StdRng::seed_from_u64(13));
        let t = w.run();
        let pot = t.potential_by_pieces();
        assert_eq!(pot.len(), 13);
        // Piece counts actually visited have finite means.
        for s in t.states() {
            assert!(!pot[s.b as usize].is_nan());
        }
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        let _ = expected_timeline(&params(10, 5), 0, StdRng::seed_from_u64(0));
    }
}
