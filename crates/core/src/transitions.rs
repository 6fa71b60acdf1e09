//! The transition kernel `f · g · h` of the download-evolution chain
//! (Eq. 2–3 of the paper).
//!
//! One chain step is one piece-exchange round. The three factors update the
//! state components in the paper's prescribed order — pieces `b` first, then
//! potential set `i`, then connections `n` (which depends on the *new* `i′`):
//!
//! * `f(b′ | n, b)` — deterministic: the first piece arrives via seeds or
//!   optimistic unchoking (`b = 0 → b′ = 1`); afterwards each active
//!   connection delivers one piece (`b′ = min(b + n, B)`).
//! * `g(i′ | n, b, i)` — the potential set refreshes from the neighbor set:
//!   binomial `Bin(s, p_init)` on entry, binomial `Bin(s, p₍b+n₎)` while
//!   trading, and the waiting probabilities `α` (bootstrap) / `γ` (last
//!   download) when the potential set is empty.
//! * `h(n′ | n, b, i′)` — connections: `Y₁ ~ Bin(n, p_r)` survivors plus
//!   `Y₂ ~ Bin(max(min(i′, k) − n, 0), p_n)` new ones.
//!
//! Reaching `b′ = B` absorbs the process in `(0, B, 0)`.
//!
//! The paper's §3.2 prose describes the last download phase as a direct
//! `(0, b, 0) → (0, b+1, 0)` transition with probability `γ`; the kernel
//! here keeps the factored form (the piece arrives via `γ` admitting a
//! potential peer, `p_n` connecting, and `f` delivering), which reduces to
//! the prose description when `p_n = 1`.

use bt_markov::{Binomial, Matrix, TransitionMatrix};

use crate::params::ModelParams;
use crate::state::{DownloadState, StateSpace};
use crate::trading::trading_power_curve;
use crate::Result;
use bt_markov::float::exactly_zero;

/// A probability-weighted successor entry.
pub type Successor = (DownloadState, f64);

/// The transition kernel for a fixed set of [`ModelParams`], with the
/// Eq. 1 trading-power curve precomputed.
///
/// # Example
///
/// ```
/// use bt_model::transitions::TransitionKernel;
/// use bt_model::{DownloadState, ModelParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = ModelParams::builder().pieces(10).build()?;
/// let kernel = TransitionKernel::new(&params)?;
/// let succ = kernel.successors(DownloadState::INITIAL);
/// // On entry the peer always acquires its first piece.
/// assert!(succ.iter().all(|(s, _)| s.b == 1));
/// let total: f64 = succ.iter().map(|(_, p)| p).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransitionKernel {
    params: ModelParams,
    /// `p₍c₎` for `c = 0..=B` (0 at both ends).
    curve: Vec<f64>,
    /// `S ~ Bin(seed_connections, p_seed)`, the §7.2 free pieces.
    seed_pmf: Vec<f64>,
    /// `g` on entry: `Bin(s, p_init)`.
    entry: Vec<(u32, f64)>,
    /// `g` at `i = 0`: the α wait (stock 1), then the γ wait.
    waiting: [Vec<(u32, f64)>; 2],
    /// `g` while trading: `Bin(s, p₍c₎)` at `c = min(stock, B − 1)`, for
    /// `c < B` (row 0 is unused, stock 0 being entry).
    trading: Vec<Vec<(u32, f64)>>,
    /// `h` at `n · (k + 1) + min(i′, k)`, for a state that is not entry.
    connections: Vec<Vec<(u32, f64)>>,
}

impl TransitionKernel {
    /// Builds the kernel, precomputing the trading-power curve and the
    /// `g` and `h` factor tables [`TransitionKernel::successors`] reads:
    /// O(B·s + k²) entries, so a step evaluates no binomial pmf.
    ///
    /// # Errors
    ///
    /// Propagates Eq. 1 evaluation errors (invalid `φ`).
    pub fn new(params: &ModelParams) -> Result<Self> {
        let curve = trading_power_curve(params.pieces(), params.phi())?;
        let s = params.neighbor_set_size();
        let k = params.max_connections();
        let trading = (0..params.pieces())
            .map(|c| binomial_support(s, curve[c as usize]))
            .collect();
        let connections = (0..=k)
            .flat_map(|n| (0..=k).map(move |cap| (n, cap.saturating_sub(n))))
            .map(|(n, fresh)| convolve_connections(n, fresh, params.p_r(), params.p_n()))
            .collect();
        Ok(TransitionKernel {
            seed_pmf: Binomial::new(u64::from(params.seed_connections()), params.p_seed())
                .expect("p_seed validated")
                .pmf_vec(),
            entry: binomial_support(s, params.p_init()),
            waiting: [
                waiting_support(params.alpha()),
                waiting_support(params.gamma()),
            ],
            trading,
            connections,
            params: params.clone(),
            curve,
        })
    }

    /// The parameters this kernel was built from.
    #[must_use]
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The precomputed trading-power curve (indexed by `c = b + n`).
    #[must_use]
    pub fn trading_curve(&self) -> &[f64] {
        &self.curve
    }

    /// `f(b′ | n, b)` — the next piece count from tit-for-tat trading
    /// alone (deterministic, the paper's Eq. for `f`). Seed connections
    /// (§7.2) add on top of this; see [`TransitionKernel::pieces_dist`].
    #[must_use]
    pub fn next_pieces(&self, state: DownloadState) -> u32 {
        let pieces = self.params.pieces();
        if state.b == 0 {
            1
        } else {
            (state.b + state.n).min(pieces)
        }
    }

    /// Distribution of the next piece count including the §7.2 seeding
    /// extension: `b′ = min(f(b, n) + S, B)` with
    /// `S ~ Bin(seed_connections, p_seed)` free pieces from seeds.
    ///
    /// With `seed_connections = 0` (the paper's setting) this is the
    /// deterministic point mass at [`TransitionKernel::next_pieces`].
    #[must_use]
    pub fn pieces_dist(&self, state: DownloadState) -> Vec<(u32, f64)> {
        let mut out = Vec::with_capacity(self.seed_pmf.len());
        self.for_each_piece_count(state, |b_new, p| out.push((b_new, p)));
        out
    }

    /// Calls `visit(b′, probability)` for [`TransitionKernel::pieces_dist`]'s
    /// entries, in its order, without allocating. Only piece counts capped
    /// at `B` can coincide; their masses are summed in draw order and
    /// visited last, as the merge in `pieces_dist` left them.
    fn for_each_piece_count(&self, state: DownloadState, mut visit: impl FnMut(u32, f64)) {
        let pieces = self.params.pieces();
        let base = self.next_pieces(state);
        if self.params.seed_connections() == 0 {
            visit(base, 1.0);
            return;
        }
        let mut capped: Option<f64> = None;
        for (extra, &p) in self.seed_pmf.iter().enumerate() {
            if exactly_zero(p) {
                continue;
            }
            let b_new = base + extra as u32;
            if b_new < pieces {
                visit(b_new, p);
            } else {
                *capped.get_or_insert(0.0) += p;
            }
        }
        if let Some(p) = capped {
            visit(pieces, p);
        }
    }

    /// `g(i′ | n, b, i)` — distribution of the next potential-set size,
    /// as `(i′, probability)` pairs with positive probability.
    ///
    /// Callers must not invoke this for states that absorb this step
    /// (`next_pieces == B`); [`TransitionKernel::successors`] handles that
    /// case directly.
    #[must_use]
    pub fn potential_set_dist(&self, state: DownloadState) -> &[(u32, f64)] {
        let stock = state.stock();
        if stock == 0 {
            // Entry: attempt a connection to each of the s neighbors.
            &self.entry
        } else if state.i == 0 {
            // Waiting for tradable peers to flow in: α in bootstrap
            // (stock == 1), γ afterwards.
            &self.waiting[usize::from(stock > 1)]
        } else {
            // Trading: refresh against the neighbor set with success p₍stock₎.
            &self.trading[stock.min(self.params.pieces() - 1) as usize]
        }
    }

    /// `h(n′ | n, b, i′)` — distribution of the next connection count given
    /// the *new* potential-set size `i′`, as `(n′, probability)` pairs.
    ///
    /// `Y₁ ~ Bin(n, p_r)` survivors convolved with
    /// `Y₂ ~ Bin(max(min(i′, k) − n, 0), p_n)` new connections.
    ///
    /// # Panics
    ///
    /// Panics if `state.n > k` (outside the model's state space).
    #[must_use]
    pub fn connections_dist(&self, state: DownloadState, i_new: u32) -> &[(u32, f64)] {
        if state.stock() == 0 {
            return &[(0, 1.0)];
        }
        let k = self.params.max_connections();
        &self.connections[(state.n * (k + 1) + i_new.min(k)) as usize]
    }

    /// The full successor distribution of `state` under one chain step,
    /// sorted by state (which is [`StateSpace`] index order), each state
    /// once.
    ///
    /// The absorbing state `(0, B, 0)` maps to itself; any state reaching
    /// `b′ = B` maps to the absorbing state with probability 1.
    ///
    /// # Panics
    ///
    /// Panics if `state` lies outside the parameter-implied state space.
    #[must_use]
    pub fn successors(&self, state: DownloadState) -> Vec<Successor> {
        let mut out = Vec::new();
        self.for_each_successor(state, |succ, p| out.push((succ, p)));
        merge_duplicates(&mut out);
        out
    }

    /// Calls `visit(successor, probability)` for every entry of
    /// [`TransitionKernel::successors`] without allocating: in the order
    /// the factors produce them (`b′`, then `i′`, then `n′`) rather than
    /// sorted, zero products skipped. The factors never produce a state
    /// twice, so the entries are exactly those `successors` returns.
    ///
    /// # Panics
    ///
    /// Panics if `state` lies outside the parameter-implied state space.
    pub fn for_each_successor(
        &self,
        state: DownloadState,
        mut visit: impl FnMut(DownloadState, f64),
    ) {
        let params = &self.params;
        assert!(
            state.n <= params.max_connections()
                && state.b <= params.pieces()
                && state.i <= params.neighbor_set_size(),
            "state {state} outside the model's state space"
        );
        let pieces = params.pieces();
        if state.is_absorbed(pieces) {
            visit(DownloadState::absorbed(pieces), 1.0);
            return;
        }
        self.for_each_piece_count(state, |b_new, p_b| {
            if b_new == pieces {
                visit(DownloadState::absorbed(pieces), p_b);
                return;
            }
            for &(i_new, p_i) in self.potential_set_dist(state) {
                for &(n_new, p_n) in self.connections_dist(state, i_new) {
                    let p = p_b * p_i * p_n;
                    if exactly_zero(p) {
                        continue;
                    }
                    visit(DownloadState::new(n_new, b_new, i_new), p);
                }
            }
        });
    }

    /// Builds the explicit transition matrix over the full state space.
    ///
    /// The matrix is dense, `((k+1)(B+1)(s+1))²` entries, so it suits
    /// small configurations only: 54 GB at the paper's `B = 200, k = 7,
    /// s = 50`. The exact analyses never build it (see [`crate::exact`]);
    /// it serves callers that want the whole matrix, and the tests'
    /// absorbing-chain oracle.
    ///
    /// # Errors
    ///
    /// Propagates matrix-validation errors (numerically impossible for a
    /// well-formed kernel, kept for robustness).
    pub fn build_matrix(&self) -> Result<(StateSpace, TransitionMatrix)> {
        let space = StateSpace::new(&self.params);
        let n = space.len();
        let mut matrix = Matrix::zeros(n, n);
        let table = SuccessorTable::new(self, &space);
        for idx in 0..n {
            let successors = table.row(idx);
            // Normalize away accumulated floating-point drift.
            let sum: f64 = successors.iter().map(|&(_, p)| p).sum();
            debug_assert!((sum - 1.0).abs() < 1e-6, "row {idx} sums to {sum}");
            for &(j, p) in successors {
                matrix[(idx, j)] = p / sum;
            }
        }
        bt_markov::chain::debug_assert_row_stochastic(
            "TransitionKernel::build_matrix",
            (0..n).map(|r| matrix.row(r)),
        );
        let matrix = TransitionMatrix::from_matrix(matrix)?;
        Ok((space, matrix))
    }

    /// Expected number of steps from `(0, 0, 0)` to absorption, computed
    /// exactly by one forward pass over the piece levels (see
    /// [`crate::exact`]); its cost is the chain's non-zeros, so the
    /// paper's `B = 200, k = 7, s = 50` is in reach.
    ///
    /// # Errors
    ///
    /// [`bt_markov::Error::Singular`] (wrapped) if some state cannot reach
    /// absorption — this happens when `α = 0` or `γ = 0` makes waiting
    /// states inescapable.
    pub fn expected_download_time(&self) -> Result<f64> {
        Ok(crate::exact::phase_sojourns(self)?.iter().sum())
    }
}

/// The successors of every state of a [`StateSpace`], as `(index,
/// probability)` pairs in one flat table: states in index order, each
/// one's entries sorted by index and merged as
/// [`TransitionKernel::successors`] gives them (not normalized).
pub(crate) struct SuccessorTable {
    /// `entries[offsets[idx]..offsets[idx + 1]]` is state `idx`'s row.
    offsets: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl SuccessorTable {
    /// Visits every state's successors once, reusing one scratch row.
    pub(crate) fn new(kernel: &TransitionKernel, space: &StateSpace) -> Self {
        let mut offsets = Vec::with_capacity(space.len() + 1);
        offsets.push(0);
        let mut entries = Vec::new();
        let mut row = Vec::new();
        for state in space.iter() {
            row.clear();
            kernel.for_each_successor(state, |succ, p| row.push((succ, p)));
            merge_duplicates(&mut row);
            entries.extend(row.iter().map(|&(succ, p)| (space.index(succ), p)));
            offsets.push(entries.len());
        }
        SuccessorTable { offsets, entries }
    }

    /// State `idx`'s successors.
    pub(crate) fn row(&self, idx: usize) -> &[(usize, f64)] {
        &self.entries[self.offsets[idx]..self.offsets[idx + 1]]
    }
}

/// Expands `Bin(n, p)` into `(value, probability)` pairs with positive mass.
fn binomial_support(n: u32, p: f64) -> Vec<(u32, f64)> {
    Binomial::new(u64::from(n), p)
        .expect("probability validated upstream")
        .pmf_vec()
        .into_iter()
        .enumerate()
        .filter(|&(_, q)| q > 0.0)
        .map(|(m, q)| (m as u32, q))
        .collect()
}

/// The `g` support while the potential set is empty: it stays empty
/// w.p. `1 − p_in` and gains one peer w.p. `p_in`.
fn waiting_support(p_in: f64) -> Vec<(u32, f64)> {
    let mut out = Vec::with_capacity(2);
    if 1.0 - p_in > 0.0 {
        out.push((0, 1.0 - p_in));
    }
    if p_in > 0.0 {
        out.push((1, p_in));
    }
    out
}

/// `Y₁ ~ Bin(n, p_r)` survivors convolved with `Y₂ ~ Bin(fresh, p_n)` new
/// connections, as `(n′, probability)` pairs with positive mass.
fn convolve_connections(n: u32, fresh: u32, p_r: f64, p_n: f64) -> Vec<(u32, f64)> {
    let survivors = Binomial::new(u64::from(n), p_r)
        .expect("p_r validated")
        .pmf_vec();
    let fresh = Binomial::new(u64::from(fresh), p_n)
        .expect("p_n validated")
        .pmf_vec();
    let mut dist = vec![0.0; survivors.len() + fresh.len() - 1];
    for (y1, &p1) in survivors.iter().enumerate() {
        if exactly_zero(p1) {
            continue;
        }
        for (y2, &p2) in fresh.iter().enumerate() {
            dist[y1 + y2] += p1 * p2;
        }
    }
    dist.into_iter()
        .enumerate()
        .filter(|&(_, p)| p > 0.0)
        .map(|(m, p)| (m as u32, p))
        .collect()
}

/// Sorts successor entries by state and merges duplicates in place,
/// summing their probabilities in entry order.
fn merge_duplicates(entries: &mut Vec<Successor>) {
    entries.sort_by_key(|(s, _)| *s);
    entries.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> ModelParams {
        ModelParams::builder()
            .pieces(6)
            .max_connections(2)
            .neighbor_set_size(3)
            .alpha(0.3)
            .gamma(0.2)
            .p_init(0.8)
            .p_r(0.9)
            .p_n(0.7)
            .build()
            .unwrap()
    }

    #[test]
    fn successor_probabilities_sum_to_one() {
        let kernel = TransitionKernel::new(&small_params()).unwrap();
        let space = StateSpace::new(kernel.params());
        for state in space.iter() {
            let total: f64 = kernel.successors(state).iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "state {state}: total {total}");
        }
    }

    #[test]
    fn entry_always_gains_first_piece_with_no_connections() {
        let kernel = TransitionKernel::new(&small_params()).unwrap();
        for (succ, _) in kernel.successors(DownloadState::INITIAL) {
            assert_eq!(succ.b, 1, "first transition must set b = 1");
            assert_eq!(succ.n, 0, "no connections can exist on entry");
        }
    }

    #[test]
    fn entry_potential_set_is_binomial_p_init() {
        let kernel = TransitionKernel::new(&small_params()).unwrap();
        let succ = kernel.successors(DownloadState::INITIAL);
        let expect = Binomial::new(3, 0.8).unwrap();
        for (s, p) in succ {
            assert!((p - expect.pmf(u64::from(s.i))).abs() < 1e-12);
        }
    }

    #[test]
    fn bootstrap_wait_uses_alpha() {
        // (0, 1, 0): stock 1, empty potential set.
        let kernel = TransitionKernel::new(&small_params()).unwrap();
        let succ = kernel.successors(DownloadState::new(0, 1, 0));
        let stay: f64 = succ.iter().filter(|(s, _)| s.i == 0).map(|(_, p)| p).sum();
        assert!((stay - 0.7).abs() < 1e-12, "1 - alpha, got {stay}");
        // When the potential peer arrives, the new connection forms w.p. p_n.
        let connected: f64 = succ
            .iter()
            .filter(|(s, _)| s.i == 1 && s.n == 1)
            .map(|(_, p)| p)
            .sum();
        assert!((connected - 0.3 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn last_phase_wait_uses_gamma() {
        // (0, 4, 0): stock 4 > 1, empty potential set.
        let kernel = TransitionKernel::new(&small_params()).unwrap();
        let succ = kernel.successors(DownloadState::new(0, 4, 0));
        let stay: f64 = succ.iter().filter(|(s, _)| s.i == 0).map(|(_, p)| p).sum();
        assert!((stay - 0.8).abs() < 1e-12, "1 - gamma, got {stay}");
        for (s, _) in &succ {
            assert_eq!(s.b, 4, "no progress while waiting without connections");
        }
    }

    #[test]
    fn pieces_increase_by_connections() {
        let kernel = TransitionKernel::new(&small_params()).unwrap();
        let succ = kernel.successors(DownloadState::new(2, 2, 3));
        for (s, _) in succ {
            assert_eq!(s.b, 4, "b' = b + n");
        }
    }

    #[test]
    fn reaching_full_absorbs() {
        let kernel = TransitionKernel::new(&small_params()).unwrap();
        // b + n = 5 + 2 > 6 caps at B and absorbs.
        let succ = kernel.successors(DownloadState::new(2, 5, 3));
        assert_eq!(succ, vec![(DownloadState::absorbed(6), 1.0)]);
        // The absorbing state self-loops.
        let stay = kernel.successors(DownloadState::absorbed(6));
        assert_eq!(stay, vec![(DownloadState::absorbed(6), 1.0)]);
    }

    #[test]
    fn connection_count_never_exceeds_k_or_potential_cap() {
        let kernel = TransitionKernel::new(&small_params()).unwrap();
        let space = StateSpace::new(kernel.params());
        for state in space.iter() {
            for (succ, _) in kernel.successors(state) {
                assert!(succ.n <= 2, "n' = {} > k at {state}", succ.n);
                // n' ≤ max(n, min(i', k)) — fresh connections only fill up
                // to the potential cap.
                assert!(
                    succ.n <= state.n.max(succ.i.min(2)),
                    "n' = {} exceeds cap at {state} -> {succ}",
                    succ.n
                );
            }
        }
    }

    #[test]
    fn connections_dist_is_convolution() {
        let kernel = TransitionKernel::new(&small_params()).unwrap();
        // n = 1 survivor stream (p_r = .9) + 1 fresh slot (p_n = .7).
        let dist = kernel.connections_dist(DownloadState::new(1, 2, 1), 2);
        let lookup = |m: u32| dist.iter().find(|&&(v, _)| v == m).map_or(0.0, |&(_, p)| p);
        assert!((lookup(0) - 0.1 * 0.3).abs() < 1e-12);
        assert!((lookup(1) - (0.9 * 0.3 + 0.1 * 0.7)).abs() < 1e-12);
        assert!((lookup(2) - 0.9 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn matrix_is_stochastic_and_absorbing_analysis_runs() {
        let kernel = TransitionKernel::new(&small_params()).unwrap();
        let expected = kernel.expected_download_time().unwrap();
        // Minimum possible: 1 bootstrap step + ceil((B-1)/k) trading steps.
        assert!(expected >= 1.0 + (6.0 - 1.0) / 2.0, "expected {expected}");
        assert!(expected.is_finite());
    }

    #[test]
    fn zero_gamma_makes_absorption_unreachable() {
        let params = ModelParams::builder()
            .pieces(6)
            .max_connections(2)
            .neighbor_set_size(3)
            .gamma(0.0)
            .build()
            .unwrap();
        let kernel = TransitionKernel::new(&params).unwrap();
        // (0, b>1, 0) now self-loops forever; expected time is infinite,
        // surfaced as a singular fundamental matrix.
        assert!(kernel.expected_download_time().is_err());
    }

    #[test]
    fn higher_k_downloads_faster() {
        let time_k = |k: u32| {
            let params = ModelParams::builder()
                .pieces(8)
                .max_connections(k)
                .neighbor_set_size(4)
                .build()
                .unwrap();
            TransitionKernel::new(&params)
                .unwrap()
                .expected_download_time()
                .unwrap()
        };
        assert!(time_k(2) < time_k(1), "k=2 must beat k=1");
    }

    /// The per-call formula `successors` evaluated before the factor
    /// tables: `g` and `h` rebuilt from binomial pmfs at every state.
    fn successors_oracle(kernel: &TransitionKernel, state: DownloadState) -> Vec<Successor> {
        let params = kernel.params();
        let pieces = params.pieces();
        if state.is_absorbed(pieces) {
            return vec![(DownloadState::absorbed(pieces), 1.0)];
        }
        let potential = || {
            let s = params.neighbor_set_size();
            let stock = state.stock();
            if stock == 0 {
                return binomial_support(s, params.p_init());
            }
            if state.i == 0 {
                let p_in = if stock == 1 {
                    params.alpha()
                } else {
                    params.gamma()
                };
                let mut out = Vec::with_capacity(2);
                if 1.0 - p_in > 0.0 {
                    out.push((0, 1.0 - p_in));
                }
                if p_in > 0.0 {
                    out.push((1, p_in));
                }
                return out;
            }
            let c = stock.min(pieces - 1);
            binomial_support(s, kernel.trading_curve()[c as usize])
        };
        let connections = |i_new: u32| {
            if state.stock() == 0 {
                return vec![(0, 1.0)];
            }
            let k = params.max_connections();
            let n = state.n;
            let survivors = Binomial::new(u64::from(n), params.p_r()).unwrap().pmf_vec();
            let fresh_slots = i_new.min(k).saturating_sub(n);
            let fresh = Binomial::new(u64::from(fresh_slots), params.p_n())
                .unwrap()
                .pmf_vec();
            let mut dist = vec![0.0; survivors.len() + fresh.len() - 1];
            for (y1, &p1) in survivors.iter().enumerate() {
                if exactly_zero(p1) {
                    continue;
                }
                for (y2, &p2) in fresh.iter().enumerate() {
                    dist[y1 + y2] += p1 * p2;
                }
            }
            dist.into_iter()
                .enumerate()
                .filter(|&(_, p)| p > 0.0)
                .map(|(m, p)| (m as u32, p))
                .collect::<Vec<_>>()
        };
        let pieces_dist = || {
            let base = kernel.next_pieces(state);
            let seeds = params.seed_connections();
            if seeds == 0 {
                return vec![(base, 1.0)];
            }
            let free = Binomial::new(u64::from(seeds), params.p_seed()).unwrap();
            let mut out: Vec<(u32, f64)> = Vec::new();
            for (extra, p) in free.pmf_vec().into_iter().enumerate() {
                if exactly_zero(p) {
                    continue;
                }
                let b_new = (base + extra as u32).min(pieces);
                match out.last_mut() {
                    Some((last, mass)) if *last == b_new => *mass += p,
                    _ => out.push((b_new, p)),
                }
            }
            out
        };
        let mut out = Vec::new();
        for (b_new, p_b) in pieces_dist() {
            if b_new == pieces {
                out.push((DownloadState::absorbed(pieces), p_b));
                continue;
            }
            for (i_new, p_i) in potential() {
                for (n_new, p_n) in connections(i_new) {
                    let p = p_b * p_i * p_n;
                    if exactly_zero(p) {
                        continue;
                    }
                    out.push((DownloadState::new(n_new, b_new, i_new), p));
                }
            }
        }
        merge_duplicates(&mut out);
        out
    }

    #[test]
    fn successors_match_the_formula_oracle() {
        for pieces in [1, 3, 10, 200] {
            for k in [1, 3, 7] {
                for s in [1, 5, 50] {
                    for seeds in [0, 2] {
                        let params = ModelParams::builder()
                            .pieces(pieces)
                            .max_connections(k)
                            .neighbor_set_size(s)
                            .alpha(0.3)
                            .gamma(0.2)
                            .seed_connections(seeds)
                            .p_seed(0.4)
                            .build()
                            .unwrap();
                        let kernel = TransitionKernel::new(&params).unwrap();
                        // Entry (stock 0), waiting, trading up to the
                        // c = B − 1 clamp, and absorbed, at every n. A
                        // state's successors depend on its i only through
                        // i = 0, and every i′ (past the cap k too) is among
                        // them. B = 200 takes every tenth piece count and
                        // both ends, which keeps the debug build quick.
                        let piece_counts = (0..=pieces).filter(|&b| {
                            pieces <= 10 || b % 10 == 0 || b < 3 || b + k + 2 >= pieces
                        });
                        for b in piece_counts {
                            for n in 0..=k {
                                for i in [0, s] {
                                    let state = DownloadState::new(n, b, i);
                                    assert_eq!(
                                        kernel.successors(state),
                                        successors_oracle(&kernel, state),
                                        "B={pieces} k={k} s={s} seeds={seeds} at {state}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn visitor_yields_exactly_the_successor_entries() {
        for seeds in [0, 2] {
            let params = ModelParams::builder()
                .pieces(9)
                .max_connections(3)
                .neighbor_set_size(4)
                .seed_connections(seeds)
                .p_seed(0.4)
                .build()
                .unwrap();
            let kernel = TransitionKernel::new(&params).unwrap();
            for state in StateSpace::new(&params).iter() {
                let mut visited = Vec::new();
                kernel.for_each_successor(state, |succ, p| visited.push((succ, p)));
                // Sorted but not merged: no state is visited twice.
                visited.sort_by_key(|&(succ, _)| succ);
                assert_eq!(
                    visited,
                    kernel.successors(state),
                    "seeds={seeds} at {state}"
                );
            }
        }
    }

    #[test]
    fn merge_duplicates_sums() {
        let mut v = vec![
            (DownloadState::new(0, 1, 0), 0.25),
            (DownloadState::new(0, 1, 0), 0.25),
            (DownloadState::new(0, 1, 1), 0.5),
        ];
        merge_duplicates(&mut v);
        assert_eq!(v.len(), 2);
        assert!((v[0].1 - 0.5).abs() < 1e-12);
    }
}

#[cfg(test)]
mod seeding_tests {
    use super::*;
    use crate::ModelParams;

    fn seeded_params(seeds: u32, p_seed: f64) -> ModelParams {
        ModelParams::builder()
            .pieces(8)
            .max_connections(2)
            .neighbor_set_size(3)
            .seed_connections(seeds)
            .p_seed(p_seed)
            .build()
            .unwrap()
    }

    #[test]
    fn zero_seeds_is_deterministic_f() {
        let kernel = TransitionKernel::new(&seeded_params(0, 0.5)).unwrap();
        let dist = kernel.pieces_dist(DownloadState::new(1, 3, 2));
        assert_eq!(dist, vec![(4, 1.0)]);
    }

    #[test]
    fn seeds_spread_piece_distribution() {
        let kernel = TransitionKernel::new(&seeded_params(2, 0.5)).unwrap();
        let dist = kernel.pieces_dist(DownloadState::new(1, 3, 2));
        // b' in {4, 5, 6} with Bin(2, 0.5) masses.
        assert_eq!(dist.len(), 3);
        assert_eq!(dist[0].0, 4);
        assert!((dist[0].1 - 0.25).abs() < 1e-12);
        assert!((dist[1].1 - 0.5).abs() < 1e-12);
        let total: f64 = dist.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn seed_rows_remain_stochastic() {
        let kernel = TransitionKernel::new(&seeded_params(3, 0.3)).unwrap();
        let space = crate::state::StateSpace::new(kernel.params());
        for state in space.iter() {
            let total: f64 = kernel.successors(state).iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "state {state}: {total}");
        }
    }

    #[test]
    fn seeds_cap_at_full_file() {
        let kernel = TransitionKernel::new(&seeded_params(4, 1.0)).unwrap();
        // b + n + seeds overshoots B = 8: all mass absorbs.
        let succ = kernel.successors(DownloadState::new(2, 5, 2));
        assert_eq!(succ, vec![(DownloadState::absorbed(8), 1.0)]);
    }

    #[test]
    fn seeds_shorten_downloads() {
        let time = |seeds| {
            let params = ModelParams::builder()
                .pieces(8)
                .max_connections(2)
                .neighbor_set_size(3)
                .gamma(0.05) // painful last phase without seeds
                .seed_connections(seeds)
                .p_seed(0.5)
                .build()
                .unwrap();
            TransitionKernel::new(&params)
                .unwrap()
                .expected_download_time()
                .unwrap()
        };
        let without = time(0);
        let with = time(2);
        assert!(
            with < without,
            "seeds should shorten the download: {with:.1} vs {without:.1}"
        );
    }
}
