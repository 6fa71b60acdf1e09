//! Absorbing-chain analysis by block substitution over the strongly
//! connected components of the transient block.
//!
//! For an absorbing chain with transient states `T` and absorbing states `A`,
//! write the transition matrix in canonical form with `Q` the transient→
//! transient block and `R` the transient→absorbing block. The fundamental
//! matrix `N = (I - Q)^{-1}` gives:
//!
//! * expected visits to each transient state (`N[i][j]`),
//! * expected steps to absorption (`t = N · 1`).
//!
//! No method forms `(I - Q)^{-1}` by eliminating the whole matrix. Ordering
//! the strongly connected components (SCCs) of `Q` topologically makes
//! `I - Q` block upper-triangular, so each analysis is a substitution over
//! the blocks: every block is one small dense solve, and the coupling
//! between blocks costs one multiply-add per non-zero of `Q`. A block whose
//! `I - Q` is singular — a closed class of transient states — makes every
//! method return [`Error::Singular`], whether or not the query reaches it.
//!
//! The download-evolution model of the paper is exactly such a chain — a peer
//! starts at `(0,0,0)` and is absorbed at `(0,B,0)` — so its expected
//! download timeline falls out of this module. Its pieces never decrease,
//! so its SCCs are at most the `s + 1` waiting states of one piece count.

use crate::chain::TransitionMatrix;
use crate::float::exactly_zero;
use crate::matrix::Matrix;
use crate::{Error, Result};

/// An absorbing Markov chain, partitioned into transient and absorbing
/// states.
///
/// # Example
///
/// A gambler with 1 unit who bets until reaching 0 or 2 (fair coin):
///
/// ```
/// use bt_markov::{AbsorbingChain, TransitionMatrix};
///
/// let p = TransitionMatrix::from_rows(vec![
///     vec![1.0, 0.0, 0.0], // state 0: broke (absorbing)
///     vec![0.5, 0.0, 0.5], // state 1: one unit
///     vec![0.0, 0.0, 1.0], // state 2: goal (absorbing)
/// ]).unwrap();
/// let chain = AbsorbingChain::new(&p, &[0, 2]).unwrap();
/// let steps = chain.expected_steps().unwrap();
/// assert!((steps[0] - 1.0).abs() < 1e-12); // one bet decides it
/// ```
#[derive(Debug, Clone)]
pub struct AbsorbingChain {
    /// Transient→transient non-zeros, by transient block index.
    q: SparseRows,
    /// Original indices of the transient states, in block order.
    transient: Vec<usize>,
    /// The SCCs of `Q` in topological order: every edge of `Q` leaving a
    /// block enters a later one.
    blocks: Vec<Block>,
    /// The position in `blocks` of each transient state's block.
    block_of: Vec<usize>,
}

/// Row-compressed non-zeros: row `i` is `entries[start[i]..start[i + 1]]`,
/// `(column, value)` pairs in column order.
#[derive(Debug, Clone)]
struct SparseRows {
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl SparseRows {
    fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.start[i]..self.start[i + 1]]
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }
}

/// One strongly connected component of `Q`: a diagonal block of the
/// block-triangular `I - Q`.
#[derive(Debug, Clone)]
struct Block {
    /// Its transient states (block indices), ascending.
    states: Vec<usize>,
    /// `I - Q` restricted to `states`, dense.
    lhs: Matrix,
}

impl AbsorbingChain {
    /// Partitions `p` given the indices of the absorbing states.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] if `absorbing` is empty, contains
    /// duplicates or out-of-range indices, if a listed state is not actually
    /// absorbing (self-loop probability 1), or if no transient states remain.
    pub fn new(p: &TransitionMatrix, absorbing: &[usize]) -> Result<Self> {
        let n = p.n_states();
        let mut is_absorbing = vec![false; n];
        for &a in absorbing {
            if a >= n {
                return Err(Error::InvalidParameter {
                    name: "absorbing",
                    detail: format!("state {a} out of range 0..{n}"),
                });
            }
            if is_absorbing[a] {
                return Err(Error::InvalidParameter {
                    name: "absorbing",
                    detail: format!("state {a} listed twice"),
                });
            }
            if (p.prob(a, a) - 1.0).abs() > 1e-9 {
                return Err(Error::InvalidParameter {
                    name: "absorbing",
                    detail: format!("state {a} is not absorbing (self-loop {})", p.prob(a, a)),
                });
            }
            is_absorbing[a] = true;
        }
        if absorbing.is_empty() {
            return Err(Error::InvalidParameter {
                name: "absorbing",
                detail: "no absorbing states given".into(),
            });
        }
        let transient: Vec<usize> = (0..n).filter(|&i| !is_absorbing[i]).collect();
        if transient.is_empty() {
            return Err(Error::InvalidParameter {
                name: "absorbing",
                detail: "all states are absorbing".into(),
            });
        }
        // Each transient state's position among the transient states.
        let mut slot = vec![0; n];
        for (ti, &i) in transient.iter().enumerate() {
            slot[i] = ti;
        }
        let mut q = SparseRows {
            start: vec![0],
            entries: Vec::new(),
        };
        for &i in &transient {
            for (j, &pij) in p.row(i).iter().enumerate() {
                if !is_absorbing[j] && !exactly_zero(pij) {
                    q.entries.push((slot[j], pij));
                }
            }
            q.start.push(q.entries.len());
        }
        let components = strongly_connected_components(&q);
        let mut block_of = vec![0; transient.len()];
        for (b, states) in components.iter().enumerate() {
            for &i in states {
                block_of[i] = b;
            }
        }
        let blocks = components
            .into_iter()
            .map(|states| {
                let mut lhs = Matrix::identity(states.len());
                for (bi, &i) in states.iter().enumerate() {
                    for &(j, qij) in q.row(i) {
                        if let Ok(bj) = states.binary_search(&j) {
                            lhs[(bi, bj)] -= qij;
                        }
                    }
                }
                Block { states, lhs }
            })
            .collect();
        Ok(AbsorbingChain {
            q,
            transient,
            blocks,
            block_of,
        })
    }

    /// The transient states, in the block order used by all outputs.
    #[must_use]
    pub fn transient_states(&self) -> &[usize] {
        &self.transient
    }

    /// The fundamental matrix `N = (I - Q)^{-1}`.
    ///
    /// `N[(i, j)]` is the expected number of visits to transient state `j`
    /// (block index) starting from transient state `i` before absorption.
    ///
    /// # Errors
    ///
    /// [`Error::Singular`] if `I - Q` is singular, which happens when some
    /// transient state cannot reach any absorbing state.
    pub fn fundamental(&self) -> Result<Matrix> {
        self.solve_backward(Matrix::identity(self.transient.len()))
    }

    /// Expected number of steps to absorption from each transient state.
    ///
    /// # Errors
    ///
    /// [`Error::Singular`] under the same condition as
    /// [`AbsorbingChain::fundamental`].
    pub fn expected_steps(&self) -> Result<Vec<f64>> {
        let steps =
            self.solve_backward(Matrix::from_rows(vec![vec![1.0]; self.transient.len()])?)?;
        Ok((0..steps.rows()).map(|i| steps[(i, 0)]).collect())
    }

    /// Expected visits to each transient state starting from block state
    /// `from` (a row of the fundamental matrix), by one forward
    /// substitution of that row alone.
    ///
    /// # Errors
    ///
    /// [`Error::Singular`] under the same condition as
    /// [`AbsorbingChain::fundamental`].
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a transient block index.
    // bt-lint: allow(pub-unused) test oracle: the dense phase sojourns the exact pass is checked against
    pub fn expected_visits(&self, from: usize) -> Result<Vec<f64>> {
        let n = self.transient.len();
        assert!(from < n, "row {from} out of bounds ({n})");
        // Solves x (I - Q) = e_from: block by block in topological order,
        // pushing each solved block's mass along its outgoing edges.
        let mut inflow = vec![0.0; n];
        inflow[from] = 1.0;
        let mut visits = vec![0.0; n];
        for (b, block) in self.blocks.iter().enumerate() {
            let m = block.states.len();
            let mut lhs_t = Matrix::zeros(m, m);
            for r in 0..m {
                for c in 0..m {
                    lhs_t[(c, r)] = block.lhs[(r, c)];
                }
            }
            let rhs: Vec<f64> = block.states.iter().map(|&i| inflow[i]).collect();
            let x = lhs_t.solve(&rhs)?;
            for (&i, &xi) in block.states.iter().zip(&x) {
                visits[i] = xi;
                if exactly_zero(xi) {
                    continue;
                }
                for &(j, qij) in self.q.row(i) {
                    if self.block_of[j] != b {
                        inflow[j] += xi * qij;
                    }
                }
            }
        }
        Ok(visits)
    }

    /// Solves `(I - Q) X = rhs` in place by backward substitution: blocks
    /// in reverse topological order, each one dense solve whose right-hand
    /// side takes the already-solved rows of the blocks it leads into.
    fn solve_backward(&self, mut x: Matrix) -> Result<Matrix> {
        let cols = x.cols();
        for (b, block) in self.blocks.iter().enumerate().rev() {
            let mut rhs = Matrix::zeros(block.states.len(), cols);
            for (bi, &i) in block.states.iter().enumerate() {
                for c in 0..cols {
                    rhs[(bi, c)] = x[(i, c)];
                }
                for &(j, qij) in self.q.row(i) {
                    if self.block_of[j] == b {
                        continue;
                    }
                    for c in 0..cols {
                        rhs[(bi, c)] += qij * x[(j, c)];
                    }
                }
            }
            let solved = block.lhs.solve_many(&rhs)?;
            for (bi, &i) in block.states.iter().enumerate() {
                for c in 0..cols {
                    x[(i, c)] = solved[(bi, c)];
                }
            }
        }
        Ok(x)
    }
}

/// The strongly connected components of the graph whose edges are the
/// non-zeros of `q`, in topological order, each component's states
/// ascending. Tarjan's algorithm with an explicit stack, so a long chain
/// of states cannot overflow the call stack.
fn strongly_connected_components(q: &SparseRows) -> Vec<Vec<usize>> {
    const UNVISITED: usize = usize::MAX;
    let n = q.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    // The depth-first path: each state with the next edge to follow.
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut next_index = 0;
    let mut components = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        path.push((root, 0));
        while let Some(&(v, edge)) = path.last() {
            if index[v] == UNVISITED {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&(w, _)) = q.row(v).get(edge) {
                if let Some(top) = path.last_mut() {
                    top.1 += 1;
                }
                if index[w] == UNVISITED {
                    path.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            path.pop();
            if let Some(&(parent, _)) = path.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut component = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                component.sort_unstable();
                components.push(component);
            }
        }
    }
    // Tarjan completes a component only after every component it reaches.
    components.reverse();
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Symmetric random walk on 0..=4 absorbed at the ends.
    fn gamblers_ruin() -> (TransitionMatrix, AbsorbingChain) {
        let mut rows = vec![vec![0.0; 5]; 5];
        rows[0][0] = 1.0;
        rows[4][4] = 1.0;
        for i in 1..4 {
            rows[i][i - 1] = 0.5;
            rows[i][i + 1] = 0.5;
        }
        let p = TransitionMatrix::from_rows(rows).unwrap();
        let chain = AbsorbingChain::new(&p, &[0, 4]).unwrap();
        (p, chain)
    }

    #[test]
    fn gamblers_ruin_expected_steps() {
        // E[steps from i] = i * (N - i) with N = 4.
        let (_, chain) = gamblers_ruin();
        let steps = chain.expected_steps().unwrap();
        assert_eq!(chain.transient_states(), &[1, 2, 3]);
        assert!((steps[0] - 3.0).abs() < 1e-10);
        assert!((steps[1] - 4.0).abs() < 1e-10);
        assert!((steps[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn expected_visits_diagonal_at_least_one() {
        let (_, chain) = gamblers_ruin();
        for i in 0..3 {
            let visits = chain.expected_visits(i).unwrap();
            assert!(visits[i] >= 1.0, "a state visits itself at least once");
        }
    }

    #[test]
    fn rejects_non_absorbing_state() {
        let p = TransitionMatrix::from_rows(vec![vec![0.5, 0.5], vec![0.0, 1.0]]).unwrap();
        let err = AbsorbingChain::new(&p, &[0]).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { .. }));
    }

    #[test]
    fn rejects_out_of_range() {
        let p = TransitionMatrix::from_rows(vec![vec![0.5, 0.5], vec![0.0, 1.0]]).unwrap();
        assert!(AbsorbingChain::new(&p, &[5]).is_err());
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        let p = TransitionMatrix::from_rows(vec![vec![0.5, 0.5], vec![0.0, 1.0]]).unwrap();
        assert!(AbsorbingChain::new(&p, &[1, 1]).is_err());
        assert!(AbsorbingChain::new(&p, &[]).is_err());
    }

    #[test]
    fn rejects_all_absorbing() {
        let p = TransitionMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(AbsorbingChain::new(&p, &[0, 1]).is_err());
    }

    #[test]
    fn unreachable_absorption_is_singular() {
        // State 1 loops to itself via state 2 and never reaches 0.
        let p = TransitionMatrix::from_rows(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0],
        ])
        .unwrap();
        let chain = AbsorbingChain::new(&p, &[0]).unwrap();
        assert_eq!(chain.expected_steps().unwrap_err(), Error::Singular);
    }

    #[test]
    fn single_bet_gambler_doc_case() {
        let p = TransitionMatrix::from_rows(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.5, 0.0, 0.5],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        let chain = AbsorbingChain::new(&p, &[0, 2]).unwrap();
        assert_eq!(chain.expected_steps().unwrap(), vec![1.0]);
    }

    #[test]
    fn components_follow_the_edges_topologically() {
        // 3 → {1 ⇄ 2} → 0, with a self-loop on 1: the topological order
        // runs against the index order.
        let q = SparseRows {
            start: vec![0, 0, 2, 4, 5],
            entries: vec![(1, 0.2), (2, 0.3), (0, 0.1), (1, 0.2), (1, 0.5)],
        };
        assert_eq!(
            strongly_connected_components(&q),
            vec![vec![3], vec![1, 2], vec![0]]
        );
    }

    /// The dense whole-matrix path the block solves replaced: `I - Q`
    /// eliminated and inverted in one piece.
    struct DenseOracle {
        lhs: Matrix,
    }

    impl DenseOracle {
        fn new(chain: &AbsorbingChain) -> Self {
            let n = chain.transient.len();
            let mut lhs = Matrix::identity(n);
            for i in 0..n {
                for &(j, qij) in chain.q.row(i) {
                    lhs[(i, j)] -= qij;
                }
            }
            DenseOracle { lhs }
        }

        fn fundamental(&self) -> Result<Matrix> {
            self.lhs.solve_many(&Matrix::identity(self.lhs.rows()))
        }

        fn expected_steps(&self) -> Result<Vec<f64>> {
            self.lhs.solve(&vec![1.0; self.lhs.rows()])
        }

        fn expected_visits(&self, from: usize) -> Result<Vec<f64>> {
            Ok(self.fundamental()?.row(from).to_vec())
        }
    }

    /// A random absorbing chain: transient states in groups that form
    /// planted cycles (some with self-loops), edges only from a group to
    /// later groups, absorbing states interleaved, and every index
    /// shuffled so that no order of the input is the topological one.
    /// Each group has a way out, so absorption is certain; with
    /// `closed_group` that group's rows keep all their mass inside it.
    fn random_chain(seed: u64, closed_group: bool) -> (TransitionMatrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let groups: Vec<usize> = (0..rng.gen_range(1..=6))
            .map(|_| rng.gen_range(1..=4))
            .collect();
        let n_transient: usize = groups.iter().sum();
        let n_absorbing = rng.gen_range(1..=3);
        let n = n_transient + n_absorbing;
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let closed = closed_group.then(|| rng.gen_range(0..groups.len()));
        let mut rows = vec![vec![0.0; n]; n];
        let mut first = 0;
        for (g, &size) in groups.iter().enumerate() {
            let later = first + size..n_transient;
            for m in 0..size {
                let i = first + m;
                let row = &mut rows[perm[i]];
                // The planted cycle through the group, and a self-loop.
                row[perm[first + (m + 1) % size]] += rng.gen_range(0.2..1.0);
                if rng.gen_bool(0.5) {
                    row[perm[i]] += rng.gen_range(0.1..0.6);
                }
                if closed != Some(g) {
                    // The group's last state always escapes; the others
                    // sometimes do.
                    let escapes = if m == size - 1 {
                        2
                    } else {
                        rng.gen_range(0..=2)
                    };
                    for _ in 0..escapes {
                        let to = if later.is_empty() || rng.gen_bool(0.4) {
                            n_transient + rng.gen_range(0..n_absorbing)
                        } else {
                            rng.gen_range(later.clone())
                        };
                        row[perm[to]] += rng.gen_range(0.05..1.0);
                    }
                }
                let sum: f64 = row.iter().sum();
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
            first += size;
        }
        let absorbing: Vec<usize> = (n_transient..n).map(|a| perm[a]).collect();
        for &a in &absorbing {
            rows[a][a] = 1.0;
        }
        (TransitionMatrix::from_rows(rows).unwrap(), absorbing)
    }

    fn agree(got: &[f64], want: &[f64]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| (g - w).abs() <= 1e-10 * w.abs().max(1.0))
    }

    fn entries(m: &Matrix) -> Vec<f64> {
        (0..m.rows()).flat_map(|i| m.row(i).to_vec()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn block_solves_match_the_dense_oracle(seed in any::<u64>()) {
            let (p, absorbing) = random_chain(seed, false);
            let chain = AbsorbingChain::new(&p, &absorbing).unwrap();
            let oracle = DenseOracle::new(&chain);
            prop_assert!(agree(&chain.expected_steps().unwrap(), &oracle.expected_steps().unwrap()));
            prop_assert!(agree(
                &entries(&chain.fundamental().unwrap()),
                &entries(&oracle.fundamental().unwrap())
            ));
            for from in 0..chain.transient_states().len() {
                prop_assert!(agree(
                    &chain.expected_visits(from).unwrap(),
                    &oracle.expected_visits(from).unwrap()
                ));
            }
        }

        #[test]
        fn a_closed_class_is_singular_everywhere(seed in any::<u64>()) {
            let (p, absorbing) = random_chain(seed, true);
            let chain = AbsorbingChain::new(&p, &absorbing).unwrap();
            let oracle = DenseOracle::new(&chain);
            prop_assert_eq!(oracle.expected_steps().unwrap_err(), Error::Singular);
            prop_assert_eq!(oracle.fundamental().unwrap_err(), Error::Singular);
            prop_assert_eq!(chain.expected_steps().unwrap_err(), Error::Singular);
            prop_assert_eq!(chain.fundamental().unwrap_err(), Error::Singular);
            for from in 0..chain.transient_states().len() {
                prop_assert_eq!(chain.expected_visits(from).unwrap_err(), Error::Singular);
            }
        }
    }
}
