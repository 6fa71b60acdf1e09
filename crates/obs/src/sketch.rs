//! Streaming distribution sketches for sublinear observability.
//!
//! Two tools, both dependency-free and deterministic:
//!
//! * [`CountCells`] — *sharded counter cells* over a bounded integer
//!   domain: one cell per possible value, maintained incrementally by
//!   the producer (`incr`/`decr`/`shift` at mutation sites). Quantile
//!   queries walk the cells, so a sample costs O(domain) instead of
//!   O(population · log population) for the sort-based full scan it
//!   replaces. Results are **exact**: `value_at_rank` agrees with
//!   indexing the sorted per-item vector.
//! * [`P2Quantile`] — the classic P² (piecewise-parabolic) streaming
//!   quantile estimator of Jain & Chlamtac (CACM 1985) for unbounded
//!   domains where cells do not apply (e.g. per-round observer
//!   overhead in nanoseconds). Five markers, O(1) per observation,
//!   O(1) memory, no allocation after construction.
//!
//! # Determinism
//!
//! Neither sketch reads a clock or draws randomness; both are pure
//! functions of their observation sequence. Feeding the same stream
//! twice yields bit-identical estimates, which is what lets them live
//! inside the telemetry path without perturbing same-seed runs.
//!
//! # Error bounds
//!
//! `CountCells` is exact. `P2Quantile` is exact while `n <= 5`; beyond
//! that it is an approximation whose *rank error* (distance between the
//! estimate's rank in the sorted sample and the target rank `q·(n−1)`)
//! stays within `max(10, 0.55·n)` across the adversarial distributions
//! exercised by the property suite (uniform, constant, bimodal,
//! sorted/reverse-sorted, and heavy-tailed step mixtures — see
//! `crates/obs/tests/sketch_props.rs`). The bound is deliberately
//! honest rather than flattering: bimodal streams with a wide value
//! gap drive the markers' parabolic interpolation to `~0.52·n` rank
//! error, and monotone (sorted) streams reach `~0.41·n` — both known
//! P² weak spots. Well-mixed streams like the simulator's piece-count
//! samples stay far tighter in practice. The estimate is always
//! clamped to the observed `[min, max]` by construction.
//!
//! The engine's telemetry quantiles do not rely on the P² bound at
//! all: piece-count quantiles come from `CountCells`, which is exact.
//! `P2Quantile` exists for unbounded-domain signals (timings, ratios)
//! where a count array cannot apply.

// bt-lint: allow-file(panic-index) — every index below is structurally
// bounded: `CountCells` clamps values to its fixed domain before
// indexing `counts`, and the P² marker arrays are `[_; 5]` indexed by
// loop bounds and neighbors of interior markers (1..=3). The property
// suite in tests/sketch_props.rs hammers both with adversarial inputs.
/// Exact value-indexed counter cells over the domain `0..=max_value`.
///
/// The producer moves counts between cells as the underlying items
/// mutate; readers answer rank/quantile queries by walking the cells.
///
/// # Example
///
/// ```
/// use bt_obs::CountCells;
///
/// let mut cells = CountCells::new(10);
/// cells.incr(3);
/// cells.incr(7);
/// cells.incr(7);
/// assert_eq!(cells.total(), 3);
/// assert_eq!(cells.value_at_rank(0), 3);
/// assert_eq!(cells.value_at_rank(2), 7);
/// cells.shift(7, 8); // one item went from 7 to 8
/// assert_eq!(cells.value_at_rank(2), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountCells {
    cells: Vec<u64>,
    total: u64,
}

impl CountCells {
    /// Creates empty cells over `0..=max_value`.
    #[must_use]
    pub fn new(max_value: u32) -> CountCells {
        CountCells {
            cells: vec![0; max_value as usize + 1],
            total: 0,
        }
    }

    /// Largest representable value.
    #[must_use]
    pub fn max_value(&self) -> u32 {
        (self.cells.len() - 1) as u32
    }

    /// Number of items currently tracked.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw per-value counts (index = value).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.cells
    }

    /// Adds one item with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds the domain.
    pub fn incr(&mut self, value: u32) {
        self.cells[value as usize] += 1;
        self.total += 1;
    }

    /// Removes one item with `value`.
    ///
    /// # Panics
    ///
    /// Panics if no item with `value` is tracked (the producer lost
    /// sync with the underlying population).
    pub fn decr(&mut self, value: u32) {
        let cell = &mut self.cells[value as usize];
        assert!(*cell > 0, "count cell underflow at value {value}");
        *cell -= 1;
        self.total -= 1;
    }

    /// Moves one item from `from` to `to` (its value changed).
    ///
    /// # Panics
    ///
    /// Panics if no item with value `from` is tracked.
    pub fn shift(&mut self, from: u32, to: u32) {
        let cell = &mut self.cells[from as usize];
        assert!(*cell > 0, "count cell underflow at value {from}");
        *cell -= 1;
        self.cells[to as usize] += 1;
    }

    /// Value of the `rank`-th item (0-based) in ascending sorted order —
    /// exactly `sorted_values[rank]` for the equivalent sorted vector.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= total()`.
    #[must_use]
    pub fn value_at_rank(&self, rank: u64) -> u32 {
        assert!(rank < self.total, "rank {rank} out of {} items", self.total);
        let mut seen = 0u64;
        for (value, &count) in self.cells.iter().enumerate() {
            seen += count;
            if seen > rank {
                return value as u32;
            }
        }
        // The loop sums every cell, so `seen == total` afterwards and
        // the assert above already guaranteed `rank < total`.
        // bt-lint: allow(panic-macro) — structurally unreachable, see above
        unreachable!("total() covers all cells")
    }

    /// Quantile under the telemetry convention used by the full-scan
    /// path it replaces: the item at rank `round((total − 1) · fraction)`.
    /// Returns `None` when empty.
    #[must_use]
    pub fn quantile(&self, fraction: f64) -> Option<u32> {
        if self.total == 0 {
            return None;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((self.total - 1) as f64 * fraction).round() as u64;
        Some(self.value_at_rank(rank.min(self.total - 1)))
    }

    /// Sum of all tracked values (`Σ value · count`). O(domain).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.cells
            .iter()
            .enumerate()
            .map(|(value, &count)| value as u64 * count)
            .sum()
    }
}

/// P² streaming estimator for a single quantile `q` (Jain & Chlamtac).
///
/// Five markers track the running minimum, the `q/2`, `q`, and
/// `(1+q)/2` quantile estimates, and the running maximum; each
/// observation adjusts the inner markers with a piecewise-parabolic
/// interpolation. See the module docs for the tested error bound.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Observations seen so far.
    count: u64,
    /// Marker heights (estimates).
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    rates: [f64; 5],
}

impl P2Quantile {
    /// Creates an estimator for quantile `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    #[must_use]
    pub fn new(q: f64) -> P2Quantile {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        P2Quantile {
            q,
            count: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            rates: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
        }
    }

    /// The target quantile.
    #[must_use]
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Observations seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        #[allow(clippy::cast_possible_truncation)]
        let n = self.count as usize;
        self.count += 1;
        if n < 5 {
            // Exact phase: collect and keep sorted.
            self.heights[n] = x;
            let mut i = n;
            while i > 0 && self.heights[i - 1] > self.heights[i] {
                self.heights.swap(i - 1, i);
                i -= 1;
            }
            return;
        }
        // Locate the cell, updating the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            while k < 3 && x >= self.heights[k + 1] {
                k += 1;
            }
            k
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.rates[i];
        }
        // Adjust the three inner markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let step_up = self.positions[i + 1] - self.positions[i] > 1.0;
            let step_down = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && step_up) || (d <= -1.0 && step_down) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                let monotone = self.heights[i - 1] < candidate && candidate < self.heights[i + 1];
                self.heights[i] = if monotone {
                    candidate
                } else {
                    self.linear(i, d)
                };
                self.positions[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height prediction for marker `i` moved
    /// by `d` (±1).
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (n_prev, n_cur, n_next) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        let (h_prev, h_cur, h_next) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        h_cur
            + d / (n_next - n_prev)
                * ((n_cur - n_prev + d) * (h_next - h_cur) / (n_next - n_cur)
                    + (n_next - n_cur - d) * (h_cur - h_prev) / (n_cur - n_prev))
    }

    /// Linear fallback when the parabolic prediction breaks monotonicity.
    fn linear(&self, i: usize, d: f64) -> f64 {
        #[allow(clippy::cast_possible_truncation)]
        let j = (i as f64 + d) as usize;
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate: exact for `n <= 5`, the central marker beyond.
    /// Returns `None` before any observation.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            #[allow(clippy::cast_possible_truncation)]
            n @ 1..=5 => {
                let n = n as usize;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let rank = ((n - 1) as f64 * self.q).round() as usize;
                Some(self.heights[rank.min(n - 1)])
            }
            _ => Some(self.heights[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_match_sorted_vector() {
        let values = [3u32, 0, 7, 7, 2, 9, 0, 4];
        let mut cells = CountCells::new(10);
        for &v in &values {
            cells.incr(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for (rank, &v) in sorted.iter().enumerate() {
            assert_eq!(cells.value_at_rank(rank as u64), v);
        }
        assert_eq!(cells.total(), 8);
        assert_eq!(cells.sum(), values.iter().map(|&v| u64::from(v)).sum());
    }

    #[test]
    fn cells_quantile_matches_index_convention() {
        let values = [5u32, 1, 3, 8, 8, 2, 0];
        let mut cells = CountCells::new(8);
        for &v in &values {
            cells.incr(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for &f in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let idx = ((sorted.len() - 1) as f64 * f).round() as usize;
            assert_eq!(cells.quantile(f), Some(sorted[idx]), "fraction {f}");
        }
        assert_eq!(CountCells::new(3).quantile(0.5), None);
    }

    #[test]
    fn cells_shift_and_decr_track_mutations() {
        let mut cells = CountCells::new(4);
        cells.incr(0);
        cells.incr(0);
        cells.shift(0, 1);
        cells.shift(1, 2);
        assert_eq!(cells.counts(), &[1, 0, 1, 0, 0]);
        cells.decr(2);
        assert_eq!(cells.total(), 1);
        assert_eq!(cells.value_at_rank(0), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cells_decr_empty_value_panics() {
        CountCells::new(4).decr(2);
    }

    #[test]
    fn p2_exact_below_six_observations() {
        let mut p2 = P2Quantile::new(0.5);
        assert_eq!(p2.estimate(), None);
        for x in [9.0, 1.0, 5.0] {
            p2.observe(x);
        }
        assert_eq!(p2.estimate(), Some(5.0));
    }

    #[test]
    fn p2_median_of_uniform_stream() {
        let mut p2 = P2Quantile::new(0.5);
        // Deterministic low-discrepancy walk over [0, 1000).
        let mut x = 17u64;
        let mut seen = Vec::new();
        for _ in 0..2_000 {
            x = (x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)) % 1_000;
            #[allow(clippy::cast_precision_loss)]
            let v = x as f64;
            p2.observe(v);
            seen.push(v);
        }
        seen.sort_by(f64::total_cmp);
        let exact = seen[seen.len() / 2];
        let estimate = p2.estimate().expect("stream was non-empty");
        assert!(
            (estimate - exact).abs() < 100.0,
            "estimate {estimate} too far from exact median {exact}"
        );
    }

    #[test]
    fn p2_is_deterministic_and_bounded() {
        let stream: Vec<f64> = (0..500).map(|i| f64::from((i * 37) % 113)).collect();
        let run = || {
            let mut p2 = P2Quantile::new(0.95);
            for &x in &stream {
                p2.observe(x);
            }
            p2.estimate().expect("non-empty")
        };
        let (a, b) = (run(), run());
        assert!(a.to_bits() == b.to_bits(), "same stream, same bits");
        let (min, max) = (0.0, 112.0);
        assert!((min..=max).contains(&a), "estimate {a} escaped [min, max]");
    }
}
