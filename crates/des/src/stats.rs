//! Measurement collectors for simulation experiments.
//!
//! [`Histogram`] — fixed-width bins with overflow tracking and
//! approximate quantiles — is what the experiments in this workspace
//! need (the swarm snapshot's piece-count distribution).

/// A fixed-width histogram over `[min, max)` with overflow/underflow bins.
///
/// # Example
///
/// ```
/// use bt_des::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// h.record(1.0);
/// h.record(3.0);
/// h.record(3.5);
/// h.record(42.0); // overflow
/// assert_eq!(h.bin_count(1), 2); // [2, 4)
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning
    /// `[min, max)`.
    ///
    /// Returns `None` if `bins == 0`, the bounds are not finite, or
    /// `min >= max`.
    #[must_use]
    pub fn new(min: f64, max: f64, bins: usize) -> Option<Self> {
        if bins == 0 || !min.is_finite() || !max.is_finite() || min >= max {
            return None;
        }
        Some(Histogram {
            min,
            max,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Records a sample. NaN counts as overflow (it is certainly not in
    /// any bin, and silently dropping samples would skew totals).
    pub fn record(&mut self, x: f64) {
        if x.is_nan() || x >= self.max {
            self.overflow += 1;
        } else if x < self.min {
            self.underflow += 1;
        } else {
            let width = (self.max - self.min) / self.bins.len() as f64;
            let idx = (((x - self.min) / width) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// The `[lo, hi)` bounds of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len(), "bin {i} out of range");
        let width = (self.max - self.min) / self.bins.len() as f64;
        (
            self.min + width * i as f64,
            self.min + width * (i + 1) as f64,
        )
    }

    /// Number of bins.
    #[must_use]
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// Samples below `min`.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `max` (including NaN).
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The smallest value `q` such that at least `quantile` of the
    /// *in-range* samples fall in bins at or below the one containing `q`
    /// (bin-upper-bound approximation). `None` if no in-range samples.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `[0, 1]`.
    #[must_use]
    pub fn approximate_quantile(&self, quantile: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&quantile),
            "quantile {quantile} outside [0, 1]"
        );
        let in_range: u64 = self.bins.iter().sum();
        if in_range == 0 {
            return None;
        }
        let target = (quantile * in_range as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(self.bin_bounds(i).1);
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for i in 0..10 {
            h.record(f64::from(i) + 0.5);
        }
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 1, "bin {i}");
        }
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn out_of_range_and_nan() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(-0.1);
        h.record(1.0); // max is exclusive
        h.record(f64::NAN);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn invalid_construction() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 0.0, 4).is_none());
        assert!(Histogram::new(0.0, f64::INFINITY, 4).is_none());
        assert!(Histogram::new(2.0, 2.0, 4).is_none());
    }

    #[test]
    fn bounds_are_uniform() {
        let h = Histogram::new(0.0, 8.0, 4).unwrap();
        assert_eq!(h.bin_bounds(0), (0.0, 2.0));
        assert_eq!(h.bin_bounds(3), (6.0, 8.0));
        assert_eq!(h.n_bins(), 4);
    }

    #[test]
    fn quantiles_approximate() {
        let mut h = Histogram::new(0.0, 100.0, 100).unwrap();
        for i in 0..100 {
            h.record(f64::from(i) + 0.5);
        }
        assert_eq!(h.approximate_quantile(0.5), Some(50.0));
        assert_eq!(h.approximate_quantile(1.0), Some(100.0));
        assert_eq!(h.approximate_quantile(0.0), Some(1.0));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        assert_eq!(h.approximate_quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_bounds_checked() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        let _ = h.approximate_quantile(1.5);
    }
}
